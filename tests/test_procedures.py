import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transferlab as tl
from transferlab.procedures import _near_optimal, near_optimal_mask
from transferlab.hypotheses import SampleCounts, member_disagreements, member_risks

import oracles


CONF = tl.ConfidenceParams(c=1.0, delta=0.1)


def make_sample(xs, ys, discrete=True):
    dtype = np.int64 if discrete else np.float64
    return tl.LabeledSample(np.asarray(xs, dtype=dtype), np.asarray(ys), seed=0)


def empty():
    return make_sample([], [])


def random_finite_instance(rng, max_members=32, max_points=6, max_n=64):
    s = int(rng.integers(2, max_points + 1))
    n_members = int(rng.integers(2, max_members + 1))
    seen, patterns = set(), []
    while len(patterns) < n_members:
        pat = tuple(int(b) for b in rng.integers(0, 2, s))
        if pat not in seen:
            seen.add(pat)
            patterns.append(pat)
        if len(seen) == 2 ** s:
            break
    cls = tl.finite_class(patterns, vc_dim=max(1, int(np.log2(len(patterns)))))
    def sample(n):
        return make_sample(rng.integers(0, s, n), rng.integers(0, 2, n))
    n_p = int(rng.integers(0, max_n + 1))
    n_q = int(rng.integers(0, max_n + 1))
    return cls, sample(n_p), sample(n_q)


# ---------------------------------------------------------------------------
# widths


def test_width_zero_at_matching_size_and_unit_delta():
    assert tl.confidence_width(10, 10, 1.0) == 0.0


def test_width_frozen_value():
    assert tl.confidence_width(100, 10, 0.1) == pytest.approx(0.2532843602293451, abs=1e-15)


def test_width_sentinel_and_monotone_tail():
    assert tl.confidence_width(0, 5, 0.1) == math.inf
    # the log term activates at n = 2d, so the decrease is monotone only from
    # n >= e*d onward; check the tail and the vanishing limit
    vals = [tl.confidence_width(n, 8, 0.05) for n in (24, 48, 96, 512, 4096, 2 ** 20)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-4


def test_width_refuses_a_capacity_below_one():
    # d = 0 divided by zero in log(max(n, d) / d)
    for width in (lambda: tl.confidence_width(10, 0, 0.05),
                  lambda: tl.confidence_width_anytime(10, -1, 0.05)):
        with pytest.raises(ValueError, match="capacity d must be >= 1"):
            width()


def test_width_anytime_identity():
    for n in (1, 7, 100, 4096):
        diff = tl.confidence_width_anytime(n, 6, 0.2) - tl.confidence_width(n, 6, 0.2)
        assert diff == pytest.approx((1.0 / n) * math.log(2.0 * n * n), abs=1e-12)


def test_width_weighted_frozen_value():
    # the reweighted width adds the density family's capacity to the class's
    assert tl.confidence_width(1000, 5 + 3, 0.05) == pytest.approx(
        0.041622242171972405, abs=1e-15)


# ---------------------------------------------------------------------------
# constrained procedures


def test_transfer_erm_without_target_data_is_source_erm():
    cls = tl.full_cube_class(3)
    sp = make_sample([0, 1, 2, 0], [1, 0, 1, 1])
    got = tl.transfer_erm(sp, empty(), cls, CONF)
    assert got is tl.erm(cls, sp)


def test_transfer_erm_empty_source_lowest_feasible():
    cls = tl.full_cube_class(3)
    sq = make_sample([0, 1, 2], [1, 1, 1])
    got = tl.transfer_erm(empty(), sq, cls, CONF)
    mask = near_optimal_mask(cls, sq, CONF)
    assert got is cls.members[int(np.flatnonzero(mask)[0])]


def test_transfer_erm_output_feasible_and_dominant():
    rng = np.random.default_rng(2)
    for _ in range(30):
        cls, sp, sq = random_finite_instance(rng)
        h = tl.transfer_erm(sp, sq, cls, CONF)
        mask = near_optimal_mask(cls, sq, CONF)
        i = cls.members.index(h)
        assert mask[i]
        risks_p = member_risks(cls, sp)
        assert all(risks_p[i] <= risks_p[j] + 1e-15
                   for j in np.flatnonzero(mask))


def test_reverse_transfer_is_mirror():
    rng = np.random.default_rng(3)
    cls, sp, sq = random_finite_instance(rng)
    assert tl.reverse_transfer_erm(sp, sq, cls, CONF) is tl.transfer_erm(sq, sp, cls, CONF)


def test_selector_no_target_data_returns_source_erm():
    cls = tl.full_cube_class(3)
    sp = make_sample([0, 0, 1], [1, 1, 0])
    assert tl.select_source_or_target(sp, empty(), cls, CONF) is tl.erm(cls, sp)


def test_selector_identical_distributions_accepts_source():
    joint = tl.DiscreteJoint(np.arange(3.0), [0.4, 0.3, 0.3], [1.0, 0.0, 1.0])
    cls = tl.full_cube_class(3)
    sp = tl.sample_labeled(joint, 200, seed=1)
    sq = tl.sample_labeled(joint, 200, seed=2)
    got = tl.select_source_or_target(sp, sq, cls, CONF)
    assert got is tl.erm(cls, sp)


def test_selector_rejects_misleading_source():
    # large source sample from a pair whose source optimum is bad on the target
    pair, cls = tl.rcs_violating_pair(0.15)
    rejections = 0
    for t in range(40):
        sp = tl.sample_labeled(pair.p, 4096, seed=100 + t)
        sq = tl.sample_labeled(pair.q, 512, seed=200 + t)
        h = tl.select_source_or_target(sp, sq, cls, CONF)
        rejections += tl.excess_risk(pair.q, h, cls) < 0.1
    assert rejections >= 32  # most runs fall back to the target ERM


def test_selector_reads_the_target_erm_from_the_near_optimal_set(monkeypatch):
    # a rejected source ERM falls back to the anchor of the target's
    # near-optimal set: one risk pass over the target sample, not two (every
    # risk pass, public or on checked counts, runs the private kernel)
    calls = []
    real = tl.hypotheses._risks

    def counted(cls, sample):
        calls.append(len(sample))
        return real(cls, sample)

    for mod in (tl.hypotheses, tl.procedures):
        monkeypatch.setattr(mod, "_risks", counted)
    pair, cls = tl.rcs_violating_pair(0.15)
    sp = tl.sample_labeled(pair.p, 8192, seed=1)
    sq = tl.sample_labeled(pair.q, 4096, seed=2)
    h = tl.select_source_or_target(sp, sq, cls, CONF)
    assert sorted(calls) == [4096, 8192]
    assert h is tl.erm(cls, sq) and h is not tl.erm(cls, sp)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_unit_weights_give_the_plain_near_optimal_set(data):
    # counts are integers, so the plain and the f = 1 kernels sum exactly: the
    # set, its anchor and the disagreements agree bit for bit at any width
    s = data.draw(st.integers(1, 6))
    if data.draw(st.booleans()):
        patterns = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=s, max_size=s),
                                      min_size=1, max_size=2 ** s, unique_by=tuple))
        cls = tl.finite_class(patterns)
    else:
        cls = tl.project_class(tl.threshold_class(), np.arange(float(s)))
    top = data.draw(st.sampled_from([0, 1, 50]))  # 0: the empty sample
    points = data.draw(st.lists(st.integers(0, top), min_size=s, max_size=s))
    ones = [data.draw(st.integers(0, k)) for k in points]
    sample = tl.SampleCounts(np.array(points, dtype=np.int64), np.array(ones, dtype=np.int64))
    conf = tl.ConfidenceParams(c=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                               delta=data.draw(st.sampled_from([0.05, 0.1, 0.3])))
    width = data.draw(st.one_of(
        st.just(tl.confidence_width(len(sample), cls.vc_dim, conf.delta)),
        st.floats(0.0, 10.0), st.just(math.inf)))
    mask, anchor, dis = _near_optimal(cls, sample, conf, width)
    mask1, anchor1, dis1 = _near_optimal(cls, sample, conf, width, np.ones(s))
    assert np.array_equal(mask, mask1) and anchor == anchor1 and np.array_equal(dis, dis1)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_batch_is_its_columns(data):
    # a batch of T samples gives, column by column, each sample's own kernel
    # values, near-optimal mask, anchor and disagreements, bit for bit
    s, T = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 4))
    if data.draw(st.booleans()):
        patterns = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=s, max_size=s),
                                      min_size=1, max_size=2 ** s, unique_by=tuple))
        cls = tl.finite_class(patterns)
    else:
        cls = tl.project_class(tl.threshold_class(), np.arange(float(s)))
    n, scale = data.draw(st.integers(0, 8)), data.draw(st.sampled_from([1, 1000]))
    points, ones = np.zeros((2, s, T), dtype=np.int64)  # n = 0: an empty batch
    for t in range(T):
        for x, y in data.draw(st.lists(st.tuples(st.integers(0, s - 1), st.integers(0, 1)),
                                       min_size=n, max_size=n)):
            points[x, t] += scale
            ones[x, t] += scale * y
    batch = SampleCounts._trusted(points, ones, n=n * scale)
    columns = [SampleCounts(points[:, t].copy(), ones[:, t].copy()) for t in range(T)]
    assert len(batch) == n * scale and all(len(col) == n * scale for col in columns)
    refs = np.array(data.draw(st.lists(st.integers(0, len(cls) - 1), min_size=T, max_size=T)))
    conf = tl.ConfidenceParams(c=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                               delta=data.draw(st.sampled_from([0.05, 0.1, 0.3])))
    width = data.draw(st.one_of(
        st.just(tl.confidence_width(len(batch), cls.vc_dim, conf.delta)),
        st.floats(0.0, 10.0), st.just(math.inf)))
    risks, dis = member_risks(cls, batch), member_disagreements(cls, refs, batch)
    mask = near_optimal_mask(cls, batch, conf)
    near, anchors, near_dis = _near_optimal(cls, batch, conf, width)
    for got in (risks, dis, mask, near):
        assert got.shape == (len(cls), T)
    for t, col in enumerate(columns):
        assert np.array_equal(risks[:, t], member_risks(cls, col))
        assert np.array_equal(dis[:, t], member_disagreements(cls, refs[t], col))
        assert np.array_equal(mask[:, t], near_optimal_mask(cls, col, conf))
        want, anchor, want_dis = _near_optimal(cls, col, conf, width)
        assert np.array_equal(near[:, t], want)
        assert anchors[t] == anchor and np.array_equal(near_dis[:, t], want_dis)


def test_a_batch_at_an_infinite_width_anchors_each_column_at_its_erm():
    # every member is in the set, anchored per column at that column's ERM
    # (members 2, 0 and 1 here), with that column's disagreements
    cls = tl.finite_class([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    points = np.array([[1, 0, 2], [1, 3, 0], [2, 1, 2]])
    ones = np.array([[1, 0, 2], [1, 0, 0], [2, 0, 0]])
    batch = SampleCounts._trusted(points, ones, n=4)  # each column holds 4 draws
    mask, anchors, dis = _near_optimal(cls, batch, tl.ConfidenceParams(), math.inf)
    assert mask.shape == (3, 3) and mask.all()
    assert np.array_equal(anchors, [2, 0, 1])
    assert np.array_equal(anchors, np.argmin(member_risks(cls, batch), axis=0))
    for t in range(3):
        col = SampleCounts(points[:, t].copy(), ones[:, t].copy())
        assert np.array_equal(dis[:, t], member_disagreements(cls, anchors[t], col))


def test_procedures_match_oracles_randomized():
    rng = np.random.default_rng(11)
    for _ in range(150):
        cls, sp, sq = random_finite_instance(rng)
        c = float(rng.choice([0.5, 1.0, 2.0]))
        delta = float(rng.choice([0.05, 0.1, 0.3]))
        conf = tl.ConfidenceParams(c=c, delta=delta)
        got = tl.transfer_erm(sp, sq, cls, conf)
        want = cls.members[oracles.transfer_erm_index(cls.members, sp, sq, c,
                                                      delta, cls.vc_dim)]
        assert got is want
        got_sel = tl.select_source_or_target(sp, sq, cls, conf)
        want_sel = cls.members[oracles.selector_index(cls.members, sp, sq, c,
                                                      delta, cls.vc_dim)]
        assert got_sel is want_sel


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_empty_target_gives_the_source_erm(data):
    # with no target data the constraint is vacuous, so both procedures
    # return the source ERM itself on a finite class; the raw threshold class
    # is projected afresh on every call, so there the member is only equal
    conf = tl.ConfidenceParams(c=data.draw(st.sampled_from([0.5, 1.0, 2.0])),
                               delta=data.draw(st.sampled_from([0.05, 0.1, 0.3])))
    s = data.draw(st.integers(1, 5))
    patterns = data.draw(st.lists(st.lists(st.integers(0, 1), min_size=s, max_size=s),
                                  min_size=1, max_size=2 ** s, unique_by=tuple))
    n = data.draw(st.integers(0, 40))
    xs = data.draw(st.lists(st.integers(0, s - 1), min_size=n, max_size=n))
    ys = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    cls, sp = tl.finite_class(patterns), make_sample(xs, ys)
    want = tl.erm(cls, sp)
    assert tl.transfer_erm(sp, empty(), cls, conf) is want
    assert tl.select_source_or_target(sp, empty(), cls, conf) is want
    points = data.draw(st.lists(st.one_of(st.integers(0, 8).map(lambda k: k / 8.0),
                                          st.floats(-1e6, 1e6)), min_size=n, max_size=n))
    line = make_sample(points, ys, discrete=False)
    want = tl.erm(tl.threshold_class(), line)
    assert tl.transfer_erm(line, empty(), tl.threshold_class(), conf) == want
    assert tl.select_source_or_target(line, empty(), tl.threshold_class(), conf) == want


@pytest.mark.parametrize("target,error,message", [
    (SampleCounts(np.zeros(7, dtype=np.int64), np.zeros(7, dtype=np.int64)), ValueError,
     "counts over 7 support points for a class over 3"),
    (SampleCounts(np.zeros(3, dtype=np.int64)), TypeError, "label counts need a labeled sample"),
    (tl.LabeledSample([], []), TypeError, "float-coordinate sample over a class without"),
], ids=["off-support", "unlabeled", "float-coordinates"])
def test_an_empty_target_is_checked_before_the_constraint_is_waived(target, error, message):
    # no target data makes the constraint vacuous, but the empty target is
    # still zero counts that must fit the class, as one draw must
    cls = tl.full_cube_class(3)
    source = SampleCounts(np.array([1, 0, 0]), np.array([1, 0, 0]))
    for call in (lambda: tl.transfer_erm(source, target, cls, CONF),
                 lambda: tl.reverse_transfer_erm(target, source, cls, CONF),
                 lambda: tl.select_source_or_target(source, target, cls, CONF),
                 lambda: near_optimal_mask(cls, target, CONF)):
        with pytest.raises(error, match=message):
            call()


def test_transfer_erm_at_a_huge_finite_constant():
    # a huge c makes every member target-feasible, so transfer ERM is the
    # source ERM (here also the target ERM); at c = inf the radius at zero
    # disagreement was inf * 0 = NaN, which dropped the anchor (member 251)
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[fam.sigma_index()]
    sp, sq = tl.sample_labeled(pair.p, 4000, 3), tl.sample_labeled(pair.q, 50, 1003)
    want = tl.erm(fam.cls, sp)
    assert want is tl.erm(fam.cls, sq) is fam.cls[255]
    assert tl.transfer_erm(sp, sq, fam.cls, tl.ConfidenceParams(c=1e200)) is want


def test_a_radius_whose_two_terms_overflow_only_in_their_sum():
    # c*sqrt(dis*A) = 7.0e306 and c*A = 1.75e308 are finite but their sum is
    # not: the radius saturates to +inf without a warning (an error here)
    cls = tl.finite_class([[0, 0], [1, 1]])
    s = make_sample([0], [1])
    conf = tl.ConfidenceParams(c=2.8e305, delta=1e-272)
    want = oracles.feasible_mask(cls.members, s, conf.c, conf.delta, cls.vc_dim)
    assert want == [True, True] and near_optimal_mask(cls, s, conf).tolist() == want


def test_transfer_erm_threshold_class_projection():
    pair = tl.example_scenario(2)
    sp = tl.sample_labeled(pair.p, 60, seed=5)
    sq = tl.sample_labeled(pair.q, 40, seed=6)
    h = tl.transfer_erm(sp, sq, tl.threshold_class(), CONF)
    points = np.concatenate([sp.xs, sq.xs])
    proj = tl.project_class(tl.threshold_class(), points)
    want = proj.members[oracles.transfer_erm_index(proj.members, sp, sq, CONF.c,
                                                   CONF.delta, proj.vc_dim)]
    assert h == want


def test_raw_threshold_procedures_match_oracles_randomized():
    # float samples on a small grid, so points repeat within and across samples
    rng = np.random.default_rng(37)
    tc = tl.threshold_class()
    for _ in range(80):
        def sample(n):
            return make_sample(rng.integers(0, 12, n) / 12.0, rng.integers(0, 2, n),
                               discrete=False)
        sp = sample(int(rng.integers(1, 40)))
        sq = sample(int(rng.integers(0, 40)))
        probe = tl.UnlabeledSample(rng.integers(0, 12, int(rng.integers(1, 40))) / 12.0, 0)
        c = float(rng.choice([0.5, 1.0, 2.0]))
        delta = float(rng.choice([0.05, 0.1, 0.3]))
        conf = tl.ConfidenceParams(c=c, delta=delta)
        members = oracles.projected_members(np.concatenate([sp.xs, sq.xs]))
        assert tl.transfer_erm(sp, sq, tc, conf) == \
            members[oracles.transfer_erm_index(members, sp, sq, c, delta, 1)]
        assert tl.reverse_transfer_erm(sp, sq, tc, conf) == \
            members[oracles.transfer_erm_index(members, sq, sp, c, delta, 1)]
        assert tl.select_source_or_target(sp, sq, tc, conf) == \
            members[oracles.selector_index(members, sp, sq, c, delta, 1)]
        members = oracles.projected_members(np.concatenate([sq.xs, probe.xs]))
        assert tl.delta_hat(sq, probe, tc, conf) == \
            oracles.delta_hat_value(members, sq, probe, c, delta, 1)


def test_scaled_confidence():
    conf = tl.ConfidenceParams(c=1.0, delta=0.2)
    assert conf.scaled(4).delta == pytest.approx(0.05)
    with pytest.raises(ValueError):
        tl.ConfidenceParams(c=0.0)
    with pytest.raises(ValueError):
        tl.ConfidenceParams(delta=1.0)
