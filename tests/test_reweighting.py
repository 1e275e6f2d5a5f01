import numpy as np
import pytest

import transferlab as tl
from transferlab.hypotheses import _f2_disagreements, member_disagreements, member_risks
from transferlab.procedures import _near_optimal, confidence_width
from transferlab.reweighting import weighted_member_risks

import oracles

CONF = tl.ConfidenceParams(c=1.0, delta=0.1)


def make_sample(xs, ys):
    return tl.LabeledSample(np.asarray(xs, dtype=np.int64), np.asarray(ys), seed=0)


def weighted_set(cls, sample, f, pdim):
    """The f-weighted near-optimal set of the sample: (mask, anchor, f^2 dis)."""
    width = confidence_width(len(sample), cls.vc_dim + pdim, CONF.delta)
    return _near_optimal(cls, sample, CONF, width, f)


def test_unit_density_matches_unweighted():
    rng = np.random.default_rng(1)
    cls = tl.full_cube_class(4)
    ones = np.ones(4)
    for _ in range(25):
        n = int(rng.integers(1, 40))
        s = make_sample(rng.integers(0, 4, n), rng.integers(0, 2, n))
        risks, dis = member_risks(cls, s), member_disagreements(cls, 0, s)
        for i in (3, 9):
            assert weighted_member_risks(cls, s, ones)[i] == risks[i]
            assert _f2_disagreements(cls, 0, s, ones)[i] == dis[i]


def test_scaling_law():
    cls = tl.full_cube_class(3)
    s = make_sample([0, 1, 2, 1], [1, 0, 1, 1])
    h, h2 = 5, 2
    base = weighted_member_risks(cls, s, np.ones(3))[h]
    assert weighted_member_risks(cls, s, 2 * np.ones(3))[h] == pytest.approx(2 * base)
    d1 = _f2_disagreements(cls, h2, s, np.ones(3))[h]
    d2 = _f2_disagreements(cls, h2, s, 2 * np.ones(3))[h]
    assert d2 == pytest.approx(4 * d1)


def test_hand_computed_weighted_sums():
    cls = tl.full_cube_class(3)
    f = np.array([2.0, 0.5, 1.0])
    s = make_sample([0, 1, 2], [0, 1, 1])
    h = cls.members.index(tl.finite_hypothesis([1, 1, 0]))  # mis at x0 (y=0), ok at x1, mis at x2
    assert weighted_member_risks(cls, s, f)[h] == pytest.approx((2.0 + 1.0) / 3)
    h2 = cls.members.index(tl.finite_hypothesis([0, 1, 1]))
    # disagreement at x0 and x2: f^2 weights 4.0 and 1.0
    assert _f2_disagreements(cls, h2, s, f)[h] == pytest.approx((4.0 + 1.0) / 3)


def test_delta_hat_weighted_single_member():
    cls = tl.finite_class([(1, 0)], vc_dim=1)
    s = make_sample([0, 1], [1, 1])
    u = tl.UnlabeledSample(np.array([0, 1]), 0)
    assert tl.delta_hat_weighted(s, np.ones(2), u, cls, CONF, 0) == 0.0


def test_delta_hat_weighted_unit_density_zero_pdim_matches_plain():
    # with f = 1 and pdim = 0 both statistics agree up to the width flavor;
    # force the same width by comparing through the oracle formulas
    rng = np.random.default_rng(7)
    cls = tl.full_cube_class(4)
    for _ in range(20):
        n = int(rng.integers(1, 40))
        m = int(rng.integers(1, 40))
        s = make_sample(rng.integers(0, 4, n), rng.integers(0, 2, n))
        u = tl.UnlabeledSample(rng.integers(0, 4, m).astype(np.int64), 0)
        got = tl.delta_hat_weighted(s, np.ones(4), u, cls, CONF, 0)
        want = oracles.delta_hat_weighted_value(cls.members, s, np.ones(4), u,
                                                CONF.c, CONF.delta, cls.vc_dim, 0)
        assert got == want


def test_delta_hat_weighted_matches_oracle_random_weights():
    rng = np.random.default_rng(13)
    cls = tl.full_cube_class(4)
    pdim = 2
    for _ in range(40):
        n = int(rng.integers(0, 40))
        m = int(rng.integers(1, 40))
        f = rng.uniform(0.0, 3.0, size=4)
        s = make_sample(rng.integers(0, 4, n), rng.integers(0, 2, n))
        u = tl.UnlabeledSample(rng.integers(0, 4, m).astype(np.int64), 0)
        got = tl.delta_hat_weighted(s, f, u, cls, CONF, pdim)
        want = oracles.delta_hat_weighted_value(cls.members, s, f, u, CONF.c,
                                                CONF.delta, cls.vc_dim, pdim)
        assert got == want


def test_delta_hat_weighted_at_an_infinite_width_anchors_at_the_weighted_erm():
    # a subnormal delta admits every member; member 2 is the weighted ERM and
    # member 1 disagrees with it everywhere, while from member 0 the widest is 3/4
    cls = tl.finite_class([[0, 0, 0], [1, 0, 0], [0, 1, 1]])
    s = make_sample([0, 1, 2, 2], [1, 1, 1, 1])
    f = np.array([1.0, 2.0, 0.5])
    conf = tl.ConfidenceParams(delta=1e-320)
    want = oracles.delta_hat_weighted_value(cls.members, s, f, s, conf.c, conf.delta,
                                            cls.vc_dim, 1)
    assert want == 1.0 and tl.delta_hat_weighted(s, f, s, cls, conf, 1) == want


def test_a_radius_past_the_float_range_saturates_without_a_warning():
    # c = 1e300 times the f^2-weighted disagreement of a 1e10 density overflowed
    # with a RuntimeWarning (an error in this suite); the radius is +inf
    # instead, so every member is feasible and transfer picks the target ERM
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 4)
    fam = tl.DensityFamily([np.array([1e10, 1.0, 1.0, 1.0])])
    conf = tl.ConfidenceParams(c=1e300)
    sp, sq = tl.sample_labeled(pair.p, 16, seed=1), tl.sample_labeled(pair.q, 8, seed=2)
    u = tl.sample_unlabeled(pair.q, 16, seed=3)
    h, f_ix = tl.reweighted_transfer_erm(sp, sq, u, fam, cls, conf)
    assert f_ix == 0 and h == tl.erm(cls, sq)
    width = confidence_width(len(sp), cls.vc_dim + fam.pseudo_dim, conf.delta)
    assert _near_optimal(cls, sp, conf, width, fam.weights[0])[0].all()
    want = oracles.delta_hat_weighted_value(cls.members, oracles.points_of(sp), fam.weights[0],
                                            oracles.points_of(u), conf.c, conf.delta,
                                            cls.vc_dim, fam.pseudo_dim)
    assert tl.delta_hat_weighted(sp, fam.weights[0], u, cls, conf, fam.pseudo_dim) == want


def test_weighted_erm_breaks_an_exact_tie_to_the_lowest_index():
    # the members differ only at point 0, which is drawn once with each label,
    # so both risks are exactly (3 * 0.4 + 0.6) / 5; a sum in sample order
    # rounds them apart and hands the tie to member 1
    cls = tl.finite_class([(0, 1, 1), (1, 1, 1)], vc_dim=1)
    s = make_sample([1, 0, 1, 1, 0], [0, 0, 0, 0, 1])
    f = np.array([0.6, 0.4, 0.6])
    risks = weighted_member_risks(cls, s, f)
    assert risks[0] == risks[1]
    assert tl.weighted_erm(cls, s, f) == 0


def test_members_agreeing_on_the_sample_tie_bit_for_bit():
    # real weights over up to 12 points, and classes that hold every labeling
    # of the unsampled points for each pattern on the sampled ones, cut to an M
    # that is not a multiple of 8: a blocked matrix product rounds the rows
    # left over after its blocks differently from their twins
    rng = np.random.default_rng(47)
    for trial in range(3000):
        s = int(rng.integers(2, 13))
        sampled = s - int(rng.integers(1, min(3, s - 1) + 1))
        if trial % 3 == 0:
            cls = tl.project_class(tl.threshold_class(), np.arange(s, dtype=np.float64))
        else:
            base = rng.choice(2 ** sampled, min(2 ** sampled, int(rng.integers(2, 9))),
                              replace=False)
            codes = (base[:, None] | (np.arange(2 ** (s - sampled)) << sampled)).ravel()
            m = int(rng.integers(2, len(codes) + 1))
            m -= m % 8 == 0
            codes = rng.permutation(codes)[:m]
            cls = tl.finite_class((codes[:, None] >> np.arange(s)) & 1)
        n = int(rng.integers(1, 65))
        sample = make_sample(rng.integers(0, sampled, n), rng.integers(0, 2, n))
        f = rng.uniform(0.0, 3.0, size=s)
        _, first, group = np.unique(oracles.label_matrix(cls)[:, :sampled], axis=0,
                                    return_index=True, return_inverse=True)
        twin = first[group.ravel()]
        risks = weighted_member_risks(cls, sample, f)
        dis = _f2_disagreements(cls, int(rng.integers(len(cls))), sample, f)
        assert np.array_equal(risks, risks[twin]), trial
        assert np.array_equal(dis, dis[twin]), trial


def test_f2_disagreements_never_negative_or_nan():
    # weights over sixteen orders of magnitude, where a folded
    # h + ref - 2 h ref sum cancels and can round below zero
    rng = np.random.default_rng(5)
    for trial in range(300):
        s = int(rng.integers(2, 9))
        cls = (tl.full_cube_class(s) if trial % 2 else
               tl.project_class(tl.threshold_class(), np.arange(s, dtype=np.float64)))
        n = int(rng.integers(1, 65))
        sample = make_sample(rng.integers(0, s, n), rng.integers(0, 2, n))
        f = 10.0 ** rng.uniform(-8.0, 8.0, size=s)
        for ref in rng.choice(len(cls), 4):
            dis = _f2_disagreements(cls, int(ref), sample, f)
            assert (dis >= 0.0).all(), trial
            assert dis[ref] == 0.0
        tl.delta_hat_weighted(sample, f, sample, cls, CONF, 1)


def test_density_family_validation_and_pdim_proxy():
    fam = tl.DensityFamily([np.ones(3), 2 * np.ones(3)])
    assert fam.pseudo_dim == 1
    fam8 = tl.DensityFamily([np.full(3, float(i + 1)) for i in range(8)])
    assert fam8.pseudo_dim == 3
    with pytest.raises(ValueError):
        tl.DensityFamily([])
    with pytest.raises(ValueError):
        tl.DensityFamily([np.array([1.0, -0.5])])
    # a negative capacity made the width of a VC-1 class divide by zero
    with pytest.raises(ValueError, match="pseudo_dim must be >= 0"):
        tl.DensityFamily([np.ones(3)], pseudo_dim=-1)
    assert tl.DensityFamily([np.ones(3)], pseudo_dim=0).pseudo_dim == 0


# 2^486: the f^2-weighted disagreement overflowed, and 1e300 raised a warning
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 2.0 ** 486, 1e300])
def test_density_family_refuses_non_finite_weights(bad):
    with pytest.raises(ValueError, match="densities must be finite and nonnegative"):
        tl.DensityFamily([np.ones(3), np.array([1.0, bad, 1.0])])


@pytest.mark.parametrize("f, message", [
    (np.where(np.arange(16) == 3, np.nan, 1.0), r"f\[3\] is nan"),
    (-np.ones(16), r"f\[0\] is -1.0"),
    (np.where(np.arange(16) == 15, np.inf, 1.0), r"f\[15\] is inf"),
    (np.ones(15), r"shape \(15,\)"),
    (1.0, r"shape \(\)"),
    (np.where(np.arange(16) == 2, 1e300, 1.0), r"f\[2\] is 1e\+300; .* at most 2\^485"),
])
def test_weighted_kernels_refuse_bad_weights(f, message):
    # unchecked, a NaN weight picks member 0, all-negative weights member 16,
    # and delta_hat_weighted fails on an empty feasible set; an empty sample or
    # a subnormal delta skips the weighted kernels, so f is checked before that
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sp = tl.sample_labeled(pair.p, 64, seed=1)
    u = tl.sample_unlabeled(pair.q, 64, seed=2)
    subnormal = tl.ConfidenceParams(delta=5e-324)
    for call in (lambda: weighted_member_risks(cls, sp, f),
                 lambda: weighted_member_risks(cls, make_sample([], []), f),
                 lambda: tl.weighted_erm(cls, sp, f),
                 lambda: tl.delta_hat_weighted(sp, f, u, cls, CONF, 1),
                 lambda: tl.delta_hat_weighted(make_sample([], []), f, u, cls, CONF, 1),
                 lambda: tl.delta_hat_weighted(sp, f, u, cls, subnormal, 1)):
        with pytest.raises(ValueError, match=message):
            call()
    # the raw threshold class is refused first, whatever f holds
    line = tl.LabeledSample(np.array([0.5]), np.array([1]), seed=0)
    with pytest.raises(TypeError, match="project it first"):
        weighted_member_risks(tl.threshold_class(), line, f)


def test_delta_hat_weighted_checks_an_empty_probe():
    # an empty probe is zero counts: 0 over the class's support, refused off it
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sp = tl.sample_labeled(pair.p, 64, seed=1)
    f = np.ones(16)
    assert tl.delta_hat_weighted(sp, f, tl.sample_unlabeled(pair.q, 0, 0), cls, CONF, 1) == 0.0
    with pytest.raises(ValueError, match="counts over 7 support points for a class over 16"):
        tl.delta_hat_weighted(sp, f, tl.SampleCounts(np.zeros(7, dtype=np.int64)), cls, CONF, 1)


def test_reweighted_transfer_checks_densities_before_the_shortcut():
    # an empty source sample, or a subnormal delta, makes every member feasible;
    # a density of the wrong length is refused all the same
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sq = tl.sample_labeled(pair.q, 32, seed=2)
    u = tl.sample_unlabeled(pair.q, 64, seed=3)
    short = tl.DensityFamily([np.ones(3)])
    for sp, conf in ((make_sample([], []), CONF),
                     (tl.sample_labeled(pair.p, 64, seed=1), tl.ConfidenceParams(delta=5e-324))):
        with pytest.raises(ValueError, match=r"shape \(3,\)"):
            tl.reweighted_transfer_erm(sp, sq, u, short, cls, conf)


def test_reweighted_transfer_unit_family_reduces_to_constrained_erm():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sp = tl.sample_labeled(pair.p, 64, seed=1)
    sq = tl.sample_labeled(pair.q, 32, seed=2)
    u = tl.sample_unlabeled(pair.q, 64, seed=3)
    fam = tl.DensityFamily([np.ones(16)], pseudo_dim=0)
    h, f_ix = tl.reweighted_transfer_erm(sp, sq, u, fam, cls, CONF)
    assert f_ix == 0
    mask = weighted_set(cls, sp, np.ones(16), 0)[0]
    risks_q = member_risks(cls, sq)
    idx = np.flatnonzero(mask)
    assert h is cls.members[int(idx[np.argmin(risks_q[idx])])]


def test_reweighted_transfer_empty_target_lowest_feasible():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sp = tl.sample_labeled(pair.p, 64, seed=5)
    u = tl.sample_unlabeled(pair.q, 64, seed=6)
    sq = make_sample([], [])
    fam = tl.DensityFamily([np.ones(16)], pseudo_dim=0)
    h, _ = tl.reweighted_transfer_erm(sp, sq, u, fam, cls, CONF)
    mask = weighted_set(cls, sp, np.ones(16), 0)[0]
    assert h is cls.members[int(np.flatnonzero(mask)[0])]


def test_reweighting_prefers_matching_density():
    # source uniform on [0,2], target on [0,1]: the importance weight doubles
    # [0,1] and kills (1,2]; the alternative concentrates on the wrong half
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 32)
    good = np.where(np.arange(32) < 16, 2.0, 0.0)
    bad = np.where(np.arange(32) >= 16, 2.0, 0.0)
    fam = tl.DensityFamily([bad, good])
    wins = 0
    for t in range(25):
        sp = tl.sample_labeled(pair.p, 256, seed=40 + t)
        sq = make_sample([], [])
        u = tl.sample_unlabeled(pair.q, 512, seed=80 + t)
        _, f_ix = tl.reweighted_transfer_erm(sp, sq, u, fam, cls, CONF)
        wins += f_ix == 1
    assert wins >= 20


def test_selection_consistency_minimizes_radius():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 16)
    sp = tl.sample_labeled(pair.p, 128, seed=9)
    sq = tl.sample_labeled(pair.q, 16, seed=10)
    u = tl.sample_unlabeled(pair.q, 256, seed=11)
    fam = tl.DensityFamily([np.ones(16), np.full(16, 2.0), np.full(16, 0.5)])
    _, f_ix = tl.reweighted_transfer_erm(sp, sq, u, fam, cls, CONF)
    radii = [tl.delta_hat_weighted(sp, f, u, cls, CONF, fam.pseudo_dim)
             for f in fam.weights]
    assert radii[f_ix] == min(radii)


def test_multi_source_single_reduces_to_constrained_erm():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[3]
    sp = tl.sample_labeled(pair.p, 128, seed=1)
    sq = tl.sample_labeled(pair.q, 64, seed=2)
    u = tl.sample_unlabeled(pair.q, 256, seed=3)
    h, i_hat = tl.multi_source_transfer_erm([sp], sq, u, fam.cls, CONF)
    assert i_hat == 0
    # same program as the two-sample procedure at the union-bound width
    from transferlab.procedures import near_optimal_mask
    from transferlab.hypotheses import member_risks
    mask = near_optimal_mask(fam.cls, sp, CONF.scaled(1))
    risks_q = member_risks(fam.cls, sq)
    idx = np.flatnonzero(mask)
    assert h is fam.cls.members[int(idx[np.argmin(risks_q[idx])])]


def test_multi_source_picks_target_lookalike():
    src_like, cls = tl.discretize_pair(tl.example_scenario(3, gamma=1.0), 32)
    src_far, _ = tl.discretize_pair(tl.example_scenario(3, gamma=3.0), 32)
    hits = 0
    for t in range(20):
        s1 = tl.sample_labeled(src_like.p, 1024, seed=300 + t)
        s2 = tl.sample_labeled(src_far.p, 1024, seed=600 + t)
        u = tl.sample_unlabeled(src_like.q, 2048, seed=900 + t)
        sq = make_sample([], [])
        _, i_hat = tl.multi_source_transfer_erm([s1, s2], sq, u, cls, CONF)
        hits += i_hat == 0
    assert hits >= 17


def test_multi_source_requires_sources():
    with pytest.raises(ValueError):
        tl.multi_source_transfer_erm([], make_sample([], []), make_sample([], []),
                                     tl.full_cube_class(2), CONF)


def test_reweighted_output_replays_constraint():
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 32)
    good = np.where(np.arange(32) < 16, 2.0, 0.0)
    fam = tl.DensityFamily([np.ones(32), good])
    sp = tl.sample_labeled(pair.p, 256, seed=77)
    sq = tl.sample_labeled(pair.q, 64, seed=78)
    u = tl.sample_unlabeled(pair.q, 512, seed=79)
    h, f_ix = tl.reweighted_transfer_erm(sp, sq, u, fam, cls, CONF)
    mask, anchor, _ = weighted_set(cls, sp, fam.weights[f_ix], fam.pseudo_dim)
    i = cls.members.index(h)
    assert mask[i]
    # the printed inequality itself holds for the returned hypothesis
    f = fam.weights[f_ix]
    width = confidence_width(len(sp), cls.vc_dim + fam.pseudo_dim, CONF.delta)
    risks = weighted_member_risks(cls, sp, f)
    lhs = risks[i] - risks[anchor]
    dis = _f2_disagreements(cls, anchor, sp, f)[i]
    assert lhs <= CONF.c * np.sqrt(dis * width) + CONF.c * float(np.max(f)) * width


def test_weighted_ops_reject_coordinates_on_raw_threshold_class():
    # weights are per support point: projecting the raw class must not turn a
    # float sample into positions in the union of the samples
    pair = tl.example_scenario(2)
    sp = tl.sample_labeled(pair.p, 50, seed=1)
    sq = tl.sample_labeled(pair.q, 20, seed=2)
    u = tl.sample_unlabeled(pair.q, 40, seed=3)
    fam = tl.DensityFamily([np.ones(4)])
    with pytest.raises(TypeError, match="index samples"):
        tl.reweighted_transfer_erm(sp, sq, u, fam, tl.threshold_class(), CONF)
    with pytest.raises(TypeError, match="index samples"):
        tl.delta_hat_weighted(sp, np.ones(4), u, tl.threshold_class(), CONF, 1)
