import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import transferlab as tl
from transferlab import (
    LabeledSample,
    UnlabeledSample,
    erm,
    finite_class,
    finite_hypothesis,
    full_cube_class,
    project_class,
    threshold_class,
)
from transferlab.distributions import _anchored_cube_class
from transferlab.hypotheses import (
    SampleCounts,
    _f2_disagreements,
    _label_counts,
    ensure_finite,
    member_disagreements,
    member_risks,
    project_onto_support,
    tally,
    weighted_member_risks,
)

import oracles


def assert_same_members(cls, want):
    """Same members in the same order: labels as ints, thresholds as floats."""
    got = cls.members
    assert len(cls) == len(want)
    assert got == want
    assert np.array_equal(oracles.label_matrix(cls), [h.labels for h in want])
    for h in got:
        assert all(type(b) is int for b in h.labels)
        assert h.threshold is None or type(h.threshold) is float


def make_sample(xs, ys, discrete=True):
    dtype = np.int64 if discrete else np.float64
    return LabeledSample(np.asarray(xs, dtype=dtype), np.asarray(ys), seed=0)


def test_empirical_risk_consistent_labels():
    cls = finite_class([[1]])
    s = make_sample([0, 0], [1, 1])
    assert member_risks(cls, s)[0] == 0.0


def test_empirical_risk_half_mislabelled():
    cls = finite_class([[1]])
    s = make_sample([0, 0], [0, 1])
    assert member_risks(cls, s)[0] == 0.5


def test_empirical_risk_hand_count():
    # 3-point support, h = (1,0,1), 5 draws; oracle is a direct count
    cls = finite_class([[1, 0, 1]])
    s = make_sample([0, 1, 2, 2, 1], [0, 0, 1, 0, 1])
    # mismatches: (0,0) vs 1; (1,0) vs 0 ok; (2,1) vs 1 ok; (2,0) vs 1; (1,1) vs 0
    assert member_risks(cls, s)[0] == 3 / 5
    assert member_risks(cls, s)[0] == oracles.risk(cls[0], s)


@pytest.mark.parametrize("ys,first_bad", [
    ([1, -1, -1], "ys[1] is -1"),
    ([0, 1, 2], "ys[2] is 2"),
    ([0.0, 0.6, 1.0], "ys[1] is 0.6"),
    ([1.0, 0.0, 0.5], "ys[2] is 0.5"),
    ([0.0, np.nan, 1.0], "ys[1] is nan"),
])
def test_labels_outside_zero_one_rejected(ys, first_bad):
    # a -1 or a fractional label would be miscounted, not rejected: int8
    # truncates 0.6 to 0, and the per-support counts read -1 as neither label
    with pytest.raises(ValueError, match=re.escape(first_bad)):
        LabeledSample(np.array([0, 1, 1]), np.asarray(ys))


def test_labels_zero_one_accepted_in_any_dtype():
    for ys in ([0, 1, 1], [False, True, True], [0.0, 1.0, 1.0], np.array([0, 1, 1], np.uint8)):
        s = LabeledSample(np.array([0, 1, 2]), np.asarray(ys))
        assert s.ys.dtype == np.int8 and s.ys.tolist() == [0, 1, 1]


def test_label_counts_match_two_masks():
    rng = np.random.default_rng(43)
    for _ in range(40):
        size, n = int(rng.integers(1, 300)), int(rng.integers(0, 2000))
        cls = finite_class(np.eye(size, dtype=int))
        on_cls = make_sample(rng.integers(0, size, n), rng.integers(0, 2, n))
        line = make_sample(rng.integers(0, 16, n) / 16.0, rng.integers(0, 2, n), discrete=False)
        cut, (on_cut,) = ensure_finite(threshold_class(), (line,))
        for c, sample in ((cls, on_cls), (cut, on_cut)):
            got = _label_counts(c, sample)
            want = oracles.label_counts_two_masks(c, sample)
            for g, w in zip(got, want):
                assert g.dtype == np.float64 and g.flags.c_contiguous
                assert np.array_equal(g, w)


def test_empirical_risk_empty_sample_is_zero():
    cls = finite_class([[1, 0]])
    assert member_risks(cls, make_sample([], []))[0] == 0.0


def test_disagreement_identity_and_complement():
    cls = finite_class([[1, 0, 1], [0, 1, 0]])  # h and its complement
    s = make_sample([0, 1, 2, 0], [1, 1, 1, 1])
    assert member_disagreements(cls, 0, s).tolist() == [0.0, 1.0]


def test_disagreement_threshold_pair():
    s = make_sample([0.1, 0.5, 0.9], [1, 1, 0], discrete=False)
    cls = project_class(threshold_class(), s.xs)
    # the cuts that label 0.1, and 0.1 and 0.5, are the thresholds 0.3 and 0.7
    a, b = (int(np.sum(s.xs <= t)) for t in (0.3, 0.7))
    assert member_disagreements(cls, a, s)[b] == pytest.approx(1 / 3)


def test_project_class_counts():
    tc = threshold_class()
    assert len(project_class(tc, [0.5])) == 2
    assert len(project_class(tc, [0.1, 0.4, 0.9])) == 4
    assert len(project_class(tc, [0.5, 0.5])) == 2


def test_project_class_monotone_patterns():
    tc = threshold_class()
    pts = np.linspace(0, 1, 12)
    proj = project_class(tc, pts)
    assert len(proj) == 13
    for h in proj.members:
        lab = np.asarray(h.labels)
        assert (np.diff(lab) <= 0).all()  # one-sided: 1s then 0s
        assert np.array_equal(lab, (pts <= h.threshold).astype(int))


def test_project_class_empty_errors():
    with pytest.raises(ValueError):
        project_class(threshold_class(), [])
    # the raw threshold class has no enumeration until it is projected
    for enumerate_ in (len, lambda c: c.members, lambda c: c.label_matrix,
                       lambda c: c[0]):
        with pytest.raises(TypeError, match="project it first"):
            enumerate_(threshold_class())


def test_cut_class_holds_no_matrix():
    cls = project_class(threshold_class(), [0.3, 0.1, 0.7])
    with pytest.raises(TypeError, match="cut class holds no label matrix"):
        cls.label_matrix
    assert len(cls) == 4 and cls.support_size == 3


def test_full_cube_class_matches_oracle():
    for n in range(1, 7):
        assert_same_members(full_cube_class(n), oracles.full_cube_members(n))


def test_anchored_cube_class_matches_oracle():
    for d in range(1, 10):
        cls = _anchored_cube_class(d, np.arange(d + 1, dtype=np.float64))
        assert_same_members(cls, oracles.anchored_cube_members(d))


def test_project_class_matches_oracle():
    rng = np.random.default_rng(23)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        pts = rng.normal(size=n)
        # repeat some points: duplicates collapse to one support point
        pts = np.concatenate([pts, rng.choice(pts, size=int(rng.integers(0, n + 1)))])
        rng.shuffle(pts)
        assert_same_members(project_class(threshold_class(), pts),
                            oracles.projected_members(pts))


def test_indexing_builds_each_member_once():
    for cls in (full_cube_class(3), project_class(threshold_class(), [0.3, 0.1, 0.3, 0.7])):
        first = cls[2]
        assert cls[2] is first
        assert cls.members[2] is first
        assert all(cls[i] is h for i, h in enumerate(cls.members))
        assert cls[-1] is cls.members[-1]
        with pytest.raises(IndexError):
            cls[len(cls)]


def test_cut_class_kernels_match_matrix_and_oracle():
    # prefix sums over the cuts must equal the explicit label-matrix products
    # bit for bit; coordinates on a small grid give duplicate points
    rng = np.random.default_rng(29)
    tc = threshold_class()
    for _ in range(60):
        n = int(rng.integers(1, 40))
        s = make_sample(rng.integers(0, 8, n) / 8.0, rng.integers(0, 2, n), discrete=False)
        cls, (idx_sample,) = ensure_finite(tc, (s,))
        lab = oracles.label_matrix(cls)
        members = oracles.projected_members(s.xs)
        assert cls.members == members
        ix = np.searchsorted(cls.support_coords, s.xs)
        size = cls.support_size
        n1 = np.bincount(ix[s.ys == 1], minlength=size).astype(np.float64)
        n0 = np.bincount(ix[s.ys == 0], minlength=size).astype(np.float64)
        want = (lab @ (n0 - n1) + n1.sum()) / n
        for sample in (s, idx_sample):
            got = member_risks(cls, sample)
            assert np.array_equal(got, want)
            assert got.tolist() == [oracles.risk(h, s) for h in members]
        ref_ix = int(rng.integers(0, len(members)))
        ref = members[ref_ix]
        ref_lab = np.asarray(ref.labels, dtype=np.float64)
        counts = n0 + n1
        want = (lab @ (counts * (1.0 - 2.0 * ref_lab)) + np.dot(ref_lab, counts)) / n
        for sample in (s, idx_sample):
            got = member_disagreements(cls, ref_ix, sample)
            assert np.array_equal(got, want)
            assert got.tolist() == [oracles.disagreement(h, ref, s) for h in members]


def test_member_disagreements_index_like_the_class():
    rng = np.random.default_rng(41)
    s = make_sample(rng.integers(0, 8, 30) / 8.0, rng.integers(0, 2, 30), discrete=False)
    cut, (idx_sample,) = ensure_finite(threshold_class(), (s,))
    cube = full_cube_class(3)
    cube_sample = make_sample(rng.integers(0, 3, 30), rng.integers(0, 2, 30))
    for cls, sample in ((cube, cube_sample), (cut, idx_sample)):
        m = len(cls)
        for i in range(-m, 0):
            assert np.array_equal(member_disagreements(cls, i, sample),
                                  member_disagreements(cls, i + m, sample))
        for i in (m, -m - 1):
            with pytest.raises(IndexError):
                cls[i]
            for smp in (sample, make_sample([], [])):
                with pytest.raises(IndexError):
                    member_disagreements(cls, i, smp)


def test_erm_empty_sample_tie_break():
    cls = full_cube_class(3)
    assert erm(cls, make_sample([], [])) is cls.members[0]


def test_erm_realizable_recovers_member():
    cls = full_cube_class(3)
    target = finite_hypothesis([1, 0, 1])
    s = make_sample([0, 1, 2, 0, 2], [1, 0, 1, 1, 1])
    assert erm(cls, s).labels == target.labels


def test_erm_matches_exhaustive_oracle():
    rng = np.random.default_rng(7)
    cls = full_cube_class(3)
    for _ in range(50):
        n = int(rng.integers(1, 21))
        s = make_sample(rng.integers(0, 3, n), rng.integers(0, 2, n))
        got = erm(cls, s)
        assert got is cls.members[oracles.erm_index(cls.members, s)]


def test_erm_threshold_matches_projection():
    rng = np.random.default_rng(11)
    tc = threshold_class()
    for _ in range(50):
        n = int(rng.integers(1, 40))
        xs = rng.random(n)
        ys = rng.integers(0, 2, n)
        s = make_sample(xs, ys, discrete=False)
        got = erm(tc, s)
        proj = project_class(tc, xs)
        want = proj.members[oracles.erm_index(proj.members, s)]
        assert got == want


def test_erm_never_beaten():
    # exhaustive minimality over a full enumeration
    rng = np.random.default_rng(3)
    cls = full_cube_class(4)
    for _ in range(20):
        n = int(rng.integers(1, 30))
        s = make_sample(rng.integers(0, 4, n), rng.integers(0, 2, n))
        best = erm(cls, s)
        r = oracles.risk(best, s)
        assert all(r <= oracles.risk(h, s) + 1e-15 for h in cls.members)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=24), st.data())
def test_disagreement_symmetry_and_triangle(xs, data):
    ys = data.draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    s = make_sample(xs, ys)
    cls = full_cube_class(4)
    picks = data.draw(st.tuples(*[st.integers(0, len(cls) - 1)] * 3))
    a, b, c = (cls.members[i] for i in picks)
    dab = oracles.disagreement(a, b, s)
    assert dab == oracles.disagreement(b, a, s)
    assert dab <= oracles.disagreement(a, c, s) + oracles.disagreement(c, b, s) + 1e-12
    if a.labels == b.labels:
        assert dab == 0.0


def test_disagreement_zero_iff_equal_patterns_on_sample():
    s = make_sample([0, 1], [1, 1])
    cls = finite_class([[1, 0, 1], [1, 0, 0]])  # differ only at unsampled point 2
    assert member_disagreements(cls, 0, s)[1] == 0.0


def test_duplicate_patterns_rejected():
    with pytest.raises(ValueError):
        finite_class([(1, 0), (1, 0)])


def test_erm_minimality_on_large_enumeration():
    # one exhaustive pass over a 2^10-member class
    cls = full_cube_class(10)
    rng = np.random.default_rng(19)
    s = make_sample(rng.integers(0, 10, 48), rng.integers(0, 2, 48))
    best = erm(cls, s)
    r = oracles.risk(best, s)
    risks = [oracles.risk(h, s) for h in cls.members]
    assert r == min(risks)
    assert cls.members.index(best) == int(np.argmin(risks))


def _counts_fixture(rng):
    """A finite class, its class over coordinates, and index and line samples
    of the same draws."""
    size = int(rng.integers(1, 7))
    coords = np.sort(rng.choice(64, size, replace=False)) / 8.0
    cube = full_cube_class(size, support_coords=coords)
    cut = project_onto_support(threshold_class(), coords)
    n = int(rng.integers(0, 60))
    ix = rng.integers(0, size, n)
    ys = rng.integers(0, 2, n)
    return cube, cut, coords, make_sample(ix, ys), make_sample(coords[ix], ys, discrete=False)


def test_summed_batch_counts_equal_the_binned_concatenation():
    rng = np.random.default_rng(53)
    for _ in range(40):
        size = int(rng.integers(1, 40))
        cls = finite_class(np.eye(size, dtype=int))
        batches = [make_sample(rng.integers(0, size, n), rng.integers(0, 2, n))
                   for n in rng.integers(0, 50, int(rng.integers(1, 6)))]
        total = tally(cls, batches[0])
        joined = batches[0]
        for b in batches[1:]:
            total = total + tally(cls, b)
            joined = joined + b
        want = tally(cls, joined)
        assert isinstance(total, SampleCounts) and len(total) == len(joined)
        assert np.array_equal(total.points, want.points)
        assert np.array_equal(total.ones, want.ones)
        pool = [UnlabeledSample(rng.integers(0, size, n)) for n in (0, 7, 30)]
        counted = tally(cls, pool[0]) + tally(cls, pool[1]) + tally(cls, pool[2])
        assert counted.ones is None
        assert np.array_equal(counted.points, np.bincount(
            np.concatenate([u.xs for u in pool]), minlength=size))


def test_counts_refuse_a_mismatched_support_or_missing_labels():
    cls = full_cube_class(3)
    c = tally(cls, make_sample([0, 2], [1, 0]))
    with pytest.raises(ValueError, match="support points"):
        c + tally(full_cube_class(2), make_sample([0], [1]))
    with pytest.raises(ValueError, match="support points"):
        member_risks(full_cube_class(4), c)
    with pytest.raises(TypeError, match="labeled and unlabeled"):
        c + tally(cls, UnlabeledSample(np.array([1])))
    with pytest.raises(TypeError, match="labeled sample"):
        member_risks(cls, tally(cls, UnlabeledSample(np.array([1]))))


def test_tally_counts_only_samples_over_a_support():
    line = make_sample([0.25, 0.5], [1, 0], discrete=False)
    idx = make_sample([0, 1], [1, 0])
    cube = full_cube_class(2)
    assert tally(threshold_class(), line) is line
    assert tally(threshold_class(), idx) is idx
    assert tally(cube, line) is line
    counted = tally(cube, idx)
    assert tally(cube, counted) is counted


def test_kernels_equal_on_points_and_counts():
    # counts are integers, so a kernel reading them must match the points
    # sample bit for bit, on a finite class and on a cut class
    rng = np.random.default_rng(59)
    conf = tl.ConfidenceParams(c=1.0, delta=0.1)
    for _ in range(60):
        cube, cut, coords, idx, line = _counts_fixture(rng)
        f = rng.choice((0.0, 0.5, 1.0, 2.0, 3.0), size=coords.size)
        m = int(rng.integers(0, 40))
        pool_ix = rng.integers(0, coords.size, m)
        for cls, points in ((cube, idx), (cut, idx), (cut, line)):
            pool = UnlabeledSample(pool_ix if points is idx else coords[pool_ix])
            counts, pool_counts = tally(cls, idx), tally(cls, UnlabeledSample(pool_ix))
            assert np.array_equal(member_risks(cls, points), member_risks(cls, counts))
            ref = int(rng.integers(0, len(cls)))
            for a, b in ((points, counts), (pool, pool_counts)):
                assert np.array_equal(member_disagreements(cls, ref, a),
                                      member_disagreements(cls, ref, b))
            assert tl.delta_hat(points, pool, cls, conf) == tl.delta_hat(counts, pool_counts,
                                                                         cls, conf)
            if points is line:
                continue
            assert np.array_equal(weighted_member_risks(cls, points, f),
                                  weighted_member_risks(cls, counts, f))
            if len(points):
                assert np.array_equal(_f2_disagreements(cls, ref, points, f),
                                      _f2_disagreements(cls, ref, counts, f))
            for pdim in (1, 3):
                assert (tl.delta_hat_weighted(points, f, pool, cls, conf, pdim)
                        == tl.delta_hat_weighted(counts, f, pool_counts, cls, conf, pdim))


def test_raw_threshold_class_refuses_index_samples():
    # support indices read as coordinates gave a threshold in index space,
    # here 1.0 with two labels over a three-point support
    joint = tl.DiscreteJoint(np.array([0.0, 10.0, 20.0]), np.array([0.45, 0.1, 0.45]),
                             np.array([1.0, 1.0, 0.0]))
    s = make_sample([0, 0, 2, 2], [1, 1, 0, 0])
    for samples in ((s,), (make_sample([], []), s), (tally(full_cube_class(3), s),)):
        with pytest.raises(TypeError, match="project_onto_support"):
            ensure_finite(threshold_class(), samples)
    with pytest.raises(TypeError, match="project_onto_support"):
        erm(threshold_class(), s)
    h = erm(project_onto_support(threshold_class(), joint.support), s)
    assert (h.labels, h.threshold) == ((1, 0, 0), 5.0)
    assert tl.true_risk(joint, h) == 0.1
    cut, (empty,) = ensure_finite(threshold_class(), (make_sample([], []),))
    assert len(cut) == 2 and len(empty) == 0
