import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transferlab import (
    LabeledSample,
    empirical_disagreement,
    empirical_risk,
    erm,
    finite_class,
    finite_hypothesis,
    full_cube_class,
    project_class,
    threshold_class,
    threshold_hypothesis,
)
from transferlab.distributions import _anchored_cube_class
from transferlab.hypotheses import ensure_finite, member_disagreements, member_risks

import oracles


def assert_same_members(cls, want):
    """Same members in the same order: labels as ints, thresholds as floats."""
    got = cls.members
    assert len(cls) == len(want)
    assert got == want
    assert np.array_equal(cls.label_matrix, [h.labels for h in want])
    for h in got:
        assert all(type(b) is int for b in h.labels)
        assert h.threshold is None or type(h.threshold) is float


def make_sample(xs, ys, discrete=True):
    dtype = np.int64 if discrete else np.float64
    return LabeledSample(np.asarray(xs, dtype=dtype), np.asarray(ys), seed=0)


def test_empirical_risk_consistent_labels():
    h = finite_hypothesis([1])
    s = make_sample([0, 0], [1, 1])
    assert empirical_risk(h, s) == 0.0


def test_empirical_risk_half_mislabelled():
    h = finite_hypothesis([1])
    s = make_sample([0, 0], [0, 1])
    assert empirical_risk(h, s) == 0.5


def test_empirical_risk_hand_count():
    # 3-point support, h = (1,0,1), 5 draws; oracle is a direct count
    h = finite_hypothesis([1, 0, 1])
    s = make_sample([0, 1, 2, 2, 1], [0, 0, 1, 0, 1])
    # mismatches: (0,0) vs 1; (1,0) vs 0 ok; (2,1) vs 1 ok; (2,0) vs 1; (1,1) vs 0
    assert empirical_risk(h, s) == 3 / 5
    assert empirical_risk(h, s) == oracles.risk(h, s)


def test_empirical_risk_empty_sample_is_zero():
    h = finite_hypothesis([1, 0])
    assert empirical_risk(h, make_sample([], [])) == 0.0


def test_disagreement_identity_and_complement():
    h = finite_hypothesis([1, 0, 1])
    hc = finite_hypothesis([0, 1, 0])
    s = make_sample([0, 1, 2, 0], [1, 1, 1, 1])
    assert empirical_disagreement(h, h, s) == 0.0
    assert empirical_disagreement(h, hc, s) == 1.0


def test_disagreement_threshold_pair():
    a = threshold_hypothesis(0.3)
    b = threshold_hypothesis(0.7)
    s = make_sample([0.1, 0.5, 0.9], [1, 1, 0], discrete=False)
    assert empirical_disagreement(a, b, s) == pytest.approx(1 / 3)


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
        lab = cls.label_matrix
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
        r = empirical_risk(best, s)
        assert all(r <= empirical_risk(h, s) + 1e-15 for h in cls.members)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=24), st.data())
def test_disagreement_symmetry_and_triangle(xs, data):
    ys = data.draw(st.lists(st.integers(0, 1), min_size=len(xs), max_size=len(xs)))
    s = make_sample(xs, ys)
    cls = full_cube_class(4)
    picks = data.draw(st.tuples(*[st.integers(0, len(cls) - 1)] * 3))
    a, b, c = (cls.members[i] for i in picks)
    dab = empirical_disagreement(a, b, s)
    assert dab == empirical_disagreement(b, a, s)
    assert dab <= empirical_disagreement(a, c, s) + empirical_disagreement(c, b, s) + 1e-12
    if a.labels == b.labels:
        assert dab == 0.0


def test_disagreement_zero_iff_equal_patterns_on_sample():
    s = make_sample([0, 1], [1, 1])
    a = finite_hypothesis([1, 0, 1])
    b = finite_hypothesis([1, 0, 0])  # differs only at unsampled point 2
    assert empirical_disagreement(a, b, s) == 0.0


def test_duplicate_patterns_rejected():
    with pytest.raises(ValueError):
        finite_class([(1, 0), (1, 0)])


def test_erm_minimality_on_large_enumeration():
    # one exhaustive pass over a 2^10-member class
    cls = full_cube_class(10)
    rng = np.random.default_rng(19)
    s = make_sample(rng.integers(0, 10, 48), rng.integers(0, 2, 48))
    best = erm(cls, s)
    r = empirical_risk(best, s)
    risks = [empirical_risk(h, s) for h in cls.members]
    assert r == min(risks)
    assert cls.members.index(best) == int(np.argmin(risks))
