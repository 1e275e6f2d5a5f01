import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from transferlab.distributions import _anchored_cube_class, _key_words, derive_seed, rng_from
from transferlab.hypotheses import (
    SampleCounts,
    _f2_disagreements,
    _labeled,
    ensure_finite,
    member_disagreements,
    member_risks,
    project_onto_support,
    tally,
    weighted_member_risks,
)

import oracles


def assert_same_members(cls, want):
    """Same members in the same order, each one record: labels as ints, or a
    threshold as a float that induces the member's labels over the support."""
    got = cls.members
    assert len(cls) == len(want)
    assert got == want
    assert np.array_equal(oracles.label_matrix(cls),
                          [oracles.labels_of(h, cls.support_coords) for h in want])
    for h in got:
        assert (h.labels is None) != (h.threshold is None)
        assert h.labels is None or all(type(b) is int for b in h.labels)
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
        # the oracle reads the points; the cut class's counts come from ensure_finite
        for c, points, sample in ((cls, on_cls, on_cls), (cut, line, on_cut)):
            got = _labeled(c, sample)
            want = oracles.label_counts_two_masks(c, points)
            for g, w in zip((got.points - got.ones, got.ones), want):
                assert np.array_equal(g, w)


def test_empirical_risk_empty_sample_is_zero():
    cls = finite_class([[1, 0]])
    assert member_risks(cls, make_sample([], []))[0] == 0.0


# each kernel over a class of 3 support points; the disagreements read no labels
KERNELS = {
    "member_risks": lambda cls, s: member_risks(cls, s),
    "member_disagreements": lambda cls, s: member_disagreements(cls, 0, s),
    "weighted_member_risks": lambda cls, s: weighted_member_risks(cls, s, np.ones(3)),
    "_f2_disagreements": lambda cls, s: _f2_disagreements(cls, 0, s, np.ones(3)),
}


@pytest.mark.parametrize("n", [0, 1])
@pytest.mark.parametrize("kernel", list(KERNELS))
def test_an_empty_sample_passes_the_checks_of_a_one_draw_sample(kernel, n):
    # an empty sample is zero counts, so the faults that refuse one draw
    # refuse no draws too: counts over the wrong support, no labels, float
    # coordinates over a class without coordinates
    cls, call = full_cube_class(3), KERNELS[kernel]
    off = np.eye(7, dtype=np.int64)[0] * n
    with pytest.raises(ValueError, match="counts over 7 support points for a class over 3"):
        call(cls, SampleCounts(off, off))
    if kernel in ("member_risks", "weighted_member_risks"):
        with pytest.raises(TypeError, match="label counts need a labeled sample"):
            call(cls, SampleCounts(np.eye(3, dtype=np.int64)[0] * n))
    with pytest.raises(TypeError, match="float-coordinate sample over a class without"):
        call(cls, LabeledSample(np.zeros(n), np.zeros(n, dtype=np.int8)))
    # over the class's own support every value on no draws is 0
    on = np.eye(3, dtype=np.int64)[0] * n
    got = call(cls, SampleCounts(on, on))
    assert got.shape == (8,) and (got == 0).all() == (n == 0)


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
    # a finite class projects to itself, whatever the points
    finite = full_cube_class(2)
    assert project_class(finite, [0.5, 7.0]) is finite


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_raw_threshold_projection_refuses_non_finite_points(bad):
    # NaN gave NaN thresholds, and -inf an ERM threshold of -inf
    line = make_sample([0.1, bad, 0.5], [1, 1, 0], discrete=False)
    fine = make_sample([0.2], [1], discrete=False)
    with pytest.raises(ValueError, match=re.escape(f"samples[0].xs[1] is {bad}, not a finite")):
        erm(threshold_class(), line)
    with pytest.raises(ValueError, match=re.escape(f"samples[1].xs[1] is {bad}, not a finite")):
        ensure_finite(threshold_class(), (fine, line))
    with pytest.raises(ValueError, match=re.escape(f"samples[2].xs[0] is {bad}, not a finite")):
        ensure_finite(threshold_class(), (fine, fine, UnlabeledSample(np.array([bad]))))
    with pytest.raises(ValueError, match=re.escape(f"points[1] is {bad}, not a finite")):
        project_class(threshold_class(), [0.0, bad])


def test_project_class_monotone_patterns():
    tc = threshold_class()
    pts = np.linspace(0, 1, 12)
    proj = project_class(tc, pts)
    assert len(proj) == 13
    for i, h in enumerate(proj.members):
        assert h.labels is None
        lab = (pts <= h.threshold).astype(int)
        assert (np.diff(lab) <= 0).all()  # one-sided: 1s then 0s
        assert np.array_equal(lab, np.arange(12) < i)  # cut i: the i smallest points


def test_project_class_empty_errors():
    with pytest.raises(ValueError):
        project_class(threshold_class(), [])
    # the raw threshold class has no enumeration until it is projected
    line = make_sample([0.5], [1], discrete=False)
    for enumerate_ in (len, lambda c: c.members, lambda c: c.label_matrix,
                       lambda c: c[0], lambda c: member_risks(c, line),
                       lambda c: weighted_member_risks(c, line, [1.0])):
        with pytest.raises(TypeError, match="project it first"):
            enumerate_(threshold_class())


def test_cut_class_holds_no_matrix():
    cls = project_class(threshold_class(), [0.3, 0.1, 0.7])
    with pytest.raises(TypeError, match="cut class holds no label matrix"):
        cls.label_matrix
    assert len(cls) == 4 and cls.support_size == 3


def test_full_cube_class_matches_oracle():
    for n in range(1, 15):
        assert_same_members(full_cube_class(n), oracles.full_cube_members(n))


def test_anchored_cube_class_matches_oracle():
    for d in range(1, 15):
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


MAX = float(np.finfo(np.float64).max)
EDGE_POINTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(min_value=2.0 ** 54, max_value=MAX).flatmap(lambda x: st.sampled_from((x, -x))),
    st.sampled_from((1e308, -1e308, 1.7e308, -1.7e308, MAX, -MAX)),
    st.floats(min_value=-(2.0 ** -1022), max_value=2.0 ** -1022),  # subnormals and zeros
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(EDGE_POINTS, st.integers(0, 2)), min_size=1, max_size=6))
@example([(1.0 + 2.0 ** -52, 1)])  # [1 + 2^-52, 1 + 2^-51]
@example([(2.0 ** 54, 0), (2.0 ** 55, 0)])
@example([(1e308, 0), (1.7e308, 0)])
@example([(1.1953862697246317e+308, 0), (-1e+308, 0), (-1.7e+308, 0)])
def test_cut_thresholds_realize_their_cuts(anchors):
    # each anchor x brings k adjacent floats above it.  The midpoint of two
    # adjacent floats rounded onto the upper one, pts[0] - 1 rounded back onto
    # pts[0] from 2^53 up, and the midpoint of 1e308 and 1.7e308 overflowed
    # with a warning; each threshold then labeled another cut than its own
    pts = []
    for x, k in anchors:
        pts.append(x)
        for _ in range(k):
            x = math.nextafter(x, math.inf) if x < MAX else x
            pts.append(x)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = project_class(threshold_class(), pts)
    coords, t = cls.support_coords, cls.thresholds
    assert t[0] < coords[0] and coords[-1] <= t[-1]
    assert (coords[:-1] <= t[1:-1]).all() and (t[1:-1] < coords[1:]).all()
    assert (t[1:] > t[:-1]).all()  # np.diff overflows on thresholds more than MAX apart
    for i, h in enumerate(cls.members):
        assert h.labels is None and h.threshold == t[i]
        assert np.array_equal(coords <= h.threshold, np.arange(coords.size) < i)
        assert cls.members.index(h) == i
    assert cls.members == oracles.projected_members(pts)


def test_projecting_onto_a_support_wider_than_the_largest_float():
    # the span of these supports exceeds the largest float; checking their
    # order by differencing overflowed with a warning
    wide = np.array([-1.7e308, 0.0, 1.7e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cls = project_onto_support(threshold_class(), wide)
        assert np.array_equal(cls.support_coords, wide)
        with pytest.raises(ValueError, match=r"support\[2\] is -1.7e\+308 after 1.7e\+308"):
            project_onto_support(threshold_class(), [-MAX, 1.7e308, -1.7e308])


def test_indexing_builds_each_member_once():
    for cls in (full_cube_class(3), project_class(threshold_class(), [0.3, 0.1, 0.3, 0.7])):
        first = cls[2]
        assert cls[2] is first
        assert cls.members[2] is first
        assert all(cls[i] is h for i, h in enumerate(cls.members))
        assert cls[-1] is cls.members[-1]
        with pytest.raises(IndexError):
            cls[len(cls)]


def test_class_indexes_by_integer_only():
    # a slice gave a Hypothesis whose labels were lists, cached under a range
    grid = tl.HypothesisClass(vc_dim=1, thresholds=np.linspace(0.0, 1.0, 5))
    for cls in (full_cube_class(3), project_class(threshold_class(), [0.3, 0.1, 0.7]), grid):
        for key in (slice(0, 2), 1.0, "1"):
            with pytest.raises(TypeError):
                cls[key]
        assert cls._built == {}
        assert cls[np.int64(1)] is cls[1] and list(cls._built) == [1]
    assert grid[-1].threshold == 1.0 and grid[-1].labels is None


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
        ref_lab = np.asarray(oracles.labels_of(ref, cls.support_coords), dtype=np.float64)
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


@pytest.mark.parametrize("dtype", [bool, np.int8, np.int64, np.float64])
@pytest.mark.parametrize("copy_at", [0, 4, 7])
def test_duplicate_found_at_either_end(dtype, copy_at):
    # eight distinct rows over 3 points; row copy_at is written over with row 2
    rows = full_cube_class(3).label_matrix.astype(dtype)
    assert np.array_equal(finite_class(rows).label_matrix, full_cube_class(3).label_matrix)
    rows[copy_at] = rows[2]
    with pytest.raises(ValueError, match="duplicate label pattern"):
        finite_class(rows)


@pytest.mark.parametrize("dtype", [bool, np.int64, np.float64])
@pytest.mark.parametrize("width", [53, 60, 104, 105, 200])
def test_duplicate_check_reads_every_column_of_wide_rows(dtype, width):
    # one float code per 52 columns: rows equal on one block of 52 and
    # different in another are distinct, and equal rows are caught in any block
    rng = np.random.default_rng(width)
    base = rng.integers(0, 2, (6, width)).astype(dtype)
    base[:, 0] = np.arange(6) % 2
    base[:, 51] = np.arange(6) // 2 % 2
    base[:, -1] = np.arange(6) // 4
    for j in (0, 51, 52, width - 1):  # j >= 52: equal on the first 52 columns
        flipped = base[0].copy()
        flipped[j] = not flipped[j]
        two = np.stack((base[0], flipped))
        assert finite_class(two).label_matrix.shape == (2, width)
        with pytest.raises(ValueError, match="duplicate label pattern"):
            finite_class(np.vstack((two, two[:1])))
    same = np.vstack((base, base[3:4]))
    with pytest.raises(ValueError, match="duplicate label pattern"):
        finite_class(same)


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
    # the raw threshold class keeps points: it is projected onto every union afresh
    assert tally(threshold_class(), line) is line
    assert tally(threshold_class(), idx) is idx
    # float points need the class's coordinates, in tally as in the kernels
    for read in (tally, member_risks):
        with pytest.raises(TypeError, match="float-coordinate sample"):
            read(cube, line)
    counted = tally(cube, idx)
    assert tally(cube, counted) is counted
    on_coords = tally(full_cube_class(2, support_coords=[0.25, 0.5]), line)
    assert np.array_equal(on_coords.points, counted.points)
    assert np.array_equal(on_coords.ones, counted.ones)


def test_kernels_equal_on_points_and_counts():
    # counts are integers, so a kernel or a procedure reading them must match
    # the points sample bit for bit, on a finite class and on a cut class
    rng = np.random.default_rng(59)
    conf = tl.ConfidenceParams(c=1.0, delta=0.1)
    for _ in range(60):
        cube, cut, coords, idx, line = _counts_fixture(rng)
        f = rng.choice((0.0, 0.5, 1.0, 2.0, 3.0), size=coords.size)
        fam = tl.DensityFamily([f, rng.choice((0.0, 1.0, 2.0), size=coords.size)])
        m, k = int(rng.integers(0, 40)), int(rng.integers(0, 30))
        pool_ix = rng.integers(0, coords.size, m)
        q_ix, q_ys = rng.integers(0, coords.size, k), rng.integers(0, 2, k)
        for cls, points in ((cube, idx), (cut, idx), (cut, line)):
            on_line = points is line
            pool = UnlabeledSample(coords[pool_ix] if on_line else pool_ix)
            q_points = make_sample(coords[q_ix] if on_line else q_ix, q_ys,
                                   discrete=not on_line)
            counts, pool_counts = tally(cls, idx), tally(cls, UnlabeledSample(pool_ix))
            q_counts = tally(cls, make_sample(q_ix, q_ys))
            _, finite = ensure_finite(cls, (points, pool, q_points))
            for got, want in zip(finite, (counts, pool_counts, q_counts)):
                assert isinstance(got, SampleCounts)
                assert np.array_equal(got.points, want.points)
                assert (got.ones is None) == (want.ones is None)
                assert want.ones is None or np.array_equal(got.ones, want.ones)
            assert np.array_equal(member_risks(cls, points), member_risks(cls, counts))
            ref = int(rng.integers(0, len(cls)))
            for a, b in ((points, counts), (pool, pool_counts)):
                assert np.array_equal(member_disagreements(cls, ref, a),
                                      member_disagreements(cls, ref, b))
            assert tl.delta_hat(points, pool, cls, conf) == tl.delta_hat(counts, pool_counts,
                                                                         cls, conf)
            assert np.array_equal(weighted_member_risks(cls, points, f),
                                  weighted_member_risks(cls, counts, f))
            if len(points):
                assert np.array_equal(_f2_disagreements(cls, ref, points, f),
                                      _f2_disagreements(cls, ref, counts, f))
            for pdim in (1, 3):
                assert (tl.delta_hat_weighted(points, f, pool, cls, conf, pdim)
                        == tl.delta_hat_weighted(counts, f, pool_counts, cls, conf, pdim))
            assert erm(cls, points) is erm(cls, counts)
            assert tl.weighted_erm(cls, points, f) == tl.weighted_erm(cls, counts, f)
            for procedure in (tl.transfer_erm, tl.reverse_transfer_erm,
                              tl.select_source_or_target):
                assert (procedure(points, q_points, cls, conf)
                        is procedure(counts, q_counts, cls, conf))
            h, i = tl.multi_source_transfer_erm([points, q_points], q_points, pool, cls, conf)
            h_c, i_c = tl.multi_source_transfer_erm([counts, q_counts], q_counts,
                                                    pool_counts, cls, conf)
            assert h is h_c and i == i_c
            h, i = tl.reweighted_transfer_erm(points, q_points, pool, fam, cls, conf)
            h_c, i_c = tl.reweighted_transfer_erm(counts, q_counts, pool_counts, fam, cls, conf)
            assert h is h_c and i == i_c
        # the raw threshold class bins line points over the cut class it projects
        raw_cut, (raw_line, raw_pool) = ensure_finite(
            threshold_class(), (line, UnlabeledSample(coords[pool_ix])))
        for got, points in ((raw_line, line), (raw_pool, UnlabeledSample(coords[pool_ix]))):
            want = tally(raw_cut, points)
            assert isinstance(got, SampleCounts) and len(got) == len(points)
            assert np.array_equal(got.points, want.points)
            assert (got.ones is None) == (want.ones is None)
            assert want.ones is None or np.array_equal(got.ones, want.ones)


@pytest.mark.parametrize("points, ones, message", [
    ([1, 1], [3, 0], "point 0: points[0] is 1, ones[0] is 3"),
    ([2, -1], None, "point 1: points[1] is -1"),
    ([2, 1, 4], [0, 1, -1], "point 2: points[2] is 4, ones[2] is -1"),
    ([[1, 2]], None, "1-D integer arrays"),
    ([1.0, 2.0], None, "1-D integer arrays"),
    ([1, 2], [True, False], "1-D integer arrays"),
    ([1, 2], [1], "of one shape"),
])
def test_user_built_counts_are_checked(points, ones, message):
    # unchecked, counts of 1 draw with 3 ones gave risks [1.5, -1, 2, -0.5],
    # and negative points gave len() 1 and risks -2 and 3
    with pytest.raises(ValueError, match=re.escape(message)):
        SampleCounts(np.array(points), None if ones is None else np.array(ones))
    cube = full_cube_class(2)
    built = SampleCounts([2, 1], [1, 0])
    assert len(built) == 3 and built.points.dtype.kind == "i"
    assert np.array_equal(member_risks(cube, built),
                          member_risks(cube, make_sample([0, 0, 1], [1, 0, 0])))
    assert len(SampleCounts(np.array([2, 0, 1]))) == 3


@pytest.mark.parametrize("points,n", [
    (np.array([2 ** 53, 1]), 2 ** 53 + 1),
    (np.array([2 ** 62, 2 ** 62]), 2 ** 63),  # the int64 sum wraps to -2^63
    (np.array([2 ** 63, 2 ** 63], dtype=np.uint64), 2 ** 64),  # the uint64 sum wraps to 0
    (np.full(4096, 2 ** 52), 2 ** 64),  # every entry fits, the int64 sum wraps to 0
], ids=["2^53+1", "int64-wrap", "uint64-wrap", "many-entries"])
def test_counts_hold_at_most_2_53_draws(points, n):
    # past 2^53 draws a count sum is no exact float64 integer; the check sums
    # without wrapping and names the total
    with pytest.raises(ValueError, match=rf"points sum to {n} draws, above the 2\^53"):
        SampleCounts(points)
    half = SampleCounts(np.array([2 ** 52, 2 ** 52]), np.array([0, 2 ** 52]))
    assert len(half) == 2 ** 53
    assert member_risks(full_cube_class(2), half).tolist() == [0.5, 1.0, 0.0, 0.5]
    with pytest.raises(ValueError, match=rf"{2 ** 53} \+ 1 draws is above the 2\^53"):
        half + SampleCounts(np.array([1, 0]), np.array([0, 0]))


def test_unlabeled_points_where_labels_are_needed_raise_type_error():
    cube = full_cube_class(2)
    u = UnlabeledSample(np.array([0, 1, 1]))
    line = UnlabeledSample(np.array([0.25, 0.5]))
    for run in (lambda: member_risks(cube, u), lambda: erm(cube, u),
                lambda: tl.transfer_erm(u, u, cube), lambda: erm(threshold_class(), line)):
        with pytest.raises(TypeError, match="label counts need a labeled sample"):
            run()


@pytest.mark.parametrize("xs, first", [([0, 5], "xs[1] is 5"), ([-1, 0], "xs[0] is -1"),
                                       ([2, 3, 4], "xs[1] is 3")])
def test_out_of_range_support_indices_are_refused(xs, first):
    # a finite class and a cut class, each over three support points
    message = re.escape(first) + r".*\[0, 3\).*3 support points"
    sample = make_sample(xs, [1] * len(xs))
    for cls in (full_cube_class(3), project_onto_support(threshold_class(), np.arange(3.0))):
        for kernel in (member_risks, erm, tally):
            with pytest.raises(ValueError, match=message):
                kernel(cls, sample)
        with pytest.raises(ValueError, match=message):
            member_disagreements(cls, 0, UnlabeledSample(np.array(xs)))


def test_projected_class_refuses_points_off_its_support():
    cls = project_class(threshold_class(), [0.0, 1.0, 2.0])
    with pytest.raises(ValueError, match="sample contains points outside the projected support"):
        member_risks(cls, LabeledSample(np.array([0.5]), np.array([1])))


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
    assert (h.labels, h.threshold) == (None, 5.0)
    assert oracles.labels_of(h, joint.support) == (1, 0, 0)
    assert tl.true_risk(joint, h) == 0.1
    cut, (empty,) = ensure_finite(threshold_class(), (make_sample([], []),))
    assert len(cut) == 2 and len(empty) == 0


def _rate_family():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    return fam.pairs[0], fam.cls


def _rate_table():
    return tl.RateTable([tl.RateRow(0, n, "e", 1, 1.0 / n, 1.0 / n, 0, 0, 0)
                         for n in (8, 16, 32, 64, 128)])


# (field, least, call) for every entry point that reads a count through
# `hypotheses._count`: the call passes its one argument as that count
COUNT_SITES = {
    "vc_dim": ("vc_dim", 1, lambda v: tl.HypothesisClass(vc_dim=v)),
    "sample-joint": ("n", 0, lambda v: tl.sample_labeled(
        tl.DiscreteJoint(np.arange(3.0), np.full(3, 1 / 3), np.ones(3)), v, 1)),
    "sample-line": ("n", 0, lambda v: tl.sample_labeled(tl.example_scenario(2).p, v, 1)),
    "cells": ("cells", 1, lambda v: tl.discretize_pair(tl.example_scenario(2), v)),
    "packing-d": ("d", 8, lambda v: tl.vg_packing(v)),
    "packing-target": ("target", 1, lambda v: tl.vg_packing(8, 0, v)),
    "single-scale": ("d_h", 9, lambda v: tl.build_single_scale_family(v, 1.0, 0.5, 0.5, 0.25)),
    "two-scale": ("d_h", 5, lambda v: tl.build_two_scale_family(v, 2.0, 0.5, 0.5, 0.25, 0.125)),
    "n_angles": ("n_angles", 4, lambda v: tl.example_scenario(1, n_angles=v)),
    "trials": ("trials", 1, lambda v: tl.monte_carlo(*_rate_family(), "erm_q", [(0, 8)], v, 1)),
    "n_p": ("n_p", 0, lambda v: tl.monte_carlo(*_rate_family(), "erm_q", [(v, 8)], 2, 1)),
    "n_q": ("n_q", 0, lambda v: tl.monte_carlo(*_rate_family(), "erm_q", [(8, v)], 2, 1)),
    "jobs": ("jobs", 1, lambda v: tl.monte_carlo(*_rate_family(), "erm_q", [(0, 8)], 2, 1,
                                                 jobs=v)),
    "drop_smallest": ("drop_smallest", 0,
                      lambda v: tl.fit_slope(_rate_table(), "n_q", drop_smallest=v)),
    "pseudo_dim": ("pseudo_dim", 0, lambda v: tl.DensityFamily([np.ones(3)], pseudo_dim=v)),
    "unlabeled-vc_dim": ("vc_dim", 1, lambda v: tl.unlabeled_requirement(0.1, 0.1, v)),
    "costs-vc_dim": ("vc_dim", 1, lambda v: tl.optimal_sampling_costs(
        0.1, v, 0.5, 0.5, 1.0, tl.CostSchedule("linear", 1.0), tl.CostSchedule("linear", 1.0))),
    "max_rounds": ("max_rounds", 1, lambda v: _adaptive_run(max_rounds=v)),
}


def _adaptive_run(max_rounds=64, seed=0):
    pair, cls = tl.discretize_pair(tl.example_scenario(2), 8)
    unit = tl.CostSchedule("linear", 1.0)
    return tl.run_adaptive_sampling(
        0.2, unit, unit, lambda n, s: tl.sample_labeled(pair.p, n, s),
        lambda n, s: tl.sample_labeled(pair.q, n, s), tl.sample_unlabeled(pair.q, 4096, 1), cls,
        seed=seed, max_rounds=max_rounds)


@pytest.mark.parametrize("value", [2.5, float("nan"), True, np.True_, np.float64(3.0), "4",
                                   np.array(3.0), np.array([3, 4])])
@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_rule_refuses_a_non_integer_by_name(site, value):
    # 64.7 ran as n_q 64, True as one trial, and 2.5 drew two points or
    # failed in numpy naming nothing; "4" and an array failed unnamed where a
    # parity or range test ran first, a 0-d float array failed in numpy, and
    # a NaN target or pseudo_dim raised a ValueError of its own
    field, _, call = COUNT_SITES[site]
    with pytest.raises(TypeError, match=re.escape(f"{field} must be an integer, got {value!r}")):
        call(value)


@pytest.mark.parametrize("site", COUNT_SITES)
def test_count_rule_refuses_a_count_below_its_least_by_name(site):
    field, least, call = COUNT_SITES[site]
    with pytest.raises(ValueError, match=rf"^{field} must be"):
        call(least - 1)


# every entry point that reads a seed: the call passes its one argument as the
# seed.  A seed has no least, so the count rule reads it with none
JOINT3 = tl.DiscreteJoint(np.arange(3.0), np.full(3, 1 / 3), np.ones(3))
SEED_SITES = {
    "sample_labeled": lambda v: tl.sample_labeled(JOINT3, 4, v),
    "sample_unlabeled": lambda v: tl.sample_unlabeled(JOINT3, 4, v),
    "sample-line": lambda v: tl.sample_labeled(tl.example_scenario(2).p, 4, v),
    # an empty draw builds no generator, yet reads its seed
    "sample_labeled-empty": lambda v: tl.sample_labeled(JOINT3, 0, v),
    "sample_unlabeled-empty": lambda v: tl.sample_unlabeled(JOINT3, 0, v),
    "sample-line-empty": lambda v: tl.sample_unlabeled(tl.example_scenario(2).q, 0, v),
    # up to d_h 11 a family holds every sign vector and draws no packing
    "single-scale-d9": lambda v: tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25, seed=v),
    "two-scale-d9": lambda v: tl.build_two_scale_family(9, 4.0, 0.5, 0.5, 0.25, 0.125,
                                                        seed=v),
    "rng_from": lambda v: rng_from(v, 1),
    "derive_seed": lambda v: derive_seed(v, 1),
    "vg_packing": lambda v: tl.vg_packing(8, v),
    "monte_carlo": lambda v: tl.monte_carlo(*_rate_family(), "erm_q", [(0, 8)], 2, v),
    "monte_carlo-no-cells": lambda v: tl.monte_carlo(*_rate_family(), "erm_q", [], 2, v),
    "run_adaptive_sampling": lambda v: _adaptive_run(seed=v),
}


@pytest.mark.parametrize("value", [2.5, 3.7, True, np.True_, np.float64(3.0), "4",
                                   np.array(2.0), np.array([3, 4])])
@pytest.mark.parametrize("site", SEED_SITES)
def test_seed_rule_refuses_a_non_integer_by_name(site, value):
    # 3.7 drew seed 3's stream, 2.5 ran a rate table and wrote seed 2 into it,
    # and True derived the seeds of 1
    with pytest.raises(TypeError, match=re.escape(f"seed must be an integer, got {value!r}")):
        SEED_SITES[site](value)


def test_seed_rule_takes_numpy_integers():
    # a numpy integer or 0-d integer array seed, of any sign, gives its int's words
    for seed in (np.int64(-5), np.uint64(2 ** 63 + 5), np.int8(7), np.array(5)):
        assert _key_words(seed, (1,)) == _key_words(int(seed), (1,))
    draw = tl.sample_labeled(JOINT3, 9, np.int32(7))
    assert np.array_equal(draw.points, tl.sample_labeled(JOINT3, 9, 7).points)
    row = tl.monte_carlo(*_rate_family(), "erm_q", [(0, 8)], 2, np.int64(3)).rows[0]
    assert type(row.seed) is int and row.seed == 3


def test_count_rule_takes_numpy_integers():
    i64 = np.int64
    joint = tl.DiscreteJoint(np.arange(3.0), np.full(3, 1 / 3), np.ones(3))
    a, b = tl.sample_labeled(joint, i64(5), 1), tl.sample_labeled(joint, 5, 1)
    assert np.array_equal(a.points, b.points) and np.array_equal(a.ones, b.ones)
    assert np.array_equal(tl.vg_packing(i64(8), 0, i64(3)), tl.vg_packing(8, 0, 3))
    assert tl.HypothesisClass(vc_dim=np.int32(2)).vc_dim == 2
    vc_dim = tl.HypothesisClass(vc_dim=np.array(2)).vc_dim  # a 0-d integer array
    assert type(vc_dim) is int and vc_dim == 2
    assert tl.DensityFamily([np.ones(3)], pseudo_dim=np.uint8(2)).pseudo_dim == 2
    assert (tl.example_scenario(1, n_angles=i64(8))[1].label_matrix
            == tl.example_scenario(1, n_angles=8)[1].label_matrix).all()
    pair, cls = _rate_family()
    rows = tl.monte_carlo(pair, cls, "erm_q", [(i64(0), i64(8))], i64(3), 1, jobs=i64(1)).rows
    assert rows == tl.monte_carlo(pair, cls, "erm_q", [(0, 8)], 3, 1).rows
    assert all(type(v) is int for v in (rows[0].n_p, rows[0].n_q, rows[0].trials))
    assert (tl.fit_slope(_rate_table(), "n_q", drop_smallest=i64(1))
            == tl.fit_slope(_rate_table(), "n_q", drop_smallest=1))


LINE2 = tl.example_scenario(2)
SHIFTED3 = tl.DiscreteJoint(np.arange(3.0) + 1.0, np.full(3, 1 / 3), np.ones(3))
# (error, message, call) for each refusal the tests above do not reach: the
# message names what was refused
REFUSALS = {
    "pair_profile-finite-class-on-a-line": (
        TypeError, "line scenarios pair with the threshold class",
        lambda: tl.rho_min(LINE2, full_cube_class(3))),
    "beta_max-whole-pair": (TypeError, "pass one side of the pair, not the pair itself",
                            lambda: tl.beta_max(LINE2, threshold_class())),
    "derive_seed-bits-32": (ValueError, "bits must lie in (32, 64), got 32",
                            lambda: derive_seed(1, 2, bits=32)),
    "derive_seed-bits-64": (ValueError, "bits must lie in (32, 64), got 64",
                            lambda: derive_seed(1, 2, bits=64)),
    "sample_labeled-unknown": (TypeError, "cannot sample from object",
                               lambda: tl.sample_labeled(object(), 4, 1)),
    "true_risk-unknown": (TypeError, "cannot evaluate risk under object",
                          lambda: tl.true_risk(object(), finite_hypothesis((1, 0, 0)))),
    "best_in_class-unknown": (TypeError, "cannot optimize over object",
                              lambda: tl.best_in_class(object(), full_cube_class(3))),
    "true_risk-finite-on-a-line": (TypeError, "line scenarios evaluate threshold hypotheses only",
                                   lambda: tl.true_risk(LINE2.p, finite_hypothesis((1, 0)))),
    "true_risk-labels-of-another-size": (
        TypeError, "hypothesis is not expressible over this support",
        lambda: tl.true_risk(JOINT3, finite_hypothesis((1, 0)))),
    "sigma_index-absent": (ValueError, "sign vector not present in the family",
                           lambda: tl.build_single_scale_family(
                               9, 1.0, 0.5, 0.5, 0.25, sigmas=[[-1] * 8]).sigma_index()),
    "two-scale-beta_p-1": (ValueError, "beta_p, beta_q must lie in (0, 1)",
                           lambda: tl.build_two_scale_family(9, 4.0, 1.0, 0.5, 0.25, 0.125)),
    "two-scale-beta_q-0": (ValueError, "beta_p, beta_q must lie in (0, 1)",
                           lambda: tl.build_two_scale_family(9, 4.0, 0.5, 0.0, 0.25, 0.125)),
    "n_angles-odd": (ValueError, "n_angles must be even, got 9",
                     lambda: tl.example_scenario(1, n_angles=9)),
    "discretize_pair-discrete": (TypeError, "pair is already discrete",
                                 lambda: tl.discretize_pair(tl.TransferPair(JOINT3, JOINT3), 4)),
    "scenario_to_dict-line": (TypeError, "only finite-support pairs serialize; discretize first",
                              lambda: tl.scenario_to_dict(LINE2)),
    "scenario_to_dict-unshared-support": (
        ValueError, "pair sides must share a support",
        lambda: tl.scenario_to_dict(tl.TransferPair(JOINT3, SHIFTED3))),
    "scenario_from_dict-missing": (
        ValueError, "missing scenario fields: ['certified', 'eta_p', 'eta_q', 'mass_p', 'mass_q']",
        lambda: tl.scenario_from_dict({"support": [0.0]})),
    "LabeledSample-unequal-lengths": (ValueError, "xs and ys must have equal length",
                                      lambda: LabeledSample(np.arange(3), np.array([0, 1]))),
    "finite_class-empty": (ValueError, "finite class needs non-empty label patterns of one length",
                           lambda: finite_class([])),
    "finite_class-one-pattern-unnested": (
        ValueError, "finite class needs non-empty label patterns of one length",
        lambda: finite_class([0, 1])),
    "finite_class-label-2": (ValueError, "label patterns must hold only 0 and 1",
                             lambda: finite_class([[0, 1], [0, 2]])),
    "full_cube_class-17": (ValueError, "full enumeration beyond 2^16 patterns refused",
                           lambda: full_cube_class(17)),
    "confidence_width-n": (ValueError, "n must be >= 0",
                           lambda: tl.confidence_width(-1, 1, 0.1)),
    "fit_slope-axis": (ValueError, "axis must be 'n_p' or 'n_q'",
                       lambda: tl.fit_slope(_rate_table(), "trials")),
    "fit_slope-statistic": (ValueError, "statistic must be 'mean' or 'median'",
                            lambda: tl.fit_slope(_rate_table(), "n_q", "q90")),
    "DensityFamily-unequal-sizes": (ValueError, "weight vectors must share the support",
                                    lambda: tl.DensityFamily([np.ones(3), np.ones(4)])),
}


@pytest.mark.parametrize("site", REFUSALS)
def test_refusal_names_its_cause(site):
    error, message, call = REFUSALS[site]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
