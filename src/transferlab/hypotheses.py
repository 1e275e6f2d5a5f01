"""Hypothesis classes, their evaluation kernels, and exact ERM.

A class is the sequence of its members, evaluated as a 0/1 label matrix of
shape (M, s) over s support points.  A finite class stores that matrix.
Projecting the one-sided threshold class (label 1 iff x <= t) onto a point set
gives a cut class: the sorted points plus n+1 thresholds, cut i's labeling
exactly the i smallest points 1.  Its risks and disagreements are prefix sums
over the points, so it holds no matrix and takes O(n) memory.

`ensure_finite` projects the threshold class onto the union of a procedure's
samples.  The raw threshold class reads samples as coordinates, so it refuses
a sample of support indices: such a sample needs the class over its joint's
support.  The kernels here are the only code that evaluates members and the
only code that reads a class's representation: each returns one value per
member, plain or density-weighted, from per-support label counts.  They take
members by index: a disagreement's reference member is a row number, and its
labels are read from the class.  A `Hypothesis` is a record that evaluates
nothing.  Members are built one at a time only when indexed (`cls[i]`) and
cached, so a procedure returns the same `Hypothesis` object as
`cls.members[i]`.

Every kernel reads a sample as its `SampleCounts`, which add by adding their
counts; an empty sample is zero counts and passes the same checks as any
other.  A finite-support draw is born in that form, as one multinomial over
the support's cells, and never holds points; `tally` and `ensure_finite`
(over the cut class it projects) are the only places where a point sample
becomes counts, besides the rate lab's one-sample line blocks, whose sorted
points count one draw each over the cuts between positions.  A line sample
keeps its float points for the raw threshold class, which is projected afresh
onto every union of them.  A batch of T samples of n draws each is one
library-built `SampleCounts` whose counts have a trailing trial axis: (s, T)
`points` and `ones`, column t sample t, `len()` n.  `member_risks` and
`member_disagreements` read a batch whole and give one column per sample,
each equal bit for bit to that sample's own result.  They check the sample
they are given; `_risks` and `_disagreements` are the same arithmetic on
counts already checked, for a caller that checks a sample once where it
enters and reads it directly after that.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

FINITE = "finite-enumerated"
THRESHOLD = "one-sided-threshold"

# the most draws one sample holds: up to 2^53 every count sum the kernels
# form is an exact float64 integer
_MAX_DRAWS = 2 ** 53
# the largest density weight: f^2 summed over 2^53 draws stays a finite float64
_MAX_WEIGHT = 2.0 ** 485


def _count(name: str, value, least: int = 0) -> int:
    """value as an int, once checked to be an integer (a bool is not) >= least."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        count = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if count < least:
        raise ValueError(f"{name} must be >= {least}, got {count}")
    return count


@dataclass(frozen=True)
class Hypothesis:
    """A member of a class, as a record: a finite member's label pattern, or a
    threshold member's threshold alone (label 1 on x <= threshold; a cut or
    grid member has no labels).  It is built only to be returned or reported
    as a witness, and it evaluates nothing: the class kernels (`member_risks`,
    `member_disagreements`, `weighted_member_risks`) give every member's
    value, and member i's is entry i.
    """

    kind: str
    labels: tuple[int, ...] | None = None
    threshold: float | None = None


def finite_hypothesis(labels) -> Hypothesis:
    return Hypothesis(kind=FINITE, labels=tuple(int(b) for b in labels))


def threshold_hypothesis(t: float) -> Hypothesis:
    return Hypothesis(kind=THRESHOLD, threshold=float(t))


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """Ordered i.i.d. draws (x, y) plus the seed that generated them.

    xs holds raw coordinates (float dtype) for draws from a line scenario, or
    support indices (integer dtype) for a sample built by hand over a
    support; a draw from a finite-support joint is born as `SampleCounts`.
    ys holds labels 0 and 1, stored as int8; any other label raises ValueError.
    `len()` is the number of draws.  The kernels read it as its `SampleCounts`
    (see `tally` and `ensure_finite`); `a + b` concatenates two samples.
    """

    xs: np.ndarray
    ys: np.ndarray
    seed: int = 0

    def __post_init__(self):
        ys = np.atleast_1d(np.asarray(self.ys))
        bad = ys != (ys > 0)  # 0 and 1 are the only labels y with y == (y > 0)
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"labels must be 0 or 1; ys[{i}] is {ys[i]}")
        object.__setattr__(self, "xs", np.atleast_1d(np.asarray(self.xs)))
        object.__setattr__(self, "ys", ys.astype(np.int8, copy=False))
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have equal length")

    def __len__(self) -> int:
        return int(self.xs.size)

    def __add__(self, other: "LabeledSample") -> "LabeledSample":
        """The draws of both samples in order, under this sample's seed."""
        return LabeledSample(np.concatenate((self.xs, other.xs)),
                             np.concatenate((self.ys, other.ys)), self.seed)


@dataclass(frozen=True, eq=False)
class UnlabeledSample:
    xs: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "xs", np.atleast_1d(np.asarray(self.xs)))

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True, eq=False)
class SampleCounts:
    """A sample over a support as per-support counts, the one form the
    kernels read: `points[i]` draws fell on support point i, and `ones[i]` of
    them carry label 1 (None for an unlabeled sample).  `len()` is the number
    of draws, at most 2^53; two counts over one support add.  Counts built
    here are checked (ValueError at the first bad index, or past 2^53 draws)
    and 1-D; the library's, valid by construction, skip the check through
    `_trusted`, and a batch of T samples holds them as (s, T) columns of n
    draws each, with `len()` n.
    """

    points: np.ndarray
    ones: np.ndarray | None = None
    n: int = field(init=False)

    def __post_init__(self):
        points = np.asarray(self.points)
        ones = np.zeros_like(points) if self.ones is None else np.asarray(self.ones)
        if not (points.ndim == 1 and points.shape == ones.shape
                and points.dtype.kind in "iu" and ones.dtype.kind in "iu"):
            raise ValueError("points and ones must be 1-D integer arrays of one shape")
        bad = (ones < 0) | (ones > points)  # with 0 <= ones <= points, no entry is < 0
        if bad.any():
            i = int(np.argmax(bad))
            raise ValueError(f"invalid counts at support point {i}: points[{i}] is "
                             f"{points[i]}, ones[{i}] is {ones[i]}; need 0 <= ones <= points")
        # a float sum cannot overflow, and up to 2^54 it bounds the exact one far below 2^63
        if points.sum(dtype=np.float64) > 2.0 ** 54 or (n := int(points.sum())) > _MAX_DRAWS:
            raise ValueError(f"points sum to {sum(points.tolist())} draws, above the 2^53 "
                             f"a sample holds")
        self._fill(points, None if self.ones is None else ones, n)

    def _fill(self, points, ones, n: int) -> "SampleCounts":
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "ones", ones)
        # the draws per sample; every column of a batch holds the same n
        object.__setattr__(self, "n", n)
        return self

    @classmethod
    def _trusted(cls, points, ones=None) -> "SampleCounts":
        """Counts valid by construction (one bincount or multinomial, or a
        sum of valid counts), built without the check: the library's only
        path past it."""
        return cls.__new__(cls)._fill(points, ones, int(points.sum(axis=0).flat[0]))

    @classmethod
    def _of(cls, idx: np.ndarray, ys, size: int) -> "SampleCounts":
        """Counts of support indices idx in [0, size) with labels ys (0 or 1;
        None for an unlabeled sample), from one bincount: with labels, over
        the 2 * size cells that `_of_cells` reads."""
        if ys is None:
            return cls._trusted(np.bincount(idx, minlength=size))
        return cls._of_cells(np.bincount(2 * idx + ys, minlength=2 * size))

    @classmethod
    def _of_cells(cls, cells: np.ndarray) -> "SampleCounts":
        """Labeled counts from the counts of the 2s cells along the first
        axis: cell 2i counts (i, 0) and cell 2i + 1 counts (i, 1)."""
        return cls._trusted(cells[0::2] + cells[1::2], cells[1::2])

    def __len__(self) -> int:
        return self.n

    def __add__(self, other: "SampleCounts") -> "SampleCounts":
        if self.points.size != other.points.size:
            raise ValueError(f"counts over {self.points.size} and {other.points.size} "
                             f"support points do not add")
        if (self.ones is None) != (other.ones is None):
            raise TypeError("labeled and unlabeled counts do not add")
        if self.n + other.n > _MAX_DRAWS:
            raise ValueError(f"{self.n} + {other.n} draws is above the 2^53 a sample holds")
        ones = None if self.ones is None else self.ones + other.ones
        return SampleCounts.__new__(SampleCounts)._fill(self.points + other.points, ones,
                                                        self.n + other.n)


class HypothesisClass(Sequence):
    """An enumerable hypothesis class: the sequence of its members.

    A finite class stores a read-only float64 (M, s) `label_matrix` of distinct
    0/1 rows over `support_size` = s points at optional `support_coords`.  A cut
    class, the threshold class projected onto sorted `support_coords`, stores
    only those points and the threshold that realizes each cut in
    `thresholds`, and its `label_matrix` raises TypeError.  Its members, like
    a grid's with no support, are their thresholds.  The un-projected threshold
    class has neither: `len()`, indexing, `members` and `label_matrix` raise
    TypeError until it is projected.

    `cls[i]` builds member i once and caches it (i is an integer, negative
    from the end; a slice raises TypeError); `members` is the cached list of
    those same objects.
    """

    def __init__(self, label_matrix=None, vc_dim: int = 1, support_coords=None,
                 thresholds=None):
        vc_dim = _count("vc_dim", vc_dim, 1)
        if label_matrix is not None:
            label_matrix = np.array(label_matrix, dtype=np.float64)
            label_matrix.setflags(write=False)
        self._label_matrix = label_matrix
        self.vc_dim = vc_dim
        self.support_coords = support_coords
        self.thresholds = thresholds
        self._built: dict[int, Hypothesis] = {}

    @property
    def kind(self) -> str:
        if self._label_matrix is None and self.thresholds is None:
            return THRESHOLD
        return FINITE

    @property
    def label_matrix(self) -> np.ndarray:
        if self._label_matrix is None:
            if self.support_coords is None:
                raise TypeError("threshold class is not enumerated; project it first")
            raise TypeError("a cut class holds no label matrix; use its prefix-sum kernels")
        return self._label_matrix

    @property
    def support_size(self) -> int | None:
        if self._label_matrix is not None:
            return self._label_matrix.shape[1]
        return None if self.support_coords is None else self.support_coords.size

    def __len__(self) -> int:
        if self.thresholds is not None:
            return len(self.thresholds)
        return len(self.label_matrix)

    def __getitem__(self, i: int) -> Hypothesis:
        i = range(len(self))[operator.index(i)]
        h = self._built.get(i)
        if h is None:
            h = self._built[i] = self._build(i)
        return h

    def _build(self, i: int) -> Hypothesis:
        """Member i: a finite member's labels as a tuple of int, else its threshold."""
        if self.thresholds is None:
            return Hypothesis(FINITE, tuple(self.label_matrix[i].astype(np.int8).tolist()))
        return Hypothesis(THRESHOLD, None, float(self.thresholds[i]))

    @cached_property
    def members(self) -> list[Hypothesis]:
        return list(self)


def _cube_patterns(n: int) -> np.ndarray:
    """All 2^n 0/1 patterns over n <= 32 points, as uint8; row i holds the
    bits of i, lowest first."""
    words = np.arange(2 ** n, dtype="<u4").view(np.uint8).reshape(-1, 4)
    return np.unpackbits(words, axis=1, count=n, bitorder="little")


def finite_class(patterns, vc_dim: int | None = None,
                 support_coords=None) -> HypothesisClass:
    """The class whose members are the given 0/1 label patterns, in order.

    Duplicate patterns raise ValueError.  They are found with no sort over
    whole rows: each row becomes one float code per 52 columns, its labels
    dotted with powers of two (a sum below 2^52, exact in any order of
    addition), the rows are lexsorted by their codes, and a duplicate is a
    row whose codes equal its neighbor's."""
    lab = np.asarray(patterns)
    if lab.ndim != 2 or lab.size == 0:
        raise ValueError("finite class needs non-empty label patterns of one length")
    if not ((lab == 0) | (lab == 1)).all():
        raise ValueError("label patterns must hold only 0 and 1")
    m, size = lab.shape
    if vc_dim is None:
        # a full enumeration over s points shatters all of them
        vc_dim = size if m == 2 ** size else max(1, int(np.log2(m)))
    coords = None if support_coords is None else np.asarray(support_coords, dtype=np.float64)
    cls = HypothesisClass(lab, vc_dim, coords)
    lab, pow2 = cls.label_matrix, np.exp2(np.arange(size) % 52)
    codes = np.array([lab[:, j:j + 52] @ pow2[j:j + 52] for j in range(0, size, 52)])
    codes = codes[:, np.lexsort(codes)]
    if (codes[:, 1:] == codes[:, :-1]).all(axis=0).any():
        raise ValueError("duplicate label pattern in enumeration")
    return cls


def full_cube_class(n_points: int, support_coords=None) -> HypothesisClass:
    """All 2^n label patterns over n support points."""
    if n_points > 16:
        raise ValueError("full enumeration beyond 2^16 patterns refused")
    return finite_class(_cube_patterns(n_points), vc_dim=n_points,
                        support_coords=support_coords)


def threshold_class() -> HypothesisClass:
    return HypothesisClass()


def project_class(cls: HypothesisClass, points) -> HypothesisClass:
    """Finite reduction of the threshold class onto a point set.

    Returns the cut class over the distinct points: its n+1 members are the
    label patterns the one-sided threshold class induces on them.  A finite
    class projects to itself.  A non-finite point raises ValueError.
    """
    if cls.kind == FINITE:
        return cls
    points = np.asarray(points, dtype=np.float64)
    pts = np.unique(points)
    if pts.size == 0:
        raise ValueError("cannot project onto an empty point set")
    _refuse_non_finite(pts, [("points", points)])
    return _cut_class(pts)


def project_onto_support(cls: HypothesisClass, support) -> HypothesisClass:
    """The class over a joint's support: a finite class unchanged, the
    threshold class projected.  Projection sorts and merges the points, while
    the joint's mass and eta keep the order of `support`, so the threshold
    class needs a strictly increasing support; any other raises ValueError."""
    if cls.kind == FINITE:
        return cls
    support = np.asarray(support, dtype=np.float64)
    # neighbours compared, not differenced: a difference of two finite floats
    # overflows once they lie more than the largest float apart
    bad = np.flatnonzero(~(support[1:] > support[:-1]))
    if bad.size:
        i = bad[0] + 1
        raise ValueError(f"support must be strictly increasing to project the threshold "
                         f"class onto it; support[{i}] is {support[i]} after {support[i - 1]}")
    return project_class(cls, support)


def _refuse_non_finite(pts: np.ndarray, named) -> None:
    """Raise the ValueError that names the first non-finite coordinate among
    the `(name, xs)` pairs, if `pts`, their np.unique, holds one: it sorts -inf
    first and +inf and NaN last, so its two ends tell."""
    if np.isfinite(pts[:1]).all() and np.isfinite(pts[-1:]).all():
        return
    for name, xs in named:
        bad = np.flatnonzero(~np.isfinite(xs))
        if bad.size:
            raise ValueError(f"{name}[{bad[0]}] is {xs[bad[0]]}, not a finite coordinate")


def _cut_class(pts: np.ndarray) -> HypothesisClass:
    """The cut class over sorted distinct finite points: cut i's threshold
    labels exactly the i smallest points 1, pts[i-1] <= t_i < pts[i]
    (`_cut_thresholds`)."""
    return HypothesisClass(vc_dim=1, support_coords=pts, thresholds=_cut_thresholds(
        np.concatenate(([-np.inf], pts)), np.concatenate((pts, [np.inf]))))


def _cut_thresholds(below: np.ndarray, above: np.ndarray) -> np.ndarray:
    """Each cut's threshold from its finite neighbours below < above, the
    points next to it (-inf where no point lies below it, +inf where none
    lies above): their midpoint if that rounds into [below, above), else
    below; above - 1 (or the next float below) below all points; below + 1
    above them."""
    with np.errstate(over="ignore"):  # a midpoint past the float range; the float below -max
        mid = 0.5 * (below + above)
        first = np.where(above - 1.0 < above, above - 1.0, np.nextafter(above, -np.inf))
    inner = np.where((below <= mid) & (mid < above), mid, below)
    return np.where(below == -np.inf, first, np.where(above == np.inf, below + 1.0, inner))


def ensure_finite(cls: HypothesisClass, samples):
    """The class in enumerated form, and each sample as its `SampleCounts`
    over that class's support.

    A finite class comes back unchanged and each sample is tallied.  The
    threshold class is projected onto the union of all sample points, and the
    same np.unique bins every sample into counts over the cut class, so no
    point is searched again.  It reads points as coordinates, so a sample of
    support indices (counts, or a non-empty integer sample) raises TypeError,
    and a non-finite point ValueError.
    """
    if cls.kind != THRESHOLD:
        return cls, tuple([tally(cls, s) for s in samples])
    for s in samples:
        if isinstance(s, SampleCounts) or (len(s) and np.issubdtype(s.xs.dtype, np.integer)):
            raise TypeError("the threshold class reads samples as coordinates, not support "
                            "indices; project it onto the joint's support first "
                            "(project_onto_support or discretize_pair)")
    xs = [np.asarray(s.xs, dtype=np.float64) for s in samples]
    pts, idx = np.unique(np.concatenate(xs), return_inverse=True)
    _refuse_non_finite(pts, ((f"samples[{k}].xs", x) for k, x in enumerate(xs)))
    if pts.size == 0:
        pts = np.zeros(1)  # only empty samples: any one point gives the two cuts
    parts = np.split(idx, np.cumsum([x.size for x in xs])[:-1])
    return _cut_class(pts), tuple(SampleCounts._of(ix, getattr(s, "ys", None), pts.size)
                                  for s, ix in zip(samples, parts))


def erm(cls: HypothesisClass, sample: LabeledSample) -> Hypothesis:
    """Empirical risk minimizer with deterministic tie-breaking.

    Ties go to the lowest enumeration index; for the threshold class that is
    the smallest representative threshold.  An empty sample gives every member
    risk 0, so it returns the tie-break member.
    """
    cls, (sample,) = ensure_finite(cls, (sample,))
    return cls[int(np.argmin(member_risks(cls, sample)))]


def member_risks(cls: HypothesisClass, sample: LabeledSample) -> np.ndarray:
    """Empirical risk of every member, exactly, as one matrix product: (M,)
    for a sample, (M, T) for a batch of T, column t sample t's.  An empty
    sample is zero counts, checked like any other: every risk on it is 0."""
    return _risks(cls, _labeled(cls, sample))


def _risks(cls: HypothesisClass, c: SampleCounts) -> np.ndarray:
    """`member_risks` of labeled counts already checked by `_labeled`."""
    return (_matvec(cls, c.points - 2.0 * c.ones) + c.ones.sum(axis=0)) / max(c.n, 1)


def member_disagreements(cls: HypothesisClass, ref, sample) -> np.ndarray:
    """Empirical disagreement of every member with member `ref` on the sample
    points: (M,) for a sample, (M, T) for a batch of T with `ref` one index
    per column, member ref[t] the reference of sample t.  0 on an empty sample."""
    return _disagreements(cls, ref, _counts(cls, sample))


def _disagreements(cls: HypothesisClass, ref, c: SampleCounts) -> np.ndarray:
    """`member_disagreements` on counts already checked by `_counts`.  Counts
    are integers, so every sum is exact: cut i and cut ref disagree on the
    points between them, |P(i) - P(ref)| for the prefix counts P, and for a
    matrix 1[h != ref] = h + ref - 2 h ref folds the reference into the weights."""
    if cls.thresholds is not None:
        prefix = _matvec(cls, c.points)
        at_ref = prefix[ref] if prefix.ndim == 1 else prefix[ref, np.arange(prefix.shape[1])]
        return np.abs(prefix - at_ref) / max(c.n, 1)
    ref_lab, points = _row(cls, ref), c.points
    return ((_matvec(cls, points * (1.0 - 2.0 * ref_lab)) + (ref_lab * points).sum(axis=0))
            / max(c.n, 1))


def weighted_member_risks(cls: HypothesisClass, sample: LabeledSample,
                          f: np.ndarray) -> np.ndarray:
    """(1/n) sum of f(x) over each member's mislabeled sample points: row sums
    (prefix sums for cuts), not a blocked matrix product; 0 on an empty sample.
    f must hold one weight in [0, 2^485] per support point."""
    f = _weights(cls, f)
    c = _labeled(cls, sample)
    w = f * (c.points - 2.0 * c.ones)  # label-0 minus label-1 counts
    own = ((cls.label_matrix * w).sum(axis=1) if cls.thresholds is None
           else np.concatenate(([0.0], np.cumsum(w))))
    return (own + np.dot(f, c.ones.astype(np.float64))) / max(len(sample), 1)


def _f2_disagreements(cls: HypothesisClass, ref: int, sample: LabeledSample,
                      f: np.ndarray) -> np.ndarray:
    """(1/n) sum of f(x)^2 over the sample points where each member and member
    `ref` disagree (for cuts: the points between them), a masked sum: never < 0."""
    w2 = np.square(f) * _counts(cls, sample).points
    if cls.thresholds is None:
        dis = np.where(cls.label_matrix != cls.label_matrix[ref], w2, 0.0).sum(axis=1)
    else:
        dis = np.concatenate((np.cumsum(w2[:ref][::-1])[::-1], [0.0], np.cumsum(w2[ref:])))
    return dis / max(len(sample), 1)


def _matvec(cls: HypothesisClass, w: np.ndarray) -> np.ndarray:
    """Each member's labels dotted with the support weights w, one column of
    weights per sample: (M,) for w of shape (s,), (M, T) for (s, T).  One BLAS
    product for a finite class, prefix sums down the support for a cut class
    (cut i sums the first i weights), which on integer w equal the matrix
    product bit for bit."""
    if cls.thresholds is None:
        return cls.label_matrix @ w
    return np.concatenate((np.zeros((1,) + w.shape[1:]), np.cumsum(w, axis=0)))


def _row(cls: HypothesisClass, i) -> np.ndarray:
    """Labels of member i over the support, as floats; indexed like `cls[i]`.
    For an array of T indices, an (s, T) matrix with member i[t] in column t."""
    if cls.thresholds is None:
        return cls.label_matrix[i].T
    return np.less.outer(np.arange(cls.support_size), np.arange(len(cls))[i]).astype(np.float64)


def _sample_indices(cls: HypothesisClass, xs: np.ndarray) -> np.ndarray:
    if np.issubdtype(xs.dtype, np.integer):
        s = cls.support_size
        if xs.size and (xs.min() < 0 or xs.max() >= s):
            i = int(np.flatnonzero((xs < 0) | (xs >= s))[0])
            raise ValueError(f"sample index xs[{i}] is {xs[i]}, outside [0, {s}) "
                             f"for a class over {s} support points")
        return xs.astype(np.int64, copy=False)
    if cls.support_coords is None:
        raise TypeError("float-coordinate sample over a class without coordinates")
    idx = np.searchsorted(cls.support_coords, xs)
    idx = np.clip(idx, 0, cls.support_coords.size - 1)
    if not np.array_equal(cls.support_coords[idx], xs):
        raise ValueError("sample contains points outside the projected support")
    return idx


def tally(cls: HypothesisClass, sample):
    """The sample as the kernels read it: over a class with a support, its
    `SampleCounts` (a point sample is binned here, once); for the raw
    threshold class, which is projected afresh onto every union of samples,
    the sample as it is."""
    if isinstance(sample, SampleCounts) or cls.kind == THRESHOLD:
        return sample
    return SampleCounts._of(_sample_indices(cls, sample.xs), getattr(sample, "ys", None),
                            cls.support_size)


def _support_size(cls: HypothesisClass) -> int:
    size = cls.support_size
    if size is None:
        raise TypeError("threshold class is not enumerated; project it first")
    return size


def _weights(cls: HypothesisClass, f) -> np.ndarray:
    """f as float64, refused unless one weight in [0, 2^485] per support point."""
    size, f = _support_size(cls), np.asarray(f, dtype=np.float64)
    if f.shape != (size,):
        raise ValueError(f"f has shape {f.shape}, not one weight for each of {size} points")
    bad = np.flatnonzero(~((f >= 0) & (f <= _MAX_WEIGHT)))
    if bad.size:
        raise ValueError(f"f[{bad[0]}] is {f[bad[0]]}; weights must be finite and "
                         f"nonnegative, at most 2^485")
    return f


def _counts(cls: HypothesisClass, sample) -> SampleCounts:
    """The sample as counts over the class's support: tallied, then sized."""
    size = _support_size(cls)
    c = tally(cls, sample)
    if len(c.points) != size:
        raise ValueError(f"counts over {len(c.points)} support points for a class over {size}")
    return c


def _labeled(cls: HypothesisClass, sample) -> SampleCounts:
    """The sample's counts over the class's support; TypeError without labels."""
    c = _counts(cls, sample)
    if c.ones is None:
        raise TypeError("label counts need a labeled sample")
    return c
