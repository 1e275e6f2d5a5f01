"""Hypothesis classes, their evaluation kernels, and exact ERM.

A class is the sequence of its members, evaluated as a 0/1 label matrix of
shape (M, s) over s support points.  A finite class stores that matrix.
Projecting the one-sided threshold class (label 1 iff x <= t) onto a point set
gives a cut class: the sorted points plus n+1 representative thresholds, where
cut i labels the i smallest points 1.  Its risks and disagreements are prefix
sums over the points, so it holds no matrix and takes O(n) memory.

`ensure_finite` projects the threshold class onto the union of a procedure's
samples and maps every sample onto support indices in the same pass.  The raw
threshold class reads samples as coordinates, so it refuses a sample of
support indices: such a sample needs the class over its joint's support.  The
kernels here are the only code that evaluates members and the only code that
reads a class's representation: each returns one value per member, plain or
density-weighted, from per-support label counts.  They take members by
index: a disagreement's reference member is a row number, and its labels are
read from the class.  A `Hypothesis` is a record that evaluates nothing.
Members are built one at a time only when indexed (`cls[i]`) and cached, so
a procedure returns the same `Hypothesis` object as `cls.members[i]`.

A sample the kernels read more than once is binned once: `tally` turns a
sample of support indices into its `SampleCounts`, which the kernels read
without binning again and which add by adding their counts.  A line sample
keeps its float points, which `+` concatenates, because the threshold class is
projected afresh onto every union of them.  This module alone makes that
choice.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

FINITE = "finite-enumerated"
THRESHOLD = "one-sided-threshold"


@dataclass(frozen=True)
class Hypothesis:
    """A member of a class, as a record: a label pattern over a finite
    support, a threshold (label 1 on x <= threshold), or both for a projected
    threshold member.  It is built only to be returned or reported as a
    witness, and it evaluates nothing: the class kernels (`member_risks`,
    `member_disagreements`, `weighted_member_risks`) give every member's
    value, and member i's is entry i.
    """

    kind: str
    labels: tuple[int, ...] | None = None
    threshold: float | None = None


def finite_hypothesis(labels) -> Hypothesis:
    return Hypothesis(kind=FINITE, labels=tuple(int(b) for b in labels))


def threshold_hypothesis(t: float, labels=None) -> Hypothesis:
    lab = None if labels is None else tuple(int(b) for b in labels)
    return Hypothesis(kind=THRESHOLD, labels=lab, threshold=float(t))


@dataclass(frozen=True)
class LabeledSample:
    """Ordered i.i.d. draws (x, y) plus the seed that generated them.

    xs holds support indices (integer dtype) for draws from a finite-support
    joint, or raw coordinates (float dtype) for draws from a line scenario.
    ys holds labels 0 and 1, stored as int8; any other label raises ValueError.
    `len()` is the number of draws.  A sample of support indices that is read
    more than once is kept as its `SampleCounts` (see `tally`); a line sample
    stays points, and `a + b` concatenates two of them.
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


@dataclass(frozen=True)
class UnlabeledSample:
    xs: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "xs", np.atleast_1d(np.asarray(self.xs)))

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class SampleCounts:
    """A sample of support indices as per-support counts: `points[i]` draws
    fell on support point i, and `ones[i]` of them carry label 1 (None for an
    unlabeled sample).  `len()` is the number of draws.  Two counts over one
    support add by adding their counts.  Built by `tally`.
    """

    points: np.ndarray
    ones: np.ndarray | None = None
    n: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.points.sum()))

    def __len__(self) -> int:
        return self.n

    def __add__(self, other: "SampleCounts") -> "SampleCounts":
        if self.points.size != other.points.size:
            raise ValueError(f"counts over {self.points.size} and {other.points.size} "
                             f"support points do not add")
        if (self.ones is None) != (other.ones is None):
            raise TypeError("labeled and unlabeled counts do not add")
        ones = None if self.ones is None else self.ones + other.ones
        return SampleCounts(self.points + other.points, ones)


class HypothesisClass(Sequence):
    """An enumerable hypothesis class: the sequence of its members.

    A finite class stores a read-only float64 (M, s) `label_matrix` of distinct
    0/1 rows over `support_size` = s points at optional `support_coords`.  A cut
    class, the threshold class projected onto sorted `support_coords`, stores
    only those points and one representative threshold per member in
    `thresholds`, and its `label_matrix` raises TypeError.  Threshold members
    at a grid with no support carry no labels.  The un-projected threshold
    class has neither: `len()`, indexing, `members` and `label_matrix` raise
    TypeError until it is projected.

    `cls[i]` builds member i once and caches it; `members` is the cached list
    of those same objects.
    """

    def __init__(self, label_matrix=None, vc_dim: int = 1, support_coords=None,
                 thresholds=None):
        if vc_dim < 1:
            raise ValueError("vc_dim must be >= 1")
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
        i = range(len(self))[i]
        h = self._built.get(i)
        if h is None:
            h = self._built[i] = self._build(i)
        return h

    def _build(self, i: int) -> Hypothesis:
        """Member i: labels as a tuple of int, threshold as float."""
        if self.thresholds is None:
            return Hypothesis(FINITE, tuple(self.label_matrix[i].astype(np.int8).tolist()))
        t = float(self.thresholds[i])
        if self.support_coords is None:
            return Hypothesis(THRESHOLD, None, t)
        return Hypothesis(THRESHOLD, (1,) * i + (0,) * (self.support_coords.size - i), t)

    @cached_property
    def members(self) -> list[Hypothesis]:
        return list(self)


def _cube_patterns(n: int) -> np.ndarray:
    """All 2^n 0/1 patterns over n points; row i holds the bits of i, lowest first."""
    return (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1


def finite_class(patterns, vc_dim: int | None = None,
                 support_coords=None) -> HypothesisClass:
    """The class whose members are the given 0/1 label patterns, in order."""
    lab = np.asarray(patterns)
    if lab.ndim != 2 or lab.size == 0:
        raise ValueError("finite class needs non-empty label patterns of one length")
    if not ((lab == 0) | (lab == 1)).all():
        raise ValueError("label patterns must hold only 0 and 1")
    # one bytes key per row: np.unique on packed rows is far cheaper than axis=0
    packed = np.packbits(lab.astype(bool), axis=1)
    if np.unique(packed.view(np.dtype((np.void, packed.shape[1])))).size < len(lab):
        raise ValueError("duplicate label pattern in enumeration")
    m, size = lab.shape
    if vc_dim is None:
        # a full enumeration over s points shatters all of them
        vc_dim = size if m == 2 ** size else max(1, int(np.log2(m)))
    coords = None if support_coords is None else np.asarray(support_coords, dtype=np.float64)
    return HypothesisClass(lab, vc_dim, coords)


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
    class projects to itself.
    """
    if cls.kind == FINITE:
        return cls
    pts = np.unique(np.asarray(points, dtype=np.float64))
    if pts.size == 0:
        raise ValueError("cannot project onto an empty point set")
    return _cut_class(pts)


def project_onto_support(cls: HypothesisClass, support) -> HypothesisClass:
    """The class over a joint's support: a finite class unchanged, the
    threshold class projected.  Projection sorts and merges the points, while
    the joint's mass and eta keep the order of `support`, so the threshold
    class needs a strictly increasing support; any other raises ValueError."""
    if cls.kind == FINITE:
        return cls
    bad = np.flatnonzero(~(np.diff(support) > 0))
    if bad.size:
        i = bad[0] + 1
        raise ValueError(f"support must be strictly increasing to project the threshold "
                         f"class onto it; support[{i}] is {support[i]} after {support[i - 1]}")
    return project_class(cls, support)


def _cut_class(pts: np.ndarray) -> HypothesisClass:
    """The cut class over sorted distinct points, each cut realized by a
    representative threshold: one below all points, midpoints between
    neighbors, one above all points."""
    n = pts.size
    reps = np.empty(n + 1)
    reps[0] = pts[0] - 1.0
    reps[1:n] = 0.5 * (pts[:-1] + pts[1:])
    reps[n] = pts[-1] + 1.0
    return HypothesisClass(vc_dim=1, support_coords=pts, thresholds=reps)


def ensure_finite(cls: HypothesisClass, samples):
    """The class in enumerated form, and the samples over its support.

    A finite class and its samples come back unchanged.  The threshold class
    is projected onto the union of all sample points, and the same np.unique
    maps every sample onto support indices, so no point is searched again.
    It reads points as coordinates, so a sample of support indices (counts,
    or a non-empty integer sample) raises TypeError.
    """
    if cls.kind != THRESHOLD:
        return cls, samples
    for s in samples:
        if isinstance(s, SampleCounts) or (len(s) and _indexed(s)):
            raise TypeError("the threshold class reads samples as coordinates, not support "
                            "indices; project it onto the joint's support first "
                            "(project_onto_support or discretize_pair)")
    xs = [np.asarray(s.xs, dtype=np.float64) for s in samples]
    pts, idx = np.unique(np.concatenate(xs), return_inverse=True)
    if pts.size == 0:
        return project_class(cls, [0.0]), samples
    parts = np.split(idx, np.cumsum([x.size for x in xs])[:-1])
    return _cut_class(pts), tuple(replace(s, xs=ix) for s, ix in zip(samples, parts))


def erm(cls: HypothesisClass, sample: LabeledSample) -> Hypothesis:
    """Empirical risk minimizer with deterministic tie-breaking.

    Ties go to the lowest enumeration index; for the threshold class that is
    the smallest representative threshold.  An empty sample gives every member
    risk 0, so it returns the tie-break member.
    """
    cls, (sample,) = ensure_finite(cls, (sample,))
    return cls[int(np.argmin(member_risks(cls, sample)))]


def member_risks(cls: HypothesisClass, sample: LabeledSample) -> np.ndarray:
    """Empirical risk of every member, exactly, as one matrix product."""
    if len(sample) == 0:
        return np.zeros(len(cls))
    n0, n1 = _label_counts(cls, sample)
    n = len(sample)
    return (_matvec(cls, n0 - n1) + n1.sum()) / n


def member_disagreements(cls: HypothesisClass, ref: int, sample) -> np.ndarray:
    """Empirical disagreement of every member with member `ref` on the sample points."""
    ref_lab = _row(cls, ref)
    if len(sample) == 0:
        return np.zeros(len(cls))
    counts = _point_counts(cls, sample)
    n = counts.sum()
    # 1[h != ref] = h + ref - 2 h ref; counts are integers, so folding the
    # reference into the weight vector keeps every sum exact
    return (_matvec(cls, counts * (1.0 - 2.0 * ref_lab)) + np.dot(ref_lab, counts)) / n


def weighted_member_risks(cls: HypothesisClass, sample: LabeledSample,
                          f: np.ndarray) -> np.ndarray:
    """(1/n) sum of f(x) over each member's mislabeled sample points: row sums
    (prefix sums for cuts), not a blocked matrix product; 0 on an empty sample."""
    if len(sample) == 0:
        return np.zeros(len(cls))
    f = _support_weights(f, sample)
    n0, n1 = _label_counts(cls, sample)
    w = f * (n0 - n1)
    own = ((cls.label_matrix * w).sum(axis=1) if cls.thresholds is None
           else np.concatenate(([0.0], np.cumsum(w))))
    return (own + np.dot(f, n1)) / len(sample)


def _f2_disagreements(cls: HypothesisClass, ref: int, sample: LabeledSample,
                      f: np.ndarray) -> np.ndarray:
    """(1/n) sum of f(x)^2 over the sample points where each member and member
    `ref` disagree (for cuts: the points between them), a masked sum: never < 0."""
    w2 = np.square(f) * _point_counts(cls, sample)
    if cls.thresholds is None:
        dis = np.where(cls.label_matrix != cls.label_matrix[ref], w2, 0.0).sum(axis=1)
    else:
        dis = np.concatenate((np.cumsum(w2[:ref][::-1])[::-1], [0.0], np.cumsum(w2[ref:])))
    return dis / len(sample)


def _support_weights(f, sample) -> np.ndarray:
    if not _indexed(sample):
        raise TypeError("weighted operations need index samples over the support")
    return np.asarray(f, dtype=np.float64)


def _indexed(sample) -> bool:
    """True for a sample over a support: counts, or integer support indices."""
    return isinstance(sample, SampleCounts) or np.issubdtype(sample.xs.dtype, np.integer)


def _matvec(cls: HypothesisClass, w: np.ndarray) -> np.ndarray:
    """Each member's labels dotted with the support weights w: one BLAS
    product for a finite class, prefix sums for a cut class (cut i sums the
    first i weights), which on integer w equal the matrix product bit for bit."""
    if cls.thresholds is None:
        return cls.label_matrix @ w
    return np.concatenate(([0.0], np.cumsum(w)))


def _row(cls: HypothesisClass, i: int) -> np.ndarray:
    """Labels of member i over the support, as floats; indexed like `cls[i]`."""
    if cls.thresholds is None:
        return cls.label_matrix[i]
    return (np.arange(cls.support_size) < range(len(cls))[i]).astype(np.float64)


def _sample_indices(cls: HypothesisClass, xs: np.ndarray) -> np.ndarray:
    if np.issubdtype(xs.dtype, np.integer):
        return xs.astype(np.int64, copy=False)
    if cls.support_coords is None:
        raise TypeError("float-coordinate sample over a class without coordinates")
    idx = np.searchsorted(cls.support_coords, xs)
    idx = np.clip(idx, 0, cls.support_coords.size - 1)
    if not np.array_equal(cls.support_coords[idx], xs):
        raise ValueError("sample contains points outside the projected support")
    return idx


def tally(cls: HypothesisClass, sample):
    """The sample as the kernels should keep it: a sample of support indices
    over a class with a support becomes its `SampleCounts`, binned here once;
    any other sample comes back as it is."""
    if cls.kind == THRESHOLD or isinstance(sample, SampleCounts) or not _indexed(sample):
        return sample
    if not hasattr(sample, "ys"):
        return SampleCounts(_bin(cls, sample, labels=False))
    counts = _bin(cls, sample, labels=True)
    return SampleCounts(counts[0::2] + counts[1::2], counts[1::2])


def _bin(cls: HypothesisClass, sample, labels: bool) -> np.ndarray:
    """One bincount of a point sample over the support: with labels, slot 2i
    counts (i, 0) and slot 2i + 1 counts (i, 1); without, slot i counts i."""
    idx = _sample_indices(cls, sample.xs)
    if labels:
        return np.bincount(2 * idx + sample.ys, minlength=2 * cls.support_size)
    return np.bincount(idx, minlength=cls.support_size)


def _on_support(cls: HypothesisClass, counts: SampleCounts) -> SampleCounts:
    if counts.points.size != cls.support_size:
        raise ValueError(f"counts over {counts.points.size} support points for a class "
                         f"over {cls.support_size}")
    return counts


def _label_counts(cls: HypothesisClass, sample):
    """Per-support counts of label 0 and of label 1, as floats."""
    if not isinstance(sample, SampleCounts):
        counts = _bin(cls, sample, labels=True)
        return counts[0::2].astype(np.float64), counts[1::2].astype(np.float64)
    c = _on_support(cls, sample)
    if c.ones is None:
        raise TypeError("label counts need a labeled sample")
    return (c.points - c.ones).astype(np.float64), c.ones.astype(np.float64)


def _point_counts(cls: HypothesisClass, sample) -> np.ndarray:
    if not isinstance(sample, SampleCounts):
        return _bin(cls, sample, labels=False).astype(np.float64)
    return _on_support(cls, sample).points.astype(np.float64)
