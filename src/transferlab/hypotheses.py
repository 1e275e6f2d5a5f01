"""Hypothesis classes, empirical risks, and exact ERM.

A class is the sequence of its members, evaluated as a 0/1 label matrix of
shape (M, s) over s support points.  A finite class stores that matrix.
Projecting the one-sided threshold class (label 1 iff x <= t) onto a point set
gives a cut class: the sorted points plus n+1 representative thresholds, where
cut i labels the i smallest points 1.  Its risks and disagreements are prefix
sums over the points, and its matrix is built only for callers that need one.

`ensure_finite` projects the threshold class onto the union of a procedure's
samples and maps every sample onto support indices in the same pass.  The
kernels take members by index: a disagreement's reference member is a row
number, and its labels are read from the class.  Members are built one at a
time only when indexed (`cls[i]`) and cached, so a procedure returns the same
`Hypothesis` object as `cls.members[i]`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

FINITE = "finite-enumerated"
THRESHOLD = "one-sided-threshold"


@dataclass(frozen=True)
class Hypothesis:
    """A classifier: either a label pattern over a finite support or a threshold.

    Threshold form labels 1 on x <= threshold.  A projected threshold member
    carries both its representative threshold and the labels it induces.
    """

    kind: str
    labels: tuple[int, ...] | None = None
    threshold: float | None = None

    def predict(self, xs: np.ndarray) -> np.ndarray:
        xs = np.asarray(xs)
        if self.kind == THRESHOLD and self.labels is None:
            return (xs <= self.threshold).astype(np.int8)
        if np.issubdtype(xs.dtype, np.integer):
            return np.asarray(self.labels, dtype=np.int8)[xs]
        if self.threshold is not None:
            return (xs <= self.threshold).astype(np.int8)
        raise TypeError("finite hypothesis cannot label raw coordinates")

    def __call__(self, xs):
        return self.predict(xs)


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
    """

    xs: np.ndarray
    ys: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "xs", np.atleast_1d(np.asarray(self.xs)))
        object.__setattr__(self, "ys", np.atleast_1d(np.asarray(self.ys, dtype=np.int8)))
        if self.xs.shape != self.ys.shape:
            raise ValueError("xs and ys must have equal length")

    def __len__(self) -> int:
        return int(self.xs.size)


@dataclass(frozen=True)
class UnlabeledSample:
    xs: np.ndarray
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "xs", np.atleast_1d(np.asarray(self.xs)))

    def __len__(self) -> int:
        return int(self.xs.size)


class HypothesisClass(Sequence):
    """An enumerable hypothesis class: the sequence of its members.

    A finite class stores a read-only float64 (M, s) `label_matrix` of distinct
    0/1 rows over `support_size` = s points at optional `support_coords`.  A cut
    class, the threshold class projected onto sorted `support_coords`, stores
    only those points and one representative threshold per member in
    `thresholds`; its `label_matrix` is built on first access.  Threshold
    members at a grid with no support carry no labels.  The un-projected
    threshold class has neither: `len()`, indexing, `members` and
    `label_matrix` raise TypeError until it is projected.

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
            n = self.support_coords.size
            # row i labels the i smallest points 1
            self._label_matrix = np.tri(n + 1, n, -1)
            self._label_matrix.setflags(write=False)
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
    """
    if cls.kind != THRESHOLD:
        return cls, samples
    xs = [np.asarray(s.xs, dtype=np.float64) for s in samples]
    pts, idx = np.unique(np.concatenate(xs), return_inverse=True)
    if pts.size == 0:
        return project_class(cls, [0.0]), samples
    parts = np.split(idx, np.cumsum([x.size for x in xs])[:-1])
    return _cut_class(pts), tuple(replace(s, xs=ix) for s, ix in zip(samples, parts))


def empirical_risk(h: Hypothesis, sample: LabeledSample) -> float:
    """Fraction of sample pairs (x, y) with h(x) != y; 0 on an empty sample."""
    if len(sample) == 0:
        return 0.0
    return float(np.mean(h.predict(sample.xs) != sample.ys))


def empirical_disagreement(h: Hypothesis, h2: Hypothesis, sample) -> float:
    """Fraction of sample points where the two hypotheses disagree."""
    if len(sample) == 0:
        return 0.0
    return float(np.mean(h.predict(sample.xs) != h2.predict(sample.xs)))


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


def _matvec(cls: HypothesisClass, w: np.ndarray) -> np.ndarray:
    """label_matrix @ w for an integer-valued w.

    Cut i sums the first i entries of w, so a cut class takes prefix sums; every
    partial sum of integers is exact, so both forms agree bit for bit.
    """
    if cls.thresholds is None:
        return cls.label_matrix @ w
    return np.concatenate(([0.0], np.cumsum(w)))


def _row(cls: HypothesisClass, i: int) -> np.ndarray:
    """Labels of member i over the support, as floats; indexed like `cls[i]`."""
    i = range(len(cls))[i]
    if cls.thresholds is None:
        return cls.label_matrix[i]
    return (np.arange(cls.support_size) < i).astype(np.float64)


def _sample_indices(cls: HypothesisClass, xs: np.ndarray) -> np.ndarray:
    if np.issubdtype(xs.dtype, np.integer):
        return xs.astype(np.int64)
    if cls.support_coords is None:
        raise TypeError("float-coordinate sample over a class without coordinates")
    idx = np.searchsorted(cls.support_coords, xs)
    idx = np.clip(idx, 0, cls.support_coords.size - 1)
    if not np.array_equal(cls.support_coords[idx], xs):
        raise ValueError("sample contains points outside the projected support")
    return idx


def _label_counts(cls: HypothesisClass, sample: LabeledSample):
    idx = _sample_indices(cls, sample.xs)
    s = cls.support_size
    n1 = np.bincount(idx[sample.ys == 1], minlength=s).astype(np.float64)
    n0 = np.bincount(idx[sample.ys == 0], minlength=s).astype(np.float64)
    return n0, n1


def _point_counts(cls: HypothesisClass, sample) -> np.ndarray:
    idx = _sample_indices(cls, sample.xs)
    return np.bincount(idx, minlength=cls.support_size).astype(np.float64)
