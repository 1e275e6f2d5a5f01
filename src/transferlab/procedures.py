"""Constrained transfer ERM procedures and their confidence widths.

The procedures minimize empirical risk on one sample subject to near
optimality on the other, with the constraint radius driven by the usual
VC-type width A(n) = (d/n) log(max{n, d}/d) + (1/n) log(1/delta).  All
optimizations are exact over the (projected) finite class; ties break to the
lowest enumeration index, so every procedure is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .hypotheses import (
    Hypothesis,
    HypothesisClass,
    LabeledSample,
    SampleCounts,
    _disagreements,
    _f2_disagreements,
    _labeled,
    _risks,
    _weights,
    ensure_finite,
    member_risks,
    weighted_member_risks,
)


@dataclass(frozen=True)
class ConfidenceParams:
    """Universal constant c and confidence level delta for the width bounds.

    The constant is not pinned by theory; 1.0 is the package-wide default and
    rate checks use slopes, which do not depend on it.
    """

    c: float = 1.0
    delta: float = 0.05

    def __post_init__(self):
        if not 0 < self.c < math.inf:
            raise ValueError(f"c must be positive and finite, got {self.c}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    def scaled(self, m: int) -> "ConfidenceParams":
        """Union-bound copy with delta split over m events."""
        return replace(self, delta=self.delta / m)


def _width(n: int, vc_dim: int, tail: float) -> float:
    """(d/n) log(max{n, d}/d) + (1/n) log(tail); +inf at n = 0.  Needs d >= 1."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if not vc_dim >= 1:
        raise ValueError(f"capacity d must be >= 1, got {vc_dim}")
    if n == 0:
        return math.inf
    return (vc_dim / n) * math.log(max(n, vc_dim) / vc_dim) + (1.0 / n) * math.log(tail)


def confidence_width(n: int, vc_dim: int, delta: float) -> float:
    """(d/n) log(max{n, d}/d) + (1/n) log(1/delta); +inf at n = 0."""
    return _width(n, vc_dim, 1.0 / delta)


def confidence_width_anytime(n: int, vc_dim: int, delta: float) -> float:
    """Width valid simultaneously over all sample sizes: log(2 n^2 / delta) tail."""
    return _width(n, vc_dim, 2.0 * n * n / delta)


def near_optimal_mask(cls: HypothesisClass, sample: LabeledSample,
                      conf: ConfidenceParams) -> np.ndarray:
    """Members near-optimal on the sample (`_near_optimal`) at its confidence width."""
    width = confidence_width(len(sample), cls.vc_dim, conf.delta)
    return _near_optimal(cls, _labeled(cls, sample), conf, width)[0]


def _near_optimal(cls: HypothesisClass, c: SampleCounts, conf: ConfidenceParams,
                  width: float, f=None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The near-optimal set {h : R(h) - R(erm) <= c*sqrt(dis(h, erm)*A) + c*A}
    at width A as a mask, the anchor erm's index (lowest on ties) and dis,
    from one risk pass: an (M,) mask and dis for a sample, (M, T) ones with
    one anchor per column for a batch of T samples, element by element.  The
    sample comes as counts already checked by `_labeled`, and is read as it is.

    With per-support weights f, R is f-weighted, dis f^2-weighted and the last
    term c*max(f)*A: the reweighted constraint.  A radius past the float range
    saturates to +inf.  An infinite A (the width of an empty sample, or of a
    subnormal delta) admits every member, since c*sqrt(0*A) would be NaN.
    """
    if f is None:
        risks, sup = _risks(cls, c), 1.0
    else:
        f = _weights(cls, f)
        risks, sup = weighted_member_risks(cls, c, f), float(np.max(f))
    best = risks.argmin(axis=0)
    dis = _disagreements(cls, best, c) if f is None else _f2_disagreements(cls, best, c, f)
    radius = math.inf
    if math.isfinite(width):  # dis <= max(f)^2: the radius overflows only if this bound does
        if math.isfinite(conf.c * sup * (2.0 * math.sqrt(width) + width)):
            radius = _radius(dis, width, conf.c, sup)
        else:
            with np.errstate(over="ignore"):
                radius = _radius(dis, width, conf.c, sup)
    return (risks - risks.min(axis=0)) <= radius, best, dis


def _radius(dis: np.ndarray, width: float, c: float, sup: float) -> np.ndarray:
    """c*sqrt(dis*A) + c*max(f)*A, element by element."""
    return c * np.sqrt(dis * width) + c * sup * width


def _delta_hat(cls: HypothesisClass, sample: SampleCounts, probe: SampleCounts,
               conf: ConfidenceParams, width: float, f=None) -> tuple[float, int]:
    """delta-hat and the anchor's index: the largest probe disagreement with
    the anchor over the set (`_near_optimal`); a probe that is the sample
    reuses the set's plain dis.  Both come as counts already checked, the
    sample by `_labeled` and the probe by `_counts`."""
    mask, anchor, dis = _near_optimal(cls, sample, conf, width, f)
    if probe is not sample or f is not None:
        dis = _disagreements(cls, anchor, probe)
    return float(dis[mask].max()), int(anchor)


def _feasible_argmin(feasible: np.ndarray, risks: np.ndarray) -> np.ndarray:
    """Per column, the lowest-index member of least risk among the feasible
    ones; the anchor of a near-optimal set is always feasible."""
    return np.argmin(np.where(feasible, risks, np.inf), axis=0)


def _transfer_choice(cls: HypothesisClass, sample_p, sample_q,
                     conf: ConfidenceParams) -> np.ndarray:
    """Transfer ERM's index, one per column of a batch: the least source
    risk among the target-near-optimal members (`_feasible_argmin`)."""
    return _feasible_argmin(near_optimal_mask(cls, sample_q, conf), member_risks(cls, sample_p))


def _selector_choice(cls: HypothesisClass, sample_p, sample_q,
                     conf: ConfidenceParams) -> np.ndarray:
    """The selector's index, one per column of a batch: the source ERM
    (lowest index) if it is target-near-optimal, else the target ERM anchor."""
    width = confidence_width(len(sample_q), cls.vc_dim, conf.delta)
    feasible, erm_q, _ = _near_optimal(cls, _labeled(cls, sample_q), conf, width)
    erm_p = np.argmin(member_risks(cls, sample_p), axis=0)
    keep = np.take_along_axis(feasible, np.expand_dims(erm_p, 0), 0)[0]
    return np.where(keep, erm_p, erm_q)


def transfer_erm(sample_p: LabeledSample, sample_q: LabeledSample,
                 cls: HypothesisClass, conf: ConfidenceParams = ConfidenceParams()) -> Hypothesis:
    """Minimize source empirical risk among target-near-optimal hypotheses.

    The target ERM is always feasible, so the program is never infeasible; with
    no target data the constraint is vacuous and this is plain source ERM.
    """
    cls, (sample_p, sample_q) = ensure_finite(cls, (sample_p, sample_q))
    return cls[int(_transfer_choice(cls, sample_p, sample_q, conf))]


def reverse_transfer_erm(sample_p: LabeledSample, sample_q: LabeledSample,
                         cls: HypothesisClass,
                         conf: ConfidenceParams = ConfidenceParams()) -> Hypothesis:
    """Mirror procedure: minimize target risk among source-near-optimal hypotheses."""
    return transfer_erm(sample_q, sample_p, cls, conf)


def select_source_or_target(sample_p: LabeledSample, sample_q: LabeledSample,
                            cls: HypothesisClass,
                            conf: ConfidenceParams = ConfidenceParams()) -> Hypothesis:
    """Return the source ERM if it is target-near-optimal, else the target ERM.

    Unlike the constrained programs this degrades gracefully when the source
    optimum is genuinely worse on the target: the additive penalty is then the
    target excess of the source optimum.
    """
    cls, (sample_p, sample_q) = ensure_finite(cls, (sample_p, sample_q))
    return cls[int(_selector_choice(cls, sample_p, sample_q, conf))]
