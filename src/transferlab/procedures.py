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
    ensure_finite,
    member_disagreements,
    member_risks,
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
        if self.c <= 0:
            raise ValueError("c must be positive")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")

    def scaled(self, m: int) -> "ConfidenceParams":
        """Union-bound copy with delta split over m events."""
        return replace(self, delta=self.delta / m)


def _width(n: int, vc_dim: int, tail: float) -> float:
    """(d/n) log(max{n, d}/d) + (1/n) log(tail); +inf at n = 0."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return math.inf
    return (vc_dim / n) * math.log(max(n, vc_dim) / vc_dim) + (1.0 / n) * math.log(tail)


def confidence_width(n: int, vc_dim: int, delta: float) -> float:
    """(d/n) log(max{n, d}/d) + (1/n) log(1/delta); +inf at n = 0."""
    return _width(n, vc_dim, 1.0 / delta)


def confidence_width_anytime(n: int, vc_dim: int, delta: float) -> float:
    """Width valid simultaneously over all sample sizes: log(2 n^2 / delta) tail."""
    return _width(n, vc_dim, 2.0 * n * n / delta)


def confidence_width_weighted(n: int, vc_dim: int, pdim: int, delta: float) -> float:
    """Width with the density family's capacity added to the class dimension."""
    return confidence_width(n, vc_dim + pdim, delta)


def near_optimal_mask(cls: HypothesisClass, sample: LabeledSample,
                      conf: ConfidenceParams) -> np.ndarray:
    """Members whose empirical risk is within the adaptive radius of the ERM.

    The radius for member h is c*sqrt(dis(h, erm) * A) + c*A with A the
    confidence width of the sample; an empty sample (A infinite) makes every
    member feasible.
    """
    width = confidence_width(len(sample), cls.vc_dim, conf.delta)
    return _near_optimal(cls, sample, conf, width)[0]


def _near_optimal(cls: HypothesisClass, sample: LabeledSample, conf: ConfidenceParams,
                  width: float) -> tuple[np.ndarray, int, np.ndarray | None]:
    """`near_optimal_mask`, the anchor (ERM) index and every member's
    disagreement with the anchor on the sample, from one `member_risks`.

    Where every member is feasible without a pass (an empty sample, the only
    sample whose width is infinite), the anchor is 0, that sample's ERM, and
    the disagreements are None.
    """
    m = len(cls)
    if len(sample) == 0 or math.isinf(width):
        return np.ones(m, dtype=bool), 0, None
    risks = member_risks(cls, sample)
    best = int(np.argmin(risks))
    dis = member_disagreements(cls, best, sample)
    radius = conf.c * np.sqrt(dis * width) + conf.c * width
    return (risks - risks[best]) <= radius, best, dis


def transfer_erm(sample_p: LabeledSample, sample_q: LabeledSample,
                 cls: HypothesisClass, conf: ConfidenceParams = ConfidenceParams()) -> Hypothesis:
    """Minimize source empirical risk among target-near-optimal hypotheses.

    The target ERM is always feasible, so the program is never infeasible; with
    no target data the constraint is vacuous and this is plain source ERM.
    """
    cls, (sample_p, sample_q) = ensure_finite(cls, (sample_p, sample_q))
    feasible = near_optimal_mask(cls, sample_q, conf)
    risks_p = member_risks(cls, sample_p)
    idx = np.flatnonzero(feasible)
    return cls[int(idx[np.argmin(risks_p[idx])])]


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
    feasible = near_optimal_mask(cls, sample_q, conf)
    risks_p = member_risks(cls, sample_p)
    erm_p = int(np.argmin(risks_p))
    if feasible[erm_p]:
        return cls[erm_p]
    risks_q = member_risks(cls, sample_q)
    return cls[int(np.argmin(risks_q))]
