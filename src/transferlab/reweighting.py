"""Reweighting the source sample and choosing among multiple sources.

Density families are finite lists of per-point weight vectors over a discrete
support (unnormalized densities with respect to the source marginal).  The f^2
weighting in the disagreement terms reflects that these act as variance
weights in the underlying concentration bounds.  Members are evaluated only
by the class kernels of `hypotheses` (`weighted_member_risks` and the f^2
disagreements), which weigh per-support counts and sum each member's own
terms in support order, so members that lose the same weight at every
support point tie bit for bit.  A returned member is a record.  The choosers
bin each sample once (`hypotheses.tally`) and evaluate every candidate
density or source on those counts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import delta_hat
from .hypotheses import (
    HypothesisClass,
    LabeledSample,
    _f2_disagreements,
    ensure_finite,
    member_disagreements,
    member_risks,
    tally,
    weighted_member_risks,
)
from .procedures import (
    ConfidenceParams,
    confidence_width_weighted,
    reverse_transfer_erm,
)


@dataclass
class DensityFamily:
    """Finite family of nonnegative per-point weight vectors over a support.

    pseudo_dim is caller-declared capacity; for a finite family the default
    proxy is ceil(log2 of the family size).
    """

    weights: list[np.ndarray]
    pseudo_dim: int | None = None

    def __post_init__(self):
        self.weights = [np.asarray(w, dtype=np.float64) for w in self.weights]
        if not self.weights:
            raise ValueError("density family must be non-empty")
        size = self.weights[0].size
        for w in self.weights:
            if w.size != size:
                raise ValueError("weight vectors must share the support")
            if (w < 0).any():
                raise ValueError("densities must be nonnegative")
        if self.pseudo_dim is None:
            self.pseudo_dim = max(1, math.ceil(math.log2(max(2, len(self.weights)))))

    def __len__(self) -> int:
        return len(self.weights)


def weighted_erm(cls: HypothesisClass, sample: LabeledSample, f: np.ndarray) -> int:
    """Index of the weighted empirical risk minimizer (lowest index on ties)."""
    return int(np.argmin(weighted_member_risks(cls, sample, f)))


def _weighted_feasible(cls: HypothesisClass, sample: LabeledSample, f: np.ndarray,
                       conf: ConfidenceParams, pdim: int):
    """Feasibility mask of the reweighted near-optimality constraint plus the
    anchor (weighted ERM) index."""
    width = confidence_width_weighted(len(sample), cls.vc_dim, pdim, conf.delta)
    if len(sample) == 0 or math.isinf(width):
        return np.ones(len(cls), dtype=bool), 0
    risks = weighted_member_risks(cls, sample, f)
    anchor = int(np.argmin(risks))
    dis_f2 = _f2_disagreements(cls, anchor, sample, f)
    radius = conf.c * np.sqrt(dis_f2 * width) + conf.c * float(np.max(f)) * width
    return (risks - risks[anchor]) <= radius, anchor


def delta_hat_weighted(sample_p: LabeledSample, f: np.ndarray, probe,
                       cls: HypothesisClass, conf: ConfidenceParams,
                       pdim: int) -> float:
    """Largest probe disagreement with the weighted ERM among hypotheses
    passing the f-weighted near-optimality constraint."""
    # weighted operations keep the caller's samples: weights are indexed by
    # support point, never by position in the projected union
    cls, _ = ensure_finite(cls, (sample_p, probe))
    mask, anchor = _weighted_feasible(cls, sample_p, f, conf, pdim)
    if len(probe) == 0:
        return 0.0
    return float(np.max(member_disagreements(cls, anchor, probe)[mask]))


def reweighted_transfer_erm(sample_p: LabeledSample, sample_q: LabeledSample,
                            unlabeled, family: DensityFamily,
                            cls: HypothesisClass,
                            conf: ConfidenceParams = ConfidenceParams()):
    """Pick the density minimizing the weighted disagreement radius, then
    minimize target empirical risk under that density's source constraint.

    Returns (hypothesis, chosen density index); ties in the density choice
    break by family order.
    """
    cls, (_, sample_q, _) = ensure_finite(cls, (sample_p, sample_q, unlabeled))
    sample_p, unlabeled = tally(cls, sample_p), tally(cls, unlabeled)
    radii = [delta_hat_weighted(sample_p, f, unlabeled, cls, conf, family.pseudo_dim)
             for f in family.weights]
    f_ix = int(np.argmin(radii))
    f = family.weights[f_ix]
    mask, _ = _weighted_feasible(cls, sample_p, f, conf, family.pseudo_dim)
    risks_q = member_risks(cls, sample_q)
    idx = np.flatnonzero(mask)
    return cls[int(idx[np.argmin(risks_q[idx])])], f_ix


def multi_source_transfer_erm(sources: list[LabeledSample], sample_q: LabeledSample,
                              unlabeled, cls: HypothesisClass,
                              conf: ConfidenceParams = ConfidenceParams()):
    """Pick the source with the smallest disagreement radius against the
    unlabeled pool, then minimize target risk under that source's constraint.

    All widths take delta split across the sources (union bound).  Returns
    (hypothesis, chosen source index).
    """
    if not sources:
        raise ValueError("need at least one source sample")
    cls, samples = ensure_finite(cls, (*sources, sample_q, unlabeled))
    *sources, sample_q, unlabeled = (tally(cls, s) for s in samples)
    scaled = conf.scaled(len(sources))
    radii = [delta_hat(s, unlabeled, cls, scaled) for s in sources]
    i_hat = int(np.argmin(radii))
    return reverse_transfer_erm(sources[i_hat], sample_q, cls, scaled), i_hat
