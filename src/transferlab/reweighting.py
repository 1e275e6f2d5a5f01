"""Reweighting the source sample and choosing among multiple sources.

Density families are finite lists of per-point weight vectors over a discrete
support (unnormalized densities with respect to the source marginal).  A
density f enters as the weights of the near-optimal set
(`procedures._near_optimal`), whose f^2-weighted disagreements reflect that f
acts as a variance weight in the underlying concentration bounds.  The
choosers take each sample's counts from `ensure_finite` once for every
candidate density or source.  Weights are per support point, so the weighted
entry points refuse the raw threshold class.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import delta_hat
from .hypotheses import (
    THRESHOLD,
    HypothesisClass,
    LabeledSample,
    _MAX_WEIGHT,
    _count,
    _counts,
    _labeled,
    ensure_finite,
    member_risks,
    weighted_member_risks,
)
from .procedures import (
    ConfidenceParams,
    _delta_hat,
    _feasible_argmin,
    _near_optimal,
    confidence_width,
    reverse_transfer_erm,
)


@dataclass
class DensityFamily:
    """Finite family of per-point weight vectors in [0, 2^485] over a support.

    pseudo_dim is caller-declared capacity, >= 0; for a finite family the default
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
            if not ((w >= 0) & (w <= _MAX_WEIGHT)).all():
                raise ValueError("densities must be finite and nonnegative, at most 2^485")
        if self.pseudo_dim is None:
            self.pseudo_dim = max(1, math.ceil(math.log2(max(2, len(self.weights)))))
        self.pseudo_dim = _count("pseudo_dim", self.pseudo_dim)

    def __len__(self) -> int:
        return len(self.weights)


def weighted_erm(cls: HypothesisClass, sample: LabeledSample, f: np.ndarray) -> int:
    """Index of the weighted empirical risk minimizer (lowest index on ties)."""
    _refuse_raw_threshold(cls)
    return int(np.argmin(weighted_member_risks(cls, sample, f)))


def _refuse_raw_threshold(cls: HypothesisClass) -> None:
    if cls.kind == THRESHOLD:
        raise TypeError("weighted operations need index samples over the support; project "
                        "the threshold class onto the joint's support first")


def delta_hat_weighted(sample_p: LabeledSample, f: np.ndarray, probe,
                       cls: HypothesisClass, conf: ConfidenceParams,
                       pdim: int) -> float:
    """Largest probe disagreement with the weighted ERM among hypotheses
    passing the f-weighted near-optimality constraint."""
    _refuse_raw_threshold(cls)
    cls, (sample_p, probe) = ensure_finite(cls, (sample_p, probe))
    width = confidence_width(len(sample_p), cls.vc_dim + pdim, conf.delta)
    return _delta_hat(cls, _labeled(cls, sample_p), _counts(cls, probe), conf, width, f)[0]


def reweighted_transfer_erm(sample_p: LabeledSample, sample_q: LabeledSample,
                            unlabeled, family: DensityFamily,
                            cls: HypothesisClass,
                            conf: ConfidenceParams = ConfidenceParams()):
    """Pick the density minimizing the weighted disagreement radius, then
    minimize target empirical risk under that density's source constraint.

    Returns (hypothesis, chosen density index); ties in the density choice
    break by family order.
    """
    _refuse_raw_threshold(cls)
    cls, (sample_p, sample_q, unlabeled) = ensure_finite(cls, (sample_p, sample_q, unlabeled))
    radii = [delta_hat_weighted(sample_p, f, unlabeled, cls, conf, family.pseudo_dim)
             for f in family.weights]
    f_ix = int(np.argmin(radii))
    width = confidence_width(len(sample_p), cls.vc_dim + family.pseudo_dim, conf.delta)
    mask = _near_optimal(cls, _labeled(cls, sample_p), conf, width, family.weights[f_ix])[0]
    return cls[int(_feasible_argmin(mask, member_risks(cls, sample_q)))], f_ix


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
    cls, (*sources, sample_q, unlabeled) = ensure_finite(cls, (*sources, sample_q, unlabeled))
    scaled = conf.scaled(len(sources))
    radii = [delta_hat(s, unlabeled, cls, scaled) for s in sources]
    i_hat = int(np.argmin(radii))
    return reverse_transfer_erm(sources[i_hat], sample_q, cls, scaled), i_hat
