"""Reweighting the source sample and choosing among multiple sources.

Density families are finite lists of per-point weight vectors over a discrete
support (unnormalized densities with respect to the source marginal).  The f^2
weighting in the disagreement terms reflects that these act as variance
weights in the underlying concentration bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .adaptive import delta_hat
from .hypotheses import (
    Hypothesis,
    HypothesisClass,
    LabeledSample,
    ensure_finite,
    member_risks,
)
from .procedures import (
    ConfidenceParams,
    confidence_width,
    confidence_width_weighted,
    near_optimal_mask,
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


def _weights_on_sample(f: np.ndarray, sample: LabeledSample) -> np.ndarray:
    xs = np.asarray(sample.xs)
    if not np.issubdtype(xs.dtype, np.integer):
        raise TypeError("weighted operations need index samples over the support")
    return f[xs]


def weighted_risk(sample: LabeledSample, f: np.ndarray, h: Hypothesis) -> float:
    """(1/n) sum of f(x) over mislabeled sample points; 0 on an empty sample."""
    if len(sample) == 0:
        return 0.0
    mis = (h.predict(sample.xs) != sample.ys).astype(np.float64)
    return float(np.dot(_weights_on_sample(np.asarray(f, dtype=np.float64), sample), mis)) / len(sample)


def weighted_disagreement_f2(sample, f: np.ndarray, h: Hypothesis, h2: Hypothesis) -> float:
    """(1/n) sum of f(x)^2 over points where the two hypotheses disagree."""
    if len(sample) == 0:
        return 0.0
    f = np.asarray(f, dtype=np.float64)
    dis = (h.predict(sample.xs) != h2.predict(sample.xs)).astype(np.float64)
    return float(np.dot(_weights_on_sample(f, sample) ** 2, dis)) / len(sample)


def weighted_member_risks(cls: HypothesisClass, sample: LabeledSample,
                          f: np.ndarray) -> np.ndarray:
    # one dot product per member: real-valued weights make blocked matmul
    # summation order visible, and exact ties must break by member index
    if len(sample) == 0:
        return np.zeros(len(cls))
    f = np.asarray(f, dtype=np.float64)
    xs = np.asarray(sample.xs)
    w = _weights_on_sample(f, sample)
    mis = (cls.label_matrix[:, xs] != sample.ys[None, :]).astype(np.float64, order="C")
    n = len(sample)
    return np.array([np.dot(row, w) for row in mis]) / n


def weighted_erm(cls: HypothesisClass, sample: LabeledSample, f: np.ndarray) -> int:
    """Index of the weighted empirical risk minimizer (lowest index on ties)."""
    return int(np.argmin(weighted_member_risks(cls, sample, f)))


def weighted_excess(sample: LabeledSample, f: np.ndarray, h: Hypothesis,
                    cls: HypothesisClass) -> float:
    """Weighted risk of h above the weighted ERM's weighted risk."""
    risks = weighted_member_risks(cls, sample, f)
    return weighted_risk(sample, f, h) - float(risks[int(np.argmin(risks))])


def _weighted_feasible(cls: HypothesisClass, sample: LabeledSample, f: np.ndarray,
                       conf: ConfidenceParams, pdim: int):
    """Feasibility mask of the reweighted near-optimality constraint plus the
    anchor (weighted ERM) index."""
    f = np.asarray(f, dtype=np.float64)
    m = len(cls)
    width = confidence_width_weighted(len(sample), cls.vc_dim, pdim, conf.delta)
    if len(sample) == 0 or math.isinf(width):
        return np.ones(m, dtype=bool), 0
    risks = weighted_member_risks(cls, sample, f)
    anchor = int(np.argmin(risks))
    xs = np.asarray(sample.xs)
    w2 = f[xs] ** 2
    dis = (cls.label_matrix[:, xs]
           != cls.label_matrix[anchor][xs][None, :]).astype(np.float64, order="C")
    dis_f2 = np.array([np.dot(row, w2) for row in dis]) / len(sample)
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
    mask, anchor = _weighted_feasible(cls, sample_p, np.asarray(f, dtype=np.float64),
                                      conf, pdim)
    if len(probe) == 0:
        return 0.0
    xs = np.asarray(probe.xs)
    dis = np.mean(cls.label_matrix[:, xs] != cls.label_matrix[anchor][xs][None, :],
                  axis=1)
    return float(np.max(dis[mask]))


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
    cls, (*sources, sample_q, unlabeled) = ensure_finite(cls, (*sources, sample_q, unlabeled))
    scaled = conf.scaled(len(sources))
    radii = [delta_hat(s, unlabeled, cls, scaled) for s in sources]
    i_hat = int(np.argmin(radii))
    chosen = sources[i_hat]
    width = confidence_width(len(chosen), cls.vc_dim, scaled.delta)
    mask = near_optimal_mask(cls, chosen, scaled, width=width)
    risks_q = member_risks(cls, sample_q)
    idx = np.flatnonzero(mask)
    return cls[int(idx[np.argmin(risks_q[idx])])], i_hat
