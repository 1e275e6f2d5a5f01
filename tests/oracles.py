"""Independent brute-force reimplementations used as test oracles.

Everything here is written as a direct transliteration of the defining
formulas: per-member loops, no label-count aggregation, no shared code with
the package under test beyond the data types.  The exceptions: `tri_class`
hands a cut class's explicit label matrix to the package's finite-class
kernels; `sample_labeled` and `label_counts_two_masks` are the package's
earlier binary-search sampler and two-pass label counts, kept verbatim on the
package's `rng_from` and sample indexing; and `adaptive_loop` is the package's
earlier adaptive loop, which concatenates every batch bought so far and
recounts the whole sample each round, kept verbatim on the package's
`delta_hat`, `erm` and widths.
"""

import math
from fractions import Fraction

import numpy as np

from transferlab.adaptive import Round, SamplingTranscript, delta_hat, unlabeled_requirement
from transferlab.discrepancy import ZERO, ExponentReport
from transferlab.distributions import DiscreteJoint, ThresholdMarginal, rng_from
from transferlab.hypotheses import (
    FINITE,
    THRESHOLD,
    Hypothesis,
    LabeledSample,
    _sample_indices,
    erm,
    finite_class,
)
from transferlab.procedures import confidence_width


def full_cube_members(n):
    """All 2^n patterns, member i holding the bits of i, lowest first."""
    members = []
    for i in range(2 ** n):
        members.append(Hypothesis(FINITE, tuple(int((i >> j) & 1) for j in range(n))))
    return members


def anchored_cube_members(d):
    """All patterns over x_0..x_d with x_0 labeled 1, in full-cube order."""
    return [Hypothesis(FINITE, (1,) + h.labels) for h in full_cube_members(d)]


def projected_members(points):
    """The n+1 threshold members over n distinct points: cut i labels the i
    smallest points 1 and sits below, between or above the points."""
    pts = sorted(set(float(x) for x in points))
    n = len(pts)
    members = []
    for i in range(n + 1):
        if i == 0:
            t = pts[0] - 1.0
        elif i == n:
            t = pts[-1] + 1.0
        else:
            t = 0.5 * (pts[i - 1] + pts[i])
        members.append(Hypothesis(THRESHOLD, tuple(1 if j < i else 0 for j in range(n)), t))
    return members


def ring_members(k):
    """Label patterns of the ring surrogate over k angles on each of two rings:
    half-plane m and its flip, m = 0..k-1, first occurrences in loop order."""
    theta = 2.0 * np.pi * (np.arange(k) + 0.5) / k
    patterns, seen = [], set()
    for m in range(k):
        for orient in (1, -1):
            lab = (orient * np.cos(theta - 2.0 * np.pi * m / k) > 0.0).astype(int)
            pat = tuple(lab.tolist()) * 2
            if pat not in seen:
                seen.add(pat)
                patterns.append(pat)
    return patterns


def predict(member, xs):
    xs = np.asarray(xs)
    if member.labels is not None and (np.issubdtype(xs.dtype, np.integer)):
        return np.asarray(member.labels)[xs]
    return (xs <= member.threshold).astype(int)


def risk(member, sample):
    if len(sample) == 0:
        return 0.0
    return float(np.mean(predict(member, sample.xs) != sample.ys))


def disagreement(a, b, sample):
    if len(sample) == 0:
        return 0.0
    return float(np.mean(predict(a, sample.xs) != predict(b, sample.xs)))


def erm_index(members, sample):
    risks = [risk(m, sample) for m in members]
    return int(np.argmin(risks))


def width_basic(n, d, delta):
    if n == 0:
        return math.inf
    return (d / n) * math.log(max(n, d) / d) + (1.0 / n) * math.log(1.0 / delta)


def width_anytime(n, d, delta):
    if n == 0:
        return math.inf
    return (d / n) * math.log(max(n, d) / d) + (1.0 / n) * math.log(2.0 * n * n / delta)


def width_weighted(n, d, pdim, delta):
    if n == 0:
        return math.inf
    dd = d + pdim
    return (dd / n) * math.log(max(n, dd) / dd) + (1.0 / n) * math.log(1.0 / delta)


def feasible_mask(members, sample, c, delta, vc_dim, width_fn=width_basic):
    m = len(members)
    width = width_fn(len(sample), vc_dim, delta)
    if len(sample) == 0 or math.isinf(width):
        return [True] * m
    risks = [risk(h, sample) for h in members]
    best = int(np.argmin(risks))
    out = []
    for i in range(m):
        dis = disagreement(members[i], members[best], sample)
        out.append(risks[i] - risks[best] <= c * math.sqrt(dis * width) + c * width)
    return out


def transfer_erm_index(members, sample_p, sample_q, c, delta, vc_dim):
    mask = feasible_mask(members, sample_q, c, delta, vc_dim)
    risks_p = [risk(h, sample_p) for h in members]
    best, best_risk = None, math.inf
    for i in range(len(members)):
        if mask[i] and risks_p[i] < best_risk:
            best, best_risk = i, risks_p[i]
    return best


def selector_index(members, sample_p, sample_q, c, delta, vc_dim):
    mask = feasible_mask(members, sample_q, c, delta, vc_dim)
    risks_p = [risk(h, sample_p) for h in members]
    erm_p = int(np.argmin(risks_p))
    if mask[erm_p]:
        return erm_p
    risks_q = [risk(h, sample_q) for h in members]
    return int(np.argmin(risks_q))


def delta_hat_value(members, sample, probe, c, delta, vc_dim):
    mask = feasible_mask(members, sample, c, delta, vc_dim, width_fn=width_anytime)
    anchor = erm_index(members, sample) if len(sample) else 0
    if len(probe) == 0:
        return 0.0
    best = -math.inf
    for i in range(len(members)):
        if mask[i]:
            best = max(best, disagreement(members[i], members[anchor], probe))
    return best


def weighted_risk_value(member, sample, f):
    """(1/n) sum of f(x) over the mislabeled sample points, as an exact Fraction."""
    if len(sample) == 0:
        return Fraction(0)
    mis = predict(member, sample.xs) != sample.ys
    return sum((Fraction(float(f[x])) for x in sample.xs[mis]), Fraction(0)) / len(sample)


def delta_hat_weighted_value(members, sample, f, probe, c, delta, vc_dim, pdim):
    """Weighted delta-hat in exact arithmetic: the weighted risks and f^2
    disagreements are Fractions, the anchor is the lowest index at the exact
    minimum, and each excess is compared exactly with the float radius."""
    f = np.asarray(f, dtype=float)
    width = width_weighted(len(sample), vc_dim, pdim, delta)
    if len(sample) == 0 or math.isinf(width):
        mask = [True] * len(members)
        anchor = 0
    else:
        risks = [weighted_risk_value(h, sample, f) for h in members]
        anchor = risks.index(min(risks))
        mask = []
        sup = float(np.max(f))
        ref = predict(members[anchor], sample.xs)
        for i in range(len(members)):
            dis = predict(members[i], sample.xs) != ref
            dis_f2 = sum((Fraction(float(f[x])) ** 2 for x in sample.xs[dis]),
                         Fraction(0)) / len(sample)
            radius = c * math.sqrt(float(dis_f2) * width) + c * sup * width
            mask.append(risks[i] - risks[anchor] <= Fraction(radius))
    if len(probe) == 0:
        return 0.0
    best = -math.inf
    for i in range(len(members)):
        if mask[i]:
            best = max(best, disagreement(members[i], members[anchor], probe))
    return best


def label_matrix(cls):
    """The class's (M, s) label matrix; for a cut class over s points, the
    (s+1) x s matrix whose row i labels the i smallest points 1."""
    if cls.thresholds is None:
        return cls.label_matrix
    n = cls.support_size
    return np.tri(n + 1, n, -1)


def tri_class(cls):
    """A cut class as the finite class of its label matrix over the same
    points: the matrix path every kernel took before cut classes dropped it."""
    return finite_class(label_matrix(cls), vc_dim=cls.vc_dim,
                        support_coords=cls.support_coords)


def max_exponent_loop(lhs, rhs, constant, members, grid_size):
    """Smallest k with constant*lhs >= rhs^k, one member at a time."""
    scaled = constant * lhs
    best, witness = -math.inf, None
    for i in range(len(members)):
        r = rhs[i]
        if r <= ZERO:
            continue
        s = scaled[i]
        if s <= ZERO:
            return ExponentReport(math.inf, constant, members[i], grid_size=grid_size)
        if s >= 1.0 - ZERO:
            continue
        if r >= 1.0 - ZERO:
            return ExponentReport(math.inf, constant, members[i], grid_size=grid_size)
        ratio = math.log(s) / math.log(r)
        if ratio > best:
            best, witness = ratio, i
    if witness is None:
        return ExponentReport(1.0, constant, degenerate=True, grid_size=grid_size)
    return ExponentReport(best, constant, members[witness], grid_size=grid_size)


def beta_max_loop(excess, dis, c_noise, members, grid_size):
    """Largest beta in [0, 1] with dis <= c_noise * excess^beta, one member at
    a time."""
    best, witness = math.inf, None
    for i in range(len(members)):
        e = excess[i]
        if e <= ZERO:
            continue
        d = dis[i] / c_noise
        if d <= ZERO:
            continue
        if d > 1.0 + ZERO:
            return ExponentReport(0.0, c_noise, members[i], satisfied=False,
                                  grid_size=grid_size)
        if e >= 1.0 - ZERO:
            continue
        ratio = min(1.0, math.log(d) / math.log(e)) if d < 1.0 else 0.0
        if ratio < best:
            best, witness = ratio, i
    if witness is None:
        return ExponentReport(1.0, c_noise, degenerate=True, grid_size=grid_size)
    return ExponentReport(max(best, 0.0), c_noise, members[witness], grid_size=grid_size)


def searchsorted_draw(mass, u):
    """Support index of each uniform: a binary search of the cumulative mass,
    capped at the last point."""
    xs = np.searchsorted(np.cumsum(mass), u, side="right")
    return np.minimum(xs, len(mass) - 1).astype(np.int64)


def sample_labeled(dist, n: int, seed: int) -> LabeledSample:
    """n i.i.d. labeled draws; x first, then y ~ Bernoulli(eta(x))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = rng_from(seed)
    if isinstance(dist, DiscreteJoint):
        xs = np.searchsorted(np.cumsum(dist.mass), rng.random(n), side="right")
        xs = np.minimum(xs, dist.size - 1).astype(np.int64)
        ys = (rng.random(n) < dist.eta[xs]).astype(np.int8)
        return LabeledSample(xs, ys, seed)
    if isinstance(dist, ThresholdMarginal):
        xs = dist.density.ppf(rng.random(n))
        ys = (xs <= dist.h_star).astype(np.int8)
        return LabeledSample(xs, ys, seed)
    raise TypeError(f"cannot sample from {type(dist).__name__}")


def label_counts_two_masks(cls, sample):
    """Per-support counts of label 0 and of label 1, one masked bincount each."""
    idx = _sample_indices(cls, sample.xs)
    s = cls.support_size
    n1 = np.bincount(idx[sample.ys == 1], minlength=s).astype(np.float64)
    n0 = np.bincount(idx[sample.ys == 0], minlength=s).astype(np.float64)
    return n0, n1


def adaptive_loop(eps, sched_p, sched_q, sampler_p, sampler_q, unlabeled, cls, conf,
                  seed=0, kappa=4.0, max_rounds=64, q_only=False):
    """`run_adaptive_sampling` as a concatenate-and-recount loop: each round
    joins every batch bought so far into one sample and evaluates it afresh."""
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    need = unlabeled_requirement(eps, conf.delta, cls.vc_dim, kappa)
    if len(unlabeled) < need:
        raise ValueError(f"unlabeled pool of {len(unlabeled)} is below the "
                         f"required {need} for eps={eps}, delta={conf.delta}")
    batches_p, batches_q = [], []
    transcript = SamplingTranscript()
    for t in range(1, max_rounds + 1):
        budget = 2.0 ** (t - 1)
        n_tp, cost_p = 0, 0.0
        if not q_only:
            n_tp = sched_p.minimal_n(budget)
            cost_p = sched_p.cost(n_tp)
            batches_p.append(sampler_p(n_tp, int(rng_from(seed, t, 0).integers(2 ** 63))))
        n_tq = sched_q.minimal_n(budget)
        cost_q = sched_q.cost(n_tq)
        batches_q.append(sampler_q(n_tq, int(rng_from(seed, t, 1).integers(2 ** 63))))
        transcript.total_cost += cost_p + cost_q

        sample_q = LabeledSample(np.concatenate([b.xs for b in batches_q]),
                                 np.concatenate([b.ys for b in batches_q]), seed)
        a_q = confidence_width(len(sample_q), cls.vc_dim, conf.delta)
        dhat_q = delta_hat(sample_q, sample_q, cls, conf)
        step6_lhs = conf.c * math.sqrt(dhat_q * a_q) + conf.c * a_q
        step7_stat, decision, winner = None, "continue", None
        if step6_lhs <= eps:
            decision, winner = "step6", sample_q
        elif not q_only:
            sample_p = LabeledSample(np.concatenate([b.xs for b in batches_p]),
                                     np.concatenate([b.ys for b in batches_p]), seed)
            step7_stat = delta_hat(sample_p, unlabeled, cls, conf)
            if step7_stat <= eps / 4.0:
                decision, winner = "step7", sample_p
        transcript.rounds.append(Round(t, n_tp, n_tq, cost_p, cost_q,
                                       step6_lhs, step7_stat, decision))
        if winner is not None:
            transcript.returned_by = decision
            return erm(cls, winner), transcript
    raise RuntimeError(f"no stopping rule fired within {max_rounds} rounds; "
                       f"eps={eps} is likely unreachable at this configuration")
