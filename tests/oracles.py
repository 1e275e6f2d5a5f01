"""Independent brute-force reimplementations used as test oracles.

Everything here is written as a direct transliteration of the defining
formulas: per-member loops, no label-count aggregation, no shared code with
the package under test beyond the data types.  The exceptions: `tri_class`
hands a cut class's explicit label matrix to the package's finite-class
kernels; `sample_labeled` and `sample_unlabeled` expand the package's counted
finite-support draws into points (`points_of`), so a point-built and a
count-built run see the same data; `label_counts_two_masks` is the package's
earlier two-pass label counts on its sample indexing; and `adaptive_loop` is
the package's earlier adaptive loop, which concatenates every point batch
bought so far and recounts the whole sample each round, kept verbatim on the
package's `delta_hat`, `erm` and widths.  `r_star` is the exact Bayes risk
of the single-scale family template, and `erm_mean_excess` the exact mean
excess of ERM on the anchored cube; the package computes neither.
"""

import math
from fractions import Fraction

import numpy as np

from transferlab.adaptive import Round, SamplingTranscript, delta_hat, unlabeled_requirement
from transferlab.discrepancy import ZERO, ExponentReport
from transferlab.distributions import DiscreteJoint, ThresholdMarginal
from transferlab.distributions import sample_labeled as package_sample_labeled
from transferlab.distributions import sample_unlabeled as package_sample_unlabeled
from transferlab.hypotheses import (
    FINITE,
    THRESHOLD,
    Hypothesis,
    LabeledSample,
    UnlabeledSample,
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
    """The n+1 threshold members over n distinct points, each its threshold
    alone: cut i's threshold t labels exactly the i smallest points 1,
    pts[i-1] <= t < pts[i].  It is the neighbors' midpoint if that lies in
    range, else pts[i-1]; pts[0] - 1, or the float below pts[0] where that
    rounds back to it, below all points; pts[-1] + 1 above them."""
    pts = sorted(set(float(x) for x in points))
    n = len(pts)
    members = []
    for i in range(n + 1):
        if i == 0:
            t = pts[0] - 1.0
            if t == pts[0]:
                t = math.nextafter(pts[0], -math.inf)
        elif i == n:
            t = pts[-1] + 1.0
        else:
            t = 0.5 * (pts[i - 1] + pts[i])  # a Python float sum overflows to +-inf
            if not pts[i - 1] <= t < pts[i]:
                t = pts[i - 1]
        members.append(Hypothesis(THRESHOLD, None, t))
    return members


def labels_of(member, coords):
    """A member's labels over the support points at `coords`: its label
    tuple, or the labels its threshold induces, 1 on x <= threshold."""
    if member.labels is not None:
        return member.labels
    return tuple(int(x <= member.threshold) for x in coords.tolist())


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
    return int(np.count_nonzero(predict(member, sample.xs) != sample.ys)) / len(sample)


def disagreement(a, b, sample):
    if len(sample) == 0:
        return 0.0
    return int(np.count_nonzero(predict(a, sample.xs) != predict(b, sample.xs))) / len(sample)


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


def _units(f, xs):
    """f(x) for each sample point x as an exact integer multiple of one power
    of two, 1/den: returns those integers (as Python ints) and den."""
    ratios = [float(v).as_integer_ratio() for v in f]
    den = max(d for _, d in ratios)
    units = [num * (den // d) for num, d in ratios]
    return np.array([units[x] for x in xs.tolist()], dtype=object), den


def weighted_risk_value(member, sample, f):
    """(1/n) sum of f(x) over the mislabeled sample points, as an exact Fraction."""
    if len(sample) == 0:
        return Fraction(0)
    units, den = _units(f, sample.xs)
    mis = predict(member, sample.xs) != sample.ys
    return Fraction(units[mis].sum(), den * len(sample))


def delta_hat_weighted_value(members, sample, f, probe, c, delta, vc_dim, pdim):
    """Weighted delta-hat in exact arithmetic: the weighted risks and f^2
    disagreements are integer sums over one power-of-two denominator, the
    anchor is the lowest index at the exact minimum (at every width), and each
    excess is compared exactly with the float radius."""
    f = np.asarray(f, dtype=float)
    width = width_weighted(len(sample), vc_dim, pdim, delta)
    n = len(sample)
    units, den = _units(f, sample.xs)
    # risks in units of 1/(den n), f^2 disagreements in units of 1/(den^2 n)
    risks = [units[predict(h, sample.xs) != sample.ys].sum() for h in members]
    anchor = risks.index(min(risks))
    if n == 0 or math.isinf(width):
        mask = [True] * len(members)
    else:
        mask = []
        sup = float(np.max(f))
        ref = predict(members[anchor], sample.xs)
        for i in range(len(members)):
            dis = predict(members[i], sample.xs) != ref
            dis_f2 = Fraction((units[dis] ** 2).sum(), den * den * n)
            radius = c * math.sqrt(float(dis_f2) * width) + c * sup * width
            mask.append(radius == math.inf
                        or Fraction(risks[i] - risks[anchor], den * n) <= Fraction(radius))
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


# the exact Bayes risk of the single-scale template (Assouad's argument, see
# Tsybakov, Introduction to Nonparametric Estimation, 2009, section 2.7): with
# a uniform prior over all 2^d sign vectors the posterior factorizes over the
# d non-anchor points, so the Bayes risk under Q is d * w_Q * m_Q times the
# chance that one point's posterior sign is wrong, a tie counting 1/2.  Any
# prior's Bayes risk is at most the minimax risk over the family, so its
# maximum over the scale is an exact finite-n lower-bound curve.

TAIL = 1e-15  # each binomial keeps the terms whose pmf is at least this
EPS_GRID = np.geomspace(1e-4, 0.5, 60)


def truncation_bound(n_p, n_q, eps):
    """What truncation can take off `bayes_risk_at_scale`: a binomial over
    n + 1 terms loses at most (n + 1) * TAIL, and a side loses at most that
    for its counts and again for their ones; the risk scales it by eps."""
    return eps * 2 * (n_p + n_q + 2) * TAIL


def _log_factorials(n):
    return np.array([math.lgamma(i + 1.0) for i in range(n + 1)])


def _binomial_pmf(n, k, log_p, log_q, log_fact):
    """Bin(n, p) at k (broadcast; 0 where k > n), below TAIL set to 0."""
    ok = k <= n
    n, k = np.where(ok, n, 0), np.where(ok, k, 0)  # a masked cell reads Bin(0) at 0
    pmf = np.exp(log_fact[n] - log_fact[k] - log_fact[n - k] + k * log_p + (n - k) * log_q)
    return np.where(ok & (pmf >= TAIL), pmf, 0.0)


def _evidence_law(n, w, m, log_fact):
    """The law of a = ones - zeros at one point under sign +1, as (values,
    probabilities): the point's count is Bin(n, w), w < 1, its ones
    Bin(N, (1+m)/2); with margin 1 every label is 1, so a = N."""
    if n == 0:
        return np.zeros(1, dtype=np.int64), np.ones(1)
    N = np.arange(n + 1)
    p_n = _binomial_pmf(n, N, math.log(w), math.log1p(-w), log_fact)
    N, p_n = N[p_n > 0], p_n[p_n > 0]
    if m == 1.0:
        return N, p_n
    k = np.arange(N[-1] + 1)
    p_k = _binomial_pmf(N[:, None], k, math.log((1 + m) / 2), math.log((1 - m) / 2), log_fact)
    a = np.minimum(2 * k - N[:, None], N[-1])  # k > N has weight 0
    law = np.bincount((a + N[-1]).ravel(), weights=(p_n[:, None] * p_k).ravel(),
                      minlength=2 * N[-1] + 1)
    return np.arange(-N[-1], N[-1] + 1), law


def _log_odds(m):
    """L = log((1 + m)/(1 - m)), the weight of one label's evidence."""
    return math.inf if m == 1.0 else math.log1p(m) - math.log1p(-m)


def bayes_risk_at_scale(eps, n_p, n_q, rho, beta_p, beta_q, d, log_fact=None):
    """Bayes Q-excess of the single-scale template at scale eps, under a
    uniform prior over all 2^d sign vectors, from n_p source and n_q target
    draws.  The posterior sign at a point is wrong when a_P L_P + a_Q L_Q < 0;
    a noiseless side decides the point with one draw, and equal weights
    compare a_P + a_Q as integers.  Exact up to `truncation_bound`."""
    if log_fact is None:
        log_fact = _log_factorials(max(n_p, n_q))
    w_q, m_q = eps ** beta_q / d, eps ** (1 - beta_q)
    w_p, m_p = eps ** (rho * beta_p) / d, eps ** (rho * (1 - beta_p))
    a_p, pr_p = _evidence_law(n_p, w_p, m_p, log_fact)
    a_q, pr_q = _evidence_law(n_q, w_q, m_q, log_fact)
    a_p, a_q = a_p[:, None], a_q[None, :]
    l_p, l_q = _log_odds(m_p), _log_odds(m_q)
    if l_p == l_q:
        s = a_p + a_q
    elif l_p == math.inf:
        s = np.where(a_p != 0, a_p, a_q)
    elif l_q == math.inf:
        s = np.where(a_q != 0, a_q, a_p)
    else:
        s = a_p * l_p + a_q * l_q
    wrong = pr_p @ ((s < 0) + 0.5 * (s == 0)) @ pr_q
    return d * w_q * m_q * float(wrong)


def r_star(n_p, n_q, rho, beta_p, beta_q, d):
    """R*(n_p, n_q): the largest `bayes_risk_at_scale` over EPS_GRID, and the
    lowest scale that reaches it, as (risk, eps)."""
    log_fact = _log_factorials(max(n_p, n_q))
    risks = [bayes_risk_at_scale(e, n_p, n_q, rho, beta_p, beta_q, d, log_fact)
             for e in EPS_GRID]
    i = int(np.argmax(risks))
    return risks[i], float(EPS_GRID[i])


# the exact mean Q-excess of ERM on the anchored cube: a member is free at
# each point but the anchor, so the lowest-index ERM labels each point by a
# strict majority of its labels, and a tie (an empty point included) 0.  The
# points' errors add up, so the mean excess is sum_j mass_j |2 eta_j - 1|
# times the chance that point j's majority label is the wrong one.


def erm_mean_excess(joint, n):
    """The mean Q-excess of `erm` on the anchored cube from n draws of
    `joint`, whose point 0 is the anchor that every member labels 1.  With
    a = ones - zeros at point j under its better label's sign, ERM is wrong
    there when a <= 0 if eta_j > 1/2 (a tie goes to 0), and when a < 0 if
    eta_j < 1/2.  Exact up to `_evidence_law`'s truncation: at most
    2 (n + 1) TAIL times the excess of each point."""
    log_fact = _log_factorials(n)
    total = 0.0
    for w, eta in zip(joint.mass[1:], joint.eta[1:]):
        m = abs(2.0 * eta - 1.0)
        if m == 0.0:
            continue
        a, pr = _evidence_law(n, w, m, log_fact)
        total += w * m * float(pr[a <= 0].sum() if eta > 0.5 else pr[a < 0].sum())
    return total


def rng_from(seed, *path):
    """The generator of (seed mod 2^64, *path): each value written in base
    2^32, least significant digit first, after its number of digits, and the
    digits handed to `SeedSequence` as a tuple of ints."""
    entropy = []
    for v in (seed % 2 ** 64, *path):
        if v < 0:
            raise ValueError(f"negative path entry {v}")
        digits = [v % 2 ** 32]
        while v >= 2 ** 32:
            v //= 2 ** 32
            digits.append(v % 2 ** 32)
        entropy += [len(digits)] + digits
    return np.random.default_rng(np.random.SeedSequence(tuple(entropy)))


def points_of(counts, seed=0):
    """A point sample of support indices holding exactly the given counts,
    in support order, label 0 before label 1 at each point."""
    idx = np.arange(counts.points.size)
    if counts.ones is None:
        return UnlabeledSample(np.repeat(idx, counts.points), seed)
    cells = np.column_stack((counts.points - counts.ones, counts.ones)).ravel()
    return LabeledSample(np.repeat(np.repeat(idx, 2), cells),
                         np.repeat(np.tile([0, 1], idx.size), cells), seed)


def sample_labeled(dist, n: int, seed: int) -> LabeledSample:
    """n labeled draws as points: for a `DiscreteJoint`, the package's
    counted draw expanded into support indices; for a line scenario, the
    quantiles of the seed's first n uniforms, labeled by the threshold."""
    if isinstance(dist, DiscreteJoint):
        return points_of(package_sample_labeled(dist, n, seed), seed)
    if isinstance(dist, ThresholdMarginal):
        if n < 0:
            raise ValueError("n must be >= 0")
        xs = dist.density.ppf(rng_from(seed).random(n))
        return LabeledSample(xs, (xs <= dist.h_star).astype(np.int8), seed)
    raise TypeError(f"cannot sample from {type(dist).__name__}")


def sample_unlabeled(dist, n: int, seed: int) -> UnlabeledSample:
    """n unlabeled draws as points: the package's counted draw expanded for a
    `DiscreteJoint`, the points of `sample_labeled` for a line scenario."""
    if isinstance(dist, DiscreteJoint):
        return points_of(package_sample_unlabeled(dist, n, seed), seed)
    return UnlabeledSample(sample_labeled(dist, n, seed).xs, seed)


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
