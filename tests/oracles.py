"""Independent brute-force reimplementations used as test oracles.

Everything here is written as a direct transliteration of the defining
formulas: per-member loops, no label-count aggregation, no shared code with
the package under test beyond the data types.
"""

import math

import numpy as np

from transferlab.hypotheses import FINITE, THRESHOLD, Hypothesis


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
    if len(sample) == 0:
        return 0.0
    mis = (predict(member, sample.xs) != sample.ys).astype(float)
    return float(np.dot(np.asarray(f)[sample.xs], mis)) / len(sample)


def delta_hat_weighted_value(members, sample, f, probe, c, delta, vc_dim, pdim):
    f = np.asarray(f, dtype=float)
    width = width_weighted(len(sample), vc_dim, pdim, delta)
    if len(sample) == 0 or math.isinf(width):
        mask = [True] * len(members)
        anchor = 0
    else:
        risks = [weighted_risk_value(h, sample, f) for h in members]
        anchor = int(np.argmin(risks))
        mask = []
        sup = float(np.max(f))
        for i in range(len(members)):
            mis = (predict(members[i], sample.xs) != predict(members[anchor], sample.xs)).astype(float)
            dis_f2 = float(np.dot(f[sample.xs] ** 2, mis)) / len(sample)
            mask.append(risks[i] - risks[anchor]
                        <= c * math.sqrt(dis_f2 * width) + c * sup * width)
    if len(probe) == 0:
        return 0.0
    best = -math.inf
    for i in range(len(members)):
        if mask[i]:
            best = max(best, disagreement(members[i], members[anchor], probe))
    return best
