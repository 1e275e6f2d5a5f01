"""The exact lower-bound curve R* of `oracles.r_star` against two references
(a brute-force sum and a Bayes Monte Carlo on a built family), and the rate
checks it must pass: one-sample slopes and the both-samples ratio."""

import itertools
import math

import numpy as np
import pytest

import oracles
import transferlab as tl

# (rho, beta_p, beta_q): noisy sides; equal weights L_P = L_Q; a noiseless
# source; a noiseless target; both noiseless; a source with no anchor mass
TEMPLATES = [(2.0, 0.5, 0.5), (1.0, 0.5, 0.5), (1.0, 1.0, 0.5), (2.0, 0.5, 1.0),
             (1.0, 1.0, 1.0), (1.5, 0.0, 0.25)]


def _count_vectors(n, cells):
    """Every count vector of n draws over `cells` cells, with its multinomial
    coefficient."""
    rows = [np.bincount(np.array(draws, dtype=np.int64), minlength=cells)
            for draws in itertools.combinations_with_replacement(range(cells), n)]
    counts = np.array(rows).reshape(-1, cells)
    coef = np.array([math.factorial(n) / math.prod(math.factorial(c) for c in row)
                     for row in counts])
    return counts, coef


def _sample_likelihoods(n, w, m, sigmas):
    """Each count vector's probability under each sign vector: the anchor
    holds 1 - d*w and label 1 only; point j holds w, label 1 with probability
    (1 + sigma_j m)/2.  Cells run (x_0, 0), (x_0, 1), (x_1, 0), ..."""
    d = sigmas.shape[1]
    counts, coef = _count_vectors(n, 2 * (d + 1))
    probs = np.empty((len(sigmas), 2 * (d + 1)))
    probs[:, 0], probs[:, 1] = 0.0, 1.0 - d * w
    probs[:, 2::2] = w * (1 - sigmas * m) / 2
    probs[:, 3::2] = w * (1 + sigmas * m) / 2
    return coef[:, None] * np.prod(probs[None, :, :] ** counts[:, None, :], axis=2)


def _brute_force_risk(eps, n_p, n_q, rho, beta_p, beta_q, d):
    """The Bayes Q-excess by enumeration: over every sign vector and every
    pair of samples, the posterior mass of the losing sign at each point,
    weighted by that point's excess w_Q m_Q."""
    sigmas = np.array(list(itertools.product((-1, 1), repeat=d)))
    like_p = _sample_likelihoods(n_p, eps ** (rho * beta_p) / d,
                                 eps ** (rho * (1 - beta_p)), sigmas)
    like_q = _sample_likelihoods(n_q, eps ** beta_q / d, eps ** (1 - beta_q), sigmas)
    joint = like_p[:, None, :] * like_q[None, :, :] / len(sigmas)
    losing = sum(np.minimum(joint[..., sigmas[:, j] > 0].sum(-1),
                            joint[..., sigmas[:, j] < 0].sum(-1)).sum() for j in range(d))
    return eps ** beta_q / d * eps ** (1 - beta_q) * losing


@pytest.mark.parametrize("template", TEMPLATES, ids=str)
def test_bayes_risk_matches_a_brute_force_sum(template):
    # every sign vector and every sample at d <= 3 and n <= 6; rounding of
    # sums this short stays far below 1e-15.  A beta of 0 puts mass 1/d on
    # each point, and the oracle's counts need a mass below 1, so d > 1 there
    dims = (1, 2, 3) if 0.0 not in template[1:] else (2, 3)
    for d, eps, (n_p, n_q) in itertools.product(dims, (0.05, 0.3),
                                                ((0, 0), (0, 6), (6, 0), (3, 3), (2, 4))):
        want = _brute_force_risk(eps, n_p, n_q, *template, d)
        got = oracles.bayes_risk_at_scale(eps, n_p, n_q, *template, d)
        assert abs(got - want) <= oracles.truncation_bound(n_p, n_q, eps) + 1e-15, \
            (d, eps, n_p, n_q)


def _evidence_label(a_p, a_q, l_p, l_q):
    """1 where one point's evidence favours sign +1, ties included: a
    noiseless side with a draw decides, equal weights compare a_P + a_Q as
    integers, and otherwise the sign of a_P L_P + a_Q L_Q does."""
    for a, l in ((a_p, l_p), (a_q, l_q)):
        if l == math.inf and a != 0:
            return int(a > 0)
    if l_p == l_q:
        return int(a_p + a_q >= 0)
    return int(sum(a * l for a, l in ((a_p, l_p), (a_q, l_q)) if a) >= 0)


# (rho, beta_p, beta_q, eps, n_p, n_q): both sides noisy; equal weights; a
# noiseless source.  Seed and trial count were fixed before the first run.
MC_CELLS = [(2.0, 0.5, 0.5, 0.2, 64, 64), (1.0, 0.5, 0.5, 0.2, 32, 32),
            (1.0, 1.0, 0.5, 0.2, 16, 32)]


@pytest.mark.parametrize("cell", MC_CELLS, ids=str)
def test_bayes_risk_matches_a_bayes_monte_carlo(cell):
    # on the built d_h = 9 family with all 256 sign vectors: a sign vector
    # drawn uniformly, per-point labels from `sample_labeled` counts, a tie
    # labeled 1 (by symmetry it costs half the point's excess on average), and
    # the Q-excess from `true_risk`; within 4 standard errors
    rho, beta_p, beta_q, eps, n_p, n_q = cell
    fam = tl.build_single_scale_family(9, rho, beta_p, beta_q, eps)
    l_p, l_q = (math.inf if m == 1.0 else math.log1p(m) - math.log1p(-m)
                for m in (abs(2 * fam.eta_p[0, 1] - 1), abs(2 * fam.eta_q[0, 1] - 1)))
    rng, trials, excess = np.random.default_rng(20261020), 2000, []
    for t in range(trials):
        i = int(rng.integers(len(fam)))
        pair = fam[i]
        sp, sq = tl.sample_labeled(pair.p, n_p, 2 * t), tl.sample_labeled(pair.q, n_q, 2 * t + 1)
        a_p, a_q = 2 * sp.ones - sp.points, 2 * sq.ones - sq.points
        labels = (1,) + tuple(_evidence_label(int(a_p[j]), int(a_q[j]), l_p, l_q)
                              for j in range(1, 9))
        excess.append(tl.true_risk(pair.q, tl.finite_hypothesis(labels))
                      - tl.true_risk(pair.q, fam.bayes(i)))
    want = oracles.bayes_risk_at_scale(eps, n_p, n_q, rho, beta_p, beta_q, 8)
    assert abs(np.mean(excess) - want) <= 4 * np.std(excess) / math.sqrt(trials)


# the theory exponents -1/((2 - beta) rho) of the settings of criteria 4-6;
# the tolerance lies below half the smallest gap between two of them (1/24)
EXPONENTS = sorted({-1 / ((2 - b) * r) for b in (0.0, 0.5, 1.0) for r in (1.0, 2.0)})
SLOPE_TOL = 0.03
ONE_SAMPLE = [("n_q", 1.0, 1.0, 0.5), ("n_q", 1.0, 1.0, 1.0),
              ("n_p", 1.0, 1.0, 0.5), ("n_p", 2.0, 0.5, 0.5)]


@pytest.mark.parametrize("axis, rho, beta_p, beta_q", ONE_SAMPLE, ids=str)
def test_r_star_one_sample_slopes(axis, rho, beta_p, beta_q):
    # along n_q at n_p = 0: -1/(2 - beta_Q); along n_p at n_q = 0:
    # -1/((2 - beta_P) rho); fitted over n = 2^10..2^14 at d = 8
    want = -1 / (2 - beta_q) if axis == "n_q" else -1 / ((2 - beta_p) * rho)
    assert SLOPE_TOL < min(abs(want - e) for e in EXPONENTS if e != want) / 2
    ns = [2 ** k for k in range(10, 15)]
    risks = [oracles.r_star(*((0, n) if axis == "n_q" else (n, 0)), rho, beta_p, beta_q, 8)[0]
             for n in ns]
    slope = np.polyfit(np.log(ns), np.log(risks), 1)[0]
    assert abs(slope - want) <= SLOPE_TOL


def test_r_star_with_both_samples_is_near_the_better_one():
    # R*(n_p, n_q) / min(R*(n_p, 0), R*(0, n_q)) is at most 1: more data never
    # raises a Bayes risk.  It is at least 2 min(e_P, e_Q), where e is a
    # one-sample Bayes error R*/eps at its own worst scale: the affinity of a
    # product is at least the product of the affinities, so both samples err
    # with at least 2 e_P(eps) e_Q(eps) at any eps, and a one-sample error
    # only grows as eps shrinks (a smaller scale is a garbling of a larger)
    grid = (2 ** 6, 2 ** 8, 2 ** 10)
    setting = (2.0, 0.5, 0.5, 8)
    p_only = {n: oracles.r_star(n, 0, *setting) for n in grid}
    q_only = {n: oracles.r_star(0, n, *setting) for n in grid}
    for n_p, n_q in itertools.product(grid, grid):
        (r_p, eps_p), (r_q, eps_q) = p_only[n_p], q_only[n_q]
        ratio = oracles.r_star(n_p, n_q, *setting)[0] / min(r_p, r_q)
        assert 2 * min(r_p / eps_p, r_q / eps_q) - 1e-9 <= ratio <= 1 + 1e-9, (n_p, n_q)
