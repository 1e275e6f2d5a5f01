"""Exact brute-force computation of discrepancy quantities between a pair.

All exponents are computed at a caller-supplied constant by exhausting an
enumerable class: pairs on a finite support are evaluated exactly, line
scenarios are evaluated on an explicit threshold grid (recorded in the
report).  Hypotheses whose bound side reaches 1 are skipped, since the
defining inequalities hold for them automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TransferPair,
    member_disagreement_mass,
    member_true_risks,
)
from .hypotheses import (
    THRESHOLD,
    Hypothesis,
    HypothesisClass,
    project_class,
)

ZERO = 1e-14
DEFAULT_GRID_SIZE = 2 ** 12 + 1


@dataclass
class ExponentReport:
    """A computed exponent, the constant it was computed at, and the witness
    hypothesis that makes the constraint bind."""

    value: float
    constant: float
    witness: Hypothesis | None = None
    satisfied: bool = True
    degenerate: bool = False
    grid_size: int | None = None

    def to_json_dict(self) -> dict:
        return {
            "value": self.value,
            "constant": self.constant,
            "witness_labels": None if self.witness is None or self.witness.labels is None
            else list(self.witness.labels),
        }


@dataclass
class PairProfile:
    """Exact per-hypothesis quantities for one enumerated class.

    Arrays are aligned with `members` (the class itself, or for a line pair
    the threshold grid as a class), which builds a member only when it is
    indexed: excess risks under P and Q, marginal disagreement masses with the
    P-optimal classifier, the Q disagreement mass with the Q-optimal member,
    plain Q risks, and the index of the P- and Q-optimal members.
    """

    members: HypothesisClass
    e_p: np.ndarray
    e_q: np.ndarray
    dis_p: np.ndarray
    dis_q: np.ndarray
    dis_q_own: np.ndarray
    risk_q: np.ndarray
    star_p: int
    star_q: int
    grid_size: int | None = None


def default_grid(pair: TransferPair, size: int = DEFAULT_GRID_SIZE) -> np.ndarray:
    lo = min(pair.p.lo, pair.q.lo)
    hi = max(pair.p.hi, pair.q.hi)
    grid = np.linspace(lo, hi, size)
    return np.unique(np.concatenate([grid, [pair.p.h_star, lo - 1.0, hi + 1.0]]))


def pair_profile(pair: TransferPair, cls: HypothesisClass,
                 grid=None) -> PairProfile:
    if pair.discrete:
        return _discrete_profile(pair, cls)
    if cls.kind != THRESHOLD:
        raise TypeError("line scenarios pair with the threshold class")
    grid = default_grid(pair) if grid is None else np.unique(np.asarray(grid, dtype=np.float64))
    return _threshold_profile(pair, grid)


def _discrete_profile(pair: TransferPair, cls: HypothesisClass) -> PairProfile:
    if cls.kind == THRESHOLD:
        cls = project_class(cls, pair.p.support)
    risks_p = member_true_risks(pair.p, cls)
    risks_q = member_true_risks(pair.q, cls)
    star_p = int(np.argmin(risks_p))
    star_q = int(np.argmin(risks_q))
    dis_q = member_disagreement_mass(pair.q, cls, star_p)
    dis_q_own = dis_q if star_q == star_p else \
        member_disagreement_mass(pair.q, cls, star_q)
    return PairProfile(
        members=cls,
        e_p=risks_p - risks_p[star_p],
        e_q=risks_q - risks_q[star_q],
        dis_p=member_disagreement_mass(pair.p, cls, star_p),
        dis_q=dis_q,
        dis_q_own=dis_q_own,
        risk_q=risks_q,
        star_p=star_p,
        star_q=star_q)


def _threshold_profile(pair: TransferPair, grid: np.ndarray) -> PairProfile:
    p, q = pair.p, pair.q
    cdf_p = p.density.cdf(grid)
    cdf_q = q.density.cdf(grid)
    at_star_p = float(p.density.cdf(p.h_star))
    at_star_q = float(q.density.cdf(q.h_star))
    dis_p = np.abs(cdf_p - at_star_p)
    dis_q = np.abs(cdf_q - at_star_q)
    star_q = int(np.argmin(dis_q))
    return PairProfile(
        members=HypothesisClass(thresholds=grid),
        e_p=dis_p,  # noiseless labels: excess risk equals disagreement mass
        e_q=dis_q,
        dis_p=dis_p,
        dis_q=dis_q,
        dis_q_own=np.abs(cdf_q - q.density.cdf(grid[star_q])),
        risk_q=dis_q,
        star_p=int(np.argmin(dis_p)),
        star_q=star_q,
        grid_size=grid.size)


def _max_exponent(lhs: np.ndarray, rhs: np.ndarray, constant: float,
                  members, grid_size) -> ExponentReport:
    """Smallest k with constant*lhs >= rhs^k for every member.

    Computed as the max over members of log(constant*lhs)/log(rhs) among those
    with 0 < rhs < 1 and constant*lhs < 1; a member with lhs = 0 < rhs forces
    +inf.  Members with constant*lhs >= 1 satisfy the inequality for free.
    """
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


def rho_min(pair: TransferPair, cls: HypothesisClass, c_rho: float = 1.0,
            grid=None) -> ExponentReport:
    """Smallest transfer exponent at constant c_rho: c_rho E_P(h) >= E_Q(h)^rho."""
    if c_rho <= 0:
        raise ValueError("constant must be positive")
    prof = pair_profile(pair, cls, grid)
    return _max_exponent(prof.e_p, prof.e_q, c_rho, prof.members, prof.grid_size)


def gamma_min(pair: TransferPair, cls: HypothesisClass, c_gamma: float = 1.0,
              grid=None) -> ExponentReport:
    """Smallest marginal transfer exponent: c_gamma P_X(h != h*_P) >= Q_X(h != h*_P)^gamma."""
    if c_gamma <= 0:
        raise ValueError("constant must be positive")
    prof = pair_profile(pair, cls, grid)
    return _max_exponent(prof.dis_p, prof.dis_q, c_gamma, prof.members, prof.grid_size)


def rho_prime_min(pair: TransferPair, cls: HypothesisClass, c: float = 1.0,
                  grid=None) -> ExponentReport:
    """rho_min with the target excess clipped at the source-optimal classifier:
    max{R_Q(h) - R_Q(h*_P), 0} replaces E_Q(h)."""
    if c <= 0:
        raise ValueError("constant must be positive")
    prof = pair_profile(pair, cls, grid)
    clipped = np.maximum(prof.risk_q - prof.risk_q[prof.star_p], 0.0)
    return _max_exponent(prof.e_p, clipped, c, prof.members, prof.grid_size)


def beta_max(dist, cls: HypothesisClass, c_noise: float = 1.0, grid=None) -> ExponentReport:
    """Largest beta in [0, 1] with dis(h, h*) <= c_noise * excess(h)^beta.

    Takes one side of a pair (its own optimum anchors both quantities).
    Hypotheses with zero excess impose no constraint.  If some hypothesis
    violates the inequality even at beta = 0 the report carries value 0 with
    satisfied=False; if no hypothesis constrains beta at all, value 1 with
    degenerate=True.
    """
    if c_noise <= 0:
        raise ValueError("constant must be positive")
    if isinstance(dist, TransferPair):
        raise TypeError("pass one side of the pair, not the pair itself")
    pair = TransferPair(dist, dist)
    prof = pair_profile(pair, cls, grid)
    excess, dis = prof.e_p, prof.dis_p
    best, witness = math.inf, None
    for i in range(len(prof.members)):
        e = excess[i]
        if e <= ZERO:
            continue
        d = dis[i] / c_noise
        if d <= ZERO:
            continue
        if d > 1.0 + ZERO:
            return ExponentReport(0.0, c_noise, prof.members[i], satisfied=False,
                                  grid_size=prof.grid_size)
        if e >= 1.0 - ZERO:
            continue
        ratio = min(1.0, math.log(d) / math.log(e)) if d < 1.0 else 0.0
        if ratio < best:
            best, witness = ratio, i
    if witness is None:
        return ExponentReport(1.0, c_noise, degenerate=True, grid_size=prof.grid_size)
    return ExponentReport(max(best, 0.0), c_noise, prof.members[witness],
                          grid_size=prof.grid_size)


def d_a(pair: TransferPair, cls: HypothesisClass, grid=None) -> float:
    """sup over the class of |P_X(h != h*) - Q_X(h != h*)|."""
    prof = pair_profile(pair, cls, grid)
    return float(np.max(np.abs(prof.dis_p - prof.dis_q)))


def d_y(pair: TransferPair, cls: HypothesisClass, grid=None) -> float:
    """sup over the class of |E_P(h) - E_Q(h)|."""
    prof = pair_profile(pair, cls, grid)
    return float(np.max(np.abs(prof.e_p - prof.e_q)))


def d_y_localized(pair: TransferPair, cls: HypothesisClass, eps: float,
                  grid=None) -> float:
    """sup of |E_P - E_Q| over hypotheses with E_P <= eps.

    The P-optimal classifier always qualifies, so the feasible set is never
    empty for eps >= 0.
    """
    if eps < 0:
        raise ValueError("eps must be >= 0")
    prof = pair_profile(pair, cls, grid)
    mask = prof.e_p <= eps
    return float(np.max(np.abs(prof.e_p[mask] - prof.e_q[mask])))


@dataclass
class MembershipReport:
    ok: bool
    violations: list[dict]


def verify_membership(pair: TransferPair, cls: HypothesisClass, rho: float,
                      beta_p: float, beta_q: float, constant: float,
                      grid=None, tol: float = 1e-9) -> MembershipReport:
    """Checks, for every enumerated h, the three defining inequalities of the
    constrained pair class: constant*E_P >= E_Q^rho, P-side noise condition at
    beta_p, Q-side noise condition at beta_q (both with the same constant)."""
    prof = pair_profile(pair, cls, grid)
    checks = (
        ("transfer", np.power(prof.e_q, rho), constant * prof.e_p),
        ("noise_p", prof.dis_p, constant * np.power(prof.e_p, beta_p)),
        ("noise_q", prof.dis_q_own, constant * np.power(prof.e_q, beta_q)),
    )
    violations = []
    for name, small, big in checks:
        bad = np.flatnonzero(small > big + tol)
        for i in bad:
            labels = prof.members[i].labels
            violations.append({
                "check": name, "member": int(i),
                "lhs": float(small[i]), "rhs": float(big[i]),
                "witness_labels": None if labels is None else list(labels)})
    return MembershipReport(ok=not violations, violations=violations)


def verify_family(family, constant: float | None = None, tol: float = 1e-9,
                  rho: float | None = None, beta_p: float | None = None,
                  beta_q: float | None = None) -> list[MembershipReport]:
    """Membership check for every pair in a sign-indexed family.

    Parameters default to the family's construction parameters; the constant
    defaults to 1 for single-scale and 2 for two-scale families.
    """
    p = family.params
    rho = p["rho"] if rho is None else rho
    beta_p = p["beta_p"] if beta_p is None else beta_p
    beta_q = p["beta_q"] if beta_q is None else beta_q
    if constant is None:
        constant = 1.0 if family.kind == "single-scale" else 2.0
    return [verify_membership(pair, family.cls, rho, beta_p, beta_q, constant, tol=tol)
            for pair in family.pairs]


def gamma_rho_chain_check(pair: TransferPair, cls: HypothesisClass,
                            c_gamma: float = 1.0, c_noise: float = 1.0,
                            grid=None, tol: float = 1e-9) -> dict:
    """Checks rho <= gamma / beta_P with the transfer constant c_gamma^(gamma/beta_P)."""
    g = gamma_min(pair, cls, c_gamma, grid)
    b = beta_max(pair.p, cls, c_noise, grid)
    if b.value <= 0.0 or not math.isfinite(g.value):
        bound = math.inf
        r = rho_min(pair, cls, 1.0, grid)
    else:
        bound = g.value / b.value
        r = rho_min(pair, cls, c_gamma ** bound, grid)
    ok = r.value <= bound + tol
    return {"ok": bool(ok), "rho": r.value, "gamma": g.value,
            "beta_p": b.value, "bound": bound}


def exponent_sweep(pair: TransferPair, cls: HypothesisClass, which: str,
                   constants, grid=None) -> list[ExponentReport]:
    """Convenience sweep of an exponent over a grid of constants."""
    op = {"rho": rho_min, "gamma": gamma_min, "rho_prime": rho_prime_min}[which]
    return [op(pair, cls, float(c), grid) for c in constants]
