"""Exact brute-force computation of discrepancy quantities between a pair.

All exponents are computed at a caller-supplied constant by exhausting an
enumerable class: pairs on a finite support are evaluated exactly, line
scenarios are evaluated on an explicit threshold grid (its size recorded in
the report) that always holds both optima h*_P and h*_Q.  Both kinds of pair
are profiled by one rule: each side's excess and own disagreement are taken
from its optimum, and Q's cross disagreement from h*_P.  Hypotheses whose
bound side reaches 1 are skipped, since the defining inequalities hold for
them automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TransferPair,
    _line_extent,
    _member_disagreement_mass,
    _member_true_risks,
    _refuse_off_support,
    member_true_risks,
)
from .hypotheses import (
    THRESHOLD,
    Hypothesis,
    HypothesisClass,
    project_onto_support,
)

ZERO = 1e-14
DEFAULT_GRID_SIZE = 2 ** 12 + 1
# The exponent reductions screen each member's ratio of logs with np.log and
# recheck with math.log only those within this relative slack of the screened
# extreme.  The logs are of values in (ZERO, 1): negative normal floats.  If
# np.log is within u ulps of math.log, a log is within u * 2^-52 of it
# relatively and each quotient rounds by 2^-53, so a screened ratio is within
# (4u + 2) * 2^-53 of the exact one to first order, and an exact extreme within
# twice that of the screened one: 2^-40 covers u up to 1000 (np.log: 1 ulp).
SCREEN_SLACK = 2.0 ** -40


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
        """Strict JSON: the value is null where no finite exponent fits (an
        infinite value, or even beta = 0 fails), and so is an infinite threshold."""
        w = self.witness
        t = None if w is None else w.threshold
        return {
            "value": self.value if self.satisfied and math.isfinite(self.value) else None,
            "constant": self.constant,
            "witness_labels": None if w is None or w.labels is None else list(w.labels),
            "witness_threshold": t if t is not None and math.isfinite(t) else None,
        }


@dataclass
class PairProfile:
    """Exact per-hypothesis quantities for one enumerated class.

    Arrays are aligned with `members` (the class itself, or for a line pair
    the threshold grid as a class), which builds a member only when it is
    indexed: excess risks under P and Q, marginal disagreement masses with the
    P-optimal member, the Q disagreement mass with the Q-optimal member,
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
    """`size` thresholds spanning the pair's extent, plus one beyond each end."""
    lo, hi = _line_extent(pair)
    return np.concatenate([[lo - 1.0], np.linspace(lo, hi, size), [hi + 1.0]])


def pair_profile(pair: TransferPair, cls: HypothesisClass,
                 grid=None) -> PairProfile:
    """A finite pair's profile over `cls` projected onto its support; a line
    pair's over its threshold grid (`default_grid` if none is given), to
    which both optima h*_P and h*_Q are added."""
    p, q = pair.p, pair.q
    if pair.discrete:
        cls = project_onto_support(cls, p.support)
        # the checked risk kernel reads each side once, before its disagreements
        return _profile(cls, *_finite_kernels(cls, member_true_risks), (p.mass, p.eta),
                        (q.mass, q.eta))
    if cls.kind != THRESHOLD:
        raise TypeError("line scenarios pair with the threshold class")
    grid = np.unique(np.append(default_grid(pair) if grid is None else grid,
                               [p.h_star, q.h_star]))
    # a line side is its CDF over the grid and at its own optimum; noiseless
    # labels make a member's risk its disagreement mass with that optimum
    sides = [(s.density.cdf(grid), float(s.density.cdf(s.h_star))) for s in (p, q)]
    return _profile(HypothesisClass(thresholds=grid), lambda side: np.abs(side[0] - side[1]),
                    lambda side, i: np.abs(side[0] - side[0][i]), *sides, grid.size)


def _finite_kernels(cls: HypothesisClass, risks=_member_true_risks):
    """`_profile`'s kernels over an enumerated class, for sides (mass, eta)
    whose shapes are checked before their disagreements are read: by
    `risks`, or by the caller."""
    return (lambda side: risks(cls, *side),
            lambda side, i: _member_disagreement_mass(cls, i, side[0]))


def _profile(members, risk, dis, p, q, grid_size=None) -> PairProfile:
    """The profile of sides p and q from two per-side kernels: `risk(side)`,
    every member's risk, and `dis(side, i)`, every member's disagreement mass
    with member i.  A side's optimum is its lowest-index least risk, and its
    excess and own disagreement are taken from it; Q's cross disagreement is
    taken from P's optimum."""
    risk_p, risk_q = risk(p), risk(q)
    star_p, star_q = int(np.argmin(risk_p)), int(np.argmin(risk_q))
    dis_q = dis(q, star_p)
    return PairProfile(
        members=members,
        e_p=risk_p - risk_p[star_p],
        e_q=risk_q - risk_q[star_q],
        dis_p=dis(p, star_p),
        dis_q=dis_q,
        dis_q_own=dis_q if star_q == star_p else dis(q, star_q),
        risk_q=risk_q,
        star_p=star_p,
        star_q=star_q,
        grid_size=grid_size)


def _logs(x: np.ndarray) -> np.ndarray:
    """math.log of every entry, taken once per distinct value and found back by
    binary search: the exact recheck of the members that pass the np.log
    screen (SCREEN_SLACK), since np.log may round differently in the last bit."""
    vals = np.unique(x)
    return np.fromiter(map(math.log, vals.tolist()), np.float64, vals.size)[np.searchsorted(vals, x)]


def _check_constant(name: str, value: float) -> None:
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be a positive finite constant, got {value}")


def _check_tol(tol: float) -> None:
    """A NaN or infinite tol would pass every check, a negative one fail exact fits."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and >= 0, got {tol}")


def _max_exponent(lhs: np.ndarray, rhs: np.ndarray, constant: float,
                  members, grid_size) -> ExponentReport:
    """Smallest k with constant*lhs >= rhs^k for every member.

    Computed as the max over members of log(constant*lhs)/log(rhs) among those
    with 0 < rhs < 1 and constant*lhs < 1; the first member with lhs = 0 < rhs,
    or rhs = 1 > constant*lhs, forces +inf.  Members with constant*lhs >= 1
    satisfy the inequality for free.  Ties go to the lowest index.  Only the
    members whose np.log ratio is within SCREEN_SLACK of the max, every exact
    maximizer among them, are rechecked with math.log.
    """
    scaled = constant * lhs
    live = (rhs > ZERO) & (scaled < 1.0 - ZERO)
    forcing = live & ((scaled <= ZERO) | (rhs >= 1.0 - ZERO))
    if forcing.any():
        return ExponentReport(math.inf, constant, members[int(np.argmax(forcing))],
                              grid_size=grid_size)
    idx = np.flatnonzero(live)
    if idx.size == 0:
        return ExponentReport(1.0, constant, degenerate=True, grid_size=grid_size)
    rough = np.log(scaled[idx]) / np.log(rhs[idx])
    idx = idx[rough >= rough.max() * (1.0 - SCREEN_SLACK)]
    ratios = _logs(scaled[idx]) / _logs(rhs[idx])
    k = int(np.argmax(ratios))
    return ExponentReport(float(ratios[k]), constant, members[int(idx[k])],
                          grid_size=grid_size)


def rho_min(pair: TransferPair, cls: HypothesisClass, c_rho: float = 1.0,
            grid=None) -> ExponentReport:
    """Smallest transfer exponent at constant c_rho: c_rho E_P(h) >= E_Q(h)^rho."""
    _check_constant("c_rho", c_rho)
    prof = pair_profile(pair, cls, grid)
    return _max_exponent(prof.e_p, prof.e_q, c_rho, prof.members, prof.grid_size)


def gamma_min(pair: TransferPair, cls: HypothesisClass, c_gamma: float = 1.0,
              grid=None) -> ExponentReport:
    """Smallest marginal transfer exponent: c_gamma P_X(h != h*_P) >= Q_X(h != h*_P)^gamma."""
    _check_constant("c_gamma", c_gamma)
    prof = pair_profile(pair, cls, grid)
    return _max_exponent(prof.dis_p, prof.dis_q, c_gamma, prof.members, prof.grid_size)


def rho_prime_min(pair: TransferPair, cls: HypothesisClass, c: float = 1.0,
                  grid=None) -> ExponentReport:
    """rho_min with the target excess clipped at the source-optimal classifier:
    max{R_Q(h) - R_Q(h*_P), 0} replaces E_Q(h)."""
    _check_constant("c", c)
    prof = pair_profile(pair, cls, grid)
    clipped = np.maximum(prof.risk_q - prof.risk_q[prof.star_p], 0.0)
    return _max_exponent(prof.e_p, clipped, c, prof.members, prof.grid_size)


def _min_noise_exponent(excess: np.ndarray, dis: np.ndarray, c_noise: float,
                        members, grid_size) -> ExponentReport:
    """beta_max's reduction: the first member with excess > 0 and dis >
    c_noise (1 + ZERO) violates beta = 0; otherwise the min of
    min(1, log(dis/c_noise)/log(excess)) over members with 0 < excess < 1 and
    dis > 0, taken as 0 where dis >= c_noise.  Ties go to the lowest index.
    Screened and rechecked as in `_max_exponent`, near the min."""
    dis = dis / c_noise
    violating = (excess > ZERO) & (dis > 1.0 + ZERO)
    if violating.any():
        return ExponentReport(0.0, c_noise, members[int(np.argmax(violating))],
                              satisfied=False, grid_size=grid_size)
    idx = np.flatnonzero((excess > ZERO) & (excess < 1.0 - ZERO) & (dis > ZERO))
    if idx.size == 0:
        return ExponentReport(1.0, c_noise, degenerate=True, grid_size=grid_size)
    d, e = dis[idx], excess[idx]
    rough = np.where(d < 1.0, np.minimum(1.0, np.log(d) / np.log(e)), 0.0)
    idx = idx[rough <= rough.min() * (1.0 + SCREEN_SLACK)]
    d, e = dis[idx], excess[idx]
    ratios = np.where(d < 1.0, np.minimum(1.0, _logs(d) / _logs(e)), 0.0)
    k = int(np.argmin(ratios))
    return ExponentReport(float(ratios[k]), c_noise, members[int(idx[k])],
                          grid_size=grid_size)


def beta_max(dist, cls: HypothesisClass, c_noise: float = 1.0, grid=None) -> ExponentReport:
    """Largest beta in [0, 1] with dis(h, h*) <= c_noise * excess(h)^beta.

    Takes one side of a pair (its own optimum anchors both quantities).
    Hypotheses with zero excess impose no constraint.  If some hypothesis
    violates the inequality even at beta = 0 the report carries value 0 with
    satisfied=False (null in its JSON); if no hypothesis constrains beta at
    all, value 1 with degenerate=True.
    """
    _check_constant("c_noise", c_noise)
    if isinstance(dist, TransferPair):
        raise TypeError("pass one side of the pair, not the pair itself")
    pair = TransferPair(dist, dist)
    prof = pair_profile(pair, cls, grid)
    return _min_noise_exponent(prof.e_p, prof.dis_p, c_noise, prof.members, prof.grid_size)


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

    The P-optimal member, of every finite class and every line grid, has
    E_P = 0, so it qualifies for every eps >= 0.
    """
    if not eps >= 0:
        raise ValueError("eps must be >= 0")
    prof = pair_profile(pair, cls, grid)
    mask = prof.e_p <= eps
    return float(np.max(np.abs(prof.e_p[mask] - prof.e_q[mask])))


@dataclass(eq=False)
class MembershipReport:
    """Per violated check ("transfer", "noise_p", "noise_q", in that order), the
    violating member indices in ascending order and their lhs and rhs; a check
    with no violation has no entry.  Member m is `cls[m]`."""

    violations: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]]

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_membership(pair: TransferPair, cls: HypothesisClass, rho: float,
                      beta_p: float, beta_q: float, constant: float,
                      grid=None, tol: float = 1e-9) -> MembershipReport:
    """Checks, for every enumerated h, the three defining inequalities of the
    constrained pair class: constant*E_P >= E_Q^rho, P-side noise condition at
    beta_p, Q-side noise condition at beta_q (both with the same constant).
    The report holds the violating members of each failed check with their lhs
    and rhs (`MembershipReport`).  The constant and rho must be positive and
    finite, each beta in [0, 1] and tol finite and >= 0."""
    _check_membership_params(rho, beta_p, beta_q, constant, tol)
    prof = pair_profile(pair, cls, grid)
    return MembershipReport(_violations(prof, rho, beta_p, beta_q, constant, tol))


def _check_membership_params(rho: float, beta_p: float, beta_q: float, constant: float,
                             tol: float) -> None:
    _check_constant("constant", constant)
    _check_tol(tol)
    if not 0 < rho < math.inf:
        raise ValueError(f"rho must be positive and finite, got {rho}")
    for name, beta in (("beta_p", beta_p), ("beta_q", beta_q)):
        if not 0 <= beta <= 1:
            raise ValueError(f"{name} must lie in [0, 1], got {beta}")


def _violations(prof: PairProfile, rho: float, beta_p: float, beta_q: float,
                constant: float, tol: float) -> dict:
    """Per violated check, in report order: the violating members in ascending
    order, and their lhs and rhs."""
    checks = (
        ("transfer", np.power(prof.e_q, rho), constant * prof.e_p),
        ("noise_p", prof.dis_p, constant * np.power(prof.e_p, beta_p)),
        ("noise_q", prof.dis_q_own, constant * np.power(prof.e_q, beta_q)),
    )
    out = {}
    for name, small, big in checks:
        bad = np.flatnonzero(small > big + tol)
        if bad.size:
            out[name] = (bad, small[bad], big[bad])
    return out


def _tie_points(family) -> np.ndarray:
    """The non-anchor points where flipping a sign need not flip the optimal
    label: on either side a zero weight mass * (1 - 2 eta) in some row (a zero
    mass or an eta of exactly 1/2), a weight whose magnitude differs across
    the rows by more than 2^-40 of itself (a margin at the rounding level of
    eta = 1/2), or a sign that is not +-1.  There the lowest-index argmin does
    not commute with flipping the member's bit."""
    ties = (np.abs(family.sigmas) != 1).any(axis=0)
    for mass, eta in ((family.mass_p, family.eta_p), (family.mass_q, family.eta_q)):
        w = np.abs(mass[1:] * (1.0 - 2.0 * eta[:, 1:]))
        lo, hi = w.min(axis=0), w.max(axis=0)
        ties |= (lo == 0) | (hi - lo > 2.0 ** -40 * hi)
    return ties


def verify_family(family, constant: float | None = None, tol: float = 1e-9,
                  rho: float | None = None, beta_p: float | None = None,
                  beta_q: float | None = None) -> list[MembershipReport]:
    """Membership check for every pair of a sign-indexed family, read from its eta rows:
    one `MembershipReport` per pair, in the family's order.

    Parameters default to the family's construction parameters; the constant
    defaults to 1 for single-scale and 2 for two-scale families.  Their ranges
    are `verify_membership`'s.

    Pairs share both masses and margins, and bit j of a member's index is its
    label on point j + 1, so flipping the signs in the bit mask f maps member m
    of one pair onto member m ^ f of the other.  A family without tie points
    (`_tie_points`) profiles pair 0 once, and pair i gets, per failed check,
    pair 0's violating members m read as m ^ f_i (re-sorted) and their lhs and
    rhs in that order; those agree with pair i's own profile up to rounding.
    A family with a tie point profiles every pair on its own, as
    `verify_membership` does.
    """
    p = family.params
    rho = p["rho"] if rho is None else rho
    beta_p = p["beta_p"] if beta_p is None else beta_p
    beta_q = p["beta_q"] if beta_q is None else beta_q
    if constant is None:
        constant = 1.0 if family.kind == "single-scale" else 2.0
    _check_membership_params(rho, beta_p, beta_q, constant, tol)

    # once for every pair: each eta row has its mass's shape (`_joint_arrays`)
    _refuse_off_support(family.cls, mass_p=family.mass_p, mass_q=family.mass_q)
    kernels = _finite_kernels(family.cls)

    def violations(i: int) -> dict:
        prof = _profile(family.cls, *kernels, (family.mass_p, family.eta_p[i]),
                        (family.mass_q, family.eta_q[i]))
        return _violations(prof, rho, beta_p, beta_q, constant, tol)

    if _tie_points(family).any():
        return [MembershipReport(violations(i)) for i in range(len(family))]
    codes = (family.sigmas < 0) @ (1 << np.arange(family.sigmas.shape[1]))
    flips = (codes ^ codes[0])[:, None]
    checks = {}  # per failed check, its (members, lhs, rhs) with one row per pair
    for name, (idx, lhs, rhs) in violations(0).items():
        order = np.argsort(idx ^ flips, axis=1)
        checks[name] = (idx[order] ^ flips, lhs[order], rhs[order])
    return [MembershipReport({name: (members[i], lhs[i], rhs[i])
                              for name, (members, lhs, rhs) in checks.items()})
            for i in range(len(family))]


def gamma_rho_chain_check(pair: TransferPair, cls: HypothesisClass,
                            c_gamma: float = 1.0, c_noise: float = 1.0,
                            grid=None, tol: float = 1e-9) -> dict:
    """Checks rho <= gamma / beta_P with the transfer constant c_gamma^(gamma/beta_P);
    tol must be finite and >= 0."""
    _check_tol(tol)
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

