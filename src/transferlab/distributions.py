"""Source/target distribution constructions with exact evaluation.

Provides finite-support joint distributions, the four benchmark threshold
scenarios on the line, and the two adversarial sign-indexed families used to
probe minimax behavior: a single-scale family (one noise/mass scale epsilon)
and a two-scale family (separate scales on two halves of the support).  All
quantities needed downstream (risks, excess risks, disagreement masses) have
closed forms, so experiments never estimate them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .hypotheses import (
    THRESHOLD,
    Hypothesis,
    HypothesisClass,
    LabeledSample,
    UnlabeledSample,
    _cube_patterns,
    finite_class,
    finite_hypothesis,
    full_cube_class,
    project_class,
    threshold_class,
)

MASS_TOL = 1e-12


def rng_from(seed, *path) -> np.random.Generator:
    """Deterministic child generator for (seed, path...) without state sharing."""
    return np.random.default_rng(np.random.SeedSequence((int(seed) & (2**64 - 1), *path)))


# ---------------------------------------------------------------------------
# finite-support joints


@dataclass(frozen=True)
class DiscreteJoint:
    """Joint distribution on a finite support: marginal mass and eta(x) = E[Y|x]."""

    support: np.ndarray  # coordinates of the support points
    mass: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        support = np.asarray(self.support, dtype=np.float64)
        mass = np.asarray(self.mass, dtype=np.float64)
        eta = np.asarray(self.eta, dtype=np.float64)
        if not (support.shape == mass.shape == eta.shape):
            raise ValueError("support, mass, eta must have equal length")
        if abs(mass.sum() - 1.0) > MASS_TOL:
            raise ValueError(f"mass sums to {mass.sum()!r}, not 1")
        if (mass < -MASS_TOL).any():
            raise ValueError("negative mass")
        if (eta < -MASS_TOL).any() or (eta > 1 + MASS_TOL).any():
            raise ValueError("eta outside [0, 1]")
        for name, arr in (("support", support), ("mass", np.maximum(mass, 0.0)),
                          ("eta", np.clip(eta, 0.0, 1.0))):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.mass.size)

    def bayes_labels(self) -> np.ndarray:
        return (self.eta > 0.5).astype(np.int8)


@dataclass(frozen=True)
class Density1D:
    """Closed-form 1-D density used by the line scenarios.

    forms: "uniform" on [lo, hi]; "left-uniform-right-power" with density 1/2 on
    [-1, 0] and (g/2) t^(g-1) on (0, 1]; "symmetric-power" with density
    (g/2) |t|^(g-1) on [-1, 1].
    """

    form: str
    lo: float = -1.0
    hi: float = 1.0
    g: float = 1.0

    def cdf(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=np.float64), self.lo, self.hi)
        if self.form == "uniform":
            return (x - self.lo) / (self.hi - self.lo)
        if self.form == "left-uniform-right-power":
            return np.where(x <= 0.0, (x + 1.0) / 2.0,
                            0.5 + 0.5 * np.abs(x) ** self.g)
        if self.form == "symmetric-power":
            return 0.5 + 0.5 * np.sign(x) * np.abs(x) ** self.g
        raise ValueError(f"unknown density form {self.form!r}")

    def ppf(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if self.form == "uniform":
            return self.lo + u * (self.hi - self.lo)
        if self.form == "left-uniform-right-power":
            return np.where(u <= 0.5, 2.0 * u - 1.0,
                            np.maximum(2.0 * u - 1.0, 0.0) ** (1.0 / self.g))
        if self.form == "symmetric-power":
            return np.sign(u - 0.5) * np.abs(2.0 * u - 1.0) ** (1.0 / self.g)
        raise ValueError(f"unknown density form {self.form!r}")

    def interval_mass(self, a: float, b: float) -> float:
        if b < a:
            a, b = b, a
        return float(self.cdf(b) - self.cdf(a))


def uniform_density(lo: float, hi: float) -> Density1D:
    return Density1D(form="uniform", lo=float(lo), hi=float(hi))


@dataclass(frozen=True)
class ThresholdMarginal:
    """One side of a line scenario: a marginal density plus noiseless labels
    y = 1[x <= h_star]."""

    density: Density1D
    h_star: float

    @property
    def lo(self):
        return self.density.lo

    @property
    def hi(self):
        return self.density.hi


@dataclass(frozen=True)
class Certified:
    """Discrepancy metadata known by construction for a pair."""

    rho: float | None = None
    c_rho: float | None = None
    gamma: float | None = None
    c_gamma: float | None = None
    beta_p: float | None = None
    beta_q: float | None = None
    c_p: float | None = None
    c_q: float | None = None

    JSON_KEYS = ("rho", "C_rho", "gamma", "C_gamma", "beta_P", "beta_Q", "c_P", "c_Q")

    def to_json_dict(self) -> dict:
        vals = (self.rho, self.c_rho, self.gamma, self.c_gamma,
                self.beta_p, self.beta_q, self.c_p, self.c_q)
        return {k: v for k, v in zip(self.JSON_KEYS, vals)}

    @classmethod
    def from_json_dict(cls, d: dict) -> "Certified":
        fields = ("rho", "c_rho", "gamma", "c_gamma", "beta_p", "beta_q", "c_p", "c_q")
        return cls(**{f: d.get(k) for f, k in zip(fields, cls.JSON_KEYS)})


@dataclass(frozen=True)
class TransferPair:
    """A source/target pair; sides are DiscreteJoint or ThresholdMarginal."""

    p: DiscreteJoint | ThresholdMarginal
    q: DiscreteJoint | ThresholdMarginal
    certified: Certified | None = None

    @property
    def discrete(self) -> bool:
        return isinstance(self.p, DiscreteJoint)


# ---------------------------------------------------------------------------
# sampling and exact risks


def sample_labeled(dist, n: int, seed: int) -> LabeledSample:
    """n i.i.d. labeled draws; x first, then y ~ Bernoulli(eta(x))."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rng = rng_from(seed)
    if isinstance(dist, DiscreteJoint):
        if n == 0:
            return LabeledSample(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), seed)
        xs = np.searchsorted(np.cumsum(dist.mass), rng.random(n), side="right")
        xs = np.minimum(xs, dist.size - 1).astype(np.int64)
        ys = (rng.random(n) < dist.eta[xs]).astype(np.int8)
        return LabeledSample(xs, ys, seed)
    if isinstance(dist, ThresholdMarginal):
        if n == 0:
            return LabeledSample(np.empty(0, dtype=np.float64), np.empty(0, dtype=np.int8), seed)
        xs = dist.density.ppf(rng.random(n))
        ys = (xs <= dist.h_star).astype(np.int8)
        return LabeledSample(xs, ys, seed)
    raise TypeError(f"cannot sample from {type(dist).__name__}")


def sample_unlabeled(dist, n: int, seed: int) -> UnlabeledSample:
    return UnlabeledSample(sample_labeled(dist, n, seed).xs, seed)


def _labels_on_support(h: Hypothesis, size: int, coords) -> np.ndarray:
    """Labels of h, as floats, over a support of `size` points at `coords`."""
    if h.labels is not None and len(h.labels) == size:
        return np.asarray(h.labels, dtype=np.float64)
    if h.threshold is not None and coords is not None:
        return (coords <= h.threshold).astype(np.float64)
    raise TypeError("hypothesis is not expressible over this support")


def true_risk(dist, h: Hypothesis) -> float:
    """Exact misclassification risk of h under the distribution."""
    if isinstance(dist, DiscreteJoint):
        labels = _labels_on_support(h, dist.size, dist.support)
        return float(np.dot(dist.mass, labels * (1.0 - dist.eta) + (1.0 - labels) * dist.eta))
    if isinstance(dist, ThresholdMarginal):
        if h.threshold is None:
            raise TypeError("line scenarios evaluate threshold hypotheses only")
        return abs(dist.density.interval_mass(h.threshold, dist.h_star))
    raise TypeError(f"cannot evaluate risk under {type(dist).__name__}")


def member_true_risks(joint: DiscreteJoint, cls: HypothesisClass) -> np.ndarray:
    """Exact risk of every member of a finite class, as one matrix product."""
    lab = cls.label_matrix
    w = joint.mass * (1.0 - 2.0 * joint.eta)
    return lab @ w + float(np.dot(joint.mass, joint.eta))


def member_disagreement_mass(joint: DiscreteJoint, cls: HypothesisClass,
                             ref: int) -> np.ndarray:
    """Marginal mass where each member disagrees with member `ref`, exactly."""
    lab = cls.label_matrix
    ref_lab = lab[ref]
    # 1[h != ref] = h + ref - 2 h ref, folded into one matrix-vector product
    return lab @ (joint.mass * (1.0 - 2.0 * ref_lab)) + float(np.dot(joint.mass, ref_lab))


def best_in_class(dist, cls: HypothesisClass) -> Hypothesis:
    """Exhaustive minimizer of the true risk; lowest index on ties."""
    if isinstance(dist, DiscreteJoint):
        if cls.kind == THRESHOLD:
            cls = project_class(cls, dist.support)
        return cls[int(np.argmin(member_true_risks(dist, cls)))]
    if isinstance(dist, ThresholdMarginal):
        return Hypothesis(kind=THRESHOLD, threshold=dist.h_star)
    raise TypeError(f"cannot optimize over {type(dist).__name__}")


def excess_risk(dist, h: Hypothesis, cls: HypothesisClass) -> float:
    return true_risk(dist, h) - true_risk(dist, best_in_class(dist, cls))


# ---------------------------------------------------------------------------
# packing and KL utilities


def vg_packing(d: int, seed: int = 0, target: int | None = None,
               max_tries: int | None = None) -> np.ndarray:
    """Greedy sign-vector packing with pairwise Hamming distance >= d/8.

    Starts from the all-ones vector and greedily admits seeded random
    candidates, so the output is deterministic given (d, seed).  Stops once
    `target` vectors are kept (default: the guaranteed 2^(d/8) + 1).
    """
    if d < 8:
        raise ValueError("packing construction needs d >= 8")
    need = int(math.floor(2.0 ** (d / 8.0))) + 1 if target is None else int(target)
    min_dist = d / 8.0
    rng = rng_from(seed, 0x9AC)
    kept = np.ones((1, d), dtype=np.int8)
    tries = 0
    cap = max_tries if max_tries is not None else 10_000 * need
    while kept.shape[0] < need:
        if tries >= cap:
            raise RuntimeError(f"packing stalled after {tries} candidates")
        batch = rng.integers(0, 2, size=(256, d)).astype(np.int8) * 2 - 1
        tries += 256
        for cand in batch:
            dist = (kept != cand).sum(axis=1)
            if (dist >= min_dist).all():
                kept = np.vstack([kept, cand])
                if kept.shape[0] >= need:
                    break
    kept.setflags(write=False)
    return kept


def kl_bernoulli(p: float, q: float) -> float:
    """KL(Ber(p) || Ber(q)); arguments must lie strictly inside (0, 1)."""
    if not (0.0 < p < 1.0 and 0.0 < q < 1.0):
        raise ValueError("kl_bernoulli needs p, q in the open interval (0, 1)")
    return p * math.log(p / q) + (1.0 - p) * math.log((1.0 - p) / (1.0 - q))


def chi2_bound(epsilon: float, z: int = 1) -> float:
    """Chi-square upper bound on KL(1/2 + (z/2) eps || 1/2 - (z/2) eps)."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if z not in (-1, 1):
        raise ValueError("z must be -1 or +1")
    p = 0.5 + (z / 2.0) * epsilon
    q = 0.5 - (z / 2.0) * epsilon
    return q * (1.0 - p / q) ** 2 + (1.0 - q) * (1.0 - (1.0 - p) / (1.0 - q)) ** 2


def _joint_kl(a: DiscreteJoint, b: DiscreteJoint) -> float:
    """Exact KL between two joints sharing a marginal (conditional KL only)."""
    if not np.array_equal(a.mass, b.mass):
        raise ValueError("joints must share the X marginal")
    total = 0.0
    for m, pa, pb in zip(a.mass, a.eta, b.eta):
        if m == 0.0 or pa == pb:
            continue
        if pa in (0.0, 1.0) or pb in (0.0, 1.0):
            return math.inf
        total += m * kl_bernoulli(pa, pb)
    return total


# ---------------------------------------------------------------------------
# sign-indexed hard families


@dataclass
class SigmaFamily:
    """Distribution pairs indexed by sign vectors, sharing both marginals.

    Every pair's optimal classifier labels the anchor point x_0 as 1; the
    accompanying class enumerates exactly the label patterns with that anchor
    fixed, which is the class all certification brute force runs over.
    """

    sigmas: np.ndarray  # (K, d) entries in {-1, +1}
    pairs: list[TransferPair]
    cls: HypothesisClass
    params: dict
    kind: str  # "single-scale" | "two-scale"

    def __len__(self) -> int:
        return len(self.pairs)

    def bayes(self, i: int) -> Hypothesis:
        labels = (1,) + tuple(int(s > 0) for s in self.sigmas[i])
        return finite_hypothesis(labels)

    def sigma_index(self, which="all-ones") -> int:
        """Index of a sign vector: "all-ones", an integer, or an explicit vector."""
        if isinstance(which, str):
            if which != "all-ones":
                raise ValueError(f"unknown sigma selector {which!r}")
            hits = np.flatnonzero((self.sigmas == 1).all(axis=1))
            if hits.size == 0:
                raise ValueError("family does not contain the all-ones vector")
            return int(hits[0])
        if isinstance(which, (int, np.integer)):
            return int(which)
        target = np.asarray(which, dtype=np.int8)
        hits = np.flatnonzero((self.sigmas == target).all(axis=1))
        if hits.size == 0:
            raise ValueError("sign vector not present in the family")
        return int(hits[0])


def _anchored_cube_class(d: int, coords: np.ndarray) -> HypothesisClass:
    """All label patterns over x_0..x_d with x_0 fixed to 1.

    Certification runs a sup over this whole class, so family construction is
    capped where exhaustive enumeration stays desk-scale.
    """
    if d > 14:
        raise ValueError("families need d_h - 1 <= 14: certification enumerates "
                         f"all 2^d anchored patterns and d = {d} is too large")
    patterns = np.ones((2 ** d, d + 1), dtype=np.int64)
    patterns[:, 1:] = _cube_patterns(d)
    return finite_class(patterns, vc_dim=d, support_coords=coords)


def _family_sigmas(d: int, sigmas, seed: int, max_enumerate: int = 10,
                   packing_size: int = 64) -> np.ndarray:
    if sigmas is not None:
        arr = np.asarray(sigmas, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[1] != d or not np.isin(arr, (-1, 1)).all():
            raise ValueError("sigmas must be sign vectors of length d")
        return arr
    if d <= max_enumerate:
        return _cube_patterns(d).astype(np.int8) * 2 - 1
    return vg_packing(d, seed=seed, target=min(packing_size, 2 ** d))


def build_single_scale_family(d_h: int, rho: float, beta_p: float, beta_q: float,
                              epsilon: float, sigmas=None, seed: int = 0) -> SigmaFamily:
    """Hard pairs on d_h points with one scale epsilon.

    Q puts mass 1 - eps^beta_q on the anchor and eps^beta_q / d on each other
    point, with labels eta = 1/2 + (sigma_i/2) eps^(1-beta_q) there; P uses the
    same template with eps^(rho beta_p) masses and eps^(rho(1-beta_p)) label
    margins.  By construction the pair admits transfer exponent rho with
    constant 1 and noise exponents (beta_p, beta_q) with constants 1.
    """
    d = d_h - 1
    if d < 8:
        raise ValueError("need d_h - 1 >= 8")
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if rho < 1.0:
        raise ValueError("rho must be >= 1")
    if not (0.0 <= beta_p <= 1.0 and 0.0 <= beta_q <= 1.0):
        raise ValueError("beta_p, beta_q must lie in [0, 1]")
    sigmas = _family_sigmas(d, sigmas, seed)
    coords = np.arange(d + 1, dtype=np.float64)
    cls = _anchored_cube_class(d, coords)

    mass_q = np.full(d + 1, epsilon ** beta_q / d)
    mass_q[0] = 1.0 - epsilon ** beta_q
    mass_p = np.full(d + 1, epsilon ** (rho * beta_p) / d)
    mass_p[0] = 1.0 - epsilon ** (rho * beta_p)
    margin_q = epsilon ** (1.0 - beta_q)
    margin_p = epsilon ** (rho * (1.0 - beta_p))

    gamma = rho * beta_p / beta_q if beta_q > 0 else None
    certified = Certified(
        rho=rho, c_rho=1.0,
        gamma=gamma if gamma is not None and gamma >= 1.0 else None,
        c_gamma=1.0 if gamma is not None and gamma >= 1.0 else None,
        beta_p=beta_p, beta_q=beta_q, c_p=1.0, c_q=1.0)

    pairs = []
    for sig in sigmas:
        eta_q = np.empty(d + 1)
        eta_q[0] = 1.0
        eta_q[1:] = 0.5 + (sig / 2.0) * margin_q
        eta_p = np.empty(d + 1)
        eta_p[0] = 1.0
        eta_p[1:] = 0.5 + (sig / 2.0) * margin_p
        pairs.append(TransferPair(
            p=DiscreteJoint(coords, mass_p, eta_p),
            q=DiscreteJoint(coords, mass_q, eta_q),
            certified=certified))
    params = dict(d_h=d_h, rho=rho, beta_p=beta_p, beta_q=beta_q, epsilon=epsilon)
    return SigmaFamily(sigmas=sigmas, pairs=pairs, cls=cls, params=params,
                       kind="single-scale")


def default_tau(gamma: float) -> float:
    return max(0.5, 0.5 ** (1.0 / gamma))


def build_two_scale_family(d_h: int, rho: float, beta_p: float, beta_q: float,
                           eps1: float, eps2: float, tau: float | None = None,
                           sigmas=None, seed: int = 0) -> SigmaFamily:
    """Hard pairs with two scales on the two halves of the support.

    The support splits into blocks I1, I2 of size d/2.  Q uses scale eps1^beta_q
    masses with eps1^(1-beta_q) margins on I1, and (eps2/tau)/d masses with
    margin tau on I2; P mirrors this with gamma = rho * beta_p controlling its
    masses.  The pair has marginal transfer exponent gamma with constant 2 and
    noise constants (1, 2).
    """
    for name, e in (("eps1", eps1), ("eps2", eps2)):
        if not 0.0 < e <= 0.5:
            raise ValueError(f"{name} must lie in (0, 1/2]")
    if not (0.0 < beta_p < 1.0 and 0.0 < beta_q < 1.0):
        raise ValueError("beta_p, beta_q must lie in (0, 1)")
    if rho < max(1.0 / beta_p, 1.0 / beta_q):
        raise ValueError("rho must be >= max(1/beta_p, 1/beta_q)")
    gamma = rho * beta_p
    if tau is None:
        tau = default_tau(gamma)
    if not default_tau(gamma) - 1e-12 <= tau < 1.0:
        raise ValueError("tau must lie in [max(1/2, (1/2)^(1/gamma)), 1)")
    d = d_h - 1
    if d % 2:
        d -= 1
    if d < 4:
        raise ValueError("need at least 4 usable support points")
    half = d // 2
    sigmas = _family_sigmas(d, sigmas, seed)
    coords = np.arange(d + 1, dtype=np.float64)
    cls = _anchored_cube_class(d, coords)

    mass_q = np.empty(d + 1)
    mass_q[0] = 1.0 - 0.5 * (eps1 ** beta_q + eps2 / tau)
    mass_q[1:half + 1] = eps1 ** beta_q / d
    mass_q[half + 1:] = (eps2 / tau) / d
    mass_p = np.empty(d + 1)
    mass_p[0] = 1.0 - 0.5 * (eps1 ** (gamma * beta_q) + eps2 ** gamma)
    mass_p[1:half + 1] = eps1 ** (gamma * beta_q) / d
    mass_p[half + 1:] = eps2 ** gamma / d
    margin_q = np.concatenate([np.full(half, eps1 ** (1.0 - beta_q)),
                               np.full(half, tau)])
    margin_p = np.concatenate([np.full(half, eps1 ** ((1.0 - beta_p) * rho * beta_q)),
                               np.full(half, eps2 ** ((1.0 - beta_p) * rho))])

    certified = Certified(rho=rho, c_rho=1.0, gamma=gamma, c_gamma=2.0,
                          beta_p=beta_p, beta_q=beta_q, c_p=1.0, c_q=2.0)
    pairs = []
    for sig in sigmas:
        eta_q = np.concatenate([[1.0], 0.5 + (sig / 2.0) * margin_q])
        eta_p = np.concatenate([[1.0], 0.5 + (sig / 2.0) * margin_p])
        pairs.append(TransferPair(
            p=DiscreteJoint(coords, mass_p, eta_p),
            q=DiscreteJoint(coords, mass_q, eta_q),
            certified=certified))
    params = dict(d_h=d_h, rho=rho, beta_p=beta_p, beta_q=beta_q,
                  eps1=eps1, eps2=eps2, tau=tau, gamma=gamma)
    return SigmaFamily(sigmas=sigmas, pairs=pairs, cls=cls, params=params,
                       kind="two-scale")


def epsilon_schedule(n_p: float, n_q: float, d_h: int, rho: float,
                     beta_p: float, beta_q: float, c1: float = 1.0) -> float:
    """Scale at which the single-scale family is hardest for (n_p, n_q).

    Callers pick the multiplier c1 themselves; values above make the family
    invalid (scale must stay <= 1/2) and are clipped.
    """
    term_p = (d_h / n_p) ** (1.0 / ((2.0 - beta_p) * rho)) if n_p > 0 else math.inf
    term_q = (d_h / n_q) ** (1.0 / (2.0 - beta_q)) if n_q > 0 else math.inf
    eps = c1 * min(term_p, term_q)
    return min(eps, 0.5)


def kl_product(family: SigmaFamily, i: int, j: int, n_p: int, n_q: int) -> float:
    """Exact KL between the (sample-size powered) product measures of pairs i, j."""
    if i == j:
        return 0.0
    a, b = family.pairs[i], family.pairs[j]
    return n_p * _joint_kl(a.p, b.p) + n_q * _joint_kl(a.q, b.q)


# ---------------------------------------------------------------------------
# benchmark scenarios


def example_scenario(sid: int, gamma: float | None = None, n_angles: int = 16,
                     radii: tuple[float, float] = (1.0, 0.5)):
    """The four benchmark scenarios.

    1: disjoint concentric rings with halfplane labels (finite surrogate of the
       non-overlapping-supports example); returns (TransferPair, class).
    2: P uniform on [0, 2], Q uniform on [0, 1], threshold at 1/2.
    3: P density ~ t^(gamma-1) right of the optimum (gamma >= 1), Q uniform.
    4: P density ~ |t|^(gamma-1) around the optimum (0 < gamma < 1), Q uniform.
    Scenarios 2-4 return a TransferPair of two ThresholdMarginals sharing
    the optimal threshold.
    """
    if sid == 1:
        return _ring_surrogate(n_angles, radii)
    if sid == 2:
        cert = Certified(rho=1.0, c_rho=2.0, gamma=1.0, c_gamma=2.0,
                         beta_p=1.0, beta_q=1.0, c_p=1.0, c_q=1.0)
        return TransferPair(ThresholdMarginal(uniform_density(0.0, 2.0), 0.5),
                            ThresholdMarginal(uniform_density(0.0, 1.0), 0.5), cert)
    if sid == 3:
        if gamma is None or gamma < 1.0:
            raise ValueError("scenario 3 needs gamma >= 1")
        cert = Certified(rho=gamma, c_rho=1.0, gamma=gamma, c_gamma=1.0,
                         beta_p=1.0, beta_q=1.0, c_p=1.0, c_q=1.0)
        return TransferPair(
            ThresholdMarginal(Density1D(form="left-uniform-right-power", g=gamma), 0.0),
            ThresholdMarginal(uniform_density(-1.0, 1.0), 0.0), cert)
    if sid == 4:
        if gamma is None or not 0.0 < gamma < 1.0:
            raise ValueError("scenario 4 needs 0 < gamma < 1")
        c = 2.0 ** (1.0 - gamma)
        cert = Certified(rho=gamma, c_rho=c, gamma=gamma, c_gamma=c,
                         beta_p=1.0, beta_q=1.0, c_p=1.0, c_q=1.0)
        return TransferPair(ThresholdMarginal(Density1D(form="symmetric-power", g=gamma), 0.0),
                            ThresholdMarginal(uniform_density(-1.0, 1.0), 0.0), cert)
    raise ValueError("scenario id must be one of 1, 2, 3, 4")


def _ring_surrogate(n_angles: int, radii: tuple[float, float]):
    if n_angles < 4 or n_angles % 2:
        raise ValueError("ring surrogate needs an even number of angles >= 4")
    k = n_angles
    theta = 2.0 * np.pi * (np.arange(k) + 0.5) / k
    labels_star = (np.cos(theta) > 0.0).astype(int)
    # outer ring indices 0..k-1 (P support), inner ring k..2k-1 (Q support)
    coords = np.concatenate([theta, theta])  # angle doubles as the coordinate
    mass_p = np.concatenate([np.full(k, 1.0 / k), np.zeros(k)])
    mass_q = np.concatenate([np.zeros(k), np.full(k, 1.0 / k)])
    eta = np.concatenate([labels_star, labels_star]).astype(np.float64)
    # half-plane m (normal at angle 2 pi m / k) and its flip, both rings alike;
    # the rows run m-major and repeats keep their first occurrence
    cos = np.cos(theta[None, :] - (2.0 * np.pi * np.arange(k) / k)[:, None])
    lab = np.stack([cos > 0.0, -cos > 0.0], axis=1).reshape(2 * k, k)
    first = np.sort(np.unique(lab, axis=0, return_index=True)[1])
    cls = finite_class(np.tile(lab[first], 2), vc_dim=2, support_coords=coords)
    cert = Certified(rho=1.0, c_rho=1.0, gamma=1.0, c_gamma=1.0,
                     beta_p=1.0, beta_q=1.0, c_p=1.0, c_q=1.0)
    pair = TransferPair(DiscreteJoint(coords, mass_p, eta),
                        DiscreteJoint(coords, mass_q, eta), cert)
    return pair, cls


def rcs_violating_pair(gap: float = 0.15):
    """Two-point pair whose source-optimal classifier has target excess `gap`.

    P is noisy enough at the second point that labeling it 1 is P-optimal,
    while Q labels it 0 noiselessly; the target-best classifier keeps excess 0.
    Returns (TransferPair, class) with the full four-member class.
    """
    if not 0.0 < gap < 0.5:
        raise ValueError("gap must lie in (0, 1/2)")
    coords = np.array([0.0, 1.0])
    q = DiscreteJoint(coords, np.array([1.0 - gap, gap]), np.array([1.0, 0.0]))
    p = DiscreteJoint(coords, np.array([0.5, 0.5]), np.array([1.0, 0.8]))
    cls = full_cube_class(2, support_coords=coords)
    return TransferPair(p, q, certified=None), cls


def discretize_pair(pair: TransferPair, cells: int) -> tuple[TransferPair, HypothesisClass]:
    """Exact finite-support version of a line scenario on equal-width cells.

    Cell masses come from the closed-form CDFs; labels are the optimal
    threshold's labels at the cell centers.  The accompanying class is the
    threshold class projected onto the centers.
    """
    if pair.discrete:
        raise TypeError("pair is already discrete")
    p, q = pair.p, pair.q
    lo = min(p.lo, q.lo)
    hi = max(p.hi, q.hi)
    edges = np.linspace(lo, hi, cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])
    mass_p = np.diff(p.density.cdf(edges))
    mass_q = np.diff(q.density.cdf(edges))
    mass_p = mass_p / mass_p.sum()
    mass_q = mass_q / mass_q.sum()
    eta = (centers <= p.h_star).astype(np.float64)
    joint_p = DiscreteJoint(centers, mass_p, eta)
    joint_q = DiscreteJoint(centers, mass_q, eta)
    cls = project_class(threshold_class(), centers)
    return TransferPair(joint_p, joint_q, pair.certified), cls


# ---------------------------------------------------------------------------
# scenario document io


def scenario_to_dict(pair: TransferPair) -> dict:
    if not pair.discrete:
        raise TypeError("only finite-support pairs serialize; discretize first")
    if not np.array_equal(pair.p.support, pair.q.support):
        raise ValueError("pair sides must share a support")
    return {
        "support": pair.p.support.tolist(),
        "mass_p": pair.p.mass.tolist(),
        "eta_p": pair.p.eta.tolist(),
        "mass_q": pair.q.mass.tolist(),
        "eta_q": pair.q.eta.tolist(),
        "certified": None if pair.certified is None else pair.certified.to_json_dict(),
    }


def scenario_from_dict(doc: dict) -> TransferPair:
    required = {"support", "mass_p", "eta_p", "mass_q", "eta_q", "certified"}
    unknown = set(doc) - required
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"missing scenario fields: {sorted(missing)}")
    support = np.asarray(doc["support"], dtype=np.float64)
    cert = None if doc["certified"] is None else Certified.from_json_dict(doc["certified"])
    return TransferPair(
        p=DiscreteJoint(support, doc["mass_p"], doc["eta_p"]),
        q=DiscreteJoint(support, doc["mass_q"], doc["eta_q"]),
        certified=cert)


def save_scenario(path, pair: TransferPair) -> None:
    with open(path, "w") as fh:
        json.dump(scenario_to_dict(pair), fh, indent=1)
        fh.write("\n")


def load_scenario(path) -> TransferPair:
    with open(path) as fh:
        return scenario_from_dict(json.load(fh))
