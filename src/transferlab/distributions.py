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
import numbers
import operator
from collections.abc import Sequence
from dataclasses import astuple, dataclass
from functools import cache, cached_property

import numpy as np

from .hypotheses import (
    THRESHOLD,
    Hypothesis,
    HypothesisClass,
    LabeledSample,
    SampleCounts,
    UnlabeledSample,
    _MAX_DRAWS,
    _count,
    _cube_patterns,
    _matvec,
    _row,
    _support_size,
    finite_class,
    finite_hypothesis,
    full_cube_class,
    project_class,
    project_onto_support,
    threshold_class,
)

MASS_TOL = 1e-12


def rng_from(seed, *path) -> np.random.Generator:
    """The generator of (seed, *path): every distinct (seed mod 2^64, path)
    has its own stream, whatever the length of the path or of its entries.
    `SeedSequence` reads the entropy as 32-bit words and pads fewer than four
    with zeros; `_seed_words` prefixes each value with its word count, so no
    two keys give the same words, padded or not.  numpy's PCG64 is seeded,
    through `_Words`, from `_pcg_state`, the words its `SeedSequence` gives."""
    return np.random.Generator(np.random.PCG64(_Words(np.array(_pcg_state(seed, path),
                                                               dtype=np.uint64))))


def derive_seed(seed, *path, bits: int = 62) -> int:
    """`int(rng_from(seed, *path).integers(2 ** bits))`, for an integer
    32 < bits < 64, without a `Generator`.  For a power-of-two range numpy's
    bounded draw (Lemire's method) returns the top `bits` bits of the first
    raw PCG64 output: here `_first_raws`'s seeding, step and XSL-RR run on
    128-bit Python ints from the words of `_pcg_state`."""
    bits = _count("bits", bits)
    if not 32 < bits < 64:
        raise ValueError(f"bits must lie in (32, 64), got {bits}")
    w0, w1, w2, w3 = _pcg_state(seed, path)
    inc = (w2 << 64 | w3) << 1 | 1
    state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) * _PCG_MULT + inc & _MASK128
    hi, lo = state >> 64, state & _MASK64
    x, rot = hi ^ lo, hi >> 58
    return (x >> rot | x << (64 - rot) & _MASK64) >> (64 - bits)


def _pcg_state(seed, path) -> list[int]:
    """`SeedSequence(_seed_words(seed, path)).generate_state(4, np.uint64)` as
    Python ints: numpy mixes the pool, and `_pcg_seeds`'s hashes run here."""
    pool = np.random.SeedSequence(_seed_words(seed, path)).pool.tolist()
    h = [(v := (pool[i] ^ x) * m & 0xFFFFFFFF) ^ v >> 16 for i, x, m in _OUT_HASHES]
    return [h[0] | h[1] << 32, h[2] | h[3] << 32, h[4] | h[5] << 32, h[6] | h[7] << 32]


def _seed_words(seed, path) -> np.ndarray:
    """`_key_words(seed, path)` as a uint32 array, `SeedSequence`'s entropy."""
    return np.array(_key_words(seed, path), dtype=np.uint32)


def _key_words(seed, path) -> list[int]:
    """(seed mod 2^64, *path) as 32-bit words: each value as its number of
    32-bit words, then those words, least significant first (one word for a
    value below 2^32, zero included).  The counts make the words decodable,
    so distinct keys give distinct words, and no word count is 0, so padding
    with zeros makes no key's words another's.  The seed is any integer; a
    negative path entry raises ValueError, as it does in `SeedSequence`."""
    words = []
    for v in (_count("seed", seed, -math.inf) & _MASK64, *map(operator.index, path)):
        if v < 0:
            raise ValueError(f"rng path entries must be >= 0, got {v}")
        value = [v & 0xFFFFFFFF]
        while v := v >> 32:
            value.append(v & 0xFFFFFFFF)
        words += (len(value), *value)
    return words


# numpy's `SeedSequence` mixing constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
# `generate_state`'s 8 output hashes: hash k reads pool word k & 3, XORs it
# with init_B mult_B^k and multiplies by init_B mult_B^(k + 1), mod 2^32
_OUT_HASHES = tuple((k & 3, _INIT_B * _MULT_B ** k & 0xFFFFFFFF,
                     _INIT_B * _MULT_B ** (k + 1) & 0xFFFFFFFF) for k in range(8))
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK64, _MASK128 = 2 ** 64 - 1, 2 ** 128 - 1
_SHIFT = np.uint32(16)
_WORD, _HALF = np.uint64(0xFFFFFFFF), np.uint64(32)


def _stream_batch(seeds) -> list[np.random.PCG64]:
    """The PCG64 that `rng_from(seed)` runs on, bit for bit, for each of the
    uint64 `seeds`, numpy seeding each from its `_pcg_seeds` words (through
    `_Words`).  A seed's key words are [1 + (high > 0), low, high, 0]: for a
    seed below 2^32 that is [1, low] with `SeedSequence`'s zero padding.  The
    fixed cost of the array work makes this the route for a batch of seeds
    only: one seed is faster through `rng_from`."""
    words = np.zeros((len(seeds), 4), dtype=np.uint32)
    words[:, 1], words[:, 2] = seeds & _WORD, seeds >> _HALF
    words[:, 0] = 1 + (words[:, 2] > 0)
    return [np.random.PCG64(_Words(w)) for w in _pcg_seeds(_pool(words))]


class _Words(np.random.bit_generator.ISeedSequence):
    """One key's `generate_state(4, uint64)`, the C-contiguous words that
    `SeedSequence` would return, for numpy to seed a PCG64 from.  PCG64 reads
    the array's memory as it is, so no other request is served."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        # numpy's PCG64 asks for the np.uint64 class itself
        if n_words != 4 or (dtype is not np.uint64 and np.dtype(dtype) != np.uint64):
            raise ValueError(f"holds 4 uint64 words only, asked for {n_words} {np.dtype(dtype)}")
        return self.words


def _derived_seeds(seed, cell_key, trials: int, sides) -> np.ndarray:
    """`derive_seed(seed, cell_key, t, side)` for each side of `sides` and,
    within it, each trial t < `trials` < 2^32, as a uint64 array: the top 62
    bits of each key's first raw PCG64 output (`_first_raws`), with no PCG64
    built.  The head (seed, cell_key), of at least 4 words, is mixed once by
    numpy's `SeedSequence`, and each key mixes its words [1, t, 1, side] on
    from the head's pool."""
    head = _key_words(seed, (cell_key,))
    words = np.ones((len(sides) * trials, 4), dtype=np.uint32)
    words[:, 1] = np.tile(np.arange(trials, dtype=np.uint32), len(sides))
    words[:, 3] = np.repeat(np.array(sides, dtype=np.uint32), trials)
    pool = _pool(words, np.random.SeedSequence(np.array(head, dtype=np.uint32)).pool, len(head))
    return _first_raws(_pcg_seeds(pool)) >> np.uint64(2)


# PCG64's 128-bit multiplier, and its high and low words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MULT_WORDS = np.uint64(_PCG_MULT >> 64), np.uint64(_PCG_MULT & _MASK64)
_ONE, _63, _64, _ROT = np.uint64(1), np.uint64(63), np.uint64(64), np.uint64(58)


def _first_raws(words: np.ndarray) -> np.ndarray:
    """The first `random_raw()` of `PCG64(_Words(w))` for each row w of the
    (T, 4) uint64 seed words, on arrays.  PCG64 seeds itself from the 128-bit
    initstate (w0, w1) and initseq (w2, w3), high word first: state 0,
    inc = 2 initseq + 1, a step, initstate added, a step; a raw draw steps
    once more and outputs XSL-RR, the state's two words XORed and rotated
    right by its top 6 bits.  A 128-bit value is its (high, low) uint64 words,
    and every operand stays `np.uint64`, so numpy 1.24 casts as numpy 2 does."""
    w0, w1, w2, w3 = words.T
    inc = (w2 << _ONE) | (w3 >> _63), (w3 << _ONE) | _ONE
    state = _pcg_step(*_add128(*inc, w0, w1), *inc)  # 0 * mult + inc is inc
    hi, lo = _pcg_step(*state, *inc)
    x, rot = hi ^ lo, hi >> _ROT
    return (x >> rot) | (x << ((_64 - rot) & _63))


def _add128(a_hi, a_lo, b_hi, b_lo):
    """(a + b) mod 2^128 on (high, low) uint64 words."""
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo), lo


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * mult + inc mod 2^128, on (high, low) words: the
    low words' 128-bit product is built from their 32-bit halves."""
    m_hi, m_lo = _MULT_WORDS
    l1, l0, m1, m0 = lo >> _HALF, lo & _WORD, m_lo >> _HALF, m_lo & _WORD
    low, cross_l, cross_m = l0 * m0, l1 * m0, l0 * m1
    mid = (low >> _HALF) + (cross_l & _WORD) + (cross_m & _WORD)
    lo_hi = l1 * m1 + (cross_l >> _HALF) + (cross_m >> _HALF) + (mid >> _HALF)
    return _add128(hi * m_lo + lo * m_hi + lo_hi, lo * m_lo, inc_hi, inc_lo)


@cache
def _hash_consts(init: int, mult: int, count: int) -> np.ndarray:
    """The `count` + 1 hash constants init * mult^k mod 2^32, k = 0..count:
    the k-th hash of a mixing pass XORs with the k-th and multiplies by the
    next, whatever the data."""
    consts = [init]
    for _ in range(count):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)
    consts.setflags(write=False)
    return consts


def _hashmix(v: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    v = (v ^ xor) * mult
    return v ^ (v >> _SHIFT)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
    return r ^ (r >> _SHIFT)


def _pool(words: np.ndarray, start=None, mixed: int = 0) -> np.ndarray:
    """`SeedSequence`'s 4-word pool for each row of the (T, W) uint32 words.
    With no `start`, a row is a key's 4 words, hashed in, then each pool word
    mixed into every other.  Otherwise `start` is the pool of the `mixed` >= 4
    words the rows share (`SeedSequence(head).pool`), and each of a row's
    words is mixed into every pool word, hashed on from the constant that
    follows the shared words'."""
    if start is None:
        a = _hash_consts(_INIT_A, _MULT_A, 16)
        pool = _hashmix(words, a[0:4], a[1:5])
        for src in range(4):
            dst, k = [d for d in range(4) if d != src], 4 + 3 * src
            pool[:, dst] = _mix(pool[:, dst], _hashmix(pool[:, src:src + 1], a[k:k + 3],
                                                      a[k + 1:k + 4]))
        return pool
    at = 16 + 4 * (mixed - 4)
    a = _hash_consts(_INIT_A, _MULT_A, at + 4 * words.shape[1])
    extra = _hashmix(np.repeat(words, 4, axis=1), a[at:-1], a[at + 1:])
    pool = np.broadcast_to(start, (len(words), 4))
    for i in range(0, extra.shape[1], 4):
        pool = _mix(pool, extra[:, i:i + 4])
    return pool


def _pcg_seeds(pool: np.ndarray) -> np.ndarray:
    """`generate_state(4, uint64)` of each pool row, as a (T, 4) uint64
    array: the words PCG64 seeds itself from."""
    b = _hash_consts(_INIT_B, _MULT_B, 8)
    w = _hashmix(np.tile(pool, 2), b[:8], b[1:]).astype(np.uint64)
    return w[:, 0::2] | (w[:, 1::2] << _HALF)


# ---------------------------------------------------------------------------
# finite-support joints


@dataclass(frozen=True, eq=False)
class DiscreteJoint:
    """Joint distribution on a finite support: marginal mass and eta(x) = E[Y|x]."""

    support: np.ndarray  # coordinates of the support points
    mass: np.ndarray
    eta: np.ndarray

    def __post_init__(self):
        support, mass, (eta,) = _joint_arrays(self.support, self.mass, [self.eta])
        self._set(support, mass, eta)

    @classmethod
    def _trusted(cls, support, mass, eta) -> "DiscreteJoint":
        """A joint over arrays `_joint_arrays` already checked, clipped and
        froze (a `SigmaFamily`'s rows), built without the check: the
        library's only path past it."""
        joint = cls.__new__(cls)
        joint._set(support, mass, eta)
        return joint

    def _set(self, support, mass, eta) -> None:
        for name, arr in (("support", support), ("mass", mass), ("eta", eta)):
            object.__setattr__(self, name, arr)

    @property
    def size(self) -> int:
        return int(self.mass.size)

    @cached_property
    def cell_probs(self) -> np.ndarray:
        """The normalized probabilities of the 2s cells (x, 0), (x, 1) in
        support order, mass * (1 - eta) and mass * eta: one labeled draw's
        multinomial, built once per joint and read-only.  The cells' layout
        is the one `SampleCounts._of_cells` reads."""
        p = np.column_stack((self.mass * (1.0 - self.eta), self.mass * self.eta)).ravel()
        p = p / p.sum()
        p.setflags(write=False)
        return p


def _joint_arrays(support, mass, etas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Check, clip and freeze the arrays of joints that share `support` and
    `mass`, one joint per row of the (K, s) matrix `etas`.  The ValueError names
    the first fault: shapes, a non-finite entry (by flat index), the mass sum or
    sign, an eta outside [0, 1], each beyond MASS_TOL."""
    support, mass, etas = (np.asarray(a, dtype=np.float64) for a in (support, mass, etas))
    if not (etas.ndim == 2 and support.shape == mass.shape == etas.shape[1:]):
        raise ValueError("support, mass, eta must have equal length")
    for name, arr in (("support", support), ("mass", mass), ("eta", etas)):
        bad = np.flatnonzero(~np.isfinite(arr))
        if bad.size:
            raise ValueError(f"{name}[{bad[0]}] is {arr.flat[bad[0]]}, not a finite number")
    if abs(mass.sum() - 1.0) > MASS_TOL:
        raise ValueError(f"mass sums to {mass.sum()!r}, not 1")
    if (mass < -MASS_TOL).any():
        raise ValueError("negative mass")
    if (etas < -MASS_TOL).any() or (etas > 1 + MASS_TOL).any():
        raise ValueError("eta outside [0, 1]")
    arrays = support, np.maximum(mass, 0.0), np.clip(etas, 0.0, 1.0)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@dataclass(frozen=True)
class Density1D:
    """Closed-form 1-D density used by the line scenarios.

    forms: "uniform" on [lo, hi]; "left-uniform-right-power" with density 1/2 on
    [-1, 0] and (g/2) t^(g-1) on (0, 1]; "symmetric-power" with density
    (g/2) |t|^(g-1) on [-1, 1].  Fields the closed forms do not describe (a
    non-finite bound or g, lo >= hi, a power form's g <= 0 or bounds other
    than [-1, 1]) raise a ValueError naming the field when built.
    """

    form: str
    lo: float = -1.0
    hi: float = 1.0
    g: float = 1.0

    def __post_init__(self):
        if self.form not in ("uniform", "left-uniform-right-power", "symmetric-power"):
            raise ValueError(f"unknown density form {self.form!r}")
        for name in ("lo", "hi", "g"):
            if not math.isfinite(value := getattr(self, name)):
                raise ValueError(f"{name} is {value!r}, not a finite number")
        if not self.lo < self.hi:
            raise ValueError(f"hi must exceed lo, got lo {self.lo!r} and hi {self.hi!r}")
        if self.form != "uniform":
            if (self.lo, self.hi) != (-1.0, 1.0):
                raise ValueError(f"a {self.form} density lies on [-1, 1]: lo and hi must be "
                                 f"-1 and 1, got {self.lo!r} and {self.hi!r}")
            if not self.g > 0.0:
                raise ValueError(f"g must be > 0 for a {self.form} density, got {self.g!r}")

    def cdf(self, x) -> np.ndarray:
        x = np.clip(np.asarray(x, dtype=np.float64), self.lo, self.hi)
        if self.form == "uniform":
            return (x - self.lo) / (self.hi - self.lo)
        if self.form == "left-uniform-right-power":
            return np.where(x <= 0.0, (x + 1.0) / 2.0,
                            0.5 + 0.5 * np.abs(x) ** self.g)
        return 0.5 + 0.5 * np.sign(x) * np.abs(x) ** self.g

    def ppf(self, u) -> np.ndarray:
        u = np.asarray(u, dtype=np.float64)
        if self.form == "uniform":
            return self.lo + u * (self.hi - self.lo)
        if self.form == "left-uniform-right-power":
            return np.where(u <= 0.5, 2.0 * u - 1.0,
                            np.maximum(2.0 * u - 1.0, 0.0) ** (1.0 / self.g))
        return np.sign(u - 0.5) * np.abs(2.0 * u - 1.0) ** (1.0 / self.g)

    def interval_mass(self, a, b) -> np.ndarray:
        """The mass between a and b, in either order; elementwise over arrays."""
        return np.abs(self.cdf(b) - self.cdf(a))


def uniform_density(lo: float, hi: float) -> Density1D:
    return Density1D(form="uniform", lo=float(lo), hi=float(hi))


@dataclass(frozen=True)
class ThresholdMarginal:
    """One side of a line scenario: a marginal density plus noiseless labels
    y = 1[x <= h_star]."""

    density: Density1D
    h_star: float


def _line_extent(pair) -> tuple[float, float]:
    """The interval (lo, hi) that covers both sides of a line pair."""
    return min(pair.p.density.lo, pair.q.density.lo), max(pair.p.density.hi, pair.q.density.hi)


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
        return dict(zip(self.JSON_KEYS, astuple(self)))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Certified":
        """`to_json_dict`'s object back.  ValueError names a key that is not
        one of `JSON_KEYS` or whose value is neither a number nor null."""
        if not isinstance(d, dict):
            raise ValueError(f"certified must be a JSON object or null, got {d!r}")
        unknown = set(d) - set(cls.JSON_KEYS)
        if unknown:
            raise ValueError(f"unknown certified fields: {sorted(unknown)}")
        for k, v in d.items():
            if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Real)):
                raise ValueError(f"certified.{k} must be a number or null, got {v!r}")
        return cls(*(d.get(k) for k in cls.JSON_KEYS))


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


def sample_labeled(dist, n: int, seed: int) -> SampleCounts | LabeledSample:
    """n i.i.d. labeled draws on the seed's stream.

    A draw from a `DiscreteJoint` is its `SampleCounts`, from one multinomial
    over the 2s cells (x, 0), (x, 1) (`DiscreteJoint.cell_probs`); no point
    is drawn.  A draw from a line scenario is a `LabeledSample` of float
    points from the seed's first n uniforms, labeled by the optimal
    threshold.  An empty draw builds no generator.
    """
    if isinstance(dist, DiscreteJoint):
        n = _check_draws(n)
        return SampleCounts._of_cells(_multinomial(n, dist.cell_probs, seed), n)
    xs = _line_points(dist, n, seed)
    return LabeledSample(xs, (xs <= dist.h_star).view(np.int8), seed)


def _labeled_trials(dist: DiscreteJoint, n: int, streams) -> SampleCounts:
    """T labeled draws of n from a `DiscreteJoint` as one batch, one per PCG64
    of the T `streams`: column t of its (s, T) int64 counts is exactly
    `sample_labeled(dist, n, seed)` when streams[t] is the `_stream_batch`
    stream of that seed.  A cell slices each side's streams from one
    `_stream_batch` over its `_derived_seeds`.  An empty draw reads none of
    the streams, so they may be None."""
    cells = np.zeros((2 * dist.size, len(streams)), dtype=np.int64)
    if n := _check_draws(n):
        for t, bit_generator in enumerate(streams):
            cells[:, t] = np.random.Generator(bit_generator).multinomial(n, dist.cell_probs)
    return SampleCounts._of_cells(cells, n)


def _line_trials(dist: ThresholdMarginal, n: int, streams) -> np.ndarray:
    """T draws of n >= 1 points from a line side, each sorted once, as the
    rows of a (T, n) block: row t holds the points of
    `sample_labeled(dist, n, seed)`, sorted, when streams[t] is the
    `_stream_batch` stream of that seed."""
    uniforms = np.empty((len(streams), n))
    for t, bit_generator in enumerate(streams):
        np.random.Generator(bit_generator).random(out=uniforms[t])
    xs = dist.density.ppf(uniforms)
    xs.sort(axis=1)
    return xs


def sample_unlabeled(dist, n: int, seed: int) -> SampleCounts | UnlabeledSample:
    """n i.i.d. unlabeled draws on the seed's stream: per support point
    counts from one multinomial over `mass` for a `DiscreteJoint`, the float
    points of `sample_labeled(dist, n, seed)` for a line scenario."""
    if isinstance(dist, DiscreteJoint):
        n = _check_draws(n)
        return SampleCounts._trusted(_multinomial(n, dist.mass / dist.mass.sum(), seed), n=n)
    return UnlabeledSample(_line_points(dist, n, seed), seed)


def _multinomial(n: int, p: np.ndarray, seed: int) -> np.ndarray:
    """Counts of n draws over the cells of p, which sums to 1."""
    rng = _rng(n, seed)
    return np.zeros(p.size, dtype=np.int64) if rng is None else rng.multinomial(n, p)


def _line_points(dist, n: int, seed: int) -> np.ndarray:
    if not isinstance(dist, ThresholdMarginal):
        raise TypeError(f"cannot sample from {type(dist).__name__}")
    rng = _rng(_check_draws(n), seed)
    return dist.density.ppf(np.empty(0) if rng is None else rng.random(n))


def _rng(n: int, seed: int) -> np.random.Generator | None:
    """The seed's generator for a draw of n, a checked draw count; None for
    an empty draw.  The seed is read once by the count rule: in `rng_from`,
    or here for an empty draw."""
    if n:
        return rng_from(seed)
    _count("seed", seed, -math.inf)
    return None


def _check_draws(n: int) -> int:
    """n, once checked to be a draw count of 0 <= n <= 2^53."""
    n = _count("n", n)
    if n > _MAX_DRAWS:
        raise ValueError(f"n is {n}, above the 2^53 draws a sample holds")
    return n


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
        return float(dist.density.interval_mass(h.threshold, dist.h_star))
    raise TypeError(f"cannot evaluate risk under {type(dist).__name__}")


def _true_risks(dist: DiscreteJoint, cls: HypothesisClass, members: np.ndarray) -> np.ndarray:
    """`true_risk(dist, cls[i])` for each index i of `members`, bit for bit,
    for a matrix or cut class over the joint's support, with no member built:
    the members' label rows (`_row`, by support position like a batch's
    counts) through `true_risk`'s elementwise formula, then one `np.dot` per
    contiguous row."""
    labels = np.ascontiguousarray(_row(cls, members).T)
    terms = labels * (1.0 - dist.eta) + (1.0 - labels) * dist.eta
    return np.array([np.dot(dist.mass, row) for row in terms])


def member_true_risks(cls: HypothesisClass, mass: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """Exact risk of every member of an enumerated class under (mass, eta), as one product."""
    _refuse_off_support(cls, mass=mass, eta=eta)
    w = mass * (1.0 - 2.0 * eta)
    return _matvec(cls, w) + float(np.dot(mass, eta))


def member_disagreement_mass(cls: HypothesisClass, ref: int, mass: np.ndarray) -> np.ndarray:
    """Marginal `mass` where each member disagrees with member `ref`, exactly."""
    _refuse_off_support(cls, mass=mass)
    return _member_disagreement_mass(cls, ref, mass)


def _member_disagreement_mass(cls: HypothesisClass, ref: int, mass: np.ndarray) -> np.ndarray:
    """`member_disagreement_mass` of a mass already checked against the class."""
    ref_lab = _row(cls, ref)
    # 1[h != ref] = h + ref - 2 h ref, folded into one product
    return _matvec(cls, mass * (1.0 - 2.0 * ref_lab)) + float(np.dot(mass, ref_lab))


def _refuse_off_support(cls: HypothesisClass, **arrays) -> None:
    """Raise the ValueError that names an array not of one entry per support
    point of the class, with both sizes."""
    size = _support_size(cls)
    for name, arr in arrays.items():
        if np.shape(arr) != (size,):
            raise ValueError(f"{name} of shape {np.shape(arr)} for a class over {size} "
                             f"support points")


def best_in_class(dist, cls: HypothesisClass) -> Hypothesis:
    """Exhaustive minimizer of the true risk; lowest index on ties."""
    if isinstance(dist, DiscreteJoint):
        cls = project_onto_support(cls, dist.support)
        return cls[int(np.argmin(member_true_risks(cls, dist.mass, dist.eta)))]
    if isinstance(dist, ThresholdMarginal):
        return Hypothesis(kind=THRESHOLD, threshold=dist.h_star)
    raise TypeError(f"cannot optimize over {type(dist).__name__}")


def excess_risk(dist, h: Hypothesis, cls: HypothesisClass) -> float:
    return true_risk(dist, h) - true_risk(dist, best_in_class(dist, cls))


# ---------------------------------------------------------------------------
# sign-vector packing


def vg_packing(d: int, seed: int = 0, target: int | None = None) -> np.ndarray:
    """Greedy sign-vector packing with pairwise Hamming distance >= d/8.

    Starts from the all-ones vector and greedily admits seeded random
    candidates, so the output is deterministic given (d, seed).  Stops once
    `target` vectors are kept, 1 <= target <= 2^(d - D + 1) with D = ceil(d/8)
    the distance kept (default: the guaranteed 2^(d/8) + 1).
    """
    d = _count("d", d, 8)
    need = (int(math.floor(2.0 ** (d / 8.0))) + 1 if target is None
            else _count("target", target, -math.inf))
    min_dist = -(-d // 8)
    bound = 2 ** (d - min_dist + 1)  # Singleton: no more vectors at distance D fit in d bits
    if not 1 <= need <= bound:
        raise ValueError(f"target must be in [1, 2^(d - D + 1)] = [1, {bound}] at d = {d}, "
                         f"D = ceil(d/8) = {min_dist}, got {target}")
    rng = rng_from(seed, 0x9AC)
    kept = np.ones((need, d), dtype=np.int8)
    # each kept vector's -1 positions as the bits of an int: the Hamming
    # distance of two vectors is the popcount of their codes' XOR
    codes = [0]
    tries = 0
    cap = 10_000 * need
    while len(codes) < need:
        if tries >= cap:
            raise RuntimeError(f"packing stalled after {tries} candidates")
        batch = rng.integers(0, 2, size=(256, d)).astype(np.int8) * 2 - 1
        tries += 256
        for i, row in enumerate(np.packbits(batch < 0, axis=1)):
            c = int.from_bytes(row.tobytes(), "big")
            if all((c ^ k).bit_count() >= min_dist for k in codes):
                kept[len(codes)] = batch[i]
                codes.append(c)
                if len(codes) >= need:
                    break
    kept.setflags(write=False)
    return kept


# ---------------------------------------------------------------------------
# sign-indexed hard families


class SigmaFamily(Sequence):
    """Distribution pairs indexed by sign vectors over the points 0..d, sharing
    both marginals: a family holds the `support`, `mass_p`, `mass_q` and
    read-only (K, d + 1) matrices `eta_p`, `eta_q` whose row i is pair i's eta,
    validated once.  `fam[i]` builds pair i once and caches it; `pairs` is the
    family itself.  Every pair's optimal classifier labels the anchor point x_0
    as 1; `cls` enumerates exactly the label patterns with that anchor fixed,
    which is the class all certification brute force runs over.
    """

    def __init__(self, sigmas: np.ndarray, mass_p: np.ndarray, margin_p, mass_q: np.ndarray,
                 margin_q, params: dict, kind: str, certified: Certified):
        d = sigmas.shape[1]
        self.sigmas = sigmas  # (K, d) entries in {-1, +1}
        self.cls = _anchored_cube_class(d, np.arange(d + 1, dtype=np.float64))
        self.support, self.mass_p, self.eta_p = _joint_arrays(
            self.cls.support_coords, mass_p, _sigma_etas(sigmas, margin_p))
        _, self.mass_q, self.eta_q = _joint_arrays(self.support, mass_q,
                                                   _sigma_etas(sigmas, margin_q))
        self.params = params
        self.kind = kind  # "single-scale" | "two-scale"
        self.certified = certified
        self._built: dict[int, TransferPair] = {}

    @property
    def pairs(self) -> "SigmaFamily":
        return self

    def __len__(self) -> int:
        return len(self.sigmas)

    def __getitem__(self, i: int) -> TransferPair:
        i = range(len(self))[operator.index(i)]
        if i not in self._built:
            self._built[i] = TransferPair(
                DiscreteJoint._trusted(self.support, self.mass_p, self.eta_p[i]),
                DiscreteJoint._trusted(self.support, self.mass_q, self.eta_q[i]), self.certified)
        return self._built[i]

    def bayes(self, i: int) -> Hypothesis:
        labels = (1,) + tuple(int(s > 0) for s in self.sigmas[i])
        return finite_hypothesis(labels)

    def sigma_index(self, which="all-ones") -> int:
        """Index of a sign vector: "all-ones", an integer, or an explicit
        vector of the family's length d; a bool is none of these."""
        if isinstance(which, (bool, np.bool_)):
            raise ValueError(f"sigma index {which} is a bool, not an index or a sign vector")
        if isinstance(which, (int, np.integer)):
            if not 0 <= which < len(self):
                raise ValueError(f"sigma index {which} is outside [0, {len(self)})")
            return int(which)
        if isinstance(which, str):
            if which != "all-ones":
                raise ValueError(f"unknown sigma selector {which!r}")
            which = np.ones(self.sigmas.shape[1])
        target, d = np.asarray(which, dtype=np.int8), self.sigmas.shape[1]
        if target.shape != (d,):
            raise ValueError(f"sign vector has shape {target.shape}, not ({d},): the "
                             f"family's sign vectors have length {d}")
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
    patterns = np.ones((2 ** d, d + 1), dtype=np.uint8)
    patterns[:, 1:] = _cube_patterns(d)
    return finite_class(patterns, vc_dim=d, support_coords=coords)


def _family_sigmas(d: int, sigmas, seed: int) -> np.ndarray:
    seed = _count("seed", seed, -math.inf)
    if sigmas is not None:
        arr = np.asarray(sigmas, dtype=np.int8)
        if arr.ndim != 2 or arr.shape[1] != d or not np.isin(arr, (-1, 1)).all():
            raise ValueError("sigmas must be sign vectors of length d")
        return arr
    # every sign vector up to d = 10, a packing of 64 above
    if d <= 10:
        return _cube_patterns(d).astype(np.int8) * 2 - 1
    return vg_packing(d, seed=seed, target=min(64, 2 ** d))


def _sigma_etas(sigmas: np.ndarray, margin) -> np.ndarray:
    """One eta row per sign vector: 1 on x_0, 1/2 + (sigma/2) * margin elsewhere."""
    return np.column_stack((np.ones(len(sigmas)), 0.5 + (sigmas / 2.0) * margin))


def build_single_scale_family(d_h: int, rho: float, beta_p: float, beta_q: float,
                              epsilon: float, sigmas=None, seed: int = 0) -> SigmaFamily:
    """Hard pairs on d_h points with one scale epsilon.

    Q puts mass 1 - eps^beta_q on the anchor and eps^beta_q / d on each other
    point, with labels eta = 1/2 + (sigma_i/2) eps^(1-beta_q) there; P uses the
    same template with eps^(rho beta_p) masses and eps^(rho(1-beta_p)) label
    margins.  By construction the pair admits transfer exponent rho with
    constant 1 and noise exponents (beta_p, beta_q) with constants 1.
    """
    d = _count("d_h", d_h, 9) - 1
    if not 0.0 < epsilon <= 0.5:
        raise ValueError("epsilon must lie in (0, 1/2]")
    if not rho >= 1.0:
        raise ValueError("rho must be >= 1")
    if not (0.0 <= beta_p <= 1.0 and 0.0 <= beta_q <= 1.0):
        raise ValueError("beta_p, beta_q must lie in [0, 1]")
    sigmas = _family_sigmas(d, sigmas, seed)

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

    params = dict(d_h=d_h, rho=rho, beta_p=beta_p, beta_q=beta_q, epsilon=epsilon)
    return SigmaFamily(sigmas, mass_p, margin_p, mass_q, margin_q, params, "single-scale",
                       certified)


def default_tau(gamma: float) -> float:
    return max(0.5, 0.5 ** (1.0 / gamma))


def build_two_scale_family(d_h: int, rho: float, beta_p: float, beta_q: float,
                           eps1: float, eps2: float, tau: float | None = None,
                           sigmas=None, seed: int = 0) -> SigmaFamily:
    """Hard pairs with two scales on the two halves of the support.

    Past the anchor, the d = d_h - 1 support points split into blocks I1, I2
    of size d/2, so d_h must be odd and at least 5 (ValueError otherwise).
    Q uses scale eps1^beta_q masses with eps1^(1-beta_q) margins on I1, and
    (eps2/tau)/d masses with margin tau on I2; P mirrors this with gamma =
    rho * beta_p controlling its masses.  The pair has marginal transfer
    exponent gamma with constant 2 and noise constants (1, 2).
    """
    for name, e in (("eps1", eps1), ("eps2", eps2)):
        if not 0.0 < e <= 0.5:
            raise ValueError(f"{name} must lie in (0, 1/2]")
    if not (0.0 < beta_p < 1.0 and 0.0 < beta_q < 1.0):
        raise ValueError("beta_p, beta_q must lie in (0, 1)")
    if not rho >= max(1.0 / beta_p, 1.0 / beta_q):
        raise ValueError("rho must be >= max(1/beta_p, 1/beta_q)")
    gamma = rho * beta_p
    if tau is None:
        tau = default_tau(gamma)
    if not default_tau(gamma) - 1e-12 <= tau < 1.0:
        raise ValueError("tau must lie in [max(1/2, (1/2)^(1/gamma)), 1)")
    if not _count("d_h", d_h, -math.inf) % 2:  # parity before the least: 4 is even
        raise ValueError(f"d_h must be odd, so that its d_h - 1 points split into two "
                         f"halves; got {d_h}")
    d = _count("d_h", d_h, 5) - 1
    half = d // 2
    sigmas = _family_sigmas(d, sigmas, seed)

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
    params = dict(d_h=d_h, rho=rho, beta_p=beta_p, beta_q=beta_q,
                  eps1=eps1, eps2=eps2, tau=tau, gamma=gamma)
    return SigmaFamily(sigmas, mass_p, margin_p, mass_q, margin_q, params, "two-scale",
                       certified)


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


# ---------------------------------------------------------------------------
# benchmark scenarios


def example_scenario(sid: int, gamma: float | None = None, n_angles: int = 16):
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
        return _ring_surrogate(n_angles)
    if sid == 2:
        cert = Certified(rho=1.0, c_rho=2.0, gamma=1.0, c_gamma=2.0,
                         beta_p=1.0, beta_q=1.0, c_p=1.0, c_q=1.0)
        return TransferPair(ThresholdMarginal(uniform_density(0.0, 2.0), 0.5),
                            ThresholdMarginal(uniform_density(0.0, 1.0), 0.5), cert)
    if sid == 3:
        if gamma is None or not 1.0 <= gamma < math.inf:
            raise ValueError(f"scenario 3 needs gamma >= 1 and finite, got {gamma}")
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


def _ring_surrogate(n_angles: int):
    k = _count("n_angles", n_angles, 4)
    if k % 2:
        raise ValueError(f"n_angles must be even, got {k}")
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

    Cell masses come from the closed-form CDFs; each side's labels are its
    own optimal threshold's labels at the cell centers.  The accompanying
    class is the threshold class projected onto the centers.
    """
    if pair.discrete:
        raise TypeError("pair is already discrete")
    cells = _count("cells", cells, 1)
    edges = np.linspace(*_line_extent(pair), cells + 1)
    centers = 0.5 * (edges[:-1] + edges[1:])

    def joint(side: ThresholdMarginal) -> DiscreteJoint:
        mass = np.diff(side.density.cdf(edges))
        eta = (centers <= side.h_star).astype(np.float64)
        return DiscreteJoint(centers, mass / mass.sum(), eta)

    cls = project_class(threshold_class(), centers)
    return TransferPair(joint(pair.p), joint(pair.q), pair.certified), cls


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
    if not isinstance(doc, dict):
        raise ValueError(f"a scenario must be a JSON object, got {doc!r}")
    required = {"support", "mass_p", "eta_p", "mass_q", "eta_q", "certified"}
    unknown = set(doc) - required
    if unknown:
        raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
    missing = required - set(doc)
    if missing:
        raise ValueError(f"missing scenario fields: {sorted(missing)}")
    # numbers as JSON has them: a string, bool or null is not coerced to one
    for key in ("support", "mass_p", "eta_p", "mass_q", "eta_q"):
        if not isinstance(doc[key], list):
            raise ValueError(f"{key} must be a list of numbers, got {doc[key]!r}")
        for i, v in enumerate(doc[key]):
            if isinstance(v, bool) or not isinstance(v, numbers.Real):
                raise ValueError(f"{key}[{i}] must be a number, got {v!r}")
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
