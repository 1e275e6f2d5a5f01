"""Monte Carlo harness turning the procedures into measurable rates.

Each grid cell runs independent trials (sample, fit, record the exact target
excess risk), summarizes them by quantiles, and the resulting tables feed
log-log slope fits against the closed-form theory exponents.  A cell over a
finite support draws all its trials first, as one `SampleCounts` per side
whose counts have a trailing trial axis, and each registry estimator chooses
over that batch through the rule its procedure applies to one trial; its
trials and their streams are those of the trial-by-trial path.  A one-sample
ERM cell on a line pair draws its trials in blocks of bounded size, on the
same streams, and reads each trial's ERM from the two sample points next to
h*, since its labels are noiseless.  Medians are the primary statistic: the
hardness statements are constant-probability events and medians are robust
to the heavy-tailed small-sample regime.
"""

from __future__ import annotations

import csv
import math
from dataclasses import astuple, dataclass, fields

import numpy as np

from .distributions import (
    DiscreteJoint,
    ThresholdMarginal,
    TransferPair,
    _derived_seeds,
    _labeled_trials,
    _line_trials,
    _refuse_off_support,
    _stream_batch,
    _true_risks,
    best_in_class,
    sample_labeled,
    true_risk,
)
from .hypotheses import (
    THRESHOLD,
    HypothesisClass,
    _count,
    _cut_thresholds,
    erm,
    member_risks,
)
from .procedures import (
    ConfidenceParams,
    _selector_choice,
    _transfer_choice,
    reverse_transfer_erm,
    select_source_or_target,
    transfer_erm,
)

ESTIMATORS = {
    "erm_p": lambda sp, sq, cls, conf: erm(cls, sp),
    "erm_q": lambda sp, sq, cls, conf: erm(cls, sq),
    "transfer": transfer_erm,
    "reverse_transfer": reverse_transfer_erm,
    "selector": select_source_or_target,
}

# each registry estimator's member index over a batch of trials, one per
# column, from the same rule its procedure applies to one trial
_CHOICES = {
    "erm_p": lambda cls, sp, sq, conf: np.argmin(member_risks(cls, sp), axis=0),
    "erm_q": lambda cls, sp, sq, conf: np.argmin(member_risks(cls, sq), axis=0),
    "transfer": _transfer_choice,
    "reverse_transfer": lambda cls, sp, sq, conf: _transfer_choice(cls, sq, sp, conf),
    "selector": _selector_choice,
}


@dataclass
class RateRow:
    """One cell of a rate table; its fields, in order, are the CSV columns."""

    n_p: int
    n_q: int
    estimator: str
    trials: int
    mean: float
    median: float
    q10: float
    q90: float
    seed: int


# each column's name and parser; under postponed annotations a field's type is its name
_COLUMNS = [(f.name, {"int": int, "float": float, "str": str}[f.type]) for f in fields(RateRow)]
CSV_HEADER = [name for name, _ in _COLUMNS]


@dataclass
class RateTable:
    rows: list[RateRow]

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path) -> None:
        """One row per cell; floats as their repr, so `from_csv` reads them back exactly."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow([repr(v) if parse is float else v
                                 for v, (_, parse) in zip(astuple(r), _COLUMNS)])

    @classmethod
    def from_csv(cls, path) -> "RateTable":
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header}")
            rows = []
            for rec in reader:
                if len(rec) != len(CSV_HEADER):
                    raise ValueError(f"{path}: line {reader.line_num} has {len(rec)} fields, "
                                     f"the header {len(CSV_HEADER)}")
                rows.append(RateRow(*(parse(v) for v, (_, parse) in zip(rec, _COLUMNS))))
            return cls(rows)


def _cell_excesses(pair, cls, estimator, n_p, n_q, trials, seed, cell_key, conf):
    """Each trial's exact target excess; trial t draws each non-empty side on
    the stream of `derive_seed(seed, cell_key, t, side)`, and an empty side
    derives no seed.  One `_derived_seeds` call derives every seed of the
    cell, over the prefix (seed, cell_key), whose words are mixed once, and
    one (t, side) row per key.

    A cell over an enumerated class, whose joints `sweep` has checked lie on
    its support, builds both sides' streams in one `_stream_batch` over the
    derived seeds, draws every trial first, as one batch per side from its
    slice of them, chooses all trials' members at once (`_CHOICES`) and reads
    each distinct chosen member's true risk once, from the class's label
    rows (`_true_risks`).  A one-sample ERM cell over the raw threshold
    class, whose sides `sweep` has checked are line sides, draws its read
    side's trials in blocks and reads each trial's ERM from its two points
    next to h* (`_line_erm_risks`).  A two-sample line cell runs trial by
    trial: each trial projects the class onto the union of both samples."""
    q_best = true_risk(pair.q, best_in_class(pair.q, cls))
    sides = ((pair.p, n_p), (pair.q, n_q))
    drawn = np.array([k for k, (_, n) in enumerate(sides) if n], dtype=np.uint64)
    rows = np.stack([np.tile(np.arange(trials, dtype=np.uint64), drawn.size),
                     np.repeat(drawn, trials)], axis=1)
    # P's seeds first, if it draws
    derived = _derived_seeds((seed, cell_key), rows)
    if cls.kind != THRESHOLD:
        streams = _stream_batch((), derived[:, None])
        batches = [_labeled_trials(pair.p, n_p, streams[:trials] if n_p else [None] * trials),
                   _labeled_trials(pair.q, n_q, streams[-trials:] if n_q else [None] * trials)]
        chosen, trial = np.unique(_CHOICES[estimator](cls, *batches, conf), return_inverse=True)
        return _true_risks(pair.q, cls, chosen)[trial] - q_best
    seeds_p = derived[:trials] if n_p else [0] * trials
    seeds_q = derived[-trials:] if n_q else [0] * trials
    if estimator in ("erm_p", "erm_q"):
        side, n, seeds = ((pair.p, n_p, seeds_p), (pair.q, n_q, seeds_q))[estimator == "erm_q"]
        return _line_erm_risks(pair.q, cls, side, n, seeds) - q_best
    excesses = np.empty(trials)
    for t in range(trials):
        sp = sample_labeled(pair.p, n_p, int(seeds_p[t]))
        sq = sample_labeled(pair.q, n_q, int(seeds_q[t]))
        excesses[t] = true_risk(pair.q, ESTIMATORS[estimator](sp, sq, cls, conf)) - q_best
    return excesses


# the most points a line block holds.  On a 2-core x86-64 host, 2^12 kept
# the benchmark's rates pass within 0.7 MiB of the peak RSS of trial-by-trial
# cells; 2^16 added about 3.7 MiB and ran the seven scenario-4 erm_p cells
# (n = 2^6..2^12, 60 trials) no faster: 40 against 41 ms
_LINE_BLOCK = 2 ** 12


def _line_erm_risks(q, cls, side, n, seeds) -> np.ndarray:
    """Each trial's Q risk of the raw threshold class's ERM on the read
    side's sample of n draws alone, bit for bit as `erm` projects it.

    A line side labels a point 1[x <= h*], so a sorted sample is a run of m
    ones, then zeros, and cut k has sample risk |k - m| / n: the lowest-index
    ERM of the projected class is the one cut of zero risk, between X+, the
    m-th smallest point (the largest labeled 1), and X-, the next (-inf and
    +inf where m = 0 or m = n).  Its threshold comes from those two
    neighbours by `_cut_class`'s rule.  One `_stream_batch` builds every
    trial's stream; blocks of at most `_LINE_BLOCK` points draw and sort
    their trials (`_line_trials`), count each trial's ones and read its two
    neighbours.  An empty sample builds no stream: every trial gets the
    empty sample's ERM."""
    trials = len(seeds)
    if not n:
        return np.full(trials, true_risk(q, erm(cls, sample_labeled(side, 0, 0))))
    streams = _stream_batch((), seeds[:, None])
    risks = np.empty(trials)
    step = max(1, _LINE_BLOCK // n)
    for start in range(0, trials, step):
        xs = _line_trials(side, n, streams[start:start + step])
        rows, m = np.arange(len(xs)), np.count_nonzero(xs <= side.h_star, axis=1)
        below = np.where(m > 0, xs[rows, m - 1], -np.inf)
        above = np.where(m < n, xs[rows, np.minimum(m, n - 1)], np.inf)
        risks[start:start + step] = q.density.interval_mass(_cut_thresholds(below, above),
                                                            q.h_star)
    return risks


def monte_carlo(pair: TransferPair, cls: HypothesisClass, estimator, grid,
                trials: int, seed: int,
                conf: ConfidenceParams = ConfidenceParams(),
                jobs: int = 1) -> RateTable:
    """Exact-excess Monte Carlo for one fixed pair over an (n_p, n_q) grid.

    Deterministic given (grid, trials, seed) regardless of the worker count:
    every trial derives its own seed from (seed, cell index, trial index,
    side), one per side that draws.
    """
    return sweep(lambda n_p, n_q: (pair, cls), estimator, grid, trials, seed, conf, jobs)


def sweep(cell_builder, estimator, grid, trials: int, seed: int,
          conf: ConfidenceParams = ConfidenceParams(), jobs: int = 1) -> RateTable:
    """monte_carlo with a per-cell (pair, class) factory.

    Used for minimax-style experiments where the hard instance is re-tuned to
    each sample size; `cell_builder(n_p, n_q)` returns the cell's pair/class.
    `estimator` is a key of `ESTIMATORS`, the one form a worker process runs.
    Every cell is built, and one that no route serves (sides of the wrong
    types, or joints off an enumerated class's support) refused, before any runs.
    """
    trials, jobs = _count("trials", trials, 1), _count("jobs", jobs, 1)
    seed = _count("seed", seed, -math.inf)
    if not (isinstance(estimator, str) and estimator in ESTIMATORS):
        raise ValueError(f"estimator must be one of {', '.join(ESTIMATORS)}, got {estimator!r}")
    cells = []
    for i, entry in enumerate(grid):
        try:
            n_p, n_q = entry
        except (TypeError, ValueError):
            raise ValueError(f"grid[{i}] is {entry!r}, not an (n_p, n_q) pair") from None
        cells.append((_count("n_p", n_p), _count("n_q", n_q)))
    args = []
    for ci, (n_p, n_q) in enumerate(cells):
        pair, cls = cell_builder(n_p, n_q)
        # a finite cell is two joints on an enumerated class's support, a line
        # cell two line sides over the raw threshold class; no route runs any other
        raw = cls.kind == THRESHOLD
        if not all(isinstance(side, ThresholdMarginal if raw else DiscreteJoint)
                   for side in (pair.p, pair.q)):
            raise ValueError(
                f"cell {ci} has a {type(pair.p).__name__} P side, a {type(pair.q).__name__} "
                f"Q side and {'the raw threshold' if raw else 'an enumerated'} class, which no "
                f"rate route serves: pass a class projected onto the joints' support "
                f"(project_onto_support) for two DiscreteJoint sides, or the raw threshold "
                f"class (threshold_class()) for two ThresholdMarginal sides")
        for side in () if raw else (pair.p, pair.q):
            _refuse_off_support(cls, mass=side.mass)
        args.append((pair, cls, estimator, n_p, n_q, trials, seed, ci, conf))
    # a fork pool starts all its workers at once: no more of them than cells
    if (workers := min(jobs, len(cells))) > 1:
        from concurrent.futures import ProcessPoolExecutor  # only a fan-out loads the pool
        with ProcessPoolExecutor(max_workers=workers) as pool:
            excesses = list(pool.map(_cell_excesses, *zip(*args)))
    else:
        excesses = [_cell_excesses(*a) for a in args]
    # np.median's midpoint can differ from np.quantile's 0.5 in the last bit
    return RateTable([RateRow(n_p, n_q, estimator, trials, float(np.mean(exc)),
                              float(np.median(exc)),
                              *np.quantile(exc, [0.10, 0.90]).tolist(), seed)
                      for exc, (n_p, n_q) in zip(excesses, cells)])


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    n_used: int
    n_excluded: int


def fit_slope(table: RateTable, axis: str, statistic: str = "median",
              drop_smallest: int = 0) -> SlopeFit:
    """Least squares on (log n, log statistic) along one axis of the table.

    Rows with a nonpositive statistic or axis value (log undefined) are left
    out and counted in `n_excluded`; fewer than three usable rows is an
    error.  drop_smallest removes that many of the smallest distinct axis
    values first (transient small-sample regime).
    """
    if axis not in ("n_p", "n_q"):
        raise ValueError("axis must be 'n_p' or 'n_q'")
    if statistic not in ("mean", "median"):
        raise ValueError("statistic must be 'mean' or 'median'")
    drop_smallest = _count("drop_smallest", drop_smallest)
    xs = np.array([getattr(r, axis) for r in table.rows], dtype=np.float64)
    ys = np.array([getattr(r, statistic) for r in table.rows], dtype=np.float64)
    if drop_smallest > 0:
        keep_from = np.sort(np.unique(xs))[drop_smallest:]
        mask = np.isin(xs, keep_from)
        xs, ys = xs[mask], ys[mask]
    pos = (ys > 0) & (xs > 0)
    xs, ys = xs[pos], ys[pos]
    if xs.size < 3:
        raise ValueError("need at least 3 usable rows for a slope fit")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), r2, int(xs.size), int(pos.size - xs.size))


@dataclass(frozen=True)
class TheoryRates:
    """Closed-form rate quantities for sample sizes (n_p, n_q)."""

    eps_main: float
    eps_block1: float
    eps_block2: float
    eps_lower: float
    eps_upper: float
    effective_n_p: float


def theory_rates(n_p: float, n_q: float, d_h: int, rho: float,
                 beta_p: float, beta_q: float) -> TheoryRates:
    """All six closed-form rate quantities, with d/0 = +inf sentinels."""
    rp = (d_h / n_p) if n_p > 0 else math.inf
    rq = (d_h / n_q) if n_q > 0 else math.inf
    e_p_main = rp ** (1.0 / ((2.0 - beta_p) * rho))
    e_q_main = rq ** (1.0 / (2.0 - beta_q))
    e_p_b1 = rp ** (1.0 / ((2.0 - beta_p) * rho * beta_q)) if beta_q > 0 else math.inf
    eps_main = min(e_p_main, e_q_main)
    eps_block1 = min(e_p_b1, e_q_main)
    eps_block2 = min(e_p_main, rq)
    return TheoryRates(
        eps_main=eps_main,
        eps_block1=eps_block1,
        eps_block2=eps_block2,
        eps_lower=max(eps_block1, eps_block2),
        eps_upper=min(e_p_main, e_q_main),
        effective_n_p=n_p ** ((2.0 - beta_q) / ((2.0 - beta_p) * rho)))


def compare_to_theory(table: RateTable, theory_exponent: float, tolerance: float,
                      axis: str = "n_q", statistic: str = "median",
                      drop_smallest: int = 2) -> dict:
    """Slope fit versus a theory exponent with a pass/fail verdict."""
    fit = fit_slope(table, axis, statistic, drop_smallest)
    gap = abs(fit.slope - theory_exponent)
    return {
        "slope": fit.slope, "theory": float(theory_exponent),
        "gap": gap, "tolerance": float(tolerance), "r2": fit.r2,
        "n_used": fit.n_used, "n_excluded": fit.n_excluded,
        "drop_smallest": int(drop_smallest),
        "passed": bool(gap <= tolerance),
    }
