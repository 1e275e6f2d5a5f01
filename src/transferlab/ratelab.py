"""Monte Carlo harness turning the procedures into measurable rates.

Each grid cell runs independent trials (sample, fit, record the exact target
excess risk), summarizes them by quantiles, and the resulting tables feed
log-log slope fits against the closed-form theory exponents.  Medians are the
primary statistic: the hardness statements are constant-probability events and
medians are robust to the heavy-tailed small-sample regime.
"""

from __future__ import annotations

import csv
import math
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .distributions import (
    TransferPair,
    best_in_class,
    rng_from,
    sample_labeled,
    true_risk,
)
from .hypotheses import HypothesisClass, erm
from .procedures import (
    ConfidenceParams,
    reverse_transfer_erm,
    select_source_or_target,
    transfer_erm,
)

CSV_HEADER = ["n_p", "n_q", "estimator", "trials", "mean", "median", "q10", "q90", "seed"]

ESTIMATORS = {
    "erm_p": lambda sp, sq, cls, conf: erm(cls, sp),
    "erm_q": lambda sp, sq, cls, conf: erm(cls, sq),
    "transfer": transfer_erm,
    "reverse_transfer": reverse_transfer_erm,
    "selector": select_source_or_target,
}


@dataclass
class RateRow:
    n_p: int
    n_q: int
    estimator: str
    trials: int
    mean: float
    median: float
    q10: float
    q90: float
    seed: int


@dataclass
class RateTable:
    rows: list[RateRow]

    def __len__(self):
        return len(self.rows)

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow([r.n_p, r.n_q, r.estimator, r.trials,
                                 repr(r.mean), repr(r.median), repr(r.q10),
                                 repr(r.q90), r.seed])

    @classmethod
    def from_csv(cls, path) -> "RateTable":
        rows = []
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            if header != CSV_HEADER:
                raise ValueError(f"unexpected CSV header {header}")
            for rec in reader:
                rows.append(RateRow(int(rec[0]), int(rec[1]), rec[2], int(rec[3]),
                                    float(rec[4]), float(rec[5]), float(rec[6]),
                                    float(rec[7]), int(rec[8])))
        return cls(rows)


def _resolve(estimator):
    if callable(estimator):
        return estimator, getattr(estimator, "__name__", "custom")
    return ESTIMATORS[estimator], estimator


def _trial_excess(pair: TransferPair, cls: HypothesisClass, est_fn, n_p, n_q,
                  seed, cell_key, trial, conf, q_best_risk) -> float:
    seed_p = int(rng_from(seed, cell_key, trial, 0).integers(2 ** 62))
    seed_q = int(rng_from(seed, cell_key, trial, 1).integers(2 ** 62))
    sp = sample_labeled(pair.p, n_p, seed_p)
    sq = sample_labeled(pair.q, n_q, seed_q)
    h = est_fn(sp, sq, cls, conf)
    return true_risk(pair.q, h) - q_best_risk


def _cell_excesses(pair, cls, estimator, n_p, n_q, trials, seed, cell_key, conf):
    est_fn, _ = _resolve(estimator)
    q_best = true_risk(pair.q, best_in_class(pair.q, cls))
    return np.array([
        _trial_excess(pair, cls, est_fn, n_p, n_q, seed, cell_key, t, conf, q_best)
        for t in range(trials)])


def _summarize(excesses: np.ndarray, n_p, n_q, name, trials, seed) -> RateRow:
    return RateRow(
        n_p=int(n_p), n_q=int(n_q), estimator=name, trials=int(trials),
        mean=float(np.mean(excesses)), median=float(np.median(excesses)),
        q10=float(np.quantile(excesses, 0.10)),
        q90=float(np.quantile(excesses, 0.90)), seed=int(seed))


def monte_carlo(pair: TransferPair, cls: HypothesisClass, estimator, grid,
                trials: int, seed: int,
                conf: ConfidenceParams = ConfidenceParams(),
                jobs: int = 1) -> RateTable:
    """Exact-excess Monte Carlo for one fixed pair over an (n_p, n_q) grid.

    Deterministic given (grid, trials, seed) regardless of the worker count:
    every trial derives its own seed from (seed, cell index, trial index).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    builder = lambda n_p, n_q: (pair, cls)
    return sweep(builder, estimator, grid, trials, seed, conf, jobs)


def sweep(cell_builder, estimator, grid, trials: int, seed: int,
          conf: ConfidenceParams = ConfidenceParams(), jobs: int = 1) -> RateTable:
    """monte_carlo with a per-cell (pair, class) factory.

    Used for minimax-style experiments where the hard instance is re-tuned to
    each sample size; `cell_builder(n_p, n_q)` returns the cell's pair/class.
    """
    _, name = _resolve(estimator)
    cells = [(int(n_p), int(n_q)) for n_p, n_q in grid]
    args = []
    for ci, (n_p, n_q) in enumerate(cells):
        pair, cls = cell_builder(n_p, n_q)
        args.append((pair, cls, estimator, n_p, n_q, trials, seed, ci, conf))
    if jobs > 1:
        if callable(estimator):
            raise ValueError("parallel runs need a registry estimator id")
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            excesses = list(pool.map(_cell_excesses_star, args))
    else:
        excesses = [_cell_excesses(*a) for a in args]
    rows = [_summarize(exc, n_p, n_q, name, trials, seed)
            for exc, (n_p, n_q) in zip(excesses, cells)]
    return RateTable(rows)


def _cell_excesses_star(a):
    return _cell_excesses(*a)


@dataclass
class SlopeFit:
    slope: float
    intercept: float
    r2: float
    n_used: int


def fit_slope(table: RateTable, axis: str, statistic: str = "median",
              drop_smallest: int = 0) -> SlopeFit:
    """Least squares on (log n, log statistic) along one axis of the table.

    Rows with a nonpositive statistic are excluded with a warning; fewer than
    three usable rows is an error.  drop_smallest removes that many of the
    smallest distinct axis values first (transient small-sample regime).
    """
    if axis not in ("n_p", "n_q"):
        raise ValueError("axis must be 'n_p' or 'n_q'")
    if statistic not in ("mean", "median"):
        raise ValueError("statistic must be 'mean' or 'median'")
    xs = np.array([getattr(r, axis) for r in table.rows], dtype=np.float64)
    ys = np.array([getattr(r, statistic) for r in table.rows], dtype=np.float64)
    if drop_smallest > 0:
        keep_from = np.sort(np.unique(xs))[drop_smallest:]
        mask = np.isin(xs, keep_from)
        xs, ys = xs[mask], ys[mask]
    pos = ys > 0
    if not pos.all():
        warnings.warn(f"excluding {int((~pos).sum())} rows with zero statistic")
    xs, ys = xs[pos], ys[pos]
    if xs.size < 3:
        raise ValueError("need at least 3 usable rows for a slope fit")
    lx, ly = np.log(xs), np.log(ys)
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return SlopeFit(float(slope), float(intercept), r2, int(xs.size))


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
        "n_used": fit.n_used, "drop_smallest": int(drop_smallest),
        "passed": bool(gap <= tolerance),
    }
