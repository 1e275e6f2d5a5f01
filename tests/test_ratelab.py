import concurrent.futures
import itertools
import math
import os
import re
import subprocess
import sys
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import oracles
import transferlab as tl
from transferlab import ratelab
from transferlab.hypotheses import SampleCounts

CONF = tl.ConfidenceParams(c=1.0, delta=0.1)
GOLDEN = Path(__file__).parent / "data" / "rates_golden"


def small_family():
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    return fam.pairs[fam.sigma_index("all-ones")], fam.cls


def test_noiseless_identical_median_zero():
    joint = tl.DiscreteJoint(np.arange(4.0), np.full(4, 0.25),
                             np.array([1.0, 0.0, 1.0, 0.0]))
    pair = tl.TransferPair(joint, joint)
    cls = tl.full_cube_class(4)
    table = tl.monte_carlo(pair, cls, "erm_q", [(0, 256)], 30, seed=3, conf=CONF)
    assert table.rows[0].median == 0.0


def _record_key_batches(monkeypatch):
    """The keys of every batch of seed words built, one list per batch: a
    cell's `_derived_seeds` and its `_stream_batch` each build one."""
    batches, real = [], tl.distributions._pcg_words

    def words(prefix, entries):
        batches.append([(*prefix, *row) for row in entries.tolist()])
        return real(prefix, entries)
    monkeypatch.setattr(tl.distributions, "_pcg_words", words)
    return batches


def _record_draws(monkeypatch):
    """The arguments of every `rng_from` call, one stream built per call."""
    draws, real = [], tl.distributions.rng_from
    monkeypatch.setattr(tl.distributions, "rng_from", lambda *a: draws.append(a) or real(*a))
    return draws


def test_empty_side_derives_no_seed(monkeypatch):
    # a cell derives its trial seeds in one batch, which holds no key of the
    # empty P side, and P builds no stream, on the finite and the line batch
    batches, draws = _record_key_batches(monkeypatch), _record_draws(monkeypatch)
    q_keys = [(5, 0, t, 1) for t in range(3)]
    q_seeds = [(tl.distributions.derive_seed(*key),) for key in q_keys]
    pair, cls = small_family()
    tl.monte_carlo(pair, cls, "erm_q", [(0, 32)], 3, seed=5, conf=CONF)
    # batched: the cell's keys, then the Q side's three streams, built in one batch
    assert batches == [q_keys, q_seeds] and draws == []
    batches.clear()
    line = tl.example_scenario(3, gamma=2.0)
    tl.monte_carlo(line, tl.threshold_class(), "erm_q", [(0, 32)], 3, seed=5, conf=CONF)
    # a one-sample line cell: the same keys, then Q's three streams in one batch
    assert batches == [q_keys, q_seeds] and draws == []


def test_a_two_sample_line_cell_builds_one_stream_per_trial_and_side(monkeypatch):
    # a two-sample line trial projects onto the union of both samples, so it
    # runs trial by trial: one stream per trial and side, P's first, on the
    # seeds of the cell's one key batch
    batches, draws = _record_key_batches(monkeypatch), _record_draws(monkeypatch)
    keys = [(5, 0, t, side) for side in (0, 1) for t in range(3)]
    seeds = [tl.distributions.derive_seed(*key) for key in keys]
    line = tl.example_scenario(3, gamma=2.0)
    tl.monte_carlo(line, tl.threshold_class(), "transfer", [(16, 32)], 3, seed=5, conf=CONF)
    assert batches == [keys]
    assert draws == [(seed,) for t in range(3) for seed in (seeds[t], seeds[3 + t])]


def test_a_two_sided_cell_builds_its_streams_in_one_batch(monkeypatch):
    # both sides' streams come from one batch over the cell's derived seeds,
    # P's first, and each side draws on its own slice of it
    batches = _record_key_batches(monkeypatch)
    keys = [(5, 0, t, side) for side in (0, 1) for t in range(3)]
    pair, cls = small_family()
    tl.monte_carlo(pair, cls, "transfer", [(16, 32)], 3, seed=5, conf=CONF)
    assert batches == [keys, [(tl.distributions.derive_seed(*key),) for key in keys]]


def test_monte_carlo_reproducible_row():
    pair, cls = small_family()
    a = tl.monte_carlo(pair, cls, "transfer", [(64, 64)], 1, seed=5, conf=CONF)
    b = tl.monte_carlo(pair, cls, "transfer", [(64, 64)], 1, seed=5, conf=CONF)
    assert a.rows == b.rows


def test_monte_carlo_quantiles_ordered():
    pair, cls = small_family()
    t = tl.monte_carlo(pair, cls, "erm_q", [(0, 64)], 50, seed=6, conf=CONF)
    r = t.rows[0]
    assert r.q10 <= r.median <= r.q90
    assert r.trials == 50


@pytest.mark.parametrize("trials", [0, -1])
def test_trials_below_one_rejected(trials):
    pair, cls = small_family()
    with pytest.raises(ValueError, match="trials must be >= 1"):
        tl.sweep(lambda n_p, n_q: (pair, cls), "erm_q", [(0, 8)], trials, 1, CONF)
    with pytest.raises(ValueError, match="trials must be >= 1"):
        tl.monte_carlo(pair, cls, "erm_q", [(0, 8)], trials, 1, CONF)


@pytest.mark.parametrize("grid, message", [
    ([(1, 2, 3)], "grid[0] is (1, 2, 3), not an (n_p, n_q) pair"),
    ([(8, 8), 5], "grid[1] is 5, not an (n_p, n_q) pair"),
    ([(8, 8), (0, 8), (64,)], "grid[2] is (64,), not an (n_p, n_q) pair"),
], ids=["triple", "scalar", "single"])
def test_sweep_names_a_grid_entry_that_is_not_a_pair(grid, message):
    # refused, naming the entry and its index, before any cell is built
    built = []

    def build(n_p, n_q):
        built.append((n_p, n_q))
        return small_family()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tl.sweep(build, "erm_q", grid, 2, 1, CONF)
    assert built == []


def _unserved_cells():
    """Per bad combination: a cell that no route runs, and its sides' and class's words."""
    pair, cls = small_family()
    line = tl.example_scenario(3, gamma=2.0)
    return {
        "joints-raw": ((pair, tl.threshold_class()),
                       "a DiscreteJoint P side, a DiscreteJoint Q side and the raw threshold"),
        "line-enumerated": ((line, tl.discretize_pair(line, 16)[1]), "a ThresholdMarginal P "
                            "side, a ThresholdMarginal Q side and an enumerated"),
        "mixed": ((tl.TransferPair(pair.p, line.q), cls),
                  "a DiscreteJoint P side, a ThresholdMarginal Q side and an enumerated"),
    }


@pytest.mark.parametrize("combo", ["joints-raw", "line-enumerated", "mixed"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_refuses_a_cell_no_route_serves_before_any_cell_runs(monkeypatch, combo, jobs):
    # such a cell failed inside its first trial, after drawing it: joints with
    # the raw class in ensure_finite's TypeError, line sides with an
    # enumerated class on "sample contains points outside the projected support"
    bad, words = _unserved_cells()[combo]
    runs = []
    monkeypatch.setattr(ratelab, "_cell_excesses", lambda *a: runs.append(a))
    message = (f"cell 1 has {words} class, which no rate route serves: pass a class projected "
               f"onto the joints' support (project_onto_support) for two DiscreteJoint sides, "
               f"or the raw threshold class (threshold_class()) for two ThresholdMarginal sides")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tl.sweep(lambda n_p, n_q: bad if n_p == 16 else small_family(), "erm_q",
                 [(8, 8), (16, 16)], 2, 1, CONF, jobs=jobs)
    assert runs == []


@pytest.mark.parametrize("off", ["P", "Q"])
@pytest.mark.parametrize("estimator", ["erm_p", "erm_q"])
@pytest.mark.parametrize("jobs", [1, 2])
def test_sweep_refuses_joints_off_the_class_support_before_any_cell_runs(
        monkeypatch, off, estimator, jobs):
    # a joint over 9 points with a class over 16: such a cell drew before it
    # failed, or, for erm_q with P off the support, returned a row without
    # reading P
    line = tl.example_scenario(3, gamma=2.0)
    d9, (d16, cut16) = tl.discretize_pair(line, 9)[0], tl.discretize_pair(line, 16)
    bad = tl.TransferPair(d9.p, d16.q) if off == "P" else tl.TransferPair(d16.p, d9.q)
    runs = []
    monkeypatch.setattr(ratelab, "_cell_excesses", lambda *a: runs.append(a))
    message = "mass of shape (9,) for a class over 16 support points"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        tl.sweep(lambda n_p, n_q: (bad if n_p == 16 else d16, cut16), estimator,
                 [(8, 8), (16, 16)], 2, 1, CONF, jobs=jobs)
    assert runs == []


def test_rate_table_length_is_its_row_count():
    pair, cls = small_family()
    table = tl.monte_carlo(pair, cls, "erm_q", [(0, 8), (0, 16), (8, 0)], 2, seed=1, conf=CONF)
    assert len(table) == len(table.rows) == 3
    assert len(tl.RateTable([])) == 0


def test_parallel_jobs_bit_identical(tmp_path):
    pair, cls = small_family()
    grid = [(0, 64), (0, 128), (0, 256)]
    serial = tl.monte_carlo(pair, cls, "erm_q", grid, 16, seed=9, conf=CONF, jobs=1)
    parallel = tl.monte_carlo(pair, cls, "erm_q", grid, 16, seed=9, conf=CONF, jobs=2)
    assert serial.rows == parallel.rows
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    serial.to_csv(p1)
    parallel.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_sweep_starts_no_more_workers_than_cells(monkeypatch):
    # a fork pool starts every worker it is given at its first submit, so
    # jobs=10**6 on three cells asked for a million processes; this pool
    # records its size and maps in this process, starting none
    workers = []

    class Pool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    pair, cls = small_family()
    grid = [(0, 64), (0, 128), (0, 256)]
    serial = tl.monte_carlo(pair, cls, "erm_q", grid, 4, seed=2, conf=CONF)
    assert tl.monte_carlo(pair, cls, "erm_q", grid, 4, seed=2, conf=CONF,
                          jobs=10 ** 6).rows == serial.rows
    assert workers == [3]
    # one cell, or none, runs without a pool
    assert tl.monte_carlo(pair, cls, "erm_q", grid[:1], 4, seed=2, conf=CONF,
                          jobs=8).rows == serial.rows[:1]
    assert tl.monte_carlo(pair, cls, "erm_q", [], 4, seed=2, conf=CONF, jobs=8).rows == []
    assert workers == [3]


def test_csv_header_and_roundtrip(tmp_path):
    # the columns and their types come from RateRow's fields
    assert tl.ratelab.CSV_HEADER == ["n_p", "n_q", "estimator", "trials", "mean", "median",
                                     "q10", "q90", "seed"]
    pair, cls = small_family()
    for name in tl.ESTIMATORS:
        t = tl.monte_carlo(pair, cls, name, [(0, 64), (48, 16)], 10, seed=1, conf=CONF)
        path = tmp_path / f"{name}.csv"
        t.to_csv(path)
        first = path.read_text().splitlines()[0]
        assert first == "n_p,n_q,estimator,trials,mean,median,q10,q90,seed"
        back = tl.RateTable.from_csv(path)
        assert back.rows == t.rows
        types = [int, int, str, int, float, float, float, float, int]
        assert [type(v) for v in astuple(back.rows[0])] == types


@pytest.mark.parametrize("edit, fields", [(lambda rec: rec + ",7", 10),
                                          (lambda rec: rec.rsplit(",", 1)[0], 8)],
                         ids=["extra-field", "short-row"])
def test_csv_refuses_a_row_whose_field_count_differs_from_the_header(tmp_path, edit, fields):
    # an extra field was dropped without a word, and a short row raised
    # RateRow's TypeError naming no line
    path = tmp_path / "rates.csv"
    tl.RateTable([tl.RateRow(0, n, "erm_q", 3, 0.5, 0.5, 0.0, 1.0, 1) for n in (8, 16)]).to_csv(path)
    lines = path.read_text().splitlines()
    lines[2] = edit(lines[2])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"line 3 has {fields} fields, the header 9"):
        tl.RateTable.from_csv(path)


FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(stats=st.lists(st.tuples(FINITE, FINITE, FINITE, FINITE), min_size=1, max_size=4))
@example(stats=[(-0.0, 5e-324, 1e308, -1e308)])
@example(stats=[(2.0 ** -1060, -5e-324, 0.0, 1.7976931348623157e308)])
def test_csv_roundtrip_is_exact_for_any_finite_float(stats, tmp_path):
    rows = [tl.RateRow(i, 2 * i, "transfer", 3, *values, 2 ** 63 + i)
            for i, values in enumerate(stats)]
    path = tmp_path / "rates.csv"
    tl.RateTable(rows).to_csv(path)
    back = tl.RateTable.from_csv(path).rows
    assert back == rows
    # == does not tell -0.0 from 0.0; the hex form does
    assert [[float.hex(x) for x in (r.mean, r.median, r.q10, r.q90)] for r in back] == \
        [[float.hex(x) for x in values] for values in stats]


def test_fit_slope_exact_power_law():
    rows = [tl.RateRow(0, int(n), "erm_q", 1, float(n) ** -0.5, float(n) ** -0.5,
                       0.0, 0.0, 0) for n in (8, 16, 32, 64)]
    fit = tl.fit_slope(tl.RateTable(rows), "n_q", "median")
    assert fit.slope == pytest.approx(-0.5, abs=1e-12)
    assert fit.r2 == pytest.approx(1.0, abs=1e-12)


def test_fit_slope_constant_rows():
    rows = [tl.RateRow(0, int(n), "erm_q", 1, 0.25, 0.25, 0.0, 0.0, 0)
            for n in (8, 16, 32, 64)]
    fit = tl.fit_slope(tl.RateTable(rows), "n_q", "median")
    assert fit.slope == pytest.approx(0.0, abs=1e-12)


def test_fit_slope_noisy_recovers_truth():
    rng = np.random.default_rng(0)
    rows = []
    for n in 2 ** np.arange(4, 14):
        y = float(n) ** -0.75 * math.exp(rng.normal(0, 0.05))
        rows.append(tl.RateRow(0, int(n), "erm_q", 1, y, y, 0.0, 0.0, 0))
    fit = tl.fit_slope(tl.RateTable(rows), "n_q", "median")
    assert abs(fit.slope + 0.75) < 0.05


def test_fit_slope_errors_and_exclusions():
    rows = [tl.RateRow(0, n, "erm_q", 1, 0.0, 0.0, 0.0, 0.0, 0) for n in (8, 16, 32)]
    with pytest.raises(ValueError):
        tl.fit_slope(tl.RateTable(rows), "n_q", "median")
    # rows with a zero statistic are left out of the fit and counted
    mixed = rows + [tl.RateRow(0, n, "erm_q", 1, 1.0 / n, 1.0 / n, 0, 0, 0)
                    for n in (64, 128, 256)]
    fit = tl.fit_slope(tl.RateTable(mixed), "n_q", "median")
    assert (fit.n_used, fit.n_excluded) == (3, 3)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    report = tl.compare_to_theory(tl.RateTable(mixed), -1.0, 0.01, drop_smallest=1)
    assert (report["n_used"], report["n_excluded"], report["passed"]) == (3, 2, True)
    ok_rows = [tl.RateRow(0, int(n), "e", 1, 1.0 / n, 1.0 / n, 0, 0, 0)
               for n in (8, 16, 32, 64, 128)]
    fit = tl.fit_slope(tl.RateTable(ok_rows), "n_q", "median", drop_smallest=2)
    assert fit.n_used == 3
    with pytest.raises(ValueError):
        tl.fit_slope(tl.RateTable(ok_rows), "n_q", "median", drop_smallest=3)
    with pytest.raises(ValueError, match="drop_smallest must be >= 0, got -1"):
        tl.fit_slope(tl.RateTable(ok_rows), "n_q", "median", drop_smallest=-1)
    # an empty side has no log n: its row is left out like a zero statistic
    zero = [tl.RateRow(64, 0, "e", 1, 0.5, 0.5, 0, 0, 0)] + ok_rows[2:]
    fit = tl.fit_slope(tl.RateTable(zero), "n_q", "median")
    assert (fit.n_used, fit.n_excluded) == (3, 1)
    assert fit.slope == pytest.approx(-1.0, abs=1e-12)
    with pytest.raises(ValueError, match="at least 3 usable rows"):
        tl.fit_slope(tl.RateTable(zero[:3]), "n_q", "median")


def test_theory_rates_frozen_values():
    out = tl.theory_rates(1e4, 1e2, 10, 2.0, 0.0, 0.0)
    assert out.eps_main == pytest.approx(0.1778279410038923, abs=1e-12)
    assert out.effective_n_p == pytest.approx(100.0, abs=1e-9)


def test_theory_rates_beta_q_one_collapses_bounds():
    out = tl.theory_rates(5000, 300, 9, 2.0, 0.5, 1.0)
    assert out.eps_lower == pytest.approx(out.eps_upper, abs=1e-15)


def test_theory_rates_zero_sample_sentinels():
    out = tl.theory_rates(0, 100, 9, 2.0, 0.5, 0.5)
    assert math.isfinite(out.eps_main)
    out2 = tl.theory_rates(0, 0, 9, 2.0, 0.5, 0.5)
    assert out2.eps_main == math.inf


def test_theory_rates_lower_never_exceeds_upper():
    rng = np.random.default_rng(2)
    for _ in range(50):
        bp, bq = rng.uniform(0.2, 0.99, 2)
        rho = float(rng.uniform(max(1 / bp, 1 / bq), 6.0))
        n_p, n_q = rng.integers(1, 10**6, 2)
        out = tl.theory_rates(int(n_p), int(n_q), 9, rho, float(bp), float(bq))
        assert out.eps_lower <= out.eps_upper + 1e-12


def test_compare_to_theory_pass_and_fail():
    rows = [tl.RateRow(0, int(n), "e", 1, 1.0 / n, 1.0 / n, 0, 0, 0)
            for n in 2 ** np.arange(4, 10)]
    table = tl.RateTable(rows)
    ok = tl.compare_to_theory(table, -1.0, 0.01, axis="n_q", drop_smallest=0)
    assert ok["passed"]
    bad = tl.compare_to_theory(table, -0.5, 0.02, axis="n_q", drop_smallest=0)
    assert not bad["passed"] and bad["gap"] == pytest.approx(0.5, abs=1e-9)


def test_sweep_with_cell_builder():
    def build(n_p, n_q):
        eps = tl.epsilon_schedule(1, n_q, 9, 1.0, 0.5, 0.5)
        fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, eps)
        return fam.pairs[fam.sigma_index("all-ones")], fam.cls
    t = tl.sweep(build, "erm_q", [(0, 64), (0, 4096)], 25, seed=3, conf=CONF)
    assert t.rows[0].median > t.rows[1].median


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("estimator", [lambda sp, sq, c, conf: c[0], "bogus"],
                         ids=["callable", "bogus"])
def test_sweep_refuses_an_unregistered_estimator(estimator, jobs, monkeypatch):
    # a worker process runs an estimator by its registry id, so a rate table
    # takes ids only, and refuses any other before it builds or runs a cell
    built = []

    def build(n_p, n_q):
        built.append((n_p, n_q))
        return small_family()

    def no_cell(*args):
        raise AssertionError("a cell ran")

    monkeypatch.setattr(ratelab, "_cell_excesses", no_cell)
    ids = re.escape(", ".join(ratelab.ESTIMATORS))
    with pytest.raises(ValueError, match=f"estimator must be one of {ids}, got "):
        tl.sweep(build, estimator, [(8, 8), (0, 8)], 5, 1, CONF, jobs=jobs)
    with pytest.raises(ValueError, match=f"estimator must be one of {ids}, got "):
        tl.monte_carlo(*small_family(), estimator, [(8, 8), (0, 8)], 5, 1, CONF, jobs=jobs)
    assert built == []


def test_import_leaves_the_process_pool_unloaded():
    # only a grid that fans out over worker processes loads the pool stack
    code = (
        "import sys, transferlab as tl\n"
        "stack = ('multiprocessing', 'concurrent.futures.process')\n"
        "loaded = [m for m in stack if m in sys.modules]\n"
        "assert not loaded, loaded\n"
        "fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)\n"
        "tl.monte_carlo(fam.pairs[0], fam.cls, 'erm_q', [(0, 8), (0, 16)], 2, 1, jobs=2)\n"
        "assert all(m in sys.modules for m in stack)\n")
    src = str(Path(tl.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_super_transfer_source_slope_steeper():
    # concentrated source mass drives the target error down faster per source
    # sample than target sampling itself
    ex4 = tl.example_scenario(4, gamma=0.5)
    cls = tl.threshold_class()
    grid_p = [(2 ** k, 0) for k in range(6, 12)]
    grid_q = [(0, 2 ** k) for k in range(6, 12)]
    t_p = tl.monte_carlo(ex4, cls, "erm_p", grid_p, 100, seed=21, conf=CONF)
    t_q = tl.monte_carlo(ex4, cls, "erm_q", grid_q, 100, seed=22, conf=CONF)
    s_p = tl.fit_slope(t_p, "n_p", "median", drop_smallest=1).slope
    s_q = tl.fit_slope(t_q, "n_q", "median", drop_smallest=1).slope
    assert s_p < s_q - 0.5
    assert abs(s_q + 1.0) < 0.25


def _per_trial_excesses(pair, estimator, n_p, n_q, trials, seed, cell_key):
    """The oracle of a one-sample line cell: each trial's ERM on its read
    side's own draw, projected alone, and that member's exact Q excess."""
    cls = tl.threshold_class()
    side, n, key = (pair.p, n_p, 0) if estimator == "erm_p" else (pair.q, n_q, 1)
    q_best = tl.true_risk(pair.q, tl.best_in_class(pair.q, cls))
    return np.array([
        tl.true_risk(pair.q, tl.erm(cls, tl.sample_labeled(
            side, n, tl.distributions.derive_seed(seed, cell_key, t, key) if n else 0)))
        - q_best for t in range(trials)])


# 0 to 3 draws, a block of 2, 2 and 1 of five trials (2^12 // 1501 = 2), and
# one trial per block past 2^12 points
LINE_NS = (0, 1, 2, 3, 1501, 2 ** 12 + 1)


@settings(max_examples=12, deadline=None)
@given(sid=st.sampled_from([2, 3, 4]), gamma=st.floats(0.0, 1.0, exclude_max=True),
       seed=st.integers(0, 2 ** 64 - 1))
def test_one_sample_line_cells_match_the_per_trial_oracle(sid, gamma, seed):
    # a one-sample ERM cell on a line pair runs as sorted blocks; each trial
    # equals the per-trial path bit for bit, whether or not the other side
    # draws too
    gamma = {2: None, 3: 1.0 + 3.0 * gamma, 4: 0.05 + 0.9 * gamma}[sid]
    pair, cls = tl.example_scenario(sid, gamma=gamma), tl.threshold_class()
    for n in LINE_NS:
        for estimator, n_p, n_q in (("erm_p", n, 0), ("erm_p", n, 7),
                                    ("erm_q", 0, n), ("erm_q", 5, n)):
            got = ratelab._cell_excesses(pair, cls, estimator, n_p, n_q, 5, seed, 3, CONF)
            want = _per_trial_excesses(pair, estimator, n_p, n_q, 5, seed, 3)
            assert got.tobytes() == want.tobytes(), (estimator, n_p, n_q)


# h* on the middle one of the five floats, below them all, and on the top one
TIE_H_STARS = {"middle": 1.0 + 2.0 ** -51, "below": 1.0 - 2.0 ** -53, "top": 1.0 + 2.0 ** -50}


@pytest.mark.parametrize("where", sorted(TIE_H_STARS))
@pytest.mark.parametrize("n", [1, 2, 3, 64, 1501])
def test_one_sample_line_cells_match_the_oracle_on_forced_ties(n, where):
    # five distinct floats carry every draw: equal points share a label, so
    # each trial's ERM lies between its largest point labeled 1 and its
    # smallest labeled 0, and a point on h* is labeled 1.  With h* below every
    # point no point is labeled 1, on the top one every point is: each trial
    # then has a neighbour at -inf or +inf
    tie = tl.ThresholdMarginal(tl.uniform_density(1.0, 1.0 + 2.0 ** -50), TIE_H_STARS[where])
    pair = tl.TransferPair(tie, tie)
    xs = tl.sample_labeled(tie, 64, 0).xs
    labels = {"middle": {False, True}, "below": {False}, "top": {True}}[where]
    assert np.unique(xs).size == 5 and set((xs <= tie.h_star).tolist()) == labels
    assert (xs == tie.h_star).any() == (where != "below")
    for estimator, n_p, n_q in (("erm_p", n, 0), ("erm_q", 0, n), ("erm_p", n, n)):
        got = ratelab._cell_excesses(pair, tl.threshold_class(), estimator, n_p, n_q, 9, 7, 1,
                                     CONF)
        want = _per_trial_excesses(pair, estimator, n_p, n_q, 9, 7, 1)
        assert got.tobytes() == want.tobytes(), (estimator, n_p, n_q)


FINITE_NS = ((0, 0), (0, 40), (40, 0), (13, 40), (300, 7))


@pytest.mark.parametrize("estimator", sorted(tl.ESTIMATORS))
def test_finite_cells_match_the_per_trial_oracle(estimator):
    # every finite cell runs as a batch; each trial equals the registry
    # procedure on its own draws, handed over as points, bit for bit
    seed, key, derive = 2 ** 63 + 5, 2, tl.distributions.derive_seed
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    for pair, cls in ((fam[fam.sigma_index("all-ones")], fam.cls),
                      tl.discretize_pair(tl.example_scenario(3, gamma=2.0), 16)):
        q_best = tl.true_risk(pair.q, tl.best_in_class(pair.q, cls))
        for n_p, n_q in FINITE_NS:
            got = ratelab._cell_excesses(pair, cls, estimator, n_p, n_q, 6, seed, key, CONF)
            want = np.array([tl.true_risk(pair.q, tl.ESTIMATORS[estimator](
                oracles.sample_labeled(pair.p, n_p, derive(seed, key, t, 0) if n_p else 0),
                oracles.sample_labeled(pair.q, n_q, derive(seed, key, t, 1) if n_q else 0),
                cls, CONF)) - q_best for t in range(6)])
            assert got.tobytes() == want.tobytes(), (n_p, n_q)


def _erm_mean_excess_by_enumeration(joint, cls, n):
    """The mean excess of the lowest-index ERM over every count vector of n
    draws over the cells (x_0, 0), (x_0, 1), (x_1, 0), ..."""
    labels = oracles.label_matrix(cls)
    cells = np.column_stack((joint.mass * (1 - joint.eta), joint.mass * joint.eta)).ravel()
    risks = labels @ cells[::2] + (1 - labels) @ cells[1::2]
    total = 0.0
    for draws in itertools.combinations_with_replacement(range(cells.size), n):
        counts = np.bincount(np.array(draws, dtype=np.int64), minlength=cells.size)
        coef = math.factorial(n) / math.prod(math.factorial(c) for c in counts)
        chosen = np.argmin(labels @ counts[::2] + (1 - labels) @ counts[1::2])
        total += coef * np.prod(cells ** counts) * (risks[chosen] - risks.min())
    return total


# (rho, beta_p, beta_q, eps): noisy sides; a noiseless target; a target with
# no anchor mass
LAW_FAMILIES = [(1.0, 0.5, 0.5, 0.25), (1.0, 0.5, 1.0, 0.3), (1.0, 0.5, 0.0, 0.2)]


@pytest.mark.parametrize("family", LAW_FAMILIES, ids=str)
def test_erm_mean_excess_matches_a_brute_force_sum(family):
    # at all-ones every tie goes to the wrong label; the other sign vectors
    # mix points where ERM's tie is right and wrong
    fam = tl.build_single_scale_family(9, *family)
    for i in (fam.sigma_index("all-ones"), 0, 100):
        for n in range(5):
            want = _erm_mean_excess_by_enumeration(fam[i].q, fam.cls, n)
            assert oracles.erm_mean_excess(fam[i].q, n) == pytest.approx(want, rel=1e-12,
                                                                         abs=1e-15), (i, n)


# fixed before any run: k standard errors, T trials and the seed
LAW_K, LAW_TRIALS, LAW_SEED = 4.0, 4000, 20261022


def test_erm_q_monte_carlo_mean_matches_the_exact_law():
    # the family's worst sign vector for ERM; ties sent to label 1 would move
    # the n = 64 mean by tens of standard errors.  A wrong point costs 1/32,
    # so at n = 512 (law 5.6e-4) about 72 of the T trials are wrong somewhere
    # and the sd rests on them; at n = 1024 (5.5e-6) under one would be
    fam = tl.build_single_scale_family(9, 1.0, 0.5, 0.5, 0.25)
    pair = fam[fam.sigma_index("all-ones")]
    for key, n in enumerate((64, 256, 512)):
        exc = ratelab._cell_excesses(pair, fam.cls, "erm_q", 0, n, LAW_TRIALS, LAW_SEED, key,
                                     CONF)
        law = oracles.erm_mean_excess(pair.q, n)
        assert abs(exc.mean() - law) <= LAW_K * exc.std(ddof=1) / math.sqrt(LAW_TRIALS), n


@st.composite
def trial_batches(draw):
    """A class over s points (the full cube, or the cut class) and T trials of
    (point, label) draws per side.  A side has 0 to 5 draws per trial; a tied
    side adds each draw again with the other label, so every member ties on
    it.  At delta = 1/e and n <= d the width is 1/n, so at c = 0.5 a member
    one draw worse than the anchor, disagreeing on that draw alone, lies
    exactly on the near-optimal radius."""
    s, T = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cls = (tl.project_class(tl.threshold_class(), np.arange(float(s))) if draw(st.booleans())
           else tl.full_cube_class(s))
    sides = []
    for _ in range(2):
        n = draw(st.integers(0, 5))
        draws = st.lists(st.tuples(st.integers(0, s - 1), st.integers(0, 1)),
                         min_size=n, max_size=n)
        trials = [draw(draws) for _ in range(T)]
        if draw(st.booleans()):
            trials = [d + [(x, 1 - y) for x, y in d] for d in trials]
        sides.append(trials)
    conf = tl.ConfidenceParams(draw(st.sampled_from([0.5, 1.0, 2.0])),
                               draw(st.sampled_from([1 / math.e, 0.1])))
    return cls, sides, conf


@settings(max_examples=300, deadline=None)
@given(batch=trial_batches())
def test_trial_choices_match_the_oracles(batch):
    # every batched choice equals the oracle's on that trial's samples alone
    cls, sides, conf = batch
    s = cls.support_size
    counts, samples = [], []
    for trials in sides:
        points, ones = np.zeros((2, len(trials), s), dtype=np.int64)
        for t, draws in enumerate(trials):
            for x, y in draws:
                points[t, x] += 1
                ones[t, x] += y
        counts.append(SampleCounts._trusted(points.T, ones.T))
        samples.append([tl.LabeledSample(np.array([x for x, _ in d], dtype=np.int64),
                                         np.array([y for _, y in d], dtype=np.int8))
                        for d in trials])
    members, params = cls.members, (conf.c, conf.delta, cls.vc_dim)
    pairs = list(zip(*samples))
    want = {
        "erm_p": [oracles.erm_index(members, sp) for sp, _ in pairs],
        "erm_q": [oracles.erm_index(members, sq) for _, sq in pairs],
        "transfer": [oracles.transfer_erm_index(members, sp, sq, *params) for sp, sq in pairs],
        "reverse_transfer": [oracles.transfer_erm_index(members, sq, sp, *params)
                             for sp, sq in pairs],
        "selector": [oracles.selector_index(members, sp, sq, *params) for sp, sq in pairs],
    }
    for name in tl.ESTIMATORS:
        assert ratelab._CHOICES[name](cls, *counts, conf).tolist() == want[name], name


# cells of the golden tables: tuned d_h = 9 cells (empty sides included), one
# cut-class cell from `discretize_pair` and one raw threshold-class cell
GOLDEN_TUNED = [(0, 64), (64, 0), (0, 0), (256, 16), (16, 256), (1024, 1024), (4096, 8)]
GOLDEN_CUT, GOLDEN_LINE = (200, 50), (96, 96)


def _golden_builder(n_p, n_q):
    line = tl.example_scenario(3, gamma=2.0)
    if (n_p, n_q) == GOLDEN_CUT:
        return tl.discretize_pair(line, 64)
    if (n_p, n_q) == GOLDEN_LINE:
        return line, tl.threshold_class()
    eps = tl.epsilon_schedule(max(n_p, 1), max(n_q, 1), 9, 2.0, 0.5, 0.5)
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, eps)
    return fam.pairs[fam.sigma_index("all-ones")], fam.cls


def _golden_table(estimator: str, jobs: int) -> tl.RateTable:
    """40 trials on every golden cell, then one trial on three tuned cells."""
    many = tl.sweep(_golden_builder, estimator, GOLDEN_TUNED + [GOLDEN_CUT, GOLDEN_LINE],
                    40, 2020, CONF, jobs)
    one = tl.sweep(_golden_builder, estimator, [(0, 64), (128, 32), (64, 0)], 1, 2021,
                   CONF, jobs)
    return tl.RateTable(many.rows + one.rows)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("estimator", sorted(tl.ESTIMATORS))
def test_rates_golden_bytes(estimator, jobs, tmp_path):
    # the files pin every rate CSV byte for each registry estimator; regenerate
    # them (see the end of this file) only for an intended change of output
    path = tmp_path / f"{estimator}.csv"
    _golden_table(estimator, jobs).to_csv(path)
    assert path.read_bytes() == (GOLDEN / f"{estimator}.csv").read_bytes()


if __name__ == "__main__":
    # rewrite the golden files from the current code:
    #   PYTHONPATH=src python tests/test_ratelab.py
    GOLDEN.mkdir(exist_ok=True)
    for name in sorted(tl.ESTIMATORS):
        _golden_table(name, 1).to_csv(GOLDEN / f"{name}.csv")
        print(f"wrote {GOLDEN / name}.csv")


def test_csv_refuses_a_foreign_header(tmp_path):
    path = tmp_path / "rates.csv"
    path.write_text("n_p,n_q,estimator\n0,8,erm_q\n")
    with pytest.raises(ValueError, match=re.escape(
            "unexpected CSV header ['n_p', 'n_q', 'estimator']")):
        tl.RateTable.from_csv(path)
