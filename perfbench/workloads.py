"""The benchmark's three workloads, as lists of independently timed units.

A unit is one call the benchmark times from outside: `run()` does the work
and returns its outputs, `check(outputs)` raises `Invariant` when an output
breaks a property the paper's constructions guarantee, and otherwise returns
the outputs as canonical text for the workload's fingerprint.  Every random
choice comes from the workload seed through a generator owned by the
benchmark, so the program only ever receives generated inputs.

Why these workloads:

- certify: brute-force certification, no sampling.  Class/family
  construction and the discrepancy brute force do the work; sampling,
  procedures, adaptive and reweighting do none.  It is the "no change" side
  for every sampling-path optimisation.
- rates: Monte Carlo cells.  Tuned d_h = 9 cells exercise ratelab,
  procedures, sampling and small-class evaluation; raw-threshold line cells
  spend their time in the projection of the threshold class, which the
  discrete cells bypass.  The two halves take similar time.
- sampling: the adaptive sampler (many small recounts of a growing sample)
  and reweighting / multi-source choice (a few dense members x sample
  products) use the evaluation layer in opposite shapes.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import transferlab as tl
from transferlab import cli

CONF = tl.ConfidenceParams(c=1.0, delta=0.1)
TOL = 1e-9

# unit counts and trial counts per size; "tiny" is the self-test's size
SIZES = {
    "full": dict(
        ss_grid=54, ss15=3, two_scale=4, line_gammas=2,
        rate_settings=5, rate_ks=range(6, 15), rate_trials=60,
        line_ns=(64, 128, 256), line_trials=10, ermp_ks=range(6, 13), ermp_trials=60,
        cli_rate_trials=60,
        noisy=120, cheap=80, q_only=80, multi=40, reweight=50, cli_trials=10,
        fanout_trials=400),
    "tiny": dict(
        ss_grid=2, ss15=0, two_scale=1, line_gammas=1,
        rate_settings=1, rate_ks=(6, 8), rate_trials=4,
        line_ns=(64,), line_trials=2, ermp_ks=(6,), ermp_trials=4,
        cli_rate_trials=60,
        noisy=2, cheap=2, q_only=2, multi=1, reweight=1, cli_trials=2,
        fanout_trials=4),
}


class Invariant(AssertionError):
    """An output broke a property the construction guarantees."""


def require(ok, what: str):
    if not ok:
        raise Invariant(what)


@dataclass
class Unit:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str]


class Inputs:
    """Seeded source of unit inputs for one workload."""

    def __init__(self, seed: int, tag: int):
        self.rng = np.random.default_rng([seed, tag])

    def seed(self) -> int:
        return int(self.rng.integers(2 ** 62))

    def uniform(self, lo: float, hi: float) -> float:
        return float(self.rng.uniform(lo, hi))

    def signs(self, d: int) -> np.ndarray:
        return (self.rng.integers(0, 2, size=(1, d)) * 2 - 1).astype(np.int8)


def call_cli(argv: list[str], out_path: str):
    """Run one CLI command in-process; return (exit code, stdout, --out bytes)."""
    if os.path.exists(out_path):
        os.remove(out_path)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(argv + ["--jobs", "1", "--out", out_path])
    data = b""
    if os.path.exists(out_path):
        with open(out_path, "rb") as fh:
            data = fh.read()
    return code, stdout.getvalue(), data


def cli_unit(name: str, argv: list[str], out_path: str, check_payload) -> Unit:
    def check(out):
        code, text, data = out
        require(code == 0, f"exit code {code}")
        check_payload(text, data)
        return f"{text}{data.decode()}"
    return Unit(name, lambda: call_cli(argv, out_path), check)


def _labels(h) -> str:
    return repr((h.threshold, h.labels))


# ---------------------------------------------------------------------------
# certify


def _single_scale_unit(d_h, rho, beta, eps, seed) -> Unit:
    def run():
        fam = tl.build_single_scale_family(d_h, rho, beta, beta, eps, seed=seed)
        reports = tl.verify_family(fam, constant=1.0)
        probes = (0, seed % len(fam))
        values = [tl.rho_min(fam.pairs[i], fam.cls, 1.0).value for i in probes]
        return fam, reports, values

    def check(out):
        fam, reports, values = out
        require(all(r.ok for r in reports), "family fails certification")
        for v in values:
            require(abs(v - rho) < TOL, f"rho_min {v!r} != {rho}")
        return repr((len(fam), fam.sigmas.tobytes().hex(), values))
    return Unit(f"single-scale d_h={d_h} rho={rho} beta={beta} eps={eps}", run, check)


def _two_scale_unit(d_h, rho, bp, bq) -> Unit:
    def run():
        fam = tl.build_two_scale_family(d_h, rho, bp, bq, 0.25, 0.125)
        gamma = tl.gamma_min(fam.pairs[0], fam.cls, 2.0).value
        return fam, gamma, tl.verify_family(fam, constant=2.0)

    def check(out):
        fam, gamma, reports = out
        require(abs(gamma - rho * bp) < TOL, f"gamma_min {gamma!r} != {rho * bp}")
        require(all(r.ok for r in reports), "family fails certification")
        return repr((len(fam), gamma))
    return Unit(f"two-scale d_h={d_h} rho={rho} beta=({bp},{bq})", run, check)


def _quantity(pair, cls, quantity):
    cert = pair.certified
    if quantity == "rho":
        return tl.rho_min(pair, cls, cert.c_rho).value
    if quantity == "gamma":
        return tl.gamma_min(pair, cls, cert.c_gamma).value
    if quantity == "rho_prime":
        return tl.rho_prime_min(pair, cls, cert.c_rho).value
    if quantity in ("beta_p", "beta_q"):
        rep = tl.beta_max(pair.p if quantity == "beta_p" else pair.q, cls, 1.0)
        return rep.value if rep.satisfied else -1.0
    if quantity == "d_y_localized":
        return tl.d_y_localized(pair, cls, 0.01)
    return {"d_a": tl.d_a, "d_y": tl.d_y}[quantity](pair, cls)


QUANTITIES = ("rho", "gamma", "rho_prime", "beta_p", "beta_q", "d_a", "d_y",
              "d_y_localized")


def _line_unit(sid, gamma, quantity) -> Unit:
    def run():
        pair = tl.example_scenario(sid, gamma=gamma)
        return pair, _quantity(pair, tl.threshold_class(), quantity)

    def check(out):
        pair, value = out
        cert = pair.certified
        if quantity in ("rho", "rho_prime"):
            require(0.0 < value <= cert.rho + TOL, f"{quantity} {value!r} > {cert.rho}")
        elif quantity == "gamma":
            require(0.0 < value <= cert.gamma + TOL, f"gamma {value!r} > {cert.gamma}")
        elif quantity.startswith("beta"):
            want = cert.beta_p if quantity == "beta_p" else cert.beta_q
            require(value >= want - TOL, f"{quantity} {value!r} < {want}")
        else:
            require(0.0 <= value <= 1.0, f"{quantity} {value!r} outside [0, 1]")
        if sid == 2 and quantity == "gamma":
            require(value == 1.0, f"scenario 2 gamma {value!r} != 1 at C = 2")
        if sid == 2 and quantity in ("d_a", "d_y"):
            require(value == 0.25, f"scenario 2 {quantity} {value!r} != 1/4")
        return repr(value)
    return Unit(f"scenario {sid} gamma={gamma} {quantity}", run, check)


def certify_units(seed: int, root: str, tmp: str, size: str) -> list[Unit]:
    z = SIZES[size]
    src = Inputs(seed, 1)
    units = []
    grid = itertools.product((9, 13), (1.0, 2.0, 4.0), (0.25, 0.5, 0.9), (0.1, 0.25, 0.5))
    for d_h, rho, beta, eps in itertools.islice(grid, 0, None, 54 // z["ss_grid"]):
        units.append(_single_scale_unit(d_h, rho, beta, eps, src.seed()))
    for rho, beta, eps in ((2.0, 0.5, 0.25), (1.0, 0.9, 0.1), (4.0, 0.25, 0.5))[:z["ss15"]]:
        units.append(_single_scale_unit(15, rho, beta, eps, src.seed()))
    for rho, bp, bq in ((2.0, 0.5, 0.5), (2.0, 0.5, 0.75), (4.0, 0.25, 0.5),
                        (1.25, 0.8, 0.9))[:z["two_scale"]]:
        units.append(_two_scale_unit(11, rho, bp, bq))
    scenarios = [(2, None)]
    for _ in range(z["line_gammas"]):
        scenarios += [(3, src.uniform(1.0, 4.0)), (4, src.uniform(0.2, 0.8))]
    for sid, gamma in scenarios:
        units += [_line_unit(sid, gamma, q) for q in QUANTITIES]

    def verified(text, data):
        doc = json.loads(data)
        require(doc["all_ok"] and doc["pairs"] == 256 and doc["violations"] == 0,
                "verify-family config does not certify")

    def exponent(text, data):
        doc = json.loads(data)
        require(doc["value"] == 1.0, f"example 2 gamma {doc['value']!r} != 1")

    configs = os.path.join(root, "configs")
    units.append(cli_unit("cli verify-family", [
        "verify-family", "--config", os.path.join(configs, "single_scale_verify.json")],
        os.path.join(tmp, "verify.json"), verified))
    units.append(cli_unit("cli exponent", [
        "exponent", "--config", os.path.join(configs, "example2_exponent.json")],
        os.path.join(tmp, "exponent.json"), exponent))
    return units


# ---------------------------------------------------------------------------
# rates


def _tuned_builder(rho, beta_p, beta_q, signs):
    def build(n_p, n_q):
        eps = tl.epsilon_schedule(max(n_p, 1), max(n_q, 1), 9, rho, beta_p, beta_q)
        fam = tl.build_single_scale_family(9, rho, beta_p, beta_q, eps, sigmas=signs)
        return fam.pairs[0], fam.cls
    return build


def _rate_unit(name, run_table, cell, trials) -> Unit:
    def check(table):
        require(len(table.rows) == 1, "one row per cell")
        row = table.rows[0]
        require((row.n_p, row.n_q) == cell, f"cell {(row.n_p, row.n_q)} != {cell}")
        require(row.trials == trials, f"trials {row.trials} != {trials}")
        require(min(row.q10, row.median, row.mean) >= -1e-12,
                f"negative exact excess {row.q10!r}")
        return repr((row.mean, row.median, row.q10, row.q90))
    return Unit(name, run_table, check)


def rates_units(seed: int, root: str, tmp: str, size: str) -> list[Unit]:
    z = SIZES[size]
    src = Inputs(seed, 2)
    units = []
    settings = ((1.0, 0.5, 0.5), (2.0, 0.5, 0.5), (1.0, 1.0, 1.0), (2.0, 1.0, 0.5),
                (4.0, 0.25, 0.5))[:z["rate_settings"]]
    trials = z["rate_trials"]
    for rho, bp, bq in settings:
        build = _tuned_builder(rho, bp, bq, src.signs(8))
        for k in z["rate_ks"]:
            for est, cell in (("erm_q", (0, 2 ** k)), ("transfer", (2 ** k, 8))):
                s = src.seed()
                units.append(_rate_unit(
                    f"tuned rho={rho} beta=({bp},{bq}) {est} {cell}",
                    lambda b=build, e=est, c=cell, s=s: tl.sweep(b, e, [c], trials, s, CONF),
                    cell, trials))
    line3 = tl.example_scenario(3, gamma=src.uniform(1.5, 3.0))
    line4 = tl.example_scenario(4, gamma=src.uniform(0.3, 0.7))
    raw = tl.threshold_class()
    for n in z["line_ns"]:
        for est in ("transfer", "selector"):
            s = src.seed()
            units.append(_rate_unit(
                f"scenario 3 raw {est} n={n}",
                lambda e=est, n=n, s=s: tl.monte_carlo(line3, raw, e, [(n, n)],
                                                       z["line_trials"], s, CONF),
                (n, n), z["line_trials"]))
    for k in z["ermp_ks"]:
        s = src.seed()
        units.append(_rate_unit(
            f"scenario 4 raw erm_p n={2 ** k}",
            lambda k=k, s=s: tl.monte_carlo(line4, raw, "erm_p", [(2 ** k, 0)],
                                            z["ermp_trials"], s, CONF),
            (2 ** k, 0), z["ermp_trials"]))

    out = os.path.join(tmp, "rates.csv")

    def rate_csv(text, data):
        table = tl.RateTable.from_csv(out)
        require(len(table) == 7, "rates config has seven cells")
        require(all(r.trials == z["cli_rate_trials"] and r.q10 >= -1e-12
                    for r in table.rows), "rates CSV trials or excess")
        json.loads(text)

    units.append(cli_unit("cli rates", [
        "rates", "--config", os.path.join(root, "configs", "target_rate_sweep.json"),
        "--seed", str(src.seed()), "--set", f"trials={z['cli_rate_trials']}"],
        out, rate_csv))
    return units


# ---------------------------------------------------------------------------
# sampling


def _samplers(pair):
    return (lambda n, s: tl.sample_labeled(pair.p, n, s),
            lambda n, s: tl.sample_labeled(pair.q, n, s))


def _adaptive_unit(name, pair, cls, eps, sched_p, sched_q, useed, seed,
                   q_only=False, noiseless=False) -> Unit:
    sp, sq = _samplers(pair)
    need = tl.unlabeled_requirement(eps, CONF.delta, cls.vc_dim)

    def run():
        pool = tl.sample_unlabeled(pair.q, need, useed)
        return tl.run_adaptive_sampling(eps, sched_p, sched_q, sp, sq, pool, cls, CONF,
                                        seed=seed, q_only=q_only)

    def check(out):
        h, transcript = out
        total = 0.0
        for r in transcript.rounds:
            total += r.cost_p + r.cost_q
        require(math.isclose(total, transcript.total_cost, rel_tol=1e-12),
                f"round costs sum to {total!r}, transcript says {transcript.total_cost!r}")
        require(transcript.returned_by in ("step6", "step7"), "no stopping rule fired")
        excess = tl.excess_risk(pair.q, h, cls)
        require(excess >= -1e-12, f"negative exact excess {excess!r}")
        if noiseless:
            require(excess <= eps, f"excess {excess!r} > eps {eps}")
        return transcript.to_jsonl() + _labels(h)
    return Unit(name, run, check)


def sampling_units(seed: int, root: str, tmp: str, size: str) -> list[Unit]:
    z = SIZES[size]
    src = Inputs(seed, 3)
    units = []
    unit_cost = tl.CostSchedule("linear", 1.0)
    cheap = tl.CostSchedule("linear", 0.01)

    noisy_fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    for i in range(z["noisy"]):
        pair = noisy_fam.pairs[src.seed() % len(noisy_fam)]
        units.append(_adaptive_unit(f"adaptive noisy d_h=9 #{i}", pair, noisy_fam.cls,
                                    0.05, unit_cost, unit_cost, src.seed(), src.seed()))

    gammas = (1.0, 1.5, 2.0, 3.0)
    line = {g: tl.discretize_pair(tl.example_scenario(3, gamma=g), 256) for g in gammas}
    for q_only, count in ((False, z["cheap"]), (True, z["q_only"])):
        for i in range(count):
            g, eps = gammas[i % 4], (0.1, 0.05)[(i // 4) % 2]
            pair, cls = line[g]
            units.append(_adaptive_unit(
                f"adaptive scenario 3 gamma={g} eps={eps} q_only={q_only} #{i}",
                pair, cls, eps, cheap, unit_cost, src.seed(), src.seed(),
                q_only=q_only, noiseless=True))

    src1, cls64 = tl.discretize_pair(tl.example_scenario(3, gamma=1.0), 64)
    src2, _ = tl.discretize_pair(tl.example_scenario(3, gamma=3.0), 64)
    empty = tl.LabeledSample(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int8), 0)
    for i in range(z["multi"]):
        seeds = (src.seed(), src.seed(), src.seed())

        def multi(seeds=seeds):
            sources = [tl.sample_labeled(src1.p, 4096, seeds[0]),
                       tl.sample_labeled(src2.p, 4096, seeds[1])]
            pool = tl.sample_unlabeled(src1.q, 8192, seeds[2])
            return tl.multi_source_transfer_erm(sources, empty, pool, cls64, CONF)
        units.append(Unit(f"multi-source #{i}", multi, _chosen(cls64, 2)))

    rw_fam = tl.build_single_scale_family(10, 2.0, 0.5, 0.5, 0.25, sigmas=src.signs(9))
    rw_pair, rw_cls = rw_fam.pairs[0], rw_fam.cls
    for i in range(z["reweight"]):
        weights = [np.ones(10)] + [src.rng.choice((0.0, 0.5, 1.0, 2.0), size=10)
                                   for _ in range(3)]
        family = tl.DensityFamily(weights)
        seeds = (src.seed(), src.seed(), src.seed())

        def reweight(family=family, seeds=seeds):
            sp = tl.sample_labeled(rw_pair.p, 1024, seeds[0])
            sq = tl.sample_labeled(rw_pair.q, 64, seeds[1])
            pool = tl.sample_unlabeled(rw_pair.q, 1024, seeds[2])
            return tl.reweighted_transfer_erm(sp, sq, pool, family, rw_cls, CONF)
        units.append(Unit(f"reweight K=4 M=512 #{i}", reweight, _chosen(rw_cls, 4)))

    trials = str(z["cli_trials"])

    def adaptive_summary(text, data):
        doc = json.loads(text)
        require(doc["success_rate"] == 1.0, "noiseless scenario missed eps")
        for line_ in data.decode().splitlines():
            json.loads(line_)

    def select_choices(text, data):
        doc = json.loads(data)
        require(all(c in (0, 1) for c in doc["choices"]), "source index out of range")

    def reweight_choices(text, data):
        doc = json.loads(data)
        require(all(c in (0, 1) for c in doc["chosen"]), "density index out of range")

    units.append(cli_unit("cli adaptive", [
        "adaptive", "--config", os.path.join(root, "configs", "cheap_source_adaptive.json"),
        "--seed", str(src.seed()), "--set", f"trials={trials}"],
        os.path.join(tmp, "runs.jsonl"), adaptive_summary))
    units.append(cli_unit("cli select", [
        "select", "--seed", str(src.seed()),
        "--set", 'sources=[{"id":3,"gamma":1.0,"cells":64},{"id":3,"gamma":3.0,"cells":64}]',
        "--set", "n_sources=[4096,4096]", "--set", "unlabeled=8192",
        "--set", f"trials={trials}"],
        os.path.join(tmp, "select.json"), select_choices))
    units.append(cli_unit("cli reweight", [
        "reweight", "--seed", str(src.seed()), "--set", 'scenario={"id":2,"cells":16}',
        "--set", "densities=[[1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1],"
                 "[2,2,2,2,2,2,2,2,0,0,0,0,0,0,0,0]]",
        "--set", "n_p=512", "--set", "unlabeled=1024", "--set", f"trials={trials}"],
        os.path.join(tmp, "reweight.json"), reweight_choices))
    return units


def _chosen(cls, choices):
    def check(out):
        h, index = out
        require(0 <= index < choices, f"chosen index {index} outside [0, {choices})")
        require(any(h is m for m in cls.members), "returned hypothesis is not a member")
        return f"{index}:{_labels(h)}"
    return check


WORKLOADS = {"certify": certify_units, "rates": rates_units, "sampling": sampling_units}

# traced-run expectations: groups each workload must reach, and groups it must
# bypass entirely
EXPECTED = {
    "certify": ("hypotheses.build", "distributions.build", "distributions.risk",
                "discrepancy.profile", "discrepancy.reduce", "cli.main"),
    "rates": ("hypotheses.build", "hypotheses.eval", "distributions.sample",
              "distributions.build", "distributions.risk", "procedures.project",
              "procedures.feasible", "procedures.estimate", "ratelab.sweep",
              "ratelab.fit", "cli.main"),
    "sampling": ("hypotheses.eval", "distributions.sample", "distributions.build",
                 "procedures.feasible", "adaptive.run", "adaptive.delta_hat",
                 "reweighting.choose", "reweighting.delta_hat_weighted",
                 "reweighting.weighted_risks", "cli.main"),
}
REWEIGHTING = ("reweighting.choose", "reweighting.delta_hat_weighted",
               "reweighting.weighted_risks")
BYPASSED = {
    "certify": ("procedures.project", "adaptive.run") + REWEIGHTING,
    "rates": ("discrepancy.profile", "discrepancy.reduce", "adaptive.run") + REWEIGHTING,
    "sampling": ("procedures.project", "discrepancy.profile", "discrepancy.reduce"),
}


def fanout(tmp: str, size: str) -> tuple[float, float, int, bool]:
    """Wall time of one fixed multi-cell grid at jobs 1 and jobs 2.

    Returns (jobs-1 seconds, jobs-2 seconds, workers used, CSV bytes equal).
    Workers never exceed the cores this process may run on.
    """
    fam = tl.build_single_scale_family(9, 2.0, 0.5, 0.5, 0.25)
    pair = fam.pairs[fam.sigma_index("all-ones")]
    grid = [(n_p, n_q) for n_p in (1024, 2048, 4096, 8192) for n_q in (32, 128)]
    workers = min(2, len(os.sched_getaffinity(0)))
    times, blobs = [], []
    for jobs in (1, workers):
        path = os.path.join(tmp, f"fanout-jobs{jobs}.csv")
        t0 = time.perf_counter()
        tl.monte_carlo(pair, fam.cls, "transfer", grid, SIZES[size]["fanout_trials"],
                       seed=20020, conf=CONF, jobs=jobs).to_csv(path)
        times.append(time.perf_counter() - t0)
        with open(path, "rb") as fh:
            blobs.append(fh.read())
    return times[0], times[1], workers, blobs[0] == blobs[1]
