"""transferlab benchmark: one workload per run, metrics as the last stdout line.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Run from anywhere; the program is imported from `src/` of the checkout that
holds this file, never from an installed copy.  A run drives the library and
the CLI in-process from a single process, with `--jobs 1` and BLAS pinned to
one thread, so the numbers measure transferlab rather than the scheduler.

--trace 0 repeats whole passes over the workload's units for about --seconds
and reports wall_s (median pass), unit_p50_ms / unit_p90_ms (all units of all
passes), peak_rss_mb and setup_s (median of five rounds of: import in a fresh
interpreter, input generation and one warm-up unit).  The times of the units
are calibrated against a reference kernel timed between them (calibrate.py);
the uncalibrated values are printed beside them.  --trace 1 runs one untraced
pass and two traced passes, and reports per-layer calls, self time and counts,
the tracing overhead, and the sweep fan-out speedup at jobs 1 against jobs 2.
Every unit checks its outputs; the run is correct only if none fails, every
pass gives the same output fingerprint and, when traced, every bypass holds.
Spans and a full result record are written under `.perfbench/` in the
checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

# pinned before numpy loads: the benchmark measures one BLAS thread
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS")
for _var in BLAS_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the pin)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("certify", "rates", "sampling")
SETUP_REPEATS = 5
TRACED_PASSES = 2

clock = time.perf_counter


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny runs a handful of units (self-test)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_program():
    """Import transferlab from this checkout's src/, never an installed copy."""
    sys.path.insert(0, SRC)
    import transferlab
    where = os.path.realpath(transferlab.__file__)
    if not where.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"transferlab was imported from {where}, not from {SRC}")


IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
                "import transferlab; print(time.perf_counter() - t0)")


def import_seconds() -> float:
    """Time `import transferlab` (numpy included) in a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                          text=True, timeout=120, check=True)
    return float(proc.stdout)


class Pass:
    """Outcome of running every unit once.

    The reference kernel is timed before the first unit, after the last, and
    whenever `reference.every_s` of unit time has passed; `latencies` and `wall` are
    calibrated by it, `raw_latencies` and `raw_wall` are as measured.
    """

    def __init__(self, units, reference, recorder=None):
        self.raw_latencies, self.failures, texts = [], [], []
        elapsed, marks, since = [], [], math.inf
        for i, unit in enumerate(units):
            if since >= reference.every_s:
                marks.append((i, reference.time()))
                since = 0.0
            t0 = clock()
            try:
                out = unit.run()
            except Exception as exc:  # a unit that raises is a failed unit
                self.raw_latencies.append(clock() - t0)
                self.failures.append(f"{unit.name}: raised {exc!r}")
                texts.append(f"{unit.name}\traised")
            else:
                self.raw_latencies.append(clock() - t0)
                if recorder is not None:
                    recorder.active = False
                try:
                    texts.append(f"{unit.name}\t{unit.check(out)}")
                except Exception as exc:  # an invariant or a malformed output
                    self.failures.append(f"{unit.name}: {exc!r}")
                    texts.append(f"{unit.name}\tfailed")
                if recorder is not None:
                    recorder.active = True
            elapsed.append(clock() - t0)
            since += self.raw_latencies[-1]
        marks.append((len(units), reference.time()))
        self.kernel_times = [t for _, t in marks]
        scales = reference.local_scales(marks, len(units))
        self.latencies = [t * s for t, s in zip(self.raw_latencies, scales)]
        self.wall = sum(t * s for t, s in zip(elapsed, scales))
        self.raw_wall = sum(elapsed)
        self.fingerprint = hashlib.sha256("\n".join(texts).encode()).hexdigest()


def commit_of(root: str) -> str | None:
    """HEAD commit read from .git without running git; None outside a clone."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        return None
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "transferlab")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def run_record(args) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size,
        "nproc": os.cpu_count(), "usable_cores": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0], "numpy": np.__version__, "blas": blas,
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS}, "jobs": 1,
        "commit": commit_of(ROOT), "source_sha256": source_digest(),
    }


def metric(value, unit, samples, note=""):
    return {"value": value, "unit": unit, "samples": samples, "note": note}


def measure(args, units, reference, setup_s):
    """Untraced passes for about --seconds; the end-to-end metrics."""
    passes = []
    t_begin = clock()
    while True:
        passes.append(Pass(units, reference))
        typical = statistics.median(p.raw_wall for p in passes)
        if clock() - t_begin + typical > args.seconds:
            break
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    fingerprints = {p.fingerprint for p in passes}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    # the import probe runs in another process, so set-up takes the speed of
    # the whole run rather than the kernel timings around it
    run_scale = reference.scale_of([t for p in passes for t in p.kernel_times])

    def timings(wall, lat):
        ms = [t * 1e3 for p in passes for t in getattr(p, lat)]
        p50, p90 = np.percentile(ms, [50, 90])
        return {"wall_s": statistics.median(getattr(p, wall) for p in passes),
                "unit_p50_ms": float(p50), "unit_p90_ms": float(p90)}
    cal, raw = timings("wall", "latencies"), timings("raw_wall", "raw_latencies")

    def measured(name):
        return f"; calibrated, as measured {raw[name]:.6g}"
    metrics = {
        "wall_s": metric(cal["wall_s"], "s", len(passes),
                         f"median of {len(passes)} passes of {len(units)} units"
                         + measured("wall_s")),
        "unit_p50_ms": metric(cal["unit_p50_ms"], "ms", attempted,
                              "units" + measured("unit_p50_ms")),
        "unit_p90_ms": metric(cal["unit_p90_ms"], "ms", attempted,
                              "units" + measured("unit_p90_ms")),
        "peak_rss_mb": metric(rss_mb, "MiB", 1, "this process"),
        "setup_s": metric(setup_s * run_scale, "s", SETUP_REPEATS,
                          f"median of {SETUP_REPEATS} import + inputs + warm-up unit; "
                          f"calibrated, as measured {setup_s:.6g}"),
    }
    problems = list(failures)
    if len(fingerprints) != 1:
        problems.append(f"passes disagree on outputs: {sorted(fingerprints)}")
    info = {"fingerprint": passes[0].fingerprint, "failed_frac": len(failures) / attempted,
            "uncalibrated": {**raw, "setup_s": setup_s},
            "pass_walls_s": [p.wall for p in passes],
            "pass_raw_walls_s": [p.raw_wall for p in passes],
            "unit_median_ms": {u.name: statistics.median(p.latencies[i] * 1e3 for p in passes)
                               for i, u in enumerate(units)}}
    return metrics, attempted, len(failures), problems, info


def trace(args, units, reference, tmp):
    """One untraced and two traced passes, then the fan-out measurement."""
    import spans
    import workloads
    untraced = Pass(units, reference)
    recorder = spans.SpanRecorder()
    recorder.install()
    runs = []
    try:
        for _ in range(TRACED_PASSES):
            recorder.reset()
            recorder.active = True
            traced = Pass(units, reference, recorder)
            recorder.active = False
            runs.append((traced, dict(recorder.calls), dict(recorder.self_s),
                         dict(recorder.counts)))
    finally:
        recorder.active = False
        restored = recorder.restore()
    t_jobs1, t_jobs2, workers, same_csv = workloads.fanout(tmp, args.size)
    os.makedirs(OUT_DIR, exist_ok=True)
    span_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.csv")
    recorder.write(span_path)

    passes = [untraced] + [r[0] for r in runs]
    problems = [f for p in passes for f in p.failures]
    if any(r[0].fingerprint != untraced.fingerprint for r in runs):
        problems.append("tracing changed the outputs")
    if not restored:
        problems.append("a wrapped function was not restored")
    if not same_csv:
        problems.append(f"rate CSV differs between jobs 1 and jobs {workers}")
    first_calls, first_counts = runs[0][1], runs[0][3]
    for _, calls, _, counts in runs[1:]:
        if calls != first_calls or counts != first_counts:
            problems.append("calls or counts differ between traced passes")
    for group in workloads.EXPECTED[args.workload]:
        if first_calls[group] == 0:
            problems.append(f"{group} recorded no span")
    for group in workloads.BYPASSED[args.workload]:
        if first_calls[group] != 0:
            problems.append(f"{group} should be bypassed but has "
                            f"{first_calls[group]} calls")

    traced_walls = [r[0].wall for r in runs]
    n = len(runs)
    metrics = {}
    for group in recorder.group_names:
        metrics[f"{group}.calls"] = metric(first_calls[group], "count", n)
        metrics[f"{group}.self_s"] = metric(
            statistics.mean(r[2][group] for r in runs), "s", n, "mean of traced passes")
    for key, value in first_counts.items():
        metrics[key] = metric(value, "count", n)
    candidates = first_counts["procedures.feasible_candidates"]
    metrics["procedures.feasible_frac"] = metric(
        first_counts["procedures.feasible_members"] / candidates if candidates else 0.0,
        "frac", n, f"{first_counts['procedures.feasible_members']} of {candidates}")
    metrics["ratelab.fanout_speedup"] = metric(
        t_jobs1 / t_jobs2, "x", 1,
        f"jobs 1 {t_jobs1:.3f} s / jobs {workers} {t_jobs2:.3f} s")
    metrics["trace.overhead_s"] = metric(
        statistics.mean(traced_walls) - untraced.wall, "s", n,
        f"traced {statistics.mean(traced_walls):.4f} s - untraced {untraced.wall:.4f} s")
    attempted = sum(len(p.latencies) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    info = {"fingerprint": untraced.fingerprint, "failed_frac": failed / attempted,
            "spans": span_path, "missing_functions": recorder.missing}
    return metrics, attempted, failed, problems, info


def run_workload(args) -> int:
    try:
        import_program()
    except ImportError as exc:
        print(f"error: cannot import the program: {exc}", file=sys.stderr)
        return 2
    import calibrate
    import workloads
    tmp = os.path.join(OUT_DIR, "tmp", args.workload)
    os.makedirs(tmp, exist_ok=True)
    make = workloads.WORKLOADS[args.workload]
    reference = calibrate.Reference()
    setup_times, warm_failures = [], []
    for _ in range(SETUP_REPEATS):
        import_s = import_seconds()
        t0 = clock()
        units = make(args.seed, ROOT, tmp, args.size)
        warm_failures += Pass(units[:1], reference).failures
        setup_times.append(import_s + clock() - t0)
    setup_s = statistics.median(setup_times)

    if args.trace:
        metrics, attempted, failed, problems, info = trace(args, units, reference, tmp)
    else:
        metrics, attempted, failed, problems, info = measure(args, units, reference, setup_s)
    problems = warm_failures + problems
    record = run_record(args)

    print(f"transferlab benchmark: workload={args.workload} seed={args.seed} "
          f"trace={args.trace} size={args.size} units/pass={len(units)}")
    for name, m in metrics.items():
        print(f"  {name:38s} {m['value']:>14.6g} {m['unit']:6s} "
              f"n={m['samples']:<6d} {m['note']}")
    print(f"  {'failed_frac':38s} {info['failed_frac']:>14.6g} {'frac':6s} "
          f"n={attempted:<6d} {failed} of {attempted} units failed")
    print(f"  fingerprint sha256:{info['fingerprint']}")
    for problem in problems:
        print(f"  FAILED: {problem}")
    print(f"  record {json.dumps(record, sort_keys=True)}")

    correct = not problems
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}"
                                    f"-trace{args.trace}.json"), "w") as fh:
        json.dump({"correct": correct, "attempted": attempted, "failed": failed,
                   "problems": problems, "metrics": metrics, "record": record,
                   **info}, fh, indent=1)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in metrics.items()}}))
    return 0


def run_all(args) -> int:
    """Each workload in its own fresh process; one combined result line."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not lines:
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = value
    print(json.dumps(merged))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
