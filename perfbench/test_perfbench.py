"""Self-test of the benchmark: every workload at a tiny size.

    python3 -m pytest perfbench/test_perfbench.py -q

Checks the result line against BENCHMARK.json, that a seed always gives the
same output fingerprint, and that the benchmark refuses to run without the
program's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
WORKLOADS = ("certify", "rates", "sampling")

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def run(workload, seed, trace, run_py=RUN, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, run_py, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=300, cwd=cwd)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    fingerprint = next(l.split()[-1] for l in lines if l.strip().startswith("fingerprint"))
    return json.loads(lines[-1]), fingerprint


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("workload", WORKLOADS)
def test_result_line_matches_spec(workload, trace):
    result, _ = result_of(run(workload, 5, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in spec} == \
        {k: v["unit"] for k, v in result["metrics"].items()}
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_fingerprint_is_determined_by_the_seed(workload):
    _, first = result_of(run(workload, 11, 0))
    _, again = result_of(run(workload, 11, 0))
    _, other = result_of(run(workload, 12, 0))
    assert first == again
    assert first != other


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("certify", 1, 0, run_py=str(tmp_path / "perfbench" / "run.py"),
               cwd=str(tmp_path))
    assert proc.returncode != 0
    assert not proc.stdout.strip()
