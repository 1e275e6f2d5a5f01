"""Mutant registry: changes to `src/transferlab` that named tests must catch.

Each entry replaces one exact text of a module with another and names the
tier-1 tests that must fail on the change.  For every entry the runner copies
`src/` to a temporary directory, applies the change there and runs the named
tests with `PYTHONPATH`, and pytest's `pythonpath` setting, at the copy.  A
mutant that its tests pass survives and fails the run (as every mutant would
if the checkout's package were imported instead); so does an entry whose old
text does not occur exactly once in its file, so the registry follows the
code.  Before any mutant, the named tests of every entry must pass on an
unchanged copy.  Hypothesis runs with `--hypothesis-seed=0`, so a run
repeats.  Stdlib and pytest only.

    python tests/mutants.py   # exit 0 when every mutant is killed
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class Mutant(NamedTuple):
    file: str  # module file name under src/transferlab
    old: str  # exact text, found exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout
    reason: str


STREAMS = "tests/test_distributions.py::test_stream_batch_matches_numpy_streams"
FIRST_RAWS = ("tests/test_distributions.py::test_first_raws_equal_numpy_pcg64s_first_draw",
              STREAMS)
RECHECK = tuple(f"tests/test_discrepancy.py::test_{name}" for name in (
    "screen_keeps_the_extreme_where_np_log_rounds_apart",
    "screened_reductions_match_the_loops_at_one_ulp_near_ties"))
CHOICES = ("tests/test_ratelab.py::test_trial_choices_match_the_oracles",)

MUTANTS = (
    Mutant("distributions.py",
           "r = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y",
           "r = np.uint32(_MIX_MULT_R) * x - np.uint32(_MIX_MULT_L) * y",
           (STREAMS,), "the pool is mixed with SeedSequence's multipliers in order"),
    Mutant("distributions.py",
           "    for i in range(0, extra.shape[1], 4):\n"
           "        pool = _mix(pool, extra[:, i:i + 4])\n",
           "",
           (STREAMS,), "a key of more than 4 words mixes its further words into the pool"),
    Mutant("distributions.py",
           "_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875",
           "_INIT_A, _MULT_A = 0x43B0D7E6, 0x931E8875",
           (STREAMS,), "the hash constants are SeedSequence's"),
    Mutant("distributions.py",
           "words[:, at + 2] = entry >> _HALF",
           "words[:, at + 2] = 0",
           (STREAMS,), "a two-word entry keeps its high word"),
    Mutant("distributions.py",
           "words[:, at] = n",
           "words[:, at] = 1",
           (STREAMS,), "each entry is preceded by its own word count"),
    Mutant("distributions.py",
           "return a_hi + b_hi + (lo < a_lo), lo",
           "return a_hi + b_hi, lo",
           FIRST_RAWS, "a 128-bit add carries out of its low word"),
    Mutant("distributions.py",
           "x, rot = hi ^ lo, hi >> _ROT",
           "x, rot = hi ^ lo, lo >> _ROT",
           FIRST_RAWS, "XSL-RR rotates by the top 6 bits of the state's high word"),
    Mutant("ratelab.py",
           "return _true_risks(pair.q, cls, chosen)[trial] - q_best",
           "return _true_risks(DiscreteJoint._trusted(pair.q.support, pair.q.mass, pair.p.eta),\n"
           "                            cls, chosen)[trial] - q_best",
           ("tests/test_ratelab.py::test_rates_golden_bytes",),
           "a batched cell reads its chosen members' risks under Q's eta"),
    Mutant("discrepancy.py",
           "SCREEN_SLACK = 2.0 ** -40",
           "SCREEN_SLACK = 0.0",
           RECHECK, "members within np.log's rounding of the screened extreme are rechecked"),
    Mutant("discrepancy.py",
           "ratios = _logs(scaled[idx]) / _logs(rhs[idx])",
           "ratios = np.log(scaled[idx]) / np.log(rhs[idx])",
           RECHECK, "the exponent is the exact math.log ratio, not np.log's"),
    Mutant("ratelab.py",
           '"erm_p": lambda cls, sp, sq, conf: np.argmin(member_risks(cls, sp), axis=0),',
           '"erm_p": lambda cls, sp, sq, conf: len(cls) - 1 - np.argmin(\n'
           '        member_risks(cls, sp)[::-1], axis=0),',
           CHOICES, "ERM ties go to the lowest index"),
    Mutant("procedures.py",
           "return np.argmin(np.where(feasible, risks, np.inf), axis=0)",
           "return len(risks) - 1 - np.argmin(np.where(feasible, risks, np.inf)[::-1], axis=0)",
           CHOICES, "transfer's feasible argmin ties go to the lowest index"),
    Mutant("procedures.py",
           "return (risks - risks.min(axis=0)) <= radius, best, dis",
           "return (risks - risks.min(axis=0)) < radius, best, dis",
           CHOICES, "a member exactly on the near-optimal radius is near-optimal"),
    Mutant("procedures.py",
           '            with np.errstate(over="ignore"):\n'
           "                radius = _radius(dis, width, conf.c, sup)\n",
           '            raise KeyError("radius overflow")\n',
           ("tests/test_adaptive.py::test_adaptive_run_matches_the_concatenating_oracle",),
           "the radius-overflow branch runs; of the drawn constants only c = 1e308 reaches it"),
    Mutant("discrepancy.py",
           "dis_q = dis(q, star_p)",
           "dis_q = dis(q, star_q)",
           ("tests/test_discrepancy.py::"
            "test_distinct_optima_line_pair_reads_q_against_h_star_p",),
           "Q's cross disagreement is taken from h*_P"),
    Mutant("ratelab.py",
           "sample = SampleCounts._trusted(np.ones(xs.shape), xs <= side.h_star)",
           "sample = SampleCounts._trusted(np.ones(xs.shape), xs < side.h_star)",
           ("tests/test_ratelab.py::test_one_sample_line_cells_match_the_oracle_on_forced_ties",),
           "a line block labels a point on h* 1, as sample_labeled does"),
    Mutant("hypotheses.py",
           "inner = np.where((below <= mid) & (mid < above), mid, below)",
           "inner = np.where((below <= mid) & (mid < above), mid, above)",
           ("tests/test_hypotheses.py::test_cut_thresholds_realize_their_cuts",),
           "a cut whose midpoint rounds out of range takes its lower neighbour"),
    Mutant("ratelab.py",
           "(pair.p, n_p, seeds_p)",
           "(pair.p, n_p, seeds_q)",
           ("tests/test_ratelab.py::test_rates_golden_bytes",),
           "a one-sample line cell draws erm_p on P's slice of the cell's seeds"),
    Mutant("distributions.py",
           "(centers <= side.h_star)",
           "(centers <= pair.p.h_star)",
           ("tests/test_distributions.py::"
            "test_discretize_pair_labels_each_side_by_its_own_optimum",),
           "discretize_pair labels each side by its own optimum"),
)


def _copy_src(into: Path) -> Path:
    shutil.copytree(SRC, into / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    return into / "src"


def _pytest(src: Path, tests) -> int:
    """pytest's exit code on `tests` with the package imported from `src`: the
    `pythonpath` setting, which names the checkout's `src`, is pointed there too."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", "--hypothesis-seed=0", *tests]
    return subprocess.run(cmd, cwd=ROOT, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for m in MUTANTS:
        if (SRC / "transferlab" / m.file).read_text().count(m.old) != 1:
            print(f"old text not found exactly once in {m.file}: {m.old!r}", file=sys.stderr)
            bad += 1
    if bad:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        union = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(_copy_src(Path(tmp)), union)
        if code != 0:
            print(f"the registry's tests exit {code} on the unchanged source", file=sys.stderr)
            return 1
    for i, m in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            path = _copy_src(Path(tmp)) / "transferlab" / m.file
            path.write_text(path.read_text().replace(m.old, m.new))
            code = _pytest(path.parent.parent, m.tests)
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"pytest exit {code}"
        print(f"{i:2d} {m.file}: {verdict}: {m.reason}")
        bad += code != 1
    print(f"mutants: {len(MUTANTS) - bad} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
