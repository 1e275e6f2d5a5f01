"""Mutant registry: changes to `src/transferlab` and to the test oracles
that named tests must catch.

Each entry replaces one exact text of a module or of a file under `tests/`
with another and names the tier-1 tests that must fail on the change.  For
every entry the runner copies `src/` to a temporary directory, applies the
change there and runs the named tests with `PYTHONPATH`, and pytest's
`pythonpath` setting, at the copy; an entry that changes a file under
`tests/` copies `tests/` and the pytest settings too, and runs its tests in
that copy.  A mutant that its tests pass survives and fails the run (as
every mutant would if the checkout's files were read instead); so does an
entry whose old text does not occur exactly once in its file, so the
registry follows the code.  Before any mutant, the named tests of every
entry must pass on an unchanged copy.  Hypothesis runs with
`--hypothesis-seed=0`, so a run repeats, and under the `mutants` profile of
`tests/conftest.py`, which skips the explain phase: it only annotates a
failure, and a verdict reads pytest's exit code alone.  Stdlib and pytest only.

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
    file: str  # module file name under src/transferlab, or a path under tests/
    old: str  # exact text, found exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest node ids, relative to the checkout
    reason: str

    @property
    def path(self) -> str:
        """The changed file's path relative to the checkout."""
        return self.file if self.file.startswith("tests/") else f"src/transferlab/{self.file}"


STREAMS = "tests/test_distributions.py::test_stream_batch_matches_numpy_streams"
FIRST_RAWS = ("tests/test_distributions.py::test_first_raws_equal_numpy_pcg64s_first_draw",
              STREAMS)
RECHECK = tuple(f"tests/test_discrepancy.py::test_{name}" for name in (
    "screen_keeps_the_extreme_where_np_log_rounds_apart",
    "screened_reductions_match_the_loops_at_one_ulp_near_ties"))
CHOICES = ("tests/test_ratelab.py::test_trial_choices_match_the_oracles",)
LINE_TIES = "tests/test_ratelab.py::test_one_sample_line_cells_match_the_oracle_on_forced_ties"
BAYES = ("tests/test_lower_bound.py::test_bayes_risk_matches_a_brute_force_sum",)
DERIVE = ("tests/test_distributions.py::test_derive_seed_equals_the_bounded_generator_draw",)

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
           "at = 16 + 4 * (mixed - 4)",
           "at = 16",
           ("tests/test_distributions.py::"
            "test_derived_seeds_over_a_shared_head_equal_derive_seed",),
           "a key's words after a shared head of more than 4 words hash on from the "
           "head's last constant"),
    Mutant("distributions.py",
           "_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875",
           "_INIT_A, _MULT_A = 0x43B0D7E6, 0x931E8875",
           (STREAMS,), "the hash constants are SeedSequence's"),
    Mutant("distributions.py",
           "words[:, 1], words[:, 2] = seeds & _WORD, seeds >> _HALF",
           "words[:, 1], words[:, 2] = seeds & _WORD, 0",
           (STREAMS,), "a two-word stream seed keeps its high word"),
    Mutant("distributions.py",
           "words[:, 0] = 1 + (words[:, 2] > 0)",
           "words[:, 0] = 1",
           (STREAMS,), "a stream seed's words start with its word count, 2 from 2^32 on"),
    Mutant("distributions.py",
           "    words[:, 1] = np.tile(np.arange(trials, dtype=np.uint32), len(sides))\n"
           "    words[:, 3] = np.repeat(np.array(sides, dtype=np.uint32), trials)\n",
           "    words[:, 3] = np.tile(np.arange(trials, dtype=np.uint32), len(sides))\n"
           "    words[:, 1] = np.repeat(np.array(sides, dtype=np.uint32), trials)\n",
           ("tests/test_distributions.py::"
            "test_derived_seeds_over_a_shared_head_equal_derive_seed",),
           "a cell key's words after its head are [1, t, 1, side], the trial's first"),
    Mutant("distributions.py",
           "return a_hi + b_hi + (lo < a_lo), lo",
           "return a_hi + b_hi, lo",
           FIRST_RAWS, "a 128-bit add carries out of its low word"),
    Mutant("distributions.py",
           "x, rot = hi ^ lo, hi >> _ROT",
           "x, rot = hi ^ lo, lo >> _ROT",
           FIRST_RAWS, "XSL-RR rotates by the top 6 bits of the state's high word"),
    Mutant("distributions.py",
           "_OUT_HASHES = tuple((k & 3,",
           "_OUT_HASHES = tuple((k % 3,",
           DERIVE, "output hash k of a scalar key reads pool word k & 3"),
    Mutant("distributions.py",
           "inc = (w2 << 64 | w3) << 1 | 1",
           "inc = (w2 << 64 | w3) << 1",
           DERIVE, "a derived seed's PCG64 increment is odd"),
    Mutant("distributions.py",
           "return SampleCounts._of_cells(cells, n)",
           "return SampleCounts._of_cells(cells, n + 1)",
           ("tests/test_distributions.py::test_every_draw_route_counts_its_n_draws",),
           "a batch of trials counts the n draws each column holds"),
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
           "np.count_nonzero(xs <= side.h_star, axis=1)",
           "np.count_nonzero(xs < side.h_star, axis=1)",
           (LINE_TIES,), "a line block labels a point on h* 1, as sample_labeled does"),
    Mutant("ratelab.py",
           "below = np.where(m > 0, xs[rows, m - 1], -np.inf)",
           "below = np.where(m > 0, xs[rows, 0], -np.inf)",
           (LINE_TIES,
            "tests/test_ratelab.py::test_one_sample_line_cells_match_the_per_trial_oracle"),
           "a line trial's lower neighbour is its largest point labeled 1, not its smallest"),
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
    Mutant("discrepancy.py",
           "flips = (codes ^ codes[0])[:, None]",
           "flips = (codes ^ codes[1])[:, None]",
           ("tests/test_discrepancy.py::test_verify_family_is_membership_of_every_built_pair",),
           "a tie-free family's pairs are read through flips from pair 0, the pair it checks"),
    Mutant("distributions.py",
           "    _refuse_off_support(cls, mass=mass, eta=eta)\n",
           "",
           ("tests/test_distributions.py::test_a_joint_over_another_support_is_refused",),
           "member_true_risks checks both arrays' shapes, and a profile's disagreements "
           "read the mass it checked"),
    Mutant("ratelab.py",
           "        for side in () if raw else (pair.p, pair.q):\n"
           "            _refuse_off_support(cls, mass=side.mass)\n",
           "",
           ("tests/test_ratelab.py::"
            "test_sweep_refuses_joints_off_the_class_support_before_any_cell_runs",),
           "sweep refuses a joint off the class's support before any cell runs"),
    Mutant("ratelab.py",
           '"erm_q": lambda cls, sp, sq, conf: np.argmin(member_risks(cls, sq), axis=0),',
           '"erm_q": lambda cls, sp, sq, conf: len(cls) - 1 - np.argmin(\n'
           '        member_risks(cls, sq)[::-1], axis=0),',
           ("tests/test_ratelab.py::test_erm_q_monte_carlo_mean_matches_the_exact_law",
            "tests/test_ratelab.py::test_finite_cells_match_the_per_trial_oracle"),
           "a finite erm_q cell's ties go to the lowest index: label 0 on the anchored cube"),
    Mutant("ratelab.py",
           "    if trials >= 2 ** 32:\n",
           "    if trials > 2 ** 32:\n",
           ("tests/test_ratelab.py::test_sweep_refuses_trials_a_key_word_cannot_hold",),
           "sweep refuses 2^32 trials, whose last index a key word cannot hold"),
    Mutant("distributions.py",
           "if not self.lo < self.hi:",
           "if not self.lo <= self.hi:",
           ("tests/test_distributions.py::test_density_refuses_equal_bounds",),
           "a density of equal bounds is refused when built"),
    Mutant("tests/oracles.py",
           "s = a_p * l_p + a_q * l_q",
           "s = 0 * a_p + a_q * l_q",
           BAYES, "R*'s posterior weighs the source's evidence (0 * a_p keeps the shapes)"),
    Mutant("tests/oracles.py",
           "eps ** (rho * (1 - beta_p))",
           "eps ** (1 - beta_p)",
           BAYES, "the source's label margin is eps^(rho (1 - beta_p))"),
)


def _copy(into: Path, tests: bool) -> Path:
    """Copy `src/` under `into`, and `tests/` with the pytest settings if
    `tests`; return where the tests run: the copy if it holds them, else
    the checkout."""
    ignore = shutil.ignore_patterns("__pycache__", "*.egg-info")
    shutil.copytree(SRC, into / "src", ignore=ignore)
    if not tests:
        return ROOT
    shutil.copytree(ROOT / "tests", into / "tests", ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", into)
    return into


def _pytest(src: Path, tests, cwd: Path) -> int:
    """pytest's exit code on `tests`, run in `cwd`, with the package imported
    from `src`: the `pythonpath` setting, which names the checkout's `src`,
    is pointed there too."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", "--hypothesis-seed=0",
           "--hypothesis-profile=mutants", *tests]
    return subprocess.run(cmd, cwd=cwd, env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True).returncode


def main() -> int:
    start = time.perf_counter()
    bad = 0
    for m in MUTANTS:
        if (ROOT / m.path).read_text().count(m.old) != 1:
            print(f"old text not found exactly once in {m.path}: {m.old!r}", file=sys.stderr)
            bad += 1
    if bad:
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        union = sorted({t for m in MUTANTS for t in m.tests})
        code = _pytest(Path(tmp) / "src", union, _copy(Path(tmp), False))
        if code != 0:
            print(f"the registry's tests exit {code} on the unchanged source", file=sys.stderr)
            return 1
    for i, m in enumerate(MUTANTS):
        with tempfile.TemporaryDirectory() as tmp:
            cwd = _copy(Path(tmp), m.file.startswith("tests/"))
            path = Path(tmp) / m.path
            path.write_text(path.read_text().replace(m.old, m.new))
            code = _pytest(Path(tmp) / "src", m.tests, cwd)
        verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"pytest exit {code}"
        print(f"{i:2d} {m.file}: {verdict}: {m.reason}")
        bad += code != 1
    print(f"mutants: {len(MUTANTS) - bad} of {len(MUTANTS)} killed "
          f"in {time.perf_counter() - start:.1f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
