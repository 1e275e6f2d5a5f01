import ast
import re

import pytest

import line_probe
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: f"{m.file}:{m.old.strip()[:40]}")
def test_each_mutant_changes_one_text_and_names_existing_tests(mutant):
    # the registry follows the code: its run (`python tests/mutants.py`) fails
    # on an old text that is gone or ambiguous, and so does this check
    assert (ROOT / mutant.path).read_text().count(mutant.old) == 1
    assert mutant.new != mutant.old
    for node in mutant.tests:
        path, name = node.split("::")
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), node


SPENT = ROOT / "tests" / "spent_seeds.txt"
# the modules whose statistical tests write their seeds inline
INLINE = ("test_acceptance.py", "test_lower_bound.py")


def _spent() -> list[tuple[int, int]]:
    """The inclusive (lo, hi) spans of the spent-seed list."""
    spans = []
    for line in SPENT.read_text().splitlines():
        if line.strip() and not line.startswith("#"):
            for part in line.split()[0].split(","):
                lo, _, hi = part.partition("-")
                spans.append((int(lo), int(hi or lo)))
    return spans


def _ints(node) -> list[int]:
    """The seeds an expression fixes: an int, a tuple of them, a range of
    literals, or the first term of a sum (a trial range's base)."""
    while isinstance(node, ast.BinOp):
        node = node.left
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return [node.value]
    if isinstance(node, ast.Tuple):
        return [v for elt in node.elts for v in _ints(elt)]
    if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "range":
        return list(range(*(ast.literal_eval(a) for a in node.args)))
    return []


def _fixed_seeds(path) -> set[int]:
    """The seeds a test module fixes: its module constants named *_SEED or
    *_SEEDS, and in an `INLINE` module every `seed=` and `default_rng` seed."""
    tree, seeds = ast.parse(path.read_text()), set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                pairs = (zip(target.elts, node.value.elts) if isinstance(target, ast.Tuple)
                         and isinstance(node.value, ast.Tuple) else [(target, node.value)])
                for name, value in pairs:
                    if getattr(name, "id", "").endswith(("_SEED", "_SEEDS")):
                        seeds.update(_ints(value))
    if path.name in INLINE:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                seeds.update(v for kw in node.keywords if kw.arg == "seed" for v in _ints(kw.value))
                if getattr(node.func, "attr", None) == "default_rng" and node.args:
                    seeds.update(_ints(node.args[0]))
    return seeds


def test_every_fixed_seed_of_a_statistical_test_is_spent():
    fixed = {(path.name, seed) for path in sorted((ROOT / "tests").glob("test_*.py"))
             for seed in _fixed_seeds(path)}
    # the scan reads each form: constants, a tuple of them, a range, a seed= and a sum's base
    assert {("test_ratelab.py", 20261022), ("test_lower_bound.py", 20261020),
            ("test_distributions.py", 19), ("test_acceptance.py", 42),
            ("test_acceptance.py", 60000)} <= fixed
    spans = _spent()
    assert [(name, seed) for name, seed in sorted(fixed)
            if not any(lo <= seed <= hi for lo, hi in spans)] == []


def test_line_probe_names_a_module_changed_while_tier1_ran(monkeypatch, capsys):
    # traced line numbers of an edited file would map onto its new text as
    # spurious unrun lines: the probe names the file and maps nothing
    assert set(line_probe.hashes()) == {p.name for p in line_probe.SRC.glob("*.py")}
    seen = iter([{"stay.py": "0", "edited.py": "1"}, {"stay.py": "0", "edited.py": "2"}])
    monkeypatch.setattr(line_probe, "hashes", lambda: next(seen))
    monkeypatch.setattr(line_probe, "run_tier1", lambda: (0, {}))
    monkeypatch.setattr(line_probe, "unrun", lambda ran: pytest.fail("lines were mapped"))
    assert line_probe.main() == 1
    err = capsys.readouterr().err
    assert "edited.py changed while tier-1 ran" in err and "stay.py" not in err
