"""Line probe: every statement of `src/transferlab` runs in tier-1, or is listed.

Runs the tier-1 suite in this process under `sys.settrace`, with
`--hypothesis-seed=0` so that the set of lines it runs repeats, and takes each
module's statement lines from its `ast`.  It fails on a statement that no test
runs and that `tests/data/unrun_lines.txt` does not list, and on a listed
statement that now runs, so the list only shrinks.  The list keys a statement
by module, enclosing function and stripped source text, one per line with the
reason it stays unrun, tab-separated.  Worker processes and subprocesses are
not traced: a statement reached only there counts as unrun.  Stdlib and pytest
only; about twice tier-1's time.

    python tests/line_probe.py   # exit 0 when the unrun statements are the listed ones

An unlisted statement is printed tab-separated, as the list keys it.
"""

from __future__ import annotations

import ast
import os
import sys
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "transferlab"
LISTED = ROOT / "tests" / "data" / "unrun_lines.txt"


def _own_lines(node: ast.stmt) -> range:
    """The lines of a statement that are not its nested statements' lines: a
    compound statement's header (decorators included), a simple one's span."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, max(first, last) + 1)


def statements(path: Path) -> list[tuple[range, str, str]]:
    """(own lines, enclosing function, stripped first line) of every statement
    that compiles to code: a constant expression (a docstring) and a
    `global` or `nonlocal` declaration compile to none."""
    text = path.read_text()
    source = text.splitlines()
    out = []

    def walk(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.stmt) and not (
                    isinstance(child, (ast.Global, ast.Nonlocal))
                    or isinstance(child, ast.Expr) and isinstance(child.value, ast.Constant)):
                out.append((_own_lines(child), scope, source[child.lineno - 1].strip()))
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                walk(child, child.name if scope == "<module>" else f"{scope}.{child.name}")
            else:
                walk(child, scope)

    walk(ast.parse(text, str(path)), "<module>")
    return out


def run_tier1() -> tuple[int, dict[str, set[int]]]:
    """Tier-1's exit code and, per module file name, the lines it ran."""
    ran = {p.name: set() for p in SRC.glob("*.py")}
    files: dict[str, set[int] | None] = {}  # co_filename -> its module's lines

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = Path(os.path.realpath(name))
            files[name] = ran[path.name] if path.parent == SRC else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    os.chdir(ROOT)  # pytest reads its test paths and `pythonpath = ["src"]` from here
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider",
                            "--hypothesis-seed=0"])
    finally:
        sys.settrace(None)
    return int(code), ran


def unrun(ran: dict[str, set[int]]) -> Counter:
    """(module, function, source) of every statement none of whose own lines ran."""
    out = Counter()
    for module in sorted(ran):
        for lines, scope, text in statements(SRC / module):
            if ran[module].isdisjoint(lines):
                out[module, scope, text] += 1
    return out


def listed() -> Counter:
    out = Counter()
    for row in LISTED.read_text().splitlines():
        if row.strip() and not row.startswith("#"):
            module, scope, text, _reason = row.split("\t")
            out[module, scope, text] += 1
    return out


def main() -> int:
    code, ran = run_tier1()
    if code != 0:
        print(f"line probe: tier-1 exited {code}; no line set to check", file=sys.stderr)
        return 1
    found, allowed = unrun(ran), listed()
    new, stale = found - allowed, allowed - found
    for key in sorted(new.elements()):
        print("unrun and not listed:\t" + "\t".join(key), file=sys.stderr)
    for key in sorted(stale.elements()):
        print("listed but runs:\t" + "\t".join(key), file=sys.stderr)
    print(f"line probe: {sum(found.values())} unrun statements, "
          f"{sum(new.values())} not listed, {sum(stale.values())} listed but run")
    return 1 if new or stale else 0


if __name__ == "__main__":
    sys.exit(main())
