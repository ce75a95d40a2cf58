#!/usr/bin/env python3
"""List the statements in ``src/`` that a pytest run never executes.

    python3 scripts/untested_statements.py [pytest arguments]

Runs pytest in this process under a ``sys.settrace`` line tracer (by
default over the whole suite, quietly) and prints ``path:line: source``
for each statement of ``src/emocomp`` that no test reached, then a count.
Statements come from the AST; definitions, imports, docstrings and
``global`` declarations are left out, since they run at import or compile
to nothing. A compound statement counts as reached when its header runs.
Code run in worker processes is not seen. The exit status is pytest's.
Needs only the standard library and pytest.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "emocomp"
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
           ast.Global, ast.Nonlocal)


def statements(path: Path) -> dict[int, set[int]]:
    """Each counted statement of the file, by first line, with the lines
    that belong to it and not to a statement or handler nested in it."""
    out = {}
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        nested = [c for f in ("body", "orelse", "finalbody", "handlers")
                  for c in getattr(node, f, ())]
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in nested:
            own -= set(range(child.lineno, child.end_lineno + 1))
        out[node.lineno] = own
    return out


def trace(pytest_args: list[str]) -> tuple[int, set[tuple[str, int]]]:
    """Run pytest with ``pytest_args`` and return its exit status and the
    (file, line) pairs of ``src/emocomp`` that ran."""
    prefix, ran = str(SRC), set()

    def line(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    def call(frame, event, arg):
        return line if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace(), threading.gettrace()
    threading.settrace(call)
    sys.settrace(call)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    return int(status), ran


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    status, ran = trace(args or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    total, missed = 0, []
    for path in sorted(SRC.glob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, own in sorted(statements(path).items()):
            total += 1
            if not any((str(path), n) in ran for n in own):
                missed.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    for line in missed:
        print(line)
    print(f"{len(missed)} of {total} statements in src/ never ran")
    return status


if __name__ == "__main__":
    sys.exit(main())
