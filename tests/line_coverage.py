"""List the statements of ``src/fqsurf`` that the tier-1 tests never run.

A ``sys.settrace`` hook, installed for new threads too, records line events
in frames whose code lives under ``src/fqsurf``, and ``pytest.main`` runs
``tests/`` under it.  Each module is then parsed, and every statement with
no recorded line is printed as ``path:line: source``.  Docstrings,
``def``/``class`` lines and ``global``/``nonlocal`` are skipped; a compound
statement counts as run when a line of its header does.  Code run in a
subprocess is not seen.

Run from the repository root::

    python tests/line_coverage.py

Tracing costs about 4x the untraced run.  The listing is a log, not a
gate: the exit status is pytest's.  The file is not collected by pytest.
"""

import ast
import os
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fqsurf") + os.sep

sys.path.insert(0, SRC)

import pytest  # noqa: E402

# statements whose own line runs no code, or runs where nothing is tested
SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Global, ast.Nonlocal)


def trace_lines(argv):
    """Run ``pytest.main(argv)`` under the tracer: (exit code, {path: lines})."""
    seen = {}

    def local(frame, event, arg):
        if event == "line":
            seen.setdefault(frame.f_code.co_filename, set()).add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(PACKAGE) else None

    previous = sys.gettrace()
    sys.settrace(hook)
    threading.settrace(hook)
    try:
        code = pytest.main(argv)
    finally:
        sys.settrace(previous)
        threading.settrace(None)
    return code, seen


def header_lines(node):
    """The lines of a statement before its first nested statement."""
    nested = [
        child.lineno for field in ("body", "orelse", "finalbody", "handlers", "cases")
        for child in getattr(node, field, ()) if hasattr(child, "lineno")
    ]
    last = min(nested) - 1 if nested else node.end_lineno
    return range(node.lineno, max(last, node.lineno) + 1)


def never_run(path, ran):
    """(line, source) for each statement of ``path`` with no line in ``ran``."""
    with open(path, encoding="utf-8") as fh:
        source = fh.read()
    lines = source.splitlines()
    missed = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.stmt) or isinstance(node, SKIPPED):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            continue
        if not ran.intersection(header_lines(node)):
            missed.append((node.lineno, lines[node.lineno - 1].strip()))
    return sorted(missed)


def main():
    code, seen = trace_lines(["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")])
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        for lineno, text in never_run(path, seen.get(path, set())):
            print(f"{os.path.relpath(path, ROOT)}:{lineno}: {text}")
            total += 1
    print(f"{total} statements of src/fqsurf never ran")
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
