"""List the functions of ``src/fqsurf`` that no pipeline entry point enters.

A ``sys.setprofile`` hook records every call into a frame whose code lives
under ``src/fqsurf`` while two drivers run in-process:

- every shell block of README.md made only of ``fqsurf`` commands, one
  command after another in a fresh directory, through ``fqsurf.cli.main``
  with its standard output discarded;
- one certified ``decide`` per construction method (Block, Subdiv2,
  Subdiv4).

Each module is then parsed, and every ``def`` (methods and nested functions
included) whose code was never entered is printed as ``path:line: name``.
Lambdas and comprehensions are not listed.  Functions that only tests or
the benchmark call show up here: each is either wired into a pipeline stage
or a candidate to retire.

Run from the repository root::

    python tests/reachability.py

The listing is a log, not a gate: the exit status is 1 only when a README
command exits non-zero or a ``decide`` call does not certify by its method.
The file is not collected by pytest.
"""

import ast
import contextlib
import io
import os
import re
import shlex
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "fqsurf") + os.sep

sys.path.insert(0, SRC)

from fqsurf.cli import main as cli_main  # noqa: E402
from fqsurf.lattice import decide  # noqa: E402

# (method, p, q, genus): one small certified decide per construction
DECIDE_CALLS = (
    ("Block", 6, (2, 3) * 3, 5),
    ("Subdiv2", 8, (2, 4) * 4, 8),
    ("Subdiv4", 12, (2, 4) * 6, 10),
)


def readme_commands():
    """The ``fqsurf`` command lines of README's all-``fqsurf`` shell blocks,
    one list per block."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    blocks = []
    for block in re.findall(r"^```sh\n(.*?)^```$", text, flags=re.MULTILINE | re.DOTALL):
        lines = [line for line in block.splitlines() if line.strip()]
        if all(line.startswith(("#", "fqsurf ")) for line in lines):
            blocks.append([shlex.split(line)[1:] for line in lines if line.startswith("fqsurf ")])
    return blocks


def drive():
    """Run every driver; the list of failures."""
    failures = []
    cwd = os.getcwd()
    for block in readme_commands():
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                for argv in block:
                    with contextlib.redirect_stdout(io.StringIO()):
                        code = cli_main(argv)
                    if code not in (0, None):
                        failures.append(f"fqsurf {shlex.join(argv)} exited {code}")
            finally:
                os.chdir(cwd)
    for method, p, q, genus in DECIDE_CALLS:
        verdict = decide(p, q, genus, certify=True)
        if (verdict.outcome, verdict.method) != ("Exists", method):
            failures.append(f"decide({p}, {q}, {genus}) gave {verdict.outcome} "
                            f"{verdict.method}, not Exists {method}")
    return failures


def trace_calls(fn):
    """Run ``fn()`` under the profile hook: (its result, {path: first lines})."""
    entered = {}

    def hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code.co_filename.startswith(PACKAGE):
                entered.setdefault(code.co_filename, set()).add(code.co_firstlineno)

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        result = fn()
    finally:
        sys.setprofile(previous)
    return result, entered


def functions(path):
    """(first line, qualified name) of each ``def`` in ``path``; the first
    line is that of the code object, its first decorator's if it has any."""
    with open(path, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno, *(d.lineno for d in child.decorator_list)])
                found.append((first, prefix + child.name))
                visit(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.")
            else:
                visit(child, prefix)

    visit(tree, "")
    return sorted(found)


def main():
    failures, entered = trace_calls(drive)
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        ran = entered.get(path, set())
        for line, qualname in functions(path):
            if line not in ran:
                print(f"{os.path.relpath(path, ROOT)}:{line}: {qualname}")
                total += 1
    print(f"{total} functions of src/fqsurf never entered")
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
