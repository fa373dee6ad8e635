"""Count the bytecodes one certified ``decide``, or one CLI chain, executes.

A ``sys.settrace`` hook turns on opcode events in every frame and counts
them, so the count is deterministic for a given Python minor version and
complements wall time on a noisy host.  C-level work (dict and set
operations, ``sorted``, ``str.join``) is invisible to it.  Each call is
counted after one uncounted warm-up call, so imports and first-use
caches are not charged, and with the cyclic garbage collector paused, so
no finalizer or weakref callback that a collection runs is charged either.

Run from the repository root::

    python tests/count_bytecodes.py
    python tests/count_bytecodes.py --ladder
    python tests/count_bytecodes.py --cli

The first prints the Python version, then one line per call: the
construction, the face count and the bytecode count.  ``--cli`` prints one
line instead: the count of README's Block genus-2 chain (tessellate,
validate, loops, color, certify, export) run in process through
``fqsurf.cli.main`` in a temporary directory, after one uncounted warm-up
chain, so it charges what each in-process command costs once the CLI is
loaded: argument parsing, the JSON files read and written, and the library
work.  ``--ladder`` counts
each construction at four rungs of the face count F, from about 16 to about
1024, and exits 1 when a construction is not the one expected or when its
count grows faster than F: count(top) / count(bottom) above
``GROWTH_BOUND`` x F(top) / F(bottom).  The bound is a ratio, so a new
Python minor version moves the counts but not the gate.  Counting costs
about 20x the untraced call; the ladder took about 10 s on a 2-vCPU
Linux host with Python 3.11.  The file is not collected by pytest.
"""

import argparse
import contextlib
import gc
import io
import os
import platform
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from fqsurf import cli  # noqa: E402
from fqsurf.lattice import decide  # noqa: E402
from fqsurf.tessellation import face_count  # noqa: E402

# (p, q, genus): the Block, Subdiv2 and Subdiv4 calls at F close to 64, then
# a thick Block call at F=16 whose coset links dominate its count
CALLS = (
    (6, (2, 3) * 3, 17),
    (8, (2, 4) * 4, 32),
    (12, (2, 4) * 6, 66),
    (6, (30, 42) * 3, 5),
)

# (method, p, q, genera): four rungs each; Block and Subdiv2 at F close to
# 16, 64, 256 and 1024, Subdiv4 at F = 9, 25, 65 and 1025 (its F is odd)
LADDER = (
    ("Block", 6, (2, 3) * 3, (5, 17, 65, 257)),
    ("Subdiv2", 8, (2, 4) * 4, (8, 32, 128, 512)),
    ("Subdiv4", 12, (2, 4) * 6, (10, 26, 66, 1026)),
)
GROWTH_BOUND = 1.15

# README's Block p=6 genus-2 chain, file names relative to the chain's directory
CLI_CHAIN = (
    ("tessellate", "--p", "6", "--genus", "2", "-o", "block.json"),
    ("validate", "-i", "block.json", "--genus", "2"),
    ("loops", "-i", "block.json", "--report", "loops.json"),
    ("color", "-i", "block.json", "-o", "coloring.json"),
    ("certify", "-i", "block.json", "--coloring", "coloring.json",
     "--q", "2,3,2,3,2,3", "-o", "cert.json"),
    ("export", "-i", "block.json", "--dual", "dual.dot"),
)


def count_opcodes(fn, *args):
    """The number of opcode events while ``fn(*args)`` runs, with its result."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return local

    def hook(frame, event, arg):
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    collecting = gc.isenabled()
    gc.collect()
    gc.disable()
    sys.settrace(hook)
    try:
        out = fn(*args)
    finally:
        sys.settrace(previous)
        if collecting:
            gc.enable()
    return count, out


def count_certified_decide(p, q, genus):
    """(method, bytecodes) of ``decide(p, q, genus, certify=True)``, warmed up once."""
    decide(p, q, genus, certify=True)
    count, verdict = count_opcodes(decide, p, q, genus, True)
    return verdict.method, count


def _run_cli_chain():
    """The exit codes of ``fqsurf.cli.main`` on each command of ``CLI_CHAIN``."""
    return [cli.main(list(argv)) for argv in CLI_CHAIN]


def count_cli_chain():
    """The bytecodes of ``CLI_CHAIN``, run in a temporary directory and
    warmed up once; raises RuntimeError when a command exits nonzero."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as workdir, contextlib.redirect_stdout(io.StringIO()):
        os.chdir(workdir)
        try:
            _run_cli_chain()
            count, codes = count_opcodes(_run_cli_chain)
        finally:
            os.chdir(here)
    if any(codes):
        raise RuntimeError(f"the CLI chain exited {codes}")
    return count


def growth_within_bound(f_bottom, count_bottom, f_top, count_top):
    """True when the count grows by at most ``GROWTH_BOUND`` times F's growth."""
    return count_top * f_bottom <= GROWTH_BOUND * f_top * count_bottom


def ladder():
    """Count every rung of ``LADDER``; the number of failed constructions."""
    failed = 0
    for expected, p, q, genera in LADDER:
        rungs = []
        for genus in genera:
            method, count = count_certified_decide(p, q, genus)
            f = face_count(p, genus)
            print(f"{method} F={f} decide({p}, {q}, {genus}): {count}")
            if method != expected:
                print(f"FAIL: decide({p}, {q}, {genus}) used {method}, not {expected}")
                failed += 1
            rungs.append((f, count))
        (f_bottom, bottom), (f_top, top) = rungs[0], rungs[-1]
        ok = growth_within_bound(f_bottom, bottom, f_top, top)
        print(f"{'ok' if ok else 'FAIL'}: {expected} count x{top / bottom:.1f} over "
              f"F x{f_top / f_bottom:.1f}, bound x{GROWTH_BOUND * f_top / f_bottom:.1f}")
        failed += not ok
    return failed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Count the bytecodes of certified decide calls or of a CLI chain.")
    parser.add_argument("--ladder", action="store_true",
                        help="count four rungs per construction and gate their growth")
    parser.add_argument("--cli", action="store_true",
                        help="count README's Block genus-2 chain through fqsurf.cli.main")
    args = parser.parse_args(argv)
    print(f"python {platform.python_version()}")
    if args.ladder:
        return 1 if ladder() else 0
    if args.cli:
        print(f"cli Block F=4 chain of {len(CLI_CHAIN)} commands: {count_cli_chain()}")
        return 0
    for p, q, genus in CALLS:
        method, count = count_certified_decide(p, q, genus)
        print(f"{method} F={face_count(p, genus)} decide({p}, {q}, {genus}): {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
