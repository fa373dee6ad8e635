"""Count the bytecodes one certified ``decide`` executes.

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

The first prints the Python version, then one line per call: the
construction, the face count and the bytecode count.  ``--ladder`` counts
each construction at four rungs of the face count F, from about 16 to about
1024, and exits 1 when a construction is not the one expected or when its
count grows faster than F: count(top) / count(bottom) above
``GROWTH_BOUND`` x F(top) / F(bottom).  The bound is a ratio, so a new
Python minor version moves the counts but not the gate.  Counting costs
about 20x the untraced call; the ladder took about 10 s on a 2-vCPU
Linux host with Python 3.11.  The file is not collected by pytest.
"""

import argparse
import gc
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

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
    parser = argparse.ArgumentParser(description="Count the bytecodes of certified decide calls.")
    parser.add_argument("--ladder", action="store_true",
                        help="count four rungs per construction and gate their growth")
    args = parser.parse_args(argv)
    print(f"python {platform.python_version()}")
    if args.ladder:
        return 1 if ladder() else 0
    for p, q, genus in CALLS:
        method, count = count_certified_decide(p, q, genus)
        print(f"{method} F={face_count(p, genus)} decide({p}, {q}, {genus}): {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
