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

It prints the Python version, then one line per call: the construction,
the face count and the bytecode count.  Counting costs about 20x the
untraced call.  The file is not collected by pytest.
"""

import gc
import os
import platform
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

from fqsurf.lattice import decide  # noqa: E402
from fqsurf.tessellation import face_count  # noqa: E402

# (p, q, genus): the Block, Subdiv2 and Subdiv4 calls at F close to 64
CALLS = (
    (6, (2, 3) * 3, 17),
    (8, (2, 4) * 4, 32),
    (12, (2, 4) * 6, 66),
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


def main():
    print(f"python {platform.python_version()}")
    for p, q, genus in CALLS:
        method, count = count_certified_decide(p, q, genus)
        print(f"{method} F={face_count(p, genus)} decide({p}, {q}, {genus}): {count}")


if __name__ == "__main__":
    main()
