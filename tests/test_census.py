"""Verdict census: which (p, q, genus) get which uncertified verdict.

A census runs ``decide(p, q, g)`` on a fixed list of points and reduces
the verdicts to two numbers that a refactor must keep: the count of each
outcome × method × reason class (the reason with every run of digits
folded to ``#``), and one sha256 over the sorted ``p q g outcome method``
lines.  A verdict that flips between classes changes the counts; one that
moves between points of the same class changes the digest.

The tier-1 slice is every q in {2, 3, 4, 6}^6 and {2, 3, 6}^8 at genus 2–5,
plus acceptance criterion 16's sequences.  Together they reach every
method (Block, Subdiv2, Subdiv4), both RuledOut kinds and all four Unknown
reasons.  The full grid, every q in {2, 3, 4, 6}^p at p ∈ {6, 8} and genus
2–5 (278,528 calls), is pinned too; to check it:
``PYTHONPATH=src python tests/test_census.py --full``.
"""

import hashlib
import itertools
import re
import sys
from collections import Counter

from fqsurf.lattice import decide
from test_acceptance import _sweep_sequences


def census(points):
    """Counts per ``outcome/method/reason class`` and the lines' sha256."""
    counts = Counter()
    lines = []
    for p, q, g in points:
        verdict = decide(p, q, g)
        reason = re.sub(r"\d+", "#", verdict.reason)
        counts[f"{verdict.outcome}/{verdict.method}/{reason}"] += 1
        lines.append(f"{p} {','.join(map(str, q))} {g} {verdict.outcome} {verdict.method}\n")
    lines.sort()
    return dict(counts), hashlib.sha256("".join(lines).encode()).hexdigest()


def grid_points(p, alphabet):
    for q in itertools.product(alphabet, repeat=p):
        for g in range(2, 6):
            yield p, q, g


def criterion_16_points():
    for p in range(6, 21, 2):
        genera = [g for g in range(2, 14) if 8 * (g - 1) % (p - 4) == 0]
        if p == 12:
            genera += [16, 28]
        for g in genera:
            for q in _sweep_sequences(p):
                yield p, q, g


def slice_points():
    yield from grid_points(6, (2, 3, 4, 6))
    yield from grid_points(8, (2, 3, 6))
    yield from criterion_16_points()


def full_points():
    for p in (6, 8):
        yield from grid_points(p, (2, 3, 4, 6))


BLOCK = "Exists/Block/F=# divisible by # and q alternating non-coprime"
SUBDIV2 = "Exists/Subdiv2/F=#, q #-symmetric about # with even transverse gcd"
SUBDIV4 = "Exists/Subdiv4/F=# odd composite, q #-symmetric about #, d and e even"
TWO_SYMMETRY = "RuledOut/TwoSymmetry/F=# = # mod # but q is not #-symmetric"
FOUR_SYMMETRY = "RuledOut/FourSymmetry/F=# odd but q is not #-symmetric"
NOT_ALTERNATING = "Unknown/None/not alternating non-coprime"
NO_EVEN_AXIS = "Unknown/None/no symmetry axis with even transverse gcd"
NOT_COMPOSITE = "Unknown/None/F=# is not composite"
GCDS_NOT_EVEN = "Unknown/None/alternating gcds d=#, e=# not both even"

SLICE_COUNTS = {
    BLOCK: 6768,
    SUBDIV2: 479,
    SUBDIV4: 3,
    TWO_SYMMETRY: 11343,
    FOUR_SYMMETRY: 77,
    NOT_ALTERNATING: 24084,
    NO_EVEN_AXIS: 337,
    NOT_COMPOSITE: 24,
    GCDS_NOT_EVEN: 6,
}
SLICE_SHA256 = "8aa22fd46aa8ee5e532cc963eb5386360234905baebf969027863ed8bcfb64fe"

FULL_COUNTS = {
    BLOCK: 23056,
    SUBDIV2: 2286,
    TWO_SYMMETRY: 123168,
    NOT_ALTERNATING: 129264,
    NO_EVEN_AXIS: 754,
}
FULL_SHA256 = "00062ae64e247f9013545640b133a9838942c6c3218d30b54f3d41098effc057"


def test_slice_census_is_pinned():
    counts, digest = census(slice_points())
    assert counts == SLICE_COUNTS
    assert digest == SLICE_SHA256


def test_slice_reaches_every_verdict_class():
    outcomes = {key.split("/")[0] for key in SLICE_COUNTS}
    methods = {key.split("/")[1] for key in SLICE_COUNTS}
    unknown = [key for key in SLICE_COUNTS if key.startswith("Unknown/")]
    assert outcomes == {"Exists", "RuledOut", "Unknown"}
    assert methods == {"Block", "Subdiv2", "Subdiv4", "TwoSymmetry", "FourSymmetry", "None"}
    assert len(unknown) == 4
    assert set(FULL_COUNTS) <= set(SLICE_COUNTS)


if __name__ == "__main__":
    full = sys.argv[1:] == ["--full"]
    counts, digest = census(full_points() if full else slice_points())
    for key, n in sorted(counts.items()):
        print(f"{n:8d}  {key}")
    print("sha256", digest)
    expected = (FULL_COUNTS, FULL_SHA256) if full else (SLICE_COUNTS, SLICE_SHA256)
    if (counts, digest) != expected:
        sys.exit("census differs from the pinned counts and sha256")
