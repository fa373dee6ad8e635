"""Differential tests: the symmetry conditions of a thickness sequence, each
read from one rotation of q, against the bodies they replaced.

The references index q cyclically from 1 through ``_q_at``: ``is_symmetric``
compared the set of entries at both offsets from both centres,
``derived_sequence`` read entry by entry from the axis, and ``decide`` took
the gcd of the entries at odd offsets from each 2-symmetric axis.  That gcd
is now read from the alternating decomposition: the entries at odd offsets
from m are the class of the parity opposite to m, so it is e for odd m and
d for even m.

Inputs are exhaustive: every q in {2, 3, 4}^p for p in {4, 6, 8} and in
{2, 3}^12, every axis m in -p..2p, and 2 pieces, with 4 where 4 divides p.
"""

from itertools import product
from math import gcd

import pytest

from fqsurf.lattice import alternating_noncoprime
from fqsurf.surface_complex import _require_int_parameter, _require_int_sequence
from fqsurf.tessellation import (
    BadDivisibility,
    SymmetryViolation,
    derived_sequence,
    is_symmetric,
)

SEQUENCES = ((4, (2, 3, 4)), (6, (2, 3, 4)), (8, (2, 3, 4)), (12, (2, 3)))
EVERY_SEQUENCE = pytest.mark.parametrize(
    "p, values", SEQUENCES, ids=[f"p{p}" for p, _ in SEQUENCES]
)


def _q_at(q, i):
    """Entry i of a thickness sequence, indexed cyclically from 1."""
    return q[(i - 1) % len(q)]


def _reference_is_symmetric(q, m, pieces):
    q = _require_int_sequence(q)
    _require_int_parameter("axis", m)
    _require_int_parameter("pieces", pieces)
    p = len(q)
    if pieces not in (2, 4):
        raise ValueError("pieces must be 2 or 4")
    if not p:
        raise ValueError("an empty sequence has no symmetry axis")
    if pieces == 4 and p % 4:
        raise BadDivisibility(f"4-symmetry needs a length divisible by 4, got {p}")
    centers = (m,) if pieces == 2 else (m, m + p // 2)
    return all(
        len({_q_at(q, c + s * i) for c in centers for s in (1, -1)}) == 1
        for i in range(1, p // 2 + 1)
    )


def _reference_derived_sequence(q, pieces, m):
    if not _reference_is_symmetric(q, m, pieces):
        raise SymmetryViolation(f"q is not {pieces}-symmetric about {m}")
    read = tuple(_q_at(q, m + i) for i in range(len(q) // pieces + 1))
    return read + (2,) * (pieces // 2)


def _reference_transverse_gcd(q, m):
    return gcd(*(_q_at(q, m + t) for t in range(1, len(q), 2)))


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the class and message it raised."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def _cases(p, values):
    pieces = (2, 4) if p % 4 == 0 else (2,)
    for q in product(values, repeat=p):
        for m in range(-p, 2 * p + 1):
            for n in pieces:
                yield q, m, n


@EVERY_SEQUENCE
def test_one_rotation_reads_as_the_reference(p, values):
    mismatches = []
    for q, m, pieces in _cases(p, values):
        expected = _outcome(_reference_derived_sequence, q, pieces, m)
        # every input here is valid, so the reference raises only when q is
        # not symmetric about m
        symmetric = expected[0] is not SymmetryViolation
        if (_outcome(derived_sequence, q, pieces, m) != expected
                or is_symmetric(q, m, pieces) != symmetric):
            mismatches.append((q, m, pieces))
    assert mismatches == []


@EVERY_SEQUENCE
def test_transverse_gcd_is_the_class_divisor(p, values):
    checked = 0
    for q in product(values, repeat=p):
        deco = alternating_noncoprime(q)
        if deco is None:
            continue
        for m in range(-p, 2 * p + 1):
            if is_symmetric(q, m, 2):
                assert _reference_transverse_gcd(q, m) == (deco.e if m % 2 else deco.d), (q, m)
                checked += 1
    assert checked


@pytest.mark.parametrize(
    "args",
    [
        ((2,) * 6, 1, 4),
        ((), 1, 2),
        ((2,) * 8, 1, 3),
        ((2.0,) * 8, 1, 2),
        ((2,) * 8, 1.0, 2),
        ((2,) * 8, 1, True),
        ([3, 2, 9, 2, 3, 2, 9, 2], 3, 2),
        ([3, 2, 9, 2, 3, 2, 9, 2], 2, 2),
        (range(2, 3), 1, 2),
    ],
)
def test_rejections_and_other_sequence_types_read_as_the_reference(args):
    q, m, pieces = args
    assert _outcome(is_symmetric, q, m, pieces) == _outcome(_reference_is_symmetric, q, m, pieces)
    assert _outcome(derived_sequence, q, pieces, m) == _outcome(
        _reference_derived_sequence, q, pieces, m
    )
