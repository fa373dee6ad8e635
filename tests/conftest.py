"""Shared fixtures: builder outputs and small hand-glued complexes."""

import pytest

from fqsurf.surface_complex import build_complex
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    complex_from_matchings,
    subdivide_four,
    subdivide_two,
)


# ------------------------------------------------------------------ hand-built


def make_torus():
    """One square with opposite sides glued: a b a' b'."""
    return build_complex(
        4,
        [(0, 1), (1, 2)],
        [(0, "ccw", [(0, False), (1, False), (0, True), (1, True)])],
    )


def make_pillowcase():
    """Two squares sewn along their whole boundary; every vertex has degree 2."""
    return build_complex(
        4,
        [(i, i + 1) for i in range(4)],
        [
            (0, "ccw", [(0, False), (1, False), (2, False), (3, False)]),
            (1, "cw", [(0, True), (3, True), (2, True), (1, True)]),
        ],
    )


def make_crossing():
    """Four hexagons whose long mixed loop meets each short loop twice."""
    s1 = [(0, 1), (2, 3)]
    s2 = [(0, 2), (1, 3)]
    return complex_from_matchings(
        6, ("ccw", "ccw", "cw", "cw"), [s1, s2, s1, s2, s1, s2]
    )


def make_twelve_gon():
    """A single 12-gon glued to itself: three vertices and two odd loops."""
    pairing = ((0, 2), (1, 4), (3, 5), (6, 8), (7, 10), (9, 11))
    sides = [None] * 12
    for eid, (a, b) in enumerate(pairing):
        sides[a] = (eid, False)
        sides[b] = (eid, True)
    return build_complex(12, [(eid, 1) for eid in range(6)], [(0, "ccw", sides)])


def make_octagon():
    """One octagon glued a b a' b' c d c' d': genus 2, one vertex of degree 8."""
    return build_complex(
        8,
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [(0, "ccw", [(0, False), (1, False), (0, True), (1, True),
                     (2, False), (3, False), (2, True), (3, True)])],
    )


def make_open_square():
    """A lone square; every edge dangles with a single incidence."""
    return build_complex(
        4,
        [(i, i + 1) for i in range(4)],
        [(0, "ccw", [(i, False) for i in range(4)])],
    )


def make_same_sense():
    """Edge 0 traversed forward by both of its faces."""
    return build_complex(
        4,
        [(i, i + 1) for i in range(4)],
        [
            (0, "ccw", [(0, False), (1, False), (2, False), (3, False)]),
            (1, "cw", [(0, False), (3, True), (2, True), (1, True)]),
        ],
    )


def make_disconnected():
    """Two tori sharing no edges."""
    return build_complex(
        4,
        [(0, 1), (1, 2), (2, 1), (3, 2)],
        [
            (0, "ccw", [(0, False), (1, False), (0, True), (1, True)]),
            (1, "ccw", [(2, False), (3, False), (2, True), (3, True)]),
        ],
    )


# ------------------------------------------------------------------- builders


@pytest.fixture(scope="session")
def block_p6_g2():
    return build_block_tessellation(6, 2)


@pytest.fixture(scope="session")
def block_p6_g3():
    return build_block_tessellation(6, 3)


@pytest.fixture(scope="session")
def block_p8_g3():
    return build_block_tessellation(8, 3)


@pytest.fixture(scope="session")
def block_p10_g4():
    return build_block_tessellation(10, 4)


@pytest.fixture(scope="session")
def rect_p8_1x2():
    return build_rect_tessellation(8, 1, 2)


@pytest.fixture(scope="session")
def rect_p8_3x2():
    return build_rect_tessellation(8, 3, 2)


@pytest.fixture(scope="session")
def rect_p12_3x3():
    return build_rect_tessellation(12, 3, 3)


@pytest.fixture(scope="session")
def hex4(rect_p8_1x2):
    cx, _ = subdivide_two(rect_p8_1x2, axis=1)
    return cx


@pytest.fixture(scope="session")
def hex36(rect_p12_3x3):
    cx, _ = subdivide_four(rect_p12_3x3, axis=1)
    return cx


@pytest.fixture
def torus():
    return make_torus()


@pytest.fixture
def pillowcase():
    return make_pillowcase()


@pytest.fixture
def crossing():
    return make_crossing()


@pytest.fixture
def twelve_gon():
    return make_twelve_gon()
