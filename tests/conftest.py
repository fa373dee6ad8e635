"""Shared fixtures: builder outputs, small hand-glued complexes and the
sparse linear algebra the homology oracles are built on."""

import pytest

from fqsurf.surface_complex import IntegerMatrix, build_complex, snf_with_transforms
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


# ------------------------------------------------------- sparse linear algebra


def boundary_matrices(cx):
    """The cellular boundary maps (d2: faces→edges, d1: edges→vertices).

    Forward traversal contributes +1 in d2; an edge is oriented from the tail
    to the head of its forward side, giving head-minus-tail columns in d1.
    """
    d2 = [{} for _ in range(cx.num_edges)]
    for f in cx.faces:
        for s in f.sides:
            d2[s.edge][f.id] = d2[s.edge].get(f.id, 0) + (-1 if s.reversed else 1)
    d1 = [{} for _ in range(cx.num_vertices)]
    for e in cx.edges:
        head, tail = cx.head_vertex((e.id, True)), cx.tail_vertex((e.id, True))
        d1[head][e.id] = d1[head].get(e.id, 0) + 1
        d1[tail][e.id] = d1[tail].get(e.id, 0) - 1
    return (IntegerMatrix.from_rows(d2, cx.num_faces),
            IntegerMatrix.from_rows(d1, cx.num_edges))


def matrix_product(a, b):
    """The IntegerMatrix a·b, multiplied on the sparse rows."""
    assert a.cols == b.rows, "dimension mismatch"
    out = [{} for _ in a.entries]
    for acc, row in zip(out, a.entries):
        for k, x in row.items():
            for j, y in b.entries[k].items():
                acc[j] = acc.get(j, 0) + x * y
    return IntegerMatrix.from_rows(out, b.cols)


def loops_then_faces(loops, d2):
    """``[loop cycles | d2]``: each loop, then each face boundary, as a
    column over the edges."""
    rows = [{} for _ in range(d2.rows)]
    for k, lp in enumerate(loops):
        for e, fwd in lp.directed_edges:
            rows[e][k] = rows[e].get(k, 0) + (1 if fwd else -1)
    for row, face_row in zip(rows, d2.entries):
        row.update((len(loops) + j, x) for j, x in face_row.items())
    return IntegerMatrix.from_rows(rows, len(loops) + d2.cols)


def assert_smith_transforms(m):
    """``snf_with_transforms(m)`` gives U·M·V = D with |det U| = |det V| = 1.

    The determinants are sympy's, exact over the integers; U = 0 would pass
    the product check on a zero matrix but not this one.
    """
    from sympy import Matrix

    d, u, v = snf_with_transforms(m)
    assert matrix_product(matrix_product(u, m), v) == d
    for t in (u, v):
        assert abs(Matrix(t.data).det()) == 1
    return d


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
