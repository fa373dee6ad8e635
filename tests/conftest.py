"""Shared fixtures: builder outputs, small hand-glued complexes, the
sparse linear algebra the homology oracles are built on, the
constraint-system transport that the coloring walk is checked against, and
the per-passage coloring check that the all-loops walk is checked against."""

import pytest

from fqsurf.coloring import (
    ALTERNATING,
    CONSISTENCY,
    ContradictionWitness,
    EdgeColoring,
    _hanging_edges,
    _key_fault,
    _seed_priorities,
)
from fqsurf.loops import _dart_cycles, trace_geodesic_loops
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


def make_tied_octagons():
    """Two octagons whose geodesic loops are all even, but whose
    hanging-edge ties close a cycle of odd parity: no good coloring."""
    f0 = [(0, False), (4, False), (3, False), (6, False),
          (7, True), (0, True), (6, True), (2, True)]
    f1 = [(1, True), (7, False), (2, False), (5, True),
          (4, True), (1, False), (5, False), (3, True)]
    types = (7, 2, 8, 2, 8, 2, 2, 3)
    return build_complex(8, list(enumerate(types)), [(0, "ccw", f0), (1, "ccw", f1)])


# ------------------------------------------------------- sparse linear algebra


def boundary_matrices(cx):
    """The cellular boundary maps (d2: faces→edges, d1: edges→vertices).

    Forward traversal contributes +1 in d2; an edge is oriented from the tail
    to the head of its forward side, giving head-minus-tail columns in d1.
    """
    d2 = [{} for _ in range(cx.num_edges)]
    for f in cx.faces:
        for e, rev in f.sides:
            d2[e][f.id] = d2[e].get(f.id, 0) + (-1 if rev else 1)
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


# ------------------------------------------------- constraint-system transport


def reference_adjacency(variables, constraints):
    """Each variable's (neighbor, constraint) pairs in (neighbor, parity,
    tag) order; a constraint of a variable with itself is listed twice."""
    adjacency = {v: [] for v in variables}
    for c in constraints:
        adjacency[c.edge_a].append((c.edge_b, c))
        adjacency[c.edge_b].append((c.edge_a, c))
    for pairs in adjacency.values():
        pairs.sort(key=lambda item: (item[0], item[1].parity, item[1].tag))
    return adjacency


def reference_components(system):
    """The connected components of a constraint system's variables, each
    sorted, in order of least variable."""
    adjacency = reference_adjacency(system.variables, system.constraints)
    seen = set()
    comps = []
    for v in sorted(adjacency):
        if v in seen:
            continue
        seen.add(v)
        comp = [v]
        for u in comp:
            for w, _c in adjacency[u]:
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def reference_propagate(cx, system):
    """Color by breadth-first transport over the whole constraint system,
    the solver the loop-phase walk replaced: an ``EdgeColoring``, or a
    ``ContradictionWitness`` closing the first violated constraint through
    the transport tree.

    Components are rooted at the canonical seeds first, each (edge, color)
    in order, then at each still-uncolored edge in increasing order with
    color 0.
    """
    base, priorities = _seed_priorities(cx)
    adjacency = reference_adjacency(system.variables, system.constraints)
    colors = {}
    parent = {}
    for root, root_color in [*priorities, *((v, 0) for v in sorted(system.variables))]:
        if root in colors:
            continue
        colors[root] = root_color
        parent[root] = None
        queue = [root]
        for u in queue:
            for w, c in adjacency[u]:
                if w not in colors:
                    colors[w] = colors[u] ^ c.parity
                    parent[w] = (u, c)
                    queue.append(w)

    def ancestry(e):
        chain = [e]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]][0])
        return chain

    for c in system.constraints:
        if colors[c.edge_a] ^ colors[c.edge_b] != c.parity:
            chain_a = ancestry(c.edge_a)
            chain_b = ancestry(c.edge_b)
            in_a = set(chain_a)
            lca = next(e for e in chain_b if e in in_a)
            up = [parent[e][1] for e in chain_a[: chain_a.index(lca)]]
            down = [parent[e][1] for e in chain_b[: chain_b.index(lca)]]
            return ContradictionWitness((*up, *reversed(down), c))
    colors = {v: colors[v] for v in sorted(colors)}
    seed = tuple((eid, colors[eid]) for eid, _c in priorities)
    return EdgeColoring(colors=colors, base_vertex=base, seed=seed)


def reference_verify_good_coloring(cx, coloring):
    """The per-passage coloring check that ``verify_good_coloring`` replaced:
    each loop in turn, its edges compared with the next one round the loop,
    then its left and right hanging edges, raising on the first passage
    whose head has a degree other than 4.  The keys are checked first, by
    the same ``_key_fault``."""
    colors = coloring.colors
    fault = _key_fault(colors, cx.num_edges)
    if fault is not None:
        raise ValueError(fault)
    loops = trace_geodesic_loops(cx).loops
    violations = []
    for loop, cycle in zip(loops, _dart_cycles(cx, loops)):
        if loop.degenerate:
            continue
        n = len(cycle)
        for k in range(n):
            e = cycle[k] >> 1
            f = cycle[(k + 1) % n] >> 1
            if colors[e] == colors[f]:
                violations.append((ALTERNATING, loop.loop_id, e, f))
        for name, side in zip(("left", "right"), _hanging_edges(cx, cycle)):
            if len({colors[e] for e in side}) > 1:
                violations.append(
                    (CONSISTENCY, loop.loop_id, name, tuple(sorted(set(side))))
                )
    return (not violations, violations)


def assert_odd_closed_chain(cycle, constraints):
    """``cycle`` is a closed walk of relations from ``constraints`` whose
    parities sum to 1: from some end of its first relation, each relation
    leads on from where the one before it ended, and the last ends there."""
    assert cycle
    assert all(c in constraints for c in cycle)
    assert sum(c.parity for c in cycle) % 2 == 1

    def closes_from(start):
        at = start
        for c in cycle:
            if at not in (c.edge_a, c.edge_b):
                return False
            at = c.edge_b if at == c.edge_a else c.edge_a
        return at == start

    first = cycle[0]
    assert closes_from(first.edge_a) or closes_from(first.edge_b), cycle


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


@pytest.fixture
def tied_octagons():
    return make_tied_octagons()
