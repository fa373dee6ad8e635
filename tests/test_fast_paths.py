"""Differential tests: each pass that reads the derived tables directly
against a reference written on the public, checked accessors.

The references are the bodies these passes had when they called
``rotation``, ``continue_through``, ``tail_vertex``, ``vertex_type_pair``
and ``edge_type`` once per element.  ``vertex_type_pair`` now reads the
table under test, so the references derive the type pair from ``rotation``
and ``edge_type`` instead, by that accessor's former body.

The loop-phase colorer of ``solve_good_coloring`` is checked against the
constraint-system transport it replaced, ``reference_propagate`` over
``build_constraints``: the same colorings and raised errors, and where the
transport closes a witness, the walk's is an odd closed chain of the
system's relations too.

The dart tables of ``SurfaceComplex._derive`` are checked, through the
public API, against the walk they replace: ``sigma`` over ``(face,
position)`` corners, finding each opposite side in ``occurrences()``, with a
ray table keyed by ``(edge id, forward)`` pairs.  The closedness defects,
the connectivity finding, the Betti numbers and the subdivision maps are
checked against their former bodies on that walk.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fqsurf.coloring
from fqsurf.coloring import (
    ContradictionWitness,
    DegenerateLoop,
    EdgeColoring,
    TooLargeForExhaustive,
    _hanging_edges,
    build_constraints,
    solve_good_coloring,
)
from fqsurf.lattice import assign_groups, decide
from fqsurf.loops import GeodesicLoop, trace_geodesic_loops
from fqsurf.surface_complex import (
    IntegerMatrix,
    betti_numbers,
    build_complex,
    complex_from_dict,
    complex_to_dict,
    smith_normal_form,
    succ_type,
    validate,
)
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    subdivide_four,
    subdivide_two,
)

from conftest import (
    assert_odd_closed_chain,
    make_crossing,
    make_disconnected,
    make_octagon,
    make_open_square,
    make_pillowcase,
    make_same_sense,
    make_tied_octagons,
    make_torus,
    make_twelve_gon,
    reference_propagate,
)
from test_derived_once import _count_calls
from test_loops import closed_complexes, right_angled_complexes

HAND_BUILT = [make_torus, make_pillowcase, make_crossing, make_twelve_gon, make_octagon,
              make_open_square, make_same_sense, make_disconnected, make_tied_octagons]
FIXTURES = ["block_p6_g2", "block_p6_g3", "block_p8_g3", "block_p10_g4",
            "rect_p8_1x2", "rect_p8_3x2", "rect_p12_3x3", "hex4", "hex36"]


def _fresh(cx):
    """A copy of ``cx`` with nothing derived or cached yet."""
    return complex_from_dict(complex_to_dict(cx))


def _outcome(fn, *args):
    """The result of ``fn(*args)``, or the type and message it raised."""
    try:
        return "returned", fn(*args)
    except ValueError as exc:
        return "raised", type(exc), str(exc)


def _all_complexes(request):
    return [make() for make in HAND_BUILT] + [
        request.getfixturevalue(name) for name in FIXTURES
    ]


# ------------------------------------------------------------ references


def _reference_hanging_edges(cx, cycle):
    lefts = []
    rights = []
    for dedge in cycle:
        v = cx.head_vertex(dedge)
        degree = len(cx.rotation(v))
        if degree != 4:
            raise ValueError(f"vertex {v} has degree {degree}, not 4")
        lefts.append(cx.continue_through(dedge, 1)[0])
        rights.append(cx.continue_through(dedge, -1)[0])
    return lefts, rights


def _reference_loops(cx):
    """Geodesic loops by a ``straight_continuation`` walk."""
    order = [(e.id, fwd) for e in cx.edges for fwd in (True, False)]
    visited = set()
    loops = []
    for start in order:
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        cur = cx.straight_continuation(start)
        while cur != start:
            cycle.append(cur)
            visited.add(cur)
            cur = cx.straight_continuation(cur)
        edge_ids = {e for e, _ in cycle}
        degenerate = len(edge_ids) < len(cycle)
        if not degenerate:
            for e, fwd in cycle:
                visited.add((e, not fwd))
        types = {cx.edge_type(e) for e in edge_ids}
        length = len(edge_ids)
        loops.append(GeodesicLoop(
            loop_id=len(loops),
            type=types.pop() if len(types) == 1 else None,
            directed_edges=tuple(cycle),
            undirected_length=length,
            parity="odd" if length % 2 else "even",
            degenerate=degenerate,
        ))
    return loops


def _reference_type_pair(cx, v):
    """The ordered type pair (i, i+1) at a degree-4 vertex, else None."""
    return _reference_pair_of(cx, [cx.edge_type(e) for e, _ in cx.rotation(v)])


def _reference_pair_of(cx, t):
    """The ordered type pair (i, i+1) of four ray types that alternate, else None."""
    if len(t) != 4:
        return None
    if t[0] != t[2] or t[1] != t[3] or t[0] == t[1]:
        return None
    if succ_type(t[0], cx.p) == t[1]:
        return (t[0], t[1])
    if succ_type(t[1], cx.p) == t[0]:
        return (t[1], t[0])
    return None


def _reference_walk(cx):
    """The former ``_derive`` walk: (orbits, rotations, ray table, type pairs).

    Corners are ``(face, position)`` pairs and ``sigma`` finds each opposite
    side in ``occurrences()``; the ray table maps each directed edge to its
    tail vertex and its position in that vertex's rotation.
    """
    occ = cx.occurrences()
    sides = [f.sides for f in cx.faces]
    orbits, rotations, rays, pairs = [], [], {}, []
    for f, walk in enumerate(sides):
        for k, (eid, rev) in enumerate(walk):
            ray = (eid, not rev)
            if ray in rays:
                continue
            v = len(orbits)
            corner = (f, k)
            orbit, rotation = [], []
            while ray not in rays:
                rays[ray] = (v, len(rotation))
                orbit.append(corner)
                rotation.append(ray)
                a, b = occ[eid]
                g, j = b if a == corner else a
                corner = (g, (j + 1) % len(sides[g]))
                eid, rev = sides[g][corner[1]]
                ray = (eid, not rev)
            orbits.append(tuple(orbit))
            rotations.append(tuple(rotation))
            pairs.append(_reference_pair_of(cx, [cx.edges[e].type for e, _ in rotation]))
    return orbits, rotations, rays, pairs


def _reference_closedness_defects(cx):
    defects = []
    for eid, locs in cx.occurrences().items():
        if len(locs) != 2:
            defects.append((eid, f"{len(locs)} sides"))
            continue
        (fa, ka), (fb, kb) = locs
        if cx.faces[fa].sides[ka][1] == cx.faces[fb].sides[kb][1]:
            defects.append((eid, "same sense twice"))
    return defects


def _reference_disconnected(cx):
    """The details of the Disconnected findings of ``validate``."""
    if _reference_closedness_defects(cx):
        return []
    if not cx.num_faces:
        return ["the complex has no faces"]
    occ = cx.occurrences()
    reached = {0}
    stack = [0]
    while stack:
        f = stack.pop()
        for eid, _rev in cx.faces[f].sides:
            for g, _k in occ[eid]:
                if g not in reached:
                    reached.add(g)
                    stack.append(g)
    if len(reached) == cx.num_faces:
        return []
    return [f"only {len(reached)} of {cx.num_faces} faces reachable from face 0"]


def _reference_betti_numbers(cx):
    """Ranks from the Smith normal form of d1 and d2, with d1 read off the
    reference walk's ray table."""
    orbits, _rotations, rays, _pairs = _reference_walk(cx)
    d2 = [{} for _ in cx.edges]
    for f in cx.faces:
        for e, rev in f.sides:
            d2[e][f.id] = d2[e].get(f.id, 0) + (-1 if rev else 1)
    d1 = [{} for _ in orbits]
    for e in cx.edges:
        head, tail = rays[e.id, False][0], rays[e.id, True][0]
        d1[head][e.id] = d1[head].get(e.id, 0) + 1
        d1[tail][e.id] = d1[tail].get(e.id, 0) - 1
    _, r2 = smith_normal_form(IntegerMatrix.from_rows(d2, cx.num_faces))
    _, r1 = smith_normal_form(IntegerMatrix.from_rows(d1, cx.num_edges))
    return len(orbits) - r1, cx.num_edges - r1 - r2, cx.num_faces - r2


def _reference_subdivision_vertices(out, sub):
    """(midpoint vertices, center vertices) of a subdivision, by the former
    body: the head of (h, True) is the tail of (h, False)."""
    rays = _reference_walk(out)[2]
    midpoints = {old: rays[h1, False][0] for old, (h1, _h2) in sub.edge_splits.items()}
    centers = {f: rays[chord[0], False][0] for f, chord in sub.chords.items()}
    return midpoints, centers if sub.pieces == 4 else {}


def _reference_labeling_findings(cx):
    """(tag, detail) of the FaceLabeling and VertexTypeAlternation findings,
    read per face with ``succ_type`` and per vertex with the reference type
    pair."""
    found = []
    if cx.is_closed() and cx.num_faces:
        if all(len(cx.rotation(v)) == 4 for v in range(cx.num_vertices)):
            bad = [v for v in range(cx.num_vertices) if _reference_type_pair(cx, v) is None]
            if bad:
                found.append((
                    "VertexTypeAlternation",
                    f"vertices whose edge types do not alternate i, i+1: {bad[:8]}",
                ))
    for f in cx.faces:
        seq = [cx.edge_type(eid) for eid, _rev in f.sides]
        if f.chirality == "cw":
            seq = seq[::-1]
        n = len(seq)
        if any(seq[(k + 1) % n] != succ_type(seq[k], cx.p) for k in range(n)):
            found.append((
                "FaceLabeling",
                f"face {f.id} does not read a consecutive type cycle: {seq}",
            ))
    return found


def _reference_signatures(cx, assignment):
    signatures = []
    for v, orbit in enumerate(cx.vertices()):
        rays = cx.rotation(v)
        signatures.append((
            _reference_type_pair(cx, v),
            tuple(assignment.edge_factors[e] for e, _ in rays),
            tuple(cx.edge_type(e) for e, _ in rays),
            # sector k lies clockwise between rays k and k+1: the face of corner k+1
            tuple(assignment.face_factors[orbit[(k + 1) % 4][0]] for k in range(4)),
        ))
    return tuple(signatures)


def _reference_coloring(cx):
    return reference_propagate(cx, build_constraints(cx, trace_geodesic_loops(cx)))


# ------------------------------------------------------------ comparisons


def _assert_vertex_tables_match(cx):
    cx = _fresh(cx)
    if not cx.is_closed():
        expected = ("raised", ValueError, "vertex structure requires a closed complex")
        for use in (cx.vertices, lambda: cx.rotation(0), lambda: cx.tail_vertex((0, True))):
            assert _outcome(use) == expected
        return
    orbits, rotations, rays, pairs = _reference_walk(cx)
    assert cx.vertices() == tuple(orbits)
    assert cx.num_vertices == len(orbits)
    assert [cx.rotation(v) for v in range(cx.num_vertices)] == rotations
    assert [cx.vertex_type_pair(v) for v in range(cx.num_vertices)] == pairs
    assert len(rays) == 2 * cx.num_edges
    for (e, fwd), (v, _i) in rays.items():
        assert cx.tail_vertex((e, fwd)) == v
        assert cx.head_vertex((e, fwd)) == rays[e, not fwd][0]
        head, i = rays[e, not fwd]
        rotation = rotations[head]
        for turn in (-1, 0, 1, 2, 3):
            expected = rotation[(i + turn) % len(rotation)]
            assert cx.continue_through((e, fwd), turn) == expected


def _assert_closedness_matches(cx):
    assert _fresh(cx).closedness_defects() == _reference_closedness_defects(cx)


def _assert_connectivity_matches(cx):
    got = [f.detail for f in validate(_fresh(cx)).failures if f.tag == "Disconnected"]
    assert got == _reference_disconnected(cx)


def _assert_betti_numbers_match(cx):
    if cx.is_closed():
        assert betti_numbers(_fresh(cx)) == _reference_betti_numbers(cx)


def _assert_hanging_edges_match(cx):
    if not cx.is_closed():
        return
    for lp in trace_geodesic_loops(cx).loops:
        cycle = lp.directed_edges
        assert _outcome(_hanging_edges, cx, cycle) == _outcome(
            _reference_hanging_edges, cx, cycle
        )


def _assert_loops_match(cx):
    if cx.is_closed():
        assert trace_geodesic_loops(cx).loops == _reference_loops(cx)
        for lp in trace_geodesic_loops(cx).loops:
            assert lp.vertex_ids(cx) == {cx.tail_vertex(d) for d in lp.directed_edges}


def _assert_labeling_findings_match(cx):
    cx = _fresh(cx)
    got = [(f.tag, f.detail) for f in validate(cx).failures
           if f.tag in ("VertexTypeAlternation", "FaceLabeling")]
    assert got == _reference_labeling_findings(cx)


def _assert_type_pairs_match(cx):
    if cx.is_closed():
        cx = _fresh(cx)
        assert [cx.vertex_type_pair(v) for v in range(cx.num_vertices)] == [
            _reference_type_pair(cx, v) for v in range(cx.num_vertices)
        ]


def _assert_signatures_match(cx):
    if not validate(cx).passed:
        return
    colors = {e.id: (e.id * 7 + e.type) % 2 for e in cx.edges}
    coloring = EdgeColoring(colors=colors, base_vertex=0, seed=())
    a = assign_groups(cx, coloring, (2, 4) * (cx.p // 2))
    assert a.signatures == _reference_signatures(cx, a)


def _coloring_outcome(solve, cx):
    """What ``solve(cx)`` gives, field by field, with the colors' key order."""
    out = _outcome(solve, cx)
    if out[0] == "raised":
        return out
    result = out[1]
    if isinstance(result, ContradictionWitness):
        return "witness", result.cycle
    return ("coloring", list(result.colors.items()), result.base_vertex, result.seed,
            result.solution_count)


def _assert_phase_colorer_matches(cx):
    cx = _fresh(cx)
    got = _coloring_outcome(solve_good_coloring, cx)
    expected = _coloring_outcome(_reference_coloring, cx)
    if expected[0] != "witness":
        assert got == expected
        return
    assert got[0] == "witness"
    system = build_constraints(cx, trace_geodesic_loops(cx))
    assert_odd_closed_chain(got[1], system.constraints)


ALL_CHECKS = [
    _assert_vertex_tables_match,
    _assert_closedness_matches,
    _assert_connectivity_matches,
    _assert_betti_numbers_match,
    _assert_hanging_edges_match,
    _assert_loops_match,
    _assert_labeling_findings_match,
    _assert_type_pairs_match,
    _assert_signatures_match,
    _assert_phase_colorer_matches,
]


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__[8:])
def test_fixtures_match_references(request, check):
    for cx in _all_complexes(request):
        check(cx)


@pytest.mark.parametrize("check", ALL_CHECKS, ids=lambda c: c.__name__[8:])
def test_subdivided_grids_match_references(check):
    check(subdivide_two(build_rect_tessellation(8, 3, 4), axis=1)[0])
    check(subdivide_four(build_rect_tessellation(12, 3, 5), axis=1)[0])
    check(build_block_tessellation(6, 9))


@given(closed_complexes())
@settings(max_examples=40, deadline=None)
def test_closed_complexes_match_references(cx):
    for check in ALL_CHECKS:
        check(cx)


@given(right_angled_complexes())
@settings(max_examples=40, deadline=None)
def test_right_angled_complexes_match_references(cx):
    for check in ALL_CHECKS:
        check(cx)


@st.composite
def retyped_complexes(draw):
    """A right-angled complex with its edge types redrawn at random, so
    faces and vertices may read types that do not alternate."""
    cx = draw(right_angled_complexes())
    types = [draw(st.integers(1, cx.p)) for _ in cx.edges]
    return build_complex(
        cx.p,
        [(e.id, t) for e, t in zip(cx.edges, types)],
        [(f.id, f.chirality, f.sides) for f in cx.faces],
    )


@given(retyped_complexes())
@settings(max_examples=60, deadline=None)
def test_retyped_complexes_match_references(cx):
    for check in ALL_CHECKS:
        check(cx)


def test_open_and_split_complexes_are_found_alike():
    """The defects the references find, pinned, so the comparison is not vacuous."""
    assert _reference_closedness_defects(make_open_square()) == [
        (e, "1 sides") for e in range(4)
    ]
    assert _reference_closedness_defects(make_same_sense()) == [(0, "same sense twice")]
    assert _reference_disconnected(make_disconnected()) == [
        "only 1 of 2 faces reachable from face 0"
    ]
    for make in (make_open_square, make_same_sense, make_disconnected):
        _assert_closedness_matches(make())
        _assert_connectivity_matches(make())
    assert _reference_betti_numbers(make_disconnected()) == (2, 4, 2)
    _assert_betti_numbers_match(make_disconnected())


@pytest.mark.parametrize("subdivide, p, a, b, axis", [
    (subdivide_two, 8, 1, 2, None),
    (subdivide_two, 8, 3, 4, 1),
    (subdivide_four, 12, 3, 3, 1),
    (subdivide_four, 12, 3, 5, 1),
])
def test_subdivision_maps_match_references(subdivide, p, a, b, axis):
    out, sub = subdivide(build_rect_tessellation(p, a, b), axis=axis)
    midpoints, centers = _reference_subdivision_vertices(out, sub)
    assert sub.midpoint_vertices == midpoints
    assert sub.center_vertices == centers
    assert len(centers) == (a * b if sub.pieces == 4 else 0)


def test_non_alternating_vertex_types_are_found_alike():
    cx = make_twelve_gon()
    assert [tag for tag, _detail in _reference_labeling_findings(cx)] == [
        "VertexTypeAlternation", "FaceLabeling"
    ]
    _assert_labeling_findings_match(cx)


def test_degree_eight_vertex_fails_alike():
    cx = make_octagon()
    (lp, *_rest) = trace_geodesic_loops(cx).loops
    expected = ("raised", ValueError, "vertex 0 has degree 8, not 4")
    assert _outcome(_hanging_edges, cx, lp.directed_edges) == expected
    assert _outcome(_reference_hanging_edges, cx, lp.directed_edges) == expected
    _assert_loops_match(cx)


def _disjoint(*complexes):
    """The disjoint union of complexes with one p, ids renumbered in order."""
    edges, faces = [], []
    for cx in complexes:
        shift, face_shift = len(edges), len(faces)
        edges += [(shift + e.id, e.type) for e in cx.edges]
        faces += [(face_shift + f.id, f.chirality, [(shift + e, rev) for e, rev in f.sides])
                  for f in cx.faces]
    return build_complex(complexes[0].p, edges, faces)


def test_phase_colorer_matches_on_disjoint_unions(request):
    """Components that no seed reaches get their least edge colored 0."""
    blocks = [request.getfixturevalue(name) for name in ("block_p6_g2", "block_p6_g3")]
    for cx in (_disjoint(*blocks), _disjoint(*blocks[::-1]),
               _disjoint(make_crossing(), request.getfixturevalue("hex4"))):
        assert isinstance(solve_good_coloring(cx), EdgeColoring)
        _assert_phase_colorer_matches(cx)


@pytest.mark.parametrize("make, expected", [
    (make_octagon, (ValueError, "vertex 0 has degree 8, not 4")),
    (make_pillowcase, (DegenerateLoop, "loop 0 folds back on itself")),
    # an odd loop comes first, and the walk goes on to the degree-8 vertex
    (lambda: _disjoint(build_rect_tessellation(8, 1, 2), make_octagon()),
     (ValueError, "vertex 4 has degree 8, not 4")),
    # the unions below exceed the exhaustive cap, which is checked after the walk
    (lambda: _disjoint(*[make_pillowcase() for _ in range(6)]),
     (DegenerateLoop, "loop 0 folds back on itself")),
    # 24 odd loops come first, and the walk goes on to the pillowcase
    (lambda: _disjoint(*[make_torus() for _ in range(12)], make_pillowcase()),
     (DegenerateLoop, "loop 24 folds back on itself")),
    (lambda: _disjoint(*[make_octagon() for _ in range(6)]),
     (ValueError, "vertex 0 has degree 8, not 4")),
], ids=["octagon", "pillowcase", "odd-then-degree-8", "six-pillowcases",
        "twelve-tori-then-pillowcase", "six-octagons"])
def test_phase_colorer_raises_alike(make, expected):
    cx = make()
    assert _coloring_outcome(solve_good_coloring, cx) == ("raised", *expected)
    assert _coloring_outcome(_reference_coloring, _fresh(cx)) == ("raised", *expected)
    assert _outcome(solve_good_coloring, _fresh(cx), "exhaustive") == ("raised", *expected)


@pytest.mark.parametrize(
    "p, q, genus, method",
    [
        (6, (2, 3) * 3, 17, "Block"),
        (8, (2, 4) * 4, 32, "Subdiv2"),
        (12, (2, 4) * 6, 66, "Subdiv4"),
    ],
)
def test_certified_decide_builds_no_constraint_system(monkeypatch, p, q, genus, method):
    calls = _count_calls(monkeypatch, fqsurf.coloring, "build_constraints")
    verdict = decide(p, q, genus, certify=True)
    assert (verdict.outcome, verdict.method) == ("Exists", method)
    assert calls == []


def test_exhaustive_refuses_over_the_cap_before_building_constraints(monkeypatch):
    cx = build_block_tessellation(6, 257)
    assert cx.num_faces == 1024
    calls = _count_calls(monkeypatch, fqsurf.coloring, "build_constraints")
    with pytest.raises(TooLargeForExhaustive, match=r"^3072 edges exceeds the cap of 22$"):
        solve_good_coloring(cx, "exhaustive")
    assert calls == []


@pytest.mark.parametrize("name", ["rect_p8_1x2", "tied_octagons"])
def test_contradiction_builds_no_constraint_system(monkeypatch, request, name):
    """Neither an odd loop nor a disagreeing tie builds the system."""
    cx = request.getfixturevalue(name)
    calls = _count_calls(monkeypatch, fqsurf.coloring, "build_constraints")
    witness = solve_good_coloring(cx)
    assert isinstance(witness, ContradictionWitness)
    assert calls == []
