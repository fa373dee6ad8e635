"""Geodesic loop tracing, intersections, homology generation, orientations."""

import functools
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsurf.coloring import assign_face_orientations
from fqsurf.loops import (
    GeodesicLoop,
    loop_report_to_dict,
    loops_generate_h1,
    pairwise_intersections,
    trace_geodesic_loops,
)
from fqsurf.surface_complex import (
    betti_numbers,
    canonical_json,
    dual_graph,
    smith_normal_form,
)
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    complex_from_matchings,
    subdivide_four,
    subdivide_two,
)

from conftest import (
    boundary_matrices,
    loops_then_faces,
    make_crossing,
    make_disconnected,
    make_octagon,
    make_open_square,
    make_pillowcase,
    make_same_sense,
    make_torus,
    make_twelve_gon,
    matrix_product,
)
from test_surface_complex import matchings_complexes, side_pairing_complexes


class TestTorusLoops:
    def test_two_odd_loops(self, torus):
        rep = trace_geodesic_loops(torus)
        assert [lp.directed_edges for lp in rep.loops] == [((0, True),), ((1, True),)]
        assert [lp.parity for lp in rep.loops] == ["odd", "odd"]
        assert rep.odd_loops == [0, 1]
        assert rep.per_type_counts == {1: 1, 2: 1}
        assert not rep.hypotheses_ok

    def test_loops_generate_torus_homology(self, torus):
        rep = trace_geodesic_loops(torus)
        assert loops_generate_h1(torus, rep.loops)


class TestCrossingLoops:
    """Three short typed loops and one long untyped loop meeting them."""

    def test_census(self, crossing):
        rep = trace_geodesic_loops(crossing)
        got = sorted((lp.type is None, lp.undirected_length) for lp in rep.loops)
        assert got == [(False, 2), (False, 2), (False, 2), (True, 6)]
        assert rep.per_type_counts == {1: 1, None: 1, 3: 1, 5: 1}
        assert rep.odd_loops == []

    def test_pairwise_counts(self, crossing):
        rep = trace_geodesic_loops(crossing)
        assert rep.pairwise_intersections == {(0, 1): 2, (1, 2): 2, (1, 3): 2}

    def test_crossing_defeats_hypotheses(self, crossing):
        rep = trace_geodesic_loops(crossing)
        assert not any(lp.degenerate for lp in rep.loops)
        assert not rep.hypotheses_ok


class TestTwelveGonLoops:
    def test_census(self, twelve_gon):
        rep = trace_geodesic_loops(twelve_gon)
        lengths = sorted(lp.undirected_length for lp in rep.loops)
        assert lengths == [1, 1, 4]
        assert rep.odd_loops == [1, 2]

    def test_vertex_sharing(self, twelve_gon):
        rep = trace_geodesic_loops(twelve_gon)
        assert pairwise_intersections(twelve_gon, rep.loops) == {(0, 1): 1, (0, 2): 1}


def _dense_pairwise(cx, loops):
    """The quadratic oracle: intersect the vertex sets of every pair of
    loops, read with the checked ``tail_vertex``, and keep the nonzero counts."""
    vsets = [{cx.tail_vertex(d) for d in lp.directed_edges} for lp in loops]
    out = {}
    for i, j in itertools.combinations(range(len(loops)), 2):
        n = len(vsets[i] & vsets[j])
        if n:
            out[(i, j)] = n
    return out


def _assert_matches_dense(cx):
    rep = trace_geodesic_loops(cx)
    dense = _dense_pairwise(cx, rep.loops)
    assert rep.pairwise_intersections == dense
    assert pairwise_intersections(cx, rep.loops) == dense
    # keyed by position in the argument, not by loop_id
    flipped = rep.loops[::-1]
    assert pairwise_intersections(cx, flipped) == _dense_pairwise(cx, flipped)
    assert rep.hypotheses_ok == (
        not rep.odd_loops
        and not any(lp.degenerate for lp in rep.loops)
        and all(n <= 1 for n in dense.values())
    )


class TestPairwiseAgainstDense:
    """Vertex-incidence counting agrees with pairwise vertex-set intersection."""

    @pytest.mark.parametrize(
        "name", ["torus", "crossing", "twelve_gon", "pillowcase", "block_p6_g2", "hex4"]
    )
    def test_fixtures(self, request, name):
        _assert_matches_dense(request.getfixturevalue(name))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_block_tessellation(6, 3),
            lambda: build_block_tessellation(8, 3),
            lambda: build_block_tessellation(10, 4),
            lambda: build_block_tessellation(6, 65),
            lambda: subdivide_two(build_rect_tessellation(8, 3, 2), axis=1)[0],
            lambda: subdivide_two(build_rect_tessellation(8, 64, 2), axis=1)[0],
            lambda: subdivide_four(build_rect_tessellation(12, 3, 3), axis=1)[0],
            lambda: subdivide_four(build_rect_tessellation(12, 8, 8), axis=1)[0],
        ],
        ids=["block-6-3", "block-8-3", "block-10-4", "block-6-65",
             "subdiv2-24", "subdiv2-256", "subdiv4-36", "subdiv4-256"],
    )
    def test_builder_outputs(self, build):
        cx = build()
        assert cx.num_faces <= 256
        _assert_matches_dense(cx)


class TestDegenerateLoops:
    def test_pillowcase_round_trips_are_degenerate(self, pillowcase):
        rep = trace_geodesic_loops(pillowcase)
        assert rep.loops
        assert all(lp.degenerate for lp in rep.loops)
        assert not rep.hypotheses_ok

    def test_degenerate_cycle_repeats_an_edge(self, pillowcase):
        rep = trace_geodesic_loops(pillowcase)
        lp = rep.loops[0]
        assert len({e for e, _ in lp.directed_edges}) < len(lp.directed_edges)


class TestBlockLoops:
    def test_one_even_digon_per_type(self, block_p6_g2):
        rep = trace_geodesic_loops(block_p6_g2)
        census = sorted((lp.type, lp.undirected_length) for lp in rep.loops)
        assert census == [(t, 2) for t in range(1, 7)]
        assert rep.odd_loops == []
        assert rep.hypotheses_ok

    def test_loops_are_listed_by_id(self, block_p6_g2):
        rep = trace_geodesic_loops(block_p6_g2)
        assert [lp.loop_id for lp in rep.loops] == list(range(len(rep.loops)))


class TestCycleSpace:
    def test_loops_and_faces_generate(self, block_p6_g2):
        rep = trace_geodesic_loops(block_p6_g2)
        assert loops_generate_h1(block_p6_g2, rep.loops)

    def test_faces_alone_do_not_generate(self, block_p6_g2):
        assert not loops_generate_h1(block_p6_g2, [])

    def test_single_loop_does_not_generate(self, block_p6_g2):
        rep = trace_geodesic_loops(block_p6_g2)
        assert not loops_generate_h1(block_p6_g2, rep.loops[:1])

    def test_non_cycle_does_not_generate(self, block_p6_g2):
        # edge 0 runs between two distinct vertices, so it has a boundary
        edge = GeodesicLoop(0, 1, ((0, True),), 1, "odd", False)
        assert not loops_generate_h1(block_p6_g2, [edge])

    def test_loop_vectors_are_cycles(self, hex4):
        rep = trace_geodesic_loops(hex4)
        d2, d1 = boundary_matrices(hex4)
        assert not any(matrix_product(d1, loops_then_faces(rep.loops, d2)).entries)


# ------------------------------- tree-cotree reduction against full-matrix SNF


def _reference_betti_numbers(cx):
    """The former ``betti_numbers``: ranks from SNF of the whole d1 and d2."""
    d2, d1 = boundary_matrices(cx)
    _, r1 = smith_normal_form(d1)
    _, r2 = smith_normal_form(d2)
    return (
        cx.num_vertices - r1,
        cx.num_edges - r1 - r2,
        cx.num_faces - r2,
    )


def _reference_loops_generate_h1(cx, loops):
    """The former ``loops_generate_h1``: SNF of [loop cycles | d2] over all edges."""
    d2, d1 = boundary_matrices(cx)
    m = loops_then_faces(loops, d2)
    if any(matrix_product(d1, m).entries):
        return False
    _, r1 = smith_normal_form(d1)
    diag, rank = smith_normal_form(m)
    if rank != cx.num_edges - r1:
        return False
    return all(d in (0, 1) for d in diag)


def _loop_lists(cx, loops, seed):
    """Loop lists to compare on: all, none, seeded subsets (some with face
    boundaries added), duplicates, reversals, a doubled loop and a
    single-edge chain."""
    rng = random.Random(seed)
    edge = GeodesicLoop(0, 1, ((0, True),), 1, "odd", False)
    faces = [GeodesicLoop(f.id, None, tuple((e, not rev) for e, rev in f.sides),
                          cx.p, "even", False)
             for f in cx.faces]
    reverse = [
        lp._replace(
            directed_edges=tuple((e, not fwd) for e, fwd in lp.directed_edges[::-1])
        )
        for lp in loops
    ]
    lists = [loops, [], [edge], loops + [edge], loops + loops, reverse, reverse[::-1]]
    if loops:
        doubled = loops[0]._replace(directed_edges=loops[0].directed_edges * 2)
        lists.append([doubled] + loops[1:])
    for _ in range(8):
        lists.append(rng.sample(loops, rng.randint(0, len(loops))))
    for _ in range(4):
        lists.append(rng.sample(loops, rng.randint(0, len(loops))) + faces)
    return lists


def _assert_homology_matches_reference(cx, seed=0):
    """Both homology checks agree with the former bodies; returns the
    ``loops_generate_h1`` verdicts seen."""
    assert betti_numbers(cx) == _reference_betti_numbers(cx)
    verdicts = []
    for loops in _loop_lists(cx, list(trace_geodesic_loops(cx).loops), seed):
        got = loops_generate_h1(cx, loops)
        assert got == _reference_loops_generate_h1(cx, loops), [
            lp.directed_edges for lp in loops
        ]
        verdicts.append(got)
    return verdicts


class TestForeignLoops:
    """Loops traced on another complex name the directed edge it lacks."""

    LOOPS = trace_geodesic_loops(build_block_tessellation(6, 5)).loops

    def test_vertex_ids(self, block_p6_g2):
        with pytest.raises(ValueError) as info:
            self.LOOPS[-1].vertex_ids(block_p6_g2)
        assert str(info.value) == "(46, True) is not a directed edge of the complex"

    @pytest.mark.parametrize("check", [pairwise_intersections, loops_generate_h1])
    def test_whole_loop_lists(self, block_p6_g2, check):
        with pytest.raises(ValueError) as info:
            check(block_p6_g2, self.LOOPS)
        assert str(info.value) == "(12, True) is not a directed edge of the complex"

    @pytest.mark.parametrize(
        "dedge",
        [(1.0, True), (True, True), ("a", True), (0, "x"), (-1, False), (12, False),
         (0, 1), (0, 0), (0, 1.0)],
    )
    @pytest.mark.parametrize(
        "check",
        [lambda cx, lp: lp.vertex_ids(cx), lambda cx, lp: pairwise_intersections(cx, [lp]),
         lambda cx, lp: loops_generate_h1(cx, [lp])],
        ids=["vertex_ids", "pairwise_intersections", "loops_generate_h1"],
    )
    def test_malformed_directed_edge(self, block_p6_g2, check, dedge):
        """An edge id that is not an int of the complex, or a sense that is
        not a bool, is named, after the directed edges before it."""
        lp = GeodesicLoop(0, None, ((0, True), dedge, (0, False)), 2, "even", False)
        with pytest.raises(ValueError) as info:
            check(block_p6_g2, lp)
        assert str(info.value) == f"{dedge!r} is not a directed edge of the complex"


class TestHomologyAgainstReference:
    @pytest.mark.parametrize(
        "make",
        [make_torus, make_pillowcase, make_crossing, make_twelve_gon,
         make_octagon, make_disconnected],
    )
    def test_hand_built(self, make):
        _assert_homology_matches_reference(make())

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_block_tessellation(6, 9),
            lambda: build_block_tessellation(6, 33),
            lambda: subdivide_two(build_rect_tessellation(8, 15, 2), axis=1)[0],
            lambda: subdivide_four(build_rect_tessellation(12, 3, 5), axis=1)[0],
        ],
        ids=["block-6-9", "block-6-33", "subdiv2-60", "subdiv4-60"],
    )
    def test_workload_shapes(self, build):
        _assert_homology_matches_reference(build(), seed=1)

    def test_builder_fixtures_both_verdicts(self, request):
        verdicts = []
        for seed, name in enumerate(
            ["block_p6_g2", "block_p6_g3", "block_p8_g3", "block_p10_g4", "rect_p8_1x2",
             "rect_p8_3x2", "rect_p12_3x3", "hex4", "hex36"]
        ):
            verdicts += _assert_homology_matches_reference(request.getfixturevalue(name), seed)
        # the seeded subsets include non-generating loop lists, not only the full one
        assert verdicts.count(False) > 20 and verdicts.count(True) > 20

    def test_doubled_loop_has_index_two(self, block_p6_g2):
        # a basis of H1 with one loop doubled: full rank, invariant factor 2
        loops = trace_geodesic_loops(block_p6_g2).loops
        basis = next(list(c) for c in itertools.combinations(loops, 4)
                     if _reference_loops_generate_h1(block_p6_g2, c))
        doubled = basis[0]._replace(directed_edges=basis[0].directed_edges * 2)
        assert loops_generate_h1(block_p6_g2, basis)
        assert not loops_generate_h1(block_p6_g2, [doubled] + basis[1:])
        assert not _reference_loops_generate_h1(block_p6_g2, [doubled] + basis[1:])

    @pytest.mark.parametrize("make", [make_open_square, make_same_sense])
    def test_open_complex_raises_the_same_error(self, make):
        cx = make()
        errors = []
        for fn, args in [
            (betti_numbers, ()),
            (_reference_betti_numbers, ()),
            (loops_generate_h1, ([],)),
            (_reference_loops_generate_h1, ([],)),
        ]:
            with pytest.raises(ValueError) as info:
                fn(cx, *args)
            errors.append((type(info.value), str(info.value)))
        assert errors == [(ValueError, "vertex structure requires a closed complex")] * 4


@given(side_pairing_complexes(), st.integers(0, 2**16))
@settings(max_examples=100, deadline=None)
def test_homology_matches_reference_on_side_pairings(cx, seed):
    _assert_homology_matches_reference(cx, seed)


def test_h1_runs_smith_normal_form_on_loop_coordinates_alone(monkeypatch, block_p6_g2):
    import fqsurf.loops

    shapes = []

    def counting(m):
        shapes.append((m.rows, m.cols))
        return smith_normal_form(m)

    monkeypatch.setattr(fqsurf.loops, "smith_normal_form", counting)
    loops = trace_geodesic_loops(block_p6_g2).loops
    assert loops_generate_h1(block_p6_g2, loops)
    assert shapes == [(4, len(loops))]


class TestFaceOrientations:
    def test_block_dual_two_colors(self, block_p6_g2):
        orient = assign_face_orientations(block_p6_g2)
        assert orient.bipartite
        assert set(orient.colors) == set(range(4))
        from fqsurf.surface_complex import dual_graph

        for a, b, _e in dual_graph(block_p6_g2).edges:
            assert orient.colors[a] != orient.colors[b]

    def test_self_adjacent_face_is_odd(self):
        orient = assign_face_orientations(make_torus())
        assert not orient.bipartite
        assert orient.odd_cycle == [0]

    def test_first_self_adjacency_wins_in_disconnected_dual(self):
        orient = assign_face_orientations(make_disconnected())
        assert not orient.bipartite
        assert orient.odd_cycle == [0]

    def test_pillowcase_dual_is_an_even_path(self):
        orient = assign_face_orientations(make_pillowcase())
        assert orient.bipartite
        assert orient.colors[0] != orient.colors[1]


class TestLoopReportSerialization:
    def test_shape_and_untyped_key(self, crossing):
        rep = trace_geodesic_loops(crossing)
        doc = loop_report_to_dict(rep)
        assert doc["format"] == "fq-loops/1"
        assert doc["per_type_counts"]["untyped"] == 1
        assert doc["hypotheses_ok"] is False
        assert {e["a"] for e in doc["intersections"]}.issubset({0, 1, 2})
        assert all(e["vertices"] for e in doc["intersections"])

    def test_deterministic(self, block_p6_g2):
        a = canonical_json(loop_report_to_dict(trace_geodesic_loops(block_p6_g2)))
        b = canonical_json(loop_report_to_dict(trace_geodesic_loops(block_p6_g2)))
        assert a == b


# ---------------------------------------------------------------- properties

MATCHINGS = [
    [(0, 1), (2, 3)],
    [(0, 2), (1, 3)],
    [(0, 3), (1, 2)],
]


@st.composite
def closed_complexes(draw):
    p = draw(st.sampled_from([6, 8]))
    chir = tuple(draw(st.sampled_from(["ccw", "cw"])) for _ in range(4))
    combo = draw(st.lists(st.sampled_from(range(3)), min_size=p, max_size=p))
    return complex_from_matchings(p, chir, [MATCHINGS[c] for c in combo])


@functools.lru_cache(maxsize=None)
def _right_angled_pairs(p):
    """All matching recipes whose complex has every vertex of degree 4.

    Only balanced chirality patterns (two of each hand) can produce one,
    and adjacent positions must use different matchings, which keeps the
    search space small enough to enumerate outright.
    """
    pairs = []
    for chir in sorted(set(itertools.permutations(["ccw", "ccw", "cw", "cw"]))):
        for combo in itertools.product(range(3), repeat=p):
            if any(combo[k] == combo[(k + 1) % p] for k in range(p)):
                continue
            cx = complex_from_matchings(p, chir, [MATCHINGS[c] for c in combo])
            if all(len(cx.rotation(v)) == 4 for v in range(cx.num_vertices)):
                pairs.append((chir, combo))
    return tuple(pairs)


@st.composite
def right_angled_complexes(draw):
    p = draw(st.sampled_from([6, 8]))
    chir, combo = draw(st.sampled_from(_right_angled_pairs(p)))
    return complex_from_matchings(p, chir, [MATCHINGS[c] for c in combo])


@given(right_angled_complexes())
@settings(max_examples=50, deadline=None)
def test_loops_partition_edges(cx):
    rep = trace_geodesic_loops(cx)
    covered = []
    for lp in rep.loops:
        covered.extend({e for e, _ in lp.directed_edges})
    assert sorted(covered) == list(range(cx.num_edges))
    if not any(lp.degenerate for lp in rep.loops):
        assert sum(lp.undirected_length for lp in rep.loops) == cx.num_edges


@given(closed_complexes())
@settings(max_examples=50, deadline=None)
def test_loops_really_go_straight(cx):
    rep = trace_geodesic_loops(cx)
    for lp in rep.loops:
        n = len(lp.directed_edges)
        for k, d in enumerate(lp.directed_edges):
            assert cx.straight_continuation(d) == lp.directed_edges[(k + 1) % n]


@given(closed_complexes())
@settings(max_examples=50, deadline=None)
def test_parity_field_matches_length(cx):
    rep = trace_geodesic_loops(cx)
    for lp in rep.loops:
        assert lp.parity == ("odd" if lp.undirected_length % 2 else "even")
    assert rep.odd_loops == [lp.loop_id for lp in rep.loops if lp.parity == "odd"]


@given(right_angled_complexes())
@settings(max_examples=30, deadline=None)
def test_odd_loop_forces_odd_dual_cycle(cx):
    """An odd geodesic loop always obstructs 2-coloring the dual.

    (The converse needs the loops to span homology, so it is checked on the
    curated fixtures rather than on arbitrary random complexes.)  Whenever
    the dual is not bipartite, the witness is a closed dual walk of odd
    length: consecutive faces, the last and the first included, share a
    dual edge.
    """
    rep = trace_geodesic_loops(cx)
    orient = assign_face_orientations(cx)
    if rep.odd_loops and not any(lp.degenerate for lp in rep.loops):
        assert not orient.bipartite
    if orient.bipartite:
        return
    cycle = orient.odd_cycle
    assert len(cycle) % 2 == 1
    adjacent = {frozenset((a, b)) for a, b, _e in dual_graph(cx).edges}
    for fa, fb in zip(cycle, cycle[1:] + cycle[:1]):
        assert frozenset((fa, fb)) in adjacent


@given(closed_complexes())
@settings(max_examples=50, deadline=None)
def test_pairwise_matches_dense_on_closed_complexes(cx):
    _assert_matches_dense(cx)


@given(right_angled_complexes())
@settings(max_examples=50, deadline=None)
def test_pairwise_matches_dense_on_right_angled_complexes(cx):
    _assert_matches_dense(cx)


@given(closed_complexes(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_homology_matches_reference_on_closed_complexes(cx, seed):
    _assert_homology_matches_reference(cx, seed)


@given(right_angled_complexes(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_homology_matches_reference_on_right_angled_complexes(cx, seed):
    _assert_homology_matches_reference(cx, seed)


@given(matchings_complexes(), st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_homology_matches_reference_on_matchings_complexes(cx, seed):
    _assert_homology_matches_reference(cx, seed)
