"""Thickness decompositions, local groups, link checks, the decision map."""

import copy
import functools
import random
import re
from itertools import product as iter_product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsurf import lattice
from fqsurf.coloring import (
    ContradictionWitness,
    EdgeColoring,
    solve_good_coloring,
    verify_good_coloring,
)
from fqsurf.lattice import (
    CERT_FORMAT,
    D_FACTOR,
    E_FACTOR,
    LinkConditionReport,
    LinkGraph,
    NotAlternatingNonCoprime,
    NotGoodColoring,
    OddPUnsupported,
    VertexCheck,
    _edge_factor_set,
    alternating_noncoprime,
    assign_groups,
    build_certificate,
    build_link_graph,
    _type_factor,
    decide,
    group_order,
    loop_obstructions,
    symmetric_axes,
    symmetry_closure,
    verdict_to_dict,
    verify_link_conditions,
)
from fqsurf.loops import _dart_cycles, trace_geodesic_loops
from fqsurf.surface_complex import build_complex, canonical_json
from fqsurf.tessellation import (
    NonIntegralFaceCount,
    build_block_tessellation,
    build_rect_tessellation,
    complex_from_matchings,
    face_count,
    is_symmetric,
)

from conftest import make_torus
from test_fast_paths import built_complexes
from test_loops import MATCHINGS, _right_angled_pairs

Q6 = (2, 3, 2, 3, 2, 3)
Q8 = (3, 2, 9, 2, 3, 2, 9, 2)
Q12 = (2,) * 12


@pytest.fixture(scope="module")
def block_assignment(block_p6_g2):
    coloring = solve_good_coloring(block_p6_g2)
    return assign_groups(block_p6_g2, coloring, Q6)


class TestAlternatingDecomposition:
    def test_even_p_classes(self):
        deco = alternating_noncoprime(Q6)
        assert (deco.d, deco.e) == (2, 3)
        assert deco.reduced == (1, 1, 1, 1, 1, 1)

    def test_reduction_divides_out_the_gcds(self):
        deco = alternating_noncoprime((4, 6, 2, 6, 4, 6))
        assert (deco.d, deco.e) == (2, 6)
        assert deco.reduced == (2, 1, 1, 1, 2, 1)

    def test_coprime_class_fails(self):
        assert alternating_noncoprime((2, 3, 3, 2, 5, 7)) is None

    @pytest.mark.parametrize("q", [(), (2,), (3, 2, 4, 2, 4), (2,) * 7])
    def test_empty_or_odd_length_has_none(self, q):
        assert alternating_noncoprime(q) is None

    @pytest.mark.parametrize("q", [(2.9, 3, 2, 3, 2, 3), (2, 3, True, 3, 2, 3)])
    def test_non_integer_entry_rejected(self, q):
        with pytest.raises(ValueError, match="q entry must be an integer"):
            alternating_noncoprime(q)

    @given(st.lists(st.integers(2, 12), min_size=6, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_reduced_times_gcd_rebuilds_q(self, q):
        deco = alternating_noncoprime(tuple(q))
        if deco is None:
            return
        scale = [deco.d, deco.e] * 3
        assert [r * s for r, s in zip(deco.reduced, scale)] == q
        assert deco.d >= 2 and deco.e >= 2


class TestSymmetricAxes:
    def test_two_fold_axes(self):
        assert sorted(symmetric_axes(Q8, 2)) == [1, 3, 5, 7]

    def test_constant_sequence_has_all_axes(self):
        assert sorted(symmetric_axes(Q12, 4)) == list(range(1, 13))

    def test_asymmetric_sequences(self):
        assert symmetric_axes((2, 3, 4, 2, 2, 2, 2, 2), 2) == set()
        assert symmetric_axes((2, 2, 3, 2, 2, 4, 2, 2), 2) == set()

    def test_fourfold_needs_divisible_p(self):
        from fqsurf.tessellation import BadDivisibility

        with pytest.raises(BadDivisibility):
            symmetric_axes((2,) * 6, 4)

    @pytest.mark.parametrize("q", [Q8, ()])
    @pytest.mark.parametrize("pieces", [3, "two", 2.0, True])
    def test_other_pieces_rejected(self, q, pieces):
        with pytest.raises(ValueError, match=re.escape(f"pieces must be 2 or 4, got {pieces!r}")):
            symmetric_axes(q, pieces)

    @pytest.mark.parametrize(
        "q", [(2.5, 3, 2, 3, 2.5, 3, 2, 3), (2, 3, 2, True, 2, 3, 2, True)]
    )
    def test_non_integer_entry_rejected(self, q):
        with pytest.raises(ValueError, match="q entry must be an integer"):
            symmetric_axes(q, 2)

    @given(st.lists(st.integers(2, 9), min_size=8, max_size=8), st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_axis_means_palindrome(self, q, m):
        q = tuple(q)
        axes = symmetric_axes(q, 2)
        mirrored = all(
            q[(m - 1 + i) % 8] == q[(m - 1 - i) % 8] for i in range(1, 5)
        )
        assert (m in axes) == mirrored


class TestAssignGroups:
    def test_certified(self, block_assignment):
        assert block_assignment.certified
        assert block_assignment.coloring_ok
        assert block_assignment.face_conflicts == {}

    def test_every_vertex_passes_every_check(self, block_assignment):
        report = verify_link_conditions(block_assignment)
        assert report.ok
        assert all(c.ok for c in report.checks.values())
        assert len(report.checks) == 6
        for check in report.checks.values():
            assert check.product_ok
            assert check.intersection_ok
            assert check.index_ok

    def test_index_sums_match_the_opposite_thickness(self, block_assignment):
        for check in verify_link_conditions(block_assignment).checks.values():
            i, j = check.types
            assert check.index_sums == {i: Q6[j - 1], j: Q6[i - 1]}

    @pytest.mark.parametrize("vertex", [-1, 6, 99, True, 0.0, "0", None])
    def test_link_graph_of_a_vertex_outside_the_complex(self, block_assignment, vertex):
        assert len(block_assignment.signatures) == 6
        with pytest.raises(ValueError, match=rf"^vertex {re.escape(repr(vertex))} "
                                             r"is not an int in 0\.\.5$"):
            build_link_graph(block_assignment, vertex)

    def test_links_are_complete_bipartite(self, block_assignment, block_p6_g2):
        for v in range(block_p6_g2.num_vertices):
            link = build_link_graph(block_assignment, v)
            assert link.ok
            assert link.simple and link.complete and link.sizes_ok
            assert sorted(len(vs) for vs in link.side_vertices.values()) == [2, 3]
            assert len(link.edges) == 6

    def test_vertex_without_alternating_type_pair(self, block_p6_g2):
        # edges 0 and 2 have types 1 and 2; swapped, vertex 0 no longer alternates
        swap = {0: 2, 2: 1}
        cx = build_complex(
            6,
            [(e.id, swap.get(e.id, e.type)) for e in block_p6_g2.edges],
            [(f.id, f.chirality, f.sides) for f in block_p6_g2.faces],
        )
        coloring = EdgeColoring(colors={e.id: 0 for e in cx.edges}, base_vertex=0, seed=())
        with pytest.raises(ValueError, match=r"^vertex 0 has no alternating type pair$"):
            assign_groups(cx, coloring, Q6)

    def test_non_alternating_q_rejected(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        with pytest.raises(NotAlternatingNonCoprime):
            assign_groups(block_p6_g2, coloring, (2, 3, 3, 2, 5, 7))

    def test_partial_coloring_rejected(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        partial = EdgeColoring(
            colors={e: c for e, c in coloring.colors.items() if e != 5},
            base_vertex=0,
            seed=coloring.seed,
        )
        with pytest.raises(NotGoodColoring):
            assign_groups(block_p6_g2, partial, Q6)

    def test_coloring_of_an_unknown_edge_rejected(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        extra = EdgeColoring(
            colors={**coloring.colors, 40: 0},
            base_vertex=0,
            seed=coloring.seed,
        )
        with pytest.raises(NotGoodColoring, match="edge 40"):
            assign_groups(block_p6_g2, extra, Q6)

    @pytest.mark.parametrize(
        "keys, shown",
        [(("x", (1, 2)), "'x'"), ((100, "x", 40), "40"), (((1, 2), 0.5), "(1, 2)")],
        ids=["str-and-tuple", "ints-first", "tuple-and-float"],
    )
    def test_extra_keys_of_mixed_types_rejected(self, block_p6_g2, keys, shown):
        coloring = solve_good_coloring(block_p6_g2)
        extra = coloring._replace(colors={**coloring.colors, **dict.fromkeys(keys, 0)})
        message = f"^edge {re.escape(shown)} is colored but not in the complex$"
        with pytest.raises(NotGoodColoring, match=message):
            assign_groups(block_p6_g2, extra, Q6)
        with pytest.raises(NotGoodColoring, match=message):
            build_certificate(block_p6_g2, extra, Q6)

    @pytest.mark.parametrize("key, edge", [(3.0, 3), (True, 1)])
    def test_keys_equal_to_an_edge_id_rejected(self, block_p6_g2, key, edge):
        coloring = solve_good_coloring(block_p6_g2)
        colors = {e: c for e, c in coloring.colors.items() if e != edge}
        colors[key] = coloring.colors[edge]
        bad = coloring._replace(colors=colors)
        message = f"^edge {key!r} is colored but not in the complex$"
        with pytest.raises(NotGoodColoring, match=message):
            build_certificate(block_p6_g2, bad, Q6)

    @pytest.mark.parametrize(
        "recolor, shown",
        [({0: 2, 1: 1}, "2"), ({0: False, 1: True}, "False"), ({0: 0.0, 1: 1}, "0.0")],
        ids=["two-for-zero", "bools", "float-zero"],
    )
    def test_colors_other_than_int_zero_or_one_rejected(self, block_p6_g2, recolor, shown):
        coloring = solve_good_coloring(block_p6_g2)
        assert coloring.colors[0] == 0  # so edge 0 is the first bad one
        bad = coloring._replace(
            colors={e: recolor[c] for e, c in coloring.colors.items()}
        )
        message = f"^edge 0 has color {shown}, not 0 or 1$"
        with pytest.raises(NotGoodColoring, match=message):
            assign_groups(block_p6_g2, bad, Q6)
        with pytest.raises(NotGoodColoring, match=message):
            build_certificate(block_p6_g2, bad, Q6)

    # a bool or float base is not a vertex id, even when it equals one
    @pytest.mark.parametrize("base", [6, 1000000, -1, True, False, 0.0])
    def test_base_vertex_outside_the_complex_rejected(self, block_p6_g2, base):
        coloring = solve_good_coloring(block_p6_g2)._replace(base_vertex=base)
        with pytest.raises(NotGoodColoring, match=f"base_vertex {base} is not a vertex"):
            assign_groups(block_p6_g2, coloring, Q6)
        with pytest.raises(NotGoodColoring, match=f"base_vertex {base} is not a vertex"):
            build_certificate(block_p6_g2, coloring, Q6)

    def test_bad_coloring_is_recorded_not_raised(self, block_p6_g2):
        # all corners of the flat coloring agree; one flip makes two faces disagree
        flat = EdgeColoring(colors={e: 0 for e in range(12)}, base_vertex=0, seed=())
        coloring = solve_good_coloring(block_p6_g2)
        flipped = _flipped(coloring, {0})
        for bad, conflicts in ((flat, []), (flipped, [0, 3])):
            assignment = assign_groups(block_p6_g2, bad, Q6)
            assert not assignment.coloring_ok
            assert sorted(assignment.face_conflicts) == conflicts
            assert not assignment.certified

    def test_length_mismatch(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        with pytest.raises(ValueError):
            assign_groups(block_p6_g2, coloring, Q6[:-1])

    def test_odd_p_rejected(self):
        cx = complex_from_matchings(5, ("ccw", "cw"), [[(0, 1)]] * 5)
        flat = EdgeColoring(colors={e: 0 for e in range(5)}, base_vertex=0, seed=())
        with pytest.raises(ValueError, match="p must be even, got 5"):
            assign_groups(cx, flat, (2,) * 5)

    def test_thickness_one_rejected(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        with pytest.raises(ValueError, match="thickness entries must be at least 2"):
            assign_groups(block_p6_g2, coloring, (2, 1, 2, 3, 2, 3))

    @pytest.mark.parametrize("bad", [2.9, 2.0, "2", True])
    def test_non_integer_thickness_rejected(self, block_p6_g2, bad):
        coloring = solve_good_coloring(block_p6_g2)
        with pytest.raises(ValueError, match=f"q entry must be an integer, got {bad!r}"):
            assign_groups(block_p6_g2, coloring, (bad, 3, 2, 3, 2, 3))
        with pytest.raises(ValueError, match=f"q entry must be an integer, got {bad!r}"):
            build_certificate(block_p6_g2, coloring, (bad, 3, 2, 3, 2, 3))


class TestMutationAgreement:
    """Flipping one color must break both oracles in the same places."""

    def test_both_oracles_fail_at_the_same_vertices(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        mutated = EdgeColoring(
            colors={**coloring.colors, 0: 1 - coloring.colors[0]},
            base_vertex=coloring.base_vertex,
            seed=coloring.seed,
        )
        assignment = assign_groups(block_p6_g2, mutated, Q6)
        report = verify_link_conditions(assignment)
        assert not report.ok
        eq_fail = {v for v, c in report.checks.items() if not c.ok}
        link_fail = {
            v
            for v in range(block_p6_g2.num_vertices)
            if not build_link_graph(assignment, v).ok
        }
        assert eq_fail == link_fail
        assert eq_fail

    def test_face_conflicts_are_recorded(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        mutated = EdgeColoring(
            colors={**coloring.colors, 0: 1 - coloring.colors[0]},
            base_vertex=coloring.base_vertex,
            seed=coloring.seed,
        )
        assignment = assign_groups(block_p6_g2, mutated, Q6)
        assert assignment.face_conflicts
        assert not assignment.certified

    def test_good_colorings_have_no_face_conflicts(self, block_p6_g2):
        """Over all 2^12 colorings of the block, each that passes
        ``verify_good_coloring`` has no face whose corners disagree, and
        every other coloring but 12 has one."""
        good = conflicted = 0
        for colors in iter_product((0, 1), repeat=block_p6_g2.num_edges):
            coloring = EdgeColoring(colors=dict(enumerate(colors)), base_vertex=0, seed=())
            assignment = assign_groups(block_p6_g2, coloring, Q6)
            if verify_good_coloring(block_p6_g2, coloring)[0]:
                good += 1
                assert assignment.face_conflicts == {}, colors
            conflicted += bool(assignment.face_conflicts)
        assert (good, conflicted) == (4, 4080)


class TestCertificate:
    def test_block_certificate_shape(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        cert = build_certificate(block_p6_g2, coloring, Q6)
        assert cert["format"] == CERT_FORMAT
        assert cert["ok"] is True
        assert (cert["d"], cert["e"]) == (2, 3)
        assert len(cert["edges"]) == 12
        assert len(cert["vertices"]) == 6
        for v in cert["vertices"]:
            assert v["product_ok"] and v["intersection_ok"] and v["index_ok"]
            assert v["link_ok"]

    def test_certificate_bytes_are_stable(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        a = canonical_json(build_certificate(block_p6_g2, coloring, Q6))
        b = canonical_json(build_certificate(block_p6_g2, coloring, Q6))
        assert a == b

    def test_mutated_coloring_fails_closed(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        mutated = EdgeColoring(
            colors={**coloring.colors, 0: 1 - coloring.colors[0]},
            base_vertex=coloring.base_vertex,
            seed=coloring.seed,
        )
        cert = build_certificate(block_p6_g2, mutated, Q6)
        assert cert["ok"] is False
        assert any(not v["link_ok"] for v in cert["vertices"])


def _per_vertex_certificate(cx, coloring, q):
    """The certificate with the coset link enumerated at every vertex.

    One ``build_link_graph`` call per vertex fills each vertex's
    ``link_sides`` and ``link_ok`` and the overall ``ok``; no other field
    of the certificate involves the coset link.
    """
    assignment = assign_groups(cx, coloring, q)
    links = [build_link_graph(assignment, v) for v in range(cx.num_vertices)]
    doc = build_certificate(cx, coloring, q)
    for entry, link in zip(doc["vertices"], links):
        entry["link_sides"] = [len(link.side_vertices[t]) for t in link.types]
        entry["link_ok"] = link.ok
    doc["ok"] = assignment.certified and all(link.ok for link in links)
    return doc


def _assert_matches_per_vertex(cx, coloring, q):
    cert = build_certificate(cx, coloring, q)
    assert canonical_json(cert) == canonical_json(
        _per_vertex_certificate(cx, coloring, q)
    )
    return cert


def _flipped(coloring, edges):
    return EdgeColoring(
        colors={e: c ^ (e in edges) for e, c in coloring.colors.items()},
        base_vertex=coloring.base_vertex,
        seed=coloring.seed,
    )


@functools.lru_cache(maxsize=None)
def _alternating_recipes(p):
    """Matching recipes whose complex has an alternating type pair at every
    vertex, so that groups can be assigned to it."""
    recipes = []
    for chir, combo in _right_angled_pairs(p):
        cx = complex_from_matchings(p, chir, [MATCHINGS[c] for c in combo])
        if all(cx.vertex_type_pair(v) for v in range(cx.num_vertices)):
            recipes.append((chir, combo))
    return tuple(recipes)


THIN_AND_THICK = [(2, 3), (12, 18)]


class TestCertificateAgainstPerVertexLinks:
    """build_certificate enumerates one link per local signature; its bytes
    must equal those of a certificate that enumerates every vertex."""

    @pytest.mark.parametrize("pair", THIN_AND_THICK)
    def test_hand_built_torus(self, pair):
        cx = make_torus()
        flat = EdgeColoring(colors={0: 0, 1: 0}, base_vertex=0, seed=())
        for coloring in (flat, _flipped(flat, {1})):
            _assert_matches_per_vertex(cx, coloring, pair * 2)

    @pytest.mark.parametrize("pair", THIN_AND_THICK)
    @pytest.mark.parametrize(
        "fixture", ["block_p6_g2", "block_p8_g3", "hex4", "hex36"]
    )
    def test_builder_outputs(self, request, fixture, pair):
        cx = request.getfixturevalue(fixture)
        q = pair * (cx.p // 2)
        coloring = solve_good_coloring(cx)
        assert _assert_matches_per_vertex(cx, coloring, q)["ok"] is True
        for edges in ({0}, set(range(0, cx.num_edges, 3))):
            broken = _assert_matches_per_vertex(cx, _flipped(coloring, edges), q)
            assert broken["ok"] is False
            assert not all(v["link_ok"] for v in broken["vertices"])

    def test_thick_block_genus_17(self):
        cx = build_block_tessellation(6, 17)
        coloring = solve_good_coloring(cx)
        q = (12, 18) * 3
        assert _assert_matches_per_vertex(cx, coloring, q)["ok"] is True
        broken = _assert_matches_per_vertex(cx, _flipped(coloring, {5, 40}), q)
        assert not all(v["link_ok"] for v in broken["vertices"])

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matchings_complexes(self, data):
        p = data.draw(st.sampled_from([6, 8]))
        chir, combo = data.draw(st.sampled_from(_alternating_recipes(p)))
        cx = complex_from_matchings(p, chir, [MATCHINGS[c] for c in combo])
        colors = data.draw(
            st.lists(st.integers(0, 1), min_size=cx.num_edges,
                     max_size=cx.num_edges)
        )
        coloring = EdgeColoring(colors=dict(enumerate(colors)), base_vertex=0,
                                seed=())
        pair = data.draw(st.sampled_from(THIN_AND_THICK))
        _assert_matches_per_vertex(cx, coloring, pair * (p // 2))
        _assert_matches_reference(cx, coloring, pair * (p // 2))


def _reference_link_graph(assignment, vertex):
    """The former coset-by-coset link enumeration, kept as the oracle.

    It builds every (side i, side j) pair and compares edge sets, where
    ``build_link_graph`` counts; both must return the same LinkGraph.
    """
    q = assignment.q
    (i, j), ray_factors, ray_types, sector_factors = assignment.signatures[vertex]
    universe = frozenset({D_FACTOR, E_FACTOR, _type_factor(i), _type_factor(j)})
    orders = assignment.orders

    def cosets(factors):
        absent = sorted(universe - factors)
        spaces = [range(orders[t]) for t in absent]
        return [
            tuple(zip(absent, values)) for values in iter_product(*spaces)
        ]

    ray_absent = [sorted(universe - factors) for factors in ray_factors]
    side_vertices = {i: [], j: []}
    for k in range(4):
        for coset in cosets(ray_factors[k]):
            side_vertices[ray_types[k]].append((k, coset))

    edges = []
    for k in range(4):
        k2 = (k + 1) % 4
        for coset in cosets(sector_factors[k]):
            values = dict(coset)
            a = (k, tuple((t, values.get(t, 0)) for t in ray_absent[k]))
            b = (k2, tuple((t, values.get(t, 0)) for t in ray_absent[k2]))
            edges.append((a, b) if ray_types[k] == i else (b, a))

    simple = len(edges) == len(set(edges))
    wanted = {
        (a, b)
        for a in side_vertices[i]
        for b in side_vertices[j]
    }
    complete = set(edges) == wanted
    sizes_ok = (
        len(side_vertices[i]) == q[j - 1] and len(side_vertices[j]) == q[i - 1]
    )
    return LinkGraph(
        vertex=vertex,
        types=(i, j),
        side_vertices={
            i: tuple(side_vertices[i]),
            j: tuple(side_vertices[j]),
        },
        edges=tuple(edges),
        simple=simple,
        complete=complete,
        sizes_ok=sizes_ok,
    )


def _assert_same_link(assignment, vertex):
    link = build_link_graph(assignment, vertex)
    reference = _reference_link_graph(assignment, vertex)
    for name in LinkGraph._fields:
        assert getattr(link, name) == getattr(reference, name), (vertex, name)
    assert list(link.side_vertices) == list(reference.side_vertices)
    # the side sizes and verdict a certificate reads from the coset numbers
    types, sides, _rays, _sectors, *verdict = lattice._link_cosets(assignment, vertex)
    assert types == reference.types
    assert [sides[t] for t in types] == [
        len(reference.side_vertices[t]) for t in reference.types
    ]
    assert verdict == [reference.simple, reference.complete, reference.sizes_ok]
    return link


def _with_signature(assignment, vertex, signature, **changes):
    signatures = list(assignment.signatures)
    signatures[vertex] = signature
    return assignment._replace(signatures=tuple(signatures), **changes)


def _certified_links(monkeypatch, p, q, g):
    """Every (assignment, vertex) whose link ``decide(certify=True)`` enumerates."""
    seen = []
    link_cosets = lattice._link_cosets

    def recording(assignment, vertex):
        seen.append((assignment, vertex))
        return link_cosets(assignment, vertex)

    monkeypatch.setattr(lattice, "_link_cosets", recording)
    verdict = decide(p, q, g, certify=True)
    monkeypatch.undo()
    assert verdict.outcome == "Exists" and verdict.certificate["ok"] is True
    assert seen
    return seen


# (p, thickness sequences, smallest genus) of the benchmark's families
THICK_FAMILIES = [
    (6, [(30, 42) * 3, (42, 30) * 3], 5),
    (8, [(15, 14, 45, 14) * 2, (14, 15, 14, 45) * 2], 2),
    (12, [(6, 10) * 6], 10),
]
LADDER_BASES = [
    (6, [Q6, (3, 2) * 3], 5),
    (8, [Q8, (2, 3, 2, 9) * 2], 8),
    (12, [Q12], 10),
]


class TestLinkGraphAgainstReference:
    """build_link_graph reads its verdict from coset numbers; the pair-set
    enumeration it replaced must give the same LinkGraph, and the side
    sizes and verdict that certificates read must agree with it."""

    @pytest.mark.parametrize("p, variants, g", THICK_FAMILIES + LADDER_BASES)
    def test_certified_families(self, monkeypatch, p, variants, g):
        for q in variants:
            for assignment, v in _certified_links(monkeypatch, p, q, g):
                assert _assert_same_link(assignment, v).ok

    @pytest.mark.parametrize("p, g", [(6, 2), (6, 3), (8, 3), (10, 4), (12, 5)])
    def test_one_color_flipped(self, p, g):
        cx = build_block_tessellation(p, g)
        damaged = assign_groups(cx, _flipped(solve_good_coloring(cx), {0}),
                                (2, 3) * (p // 2))
        links = [_assert_same_link(damaged, v) for v in range(cx.num_vertices)]
        assert not all(link.ok for link in links)

    @given(
        st.integers(2, 6),
        st.integers(2, 6),
        st.lists(st.integers(1, 3), min_size=6, max_size=6),
        st.sets(st.integers(0, 11), max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_alternating_q_on_block(self, block_p6_g2, d, e, scale, flips):
        q = tuple((d, e)[k % 2] * m for k, m in enumerate(scale))
        coloring = _flipped(solve_good_coloring(block_p6_g2), flips)
        assignment = assign_groups(block_p6_g2, coloring, q)
        for v in range(block_p6_g2.num_vertices):
            _assert_same_link(assignment, v)

    def test_rays_that_do_not_alternate(self, block_assignment):
        (i, j), rays, _types, sectors = block_assignment.signatures[0]
        corrupted = _with_signature(
            block_assignment, 0, ((i, j), rays, (i, i, j, j), sectors)
        )
        link = _assert_same_link(corrupted, 0)
        # the distinct edges have the right count, so only the check that
        # each edge joins side i to side j can fail
        assert link.simple
        assert len(set(link.edges)) == len(link.side_vertices[i]) * len(
            link.side_vertices[j]
        )
        assert link.complete is False

    def test_a_sector_coset_that_repeats_a_pair(self, block_assignment):
        (i, j), _rays, types, _sectors = block_assignment.signatures[0]
        universe = frozenset({D_FACTOR, E_FACTOR, _type_factor(i), _type_factor(j)})
        # every ray has one coset; sector 0 lacks E, of order 2, which both
        # of its rays contain, so its two cosets join the same pair
        corrupted = _with_signature(
            block_assignment, 0,
            ((i, j), (universe,) * 4, types, (frozenset(),) + (universe,) * 3),
            orders={D_FACTOR: 1, E_FACTOR: 2, _type_factor(i): 1, _type_factor(j): 1},
        )
        link = _assert_same_link(corrupted, 0)
        assert len(link.edges) == 5 and len(set(link.edges)) == 4
        # the distinct edges are all the pairs, so only the link is not simple
        assert (link.simple, link.complete) == (False, True)

    def test_an_endpoint_that_is_no_ray_coset(self, block_assignment):
        (i, j), _rays, _types, _sectors = block_assignment.signatures[0]
        a_i, a_j = _type_factor(i), _type_factor(j)
        # A_i has order 0, so rays without A_i have no cosets, yet sector 0
        # contains A_i and projects onto ray 1 with A_i = 0
        rays = tuple(map(frozenset, (
            {a_i, D_FACTOR}, {D_FACTOR}, {a_j, a_i}, {a_j, a_i, D_FACTOR}
        )))
        sectors = tuple(map(frozenset, (
            {a_i, D_FACTOR, E_FACTOR}, set(), {a_i, D_FACTOR}, {a_j, E_FACTOR}
        )))
        corrupted = _with_signature(
            block_assignment, 0, ((i, j), rays, (j, i, j, i), sectors),
            orders={D_FACTOR: 1, E_FACTOR: 1, a_i: 0, a_j: 1},
        )
        link = _assert_same_link(corrupted, 0)
        sides = set(link.side_vertices[i] + link.side_vertices[j])
        assert any(a not in sides or b not in sides for a, b in link.edges)
        # every edge joins the two sides by ray type, and the distinct edges
        # have the right count, so only the enumerated-endpoint check fails
        assert len(set(link.edges)) == len(link.side_vertices[i]) * len(
            link.side_vertices[j]
        )
        assert link.complete is False


def _reference_verify_link_conditions(assignment):
    """The former per-vertex arithmetic check, kept as the oracle.

    It evaluates the products, intersections and index sums at every
    vertex, where ``verify_link_conditions`` evaluates them once per
    distinct signature; both must give the same VertexCheck at every vertex.
    """
    q = assignment.q
    checks = {}
    for v, signature in enumerate(assignment.signatures):
        (i, j), ray_factors, ray_types, sector_factors = signature
        universe = frozenset({D_FACTOR, E_FACTOR, _type_factor(i), _type_factor(j)})

        product_ok = all(
            (ray_factors[k] | ray_factors[(k + 1) % 4]) == universe
            for k in range(4)
        )
        intersection_ok = all(
            (ray_factors[k] & ray_factors[(k + 1) % 4]) == sector_factors[k]
            for k in range(4)
        )

        vertex_order = group_order(universe, assignment.orders)
        sums = {i: 0, j: 0}
        for k in range(4):
            idx = vertex_order // group_order(ray_factors[k], assignment.orders)
            sums[ray_types[k]] += idx
        expected = {i: q[j - 1], j: q[i - 1]}
        index_ok = sums == expected

        checks[v] = VertexCheck(
            vertex=v,
            types=(i, j),
            product_ok=product_ok,
            intersection_ok=intersection_ok,
            index_ok=index_ok,
            index_sums=sums,
            expected_sums=expected,
        )
    return LinkConditionReport(checks=checks)


def _reference_assign_groups(cx, coloring, q):
    """The former cell-by-cell assignment, kept as the oracle.

    Every edge builds its own factor set, every face corner intersects its
    two edge groups, and every signature re-reads the rotation and the edge
    types; input validation, the decomposition, the orders and
    ``coloring_ok`` are taken from ``assign_groups``.
    """
    fast = assign_groups(cx, coloring, q)
    edge_factors = {
        e.id: _edge_factor_set(e.type, coloring.color_of(e.id)) for e in cx.edges
    }

    face_factors = {}
    face_conflicts = {}
    for f in cx.faces:
        n = len(f.sides)
        per_corner = []
        for k in range(n):
            ea = f.sides[(k - 1) % n][0]
            eb = f.sides[k][0]
            per_corner.append(edge_factors[ea] & edge_factors[eb])
        face_factors[f.id] = per_corner[0]
        if any(c != per_corner[0] for c in per_corner):
            face_conflicts[f.id] = tuple(per_corner)

    signatures = []
    for v, orbit in enumerate(cx.vertices()):
        pair = cx.vertex_type_pair(v)
        assert pair is not None
        rays = cx.rotation(v)
        signatures.append((
            pair,
            tuple(edge_factors[e] for e, _ in rays),
            tuple(cx.edge_type(e) for e, _ in rays),
            tuple(face_factors[orbit[(k + 1) % 4][0]] for k in range(4)),
        ))

    assignment = fast._replace(
        edge_factors=edge_factors,
        face_factors=face_factors,
        face_conflicts=face_conflicts,
        signatures=tuple(signatures),
    )
    report = _reference_verify_link_conditions(assignment)
    return assignment._replace(
        vertex_checks=report.checks,
        certified=assignment.coloring_ok and not face_conflicts and report.ok,
    )


def _reference_build_certificate(cx, coloring, q):
    """The former certificate body, kept as the oracle.

    It runs on the reference assignment: each vertex entry is built from
    that vertex's own VertexCheck and each edge sorts its own factors.
    """
    assignment = _reference_assign_groups(cx, coloring, q)
    checks = assignment.vertex_checks
    by_signature = {}
    links = []
    for v, signature in enumerate(assignment.signatures):
        if signature not in by_signature:
            link = build_link_graph(assignment, v)
            by_signature[signature] = (
                tuple(len(link.side_vertices[t]) for t in link.types), link.ok
            )
        links.append(by_signature[signature])
    ok = assignment.certified and all(link_ok for _, link_ok in links)
    deco = assignment.decomposition
    return {
        "format": CERT_FORMAT,
        "p": cx.p,
        "q": list(assignment.q),
        "d": deco.d,
        "e": deco.e,
        "reduced": list(deco.reduced),
        "edges": [
            {
                "id": e.id,
                "type": e.type,
                "color": coloring.color_of(e.id),
                "factors": sorted(assignment.edge_factors[e.id]),
            }
            for e in cx.edges
        ],
        "vertices": [
            {
                "id": v,
                "types": list(checks[v].types),
                "product_ok": checks[v].product_ok,
                "intersection_ok": checks[v].intersection_ok,
                "index_ok": checks[v].index_ok,
                "index_sums": {
                    str(t): s for t, s in sorted(checks[v].index_sums.items())
                },
                "link_sides": list(links[v][0]),
                "link_ok": links[v][1],
            }
            for v in range(cx.num_vertices)
        ],
        "ok": ok,
    }


ASSIGNMENT_TABLES = (
    "edge_factors", "face_factors", "face_conflicts", "signatures",
    "coloring_ok", "certified",
)


def _assert_matches_reference(cx, coloring, q):
    """Assignment tables, every VertexCheck field at every vertex and the
    certificate bytes all equal the former cell-by-cell computation."""
    fast = assign_groups(cx, coloring, q)
    ref = _reference_assign_groups(cx, coloring, q)
    for name in ASSIGNMENT_TABLES:
        assert getattr(fast, name) == getattr(ref, name), name
    assert list(fast.vertex_checks) == list(ref.vertex_checks)
    for v, check in fast.vertex_checks.items():
        expected = ref.vertex_checks[v]
        for name in VertexCheck._fields:
            assert getattr(check, name) == getattr(expected, name), (v, name)
        assert list(check.index_sums) == list(expected.index_sums)
        assert list(check.expected_sums) == list(expected.expected_sums)
    cert = build_certificate(cx, coloring, q)
    assert canonical_json(cert) == canonical_json(
        _reference_build_certificate(cx, coloring, q)
    )
    return fast, ref, cert


def _certificate_inputs(monkeypatch, p, q, g):
    """The (complex, coloring, sequence) of each certificate that
    ``decide(certify=True)`` builds."""
    seen = []

    def recording(*args):
        seen.append(args)
        return build_certificate(*args)

    monkeypatch.setattr(lattice, "build_certificate", recording)
    verdict = decide(p, q, g, certify=True)
    monkeypatch.undo()
    assert verdict.outcome == "Exists" and verdict.certificate["ok"] is True
    assert seen
    return seen


CRITERION_9_BLOCKS = [(6, 2), (6, 3), (8, 3), (10, 4), (12, 5)]


class TestLatticeAgainstReference:
    """assign_groups, verify_link_conditions and build_certificate compute
    each fact once per distinct key; the cell-by-cell bodies they replaced
    must give the same tables, the same VertexChecks and the same bytes."""

    @pytest.mark.parametrize("p, variants, g", LADDER_BASES + THICK_FAMILIES)
    def test_certified_families(self, monkeypatch, p, variants, g):
        for q in variants:
            for cx, coloring, q_cx in _certificate_inputs(monkeypatch, p, q, g):
                fast, _ref, cert = _assert_matches_reference(cx, coloring, q_cx)
                assert fast.certified and cert["ok"] is True

    @pytest.mark.parametrize("p, g", CRITERION_9_BLOCKS)
    def test_one_color_flipped(self, p, g):
        cx = build_block_tessellation(p, g)
        q = (2, 3) * (p // 2)
        damaged = _flipped(solve_good_coloring(cx), {0})
        fast, ref, cert = _assert_matches_reference(cx, damaged, q)
        failing = [v for v, c in verify_link_conditions(fast).checks.items() if not c.ok]
        assert failing
        reference = _reference_verify_link_conditions(ref)
        assert failing == [v for v, c in reference.checks.items() if not c.ok]
        assert failing == [e["id"] for e in cert["vertices"] if not (
            e["product_ok"] and e["intersection_ok"] and e["index_ok"])]
        assert cert["ok"] is False


class TestGoodColoringsHaveNoFaceConflicts:
    """A good coloring gives every face one corner group: the same-parity
    sides of a face share one color (the consistency condition), and one
    color per parity class is exactly what makes the corners agree."""

    @pytest.mark.parametrize("p", [6, 8, 10, 12])
    def test_corners_agree_exactly_when_each_parity_class_has_one_color(self, p):
        """Every coloring of one face whose side k has type k+1; corner k
        lies between sides k-1 and k."""
        agreeing = 0
        for colors in iter_product((0, 1), repeat=p):
            sets = [_edge_factor_set(k + 1, c) for k, c in enumerate(colors)]
            corners = {a & b for a, b in zip(sets[-1:] + sets[:-1], sets)}
            one_per_class = len(set(colors[0::2])) == len(set(colors[1::2])) == 1
            assert (len(corners) == 1) == one_per_class, colors
            agreeing += len(corners) == 1
        assert agreeing == 4

    @staticmethod
    def _assert_sides_k_and_k2_hang_off_one_loop(cx, coloring, q):
        """Sides k and k+2 of each face are the hanging edges on one side of
        side k+1 at its two ends, at consecutive passages of the loop along
        side k+1, so the good coloring gives them one color."""
        assert verify_good_coloring(cx, coloring)[0]
        tables = cx._derive()
        passages = {}  # edge id -> (previous dart, dart) of its loop
        for cycle in _dart_cycles(cx, trace_geodesic_loops(cx).loops):
            for before, d in zip(cycle[-1:] + cycle[:-1], cycle):
                assert d >> 1 not in passages
                passages[d >> 1] = (before, d)
        assert len(passages) == cx.num_edges
        p = cx.p
        colors = coloring.colors
        for f in range(cx.num_faces):
            edges = [d >> 1 for d in cx._side[p * f:p * f + p]]
            types = [cx._edge_types[e] for e in edges]
            # side types run round the face, as in the single-face test
            assert {(b - a) % p for a, b in zip(types, types[1:] + types[:1])} in ({1}, {p - 1})
            for k in range(p):
                outer = sorted((edges[k], edges[(k + 2) % p]))
                before, d = passages[edges[(k + 1) % p]]
                assert outer in (
                    sorted((tables.left[before], tables.left[d])),
                    sorted((tables.right[before], tables.right[d])),
                ), (f, k)
                assert colors[outer[0]] == colors[outer[1]], (f, k)
        assert assign_groups(cx, coloring, q).face_conflicts == {}

    @pytest.mark.parametrize("p, variants, g", LADDER_BASES)
    def test_ladder_bases(self, monkeypatch, p, variants, g):
        for q in variants:
            for cx, coloring, q_cx in _certificate_inputs(monkeypatch, p, q, g):
                self._assert_sides_k_and_k2_hang_off_one_loop(cx, coloring, q_cx)

    @given(built_complexes())
    @settings(max_examples=20, deadline=None)
    def test_built_complexes(self, cx):
        coloring = solve_good_coloring(cx)
        self._assert_sides_k_and_k2_hang_off_one_loop(cx, coloring, (2, 4) * (cx.p // 2))


def _containers(doc):
    """The ids of every list and dict inside a document, repeats kept."""
    out = []
    stack = [doc]
    while stack:
        x = stack.pop()
        if isinstance(x, (list, dict)):
            out.append(id(x))
            stack.extend(x.values() if isinstance(x, dict) else x)
    return out


class TestNoSharedContainers:
    """Entries built from one record per signature or factor set must not
    share a mutable object with each other or with another call's."""

    @pytest.fixture(scope="class")
    def block(self):
        cx = build_block_tessellation(6, 5)
        return cx, solve_good_coloring(cx), Q6

    def test_mutating_one_entry_leaves_the_others(self, block):
        cx, coloring, q = block
        cert = build_certificate(cx, coloring, q)
        pristine = copy.deepcopy(cert)
        # mutate a vertex and an edge whose record other entries share
        signatures = assign_groups(cx, coloring, q).signatures
        v = next(v for v, sig in enumerate(signatures) if signatures.count(sig) > 1)
        factors = [entry["factors"] for entry in cert["edges"]]
        e = next(e for e, names in enumerate(factors) if factors.count(names) > 1)

        vertex, edge = cert["vertices"][v], cert["edges"][e]
        vertex["types"].append(0)
        vertex["index_sums"]["0"] = 0
        vertex["link_sides"].append(0)
        edge["factors"].append("Z")
        for key, k in (("vertices", v), ("edges", e)):
            assert cert[key][:k] + cert[key][k + 1:] == (
                pristine[key][:k] + pristine[key][k + 1:]
            )

        again = build_certificate(cx, coloring, q)
        assert again == pristine
        assert not set(_containers(again)) & set(_containers(cert))

    def test_every_container_appears_once(self, block):
        ids = _containers(build_certificate(*block))
        assert len(ids) == len(set(ids))

    def test_mutating_one_vertex_check(self, block):
        assignment = assign_groups(*block)
        checks = assignment.vertex_checks
        signatures = assignment.signatures
        v = next(v for v, sig in enumerate(signatures) if signatures.count(sig) > 1)
        pristine = copy.deepcopy(checks)
        i, _j = checks[v].types
        checks[v].index_sums[i] += 1
        checks[v].expected_sums[i] += 1
        assert all(checks[u] == pristine[u] for u in checks if u != v)


class TestLoopObstructions:
    def test_odd_loops_pin_reflections(self, rect_p8_1x2):
        assert loop_obstructions(trace_geodesic_loops(rect_p8_1x2)) == [1]

    def test_no_odd_loops_no_obstructions(self, block_p6_g2):
        assert loop_obstructions(trace_geodesic_loops(block_p6_g2)) == []


# (p, pieces, genus) of every Subdiv2 and Subdiv4 rung of the certify_ladder
# benchmark workload
LADDER_SUBDIV_BASES = [(8, 2, g) for g in (8, 16, 32, 64, 128, 256)] + [
    (12, 4, g) for g in (10, 16, 28, 46, 82, 136)
]


@pytest.mark.parametrize(
    "p, pieces, genus", LADDER_SUBDIV_BASES,
    ids=[f"Subdiv{pieces}-g{g}" for _, pieces, g in LADDER_SUBDIV_BASES],
)
def test_forced_orbits_are_the_cut_symmetry(p, pieces, genus):
    """Two independent statements of the symmetry a subdivided base needs.

    Every q in {2, 3}^p is constant on the orbits of the reflections that the
    base grid's odd loops force exactly when ``is_symmetric`` accepts it at
    the cut axis 1.
    """
    F = face_count(p, genus)
    if pieces == 2:
        grid = (F // 2, 2)
    else:
        a = lattice._smallest_prime_factor(F)  # as decide picks it
        grid = (a, F // a)
    base = build_rect_tessellation(p, *grid)
    orbits = symmetry_closure(p, loop_obstructions(trace_geodesic_loops(base)))
    seen = set()
    for q in iter_product((2, 3), repeat=p):
        symmetric = is_symmetric(q, 1, pieces)
        assert _constant_on_orbits(q, orbits) == symmetric, q
        seen.add(symmetric)
    assert seen == {True, False}


def _constant_on_orbits(q, orbits):
    return all(len({q[k - 1] for k in orbit}) == 1 for orbit in orbits)


def _brute_force_orbits(p, axes):
    """Compose reflection permutations until no new one appears, then take
    the orbit of each index under every permutation found."""
    reflections = {
        tuple((2 * m - k - 1) % p + 1 for k in range(1, p + 1)) for m in axes
    }
    group = {tuple(range(1, p + 1))}
    frontier = list(group)
    while frontier:
        g = frontier.pop()
        for r in reflections:
            composed = tuple(r[g[k] - 1] for k in range(p))
            if composed not in group:
                group.add(composed)
                frontier.append(composed)
    orbits = {tuple(sorted({g[k - 1] for g in group})) for k in range(1, p + 1)}
    return tuple(sorted(orbits))


class TestSymmetryClosure:
    def test_two_reflections_on_eight(self):
        orbits = symmetry_closure(8, [1, 3])
        assert orbits == ((1, 5), (2, 4, 6, 8), (3, 7))
        assert _constant_on_orbits(Q8, orbits)
        assert not _constant_on_orbits((3, 2, 9, 2, 4, 2, 9, 2), orbits)

    def test_three_reflections_on_twelve(self):
        orbits = symmetry_closure(12, [1, 4, 5])
        assert orbits == ((1, 3, 5, 7, 9, 11), (2, 4, 6, 8, 10, 12))

    @given(st.integers(3, 24), st.lists(st.integers(), max_size=4))
    @settings(max_examples=200, deadline=None)
    def test_matches_the_brute_force_closure(self, p, axes):
        assert symmetry_closure(p, axes) == _brute_force_orbits(p, axes)

    @pytest.mark.parametrize(
        "p,axes,name",
        [
            (8, [1.5], "axis"),
            (8, [True], "axis"),
            (8, [1, False], "axis"),
            (8.0, [1], "p"),
            (True, [1], "p"),
            (0, [1], "p"),
            (-4, [], "p"),
        ],
    )
    def test_rejects_a_non_int_or_a_p_below_one(self, p, axes, name):
        with pytest.raises(ValueError, match=f"^{name} must be"):
            symmetry_closure(p, axes)


class TestDecide:
    def test_block_instance(self):
        v = decide(6, Q6, 2)
        assert (v.outcome, v.method) == ("Exists", "Block")
        assert v.certificate is None

    def test_halving_instance(self):
        v = decide(8, Q8, 2)
        assert (v.outcome, v.method) == ("Exists", "Subdiv2")

    def test_quartering_instance(self):
        v = decide(12, Q12, 10)
        assert (v.outcome, v.method) == ("Exists", "Subdiv4")

    def test_ruled_out_without_two_symmetry(self):
        v = decide(8, (2, 3, 4, 2, 2, 2, 2, 2), 2)
        assert (v.outcome, v.method) == ("RuledOut", "TwoSymmetry")

    def test_ruled_out_without_four_symmetry(self):
        v = decide(12, (2, 3, 4, 2, 2, 2, 2, 2, 2, 2, 2, 2), 10)
        assert (v.outcome, v.method) == ("RuledOut", "FourSymmetry")

    @pytest.mark.parametrize(
        "p,q,g",
        [
            (6, (2, 3, 4, 5, 6, 7), 2),
            (8, (3, 5, 7, 5, 3, 5, 7, 5), 2),
            (8, (4, 3, 2, 3, 4, 3, 2, 3), 2),
            (12, Q12, 2),
            (12, Q12, 6),
            (12, (3,) * 12, 10),
            (12, (2, 2, 3, 2, 3, 2, 2, 2, 3, 2, 3, 2), 10),
        ],
    )
    def test_unknown_gaps(self, p, q, g):
        v = decide(p, q, g)
        assert v.outcome == "Unknown"
        assert v.method is None

    def test_odd_p_unsupported(self):
        with pytest.raises(OddPUnsupported):
            decide(7, (2,) * 7, 2)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            decide(4, (2, 2, 2, 2), 2)
        with pytest.raises(ValueError):
            decide(6, (2,) * 5, 2)
        with pytest.raises(ValueError):
            decide(6, (2, 1, 2, 2, 2, 2), 2)
        with pytest.raises(ValueError):
            decide(6, Q6, 1)
        for bad in (6.5, 2.0, "2", True):
            for certify in (False, True):
                with pytest.raises(ValueError, match=f"genus must be an integer, got {bad!r}"):
                    decide(6, Q6, bad, certify=certify)
                with pytest.raises(ValueError, match=f"q entry must be an integer, got {bad!r}"):
                    decide(6, (2, 3, 2, 3, 2, bad), 2, certify=certify)
            with pytest.raises(ValueError, match=f"p must be an integer, got {bad!r}"):
                decide(bad, Q6, 2)
        with pytest.raises(ValueError, match="p must be an integer, got 6.0"):
            decide(6.0, Q6, 2)

    def test_non_integral_face_count_propagates(self):
        with pytest.raises(NonIntegralFaceCount):
            decide(10, (2,) * 10, 3)

    def test_certified_block(self):
        v = decide(6, Q6, 2, certify=True)
        assert v.outcome == "Exists"
        assert v.certificate["ok"] is True
        assert v.certificate["construction"]["method"] == "Block"
        assert all(vx["link_ok"] for vx in v.certificate["vertices"])

    def test_certified_halving(self):
        v = decide(8, Q8, 2, certify=True)
        cert = v.certificate
        assert v.outcome == "Exists"
        assert cert["construction"]["method"] == "Subdiv2"
        assert cert["construction"]["symmetry_axis"] == 1
        assert cert["construction"]["derived_q"] == [3, 2, 9, 2, 3, 2]
        assert cert["p"] == 6
        assert cert["ok"] is True

    def test_certified_quartering(self):
        v = decide(12, Q12, 10, certify=True)
        cert = v.certificate
        assert v.outcome == "Exists"
        assert cert["construction"]["method"] == "Subdiv4"
        assert len(cert["vertices"]) > 0
        assert cert["ok"] is True

    def test_uncolorable_construction_is_an_internal_error(self, monkeypatch):
        monkeypatch.setattr(lattice, "solve_good_coloring",
                            lambda cx, mode: ContradictionWitness(()))
        assert decide(6, Q6, 2, certify=True) == (
            "InternalError", "Block",
            "certification crashed: no good coloring on the constructed complex", None,
        )

    def test_crashed_certificate_is_an_internal_error(self, monkeypatch):
        def crash(cx, coloring, q):
            raise ValueError("boom")

        monkeypatch.setattr(lattice, "build_certificate", crash)
        assert decide(6, Q6, 2, certify=True) == (
            "InternalError", "Block", "certification crashed: boom", None
        )

    def test_failed_certificate_is_an_internal_error(self, monkeypatch):
        original = lattice.build_certificate
        failed = []

        def failing(cx, coloring, q):
            failed.append(dict(original(cx, coloring, q), ok=False))
            return failed[-1]

        monkeypatch.setattr(lattice, "build_certificate", failing)
        v = decide(6, Q6, 2, certify=True)
        assert v == ("InternalError", "Block", "certificate checks failed", failed[0])
        assert v.certificate["construction"]["method"] == "Block"

    def test_certificates_are_deterministic(self):
        a = canonical_json(verdict_to_dict(decide(6, Q6, 2, certify=True)))
        b = canonical_json(verdict_to_dict(decide(6, Q6, 2, certify=True)))
        assert a == b

    def test_random_asymmetric_sample_is_ruled_out(self):
        rng = random.Random(20260822)
        found = 0
        while found < 25:
            q = tuple(rng.randint(2, 9) for _ in range(8))
            if symmetric_axes(q, 2):
                continue
            found += 1
            v = decide(8, q, 2)
            assert (v.outcome, v.method) == ("RuledOut", "TwoSymmetry")


def _four_symmetric_sequence(p, seed):
    """A seeded q, 4-symmetric about axis 1, alternating with even d and e."""
    rng = random.Random(seed)
    half = p // 2
    d, e = rng.choice((2, 4, 6)), rng.choice((2, 4, 6))
    multipliers = [rng.randrange(1, 4) for _ in range(half)]
    return tuple(
        (d if k % 2 == 0 else e) * multipliers[min(k % half, -k % half)] for k in range(p)
    )


def _degeneracies(cx):
    """(edges whose two sides lie in one face, faces with a repeated vertex)."""
    self_glued = sum(1 for sides in cx.occurrences().values() if sides[0][0] == sides[1][0])
    repeated = sum(
        1
        for f in cx.faces
        if len({cx.tail_vertex((e, not rev)) for e, rev in f.sides}) < cx.p
    )
    return self_glued, repeated


def _certified_complexes(monkeypatch, certify):
    """Every complex ``build_certificate`` sees while ``certify()`` runs."""
    seen = []

    def recording(cx, *args):
        seen.append(cx)
        return build_certificate(cx, *args)

    monkeypatch.setattr(lattice, "build_certificate", recording)
    result = certify()
    monkeypatch.undo()
    assert seen
    return result, seen


PRIME_SWEEP = [(p, F, k) for p in (12, 20) for F in (1, 3, 5, 7, 11, 13) for k in range(2)]


class TestPrimeFaceCounts:
    """Odd prime F, and F = 1, stay Unknown, although quartering a 1×F grid
    certifies.

    The 1×F base grid is degenerate (edges glued to their own face, faces
    meeting a vertex twice); the complex the certificate is built on, the
    subdivided one, is not.
    """

    @pytest.mark.parametrize("p,F,k", PRIME_SWEEP)
    def test_prime_face_count_is_unknown_but_quarters_cleanly(self, monkeypatch, p, F, k):
        q = _four_symmetric_sequence(p, 100 * p + 10 * F + k)
        g = 1 + F * (p - 4) // 8
        axes = sorted(symmetric_axes(q, 4))
        assert axes
        v = decide(p, q, g)
        assert (v.outcome, v.method, v.reason) == ("Unknown", None, f"F={F} is not composite")
        for grid in dict.fromkeys([(1, F), (F, 1)]):
            cert, seen = _certified_complexes(
                monkeypatch, lambda: lattice._certify(p, q, g, 4, grid, axes[0])
            )
            assert cert["ok"] is True, grid
            assert [_degeneracies(cx) for cx in seen] == [(0, 0)], grid

    def test_unsubdivided_base_is_degenerate(self):
        assert _degeneracies(build_rect_tessellation(12, 1, 3)) == (9, 3)
        assert _degeneracies(build_rect_tessellation(12, 1, 1)) == (6, 1)
        assert _degeneracies(build_rect_tessellation(20, 1, 1)) == (10, 1)

    @pytest.mark.parametrize(
        "p,q,genera",
        [
            (8, Q8, (8, 16, 32, 64, 128, 256)),
            (12, Q12, (10, 16, 28, 46, 82, 136)),
        ],
        ids=["Subdiv2", "Subdiv4"],
    )
    def test_ladder_certifies_only_nondegenerate_complexes(self, monkeypatch, p, q, genera):
        for g in genera:
            v, seen = _certified_complexes(monkeypatch, lambda: decide(p, q, g, certify=True))
            assert v.outcome == "Exists" and v.certificate["ok"] is True, g
            assert [_degeneracies(cx) for cx in seen] == [(0, 0)], g
