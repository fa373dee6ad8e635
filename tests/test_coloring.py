"""Parity constraints, the two solvers, verification, serialization."""

import itertools

import pytest

from fqsurf.coloring import (
    ALTERNATING,
    CONSISTENCY,
    COLORING_FORMAT,
    ContradictionWitness,
    DegenerateLoop,
    EdgeColoring,
    ParityConstraintSystem,
    TooLargeForExhaustive,
    build_constraints,
    coloring_from_dict,
    coloring_to_dict,
    solve_good_coloring,
    verify_good_coloring,
    witness_to_dict,
)
from fqsurf.lattice import NotGoodColoring, assign_groups
from fqsurf.loops import trace_geodesic_loops
from fqsurf.surface_complex import build_complex, canonical_json
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    subdivide_four,
    subdivide_two,
)

from conftest import make_octagon


class TestConstraintSystem:
    def test_block_system_shape(self, block_p6_g2):
        system = build_constraints(
            block_p6_g2, trace_geodesic_loops(block_p6_g2)
        )
        assert len(system.variables) == 12
        assert len(system.constraints) == 18
        by_tag = {}
        for c in system.constraints:
            by_tag[c.tag] = by_tag.get(c.tag, 0) + 1
        assert by_tag == {ALTERNATING: 6, CONSISTENCY: 12}

    def test_block_has_two_components(self, block_p6_g2):
        system = build_constraints(
            block_p6_g2, trace_geodesic_loops(block_p6_g2)
        )
        comps = system.components
        assert len(comps) == 2
        assert sorted(e for comp in comps for e in comp) == list(range(12))

    def test_degenerate_loop_rejected(self, pillowcase):
        with pytest.raises(DegenerateLoop):
            build_constraints(pillowcase, trace_geodesic_loops(pillowcase))

    def test_unknown_edge_in_constraint_rejected(self):
        from fqsurf.coloring import ParityConstraint

        with pytest.raises(ValueError):
            ParityConstraintSystem(
                variables=(0, 1),
                constraints=(ParityConstraint(0, 7, 1, ALTERNATING),),
            )


def _relation_keys(cx):
    system = build_constraints(cx, trace_geodesic_loops(cx))
    return [
        (frozenset((c.edge_a, c.edge_b)), c.parity, c.tag)
        for c in system.constraints
    ]


class TestEachRelationOnce:
    """Every (unordered pair, parity, tag) relation is stated once."""

    @pytest.mark.parametrize(
        "name, solutions",
        [
            ("block_p6_g2", 4),
            ("block_p6_g3", None),
            ("block_p8_g3", 4),
            ("block_p10_g4", 4),
            ("hex4", 4),
            ("hex36", None),
            ("crossing", 4),
            ("rect_p8_1x2", None),
            ("rect_p8_3x2", None),
            ("rect_p12_3x3", None),
            ("torus", None),
            ("twelve_gon", None),
        ],
    )
    def test_fixture_relations_are_distinct(self, name, solutions, request):
        """Where the exhaustive scan runs, its count is the one pinned before
        repeated relations were dropped."""
        cx = request.getfixturevalue(name)
        keys = _relation_keys(cx)
        assert len(set(keys)) == len(keys)
        if solutions is not None:
            assert solve_good_coloring(cx, mode="exhaustive").solution_count == solutions

    @pytest.mark.parametrize(
        "build",
        [
            lambda: build_block_tessellation(6, 65),
            lambda: subdivide_two(build_rect_tessellation(8, 64, 2), axis=1)[0],
            lambda: subdivide_four(build_rect_tessellation(12, 8, 8), axis=1)[0],
        ],
        ids=["block 256", "halved 256", "quartered 256"],
    )
    def test_surface_scale_relations_are_distinct(self, build):
        keys = _relation_keys(build())
        assert len(set(keys)) == len(keys)


class TestPropagate:
    def test_block_solution_verifies(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        assert isinstance(coloring, EdgeColoring)
        assert set(coloring.colors) == set(range(12))
        ok, violations = verify_good_coloring(block_p6_g2, coloring)
        assert ok, violations

    def test_seed_is_the_base_vertex_pattern(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        assert coloring.base_vertex == 0
        assert len(coloring.seed) == 4
        assert tuple(c for _e, c in coloring.seed) == (0, 0, 1, 1)
        seed_edges = {e for e, _c in coloring.seed}
        rot_edges = {e for e, _f in block_p6_g2.rotation(0)}
        assert seed_edges == rot_edges
        assert coloring.solution_count is None

    def test_deterministic(self, block_p6_g2):
        a = solve_good_coloring(block_p6_g2)
        b = solve_good_coloring(block_p6_g2)
        assert a.colors == b.colors
        assert a.seed == b.seed

    @pytest.mark.parametrize(
        "name",
        ["rect_p8_1x2", "rect_p8_3x2", "rect_p12_3x3", "torus", "twelve_gon"],
    )
    def test_unsatisfiable_yields_witness(self, name, request):
        """The witness is a closed chain: each constraint shares a variable
        with the next, the last with the first, and the parities sum to 1."""
        witness = solve_good_coloring(request.getfixturevalue(name))
        assert isinstance(witness, ContradictionWitness)
        chain = witness.cycle
        for c, following in zip(chain, chain[1:] + chain[:1]):
            assert {c.edge_a, c.edge_b} & {following.edge_a, following.edge_b}
        assert sum(c.parity for c in chain) % 2 == 1

    def test_witness_constraints_come_from_the_system(self, rect_p8_1x2):
        system = build_constraints(
            rect_p8_1x2, trace_geodesic_loops(rect_p8_1x2)
        )
        witness = solve_good_coloring(rect_p8_1x2)
        for c in witness.cycle:
            assert c in system.constraints
        edges = {e for c in witness.cycle for e in (c.edge_a, c.edge_b)}
        assert edges <= set(range(rect_p8_1x2.num_edges))


class TestExhaustive:
    def test_block_count_is_two_to_the_components(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2, mode="exhaustive")
        assert coloring.solution_count == 4
        ok, _ = verify_good_coloring(block_p6_g2, coloring)
        assert ok

    def test_lexicographic_least_is_stable(self, block_p6_g2):
        a = solve_good_coloring(block_p6_g2, mode="exhaustive")
        b = solve_good_coloring(block_p6_g2, mode="exhaustive")
        assert a.colors == b.colors

    def test_unsatisfiable_agrees_with_propagate(self, rect_p8_1x2):
        witness = solve_good_coloring(rect_p8_1x2, mode="exhaustive")
        assert isinstance(witness, ContradictionWitness)

    def test_size_cap(self, rect_p12_3x3):
        with pytest.raises(TooLargeForExhaustive):
            solve_good_coloring(rect_p12_3x3, mode="exhaustive")

    def test_unknown_mode(self, block_p6_g2):
        with pytest.raises(ValueError):
            solve_good_coloring(block_p6_g2, mode="guess")

    @pytest.mark.parametrize(
        "name, solutions",
        [("torus", 0), ("twelve_gon", 0), ("rect_p8_1x2", 0), ("crossing", 4),
         ("block_p6_g2", 4)],
    )
    def test_matches_the_definition(self, name, solutions, request):
        """The least solution and the count are those of trying every
        assignment, in lexicographic edge-id order, against the loop walk of
        ``verify_good_coloring``, which reads no constraint system."""
        cx = request.getfixturevalue(name)
        good = []
        for colors in itertools.product((0, 1), repeat=cx.num_edges):
            candidate = EdgeColoring(colors=dict(enumerate(colors)), base_vertex=0, seed=())
            if verify_good_coloring(cx, candidate)[0]:
                good.append(candidate.colors)
        assert len(good) == solutions
        result = solve_good_coloring(cx, mode="exhaustive")
        if good:
            assert (result.colors, result.solution_count) == (good[0], len(good))
        else:
            assert isinstance(result, ContradictionWitness)

    @pytest.mark.parametrize(
        "name",
        ["block_p6_g2", "rect_p8_1x2", "hex4", "crossing", "twelve_gon", "torus"],
    )
    def test_modes_agree_on_satisfiability(self, name, request):
        cx = request.getfixturevalue(name)
        fast = solve_good_coloring(cx)
        slow = solve_good_coloring(cx, mode="exhaustive")
        assert isinstance(fast, EdgeColoring) == isinstance(slow, EdgeColoring)
        if isinstance(slow, EdgeColoring):
            assert verify_good_coloring(cx, fast)[0]
            assert verify_good_coloring(cx, slow)[0]


class TestVerification:
    def test_flipping_one_edge_breaks_its_loops(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        mutated = EdgeColoring(
            colors={**coloring.colors, 0: 1 - coloring.colors[0]},
            base_vertex=coloring.base_vertex,
            seed=coloring.seed,
        )
        ok, violations = verify_good_coloring(block_p6_g2, mutated)
        assert not ok
        assert violations
        tags = {v[0] for v in violations}
        assert tags <= {ALTERNATING, CONSISTENCY}
        touched = {v[1] for v in violations}
        report = trace_geodesic_loops(block_p6_g2)
        for loop_id in touched:
            loop = report.loops[loop_id]
            lefts_rights = set()
            for d in loop.directed_edges:
                v = block_p6_g2.head_vertex(d)
                lefts_rights.update(e for e, _f in block_p6_g2.rotation(v))
            assert 0 in {e for e, _ in loop.directed_edges} | lefts_rights

    def test_skips_degenerate_loops(self, pillowcase):
        coloring = EdgeColoring(
            colors={e: 0 for e in range(4)}, base_vertex=0, seed=()
        )
        ok, violations = verify_good_coloring(pillowcase, coloring)
        assert ok
        assert violations == []

    def test_uncolored_edge_is_named(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        colors = {e: c for e, c in coloring.colors.items() if e not in (7, 3)}
        with pytest.raises(ValueError, match="^edge 3 is not colored$"):
            verify_good_coloring(block_p6_g2, coloring._replace(colors=colors))

    @pytest.mark.parametrize("renamed", [(7, 2), (False, True)], ids=["ints", "bools"])
    def test_color_other_than_zero_or_one_is_named(self, block_p6_g2, renamed):
        """Colors that agree and differ as 0 and 1 do are still not colors."""
        coloring = solve_good_coloring(block_p6_g2)
        colors = {e: renamed[c] for e, c in coloring.colors.items()}
        shown = repr(colors[0])
        with pytest.raises(ValueError, match=f"^edge 0 has color {shown}, not 0 or 1$"):
            verify_good_coloring(block_p6_g2, coloring._replace(colors=colors))

    def test_lowest_bad_edge_is_named(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2)
        colors = {**coloring.colors, 2: None, 5: 2}
        del colors[7]
        with pytest.raises(ValueError, match="^edge 2 has color None, not 0 or 1$"):
            verify_good_coloring(block_p6_g2, coloring._replace(colors=colors))

    def test_key_outside_the_complex_is_named(self):
        cx = build_block_tessellation(6, 2)
        coloring = solve_good_coloring(cx)
        colors = {**coloring.colors, 12: 5, "x": 0}
        with pytest.raises(ValueError, match="^edge 12 is colored but not in the complex$"):
            verify_good_coloring(cx, coloring._replace(colors=colors))

    @pytest.mark.parametrize(
        "extra, dropped",
        [
            ({"x": 0, (1, 2): 1}, None),
            ({100: 0, "x": 0, 40: 1}, None),
            ({(1, 2): 0, 0.5: 1}, None),
            ({-1: 0}, None),
            ({3.0: 0}, 3),
            ({True: 1}, 1),
        ],
        ids=["str-and-tuple", "ints-first", "tuple-and-float", "negative", "float-id",
             "bool-id"],
    )
    def test_foreign_key_is_named_as_assign_groups_names_it(self, block_p6_g2, extra,
                                                             dropped):
        """The lowest int key first, else the lowest repr; a key equal to an
        edge id but not an int (3.0, True) counts, with that edge's own key gone."""
        coloring = solve_good_coloring(block_p6_g2)
        colors = {e: c for e, c in coloring.colors.items() if e != dropped}
        bad = coloring._replace(colors={**colors, **extra})
        with pytest.raises(NotGoodColoring) as expected:
            assign_groups(block_p6_g2, bad, (2, 3) * 3)
        assert str(expected.value).endswith(" is colored but not in the complex")
        with pytest.raises(ValueError) as got:
            verify_good_coloring(block_p6_g2, bad)
        assert type(got.value) is ValueError
        assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("mode", ["propagate", "exhaustive"])
def test_coloring_needs_a_base_vertex(mode):
    """A coloring records its base vertex; a complex without vertices has none."""
    with pytest.raises(ValueError, match="^the complex has no vertices"):
        solve_good_coloring(build_complex(6, [], []), mode)


def test_coloring_needs_degree_four_vertices():
    """Left and right hanging edges exist only at degree-4 vertices."""
    cx = make_octagon()
    with pytest.raises(ValueError, match="^vertex 0 has degree 8, not 4$"):
        solve_good_coloring(cx)


class TestColoringSerialization:
    def test_round_trip(self, block_p6_g2):
        coloring = solve_good_coloring(block_p6_g2, mode="exhaustive")
        doc = coloring_to_dict(coloring)
        assert doc["format"] == COLORING_FORMAT
        assert doc["satisfiable"] is True
        back = coloring_from_dict(doc)
        assert back.colors == coloring.colors
        assert back.seed == coloring.seed
        assert back.solution_count == coloring.solution_count
        assert canonical_json(coloring_to_dict(back)) == canonical_json(doc)

    def test_witness_document(self, rect_p8_1x2):
        witness = solve_good_coloring(rect_p8_1x2)
        doc = witness_to_dict(witness)
        assert doc["format"] == COLORING_FORMAT
        assert doc["satisfiable"] is False
        assert sum(c["parity"] for c in doc["witness"]) % 2 == 1

    def test_witness_document_is_not_a_coloring(self, rect_p8_1x2):
        doc = witness_to_dict(solve_good_coloring(rect_p8_1x2))
        with pytest.raises(ValueError):
            coloring_from_dict(doc)

    def test_format_guard(self):
        with pytest.raises(ValueError):
            coloring_from_dict({"format": "fq-coloring/9", "colors": []})

    @pytest.mark.parametrize("bad", [2, -1, "1", None, True, 1.0])
    def test_color_outside_zero_one_rejected(self, block_p6_g2, bad):
        doc = coloring_to_dict(solve_good_coloring(block_p6_g2))
        doc["colors"][0][1] = bad
        with pytest.raises(ValueError, match="edge 0 has color"):
            coloring_from_dict(doc)

    def test_duplicate_edge_rejected(self, block_p6_g2):
        doc = coloring_to_dict(solve_good_coloring(block_p6_g2))
        doc["colors"].append([0, 1 - doc["colors"][0][1]])
        with pytest.raises(ValueError, match="edge 0 is colored twice"):
            coloring_from_dict(doc)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda doc: doc.update(seed=[[99, 7]]), "seed edge 99 is not colored"),
            (
                lambda doc: doc.update(seed=[[e, 1 - c] for e, c in doc["seed"]]),
                "seed gives edge",
            ),
            (lambda doc: doc.update(base_vertex=-4), "base_vertex -4"),
            (lambda doc: doc.update(base_vertex="0"), "base_vertex '0'"),
            (lambda doc: doc.update(base_vertex=True), "base_vertex True"),
            (lambda doc: doc["colors"][2].__setitem__(0, 2.5), "colored edge 2.5"),
            (lambda doc: doc["colors"][2].__setitem__(0, "2"), "colored edge '2'"),
            (lambda doc: doc["seed"][2].__setitem__(0, 1.0), "seed edge 1.0"),
            (lambda doc: doc["seed"][2].__setitem__(0, "1"), "seed edge '1'"),
            (lambda doc: doc["seed"][2].__setitem__(1, True), "seed color True"),
            (lambda doc: doc.update(solution_count="many"), "solution_count 'many'"),
            (lambda doc: doc.update(solution_count=0), "solution_count 0"),
            (lambda doc: doc.update(solution_count=True), "solution_count True"),
            (lambda doc: doc.update(solution_count=2.0), "solution_count 2.0"),
            (lambda doc: doc["colors"].append(doc["colors"][0]), "edge 0 is colored twice"),
            (lambda doc: doc.update(satisfiable=False), "records a contradiction"),
            (lambda doc: doc.update(satisfiable="no"), "satisfiable 'no' is not a bool"),
            (lambda doc: doc.update(satisfiable=1), "satisfiable 1 is not a bool"),
            (lambda doc: doc.update(satisfiable=None), "satisfiable None is not a bool"),
            (lambda doc: doc["colors"].__setitem__(2, [3]), r"colors entry \[3\]"),
            (lambda doc: doc["colors"].__setitem__(2, [0, 1, 2]), r"colors entry \[0, 1, 2\]"),
            (lambda doc: doc["colors"].__setitem__(2, "01"), "colors entry '01'"),
            (lambda doc: doc.update(colors="abc"), "colors entry 'a'"),
            (lambda doc: doc["seed"].__setitem__(2, [3]), r"seed entry \[3\]"),
            (lambda doc: doc["seed"].__setitem__(2, [0, 1, 2]), r"seed entry \[0, 1, 2\]"),
            (lambda doc: doc.update(seed="x"), "seed entry 'x'"),
        ],
    )
    def test_seed_and_base_vertex_checked(self, block_p6_g2, edit, message):
        doc = coloring_to_dict(solve_good_coloring(block_p6_g2))
        edit(doc)
        with pytest.raises(ValueError, match=message) as info:
            coloring_from_dict(doc)
        assert COLORING_FORMAT in str(info.value)
