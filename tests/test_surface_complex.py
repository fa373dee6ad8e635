"""Complex construction, validation, exact linear algebra, serialization."""

import json
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fqsurf.surface_complex import (
    CCW,
    CW,
    DanglingEdgeReference,
    DuplicateId,
    Finding,
    IntegerMatrix,
    STRUCTURAL_TAGS,
    TreeCotree,
    WrongSideCount,
    betti_numbers,
    build_complex,
    canonical_json,
    complex_from_dict,
    complex_to_dict,
    dual_graph,
    smith_normal_form,
    snf_with_transforms,
    succ_type,
    tree_cotree,
    validate,
)
from fqsurf import cli
from fqsurf.coloring import solve_good_coloring, witness_to_dict
from fqsurf.lattice import build_certificate, decide, verdict_to_dict
from fqsurf.loops import loop_report_to_dict, trace_geodesic_loops
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    complex_from_matchings,
    subdivide_four,
    subdivision_map_to_dict,
)

from conftest import (
    assert_smith_transforms,
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


class TestBuildComplex:
    def test_duplicate_edge_id(self):
        with pytest.raises(DuplicateId):
            build_complex(4, [(0, 1), (0, 2)], [])

    def test_duplicate_face_id(self):
        sides = [(0, False), (1, False), (0, True), (1, True)]
        with pytest.raises(DuplicateId):
            build_complex(
                4,
                [(0, 1), (1, 2)],
                [(0, CCW, sides), (0, CCW, sides)],
            )

    def test_dangling_edge_reference(self):
        with pytest.raises(DanglingEdgeReference):
            build_complex(
                4,
                [(0, 1), (1, 2)],
                [(0, CCW, [(0, False), (1, False), (7, True), (1, True)])],
            )

    def test_wrong_side_count(self):
        with pytest.raises(WrongSideCount):
            build_complex(4, [(0, 1)], [(0, CCW, [(0, False), (0, True)])])

    def test_sparse_edge_ids_rejected(self):
        with pytest.raises(ValueError):
            build_complex(4, [(0, 1), (2, 2)], [])

    def test_sparse_face_ids_rejected(self):
        sides = [(0, False), (1, False), (0, True), (1, True)]
        with pytest.raises(ValueError):
            build_complex(4, [(0, 1), (1, 2)], [(1, CCW, sides)])

    def test_bad_chirality(self):
        with pytest.raises(ValueError):
            build_complex(
                4,
                [(0, 1), (1, 2)],
                [(0, "widdershins", [(0, False), (1, False), (0, True), (1, True)])],
            )

    def test_type_out_of_range(self):
        with pytest.raises(ValueError):
            build_complex(4, [(0, 5)], [])

    def test_tiny_polygon_rejected(self):
        with pytest.raises(ValueError):
            build_complex(2, [], [])

    @pytest.mark.parametrize(
        "p, edges, face_id, first_side",
        [
            (4.0, [(0, 1), (1, 2)], 0, 0),
            (4, [(0.0, 1), (1, 2)], 0, 0),
            (4, [(0, 1), (True, 2)], 0, 0),
            (4, [(0, 1.0), (1, 2)], 0, 0),
            (4, [(0, True), (1, 2)], 0, 0),
            (4, [(0, 1), (1, 2)], 0.0, 0),
            (4, [(0, 1), (1, 2)], False, 0),
            (4, [(0, 1), (1, 2)], 0, 0.0),
            (4, [(0, 1), (1, 2)], 0, False),
        ],
    )
    def test_non_integers_rejected(self, p, edges, face_id, first_side):
        """A float or bool id, type or p never reaches a complex (and so
        never reaches its canonical JSON)."""
        sides = [(first_side, False), (1, False), (0, True), (1, True)]
        with pytest.raises(ValueError, match="must be an integer"):
            build_complex(p, edges, [(face_id, CCW, sides)])

    @pytest.mark.parametrize(
        "sides, edge, value",
        [
            ([(0, 0), (1, "no"), (0, 1), (1, True)], 0, "0"),
            ([(0, False), (1, "no"), (0, True), (1, True)], 1, "'no'"),
            ([(0, False), (1, False), (0, 1), (1, True)], 0, "1"),
            ([(0, False), (1, 0), (0, True), (1, True)], 1, "0"),
        ],
        ids=["mixed", "string", "int-1", "int-0"],
    )
    def test_non_bool_reversed_rejected(self, sides, edge, value):
        """A side's reversed flag is stored as given, so only a bool is accepted."""
        with pytest.raises(ValueError) as info:
            build_complex(4, [(0, 1), (1, 2)], [(0, "ccw", sides)])
        assert str(info.value) == f"face 0, edge {edge}: reversed must be a bool, got {value}"


class TestTorusGeometry:
    """The one-square torus is small enough to check by hand."""

    def test_counts(self):
        cx = make_torus()
        assert (cx.num_vertices, cx.num_edges, cx.num_faces) == (1, 2, 1)

    def test_genus_one(self):
        rep = validate(make_torus())
        assert rep.euler_characteristic == 0
        assert rep.genus == 1

    def test_rotation_has_four_rays(self):
        cx = make_torus()
        rays = cx.rotation(0)
        assert len(rays) == 4
        assert sorted(rays) == [(0, False), (0, True), (1, False), (1, True)]

    def test_every_dedge_loops_back_to_itself(self):
        cx = make_torus()
        for d in [(0, True), (0, False), (1, True), (1, False)]:
            assert cx.head_vertex(d) == 0
            assert cx.tail_vertex(d) == 0
            assert cx.straight_continuation(d) == d

    def test_double_back_reverses(self):
        cx = make_torus()
        assert cx.continue_through((0, True), 0) == (0, False)

    def test_vertex_type_pair(self):
        assert make_torus().vertex_type_pair(0) == (1, 2)


class TestValidate:
    def test_open_edges_flagged(self):
        rep = validate(make_open_square())
        assert not rep.passed
        assert "Closedness" in rep.tags()
        assert not rep.structurally_ok

    def test_open_complex_has_no_genus_to_compare(self):
        rep = validate(make_open_square(), expected_genus=2)
        assert rep.genus is None
        assert rep.tags() == ["Closedness"] and len(rep.failures) == 1

    def test_same_sense_gluing_flagged(self):
        rep = validate(make_same_sense())
        assert "Closedness" in rep.tags()
        finding = next(f for f in rep.failures if f.tag == "Closedness")
        assert "same sense" in finding.detail

    def test_disconnected_flagged(self):
        rep = validate(make_disconnected())
        assert "Disconnected" in rep.tags()

    def test_empty_complex_is_disconnected_with_no_genus(self):
        rep = validate(build_complex(6, [], []), expected_genus=1)
        assert not rep.passed and not rep.structurally_ok
        assert rep.failures == [Finding("Disconnected", "the complex has no faces")]
        assert rep.genus is None

    def test_degree_two_vertices_flagged(self):
        rep = validate(make_pillowcase())
        assert "RightAngledVertex" in rep.tags()

    def test_degree_eight_vertex_flagged(self):
        rep = validate(make_octagon())
        assert rep.tags() == ["FaceLabeling", "RightAngledVertex"]
        finding = rep.failures[0]
        assert finding.tag == "RightAngledVertex"
        assert finding.detail == "vertices without exactly 4 corners: [0]"
        assert not rep.structurally_ok
        assert rep.genus == 2

    def test_genus_mismatch(self):
        rep = validate(make_torus(), expected_genus=2)
        assert "GenusMismatch" in rep.tags()
        assert validate(make_torus(), expected_genus=1).genus == 1

    def test_labeling_failures_are_not_structural(self):
        rep = validate(make_crossing())
        assert rep.tags() == ["VertexTypeAlternation"]
        assert rep.structurally_ok
        assert not rep.passed

    def test_single_face_twelve_gon(self):
        rep = validate(make_twelve_gon())
        assert rep.structurally_ok
        assert rep.genus == 2
        assert set(rep.tags()) == {"FaceLabeling", "VertexTypeAlternation"}

    def test_clean_builder_output_passes(self, block_p6_g2):
        rep = validate(block_p6_g2, expected_genus=2)
        assert rep.passed
        assert rep.tags() == []

    @pytest.mark.parametrize("genus", ["2", 2.0, True])
    def test_non_int_expected_genus_rejected(self, block_p6_g2, genus):
        with pytest.raises(ValueError, match=f"^expected genus must be an integer, "
                                             f"got {genus!r}$"):
            validate(block_p6_g2, expected_genus=genus)
        assert validate(block_p6_g2, expected_genus=2).passed

    def test_structural_tags(self):
        # closedness makes a complex oriented, so no parity of the Euler
        # characteristic is checked
        assert STRUCTURAL_TAGS == {
            "Closedness", "Disconnected", "RightAngledVertex", "GenusMismatch"
        }


def test_succ_type_wraps():
    assert succ_type(1, 6) == 2
    assert succ_type(5, 6) == 6
    assert succ_type(6, 6) == 1


class TestDualGraph:
    def test_torus_dual_is_self_loops(self):
        dg = dual_graph(make_torus())
        assert dg.nodes == (0,)
        assert dg.edges == ((0, 0, 0), (0, 0, 1))

    def test_crossing_dual_edges(self):
        dg = dual_graph(make_crossing())
        assert dg.nodes == (0, 1, 2, 3)
        # s1 at odd types, s2 at even types, repeated three times each
        assert dg.edges == (
            (0, 1, 0), (2, 3, 1), (0, 2, 2), (1, 3, 3),
            (0, 1, 4), (2, 3, 5), (0, 2, 6), (1, 3, 7),
            (0, 1, 8), (2, 3, 9), (0, 2, 10), (1, 3, 11),
        )

    def test_to_dot_mentions_every_face(self, block_p6_g2):
        dot = dual_graph(block_p6_g2).to_dot()
        assert dot.startswith("graph")
        for fid in range(block_p6_g2.num_faces):
            assert f"f{fid}" in dot


class TestSmithNormalForm:
    def test_diagonal_is_not_always_the_input_diagonal(self):
        diag, rank = smith_normal_form(IntegerMatrix([[2, 0], [0, 3]]))
        assert diag == (1, 6)
        assert rank == 2

    def test_zero_matrix(self):
        diag, rank = smith_normal_form(IntegerMatrix([[0, 0], [0, 0], [0, 0]]))
        assert diag == (0, 0)
        assert rank == 0

    def test_identity(self):
        diag, rank = smith_normal_form(IntegerMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert diag == (1, 1, 1)
        assert rank == 3

    def test_worked_example(self):
        m = IntegerMatrix([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        diag, rank = smith_normal_form(m)
        assert diag == (2, 2, 156)
        assert rank == 3

    def test_transforms_reconstruct(self):
        assert_smith_transforms(IntegerMatrix([[1, 2, 3], [4, 5, 6]]))

    @given(
        st.integers(1, 4),
        st.integers(1, 4),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_invariant_factor_properties(self, rows, cols, data):
        entries = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        m = IntegerMatrix(entries)
        diag, rank = smith_normal_form(m)
        assert len(diag) == min(rows, cols)
        assert all(d >= 0 for d in diag)
        assert rank == sum(1 for d in diag if d)
        for a, b in zip(diag, diag[1:]):
            if a and b:
                assert b % a == 0
            if a == 0:
                assert b == 0
        d = assert_smith_transforms(m)
        assert tuple(d.data[i][i] for i in range(min(rows, cols))) == diag

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_matches_sympy(self, data):
        from sympy import Matrix
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rows = data.draw(st.integers(1, 4))
        cols = data.draw(st.integers(1, 4))
        entries = data.draw(
            st.lists(
                st.lists(st.integers(-9, 9), min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
        diag, _ = smith_normal_form(IntegerMatrix(entries))
        ref = sympy_snf(Matrix(entries))
        ref_diag = tuple(abs(ref[i, i]) for i in range(min(rows, cols)))
        assert diag == ref_diag

    @given(st.permutations(list(range(4))))
    @settings(max_examples=24, deadline=None)
    def test_row_permutation_invariance(self, perm):
        base = [[2, 4, 4], [-6, 6, 12], [10, 4, 16], [0, 1, 0]]
        m = IntegerMatrix(base)
        shuffled = IntegerMatrix([base[i] for i in perm])
        assert smith_normal_form(m)[0] == smith_normal_form(shuffled)[0]


class TestMatrixInputChecks:
    @pytest.mark.parametrize(
        "data,rows,cols",
        [([[1, 2], [3]], None, None), ([[1, 2]], 2, 2), ([[1, 2]], 1, 3)],
        ids=["ragged", "too-few-rows", "too-few-cols"],
    )
    def test_mis_shaped_data_rejected(self, data, rows, cols):
        with pytest.raises(ValueError, match="ragged or mis-sized matrix data"):
            IntegerMatrix(data, rows, cols)

    @pytest.mark.parametrize("entry", [1.0, "1", None, True])
    def test_non_integer_entry_rejected(self, entry):
        with pytest.raises(TypeError, match="non-integer entry"):
            IntegerMatrix([[1, entry]])

    @pytest.mark.parametrize("entry", [1.5, 0.0, "1", None, True, False])
    def test_sparse_non_integer_entry_rejected(self, entry):
        with pytest.raises(TypeError, match="non-integer entry"):
            IntegerMatrix.from_rows([{0: 1}, {1: entry}], 2)

    @pytest.mark.parametrize("col", [5, 2, -1, 1.0, True, "0"])
    def test_sparse_column_outside_the_matrix_rejected(self, col):
        with pytest.raises(ValueError, match=r"column .* is not an int in 0\.\.1"):
            IntegerMatrix.from_rows([{0: 1}, {col: 1}], 2)


class TestHomology:
    def test_boundary_composition_vanishes(self, block_p6_g2):
        d2, d1 = boundary_matrices(block_p6_g2)
        assert not any(matrix_product(d1, d2).entries)

    def test_torus_boundary_maps_store_nothing(self):
        # the one edge pair meets the one face in both senses, and every
        # edge has both ends at the one vertex: each entry sums to zero
        for m in boundary_matrices(make_torus()):
            assert m.entries == [{}] * m.rows

    def test_torus_betti(self):
        assert betti_numbers(make_torus()) == (1, 2, 1)

    def test_block_betti(self, block_p6_g2):
        assert betti_numbers(block_p6_g2) == (1, 4, 1)

    def test_disconnected_betti_zero(self):
        assert betti_numbers(make_disconnected())[0] == 2

    @pytest.mark.parametrize("make", [make_torus, make_disconnected, make_octagon])
    def test_betti_numbers_run_no_smith_normal_form(self, monkeypatch, make):
        import fqsurf.surface_complex as sc

        calls = []
        monkeypatch.setattr(sc, "smith_normal_form", lambda m: calls.append(m))
        b0, b1, b2 = betti_numbers(make())
        assert calls == []
        assert b0 == b2


def assert_tree_cotree_is_a_chain_map(cx):
    """The reduction's edge images carry every face boundary to zero.

    Closed complexes are oriented, so each component's faces sum to zero
    and no face relation is left: every face boundary must map to zero in
    Z^X, and the dual forest spans each component's faces.
    """
    red = tree_cotree(cx)
    components = cx.num_vertices - red.tree
    assert red.cotree == cx.num_faces - components
    assert len(red.x_edges) == cx.num_edges - cx.num_vertices - cx.num_faces + 2 * components
    x = set(red.x_edges)
    for e, image in enumerate(red.images):
        assert set(image) <= x
        if e in x:
            assert image == {e: 1}
    for f in cx.faces:
        total = {}
        for e, rev in f.sides:
            for k, c in red.images[e].items():
                total[k] = total.get(k, 0) + (-c if rev else c)
        assert not any(total.values()), f.id


class TestTreeCotree:
    @pytest.mark.parametrize(
        "make",
        [make_torus, make_pillowcase, make_crossing, make_twelve_gon,
         make_octagon, make_disconnected],
    )
    def test_hand_built(self, make):
        assert_tree_cotree_is_a_chain_map(make())

    @pytest.mark.parametrize(
        "name",
        ["block_p6_g2", "block_p6_g3", "block_p8_g3", "rect_p8_1x2",
         "rect_p8_3x2", "hex4", "block_p10_g4", "rect_p12_3x3", "hex36"],
    )
    def test_builder_outputs(self, request, name):
        assert_tree_cotree_is_a_chain_map(request.getfixturevalue(name))

    def test_no_face_relation_is_kept(self):
        assert TreeCotree._fields == ("tree", "cotree", "x_edges", "images")

    def test_two_tori_leave_two_generators_each(self):
        red = tree_cotree(make_disconnected())
        assert (red.tree, red.cotree, len(red.x_edges)) == (0, 0, 4)


def _stdlib_json(obj):
    """The reference bytes for canonical_json: the standard library's encoder."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _golden_documents(monkeypatch):
    """Every object tests/test_golden.py hands to canonical_json, in order."""
    import test_golden

    docs = []

    def record(obj):
        docs.append(obj)
        return canonical_json(obj)

    monkeypatch.setattr(test_golden, "canonical_json", record)
    monkeypatch.setattr(cli, "canonical_json", record)
    for name in sorted(test_golden.CASES):
        test_golden.CASES[name]()
    for name in sorted(test_golden.SWEEP):
        test_golden._sweep_outcome(*test_golden.SWEEP[name])
    return docs


# JSON strings: any code point, lone surrogates included, plus the escapes
_JSON_STRINGS = st.text(st.characters(exclude_categories=())) | st.sampled_from(
    ['"', "\\", "\x00\x1f\x7f", "\ud800", "x\udfffy", "é€😀", "\u2028", "a/b\tc\n"]
)
_JSON_DOCUMENTS = st.recursive(
    _JSON_STRINGS
    | st.integers()
    | st.integers(-(10**400), 10**400)
    | st.booleans()
    | st.none(),
    lambda inner: st.lists(inner)
    | st.lists(inner).map(tuple)
    | st.dictionaries(_JSON_STRINGS, inner),
    max_leaves=40,
)

# a column's usual values, and the odd values planted among them
_PLANTS = (
    (st.integers(), st.booleans()),
    (_JSON_STRINGS, st.none()),
    (st.lists(st.integers(), max_size=3), st.tuples(st.integers(), st.booleans())),
    (st.fixed_dictionaries({"a": st.integers(), "b": st.booleans()}), st.just({})),
    (
        st.lists(st.lists(st.integers(), max_size=3), max_size=3),
        st.lists(st.lists(st.none() | st.lists(st.integers(), max_size=2), max_size=4), max_size=3),
    ),
)


@st.composite
def _column_documents(draw):
    """Lists of 0-30 dicts sharing one key set, so that canonical_json writes
    long columns of like values, with odd values planted in one column and
    at times one dict given an extra key."""
    keys = draw(st.lists(_JSON_STRINGS, min_size=1, max_size=4, unique=True))
    plants = {key: draw(st.sampled_from(_PLANTS)) for key in keys}
    planted = draw(st.sampled_from(keys))
    rows = []
    for _ in range(draw(st.integers(0, 30))):
        row = {}
        for key, (usual, odd) in plants.items():
            row[key] = draw(odd if key == planted and draw(st.booleans()) else usual)
        rows.append(row)
    if rows and draw(st.booleans()):
        extra = draw(_JSON_STRINGS.filter(lambda key: key not in plants))
        rows[draw(st.integers(0, len(rows) - 1))][extra] = draw(st.integers())
    return rows


class TestSerialization:
    def test_matches_stdlib_on_every_golden_document(self, monkeypatch):
        docs = _golden_documents(monkeypatch)
        assert len(docs) > 100
        mismatched = [i for i, doc in enumerate(docs) if canonical_json(doc) != _stdlib_json(doc)]
        assert mismatched == []

    @pytest.mark.parametrize(
        "make",
        [
            lambda: verdict_to_dict(decide(6, (2, 3) * 3, 257, certify=True)),
            lambda: subdivision_map_to_dict(
                subdivide_four(build_rect_tessellation(12, 3, 5), axis=1)[1]
            ),
            lambda: loop_report_to_dict(trace_geodesic_loops(build_block_tessellation(6, 9))),
            lambda: witness_to_dict(solve_good_coloring(build_rect_tessellation(8, 3, 2))),
        ],
        ids=["verdict-F1024", "subdivision-map", "loop-report", "witness"],
    )
    def test_matches_stdlib_on_library_documents(self, make):
        doc = make()
        assert canonical_json(doc) == _stdlib_json(doc)

    @settings(max_examples=120, deadline=None)
    @given(_JSON_DOCUMENTS)
    @example({"b": (), "a": {}, "c": [(), {}, (1, "x", None, False)]})
    @example([])
    @example(-(10**300))
    @example("\ud800")
    @example(True)
    @example(False)
    @example(None)
    def test_matches_stdlib_on_generated_documents(self, doc):
        assert canonical_json(doc) == _stdlib_json(doc)

    @pytest.mark.parametrize(
        "obj, kind",
        [
            (1.5, "float"),
            ({"faces": [1, 2.0]}, "float"),
            ({1: "x"}, "int"),
            ({"seen": {1, 2}}, "set"),
            ([b"abc"], "bytes"),
            ({"ok": True, "none": None, "ratio": 0.5}, "float"),
        ],
        ids=["float", "nested-float", "int-key", "set", "bytes", "float-beside-flags"],
    )
    def test_rejects_types_outside_the_contract(self, obj, kind):
        with pytest.raises(TypeError, match=rf"\b{kind}\b"):
            canonical_json(obj)

    @settings(max_examples=150, deadline=None)
    @given(_column_documents())
    @example([{"n": 1}, {"n": True}, {"n": 2}, {"n": False}])
    @example([{"s": "x"}, {"s": None}, {"s": "y"}])
    @example([{"a": [1, 2]}, {"a": (3, False)}, {"a": []}])
    @example([{"d": {"a": 1, "b": True}}, {"d": {}}, {"d": {"a": 2, "b": False}}])
    @example([{"a": 1, "b": "x"}, {"a": 2, "b": "y", "c": None}, {"a": 3, "b": "z"}])
    @example([{"n": [[1], [], [2, 3]]}, {"n": []}, {"n": [[], [[]], [None, [4]]]}])
    @example({"ok": True, "certificate": None, "flags": [False, None, True, 3, "x"]})
    def test_matches_stdlib_on_columns(self, doc):
        assert canonical_json(doc) == _stdlib_json(doc)

    def test_first_fault_in_column_order_is_named(self):
        """Values under one key are written, nested ones included, before
        the values under the next key, so the bytes under "a" are named
        before the float under "b" that comes first in the document."""
        with pytest.raises(TypeError, match=r"\bbytes\b"):
            canonical_json([{"a": 1, "b": 1.5}, {"a": b"x", "b": 2}])
        with pytest.raises(TypeError, match=r"\bfloat\b"):
            canonical_json([{"a": 1, "b": b"x"}, {"a": 1.5, "b": 2}])

    @pytest.mark.parametrize(
        "make",
        [
            complex_to_dict,
            lambda cx: build_certificate(cx, solve_good_coloring(cx), (2, 3) * 3),
        ],
        ids=["complex", "certificate"],
    )
    def test_column_count_does_not_grow_with_the_complex(self, monkeypatch, make):
        """The writer makes one call per column, not per value: the Block
        p=6 documents at F=16 and F=1024 take the same number of calls."""
        from fqsurf import surface_complex

        column = surface_complex._column
        calls = []

        def counted(values, indent):
            calls.append(len(values))
            return column(values, indent)

        monkeypatch.setattr(surface_complex, "_column", counted)
        counts = []
        for genus in (5, 257):
            doc = make(build_block_tessellation(6, genus))
            calls.clear()
            assert canonical_json(doc) == _stdlib_json(doc)
            counts.append(len(calls))
        assert counts[0] == counts[1]
        assert max(calls) > 1000

    def test_canonical_json_is_stable(self, block_p6_g2):
        doc = complex_to_dict(block_p6_g2)
        text = canonical_json(doc)
        assert text == canonical_json(complex_to_dict(block_p6_g2))
        assert text.endswith("\n")
        assert json.loads(text) == doc

    def test_round_trip(self, rect_p8_1x2):
        doc = complex_to_dict(rect_p8_1x2)
        back = complex_from_dict(doc)
        assert back == rect_p8_1x2
        assert canonical_json(complex_to_dict(back)) == canonical_json(doc)

    def test_format_guard(self):
        with pytest.raises(ValueError):
            complex_from_dict({"format": "fq-complex/99"})

    @pytest.mark.parametrize(
        "edit",
        [
            lambda doc: doc["edges"][1].update(id=0),
            lambda doc: doc["faces"][0]["sides"][0].update(edge=99),
            lambda doc: doc["faces"][0]["sides"].pop(),
            lambda doc: doc["edges"][0].update(type=0),
            lambda doc: doc["faces"][0].update(chirality="up"),
            lambda doc: doc["faces"][0].update(id=7),
            lambda doc: doc.update(p=2),
        ],
        ids=["edge-id-twice", "side-edge-99", "face-short-side", "type-0",
             "chirality-up", "face-id-sparse", "p-2"],
    )
    def test_structural_faults_name_the_format(self, block_p6_g2, edit):
        doc = complex_to_dict(block_p6_g2)
        edit(doc)
        with pytest.raises(ValueError) as info:
            complex_from_dict(doc)
        assert type(info.value) is ValueError
        assert str(info.value).startswith("malformed fq-complex/1 document: ")


class TestOpenComplex:
    """A complex with dangling edges has no vertex structure to derive."""

    @pytest.mark.parametrize(
        "use",
        [
            lambda cx: cx.vertices(),
            lambda cx: cx.tail_vertex((0, True)),
            lambda cx: cx.continue_through((0, True), 2),
        ],
        ids=["vertices", "tail_vertex", "continue_through"],
    )
    def test_vertex_structure_is_refused(self, use):
        with pytest.raises(ValueError, match="^vertex structure requires a closed complex$"):
            use(make_open_square())


class TestAccessorIds:
    """The per-element accessors answer only for ids the complex has."""

    @pytest.mark.parametrize("vertex", [-1, 1, 2, True, 0.0, "0", None])
    @pytest.mark.parametrize("accessor", ["rotation", "vertex_type_pair"])
    def test_vertex_outside_the_complex(self, accessor, vertex):
        cx = make_torus()  # one vertex
        with pytest.raises(ValueError, match=rf"^vertex {re.escape(repr(vertex))} "
                                             r"is not an int in 0\.\.0$"):
            getattr(cx, accessor)(vertex)

    def test_last_vertex_is_not_vertex_minus_one(self, block_p6_g2):
        n = block_p6_g2.num_vertices
        assert block_p6_g2.vertex_type_pair(n - 1) is not None
        for accessor in (block_p6_g2.rotation, block_p6_g2.vertex_type_pair):
            with pytest.raises(ValueError, match=rf"^vertex -1 is not an int in 0\.\.{n - 1}$"):
                accessor(-1)
            with pytest.raises(ValueError, match=rf"^vertex {n} is not an int"):
                accessor(n)

    @pytest.mark.parametrize(
        "dedge", [(99, True), (2, False), (-1, True), (0, None), (0, 1), (True, True),
                  (0,), (0, True, 1), 0, [0, True], "ab"],
    )
    @pytest.mark.parametrize(
        "use",
        [
            lambda cx, d: cx.tail_vertex(d),
            lambda cx, d: cx.head_vertex(d),
            lambda cx, d: cx.continue_through(d, 2),
            lambda cx, d: cx.straight_continuation(d),
        ],
        ids=["tail_vertex", "head_vertex", "continue_through", "straight_continuation"],
    )
    def test_directed_edge_outside_the_complex(self, use, dedge):
        with pytest.raises(ValueError, match=rf"^{re.escape(repr(dedge))} "
                                             r"is not a directed edge of the complex$"):
            use(make_torus(), dedge)

    @pytest.mark.parametrize("turn", [True, False, "2", 2.0, None])
    def test_turn_that_is_not_an_int(self, turn):
        with pytest.raises(ValueError, match=rf"^turn {re.escape(repr(turn))} is not an int$"):
            make_torus().continue_through((0, True), turn)

    @pytest.mark.parametrize("edge", [-1, 2, True, 1.0])
    def test_edge_outside_the_complex(self, edge):
        with pytest.raises(ValueError, match=rf"^edge {re.escape(repr(edge))} "
                                             r"is not an int in 0\.\.1$"):
            make_torus().edge_type(edge)

    def test_ids_in_range_still_answer(self, block_p6_g2):
        cx = block_p6_g2
        for e in cx.edges:
            assert cx.edge_type(e.id) == e.type
            for d in ((e.id, True), (e.id, False)):
                v = cx.tail_vertex(d)
                assert d in cx.rotation(v)
                assert cx.head_vertex(d) == cx.tail_vertex((e.id, not d[1]))


# ---------------------------------------------------------------- properties

MATCHINGS = [
    [(0, 1), (2, 3)],
    [(0, 2), (1, 3)],
    [(0, 3), (1, 2)],
]


@st.composite
def matchings_complexes(draw):
    p = draw(st.sampled_from([6, 8]))
    chir = tuple(draw(st.sampled_from([CCW, CW])) for _ in range(4))
    combo = draw(st.lists(st.sampled_from(range(3)), min_size=p, max_size=p))
    return complex_from_matchings(p, chir, [MATCHINGS[c] for c in combo])


@given(matchings_complexes())
@settings(max_examples=50, deadline=None)
def test_matchings_complexes_are_closed_orientable(cx):
    assert cx.is_closed()
    rep = validate(cx)
    assert "Closedness" not in rep.tags()
    chi = cx.num_vertices - cx.num_edges + cx.num_faces
    assert rep.euler_characteristic == chi
    assert chi % 2 == 0
    if rep.structurally_ok:
        assert rep.genus == (2 - chi) // 2


def complex_from_side_pairing(p, num_faces, order, flips, types):
    """Glue ``num_faces`` p-gons by pairing the sides in ``order`` two by two.

    Pair k joins sides ``order[2k]`` and ``order[2k + 1]`` (``(face,
    position)``) as edge k of type ``types[k]``, the first traversed
    reversed iff ``flips[k]``, the second in the opposite sense.  Every
    such gluing is closed.
    """
    sides = [[None] * p for _ in range(num_faces)]
    for k, flip in enumerate(flips):
        (fa, ka), (fb, kb) = order[2 * k], order[2 * k + 1]
        sides[fa][ka] = (k, flip)
        sides[fb][kb] = (k, not flip)
    return build_complex(
        p, list(enumerate(types)), [(f, CCW, s) for f, s in enumerate(sides)]
    )


@st.composite
def side_pairing_complexes(draw):
    """Closed complexes from a random opposite-sense pairing of all sides.

    p is 3-8 and F is 1-6 (raised or lowered by one when p·F is odd).
    Unlike :func:`matchings_complexes` these include edges glued to their
    own face, vertices of any degree and disconnected complexes.
    """
    p = draw(st.integers(3, 8))
    num_faces = draw(st.integers(1, 6))
    if p * num_faces % 2:
        num_faces += 1 if num_faces < 6 else -1
    order = draw(st.permutations([(f, k) for f in range(num_faces) for k in range(p)]))
    n = p * num_faces // 2
    flips = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    types = draw(st.lists(st.integers(1, p), min_size=n, max_size=n))
    return complex_from_side_pairing(p, num_faces, order, flips, types)


def test_side_pairings_reach_every_shape():
    """Seeded draws of the same gluings reach the shapes the strategy is for."""
    rng = random.Random(20)
    shapes = set()
    for _ in range(300):
        p, num_faces = rng.randint(3, 8), rng.choice([2, 4, 6])
        order = [(f, k) for f in range(num_faces) for k in range(p)]
        rng.shuffle(order)
        n = len(order) // 2
        cx = complex_from_side_pairing(
            p, num_faces, order, [rng.random() < 0.5 for _ in range(n)], [1] * n
        )
        occ = cx.occurrences()
        if any(fa == fb for (fa, _), (fb, _) in occ.values()):
            shapes.add("self-glued edge")
        shapes.update(f"degree {len(orbit)}" for orbit in cx.vertices() if len(orbit) <= 8)
        if "Disconnected" in validate(cx).tags():
            shapes.add("disconnected")
    assert {"self-glued edge", "disconnected"} <= shapes
    assert {f"degree {d}" for d in range(1, 9)} <= shapes


@given(side_pairing_complexes())
@settings(max_examples=100, deadline=None)
def test_side_pairing_complexes_are_oriented(cx):
    assert cx.is_closed()
    rep = validate(cx)
    chi = cx.num_vertices - cx.num_edges + cx.num_faces
    assert rep.euler_characteristic == chi
    assert chi % 2 == 0
    assert type(rep.genus) is int
    assert rep.genus == (2 - chi) // 2


@given(side_pairing_complexes())
@settings(max_examples=100, deadline=None)
def test_tree_cotree_is_a_chain_map_on_side_pairings(cx):
    assert_tree_cotree_is_a_chain_map(cx)


@given(matchings_complexes())
@settings(max_examples=50, deadline=None)
def test_rotation_is_a_permutation_partition(cx):
    seen = []
    for v in range(cx.num_vertices):
        for d in cx.rotation(v):
            assert cx.tail_vertex(d) == v
            seen.append(d)
    assert len(seen) == 2 * cx.num_edges
    assert len(set(seen)) == len(seen)


@given(matchings_complexes())
@settings(max_examples=50, deadline=None)
def test_straight_continuation_commutes_with_reversal(cx):
    for e in range(cx.num_edges):
        for fwd in (True, False):
            d = (e, fwd)
            if len(cx.rotation(cx.head_vertex(d))) != 4:
                continue
            nxt = cx.straight_continuation(d)
            back = (nxt[0], not nxt[1])
            if len(cx.rotation(cx.head_vertex(back))) != 4:
                continue
            assert cx.straight_continuation(back) == (e, not fwd)


def reference_navigation(cx):
    """Vertex orbits and corner lookups walked straight from the faces.

    Vertices are the orbits of ``sigma(corner) = next_in_face(opposite(corner))``
    over the corners ``(face, position)``; each corner owns the side leaving it.
    Returns the orbits, the vertex of each corner, the corner owning each
    directed edge, and ``next_in_face``.
    """
    occ = cx.occurrences()

    def next_in_face(corner):
        f, k = corner
        return (f, (k + 1) % len(cx.faces[f].sides))

    def sigma(corner):
        a, b = occ[cx.faces[corner[0]].sides[corner[1]][0]]
        return next_in_face(b if a == corner else a)

    orbits = []
    vertex_of = {}
    corner_of = {}
    for f in cx.faces:
        for k, (e, rev) in enumerate(f.sides):
            corner_of[(e, not rev)] = (f.id, k)
            if (f.id, k) in vertex_of:
                continue
            orbit = [(f.id, k)]
            while sigma(orbit[-1]) != orbit[0]:
                orbit.append(sigma(orbit[-1]))
            for c in orbit:
                vertex_of[c] = len(orbits)
            orbits.append(tuple(orbit))
    return tuple(orbits), vertex_of, corner_of, next_in_face


def assert_navigation_matches_reference(cx):
    orbits, vertex_of, corner_of, next_in_face = reference_navigation(cx)
    assert cx.vertices() == orbits
    rotations = []
    for v, orbit in enumerate(orbits):
        rays = tuple(
            (cx.faces[f].sides[k][0], not cx.faces[f].sides[k][1])
            for f, k in orbit
        )
        assert cx.rotation(v) == rays
        rotations.append(rays)
    for d, corner in corner_of.items():
        head = vertex_of[next_in_face(corner)]
        assert cx.tail_vertex(d) == vertex_of[corner]
        assert cx.head_vertex(d) == head
        rays = rotations[head]
        i = rays.index((d[0], not d[1]))
        for t in range(4):
            assert cx.continue_through(d, t) == rays[(i + t) % len(rays)]


@pytest.mark.parametrize(
    "make",
    [make_torus, make_pillowcase, make_crossing, make_twelve_gon, make_octagon],
)
def test_navigation_matches_the_corner_walk(make):
    assert_navigation_matches_reference(make())


@given(matchings_complexes())
@settings(max_examples=30, deadline=None)
def test_navigation_matches_the_corner_walk_on_matchings(cx):
    assert_navigation_matches_reference(cx)


# ------------------------------------------ Smith normal form against its oracles

# mostly 0 and ±1, so both unit elimination and a non-trivial core occur
SNF_ENTRIES = st.sampled_from(
    (0,) * 24 + (1, -1) * 12 + tuple(range(2, 10)) + tuple(range(-9, -1))
)


@st.composite
def dense_entries(draw, rows, cols):
    """A rows×cols list of lists drawn from ``SNF_ENTRIES``."""
    flat = draw(st.lists(SNF_ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return [flat[i * cols:(i + 1) * cols] for i in range(rows)]


@st.composite
def sparse_integer_matrices(draw):
    rows = draw(st.integers(1, 8))
    cols = draw(st.integers(1, 8))
    return IntegerMatrix(draw(dense_entries(rows, cols)), rows, cols)


def assert_snf_matches_oracles(m):
    """``smith_normal_form`` equals the dense transform SNF and sympy's."""
    from sympy import Matrix
    from sympy.matrices.normalforms import smith_normal_form as sympy_snf

    n = min(m.rows, m.cols)
    diag, rank = smith_normal_form(m)
    d, _, _ = snf_with_transforms(m)
    dense = tuple(d.data[i][i] for i in range(n))
    assert (diag, rank) == (dense, sum(1 for x in dense if x))
    ref = sympy_snf(Matrix(m.rows, m.cols, [x for row in m.data for x in row]))
    assert diag == tuple(abs(ref[i, i]) for i in range(n))


def homology_matrices(cx):
    """d1, d2 and the ``[loop cycles | d2]`` matrix of ``loops_generate_h1``."""
    d2, d1 = boundary_matrices(cx)
    return d1, d2, loops_then_faces(trace_geodesic_loops(cx).loops, d2)


class TestSmithNormalFormOracles:
    @given(sparse_integer_matrices())
    @settings(max_examples=80, deadline=None)
    def test_sparse_matrices(self, m):
        assert_snf_matches_oracles(m)
        assert_smith_transforms(m)

    @pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0)])
    def test_empty(self, rows, cols):
        m = IntegerMatrix([[]] * rows if rows else [], rows, cols)
        assert smith_normal_form(m) == ((), 0)
        assert_snf_matches_oracles(m)

    def test_no_unit_entry_is_all_core(self):
        assert_snf_matches_oracles(
            IntegerMatrix([[2, 4, 0], [6, 0, 3], [0, 9, -3], [4, -2, 6]])
        )

    def test_all_unit_pivots(self):
        m = IntegerMatrix([[1, -1, 0, 0], [0, 1, -1, 0], [0, 0, 1, -1]])
        assert smith_normal_form(m) == ((1, 1, 1), 3)
        assert_snf_matches_oracles(m)

    @pytest.mark.parametrize(
        "make",
        [make_torus, make_pillowcase, make_crossing, make_twelve_gon,
         make_octagon, make_disconnected],
    )
    def test_hand_built_homology(self, make):
        for m in homology_matrices(make()):
            assert_snf_matches_oracles(m)

    @pytest.mark.parametrize(
        "name",
        ["block_p6_g2", "block_p6_g3", "block_p8_g3", "rect_p8_1x2",
         "rect_p8_3x2", "hex4", "block_p10_g4", "rect_p12_3x3", "hex36"],
    )
    def test_builder_homology(self, request, name):
        for m in homology_matrices(request.getfixturevalue(name)):
            assert_snf_matches_oracles(m)


@given(matchings_complexes())
@settings(max_examples=20, deadline=None)
def test_snf_matches_oracles_on_matchings(cx):
    for m in homology_matrices(cx):
        assert_snf_matches_oracles(m)


@given(matchings_complexes())
@settings(max_examples=50, deadline=None)
def test_tree_cotree_is_a_chain_map_on_matchings(cx):
    assert_tree_cotree_is_a_chain_map(cx)


# ------------------------------------- sparse matrix against dense references


class TestSparseMatrixAgainstDense:
    @given(st.integers(0, 6), st.integers(0, 6), st.data())
    @settings(max_examples=60, deadline=None)
    def test_views_and_equality(self, rows, cols, data):
        a = data.draw(dense_entries(rows, cols))
        b = data.draw(dense_entries(rows, cols))
        m = IntegerMatrix(a, rows, cols)
        assert m.data == a
        assert m.entries == [{j: x for j, x in enumerate(row) if x} for row in a]
        assert (m == IntegerMatrix(b, rows, cols)) == (a == b)
        # zeros handed to the sparse constructor are dropped
        with_zeros = IntegerMatrix.from_rows([dict(enumerate(row)) for row in a], cols)
        assert with_zeros == m and with_zeros.entries == m.entries
        # the dense view is a copy
        view = m.data
        for row in view:
            row[:] = [x + 1 for x in row]
        assert m.data == a
