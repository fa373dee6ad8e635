"""Face counts, builders, chord subdivisions, derived thickness sequences."""

import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fqsurf.surface_complex import build_complex, canonical_json, complex_to_dict, validate
from fqsurf.coloring import assign_face_orientations
from fqsurf.lattice import symmetric_axes
from fqsurf.loops import trace_geodesic_loops
from fqsurf.tessellation import (
    BadDivisibility,
    ConstructionFailure,
    CutSystemFailure,
    NonIntegralFaceCount,
    SymmetryViolation,
    build_block_tessellation,
    build_rect_tessellation,
    complex_from_matchings,
    derived_sequence,
    face_count,
    is_symmetric,
    subdivide_four,
    subdivide_two,
    subdivision_map_to_dict,
)

from test_loops import MATCHINGS


class TestFaceCount:
    @pytest.mark.parametrize(
        "p,g,expected",
        [(6, 2, 4), (8, 2, 2), (12, 2, 1), (12, 10, 9), (5, 2, 8), (6, 3, 8)],
    )
    def test_known_values(self, p, g, expected):
        assert face_count(p, g) == expected

    def test_non_integral_rejected(self):
        with pytest.raises(NonIntegralFaceCount):
            face_count(7, 2)

    def test_domain_guards(self):
        with pytest.raises(ValueError):
            face_count(4, 2)
        with pytest.raises(ValueError):
            face_count(6, 1)
        for bad in (6.0, 6.5, "6", True):
            with pytest.raises(ValueError, match=f"p must be an integer, got {bad!r}"):
                face_count(bad, 2)
            with pytest.raises(ValueError, match=f"genus must be an integer, got {bad!r}"):
                face_count(6, bad)

    @given(st.integers(5, 16), st.integers(2, 12))
    @settings(max_examples=80, deadline=None)
    def test_defining_identity(self, p, g):
        try:
            F = face_count(p, g)
        except NonIntegralFaceCount:
            assert 8 * (g - 1) % (p - 4) != 0
        else:
            assert F * (p - 4) == 8 * (g - 1)
            assert F >= 1


class TestComplexFromMatchings:
    def test_two_face_cylinder_of_matchings(self):
        cx = complex_from_matchings(6, ("ccw", "cw"), [[(0, 1)]] * 6)
        assert cx.is_closed()
        assert cx.num_faces == 2
        assert cx.num_edges == 6

    def test_self_match_rejected(self):
        with pytest.raises(ValueError):
            complex_from_matchings(6, ("ccw", "cw"), [[(0, 1)]] * 5 + [[(0, 0)]])

    def test_incomplete_cover_rejected(self):
        with pytest.raises(ValueError):
            complex_from_matchings(6, ("ccw", "cw", "cw", "ccw"), [[(0, 1)]] * 6)

    def test_matching_count_must_equal_p(self):
        with pytest.raises(ValueError, match="expected 4 matchings, got 3"):
            complex_from_matchings(4, ("ccw", "cw"), [[(0, 1)]] * 3)

    def test_face_matched_twice_rejected(self):
        twice = [(0, 1), (1, 2)]
        with pytest.raises(ValueError, match="face 1 matched twice at type 1"):
            complex_from_matchings(6, ("ccw", "cw", "ccw"), [twice] + [[(0, 1)]] * 5)

    @pytest.mark.parametrize("face", [-1, 4, 7, True, False, 1.0, "1", None])
    def test_face_id_outside_the_faces_rejected(self, face):
        good = [[(0, 1), (2, 3)], [(0, 3), (1, 2)]] * 3
        assert complex_from_matchings(6, ("ccw", "cw") * 2, good).num_faces == 4
        bad = good[:5] + [[(0, 1), (2, face)]]
        with pytest.raises(ValueError, match=rf"^matching for type 6: face {re.escape(repr(face))} "
                                             r"is not an int in 0\.\.3$"):
            complex_from_matchings(6, ("ccw", "cw") * 2, bad)


class TestBlockBuilder:
    @pytest.mark.parametrize("p,g", [(6, 2), (6, 3), (8, 3), (10, 4), (6, 4)])
    def test_output_fully_validates(self, p, g):
        cx = build_block_tessellation(p, g)
        assert cx.num_faces == face_count(p, g)
        rep = validate(cx, expected_genus=g)
        assert rep.passed, rep.tags()

    def test_dual_is_bipartite(self, block_p6_g3):
        orient = assign_face_orientations(block_p6_g3)
        assert orient.bipartite
        assert orient.odd_cycle is None

    def test_all_loops_even(self, block_p8_g3):
        report = trace_geodesic_loops(block_p8_g3)
        assert report.odd_loops == []
        assert not any(lp.degenerate for lp in report.loops)

    def test_odd_p_rejected(self):
        with pytest.raises(BadDivisibility):
            build_block_tessellation(7, 2)

    def test_face_count_not_multiple_of_four_rejected(self):
        with pytest.raises(BadDivisibility):
            build_block_tessellation(8, 2)

    def test_deterministic(self):
        a = canonical_json(complex_to_dict(build_block_tessellation(6, 2)))
        b = canonical_json(complex_to_dict(build_block_tessellation(6, 2)))
        assert a == b


class TestRectBuilder:
    @pytest.mark.parametrize(
        "p,a,b,genus", [(8, 1, 2, 2), (8, 3, 2, 4), (12, 3, 3, 10), (8, 2, 2, 3)]
    )
    def test_structurally_valid_with_genus(self, p, a, b, genus):
        cx = build_rect_tessellation(p, a, b)
        assert cx.num_faces == a * b
        rep = validate(cx, expected_genus=genus)
        assert rep.structurally_ok, rep.tags()
        assert rep.genus == genus

    def test_p_guard(self):
        with pytest.raises(BadDivisibility):
            build_rect_tessellation(6, 2, 2)
        with pytest.raises(BadDivisibility):
            build_rect_tessellation(4, 2, 2)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            build_rect_tessellation(8, 0, 2)

    @pytest.mark.parametrize(
        "p,a,b,name",
        [
            (8, 1.0, 2, "a"),
            (8, True, 2, "a"),
            (8, 1, 2.0, "b"),
            (8.0, 1, 2, "p"),
            (True, 1, 2, "p"),
        ],
    )
    def test_non_integer_parameters_rejected(self, p, a, b, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            build_rect_tessellation(p, a, b)

    @pytest.mark.parametrize("a,b", [(1, 1), (1, 3), (2, 3), (3, 1)])
    def test_odd_column_odd_notch_unpairable(self, a, b):
        with pytest.raises(ConstructionFailure, match="^no hole pairing: "):
            build_rect_tessellation(8, a, b)

    def test_single_row_wraps_to_self_adjacency(self):
        dg_loops = trace_geodesic_loops(build_rect_tessellation(8, 1, 2))
        assert dg_loops.odd_loops != []

    def test_deterministic(self):
        a = canonical_json(complex_to_dict(build_rect_tessellation(12, 3, 3)))
        b = canonical_json(complex_to_dict(build_rect_tessellation(12, 3, 3)))
        assert a == b


class TestSubdivideTwo:
    def test_halves_rect_faces(self, rect_p8_1x2, hex4):
        assert hex4.p == 6
        assert hex4.num_faces == 2 * rect_p8_1x2.num_faces
        rep = validate(hex4, expected_genus=2)
        assert rep.passed, rep.tags()

    def test_loops_become_even(self, hex4):
        report = trace_geodesic_loops(hex4)
        assert report.odd_loops == []

    def test_map_records_cuts(self, rect_p8_1x2):
        cx, sub = subdivide_two(rect_p8_1x2, axis=1)
        assert sub.pieces == 2
        assert sub.axis == 1
        assert set(sub.chords) == {0, 1}
        assert set(sub.edge_splits) == set(sub.midpoint_vertices)
        assert sub.center_vertices == {}
        doc = subdivision_map_to_dict(sub)
        assert doc["format"] == "fq-subdiv/1"
        assert doc["pieces"] == 2
        assert len(doc["chords"]) == 2

    def test_axis_search_finds_a_cut(self, rect_p8_1x2):
        cx, sub = subdivide_two(rect_p8_1x2)
        assert validate(cx).passed
        assert 1 <= sub.axis <= 4

    def test_wrong_p_rejected(self, block_p6_g2):
        with pytest.raises(BadDivisibility):
            subdivide_two(block_p6_g2)

    def test_open_complex_rejected(self):
        from conftest import make_open_square

        with pytest.raises(ValueError):
            subdivide_two(make_open_square(), axis=1)

    def test_empty_complex_rejected(self):
        with pytest.raises(ValueError, match="requires a structurally valid complex"):
            subdivide_two(build_complex(8, [], []))

    @pytest.mark.parametrize("axis", [0, 9, -3])
    def test_axis_out_of_range_rejected(self, rect_p8_1x2, axis):
        with pytest.raises(ValueError, match=f"axis {axis} is outside 1..8"):
            subdivide_two(rect_p8_1x2, axis=axis)

    @pytest.mark.parametrize("axis", [1.0, True])
    def test_non_integer_axis_rejected(self, rect_p8_1x2, axis):
        with pytest.raises(ValueError, match="^axis must be an integer"):
            subdivide_two(rect_p8_1x2, axis=axis)

    def test_antipodal_axis_is_in_range(self, rect_p8_1x2, hex4):
        cx, sub = subdivide_two(rect_p8_1x2, axis=5)
        assert sub.axis == 5
        assert cx == hex4

    def test_failed_axis_search_names_each_axis_once(self):
        with pytest.raises(CutSystemFailure) as info:
            subdivide_two(build_rect_tessellation(12, 1, 1))
        message = str(info.value)
        assert message.startswith("no cut axis works; axis 1: subdivided dual graph")
        # six axes are tried, and the message names each failure once
        for m in range(1, 7):
            assert message.count(f"axis {m}:") == 1

    def test_face_cut_failure_names_its_axis(self, rect_p8_1x2):
        with pytest.raises(CutSystemFailure, match=r"^axis 2: face 0 cut sides sit at"):
            subdivide_two(rect_p8_1x2, axis=2)

    def test_relabeling_clash_names_its_edge(self):
        """The halves' side types disagree on a shared edge.  Without this
        check ``validate`` still rejects the result, but names no edge."""
        cx = complex_from_matchings(
            8, ("cw", "ccw", "ccw", "cw"), [MATCHINGS[c] for c in (0, 2) * 4]
        )
        message = r"^axis 1: no consistent relabeling \(edge 4: 4 vs 6\)$"
        with pytest.raises(ConstructionFailure, match=message):
            subdivide_two(cx, axis=1)

    def test_subdivided_loops_are_checked(self):
        cx = complex_from_matchings(
            8, ("ccw", "cw", "ccw", "cw"), [MATCHINGS[c] for c in (0, 2, 0, 2, 0, 2, 0, 1)]
        )
        message = "^axis 4: subdivided loops violate the intersection hypotheses$"
        with pytest.raises(CutSystemFailure, match=message):
            subdivide_two(cx, axis=4)


class TestSubdivideFour:
    def test_quarters_rect_faces(self, rect_p12_3x3, hex36):
        assert hex36.p == 6
        assert hex36.num_faces == 36
        rep = validate(hex36, expected_genus=10)
        assert rep.passed, rep.tags()

    def test_map_records_centers(self, rect_p12_3x3):
        cx, sub = subdivide_four(rect_p12_3x3, axis=1)
        assert sub.pieces == 4
        assert set(sub.center_vertices) == set(range(9))
        assert len(sub.chords[0]) > 1

    def test_wrong_residue_rejected(self, rect_p8_1x2, block_p6_g2):
        with pytest.raises(BadDivisibility):
            subdivide_four(rect_p8_1x2)
        with pytest.raises(BadDivisibility):
            subdivide_four(block_p6_g2)

    @pytest.mark.parametrize("axis", [0, 13])
    def test_axis_out_of_range_rejected(self, rect_p12_3x3, axis):
        with pytest.raises(ValueError, match=f"axis {axis} is outside 1..12"):
            subdivide_four(rect_p12_3x3, axis=axis)

    @pytest.mark.parametrize("axis", [1.0, True])
    def test_non_integer_axis_rejected(self, rect_p12_3x3, axis):
        with pytest.raises(ValueError, match="^axis must be an integer"):
            subdivide_four(rect_p12_3x3, axis=axis)


class TestDerivedSequence:
    def test_halving_reads_from_the_axis(self):
        q = (3, 2, 9, 2, 3, 2, 9, 2)
        assert derived_sequence(q, 2, 1) == (3, 2, 9, 2, 3, 2)

    def test_halving_checks_symmetry(self):
        with pytest.raises(SymmetryViolation):
            derived_sequence((3, 2, 9, 2, 3, 2, 9, 3), 2, 1)

    def test_quartering_constant_sequence(self):
        assert derived_sequence((2,) * 12, 4, 1) == (2, 2, 2, 2, 2, 2)

    def test_quartering_needs_full_symmetry(self):
        # invariant under rotation by p/2 but not under the reflection
        q = (2, 3, 4, 5, 2, 3, 4, 5)
        with pytest.raises(SymmetryViolation):
            derived_sequence(q, 4, 1)

    def test_quartering_needs_divisible_p(self):
        with pytest.raises(BadDivisibility):
            derived_sequence((2,) * 6, 4, 1)

    def test_unknown_piece_count(self):
        with pytest.raises(ValueError):
            derived_sequence((2,) * 8, 3, 1)

    @pytest.mark.parametrize("pieces", [2, 4])
    def test_empty_sequence_has_no_symmetry(self, pieces):
        assert symmetric_axes((), pieces) == set()
        for call in (lambda: is_symmetric((), 1, pieces),
                     lambda: derived_sequence((), pieces, 1)):
            with pytest.raises(ValueError, match="^an empty sequence has no symmetry axis$"):
                call()

    @pytest.mark.parametrize("check", [is_symmetric, derived_sequence])
    @pytest.mark.parametrize(
        "q, m, pieces, name",
        [
            ((3.0, 2, 9, 2, 3.0, 2, 9, 2), 1, 2, "q entry"),
            ((True, 2, 9, 2, True, 2, 9, 2), 1, 2, "q entry"),
            ((3, 2, 9, 2, 3, 2, 9, 2), 1.0, 2, "axis"),
            ((3, 2, 9, 2, 3, 2, 9, 2), True, 2, "axis"),
            ((3, 2, 9, 2, 3, 2, 9, 2), 1, 2.0, "pieces"),
            ((2,) * 8, 1, True, "pieces"),
        ],
    )
    def test_non_integer_inputs_rejected(self, check, q, m, pieces, name):
        # is_symmetric takes (q, m, pieces), derived_sequence (q, pieces, m)
        args = (q, m, pieces) if check is is_symmetric else (q, pieces, m)
        with pytest.raises(ValueError, match=f"^{name} must be an integer"):
            check(*args)

    @given(st.integers(1, 8), st.lists(st.integers(2, 9), min_size=4, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_palindromes_about_any_axis_halve(self, m, half):
        # build a q symmetric about m by reflecting the drawn half
        p = 8
        q = [0] * p
        for i in range(p // 2 + 1):
            v = half[min(i, len(half) - 1)]
            q[(m - 1 + i) % p] = v
            q[(m - 1 - i) % p] = v
        derived = derived_sequence(tuple(q), 2, m)
        assert len(derived) == p // 2 + 2
        assert derived[-1] == 2
        assert derived[0] == q[(m - 1) % p]
