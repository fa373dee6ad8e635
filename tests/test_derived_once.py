"""Derived structures are computed once per complex and then shared."""

import pytest

import fqsurf.coloring
import fqsurf.lattice
import fqsurf.loops
import fqsurf.surface_complex
import fqsurf.tessellation
from conftest import make_twelve_gon
from fqsurf.coloring import EdgeColoring, solve_good_coloring
from fqsurf.lattice import assign_groups, build_certificate, decide
from fqsurf.loops import trace_geodesic_loops
from fqsurf.surface_complex import (
    SurfaceComplex,
    complex_from_dict,
    complex_to_dict,
    validate,
)
from fqsurf.tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    subdivide_two,
)


def _count_calls(monkeypatch, module, name):
    """Wrap module.name with a call counter; return the counter list."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_loop_report_is_cached_per_complex():
    cx = build_rect_tessellation(8, 1, 2)
    assert trace_geodesic_loops(cx) is trace_geodesic_loops(cx)


def test_rotations_are_stored_once():
    cx = build_block_tessellation(6, 2)
    assert all(cx.rotation(v) is cx.rotation(v) for v in range(cx.num_vertices))


def test_builders_attach_no_loop_report_attribute():
    assert not hasattr(build_block_tessellation(6, 2), "loop_report")
    assert not hasattr(build_rect_tessellation(8, 1, 2), "loop_report")


@pytest.mark.parametrize(
    "p, q, genus, method, traced",
    [
        (6, (2, 3) * 3, 2, "Block", 1),
        (8, (3, 2, 9, 2, 3, 2, 9, 2), 2, "Subdiv2", 1),
    ],
)
def test_decide_counts_intersections_once_per_complex(monkeypatch, p, q, genus,
                                                      method, traced):
    calls = _count_calls(monkeypatch, fqsurf.loops, "pairwise_intersections")
    verdict = decide(p, q, genus, certify=True)
    assert (verdict.outcome, verdict.method) == ("Exists", method)
    assert len(calls) == traced


def test_certificate_checks_vertex_arithmetic_once(monkeypatch):
    cx = build_block_tessellation(6, 2)
    coloring = solve_good_coloring(cx)
    calls = _count_calls(monkeypatch, fqsurf.lattice, "verify_link_conditions")
    assert build_certificate(cx, coloring, (2, 3) * 3)["ok"] is True
    assert len(calls) == 1


@pytest.mark.parametrize("genus", [2, 5])
def test_lattice_facts_are_computed_once_per_key(monkeypatch, genus):
    cx = build_block_tessellation(6, genus)
    coloring = solve_good_coloring(cx)
    factor_sets = _count_calls(monkeypatch, fqsurf.lattice, "_edge_factor_set")
    arithmetic = _count_calls(monkeypatch, fqsurf.lattice, "_link_arithmetic")
    a = assign_groups(cx, coloring, (2, 3) * 3)
    keys = {(e.type, coloring.color_of(e.id)) for e in cx.edges}
    assert sorted(factor_sets) == sorted(keys)
    # in order of first appearance, each signature once
    assert [args[0] for args in arithmetic] == list(dict.fromkeys(a.signatures))
    if genus > 2:
        assert len(keys) < cx.num_edges
        assert len(arithmetic) < cx.num_vertices


def _lowest_vertex_per_signature(cx, coloring, q):
    """Each distinct local signature (everything the coset link reads at
    a vertex, in rotation order) with the lowest vertex that has it.

    The signatures are recomputed here from the complex and checked
    against the ones the assignment stores.
    """
    a = assign_groups(cx, coloring, q)
    signatures = []
    for v, orbit in enumerate(cx.vertices()):
        rays = cx.rotation(v)
        types = tuple(cx.edge_type(e) for e, _ in rays)
        # the type pair (i, i+1), read from the first two rays
        a_type, b_type = types[:2]
        pair = (a_type, b_type) if b_type == a_type % cx.p + 1 else (b_type, a_type)
        signatures.append((
            pair,
            tuple(a.edge_factors[e] for e, _ in rays),
            types,
            # sector k lies clockwise between rays k and k+1
            tuple(a.face_factors[orbit[(k + 1) % len(orbit)][0]]
                  for k in range(len(orbit))),
        ))
    assert a.signatures == tuple(signatures)
    lowest = {}
    for v, signature in enumerate(signatures):
        lowest.setdefault(signature, v)
    return lowest


def test_certificate_enumerates_one_link_per_signature(monkeypatch):
    cx = build_block_tessellation(6, 17)
    coloring = solve_good_coloring(cx)
    q = (12, 18) * 3
    lowest = _lowest_vertex_per_signature(cx, coloring, q)
    calls = _count_calls(monkeypatch, fqsurf.lattice, "_link_cosets")
    assert build_certificate(cx, coloring, q)["ok"] is True
    assert len(calls) == len(lowest) < cx.num_vertices
    assert [args[1] for args in calls] == list(lowest.values())


@pytest.mark.parametrize("fixture", ["block_p8_g3", "hex4", "hex36"])
def test_assignment_stores_each_vertex_signature(request, fixture):
    cx = request.getfixturevalue(fixture)
    coloring = solve_good_coloring(cx)
    for colors in (coloring.colors, {**coloring.colors, 0: 1 - coloring.colors[0]}):
        recolored = EdgeColoring(colors=colors, base_vertex=0, seed=())
        assert _lowest_vertex_per_signature(cx, recolored, (2, 4) * (cx.p // 2))


def test_validate_computes_findings_once_per_complex(monkeypatch):
    rect = build_rect_tessellation(8, 1, 2)
    computed = _count_calls(monkeypatch, fqsurf.surface_complex, "_axiom_findings")
    out, _smap = subdivide_two(rect, axis=1)
    # the builder already validated rect; only the subdivided complex is new
    assert len(computed) == 1 and computed[0][0] is out
    validate(out)
    assert len(computed) == 1


def test_cached_validation_still_compares_the_genus():
    cx = build_block_tessellation(6, 2)
    assert validate(cx).passed
    report = validate(cx, expected_genus=3)
    assert report.tags() == ["GenusMismatch"]
    assert report.failures[0].detail == "computed genus 2, expected 3"
    assert report.genus == 2
    assert validate(cx, expected_genus=2).passed


def test_cached_validation_keeps_the_finding_order():
    cx = make_twelve_gon()
    first = [f.tag for f in validate(cx).failures]
    assert first == ["VertexTypeAlternation", "FaceLabeling"]
    tags = [f.tag for f in validate(cx, expected_genus=7).failures]
    assert tags == ["VertexTypeAlternation", "GenusMismatch", "FaceLabeling"]


def test_subdivision_builds_and_validates_once(monkeypatch):
    rect = build_rect_tessellation(8, 1, 2)
    built = _count_calls(monkeypatch, fqsurf.tessellation, "SurfaceComplex")
    validated = _count_calls(monkeypatch, fqsurf.tessellation, "validate")
    dual = [
        _count_calls(monkeypatch, fqsurf.coloring, "dual_graph"),
        _count_calls(monkeypatch, fqsurf.surface_complex, "dual_graph"),
    ]
    out, _smap = subdivide_two(rect, axis=1)
    assert len(built) == 1
    # the entry check on the input, then the subdivided complex
    assert len(validated) == 2
    assert validated[0][0] is rect and validated[1][0] is out
    assert dual == [[], []]


@pytest.mark.parametrize(
    "p, q, genus, method",
    [
        (6, (2, 3) * 3, 17, "Block"),
        (8, (2, 4) * 4, 32, "Subdiv2"),
        (12, (2, 4) * 6, 66, "Subdiv4"),
    ],
)
def test_certified_decide_builds_no_edge_or_face_records(monkeypatch, p, q, genus, method):
    """The builders write flat tables and every pass reads them, so no
    ``edges`` or ``faces`` record is made."""
    edges = _count_calls(monkeypatch, fqsurf.surface_complex, "Edge")
    faces = _count_calls(monkeypatch, fqsurf.surface_complex, "Face")
    verdict = decide(p, q, genus, certify=True)
    assert (verdict.outcome, verdict.method) == ("Exists", method)
    assert edges == [] and faces == []
    # the counters do see the records that a read of the public API builds
    cx = build_block_tessellation(6, 2)
    assert len(cx.edges) == len(edges) == 12 and len(cx.faces) == len(faces) == 4


ACCESSORS = (
    "edge_type", "tail_vertex", "head_vertex", "rotation", "continue_through",
    "straight_continuation", "vertex_type_pair",
)


def _count_accessor_calls(monkeypatch):
    """Wrap every per-element accessor of SurfaceComplex with a counter.

    Returns the list of (accessor, complex, args) calls.
    """
    calls = []
    for name in ACCESSORS:
        original = getattr(SurfaceComplex, name)

        def counted(cx, *args, _name=name, _original=original):
            calls.append((_name, cx, args))
            return _original(cx, *args)

        monkeypatch.setattr(SurfaceComplex, name, counted)
    return calls


def _distinct_ray_types(cx):
    """The distinct tuples of ray types, in rotation order, at cx's vertices."""
    return {tuple(cx.edges[e].type for e, _ in cx.rotation(v))
            for v in range(cx.num_vertices)}


@pytest.mark.parametrize(
    "p, q, genus, method",
    [
        (6, (2, 3) * 3, 17, "Block"),
        (8, (2, 4) * 4, 32, "Subdiv2"),
        (12, (2, 4) * 6, 66, "Subdiv4"),
    ],
)
def test_certified_decide_reads_the_tables_not_the_accessors(monkeypatch, p, q, genus,
                                                              method):
    derived = {}
    derive = SurfaceComplex._derive

    def recorded(cx):
        derived[id(cx)] = cx
        return derive(cx)

    monkeypatch.setattr(SurfaceComplex, "_derive", recorded)
    calls = _count_accessor_calls(monkeypatch)
    pairs = _count_calls(monkeypatch, fqsurf.surface_complex, "_type_pair")
    verdict = decide(p, q, genus, certify=True)
    assert (verdict.outcome, verdict.method) == ("Exists", method)
    # the coloring's seed reads the base vertex's rotation once
    assert [(name, args) for name, _cx, args in calls] == [("rotation", (0,))]
    # every complex needs one type pair per distinct ray-type tuple: no more
    # calls than that means validate and assign_groups share them
    assert len(pairs) == sum(len(_distinct_ray_types(cx)) for cx in list(derived.values()))


def test_validate_reads_one_type_pair_per_ray_type_tuple(monkeypatch):
    cx = build_block_tessellation(6, 17)
    distinct = _distinct_ray_types(cx)
    fresh = complex_from_dict(complex_to_dict(cx))
    calls = _count_accessor_calls(monkeypatch)
    pairs = _count_calls(monkeypatch, fqsurf.surface_complex, "_type_pair")
    assert validate(fresh, expected_genus=17).passed
    assert calls == []
    assert sorted(types for types, _p in pairs) == sorted(distinct)
    assert len(distinct) < cx.num_vertices
    assert assign_groups(fresh, solve_good_coloring(fresh), (2, 3) * 3).certified
    assert calls == [("rotation", fresh, (0,))]
    assert sorted(types for types, _p in pairs) == sorted(distinct)
