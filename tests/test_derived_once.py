"""Derived structures are computed once per complex and then shared."""

import pytest

import fqsurf.lattice
import fqsurf.loops
import fqsurf.surface_complex
import fqsurf.tessellation
from fqsurf.coloring import solve_good_coloring
from fqsurf.lattice import build_certificate, decide
from fqsurf.loops import trace_geodesic_loops
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


def test_subdivision_builds_and_validates_once(monkeypatch):
    rect = build_rect_tessellation(8, 1, 2)
    built = _count_calls(monkeypatch, fqsurf.tessellation, "build_complex")
    validated = _count_calls(monkeypatch, fqsurf.tessellation, "validate")
    dual = [
        _count_calls(monkeypatch, fqsurf.loops, "dual_graph"),
        _count_calls(monkeypatch, fqsurf.surface_complex, "dual_graph"),
    ]
    out, _smap = subdivide_two(rect, axis=1)
    assert len(built) == 1
    # the entry check on the input, then the subdivided complex
    assert len(validated) == 2
    assert validated[0][0] is rect and validated[1][0] is out
    assert dual == [[], []]
