"""The public API: ``fqsurf.__all__`` is pinned, and removed names stay gone.

Any export added to or dropped from the package shows up here as an edit to
``PUBLIC``; a name taken out of the library goes on ``REMOVED``.
"""

import pytest

import fqsurf
from fqsurf import coloring, lattice, loops, surface_complex

PUBLIC = [
    "AlternatingDecomposition", "BadDivisibility", "CCW", "CERT_FORMAT",
    "COLORING_FORMAT", "COMPLEX_FORMAT", "CW", "ConstructionFailure",
    "ContradictionWitness", "CutSystemFailure", "DanglingEdgeReference",
    "DegenerateLoop", "DualGraph", "DuplicateId", "Edge", "EdgeColoring", "Face",
    "Finding", "GeodesicLoop", "GroupAssignment", "IntegerMatrix",
    "LOOPS_FORMAT", "LinkConditionReport", "LinkGraph",
    "LoopReport", "NonIntegralFaceCount", "NotAlternatingNonCoprime",
    "NotGoodColoring", "OddPUnsupported", "OrientationAssignment",
    "ParityConstraint", "ParityConstraintSystem", "SUBDIV_FORMAT",
    "SubdivisionMap", "SurfaceComplex", "SymmetryViolation",
    "TooLargeForExhaustive", "ValidationReport", "Verdict", "VertexCheck",
    "WrongSideCount", "alternating_noncoprime", "assign_face_orientations",
    "assign_groups", "betti_numbers", "build_block_tessellation",
    "build_certificate", "build_complex", "build_constraints", "build_link_graph",
    "build_rect_tessellation", "canonical_json", "coloring", "coloring_from_dict",
    "coloring_to_dict", "complex_from_dict", "complex_from_matchings",
    "complex_to_dict", "decide", "derived_sequence", "dual_graph", "face_count",
    "is_symmetric", "lattice", "loop_obstructions", "loop_report_to_dict", "loops",
    "loops_generate_h1", "pairwise_intersections", "smith_normal_form",
    "solve_good_coloring", "subdivide_four", "subdivide_two",
    "subdivision_map_to_dict", "surface_complex", "symmetric_axes",
    "symmetry_closure", "tessellation", "trace_geodesic_loops", "validate",
    "verdict_to_dict", "verify_good_coloring", "verify_link_conditions",
    "witness_to_dict",
]

# names taken out of the library.  The test-only API first: the tests keep
# their own sparse boundary builder and matrix product in conftest.
REMOVED = [
    (fqsurf, "boundary_matrices"),
    (surface_complex, "boundary_matrices"),
    (surface_complex.IntegerMatrix, "zeros"),
    (surface_complex.IntegerMatrix, "identity"),
    (surface_complex.IntegerMatrix, "mul"),
    (surface_complex.IntegerMatrix, "mul_vec"),
    (surface_complex.IntegerMatrix, "is_zero"),
    (surface_complex.SurfaceComplex, "directed_boundary"),
    (loops.GeodesicLoop, "as_one_cycle"),
    (loops.GeodesicLoop, "edge_ids"),
    (loops.LoopReport, "loop"),
    (coloring.ContradictionWitness, "total_parity"),
    (coloring.ContradictionWitness, "edge_ids"),
    (lattice.LinkConditionReport, "failing_vertices"),
    (lattice.LinkGraph, "side_sizes"),
    # forced symmetries are plain axes and orbits; a face side is a plain pair
    (fqsurf, "IndexMap"),
    (fqsurf, "IndexSymmetry"),
    (fqsurf, "Side"),
    (lattice, "IndexMap"),
    (lattice, "IndexSymmetry"),
    (surface_complex, "Side"),
]


def test_all_is_pinned():
    assert sorted(fqsurf.__all__) == PUBLIC


@pytest.mark.parametrize(
    "owner, name", REMOVED, ids=[f"{owner.__name__}.{name}" for owner, name in REMOVED]
)
def test_removed_name_is_gone(owner, name):
    assert not hasattr(owner, name)
