"""The result records are immutable named tuples, and importing the CLI
generates no dataclass code.

``RECORDS`` pins every record's field names in order; a field added,
dropped, renamed or moved shows up here as an edit.
"""

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

import fqsurf
from fqsurf import cli, coloring, lattice, loops, surface_complex, tessellation

SRC = Path(__file__).resolve().parent.parent / "src"

RECORDS = [
    (surface_complex, "Edge", ("id", "type")),
    (surface_complex, "Face", ("id", "chirality", "sides")),
    (surface_complex, "Finding", ("tag", "detail")),
    (surface_complex, "ValidationReport",
     ("passed", "failures", "euler_characteristic", "genus")),
    (surface_complex, "DualGraph", ("nodes", "edges")),
    (surface_complex, "TreeCotree", ("tree", "cotree", "x_edges", "images")),
    (loops, "GeodesicLoop",
     ("loop_id", "type", "directed_edges", "undirected_length", "parity", "degenerate")),
    (loops, "LoopReport",
     ("loops", "per_type_counts", "odd_loops", "pairwise_intersections",
      "hypotheses_ok")),
    (tessellation, "SubdivisionMap",
     ("pieces", "axis", "edge_splits", "chords", "midpoint_vertices",
      "center_vertices")),
    (coloring, "ParityConstraint", ("edge_a", "edge_b", "parity", "tag")),
    (coloring, "ParityConstraintSystem", ("variables", "constraints")),
    (coloring, "EdgeColoring", ("colors", "base_vertex", "seed", "solution_count")),
    (coloring, "ContradictionWitness", ("cycle",)),
    (coloring, "OrientationAssignment", ("colors", "odd_cycle")),
    (lattice, "AlternatingDecomposition", ("d", "e", "reduced")),
    (lattice, "VertexCheck",
     ("vertex", "types", "product_ok", "intersection_ok", "index_ok", "index_sums",
      "expected_sums")),
    (lattice, "LinkConditionReport", ("checks",)),
    (lattice, "GroupAssignment",
     ("cx", "q", "decomposition", "orders", "coloring", "edge_factors",
      "face_factors", "face_conflicts", "coloring_ok", "signatures",
      "vertex_checks", "certified")),
    (lattice, "LinkGraph",
     ("vertex", "types", "side_vertices", "edges", "simple", "complete",
      "sizes_ok")),
    (lattice, "Verdict", ("outcome", "method", "reason", "certificate")),
]

DEFAULTS = {
    "EdgeColoring": {"solution_count": None},
    "Verdict": {"certificate": None},
}

MODULES = [fqsurf, cli, coloring, lattice, loops, surface_complex, tessellation]

record_params = pytest.mark.parametrize(
    "module, name, fields", RECORDS, ids=[name for _, name, _ in RECORDS]
)


@record_params
def test_fields_are_pinned(module, name, fields):
    record = getattr(module, name)
    assert record.__name__ == name
    assert record._fields == fields
    assert record._field_defaults == DEFAULTS.get(name, {})


@record_params
def test_records_are_immutable_tuples(module, name, fields):
    values = tuple(range(len(fields)))
    instance = getattr(module, name)(*values)
    assert instance == values
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(instance, field, None)
    assert instance == values
    with pytest.raises(AttributeError):
        instance.not_a_field = None


@pytest.mark.parametrize("module", MODULES, ids=[m.__name__ for m in MODULES])
def test_no_module_attribute_is_a_dataclass(module):
    assert [n for n, v in vars(module).items() if dataclasses.is_dataclass(v)] == []


def test_cli_import_skips_dataclasses_inspect_and_typing():
    # -S keeps site .pth files, which may import typing themselves, out of it
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import fqsurf.cli; "
        "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    )
    run = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True, text=True, check=True,
    )
    assert run.stdout == "[]\n"
