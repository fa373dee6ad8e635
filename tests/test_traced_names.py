"""Every name the traced benchmark wraps still exists in the library, and
every work counter it attaches still reads the library's results.

``fqbench/spans.py`` wraps fqsurf functions by ``(module, name)``, and a
traced run reports a name it cannot find instead of failing.  Its counters
read fields of the wrapped calls' arguments and results, and only a traced
run calls them.  These tests read that file (run from source, so nothing is
written under ``fqbench``) and fail as soon as a wrapped name is renamed or
deleted, or a field a counter reads is.
"""

import importlib
import runpy
from pathlib import Path

import pytest

from fqsurf import cli
from fqsurf.coloring import build_constraints, solve_good_coloring
from fqsurf.lattice import assign_groups, build_link_graph
from fqsurf.loops import loops_generate_h1, pairwise_intersections, trace_geodesic_loops
from fqsurf.surface_complex import (
    IntegerMatrix,
    canonical_json,
    complex_to_dict,
    smith_normal_form,
    snf_with_transforms,
)
from fqsurf.tessellation import build_block_tessellation

SPANS = Path(__file__).resolve().parents[1] / "fqbench" / "spans.py"
NAMESPACE = runpy.run_path(str(SPANS))
LAYERS = NAMESPACE["LAYERS"]
COUNTERS = NAMESPACE["COUNTERS"]
WRAPPED = sorted({pair for pairs in LAYERS.values() for pair in pairs})


@pytest.mark.parametrize("module,name", WRAPPED, ids=[f"{m}.{n}" for m, n in WRAPPED])
def test_wrapped_name_is_a_callable_in_fqsurf(module, name):
    target = importlib.import_module(f"fqsurf.{module}")
    assert callable(getattr(target, name, None))


def _real_calls(tmp_path):
    """name -> (function, args): one real call of each counted function."""
    cx = build_block_tessellation(6, 2)
    report = trace_geodesic_loops(cx)
    matrix = IntegerMatrix([[2, 4, 4], [-6, 6, 12]])
    assignment = assign_groups(cx, solve_good_coloring(cx), (2, 3) * 3)
    path = tmp_path / "block.json"
    path.write_text(canonical_json(complex_to_dict(cx)))
    return {
        "trace_geodesic_loops": (trace_geodesic_loops, (cx,)),
        "pairwise_intersections": (pairwise_intersections, (cx, report.loops)),
        "loops_generate_h1": (loops_generate_h1, (cx, report.loops)),
        "smith_normal_form": (smith_normal_form, (matrix,)),
        "snf_with_transforms": (snf_with_transforms, (matrix,)),
        "build_constraints": (build_constraints, (cx, report)),
        "build_link_graph": (build_link_graph, (assignment, 0)),
        "canonical_json": (canonical_json, (complex_to_dict(cx),)),
        "_read_json": (cli._read_json, (str(path),)),
    }


@pytest.mark.parametrize("name", sorted(COUNTERS))
def test_counter_reads_a_real_call(name, tmp_path):
    function, args = _real_calls(tmp_path)[name]
    recorder = NAMESPACE["Recorder"]()
    recorder.begin(0, "instance")
    COUNTERS[name](recorder, args, function(*args))
    assert recorder.counts or recorder.shapes
