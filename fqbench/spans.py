"""Span recorder for the traced benchmark run.

The recorder lives entirely in the benchmark: it wraps public fqsurf
functions by rebinding the name in every fqsurf module that imported it
(``trace_geodesic_loops``, for instance, is bound separately in
``tessellation``, ``coloring``, ``lattice`` and ``cli``).  Each call made
while an instance is open becomes a span ``[name, start, end, parent,
instance, excluded]``; calls outside an instance (the benchmark's own
output checks) pass straight through and are not recorded.

Work and waste counters are read from argument and return sizes at the
wrapped calls.  The time a counter takes is added to the parent span's
``excluded`` field, so it is not charged to any layer.
"""

import functools
import os
from collections import Counter
from time import perf_counter

# Span group -> (defining module, public name) pairs it covers.  A group's
# self time is the span time minus the time covered by its child spans.
LAYERS = {
    "surface_complex.validate": [("surface_complex", "validate")],
    "surface_complex.build_complex": [("surface_complex", "build_complex")],
    "surface_complex.snf": [
        ("surface_complex", "smith_normal_form"),
        ("surface_complex", "snf_with_transforms"),
    ],
    "surface_complex.betti": [("surface_complex", "betti_numbers")],
    "surface_complex.json_encode": [("surface_complex", "canonical_json")],
    "surface_complex.complex_from_dict": [("surface_complex", "complex_from_dict")],
    "surface_complex.complex_to_dict": [("surface_complex", "complex_to_dict")],
    "surface_complex.dual_graph": [("surface_complex", "dual_graph")],
    "tessellation.build": [
        ("tessellation", "build_block_tessellation"),
        ("tessellation", "build_rect_tessellation"),
    ],
    "tessellation.subdivide": [
        ("tessellation", "subdivide_two"),
        ("tessellation", "subdivide_four"),
    ],
    "loops.trace": [("loops", "trace_geodesic_loops")],
    "loops.pairwise": [("loops", "pairwise_intersections")],
    "loops.h1": [("loops", "loops_generate_h1")],
    "coloring.constraints": [("coloring", "build_constraints")],
    "coloring.solve": [("coloring", "solve_good_coloring")],
    "coloring.verify": [("coloring", "verify_good_coloring")],
    "lattice.assign": [("lattice", "assign_groups")],
    "lattice.link_arith": [("lattice", "verify_link_conditions")],
    "lattice.link_coset": [("lattice", "build_link_graph")],
    "lattice.certificate": [("lattice", "build_certificate")],
    "lattice.decide": [("lattice", "decide")],
    "cli.main": [("cli", "main")],
    # The CLI's file helpers are private; they are wrapped only to split
    # file I/O out of cli.main's self time.
    "cli.file_read": [("cli", "_read_json")],
    "cli.file_write": [("cli", "_write_text")],
}

ROOT_SPAN = "bench.instance"

# Work counters reported per pass, with their units.  The counter
# loops.pairs_nonzero is kept too, but reported only as the numerator of
# loops.pairs_nonzero_ratio: which loop pairs meet is fixed by the output.
COUNT_METRICS = {
    "loops.loops_traced": "count",
    "loops.pairs_counted": "count",
    "surface_complex.snf_cells": "count",
    "coloring.constraints_count": "count",
    "lattice.cosets_enumerated": "count",
    "surface_complex.json_bytes_written": "bytes",
    "cli.json_bytes_read": "bytes",
}


def _count_trace(rec, args, out):
    rec.counts["loops.loops_traced"] += len(out.loops)
    cx = args[0]
    rec.shape(cx, len(out.loops))


def _count_pairwise(rec, args, out):
    rec.counts["loops.pairs_counted"] += len(out)
    rec.counts["loops.pairs_nonzero"] += sum(1 for n in out.values() if n)


def _count_h1(rec, args, out):
    rec.shape(args[0], len(args[1]))


def _count_snf(rec, args, out):
    rec.counts["surface_complex.snf_cells"] += args[0].rows * args[0].cols


def _count_constraints(rec, args, out):
    rec.counts["coloring.constraints_count"] += len(out.constraints)


def _count_cosets(rec, args, out):
    sides = sum(len(vs) for vs in out.side_vertices.values())
    rec.counts["lattice.cosets_enumerated"] += sides + len(out.edges)


def _count_json(rec, args, out):
    rec.counts["surface_complex.json_bytes_written"] += len(out)


def _count_read(rec, args, out):
    rec.counts["cli.json_bytes_read"] += os.path.getsize(args[0])


COUNTERS = {
    "trace_geodesic_loops": _count_trace,
    "pairwise_intersections": _count_pairwise,
    "loops_generate_h1": _count_h1,
    "smith_normal_form": _count_snf,
    "snf_with_transforms": _count_snf,
    "build_constraints": _count_constraints,
    "build_link_graph": _count_cosets,
    "canonical_json": _count_json,
    "_read_json": _count_read,
}


class Recorder:
    """In-memory spans and counters for one traced benchmark process."""

    def __init__(self):
        self.spans = []
        self.instances = []
        self.shapes = {}
        self.counts = Counter()
        self._stack = []

    def install(self, mods, warn):
        """Wrap every function in LAYERS, in every module that binds it."""
        for group, targets in LAYERS.items():
            for modname, attr in targets:
                original = getattr(getattr(mods, modname), attr, None)
                if original is None:
                    warn(f"trace: {modname}.{attr} not found; {group} not traced")
                    continue
                wrapper = self._wrap(group, original, COUNTERS.get(attr))
                for mod in mods.all_modules():
                    if getattr(mod, attr, None) is original:
                        setattr(mod, attr, wrapper)

    def _wrap(self, group, fn, counter):
        rec = self
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            parent = stack[-1]
            span = [group, 0.0, 0.0, parent, spans[parent][4], 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                counter(rec, args, out)
                spans[parent][5] += perf_counter() - span[2]
            return out

        return wrapper

    def begin(self, pass_index, key):
        """Open the root span of one instance."""
        self._key = key
        self.instances.append((pass_index, key))
        self._stack.append(len(self.spans))
        self.spans.append([ROOT_SPAN, perf_counter(), 0.0, None, len(self.instances) - 1, 0.0])

    def end(self):
        self.spans[self._stack.pop()][2] = perf_counter()

    def shape(self, cx, num_loops):
        """Remember (F, E, V, loops) of the last complex the instance traced."""
        self.shapes[self._key] = (cx.num_faces, cx.num_edges, cx.num_vertices, num_loops)

    def self_times(self):
        """Per pass: {group: [self seconds, calls]} over the recorded spans."""
        covered = [span[5] for span in self.spans]
        for span in self.spans:
            if span[3] is not None:
                covered[span[3]] += span[2] - span[1]
        per_pass = {}
        for span, cover in zip(self.spans, covered):
            pass_index = self.instances[span[4]][0]
            entry = per_pass.setdefault(pass_index, {}).setdefault(span[0], [0.0, 0])
            entry[0] += span[2] - span[1] - cover
            entry[1] += 1
        return per_pass
