"""Geodesic loops in the 1-skeleton and what they generate.

A geodesic loop continues straight through every vertex: the successor of a
directed edge is the ray two steps around the clockwise rotation at its head,
which at a degree-4 vertex is the unique continuation leaving the crossing
pair untouched.  The successor map is a permutation of directed edges, its
cycles come in reversal pairs, and each pair is one undirected loop.  A cycle
equal to its own reversal traverses some edge in both senses; such loops are
flagged degenerate and disqualify the complex from the coloring hypotheses.

Also here: pairwise loop intersection counts and the check that the loops
(together with face boundaries) generate all of H1.  The H1 check
reduces the chain complex by tree-cotree decomposition
(:func:`fqsurf.surface_complex.tree_cotree`, after Eppstein, "Dynamic
generators of topologically embedded graphs", SODA 2003, and Erickson and
Whittlesey, "Greedy optimal homotopy and homology generators", SODA 2005),
so Smith normal form runs only on the loops' coordinates over the 2g
leftover edges.
"""

import itertools
from collections import namedtuple

from .surface_complex import IntegerMatrix, smith_normal_form, tree_cotree


class GeodesicLoop(namedtuple(
    "GeodesicLoop", "loop_id type directed_edges undirected_length parity degenerate"
)):
    __slots__ = ()

    def vertex_ids(self, cx):
        tail = cx._derive().tail
        return {tail[d] for d in cx._darts(self.directed_edges)}


# pairwise_intersections holds the shared-vertex counts for each unordered
# pair of loops that meet, keyed by position in `loops`
LoopReport = namedtuple(
    "LoopReport",
    "loops per_type_counts odd_loops pairwise_intersections hypotheses_ok",
)


def trace_geodesic_loops(cx):
    """Trace every geodesic loop and assemble the hypothesis report.

    The report is computed on the first call for a complex and cached on it;
    every later call returns the same shared LoopReport, which callers must
    treat as read-only.  Each loop's cycle of darts is kept beside it, so
    the passes that read the report's loops need not convert their
    directed edges back.
    """
    if cx._loop_report is not None:
        return cx._loop_report
    straight = cx._derive().straight
    edge_types = cx._edge_types
    # darts 2e and 2e + 1 are (e, forward) and (e, backward), so this walks
    # directed edges in (id, forward first) order
    visited = bytearray(len(straight))
    loops = []
    cycles = []
    for start in range(len(straight)):
        if visited[start]:
            continue
        cycle = [start]
        d = straight[start]
        while d != start:
            cycle.append(d)
            d = straight[d]
        edge_ids = {d >> 1 for d in cycle}
        degenerate = len(edge_ids) < len(cycle)
        for d in cycle:
            visited[d] = 1
            if not degenerate:
                # retire the reversed twin so the loop is reported once
                visited[d ^ 1] = 1
        types = {edge_types[e] for e in edge_ids}
        length = len(edge_ids)
        cycles.append(cycle)
        loops.append(
            GeodesicLoop(
                loop_id=len(loops),
                type=types.pop() if len(types) == 1 else None,
                directed_edges=tuple([(d >> 1, not d & 1) for d in cycle]),
                undirected_length=length,
                parity="odd" if length % 2 else "even",
                degenerate=degenerate,
            )
        )

    counts = {}
    for lp in loops:
        counts[lp.type] = counts.get(lp.type, 0) + 1
    odd = [lp.loop_id for lp in loops if lp.parity == "odd"]
    cx._loop_darts = (loops, cycles)
    inter = pairwise_intersections(cx, loops)
    ok = (
        not odd
        and not any(lp.degenerate for lp in loops)
        and all(n <= 1 for n in inter.values())
    )
    cx._loop_report = LoopReport(
        loops=loops,
        per_type_counts=counts,
        odd_loops=odd,
        pairwise_intersections=inter,
        hypotheses_ok=ok,
    )
    return cx._loop_report


def _dart_cycles(cx, loops):
    """The dart cycles of ``loops``, to be read once in order: the ones the
    trace kept when ``loops`` is the list it traced, else each loop's
    directed edges as darts, with ValueError naming the first one that
    ``cx`` lacks."""
    kept = cx._loop_darts
    if kept is not None and kept[0] is loops:
        return kept[1]
    return (cx._darts(lp.directed_edges) for lp in loops)


def pairwise_intersections(cx, loops):
    """Shared-vertex counts for each unordered pair of loops that meet,
    keyed by position in `loops`; pairs that share no vertex are absent.
    ValueError names the first directed edge that ``cx`` lacks."""
    tail = cx._derive().tail
    on_vertex = {}
    for i, cycle in enumerate(_dart_cycles(cx, loops)):
        for v in {tail[d] for d in cycle}:
            on_vertex.setdefault(v, []).append(i)
    out = {}
    for members in on_vertex.values():
        for pair in itertools.combinations(members, 2):
            out[pair] = out.get(pair, 0) + 1
    return out


def loops_generate_h1(cx, loops):
    """Do the loops plus face boundaries generate H1 of the surface?

    The loops must be cycles (zero boundary), and ValueError names the
    first directed edge that ``cx`` lacks.  The chain complex is then
    reduced by tree-cotree decomposition (:func:`tree_cotree`, after
    Eppstein, SODA 2003, and Erickson and Whittlesey, SODA 2005): each loop
    maps to Z^X over the leftover edges X, and H1 of a closed (so oriented)
    complex is Z^X itself.  True iff :func:`smith_normal_form` of the loop
    coordinates, summed straight into |X| = 2g rows per closed component
    and one column per loop, has rank |X| and every invariant factor 1.
    """
    red = tree_cotree(cx)
    tail = cx._derive().tail
    darts = []
    for cycle in _dart_cycles(cx, loops):
        darts.append(cycle)
        boundary = {}
        for d in cycle:
            head, start = tail[d ^ 1], tail[d]
            boundary[head] = boundary.get(head, 0) + 1
            boundary[start] = boundary.get(start, 0) - 1
        if any(boundary.values()):
            return False
    row_of = {e: r for r, e in enumerate(red.x_edges)}
    rows = [{} for _ in red.x_edges]
    for j, cycle in enumerate(darts):
        for d in cycle:
            sign = -1 if d & 1 else 1
            for x, c in red.images[d >> 1].items():
                row = rows[row_of[x]]
                row[j] = row.get(j, 0) + sign * c
    diag, rank = smith_normal_form(IntegerMatrix.from_rows(rows, len(loops)))
    return rank == len(red.x_edges) and all(d in (0, 1) for d in diag)


LOOPS_FORMAT = "fq-loops/1"


def loop_report_to_dict(report):
    inter = [
        {"a": i, "b": j, "vertices": n}
        for (i, j), n in sorted(report.pairwise_intersections.items())
    ]
    return {
        "format": LOOPS_FORMAT,
        "loops": [
            {
                "id": lp.loop_id,
                "type": lp.type,
                "length": lp.undirected_length,
                "parity": lp.parity,
                "degenerate": lp.degenerate,
                "edges": [[e, fwd] for e, fwd in lp.directed_edges],
            }
            for lp in report.loops
        ],
        "per_type_counts": {
            ("untyped" if t is None else str(t)): n
            for t, n in report.per_type_counts.items()
        },
        "odd_loops": report.odd_loops,
        "intersections": inter,
        "hypotheses_ok": report.hypotheses_ok,
    }
