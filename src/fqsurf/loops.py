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

from .surface_complex import smith_normal_form, tree_cotree


class GeodesicLoop(namedtuple(
    "GeodesicLoop", "loop_id type directed_edges undirected_length parity degenerate"
)):
    __slots__ = ()

    def vertex_ids(self, cx):
        return {cx.tail_vertex(d) for d in self.directed_edges}


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
    treat as read-only.
    """
    if cx._loop_report is not None:
        return cx._loop_report
    # edges are stored by id, so this walks directed edges in (id, forward first) order
    order = [(e.id, fwd) for e in cx.edges for fwd in (True, False)]
    visited = set()
    loops = []
    for start in order:
        if start in visited:
            continue
        cycle = [start]
        visited.add(start)
        cur = cx.straight_continuation(start)
        while cur != start:
            cycle.append(cur)
            visited.add(cur)
            cur = cx.straight_continuation(cur)
        edge_ids = {e for e, _ in cycle}
        degenerate = len(edge_ids) < len(cycle)
        if not degenerate:
            # retire the reversed twin so the loop is reported once
            for e, fwd in cycle:
                visited.add((e, not fwd))
        types = {cx.edge_type(e) for e in edge_ids}
        length = len(edge_ids)
        loops.append(
            GeodesicLoop(
                loop_id=len(loops),
                type=types.pop() if len(types) == 1 else None,
                directed_edges=tuple(cycle),
                undirected_length=length,
                parity="odd" if length % 2 else "even",
                degenerate=degenerate,
            )
        )

    counts = {}
    for lp in loops:
        counts[lp.type] = counts.get(lp.type, 0) + 1
    odd = [lp.loop_id for lp in loops if lp.parity == "odd"]
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


def pairwise_intersections(cx, loops):
    """Shared-vertex counts for each unordered pair of loops that meet,
    keyed by position in `loops`; pairs that share no vertex are absent."""
    on_vertex = {}
    for i, lp in enumerate(loops):
        for v in lp.vertex_ids(cx):
            on_vertex.setdefault(v, []).append(i)
    out = {}
    for members in on_vertex.values():
        for pair in itertools.combinations(members, 2):
            out[pair] = out.get(pair, 0) + 1
    return out


def loops_generate_h1(cx, loops):
    """Do the loops plus face boundaries generate H1 of the surface?

    The loops must be cycles (zero boundary).  The chain complex is then
    reduced by tree-cotree decomposition (:func:`tree_cotree`, after
    Eppstein, SODA 2003, and Erickson and Whittlesey, SODA 2005): each loop
    maps to Z^X over the leftover edges X, and H1 of a closed (so oriented)
    complex is Z^X itself.  True iff :func:`smith_normal_form` of the loop
    coordinates, |X| = 2g rows per closed component, has rank |X| and every
    invariant factor 1.
    """
    red = tree_cotree(cx)
    for lp in loops:
        boundary = {}
        for d in lp.directed_edges:
            head, tail = cx.head_vertex(d), cx.tail_vertex(d)
            boundary[head] = boundary.get(head, 0) + 1
            boundary[tail] = boundary.get(tail, 0) - 1
        if any(boundary.values()):
            return False
    coords = []
    for lp in loops:
        col = {}
        for e, fwd in lp.directed_edges:
            sign = 1 if fwd else -1
            for x, c in red.images[e].items():
                col[x] = col.get(x, 0) + sign * c
        coords.append(col)
    diag, rank = smith_normal_form(red.matrix(coords))
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
