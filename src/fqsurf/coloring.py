"""Two-coloring of edges: the alternating and consistency conditions.

A *good coloring* assigns 0/1 to every edge so that colors alternate along
each geodesic loop and, for an oriented loop, the hanging edges on one side
all agree (likewise the other side).  Both conditions are parity relations
between pairs of edges, so the whole problem is a parity constraint system:
alternating pairs differ (parity 1), same-side hanging pairs agree
(parity 0).  Each relation is stated once, as a ``ParityConstraint`` named
tuple, lesser edge first.  A coloring exists iff no constraint cycle has
odd total parity.

The ``propagate`` solver never builds that system.  On an even loop,
colors alternate exactly when edge k has color ``phase ^ (k & 1)`` for one
phase bit per loop, and each edge lies on one loop.  A hanging-edge
relation then ties two loops' phases, and the phases are transported
breadth first over those ties.  An odd loop, or a tie whose phases
disagree, is a contradiction, and the walk spells out its odd cycle in
relations of the system as a witness.

The face orientations 2-color the dual graph on the same walk: chirality
alternates across each dual edge, one parity-1 tie over face ids.

Hanging edges are read from the ``left`` and ``right`` tables of
``SurfaceComplex._derive``, fetched once per pass: the edges one step round
the rotation either way from the reversal of a passage, as
``SurfaceComplex.continue_through`` turns 1 and -1.
"""

from bisect import bisect
from collections import namedtuple
from itertools import accumulate, chain, compress
from operator import attrgetter, eq, itemgetter, ne, not_

from .loops import _dart_cycles, trace_geodesic_loops
from .surface_complex import _require_int, dual_graph


class DegenerateLoop(ValueError):
    """A geodesic loop folds back on itself; coloring is undefined."""


class TooLargeForExhaustive(ValueError):
    """Exhaustive search is capped at 22 edges."""


EXHAUSTIVE_EDGE_LIMIT = 22

ALTERNATING = "alternating"
CONSISTENCY = "consistency"


ParityConstraint = namedtuple("ParityConstraint", "edge_a edge_b parity tag")


# the relations of ``build_constraints``, over the dense edge ids as variables
ParityConstraintSystem = namedtuple("ParityConstraintSystem", "variables constraints")


def _degree_error(tables, d):
    """The error for a passage along dart d whose head has degree other than 4."""
    v = tables.tail[d ^ 1]
    return ValueError(f"vertex {v} has degree {len(tables.rotations[v])}, not 4")


def _hanging_edges(cx, cycle):
    """Edge ids hanging off a loop of the complex, given as its dart cycle,
    at each passage: (lefts, rights).

    Left and right are defined only at a degree-4 head vertex.
    """
    tables = cx._derive()
    left, right = tables.left, tables.right
    lefts = []
    rights = []
    for d in cycle:
        if left[d] < 0:
            raise _degree_error(tables, d)
        lefts.append(left[d])
        rights.append(right[d])
    return lefts, rights


def _relation(a, b, parity, tag):
    """The relation between edges a and b, lesser edge first."""
    return ParityConstraint(min(a, b), max(a, b), parity, tag)


def _alternations(edges, start, steps):
    """The alternating relations of ``steps`` steps round a loop's edges,
    from position ``start``."""
    n = len(edges)
    return [
        _relation(edges[k % n], edges[(k + 1) % n], 1, ALTERNATING)
        for k in range(start, start + steps)
    ]


def build_constraints(cx, loop_report):
    """Parity constraints for the good-coloring conditions.

    Alternating: consecutive edges of each loop differ.  Consistency: the
    left hanging edges at consecutive visited vertices agree, and likewise
    the right ones, chained cyclically around the loop.  Each relation
    (unordered pair, tag) is stated once, lesser edge first, where it first
    appears: a loop of length 2 names its one pair twice, and a loop that
    passes another twice meets the same hanging pairs again.
    """
    relations = {}
    loops = loop_report.loops
    for loop, cycle in zip(loops, _dart_cycles(cx, loops)):
        if loop.degenerate:
            raise DegenerateLoop(
                f"loop {loop.loop_id} folds back on itself"
            )
        edges = [d >> 1 for d in cycle]
        for relation in _alternations(edges, 0, len(edges)):
            relations[relation] = None
        for side in _hanging_edges(cx, cycle):
            for a, b in zip(side, side[1:] + side[:1]):
                relations[_relation(a, b, 0, CONSISTENCY)] = None
    return ParityConstraintSystem(tuple(range(cx.num_edges)), tuple(relations))


class EdgeColoring(namedtuple(
    "EdgeColoring", "colors base_vertex seed solution_count", defaults=(None,)
)):
    """A total 0/1 coloring plus how it was seeded."""

    __slots__ = ()

    def color_of(self, edge_id):
        return self.colors[edge_id]


# a closed chain of constraints, as a tuple, whose parities sum to 1
ContradictionWitness = namedtuple("ContradictionWitness", "cycle")


def _seed_priorities(cx):
    """The paper's base-point seeding: four rays in counterclockwise order
    get colors 0, 0, 1, 1.  Rotations are stored clockwise, so reverse.

    The base vertex 0 has degree 4: every vertex is the head of a passage
    of some loop, and the loop walks that precede seeding raise on any
    other degree.  Raises ValueError for a complex with no vertices: a
    coloring records its base vertex, and such a complex has none.
    """
    if cx.num_vertices == 0:
        raise ValueError("the complex has no vertices, so no base vertex to seed from")
    (e0, _), (e1, _), (e2, _), (e3, _) = cx.rotation(0)
    return 0, [(e0, 0), (e3, 0), (e2, 1), (e1, 1)]


def _two_color(n, ties, roots):
    """Breadth-first parity transport over nodes 0..n-1: (phases, None), or
    (None, labels) at the first tie whose phases disagree.

    ``ties[u]`` lists ``(w, parity, x, y)``, the label ``x, y`` oriented
    from u to w.  Components are rooted at each given (node, phase) in
    order, then at each unphased node in increasing order with phase 0.
    The labels run round the cycle that the disagreeing tie closes through
    the tree, that tie's first, each oriented along the cycle.
    """
    phase = [None] * n
    parent = [None] * n  # (node, x, y): the tie a node was reached by
    for root, root_phase in [*roots, *((v, 0) for v in range(n))]:
        if phase[root] is not None:
            continue
        phase[root] = root_phase
        queue = [root]
        for u in queue:
            p = phase[u]
            for w, parity, x, y in ties[u]:
                if phase[w] is None:
                    phase[w] = p ^ parity
                    parent[w] = (u, x, y)
                    queue.append(w)
                elif phase[w] != p ^ parity:
                    return None, _closed_cycle(parent, u, w, (x, y))
    return phase, None


def _closed_cycle(parent, u, w, label):
    """The labels of the tie u -> w, then up the tree from w to an ancestor
    of u, then down to u."""
    ancestry = [u]
    while parent[ancestry[-1]] is not None:
        ancestry.append(parent[ancestry[-1]][0])
    meet = set(ancestry)
    labels = [label]
    while w not in meet:
        w, x, y = parent[w]
        labels.append((y, x))
    labels += [parent[v][1:] for v in reversed(ancestry[:ancestry.index(w)])]
    return labels


def _exhaustive(cx, system, walked):
    """Pruned scan of all assignments in lexicographic edge-id order.

    Each constraint is checked where its later edge, ``edge_b``, is colored;
    the variables are the dense edge ids.  An edge's constraint with itself
    compares its color with itself, so parity 1 prunes every branch there.
    With no solution, the phase walk's result ``walked`` must be a witness.
    """
    n = len(system.variables)
    by_later = [[] for _ in range(n)]
    for a, b, parity, _tag in system.constraints:
        by_later[b].append((a, parity))
    assignment = [0] * n

    def solutions(k):
        if k == n:
            yield tuple(assignment)
            return
        for color in (0, 1):
            assignment[k] = color
            if all(assignment[j] ^ color == parity for j, parity in by_later[k]):
                yield from solutions(k + 1)

    found = solutions(0)
    best = next(found, None)
    if best is None:
        if isinstance(walked, ContradictionWitness):
            return walked
        raise AssertionError("exhaustive found no solution but propagate did")
    base, priorities = _seed_priorities(cx)
    colors = dict(enumerate(best))
    seed = tuple((eid, colors[eid]) for eid, _c in priorities)
    return EdgeColoring(
        colors=colors, base_vertex=base, seed=seed,
        solution_count=1 + sum(1 for _ in found),
    )


def _phase_coloring(cx, report):
    """The loop-phase walk: an ``EdgeColoring`` or a ``ContradictionWitness``.

    One pass over the loops, in order, raises what ``build_constraints``
    raises and records each edge's loop, its position bit and the left
    hanging edge of its passage.  A loop's left hanging edges must share a
    color, so each consecutive pair ties the phases of their loops.  The
    right ones then agree as well: at each passage the right hanging edge
    follows the left one on the crossing loop, so their colors differ.
    Phases are transported breadth first over the ties, rooted at each seed
    priority in order, then at each unphased loop in increasing order with
    phase 0: loops start in increasing edge order at their least edge, so
    that colors its least edge 0.

    The first odd loop's witness is its alternating relations; that of a
    tie whose phases disagree, the cycle it closes, each tie as its
    consistency relation and each loop between two as its alternating
    relations from the entry edge on to the exit edge.
    """
    loops = report.loops
    tables = cx._derive()
    left = tables.left
    cycles = []
    loop_of = [0] * cx.num_edges
    bit = [0] * cx.num_edges
    lefts = []
    for i, (loop, cycle) in enumerate(zip(loops, _dart_cycles(cx, loops))):
        if loop.degenerate:
            raise DegenerateLoop(f"loop {loop.loop_id} folds back on itself")
        cycles.append(cycle)
        side = []
        for k, d in enumerate(cycle):
            if left[d] < 0:
                raise _degree_error(tables, d)
            side.append(left[d])
            loop_of[d >> 1] = i
            bit[d >> 1] = k & 1
        lefts.append(side)
    if report.odd_loops:
        edges = [d >> 1 for d in cycles[report.odd_loops[0]]]
        return ContradictionWitness(tuple(_alternations(edges, 0, len(edges))))

    # (other loop, parity of the two phases, the two hanging edges) per tie
    ties = [[] for _ in loops]
    for side in lefts:
        for x, y in zip(side, side[1:]):
            u, w, parity = loop_of[x], loop_of[y], bit[x] ^ bit[y]
            ties[u].append((w, parity, x, y))
            ties[w].append((u, parity, y, x))

    base, priorities = _seed_priorities(cx)
    roots = [(loop_of[e], c ^ bit[e]) for e, c in priorities]
    phase, labels = _two_color(len(loops), ties, roots)
    if labels is not None:
        cycle = []
        for (x, y), (exit_edge, _y) in zip(labels, labels[1:] + labels[:1]):
            cycle.append(_relation(x, y, 0, CONSISTENCY))
            edges = [d >> 1 for d in cycles[loop_of[y]]]
            entry = edges.index(y)
            cycle += _alternations(edges, entry, (edges.index(exit_edge) - entry) % len(edges))
        return ContradictionWitness(tuple(cycle))
    colors = {e: phase[i] ^ b for e, (i, b) in enumerate(zip(loop_of, bit))}
    seed = tuple((e, colors[e]) for e, _c in priorities)
    return EdgeColoring(colors=colors, base_vertex=base, seed=seed)


def solve_good_coloring(cx, mode="propagate"):
    """Find a good coloring, or exhibit an odd constraint cycle.

    Both modes first walk the loops by phases, which raises what
    ``build_constraints`` raises.  ``propagate`` returns the walk's result:
    each geodesic loop gets one phase bit and colors its edges alternately
    from it, and the phases are transported breadth first over the ties
    that the hanging-edge relations make, from the canonical seeds.  On a
    contradiction, an odd loop or a tie whose phases disagree, the walk
    closes its own witness, an odd cycle of ``build_constraints`` relations,
    and builds no constraint system.  ``exhaustive`` refuses a complex of
    more than 22 edges before it builds any system, then scans assignments
    in lexicographic order (pruned), returning the least solution and the
    total number of solutions, or the walk's witness when there is none.
    """
    if mode not in ("propagate", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    report = trace_geodesic_loops(cx)
    walked = _phase_coloring(cx, report)
    if mode == "exhaustive":
        if cx.num_edges > EXHAUSTIVE_EDGE_LIMIT:
            raise TooLargeForExhaustive(
                f"{cx.num_edges} edges exceeds the cap of {EXHAUSTIVE_EDGE_LIMIT}"
            )
        return _exhaustive(cx, build_constraints(cx, report), walked)
    return walked


def verify_good_coloring(cx, coloring):
    """Check the two conditions directly against the traced loops.

    Walks every geodesic loop and compares colors edge to edge — no
    constraint system involved, so this is an independent check of solver
    output.  Returns (ok, violations).  Raises ValueError when the colors
    are not a dict, when an edge has no color or one other than the int 0
    or 1, or when a colored key is not an edge id of the complex, naming
    the first fault ``_key_fault`` finds.
    """
    violations = _violations(cx, _checked_colors(coloring.colors, cx.num_edges, ValueError))
    return (not violations, violations)


def _checked_colors(colors, n_edges, error):
    """The colors of edges 0..n_edges-1 as a list, or ``error`` naming the
    fault ``_key_fault`` finds."""
    fault = _key_fault(colors, n_edges)
    if fault is not None:
        raise error(fault)
    return list(map(colors.__getitem__, range(n_edges)))


def _violations(cx, colors):
    """The good-coloring violations of ``colors``, a list by edge id, loop by
    loop: the alternating ones in passage order, then the left and right
    consistency ones.  Degenerate loops are skipped.

    Each loop's next dart is ``straight`` of its dart, so every condition
    compares a dart with that one, over all loops at once, by C-level maps.
    """
    tables = cx._derive()
    loops = trace_geodesic_loops(cx).loops
    kept = list(map(not_, map(attrgetter("degenerate"), loops)))
    cycles = list(compress(_dart_cycles(cx, loops), kept))
    loop_ids = list(compress(map(attrgetter("loop_id"), loops), kept))
    ends = list(accumulate(map(len, cycles)))  # the loop of position k is bisect(ends, k)
    darts = list(chain.from_iterable(cycles))
    after = list(map(tables.straight.__getitem__, darts))
    dart_colors = list(chain.from_iterable(zip(colors, colors)))
    same = map(eq, map(dart_colors.__getitem__, darts), map(dart_colors.__getitem__, after))
    found = []  # (loop position, violation), sorted stably by loop at the end
    for k in compress(range(len(darts)), same):
        i = bisect(ends, k)
        found.append((i, (ALTERNATING, loop_ids[i], darts[k] >> 1, after[k] >> 1)))
    for name, turn in (("left", tables.left), ("right", tables.right)):
        side = list(map(turn.__getitem__, darts))
        if -1 in side:
            raise _degree_error(tables, darts[side.index(-1)])
        differ = map(ne, map(colors.__getitem__, side),
                     map(colors.__getitem__, map(turn.__getitem__, after)))
        for i in sorted({bisect(ends, k) for k in compress(range(len(darts)), differ)}):
            hanging = tuple(sorted({turn[d] for d in cycles[i]}))
            found.append((i, (CONSISTENCY, loop_ids[i], name, hanging)))
    return [v for _i, v in sorted(found, key=itemgetter(0))]


def _key_fault(colors, n_edges):
    """The first fault of a coloring's colors, or None: colors that are not
    a dict, then the lowest edge id with no color or one other than the int
    0 or 1, then the lowest colored key that is not an int edge id in
    0..n_edges-1, which is the least such int, else the least repr of any
    other key (even 3.0 or True)."""
    if not isinstance(colors, dict):
        return f"colors must be a dict of edge ids to colors, not a {type(colors).__name__}"
    for e in range(n_edges):
        c = colors.get(e)
        if type(c) is not int or c not in (0, 1):
            if e not in colors:
                return f"edge {e} is not colored"
            return f"edge {e} has color {c!r}, not 0 or 1"
    # every edge id is a key, so any other key makes one too many or is no int
    if len(colors) != n_edges or not all(type(e) is int for e in colors):
        foreign = {e for e in colors if type(e) is not int or not 0 <= e < n_edges}
        ints = [e for e in foreign if type(e) is int]
        key = min(ints) if ints else min(map(repr, foreign))
        return f"edge {key} is colored but not in the complex"
    return None


class OrientationAssignment(namedtuple("OrientationAssignment", "colors odd_cycle")):
    __slots__ = ()

    @property
    def bipartite(self):
        return self.colors is not None


def assign_face_orientations(cx):
    """2-color the dual graph, or exhibit an odd dual cycle.

    One parity-1 tie per dual edge, in primal-edge order, transported
    breadth first as the loop phases are.  The odd cycle lists the faces
    round the cycle that the first disagreeing tie closes through the
    breadth-first tree, from the face the walk met it at; a self-adjacent
    face is an odd cycle of length 1.
    """
    dg = dual_graph(cx)
    ties = [[] for _ in dg.nodes]
    for a, b, _e in dg.edges:
        ties[a].append((b, 1, a, b))
        ties[b].append((a, 1, b, a))
    phase, labels = _two_color(len(ties), ties, [])
    if labels is None:
        return OrientationAssignment(colors=dict(enumerate(phase)), odd_cycle=None)
    return OrientationAssignment(colors=None, odd_cycle=[a for a, _b in labels])


COLORING_FORMAT = "fq-coloring/1"


def coloring_to_dict(coloring):
    return {
        "format": COLORING_FORMAT,
        "satisfiable": True,
        "colors": [[eid, c] for eid, c in sorted(coloring.colors.items())],
        "base_vertex": coloring.base_vertex,
        "seed": [[eid, c] for eid, c in coloring.seed],
        "solution_count": coloring.solution_count,
    }


def coloring_from_dict(doc):
    def malformed(what):
        return ValueError(f"malformed {COLORING_FORMAT} document: {what}")

    def pair(what, entry):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise malformed(f"{what} entry {entry!r} is not an [edge, color] pair")
        return entry

    try:
        if doc.get("format") != COLORING_FORMAT:
            raise ValueError(f"not a {COLORING_FORMAT} document")
        satisfiable = doc.get("satisfiable", True)
        if type(satisfiable) is not bool:
            raise malformed(f"satisfiable {satisfiable!r} is not a bool")
        if not satisfiable:
            raise ValueError(f"{COLORING_FORMAT} document records a contradiction, "
                             "not a coloring")
        colors = {}
        for entry in doc["colors"]:
            e, c = pair("colors", entry)
            _require_int(COLORING_FORMAT, "colored edge", e)
            if e in colors:
                raise malformed(f"edge {e} is colored twice")
            if type(c) is not int or c not in (0, 1):
                raise malformed(f"edge {e} has color {c!r}, not 0 or 1")
            colors[e] = c
        base = doc["base_vertex"]
        if type(base) is not int or base < 0:
            raise malformed(f"base_vertex {base!r} is not a non-negative integer")
        seed = []
        for entry in doc["seed"]:
            e, c = pair("seed", entry)
            _require_int(COLORING_FORMAT, "seed edge", e)
            _require_int(COLORING_FORMAT, "seed color", c)
            if e not in colors:
                raise malformed(f"seed edge {e} is not colored")
            if c != colors[e]:
                raise malformed(f"seed gives edge {e} color {c!r}, "
                                f"the colors give {colors[e]}")
            seed.append((e, c))
        count = doc.get("solution_count")
        if count is not None and (type(count) is not int or count < 1):
            raise malformed(f"solution_count {count!r} is not null or a positive integer")
        return EdgeColoring(
            colors=colors, base_vertex=base, seed=tuple(seed), solution_count=count
        )
    except (AttributeError, KeyError, TypeError) as exc:
        raise malformed(repr(exc)) from None


def witness_to_dict(witness):
    return {
        "format": COLORING_FORMAT,
        "satisfiable": False,
        "witness": [c._asdict() for c in witness.cycle],
    }
