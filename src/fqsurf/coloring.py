"""Two-coloring of edges: the alternating and consistency conditions.

A *good coloring* assigns 0/1 to every edge so that colors alternate along
each geodesic loop and, for an oriented loop, the hanging edges on one side
all agree (likewise the other side).  Both conditions are parity relations
between pairs of edges, so the whole problem is a parity constraint system:
alternating pairs differ (parity 1), same-side hanging pairs agree
(parity 0).  Each relation is stated once, as a ``ParityConstraint`` named
tuple.  A coloring exists iff no constraint cycle has odd total parity.

The ``propagate`` solver never builds that system for a good complex.  On an
even loop, colors alternate exactly when edge k has color ``phase ^ (k & 1)``
for one phase bit per loop, and each edge lies on one loop.  A hanging-edge
relation then ties two loops' phases, and the phases are transported breadth
first over those ties.  An odd loop or a tie whose phases disagree is a
contradiction: only then is the constraint system built, to close its
witness cycle.

The face orientations 2-color the dual graph the same way: chirality
alternates across each dual edge, one parity-1 constraint over face ids.

Turns are read off the rotation system, as ``SurfaceComplex.continue_through``
does, but from the tables of ``SurfaceComplex._derive`` fetched once per pass:
a passage goes straight at turn 2, left at 1 and right at -1.
"""

from collections import namedtuple
from functools import cached_property
from operator import itemgetter

from .loops import trace_geodesic_loops
from .surface_complex import _require_int, dual_graph


class DegenerateLoop(ValueError):
    """A geodesic loop folds back on itself; coloring is undefined."""


class TooLargeForExhaustive(ValueError):
    """Exhaustive search is capped at 22 edges."""


EXHAUSTIVE_EDGE_LIMIT = 22

ALTERNATING = "alternating"
CONSISTENCY = "consistency"


ParityConstraint = namedtuple("ParityConstraint", "edge_a edge_b parity tag")


class ParityConstraintSystem:
    """Parity relations between 0/1 variables, with component structure.

    ``adjacency`` maps each variable to its (neighbor, constraint) pairs in
    (neighbor, parity, tag) order; a constraint of a variable with itself is
    listed twice.
    """

    def __init__(self, variables, constraints):
        self.variables = tuple(variables)
        self.constraints = tuple(constraints)
        adjacency = {v: [] for v in self.variables}
        # appended in (parity, tag) order, so a stable sort by neighbor gives the order
        for c in sorted(self.constraints, key=itemgetter(2, 3)):
            if c.edge_a not in adjacency or c.edge_b not in adjacency:
                raise ValueError("constraint references unknown edge")
            adjacency[c.edge_a].append((c.edge_b, c))
            adjacency[c.edge_b].append((c.edge_a, c))
        for pairs in adjacency.values():
            pairs.sort(key=itemgetter(0))
        self.adjacency = adjacency

    @cached_property
    def components(self):
        """The connected components, each sorted, in order of least variable."""
        seen = set()
        comps = []
        for v in sorted(self.adjacency):
            if v in seen:
                continue
            seen.add(v)
            comp = [v]
            for u in comp:
                for w, _c in self.adjacency[u]:
                    if w not in seen:
                        seen.add(w)
                        comp.append(w)
            comps.append(tuple(sorted(comp)))
        return tuple(comps)

    def __repr__(self):
        return (
            f"ParityConstraintSystem({len(self.variables)} vars, "
            f"{len(self.constraints)} constraints, "
            f"{len(self.components)} components)"
        )


def _hanging_edges(cx, cycle):
    """Edge ids hanging off a loop at each passage: (lefts, rights).

    Left and right are defined only at a degree-4 head vertex.
    """
    _orbits, rotations, rays, _pairs = cx._derive()
    lefts = []
    rights = []
    for e, fwd in cycle:
        # the head vertex, and the reversal's position in its rotation
        v, i = rays[e, not fwd]
        rot = rotations[v]
        if len(rot) != 4:
            raise ValueError(f"vertex {v} has degree {len(rot)}, not 4")
        lefts.append(rot[(i + 1) % 4][0])
        rights.append(rot[(i - 1) % 4][0])
    return lefts, rights


def build_constraints(cx, loop_report):
    """Parity constraints for the good-coloring conditions.

    Alternating: consecutive edges of each loop differ.  Consistency: the
    left hanging edges at consecutive visited vertices agree, and likewise
    the right ones, chained cyclically around the loop.  Each relation
    (unordered pair, tag) is stated once, where it first appears: a loop
    of length 2 names its one pair twice, and a loop that passes another
    twice meets the same hanging pairs again.
    """
    relations = {}
    for loop in loop_report.loops:
        if loop.degenerate:
            raise DegenerateLoop(
                f"loop {loop.loop_id} folds back on itself"
            )
        edges = [e for e, _fwd in loop.directed_edges]
        left, right = _hanging_edges(cx, loop.directed_edges)
        for chain, parity, tag in (
            (edges, 1, ALTERNATING), (left, 0, CONSISTENCY), (right, 0, CONSISTENCY)
        ):
            for a, b in zip(chain, chain[1:] + chain[:1]):
                key = (a, b, tag) if a < b else (b, a, tag)
                if key not in relations:
                    relations[key] = ParityConstraint(a, b, parity, tag)
    variables = [e.id for e in cx.edges]
    return ParityConstraintSystem(variables, relations.values())


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


def _transport(system, priorities):
    """Color by breadth-first transport: (colors, None) or (None, witness).

    Components are rooted seeds first: each (variable, color) priority in
    order, then each still-uncolored variable in increasing order with
    color 0.  The first violated constraint is closed through the tree.
    """
    colors = {}
    parent = {}
    for root, root_color in [*priorities, *((v, 0) for v in sorted(system.variables))]:
        if root in colors:
            continue
        colors[root] = root_color
        parent[root] = None
        queue = [root]
        for u in queue:
            for w, c in system.adjacency[u]:
                if w not in colors:
                    colors[w] = colors[u] ^ c.parity
                    parent[w] = (u, c)
                    queue.append(w)

    for c in system.constraints:
        if colors[c.edge_a] ^ colors[c.edge_b] != c.parity:
            return None, _witness_from_tree(parent, c)
    return {v: colors[v] for v in sorted(colors)}, None


def _propagate(cx, system):
    """Color from the canonical seeds; return coloring or witness."""
    base, priorities = _seed_priorities(cx)
    colors, witness = _transport(system, priorities)
    if witness is not None:
        return witness
    seed = tuple((eid, colors[eid]) for eid, _c in priorities)
    return EdgeColoring(colors=colors, base_vertex=base, seed=seed)


def _witness_from_tree(parent, violated):
    """Close the violated constraint through the propagation tree."""
    def ancestry(e):
        chain = [e]
        while parent[chain[-1]] is not None:
            chain.append(parent[chain[-1]][0])
        return chain

    chain_a = ancestry(violated.edge_a)
    chain_b = ancestry(violated.edge_b)
    in_a = set(chain_a)
    lca = next(e for e in chain_b if e in in_a)
    up = [parent[e][1] for e in chain_a[: chain_a.index(lca)]]
    down = [parent[e][1] for e in chain_b[: chain_b.index(lca)]]
    return ContradictionWitness((*up, *reversed(down), violated))


def _exhaustive(cx, system):
    """Pruned scan of all assignments in lexicographic edge-id order.

    Each constraint is checked where its later edge is colored; the
    variables are the dense edge ids.  An edge's constraint with itself
    compares its color with itself, so parity 1 prunes every branch there.
    """
    n = len(system.variables)
    by_later = [[] for _ in range(n)]
    for a, b, parity, _tag in system.constraints:
        by_later[max(a, b)].append((min(a, b), parity))
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
        fallback = _propagate(cx, system)
        if isinstance(fallback, ContradictionWitness):
            return fallback
        raise AssertionError("exhaustive found no solution but propagate did")
    base, priorities = _seed_priorities(cx)
    colors = dict(enumerate(best))
    seed = tuple((eid, colors[eid]) for eid, _c in priorities)
    return EdgeColoring(
        colors=colors, base_vertex=base, seed=seed,
        solution_count=1 + sum(1 for _ in found),
    )


def _phase_coloring(cx, report):
    """The coloring ``_propagate(cx, build_constraints(cx, report))`` gives,
    by loop phases, or None where that gives a witness.

    One pass over the loops, in order, raises what ``build_constraints``
    raises and records each edge's loop and its position bit.  A loop's
    left hanging edges must share a color, so each ties its loop's phase to
    the first one's.  The right ones then agree as well: at each passage the
    right hanging edge follows the left one on the crossing loop, so their
    colors differ.  Phases are transported breadth first over the ties,
    rooted at each seed priority in order, then at each unphased loop in
    increasing order with phase 0: loops start in increasing edge order at
    their least edge, so that colors its least edge 0.
    """
    loops = report.loops
    loop_of = [0] * cx.num_edges
    bit = [0] * cx.num_edges
    lefts = []
    for i, loop in enumerate(loops):
        if loop.degenerate:
            raise DegenerateLoop(f"loop {loop.loop_id} folds back on itself")
        cycle = loop.directed_edges
        lefts.append(_hanging_edges(cx, cycle)[0])
        for k, (e, _fwd) in enumerate(cycle):
            loop_of[e] = i
            bit[e] = k & 1
    if report.odd_loops:
        return None

    # (other loop, parity of the two phases) for each tie at a loop
    ties = [[] for _ in loops]
    for side in lefts:
        a = side[0]
        for b in side[1:]:
            parity = bit[a] ^ bit[b]
            ties[loop_of[a]].append((loop_of[b], parity))
            ties[loop_of[b]].append((loop_of[a], parity))

    base, priorities = _seed_priorities(cx)
    phase = [None] * len(loops)
    roots = [(loop_of[e], c ^ bit[e]) for e, c in priorities]
    for root, root_phase in [*roots, *((i, 0) for i in range(len(loops)))]:
        if phase[root] is not None:
            continue
        phase[root] = root_phase
        queue = [root]
        for u in queue:
            p = phase[u]
            for w, parity in ties[u]:
                if phase[w] is None:
                    phase[w] = p ^ parity
                    queue.append(w)
                elif phase[w] != p ^ parity:
                    return None
    colors = {e: phase[i] ^ b for e, (i, b) in enumerate(zip(loop_of, bit))}
    seed = tuple((e, colors[e]) for e, _c in priorities)
    return EdgeColoring(colors=colors, base_vertex=base, seed=seed)


def solve_good_coloring(cx, mode="propagate"):
    """Find a good coloring, or exhibit an odd constraint cycle.

    Both modes first walk the loops by phases, which raises what
    ``build_constraints`` raises.  ``propagate`` gives each geodesic loop
    one phase bit, colors its edges alternately from it, and transports the
    phases breadth first over the ties that the hanging-edge relations
    make, from the canonical seeds.  Its colors are those of transporting
    the seeds over a spanning tree of the constraint graph.  Only on a
    contradiction, an odd loop or a tie whose phases disagree, does it build
    that graph, and its witness is the transport's.  ``exhaustive`` refuses
    a complex of more than 22 edges before it builds any system, then scans
    assignments in lexicographic order (pruned), returning the least
    solution and the total number of solutions.
    """
    if mode not in ("propagate", "exhaustive"):
        raise ValueError(f"unknown mode {mode!r}")
    report = trace_geodesic_loops(cx)
    coloring = _phase_coloring(cx, report)
    if mode == "exhaustive":
        if cx.num_edges > EXHAUSTIVE_EDGE_LIMIT:
            raise TooLargeForExhaustive(
                f"{cx.num_edges} edges exceeds the cap of {EXHAUSTIVE_EDGE_LIMIT}"
            )
        return _exhaustive(cx, build_constraints(cx, report))
    return coloring or _propagate(cx, build_constraints(cx, report))


def verify_good_coloring(cx, coloring):
    """Check the two conditions directly against the traced loops.

    Walks every geodesic loop and compares colors edge to edge — no
    constraint system involved, so this is an independent check of solver
    output.  Returns (ok, violations).  Raises ValueError, naming the lowest
    such id, when an edge of the complex has no color or one other than the
    int 0 or 1.
    """
    colors = coloring.colors
    for e in range(cx.num_edges):
        c = colors.get(e)
        if type(c) is not int or c not in (0, 1):
            if e not in colors:
                raise ValueError(f"edge {e} is not colored")
            raise ValueError(f"edge {e} has color {c!r}, not 0 or 1")
    report = trace_geodesic_loops(cx)
    violations = []
    for loop in report.loops:
        if loop.degenerate:
            continue
        cycle = loop.directed_edges
        n = len(cycle)
        for k in range(n):
            e = cycle[k][0]
            f = cycle[(k + 1) % n][0]
            if colors[e] == colors[f]:
                violations.append(
                    (ALTERNATING, loop.loop_id, e, f)
                )
        for name, side in zip(("left", "right"), _hanging_edges(cx, cycle)):
            observed = {colors[e] for e in side}
            if len(observed) > 1:
                violations.append(
                    (CONSISTENCY, loop.loop_id, name, tuple(sorted(set(side))))
                )
    return (not violations, violations)


class OrientationAssignment(namedtuple("OrientationAssignment", "colors odd_cycle")):
    __slots__ = ()

    @property
    def bipartite(self):
        return self.colors is not None


def assign_face_orientations(cx):
    """2-color the dual graph, or exhibit an odd dual cycle.

    One parity-1 constraint per dual edge, in primal-edge order.  The odd
    cycle lists the faces along the witness from its violated constraint's
    first face; a self-adjacent face is an odd cycle of length 1.
    """
    dg = dual_graph(cx)
    system = ParityConstraintSystem(
        dg.nodes, [ParityConstraint(a, b, 1, ALTERNATING) for a, b, _e in dg.edges]
    )
    colors, witness = _transport(system, [])
    if witness is None:
        return OrientationAssignment(colors=colors, odd_cycle=None)
    face = witness.cycle[-1].edge_a
    odd_cycle = []
    for c in witness.cycle:
        odd_cycle.append(face)
        face = c.edge_a if face == c.edge_b else c.edge_b
    return OrientationAssignment(colors=None, odd_cycle=odd_cycle)


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
