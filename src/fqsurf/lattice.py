"""Thickness sequences, local group data, and the existence decision.

A thickness sequence q = (q_1, ..., q_p) of even length is *alternating
non-coprime* when the entries split into two alternating classes with a
common divisor d >= 2 on one and e >= 2 on the other.  Given such a
decomposition and a good edge coloring, every edge, vertex and face of a
tessellation receives a subgroup of a product of cyclic factors; the
assignment certifies a quotient lattice when the local data at each vertex
reproduces a complete bipartite link of the right size.

Two independent routes check the vertex condition: direct arithmetic on
factor subsets (products, intersections and index sums), and an explicit
enumeration of cosets that builds the link graph and inspects it.  Both
read the vertex's local signature (type pair, ray factor sets and types,
sector factor sets), which the group assignment computes once per vertex;
each reaches its verdict on its own.

Local data repeats heavily across a tessellation, so each fact is computed
once per distinct key and shared by every cell with that key: one factor
set per (edge type, color) and, in each vertex oracle separately, one
verdict per distinct signature.

Odd-length geodesic loops obstruct existence: each one forces a reflection
symmetry on the sequence indices, and the closure of those reflections
partitions {1..p} into orbits on which q must be constant.  The decision
procedure combines the face-count residue, the symmetry obstructions and
the constructions into a verdict, optionally backed by a full certificate.
"""

from collections import namedtuple
from itertools import product as iter_product
from math import gcd
from operator import itemgetter

from .coloring import EdgeColoring, solve_good_coloring, verify_good_coloring
from .surface_complex import _require_int_parameter, _require_int_sequence
from .tessellation import (
    build_block_tessellation,
    build_rect_tessellation,
    derived_sequence,
    face_count,
    is_symmetric,
    q_at,
    subdivide_four,
    subdivide_two,
)


class NotGoodColoring(ValueError):
    """The supplied coloring is missing edges or breaks a condition."""


class NotAlternatingNonCoprime(ValueError):
    """The thickness sequence admits no alternating decomposition."""


class OddPUnsupported(ValueError):
    """The decision procedure only covers even p."""


class AlternatingDecomposition(namedtuple("AlternatingDecomposition", "d e reduced")):
    """Common divisors of the two alternating classes of a sequence.

    ``reduced`` holds q_i divided by the divisor of its class.
    """

    __slots__ = ()


def alternating_noncoprime(q):
    """The alternating decomposition of a sequence, or None.

    Odd positions must share a divisor d >= 2 and even positions a divisor
    e >= 2.  An empty or odd-length sequence has no decomposition and gives
    None: every construction needs even p.
    """
    q = _require_int_sequence(q)
    if not q or len(q) % 2:
        return None
    d = gcd(*q[0::2])
    e = gcd(*q[1::2])
    if d < 2 or e < 2:
        return None
    reduced = tuple(x // (d if k % 2 == 0 else e) for k, x in enumerate(q))
    return AlternatingDecomposition(d=d, e=e, reduced=reduced)


def symmetric_axes(q, pieces):
    """All axes m about which the sequence is ``pieces``-symmetric (2 or 4)."""
    if type(pieces) is not int or pieces not in (2, 4):
        raise ValueError(f"pieces must be 2 or 4, got {pieces!r}")
    q = _require_int_sequence(q)
    return {m for m in range(1, len(q) + 1) if is_symmetric(q, m, pieces)}


# ---------------------------------------------------------------------------
# group assignment

D_FACTOR = "D"
E_FACTOR = "E"


def _type_factor(t):
    return f"A{t}"


def _factor_orders(q, deco):
    orders = {D_FACTOR: deco.d - 1, E_FACTOR: deco.e - 1}
    for t in range(1, len(q) + 1):
        orders[_type_factor(t)] = deco.reduced[t - 1]
    return orders


def group_order(factors, orders):
    out = 1
    for f in factors:
        out *= orders[f]
    return out


class VertexCheck(namedtuple(
    "VertexCheck",
    "vertex types product_ok intersection_ok index_ok index_sums expected_sums",
)):
    """Results of the three local conditions at one vertex."""

    __slots__ = ()

    @property
    def ok(self):
        return self.product_ok and self.intersection_ok and self.index_ok


class LinkConditionReport(namedtuple("LinkConditionReport", "checks")):
    __slots__ = ()

    @property
    def ok(self):
        return all(c.ok for c in self.checks.values())


class GroupAssignment(namedtuple(
    "GroupAssignment",
    "cx q decomposition orders coloring edge_factors face_factors face_conflicts"
    " coloring_ok signatures vertex_checks certified",
)):
    """Factor subgroups on every cell, with the certification verdict."""

    __slots__ = ()


def _edge_factor_set(edge_type, color):
    a = _type_factor(edge_type)
    if edge_type % 2 == 1:
        base = {D_FACTOR, a}
        if color == 1:
            base.add(E_FACTOR)
    else:
        base = {E_FACTOR, a}
        if color == 1:
            base.add(D_FACTOR)
    return frozenset(base)


def assign_groups(cx, coloring, q):
    """Attach factor subgroups to edges, vertices and faces.

    Edge of type i: {D, A_i} plus E when colored 1 for odd i, and {E, A_i}
    plus D when colored 1 for even i.  A vertex on types (i, i+1) carries
    the full product universe {D, E, A_i, A_{i+1}}; each face gets the
    intersection of the two edge groups at its first corner, which a good
    coloring makes independent of the corner.

    A coloring raises NotGoodColoring when its keys are not exactly the
    complex's int edge ids, when it gives an edge a color other than the
    int 0 or 1, or when its base vertex is not an int naming a vertex.
    Any other failure is recorded, not raised: a broken coloring condition
    in ``coloring_ok`` and faces whose corners disagree in
    ``face_conflicts``, so broken instances can still be inspected by the
    link checkers; ``certified`` is true only when nothing failed.

    ``signatures[v]`` is everything the link checkers read at vertex v:
    the type pair and, in rotation order, the factor sets and types of the
    four rays and the factor sets of the four sectors, sector k lying
    clockwise between rays k and k+1.

    Edges of one (type, color) share one frozenset, and a type pair is
    derived once per distinct tuple of ray types.  Everything here is
    read-only and shared between cells.
    """
    q = _require_int_sequence(q)
    if cx.p % 2 != 0:
        raise ValueError(f"p must be even, got {cx.p}")
    if len(q) != cx.p:
        raise ValueError(f"sequence length {len(q)} does not match p={cx.p}")
    if any(x < 2 for x in q):
        raise ValueError("thickness entries must be at least 2")
    deco = alternating_noncoprime(q)
    if deco is None:
        raise NotAlternatingNonCoprime(f"{q} has no alternating decomposition")

    for e in cx.edges:
        if e.id not in coloring.colors:
            raise NotGoodColoring(f"edge {e.id} is not colored")
        c = coloring.colors[e.id]
        if type(c) is not int or c not in (0, 1):
            raise NotGoodColoring(f"edge {e.id} has color {c!r}, not 0 or 1")
    unknown = {
        e for e in coloring.colors if type(e) is not int or not 0 <= e < cx.num_edges
    }
    if unknown:
        # the smallest int id first, then other keys (even 3.0 or True) by repr
        ids = sorted(e for e in unknown if type(e) is int) or sorted(map(repr, unknown))
        raise NotGoodColoring(f"edge {ids[0]} is colored but not in the complex")
    base = coloring.base_vertex
    if type(base) is not int or not 0 <= base < cx.num_vertices:
        raise NotGoodColoring(f"base_vertex {base!r} is not a vertex of the complex")
    coloring_ok, _violations = verify_good_coloring(cx, coloring)

    orders = _factor_orders(q, deco)
    factor_sets = {}
    edge_factors = {}
    for e in cx.edges:
        key = (e.type, coloring.colors[e.id])
        factors = factor_sets.get(key)
        if factors is None:
            factors = factor_sets[key] = _edge_factor_set(*key)
        edge_factors[e.id] = factors

    face_factors = {}
    face_conflicts = {}
    for f in cx.faces:
        side_sets = [edge_factors[eid] for eid, _rev in f.sides]
        # corner k lies between sides k-1 and k
        per_corner = [a & b for a, b in zip(side_sets[-1:] + side_sets[:-1], side_sets)]
        face_factors[f.id] = per_corner[0]
        if per_corner.count(per_corner[0]) != len(per_corner):
            face_conflicts[f.id] = tuple(per_corner)

    edge_types = [e.type for e in cx.edges]
    type_pairs = {}
    signatures = []
    for v, orbit in enumerate(cx.vertices()):
        rays = cx.rotation(v)
        ray_types = tuple([edge_types[e] for e, _ in rays])
        pair = type_pairs.get(ray_types)
        if pair is None:
            pair = type_pairs[ray_types] = cx.vertex_type_pair(v)
            if pair is None:
                raise ValueError(f"vertex {v} has no alternating type pair")
        # a type pair needs four rays; sector k is the face of corner k+1
        (e0, _), (e1, _), (e2, _), (e3, _) = rays
        (f0, _), (f1, _), (f2, _), (f3, _) = orbit
        signatures.append((
            pair,
            (edge_factors[e0], edge_factors[e1], edge_factors[e2], edge_factors[e3]),
            ray_types,
            (face_factors[f1], face_factors[f2], face_factors[f3], face_factors[f0]),
        ))

    assignment = GroupAssignment(
        cx=cx,
        q=q,
        decomposition=deco,
        orders=orders,
        coloring=coloring,
        edge_factors=edge_factors,
        face_factors=face_factors,
        face_conflicts=face_conflicts,
        coloring_ok=coloring_ok,
        signatures=tuple(signatures),
        vertex_checks={},
        certified=False,
    )
    report = verify_link_conditions(assignment)
    return assignment._replace(
        vertex_checks=report.checks,
        certified=coloring_ok and not face_conflicts and report.ok,
    )


def _link_arithmetic(signature, q, orders):
    """The three local conditions of one signature, as VertexCheck fields
    without the vertex; callers copy the two dicts."""
    (i, j), ray_factors, ray_types, sector_factors = signature
    universe = frozenset({D_FACTOR, E_FACTOR, _type_factor(i), _type_factor(j)})

    product_ok = all(
        (ray_factors[k] | ray_factors[(k + 1) % 4]) == universe
        for k in range(4)
    )
    intersection_ok = all(
        (ray_factors[k] & ray_factors[(k + 1) % 4]) == sector_factors[k]
        for k in range(4)
    )

    vertex_order = group_order(universe, orders)
    sums = {i: 0, j: 0}
    for k in range(4):
        sums[ray_types[k]] += vertex_order // group_order(ray_factors[k], orders)
    expected = {i: q[j - 1], j: q[i - 1]}
    return (i, j), product_ok, intersection_ok, sums == expected, sums, expected


def verify_link_conditions(assignment):
    """Arithmetic check of the local conditions at every vertex.

    At a vertex on types (i, j): adjacent ray pairs must span the whole
    universe; their intersections must equal the groups of the faces
    between them; and the subgroup indices must sum so that each
    lifted type-i edge gets link degree q_i — the two type-i edges sum
    to q_j and the two type-j edges sum to q_i.

    The conditions read nothing but the vertex's signature, so they are
    evaluated once per distinct signature; each vertex still gets its own
    VertexCheck with its own ``index_sums`` and ``expected_sums`` dicts.
    """
    q = assignment.q
    orders = assignment.orders
    by_signature = {}
    checks = {}
    for v, signature in enumerate(assignment.signatures):
        fields = by_signature.get(signature)
        if fields is None:
            fields = by_signature[signature] = _link_arithmetic(signature, q, orders)
        types, product_ok, intersection_ok, index_ok, sums, expected = fields
        checks[v] = VertexCheck(
            vertex=v,
            types=types,
            product_ok=product_ok,
            intersection_ok=intersection_ok,
            index_ok=index_ok,
            index_sums=dict(sums),
            expected_sums=dict(expected),
        )
    return LinkConditionReport(checks=checks)


class LinkGraph(namedtuple(
    "LinkGraph", "vertex types side_vertices edges simple complete sizes_ok"
)):
    """The coset link at one vertex, with its completeness verdict."""

    __slots__ = ()

    @property
    def ok(self):
        return self.simple and self.complete and self.sizes_ok


def _picker(positions):
    """``values -> tuple(values[p] for p in positions)``, without the loop."""
    if len(positions) == 1:
        (p,) = positions
        return lambda values: (values[p],)
    return itemgetter(*positions) if positions else lambda values: ()


def build_link_graph(assignment, vertex):
    """Enumerate the link of a vertex coset by coset.

    Link vertices are the cosets of the four edge groups in the vertex
    group, identified by rotation position; link edges are the cosets of
    the face groups of the four sectors, each joining the two edge-group
    cosets it refines.  The verdict asks for a simple complete bipartite
    graph whose type-i side has exactly q_j vertices (and vice versa) —
    the same conditions as verify_link_conditions, derived independently.

    A coset is the tuple of its values on the factors absent from its
    group, in sorted factor order.  Each ray's cosets are enumerated once;
    a sector coset's two endpoints are its values projected onto each
    ray's absent factors, a factor the sector group contains reading 0.
    The link is complete when every endpoint is an enumerated ray coset,
    every edge joins the type-i side to the type-j side, and the distinct
    edges number |side i|·|side j|: then they are all the pairs.
    """
    q = assignment.q
    (i, j), ray_factors, ray_types, sector_factors = assignment.signatures[vertex]
    universe = frozenset({D_FACTOR, E_FACTOR, _type_factor(i), _type_factor(j)})
    orders = assignment.orders

    ray_absent = [sorted(universe - factors) for factors in ray_factors]
    nodes = []
    side_vertices = {i: [], j: []}
    for k in range(4):
        absent = ray_absent[k]
        spaces = [range(orders[t]) for t in absent]
        nodes.append({
            values: (k, tuple(zip(absent, values)))
            for values in iter_product(*spaces)
        })
        side_vertices[ray_types[k]].extend(nodes[k].values())

    edges = []
    enumerated = bipartite = True
    for k in range(4):
        k2 = (k + 1) % 4
        first, second = (k, k2) if ray_types[k] == i else (k2, k)
        absent = sorted(universe - sector_factors[k])
        # each values tuple ends in a 0 for the factors the sector contains
        spaces = [range(orders[t]) for t in absent] + [(0,)]
        position = {t: n for n, t in enumerate(absent)}
        pick_a, pick_b = (
            _picker([position.get(t, len(absent)) for t in ray_absent[r]])
            for r in (first, second)
        )
        nodes_a, nodes_b = nodes[first], nodes[second]
        start = len(edges)
        for values in iter_product(*spaces):
            key_a, key_b = pick_a(values), pick_b(values)
            a, b = nodes_a.get(key_a), nodes_b.get(key_b)
            if a is None or b is None:
                enumerated = False
                a = a or (first, tuple(zip(ray_absent[first], key_a)))
                b = b or (second, tuple(zip(ray_absent[second], key_b)))
            edges.append((a, b))
        if len(edges) > start and (ray_types[first], ray_types[second]) != (i, j):
            bipartite = False

    distinct = set(edges)
    simple = len(edges) == len(distinct)
    complete = (
        enumerated
        and bipartite
        and len(distinct) == len(side_vertices[i]) * len(side_vertices[j])
    )
    sizes_ok = (
        len(side_vertices[i]) == q[j - 1] and len(side_vertices[j]) == q[i - 1]
    )
    return LinkGraph(
        vertex=vertex,
        types=(i, j),
        side_vertices={
            i: tuple(side_vertices[i]),
            j: tuple(side_vertices[j]),
        },
        edges=tuple(edges),
        simple=simple,
        complete=complete,
        sizes_ok=sizes_ok,
    )


# ---------------------------------------------------------------------------
# forced symmetries

def loop_obstructions(loop_report):
    """Axes of the reflections forced by odd geodesic loops, sorted.

    An odd-length loop whose edges all have type t makes any quotient
    identify type t+k with type t-k, i.e. the reflection k -> 2t - k about
    axis t.  Loops of mixed type contribute nothing.
    """
    return sorted({
        lp.type for lp in loop_report.loops if lp.parity == "odd" and lp.type is not None
    })


def symmetry_closure(p, axes):
    """Orbits of {1..p} under the group the reflections about ``axes`` generate.

    The reflection about m sends k to 2m - k, read mod p in 1..p.  An orbit
    is everything single reflections reach from one index, so the orbits are
    the connected components of k ~ 2m - k.  They come back as sorted
    tuples, listed by least element.
    """
    axes = set(axes)
    orbits = []
    seen = set()
    for k in range(1, p + 1):
        if k in seen:
            continue
        orbit = {k}
        frontier = [k]
        while frontier:
            cur = frontier.pop()
            for m in axes:
                nxt = (2 * m - cur - 1) % p + 1
                if nxt not in orbit:
                    orbit.add(nxt)
                    frontier.append(nxt)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return tuple(orbits)


# ---------------------------------------------------------------------------
# the decision procedure

EXISTS = "Exists"
RULED_OUT = "RuledOut"
UNKNOWN = "Unknown"
INTERNAL_ERROR = "InternalError"


Verdict = namedtuple(
    "Verdict", "outcome method reason certificate", defaults=(None,)
)


def _smallest_prime_factor(n):
    f = 2
    while f * f <= n:
        if n % f == 0:
            return f
        f += 1
    return n


CERT_FORMAT = "fq-cert/1"


def build_certificate(cx, coloring, q):
    """Certificate payload: the assignment plus both vertex oracles.

    The coset link at a vertex depends only on its local signature in
    ``assignment.signatures``.  It is enumerated once per distinct
    signature, by ``build_link_graph`` at the lowest vertex that has it,
    and every vertex with that signature takes its side sizes and verdict.
    The arithmetic fields of each vertex entry come from that vertex's own
    check in ``assignment.vertex_checks``.  Every entry gets fresh
    containers: no mutable object is shared between entries.

    A coloring that fails verification still yields a certificate; the
    failures end up in the per-vertex entries and the overall flag.
    """
    assignment = assign_groups(cx, coloring, q)
    links = {}
    vertices = []
    for v, signature in enumerate(assignment.signatures):
        entry = links.get(signature)
        if entry is None:
            link = build_link_graph(assignment, v)
            sides = [len(link.side_vertices[t]) for t in link.types]
            entry = links[signature] = (sides, link.ok)
        sides, link_ok = entry
        check = assignment.vertex_checks[v]
        vertices.append({
            "id": v,
            "types": list(check.types),
            "product_ok": check.product_ok,
            "intersection_ok": check.intersection_ok,
            "index_ok": check.index_ok,
            "index_sums": {str(t): s for t, s in sorted(check.index_sums.items())},
            "link_sides": list(sides),
            "link_ok": link_ok,
        })
    ok = assignment.certified and all(link_ok for _, link_ok in links.values())
    edges = [
        {
            "id": e.id,
            "type": e.type,
            "color": coloring.colors[e.id],
            "factors": sorted(assignment.edge_factors[e.id]),
        }
        for e in cx.edges
    ]
    deco = assignment.decomposition
    return {
        "format": CERT_FORMAT,
        "p": cx.p,
        "q": list(assignment.q),
        "d": deco.d,
        "e": deco.e,
        "reduced": list(deco.reduced),
        "edges": edges,
        "vertices": vertices,
        "ok": ok,
    }


def _transverse_gcd(q, m):
    """gcd of the entries at odd offsets from axis m."""
    return gcd(*(q_at(q, m + t) for t in range(1, len(q), 2)))


def _solve_or_fail(cx):
    col = solve_good_coloring(cx, "propagate")
    if not isinstance(col, EdgeColoring):
        raise RuntimeError("no good coloring on the constructed complex")
    return col


def _certify_block(p, q, g):
    cx = build_block_tessellation(p, g)
    cert = build_certificate(cx, _solve_or_fail(cx), q)
    cert["construction"] = {"method": "Block", "p": p, "genus": g}
    return cert


def _certify_subdiv(p, q, g, pieces, grid, axis):
    """Cut each face of an a×b rect grid into ``pieces`` and certify the result."""
    base = build_rect_tessellation(p, *grid)
    subdivide = subdivide_two if pieces == 2 else subdivide_four
    sub, _smap = subdivide(base, axis=1)
    q_sub = derived_sequence(q, pieces, axis)
    cert = build_certificate(sub, _solve_or_fail(sub), q_sub)
    cert["construction"] = {
        "method": f"Subdiv{pieces}",
        "p": p,
        "genus": g,
        "grid": list(grid),
        "symmetry_axis": axis,
        "derived_q": list(q_sub),
    }
    return cert


def decide(p, q, g, certify=False):
    """Does a quotient lattice exist for (p, q, genus)?

    Branches on the residue of the face count F: divisible by 4 uses the
    block construction directly; F = 2 mod 4 requires 2-symmetry (ruled
    out otherwise) and subdivides in two; odd F requires 4-symmetry and a
    composite F and subdivides in four.  Gaps between the necessary and
    sufficient conditions come back as Unknown.

    The composite-F condition serves the hypothesis that the quartering
    construction starts from a genuine a×b rectangular grid of p-gons, with
    a, b >= 2 (``a`` is the smallest prime factor of F): a grid in which no
    edge is glued to its own face and no face meets a vertex twice.  A 1×F
    grid breaks that.  This reading rests on the code's own checks, not on
    the paper's text, since the repository holds only its abstract.  Those
    checks also show that the 1×F base of a prime F quarters into a
    non-degenerate complex whose certificate holds, so for odd prime F the
    condition may be stronger than the construction needs.

    With certify=True every Exists verdict carries a full checked
    certificate; a construction or check failure downgrades the verdict to
    InternalError, never to a silent success.
    """
    _require_int_parameter("p", p)
    _require_int_parameter("genus", g)
    q = _require_int_sequence(q)
    if p % 2 != 0:
        raise OddPUnsupported(f"p={p}: only even p is supported")
    if p < 6:
        raise ValueError(f"p must be at least 6, got {p}")
    if len(q) != p:
        raise ValueError(f"sequence length {len(q)} does not match p={p}")
    if any(x < 2 for x in q):
        raise ValueError("thickness entries must be at least 2")
    if g < 2:
        raise ValueError(f"genus must be at least 2, got {g}")
    F = face_count(p, g)
    deco = alternating_noncoprime(q)

    def exists(method, reason, certifier):
        if not certify:
            return Verdict(EXISTS, method, reason)
        try:
            cert = certifier()
        except Exception as exc:
            return Verdict(
                INTERNAL_ERROR, method, f"certification crashed: {exc}"
            )
        if not cert["ok"]:
            return Verdict(
                INTERNAL_ERROR, method, "certificate checks failed", cert
            )
        return Verdict(EXISTS, method, reason, cert)

    if F % 4 == 0:
        if deco is None:
            return Verdict(UNKNOWN, None, "not alternating non-coprime")
        return exists(
            "Block",
            f"F={F} divisible by 4 and q alternating non-coprime",
            lambda: _certify_block(p, q, g),
        )

    if F % 2 == 0:
        axes = sorted(symmetric_axes(q, 2))
        if not axes:
            return Verdict(
                RULED_OUT, "TwoSymmetry", f"F={F} = 2 mod 4 but q is not 2-symmetric"
            )
        if deco is None:
            return Verdict(UNKNOWN, None, "not alternating non-coprime")
        even_axes = [m for m in axes if _transverse_gcd(q, m) % 2 == 0]
        if not even_axes:
            return Verdict(
                UNKNOWN, None, "no symmetry axis with even transverse gcd"
            )
        m0 = even_axes[0]
        return exists(
            "Subdiv2",
            f"F={F}, q 2-symmetric about {m0} with even transverse gcd",
            lambda: _certify_subdiv(p, q, g, 2, (F // 2, 2), m0),
        )

    axes = sorted(symmetric_axes(q, 4))
    if not axes:
        return Verdict(
            RULED_OUT, "FourSymmetry", f"F={F} odd but q is not 4-symmetric"
        )
    a = _smallest_prime_factor(F)
    if a == F:
        return Verdict(UNKNOWN, None, f"F={F} is not composite")
    if deco is None:
        return Verdict(UNKNOWN, None, "not alternating non-coprime")
    if deco.d % 2 != 0 or deco.e % 2 != 0:
        return Verdict(
            UNKNOWN, None, f"alternating gcds d={deco.d}, e={deco.e} not both even"
        )
    m0 = axes[0]
    return exists(
        "Subdiv4",
        f"F={F} odd composite, q 4-symmetric about {m0}, d and e even",
        lambda: _certify_subdiv(p, q, g, 4, (a, F // a), m0),
    )


def verdict_to_dict(verdict):
    return {
        "outcome": verdict.outcome,
        "method": verdict.method,
        "reason": verdict.reason,
        "certificate": verdict.certificate,
    }
