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
enumeration of cosets.  The enumeration numbers each ray's cosets in
mixed radix over the ray's absent factors and lists every sector coset
as the pair of its endpoint numbers; the link's verdict is read from
those numbers, and ``build_link_graph`` spells them out as a graph for
inspection.  Both routes read the vertex's local signature (type pair,
ray factor sets and types, sector factor sets), which the group
assignment computes once per vertex; each reaches its verdict on its own.

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
from math import gcd

from .coloring import (
    EdgeColoring,
    _key_fault,
    solve_good_coloring,
    verify_good_coloring,
)
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

    Edges of one (type, color) share one frozenset, and the type pairs and
    ray types are the complex's own derived tables.  Everything here is
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

    colors = coloring.colors
    fault = _key_fault(colors, cx.num_edges)
    if fault is not None:
        raise NotGoodColoring(fault)
    factor_sets = {}
    edge_sets = []  # by edge id
    for e, t in enumerate(cx._edge_types):
        c = colors[e]
        factors = factor_sets.get((t, c))
        if factors is None:
            factors = factor_sets[t, c] = _edge_factor_set(t, c)
        edge_sets.append(factors)
    base = coloring.base_vertex
    if type(base) is not int or not 0 <= base < cx.num_vertices:
        raise NotGoodColoring(f"base_vertex {base!r} is not a vertex of the complex")
    coloring_ok, _violations = verify_good_coloring(cx, coloring)

    orders = _factor_orders(q, deco)
    p = cx.p
    side_sets = [edge_sets[d >> 1] for d in cx._side]
    face_sets = []  # by face id
    face_conflicts = {}
    for f in range(cx.num_faces):
        sets = side_sets[p * f:p * f + p]
        # corner k lies between sides k-1 and k
        per_corner = [a & b for a, b in zip(sets[-1:] + sets[:-1], sets)]
        face_sets.append(per_corner[0])
        if per_corner.count(per_corner[0]) != p:
            face_conflicts[f] = tuple(per_corner)

    tables = cx._derive()
    corner_of = tables.corner_of
    signatures = []
    for v, (rays, pair, ray_types) in enumerate(
        zip(tables.rotations, tables.pairs, tables.ray_types)
    ):
        if pair is None:
            raise ValueError(f"vertex {v} has no alternating type pair")
        # a type pair needs four rays; sector k is the face of corner k+1
        d0, d1, d2, d3 = rays
        signatures.append((
            pair,
            (edge_sets[d0 >> 1], edge_sets[d1 >> 1], edge_sets[d2 >> 1], edge_sets[d3 >> 1]),
            ray_types,
            (face_sets[corner_of[d1] // p], face_sets[corner_of[d2] // p],
             face_sets[corner_of[d3] // p], face_sets[corner_of[d0] // p]),
        ))

    assignment = GroupAssignment(
        cx=cx,
        q=q,
        decomposition=deco,
        orders=orders,
        coloring=coloring,
        edge_factors=dict(enumerate(edge_sets)),
        face_factors=dict(enumerate(face_sets)),
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


def _link_cosets(assignment, vertex):
    """The coset link of a vertex as numbers, with its verdict.

    A ray coset is numbered in mixed radix over the ray's absent factors in
    sorted order, the last varying fastest, so where the ray has cosets a
    coset's number is its position in the ray's coset list.  A factor of
    order 0 counts with radix 1, so a number stays decodable where the ray
    has no cosets.  Sector k's cosets are enumerated one absent factor at
    a time, each as the pair number ``a * radix(b) + b`` of its endpoints
    on its type-i ray a and its other ray b, a factor the sector contains
    reading 0.

    The link is simple when each sector's pair numbers are distinct (the
    four sectors join four different ray pairs).  It is complete when every
    endpoint is enumerated (its ray has cosets), every sector with cosets
    joins a type-i ray to a type-j ray, and the distinct pairs number
    |side i|·|side j|.  Returns ``((i, j), sides, rays, sectors, simple,
    complete, sizes_ok)``: ``sides`` maps each type to its side size,
    ``rays[k]`` is ray k's ``(absent factors, strides, radix, cosets)`` and
    ``sectors[k]`` is ``(ray a, ray b, pair numbers)``.
    """
    signatures = assignment.signatures
    if type(vertex) is not int or not 0 <= vertex < len(signatures):
        raise ValueError(f"vertex {vertex!r} is not an int in 0..{len(signatures) - 1}")
    (i, j), ray_factors, ray_types, sector_factors = signatures[vertex]
    universe = frozenset({D_FACTOR, E_FACTOR, _type_factor(i), _type_factor(j)})
    orders = assignment.orders

    rays = []
    sides = {i: 0, j: 0}
    for factors, t in zip(ray_factors, ray_types):
        absent = sorted(universe - factors)
        strides = {}
        radix = count = 1
        for f in reversed(absent):
            strides[f] = radix
            radix *= max(orders[f], 1)
            count *= max(orders[f], 0)
        rays.append((absent, strides, radix, count))
        sides[t] += count

    sectors = []
    simple = enumerated = bipartite = True
    distinct = 0
    for k in range(4):
        a, b = (k, (k + 1) % 4) if ray_types[k] == i else ((k + 1) % 4, k)
        _, strides_a, _, count_a = rays[a]
        _, strides_b, radix_b, count_b = rays[b]
        pairs = [0]
        for f in sorted(universe - sector_factors[k]):
            step = strides_a.get(f, 0) * radix_b + strides_b.get(f, 0)
            steps = [n * step for n in range(orders[f])]
            pairs = [n + s for n in pairs for s in steps]
        sectors.append((a, b, pairs))
        if pairs:
            n = len(set(pairs))
            simple = simple and n == len(pairs)
            distinct += n
            enumerated = enumerated and count_a > 0 and count_b > 0
            bipartite = bipartite and (ray_types[a], ray_types[b]) == (i, j)

    complete = enumerated and bipartite and distinct == sides[i] * sides[j]
    sizes_ok = sides[i] == assignment.q[j - 1] and sides[j] == assignment.q[i - 1]
    return (i, j), sides, rays, sectors, simple, complete, sizes_ok


def build_link_graph(assignment, vertex):
    """The link of a vertex as a LinkGraph, built from its coset numbers.

    Link vertices are the cosets of the four edge groups in the vertex
    group, identified by rotation position; link edges are the cosets of
    the face groups of the four sectors, each joining the two edge-group
    cosets it refines.  The verdict asks for a simple complete bipartite
    graph whose type-i side has exactly q_j vertices (and vice versa) —
    the same conditions as verify_link_conditions, derived independently.

    ``_link_cosets`` numbers the cosets and reaches the verdict; this
    step only decodes the numbers.  A coset is ``(ray, ((factor, value),
    ...))`` over the factors absent from its group, in sorted factor
    order; a ray's cosets are listed in number order and an edge is
    ``(type-i end, type-j end)``.  An endpoint on a ray with no cosets,
    which only an order-0 factor makes, decodes like any other.  Nothing
    in the pipeline calls this: certificates read the numbers.
    """
    (i, j), _sides, rays, sectors, simple, complete, sizes_ok = _link_cosets(
        assignment, vertex
    )
    ray_types = assignment.signatures[vertex][2]
    orders = assignment.orders

    def coset(k, number):
        absent, strides, _radix, _count = rays[k]
        return k, tuple((f, number // strides[f] % max(orders[f], 1)) for f in absent)

    side_vertices = {i: [], j: []}
    for k, (t, ray) in enumerate(zip(ray_types, rays)):
        side_vertices[t].extend(coset(k, n) for n in range(ray[3]))
    edges = []
    for a, b, pairs in sectors:
        radix_b = rays[b][2]
        edges.extend((coset(a, n // radix_b), coset(b, n % radix_b)) for n in pairs)
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
    tuples, listed by least element.  p >= 1 and the axes must be ints.
    """
    _require_int_parameter("p", p)
    if p < 1:
        raise ValueError(f"p must be at least 1, got {p}")
    axes = tuple(axes)
    for m in axes:
        _require_int_parameter("axis", m)
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
    ``assignment.signatures``.  Its coset numbers are enumerated once per
    distinct signature, at the lowest vertex that has it, and every vertex
    with that signature takes the side sizes and verdict read from them;
    no link graph is built.
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
            types, sizes, _rays, _sectors, simple, complete, sizes_ok = _link_cosets(
                assignment, v
            )
            sides = [sizes[t] for t in types]
            entry = links[signature] = (sides, simple and complete and sizes_ok)
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
            "id": e,
            "type": t,
            "color": coloring.colors[e],
            "factors": sorted(assignment.edge_factors[e]),
        }
        for e, t in enumerate(cx._edge_types)
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


def _certify(p, q, g, pieces=1, grid=None, axis=None):
    """Build a construction, color it and certify it.

    ``pieces=1`` is the Block complex for q.  ``pieces`` 2 or 4 cuts every
    face of the a×b rect ``grid`` into that many at axis 1 and certifies the
    sequence q derives about its symmetry ``axis``.
    """
    construction = {"method": "Block", "p": p, "genus": g}
    if pieces == 1:
        cx = build_block_tessellation(p, g)
    else:
        subdivide = subdivide_two if pieces == 2 else subdivide_four
        cx, _smap = subdivide(build_rect_tessellation(p, *grid), axis=1)
        q = derived_sequence(q, pieces, axis)
        construction.update(
            method=f"Subdiv{pieces}", grid=list(grid), symmetry_axis=axis, derived_q=list(q)
        )
    coloring = solve_good_coloring(cx, "propagate")
    if not isinstance(coloring, EdgeColoring):
        raise RuntimeError("no good coloring on the constructed complex")
    cert = build_certificate(cx, coloring, q)
    cert["construction"] = construction
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

    def exists(method, reason, *construction):
        if not certify:
            return Verdict(EXISTS, method, reason)
        try:
            cert = _certify(p, q, g, *construction)
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
        return exists("Block", f"F={F} divisible by 4 and q alternating non-coprime")

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
            2, (F // 2, 2), m0,
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
        4, (a, F // a), m0,
    )


def verdict_to_dict(verdict):
    return {
        "outcome": verdict.outcome,
        "method": verdict.method,
        "reason": verdict.reason,
        "certificate": verdict.certificate,
    }
