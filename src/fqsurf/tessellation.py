"""Builders for right-angled p-gon tessellations of closed surfaces.

Three construction families live here, plus the chord subdivisions that
repair their parity defects:

* ``build_block_tessellation`` — glues blocks of four p-gons level by level
  through explicit face matchings; output is fully typed and satisfies the
  coloring hypotheses (all geodesic loops even, pairwise meetings at most a
  single vertex).
* ``build_rect_tessellation`` — an a×b grid of "notched squares": each face
  keeps (p-4)/4 unglued notches on its top and bottom rims, the notch slits
  form two-sided holes, and the holes are glued in pairs to raise the genus.
  The output is structurally a surface but deliberately carries provisional
  edge types (odd geodesic loops make a consistent labeling impossible), so
  validation passes only at the structural tier.
* ``subdivide_two`` / ``subdivide_four`` — cut every face through midpoints
  of its axis-class sides, then orient and retype the pieces in a single
  breadth-first pass over their walks (no provisional complex is built), and
  return a fully valid tessellation with a smaller polygon together with a
  record of the surgery.  ``is_symmetric`` is the one statement of the 2- or
  4-symmetry of a thickness sequence that such a cut needs.

Face matchings are the common engine: a perfect matching of faces per type
glues each face's type-t side to its partner's, which is how the block
construction and several test fixtures are wired.
"""

from collections import deque, namedtuple

from .loops import trace_geodesic_loops
from .surface_complex import (
    CCW,
    CW,
    _require_int_parameter,
    _require_int_sequence,
    build_complex,
    validate,
)


class NonIntegralFaceCount(ValueError):
    """8(g-1)/(p-4) is not an integer for these parameters."""


class BadDivisibility(ValueError):
    """A parameter fails the congruence a construction needs."""


class ConstructionFailure(RuntimeError):
    """A builder could not honor its postconditions."""


class CutSystemFailure(RuntimeError):
    """No chord system cuts every face cleanly and kills the odd loops."""


class SymmetryViolation(ValueError):
    """The thickness sequence lacks the symmetry an operation assumes."""


def face_count(p, g):
    """Number of p-gon faces a genus-g right-angled tessellation must have."""
    _require_int_parameter("p", p)
    _require_int_parameter("genus", g)
    if p < 5:
        raise ValueError("p must be at least 5")
    if g < 2:
        raise ValueError("genus must be at least 2")
    num = 8 * (g - 1)
    den = p - 4
    if num % den:
        raise NonIntegralFaceCount(
            f"8(g-1) = {num} is not divisible by p-4 = {den}"
        )
    return num // den


def complex_from_matchings(p, chiralities, matchings):
    """Build a complex by gluing faces type by type.

    ``matchings[t-1]`` is a perfect matching on face ids; each matched pair
    is glued along their type-t sides.  Counterclockwise faces place type t
    at position t-1, clockwise faces at position p-t (mod p), so every face
    reads a full consecutive type cycle and the labeling axiom holds by
    construction.  The lower face id of a pair takes the forward sense.
    """
    n_faces = len(chiralities)
    if len(matchings) != p:
        raise ValueError(f"expected {p} matchings, got {len(matchings)}")
    sides = [[None] * p for _ in range(n_faces)]
    edge_specs = []
    for t in range(1, p + 1):
        seen = set()
        pairs = sorted((min(x, y), max(x, y)) for x, y in matchings[t - 1])
        for x, y in pairs:
            if x == y:
                raise ValueError(f"face {x} matched to itself at type {t}")
            for z in (x, y):
                if z in seen:
                    raise ValueError(f"face {z} matched twice at type {t}")
                seen.add(z)
            eid = len(edge_specs)
            edge_specs.append((eid, t))
            for z, rev in ((x, False), (y, True)):
                pos = t - 1 if chiralities[z] == CCW else (p - t) % p
                sides[z][pos] = (eid, rev)
        if len(seen) != n_faces:
            raise ValueError(f"matching for type {t} does not cover every face")
    face_specs = [(i, chiralities[i], sides[i]) for i in range(n_faces)]
    return build_complex(p, edge_specs, face_specs)


def build_block_tessellation(p, g):
    """Glue F/4 blocks of four p-gons into a genus-g surface.

    Within a block the four faces pair off one way at odd types and the
    other way at even types; the last type chains neighboring blocks into a
    cycle.  Every edge joins a counterclockwise face to a clockwise one, so
    the dual is bipartite and every geodesic loop is even; consecutive
    matchings are pointwise disjoint, which is exactly the degree-4 vertex
    condition.
    """
    if p % 2 or p < 6:
        raise BadDivisibility("block construction needs an even p >= 6")
    F = face_count(p, g)
    if F % 4:
        raise BadDivisibility(f"face count {F} is not a multiple of 4")
    n = F // 4

    def A(j):
        return 4 * j

    def B(j):
        return 4 * j + 1

    def C(j):
        return 4 * j + 2

    def D(j):
        return 4 * j + 3

    chir = []
    for _ in range(n):
        chir += [CCW, CCW, CW, CW]
    matchings = []
    for t in range(1, p + 1):
        if t == p:
            m = [(A(j), C((j - 1) % n)) for j in range(n)]
            m += [(B(j), D((j + 1) % n)) for j in range(n)]
        elif t % 2:
            m = [(A(j), D(j)) for j in range(n)]
            m += [(B(j), C(j)) for j in range(n)]
        else:
            m = [(A(j), C(j)) for j in range(n)]
            m += [(B(j), D(j)) for j in range(n)]
        matchings.append(m)

    cx = complex_from_matchings(p, chir, matchings)
    report = validate(cx, expected_genus=g)
    if not report.passed:
        raise ConstructionFailure(
            f"block tessellation failed validation: {report.tags()}"
        )
    if not trace_geodesic_loops(cx).hypotheses_ok:
        raise ConstructionFailure("block tessellation violates the loop hypotheses")
    return cx


def _rect_layout(p):
    """Side positions of a notched square: rim segments and notches."""
    m = (p - 4) // 4
    pos_e = 0
    pos_w = 2 * m + 2
    pos_tg = {r: 2 * r - 1 for r in range(1, m + 2)}
    pos_tn = {r: 2 * r for r in range(1, m + 1)}
    pos_bg = {r: 2 * m + 1 + 2 * r for r in range(1, m + 2)}
    pos_bn = {r: 2 * m + 2 + 2 * r for r in range(1, m + 1)}
    return m, pos_e, pos_w, pos_tg, pos_tn, pos_bg, pos_bn


def build_rect_tessellation(p, a, b):
    """Glue an a×b torus grid of notched squares, pairing the notch holes.

    Vertical rims glue east-to-west along rows, rim segments glue
    top-to-bottom along columns (mirrored, so segment r meets segment
    m+2-r), and the notch slits that remain open are two-sided holes glued
    in pairs: side-by-side pairs when b is even, otherwise diagonal pairs
    that step one row and one column (which needs an even notch count per
    face).  Genus comes out to 1 + ab(p-4)/8.  Edge types are provisional —
    structural validity is enforced, full labeling cannot hold here.
    """
    _require_int_parameter("p", p)
    _require_int_parameter("a", a)
    _require_int_parameter("b", b)
    if p % 4 or p < 8:
        raise BadDivisibility("rectangular construction needs p ≡ 0 (mod 4), p >= 8")
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be positive")
    m, pos_e, pos_w, pos_tg, pos_tn, pos_bg, pos_bn = _rect_layout(p)
    if b % 2 and m % 2:
        raise ConstructionFailure(
            "no hole pairing: odd columns need an even notch count per face"
        )

    def fid(i, j):
        return i * b + j

    F = a * b
    sides = [[None] * p for _ in range(F)]
    edge_specs = []

    def new_edge(etype, face_x, pos_x, face_y, pos_y):
        eid = len(edge_specs)
        edge_specs.append((eid, etype))
        sides[face_x][pos_x] = (eid, False)
        sides[face_y][pos_y] = (eid, True)

    for i in range(a):
        for j in range(b):
            new_edge(1, fid(i, j), pos_e, fid(i, (j + 1) % b), pos_w)
    for i in range(a):
        for j in range(b):
            for r in range(1, m + 2):
                new_edge(
                    2 * r,
                    fid(i, j), pos_tg[r],
                    fid((i + 1) % a, j), pos_bg[m + 2 - r],
                )

    def hole_top(i, j, r):
        return (fid(i, j), pos_tn[r])

    def hole_bottom(i, j, r):
        return (fid((i + 1) % a, j), pos_bn[m + 1 - r])

    # Nested pairing: notch s of one column meets notch m+1-s of the next,
    # so a rim geodesic that dives into a notch resurfaces one step later
    # and closes after two edges; the middle notch (odd m) pairs between
    # adjacent columns instead.
    pairs = []
    for i in range(a):
        for j in range(b):
            for s in range(1, m // 2 + 1):
                pairs.append(((i, j, s), (i, (j + 1) % b, m + 1 - s)))
    if m % 2:
        mid = (m + 1) // 2
        for i in range(a):
            for u in range(b // 2):
                pairs.append(((i, 2 * u, mid), (i, 2 * u + 1, mid)))
    for x, y in pairs:
        etype = 2 * x[2] + 1
        fx, px = hole_top(*x)
        fy, py = hole_top(*y)
        new_edge(etype, fx, px, fy, py)
        fx, px = hole_bottom(*x)
        fy, py = hole_bottom(*y)
        new_edge(etype, fx, px, fy, py)

    face_specs = [(f, CCW, sides[f]) for f in range(F)]
    cx = build_complex(p, edge_specs, face_specs)
    target_genus = 1 + F * (p - 4) // 8
    report = validate(cx, expected_genus=target_genus)
    if not report.structurally_ok:
        raise ConstructionFailure(
            f"rectangular tessellation is not a right-angled surface: {report.tags()}"
        )
    return cx


class SubdivisionMap(namedtuple(
    "SubdivisionMap",
    "pieces axis edge_splits chords midpoint_vertices center_vertices",
)):
    """Record of a chord subdivision: what was cut and what is new."""

    __slots__ = ()


def _subdivide(cx, pieces, axis, genus):
    p = cx.p
    step = p // pieces
    new_p = step + (2 if pieces == 2 else 3)
    cut_types = {((axis - 1 + k * step) % p) + 1 for k in range(pieces)}
    cut_edges = {e.id for e in cx.edges if e.type in cut_types}

    face_cuts = {}
    for f in cx.faces:
        pos = [k for k, (eid, _rev) in enumerate(f.sides) if eid in cut_edges]
        if len(pos) != pieces:
            raise CutSystemFailure(
                f"axis {axis}: face {f.id} has {len(pos)} sides in the cut class, "
                f"needs {pieces}"
            )
        k0 = pos[0]
        if pos != [k0 + t * step for t in range(pieces)]:
            raise CutSystemFailure(
                f"axis {axis}: face {f.id} cut sides sit at {pos}, not evenly spaced"
            )
        face_cuts[f.id] = pos

    splits = {}
    carried = {}
    next_id = 0
    for e in cx.edges:
        if e.id in cut_edges:
            splits[e.id] = (next_id, next_id + 1)
            next_id += 2
        else:
            carried[e.id] = next_id
            next_id += 1
    chords = {}
    for f in cx.faces:
        n_chord = 1 if pieces == 2 else 4
        chords[f.id] = list(range(next_id, next_id + n_chord))
        next_id += n_chord

    def half_sides(old_side, part):
        """New (edge, reversed) for the first/second half of a walked side."""
        eid, rev = old_side
        h1, h2 = splits[eid]
        if not rev:
            return (h1, False) if part == "first" else (h2, False)
        return (h2, True) if part == "first" else (h1, True)

    sub_faces = []
    for f in cx.faces:
        ks = face_cuts[f.id]
        for j in range(pieces):
            start = ks[j]
            walk = [half_sides(f.sides[start], "second")]
            for off in range(1, step):
                eid, rev = f.sides[(start + off) % p]
                walk.append((carried[eid], rev))
            walk.append(half_sides(f.sides[(start + step) % p], "first"))
            if pieces == 2:
                walk.append((chords[f.id][0], j == 1))
            else:
                walk.append((chords[f.id][(j + 1) % 4], False))
                walk.append((chords[f.id][j], True))
            sub_faces.append(walk)

    occ = [[] for _ in range(next_id)]
    for idx, walk in enumerate(sub_faces):
        for k, (eid, _rev) in enumerate(walk):
            occ[eid].append((idx, k))

    # one breadth-first pass from sub-face 0, whose leading half-side is
    # declared type 1: each face reached takes the sense opposite to the face
    # it was reached from (+1 reads types ascending, i.e. ccw) and the type
    # offset that continues the shared edge.  A type clash is held back until
    # the pass is over, so a dual graph that is not bipartite (which is what
    # odd loops force) always reports as a cut failure.
    sense = {0: 1}
    offsets = {0: 1}
    queue = deque([0])
    types = {}
    clash = None
    while queue:
        f = queue.popleft()
        for k, (eid, _rev) in enumerate(sub_faces[f]):
            t = (offsets[f] - 1 + sense[f] * k) % new_p + 1
            if eid in types and types[eid] != t and clash is None:
                clash = f"edge {eid}: {types[eid]} vs {t}"
            types[eid] = t
            for g, kg in occ[eid]:
                if (g, kg) == (f, k):
                    continue
                if g in sense:
                    if sense[g] == sense[f]:
                        raise CutSystemFailure(
                            f"axis {axis}: subdivided dual graph is not bipartite"
                        )
                    continue
                sense[g] = -sense[f]
                offsets[g] = (t - 1 + sense[f] * kg) % new_p + 1
                queue.append(g)
    if clash is not None:
        raise ConstructionFailure(
            f"axis {axis}: no consistent relabeling ({clash})"
        )

    final_edges = [(eid, types[eid]) for eid in range(next_id)]
    final_faces = [
        (idx, CCW if sense[idx] == 1 else CW, walk)
        for idx, walk in enumerate(sub_faces)
    ]
    out = build_complex(new_p, final_edges, final_faces)
    frep = validate(out, expected_genus=genus)
    if not frep.passed:
        raise ConstructionFailure(
            f"axis {axis}: subdivided complex fails validation: {frep.tags()}"
        )
    if not trace_geodesic_loops(out).hypotheses_ok:
        raise CutSystemFailure(
            f"axis {axis}: subdivided loops violate the intersection hypotheses"
        )

    midpoints = {}
    for old_eid, (h1, _h2) in splits.items():
        midpoints[old_eid] = out.head_vertex((h1, True))
    centers = {}
    if pieces == 4:
        for f in cx.faces:
            centers[f.id] = out.head_vertex((chords[f.id][0], True))
    return out, SubdivisionMap(
        pieces=pieces,
        axis=axis,
        edge_splits=splits,
        chords=chords,
        midpoint_vertices=midpoints,
        center_vertices=centers,
    )


def _subdivision_entry(cx, pieces, axis):
    if axis is not None:
        _require_int_parameter("axis", axis)
        if not 1 <= axis <= cx.p:
            raise ValueError(f"axis {axis} is outside 1..{cx.p}")
    report = validate(cx)
    if not report.structurally_ok:
        raise ValueError("subdivision requires a structurally valid complex")
    if axis is not None:
        return _subdivide(cx, pieces, axis, report.genus)
    failures = []
    for m in range(1, cx.p // pieces + 1):
        try:
            return _subdivide(cx, pieces, m, report.genus)
        except (CutSystemFailure, ConstructionFailure) as exc:
            failures.append(str(exc))
    raise CutSystemFailure("no cut axis works; " + "; ".join(failures))


def subdivide_two(cx, axis=None):
    """Cut every face into two (p+4)/2-gons along one chord.

    The cut class is the axis type and its antipode; each face must carry
    those on opposite sides.  The result is retyped from scratch and must
    validate fully, with every geodesic loop even.  When ``axis`` is None
    all classes are tried in order.
    """
    if cx.p % 4:
        raise BadDivisibility(
            f"p={cx.p} would subdivide into odd-sided pieces"
        )
    return _subdivision_entry(cx, 2, axis)


def subdivide_four(cx, axis=None):
    """Cut every face into four (p/4+3)-gons by two crossing chords."""
    if cx.p % 8 != 4:
        raise BadDivisibility(
            f"p={cx.p} is not congruent to 4 mod 8"
        )
    return _subdivision_entry(cx, 4, axis)


def q_at(q, i):
    """Entry i of a thickness sequence, indexed cyclically from 1."""
    return q[(i - 1) % len(q)]


def is_symmetric(q, m, pieces):
    """Is the thickness sequence ``pieces``-symmetric about axis m?

    2-symmetric: q reads the same both ways from m, so q[m+i] = q[m-i].
    4-symmetric: it also reads the same both ways from the antipode m+p/2,
    which needs p divisible by 4.  These are the symmetries a cut into two
    or four pieces along axis m needs.
    """
    q = _require_int_sequence(q)
    _require_int_parameter("axis", m)
    _require_int_parameter("pieces", pieces)
    p = len(q)
    if pieces not in (2, 4):
        raise ValueError("pieces must be 2 or 4")
    if pieces == 4 and p % 4:
        raise BadDivisibility(f"4-symmetry needs a length divisible by 4, got {p}")
    centers = (m,) if pieces == 2 else (m, m + p // 2)
    return all(
        len({q_at(q, c + s * i) for c in centers for s in (1, -1)}) == 1
        for i in range(1, p // 2 + 1)
    )


def derived_sequence(q, pieces, m):
    """Thickness sequence of the subdivided tessellation.

    Reads half (or a quarter of) the sequence starting at the symmetry axis
    and appends thickness-2 entries for the chords.  The requested symmetry
    about m is checked, not assumed.
    """
    if not is_symmetric(q, m, pieces):
        raise SymmetryViolation(f"q is not {pieces}-symmetric about {m}")
    read = tuple(q_at(q, m + i) for i in range(len(q) // pieces + 1))
    return read + (2,) * (pieces // 2)


SUBDIV_FORMAT = "fq-subdiv/1"


def subdivision_map_to_dict(sub):
    return {
        "format": SUBDIV_FORMAT,
        "pieces": sub.pieces,
        "axis": sub.axis,
        "edge_splits": [
            {"edge": e, "halves": list(h)} for e, h in sorted(sub.edge_splits.items())
        ],
        "chords": [
            {"face": f, "edges": list(c)} for f, c in sorted(sub.chords.items())
        ],
        "midpoints": [
            {"edge": e, "vertex": v} for e, v in sorted(sub.midpoint_vertices.items())
        ],
        "centers": [
            {"face": f, "vertex": v} for f, v in sorted(sub.center_vertices.items())
        ],
    }
