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

from collections import namedtuple
from itertools import chain

from .loops import trace_geodesic_loops
from .surface_complex import (
    CCW,
    CW,
    SurfaceComplex,
    _require_int_parameter,
    _require_int_sequence,
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
    Every face id must be an int in 0..len(chiralities)-1.
    """
    n_faces = len(chiralities)
    face_ids = set(range(n_faces))
    if len(matchings) != p:
        raise ValueError(f"expected {p} matchings, got {len(matchings)}")
    side = [-1] * (p * n_faces)  # corner -> dart, as SurfaceComplex takes it
    edge_types = []
    for t in range(1, p + 1):
        ids = list(chain.from_iterable(matchings[t - 1]))
        if not set(map(type, ids)) <= {int} or not face_ids.issuperset(ids):
            bad = next(z for z in ids if type(z) is not int or z not in face_ids)
            raise ValueError(
                f"matching for type {t}: face {bad!r} is not an int in 0..{n_faces - 1}"
            )
        seen = set()
        pairs = sorted((min(x, y), max(x, y)) for x, y in matchings[t - 1])
        for x, y in pairs:
            if x == y:
                raise ValueError(f"face {x} matched to itself at type {t}")
            for z in (x, y):
                if z in seen:
                    raise ValueError(f"face {z} matched twice at type {t}")
                seen.add(z)
            d = 2 * len(edge_types)
            edge_types.append(t)
            for z, rev in ((x, 0), (y, 1)):
                pos = t - 1 if chiralities[z] == CCW else (p - t) % p
                side[p * z + pos] = d + rev
        if len(seen) != n_faces:
            raise ValueError(f"matching for type {t} does not cover every face")
    return SurfaceComplex(p, edge_types, list(chiralities), side)


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

    # face 4j+k is in block j; a row (k, k2, shift) of a table pairs face
    # 4j+k with face k2 of block j+shift, for every j
    odd = ((0, 3, 0), (1, 2, 0))
    even = ((0, 2, 0), (1, 3, 0))
    last = ((0, 2, -1), (1, 3, 1))
    chir = [CCW, CCW, CW, CW] * n
    matchings = []
    for t in range(1, p + 1):
        table = last if t == p else odd if t % 2 else even
        matchings.append([
            (4 * j + k, 4 * ((j + shift) % n) + k2) for k, k2, shift in table for j in range(n)
        ])

    cx = complex_from_matchings(p, chir, matchings)
    report = validate(cx, expected_genus=g)
    if not report.passed:
        raise ConstructionFailure(
            f"block tessellation failed validation: {report.tags()}"
        )
    if not trace_geodesic_loops(cx).hypotheses_ok:
        raise ConstructionFailure("block tessellation violates the loop hypotheses")
    return cx


def build_rect_tessellation(p, a, b):
    """Glue an a×b torus grid of notched squares, pairing the notch holes.

    Vertical rims glue east-to-west along rows, rim segments glue
    top-to-bottom along columns (mirrored, so segment r meets segment
    m+2-r), and the notch slits that remain open are two-sided holes glued
    in pairs along each row: notch s of column j to notch m+1-s of column
    j+1, and for odd m the middle notches of columns 2u and 2u+1, so b must
    be even.  Genus comes out to 1 + ab(p-4)/8.  Edge types are provisional
    — structural validity is enforced, full labeling cannot hold here.
    """
    _require_int_parameter("p", p)
    _require_int_parameter("a", a)
    _require_int_parameter("b", b)
    if p % 4 or p < 8:
        raise BadDivisibility("rectangular construction needs p ≡ 0 (mod 4), p >= 8")
    if a < 1 or b < 1:
        raise ValueError("grid dimensions must be positive")
    # A notched square with m = (p-4)/4 notches per rim reads, from side 0:
    # the east rim 0; top rim segment r at 2r-1 and top notch r at 2r; the
    # west rim 2m+2; bottom rim segment r at 2m+1+2r and bottom notch r at
    # 2m+2+2r.
    m = (p - 4) // 4
    if b % 2 and m % 2:
        raise ConstructionFailure(
            "no hole pairing: odd columns need an even notch count per face"
        )

    def fid(i, j):
        return i * b + j

    F = a * b
    side = [-1] * (p * F)  # corner -> dart, as SurfaceComplex takes it
    edge_types = []

    def new_edge(etype, face_x, pos_x, face_y, pos_y):
        d = 2 * len(edge_types)
        edge_types.append(etype)
        side[p * face_x + pos_x] = d
        side[p * face_y + pos_y] = d + 1

    for i in range(a):
        for j in range(b):
            new_edge(1, fid(i, j), 0, fid(i, (j + 1) % b), 2 * m + 2)
    for i in range(a):
        for j in range(b):
            for r in range(1, m + 2):
                new_edge(
                    2 * r,
                    fid(i, j), 2 * r - 1,
                    fid((i + 1) % a, j), 2 * m + 1 + 2 * (m + 2 - r),
                )

    # Nested pairing: notch s of one column meets notch m+1-s of the next,
    # so a rim geodesic that dives into a notch resurfaces one step later
    # and closes after two edges; the middle notch (odd m) pairs between
    # adjacent columns instead.  A pair (i, j, s, k, t) joins notch s of
    # column j to notch t of column k in row i; each such hole is the top
    # notch r of face (i, j) over the bottom notch m+1-r of the face below.
    pairs = []
    for i in range(a):
        for j in range(b):
            for s in range(1, m // 2 + 1):
                pairs.append((i, j, s, (j + 1) % b, m + 1 - s))
    if m % 2:
        mid = (m + 1) // 2
        for i in range(a):
            for u in range(b // 2):
                pairs.append((i, 2 * u, mid, 2 * u + 1, mid))
    for i, j, s, k, t in pairs:
        below = (i + 1) % a
        new_edge(2 * s + 1, fid(i, j), 2 * s, fid(i, k), 2 * t)
        new_edge(
            2 * s + 1,
            fid(below, j), 2 * m + 2 + 2 * (m + 1 - s),
            fid(below, k), 2 * m + 2 + 2 * (m + 1 - t),
        )

    cx = SurfaceComplex(p, edge_types, [CCW] * F, side)
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

    # edge e becomes edge first[e], or the halves first[e] and first[e] + 1
    # when its type is cut
    cut = [t in cut_types for t in cx._edge_types]
    first = []
    next_id = 0
    for is_cut in cut:
        first.append(next_id)
        next_id += 1 + is_cut
    splits = {e: (h, h + 1) for e, (h, is_cut) in enumerate(zip(first, cut)) if is_cut}
    # face ids are dense and sorted, so face f's chords follow those of f-1
    n_chord = 1 if pieces == 2 else 4
    chords = {}
    side = cx._side
    new_side = []  # the sub-faces' corners -> darts, as SurfaceComplex takes them
    for f in range(cx.num_faces):
        darts = side[p * f:p * f + p]
        ks = [k for k, d in enumerate(darts) if cut[d >> 1]]
        if len(ks) != pieces:
            raise CutSystemFailure(
                f"axis {axis}: face {f} has {len(ks)} sides in the cut class, "
                f"needs {pieces}"
            )
        if ks != [ks[0] + t * step for t in range(pieces)]:
            raise CutSystemFailure(
                f"axis {axis}: face {f} cut sides sit at {ks}, not evenly spaced"
            )
        chord = chords[f] = [next_id + n_chord * f + c for c in range(n_chord)]
        for j, start in enumerate(ks):
            # a walked side of dart 2e + rev keeps its sense; of a cut edge
            # it is half 1 ^ rev where the walk starts and half rev where it
            # ends
            d = darts[start]
            rev = d & 1
            new_side.append(2 * (first[d >> 1] + (1 ^ rev)) + rev)
            for off in range(1, step):
                d = darts[(start + off) % p]
                new_side.append(2 * first[d >> 1] + (d & 1))
            d = darts[(start + step) % p]
            rev = d & 1
            new_side.append(2 * (first[d >> 1] + rev) + rev)
            if pieces == 2:
                new_side.append(2 * chord[0] + (j == 1))
            else:
                new_side.append(2 * chord[(j + 1) % 4])
                new_side.append(2 * chord[j] + 1)

    # one breadth-first pass from sub-face 0, whose leading half-side is
    # declared type 1: each face reached takes the sense opposite to the face
    # it was reached from (+1 reads types ascending, i.e. ccw) and the type
    # offset that continues the shared edge.  A type clash is held back until
    # the pass is over, so a dual graph that is not bipartite (which is what
    # odd loops force) always reports as a cut failure.  The base is closed,
    # so each dart of the sub-faces is the side of one corner.
    corner_of = [0] * len(new_side)
    for c, d in enumerate(new_side):
        corner_of[d] = c
    n_sub = len(new_side) // new_p
    sense = [0] * n_sub
    offsets = [0] * n_sub
    sense[0] = offsets[0] = 1
    queue = [0]
    types = [0] * (len(new_side) // 2)
    clash = None
    for f in queue:  # the queue grows while it is walked
        for k, d in enumerate(new_side[new_p * f:new_p * f + new_p]):
            t = (offsets[f] - 1 + sense[f] * k) % new_p + 1
            eid = d >> 1
            if types[eid] and types[eid] != t and clash is None:
                clash = f"edge {eid}: {types[eid]} vs {t}"
            types[eid] = t
            g, kg = divmod(corner_of[d ^ 1], new_p)
            if sense[g]:
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

    out = SurfaceComplex(new_p, types, [CCW if s == 1 else CW for s in sense], new_side)
    frep = validate(out, expected_genus=genus)
    if not frep.passed:
        raise ConstructionFailure(
            f"axis {axis}: subdivided complex fails validation: {frep.tags()}"
        )
    if not trace_geodesic_loops(out).hypotheses_ok:
        raise CutSystemFailure(
            f"axis {axis}: subdivided loops violate the intersection hypotheses"
        )

    # the head of (h, True) is the tail of (h, False), dart 2h + 1
    tail = out._derive().tail
    midpoints = {old_eid: tail[2 * h1 + 1] for old_eid, (h1, _h2) in splits.items()}
    centers = {f: tail[2 * chord[0] + 1] for f, chord in chords.items()} if pieces == 4 else {}
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


def _from_axis(q, m):
    """q read from axis m, as a tuple: entry i is q_{m+i}, indices 1-based and cyclic."""
    k = (m - 1) % len(q)
    return tuple(q[k:]) + tuple(q[:k])


def is_symmetric(q, m, pieces):
    """Is the thickness sequence ``pieces``-symmetric about axis m?

    2-symmetric: q reads the same both ways from m, so q[m+i] = q[m-i].
    4-symmetric: also unchanged by the half turn, q[m+i] = q[m+p/2+i], so
    2-symmetric about m + p/4 too (about the antipode m + p/2 it is the
    same reflection as about m); this needs p divisible by 4.  These are
    the symmetries a cut into two or four pieces along axis m needs.  An
    empty sequence has no axis and raises ValueError.
    """
    q = _require_int_sequence(q)
    _require_int_parameter("axis", m)
    _require_int_parameter("pieces", pieces)
    p = len(q)
    if pieces not in (2, 4):
        raise ValueError("pieces must be 2 or 4")
    if not p:
        raise ValueError("an empty sequence has no symmetry axis")
    if pieces == 4 and p % 4:
        raise BadDivisibility(f"4-symmetry needs a length divisible by 4, got {p}")
    r = _from_axis(q, m)
    return r[1:] == r[:0:-1] and (pieces == 2 or r[:p // 2] == r[p // 2:])


def derived_sequence(q, pieces, m):
    """Thickness sequence of the subdivided tessellation.

    Reads half (or a quarter of) the sequence starting at the symmetry axis
    and appends thickness-2 entries for the chords.  The requested symmetry
    about m is checked, not assumed.
    """
    if not is_symmetric(q, m, pieces):
        raise SymmetryViolation(f"q is not {pieces}-symmetric about {m}")
    return _from_axis(q, m)[:len(q) // pieces + 1] + (2,) * (pieces // 2)


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
