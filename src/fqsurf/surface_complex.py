"""Closed surfaces tiled by typed right-angled polygons, with exact homology.

Data model
----------
A :class:`SurfaceComplex` stores ``p`` (sides per face) and three flat
tables: the edge types, indexed by edge id; the face chiralities, indexed by
face id; and ``side``, one list of darts indexed by corner.  Corner
``c = p*f + k`` is side k of face f, in the counterclockwise walk order of
the surface round f, and ``side[c]`` is the dart ``2*edge + reversed``
naming the edge the walk traverses there and the sense it traverses it in.
An edge of a closed surface is mentioned by exactly two sides, once forward
and once reversed; storing coherent counterclockwise walks is what makes the
surface oriented.  ``chirality`` records whether the edge types ascend
(``"ccw"``) or descend (``"cw"``) along the stored walk — the stored side
order itself never flips.  The constructor takes the tables as they are:
the builders write them directly and :func:`build_complex` writes them from
plain listings.  The public ``edges`` and ``faces`` records, with each side
a plain ``(edge id, reversed)`` pair, are built from them on first read.

Vertices are not stored.  Identifying the two sides that mention an edge glues
corners by the rule "the corner following my opposite side touches the same
point", so vertices are the orbits of

    sigma(corner) = next_in_face(opposite(corner))

where a corner owns the side that leaves it.  ``sigma`` preserves the tail
vertex of the side, and successive corners of an orbit list the outgoing
edges around the vertex in clockwise order.  The walk runs on the half-edge
(combinatorial map) encoding of Cori (Asterisque 27, 1975) and Lienhardt
(CAD 23, 1991): the dart of a corner's side is also the dart of the ray
leaving the corner (directed edge ``(edge, forward)`` is dart ``2*edge +
(not forward)``), and the opposite side of dart d is ``d ^ 1``.  Turns
(straight through a degree-4 vertex, left, right) are index arithmetic in a
rotation of darts; see :meth:`SurfaceComplex._derive`.  The public API
keeps ``(edge id, forward)`` pairs and ``(face_id, position)`` corners,
converted from darts on demand.

The second half of the module is an exact integer linear algebra kit: an
arbitrary-precision matrix stored as sparse rows, Smith normal form, and the
tree-cotree reduction of the cellular chain complex to 2g edges per closed
component, which leaves no face relation because a closed complex is
oriented.  The plain Smith normal form
eliminates unit pivots on the sparse rows, then runs dense SNF on what is
left; the form with unimodular transforms runs dense SNF on the matrix
bordered by identities, which turn into the transforms.  Dense lists exist
only inside those two.  Entries are exact Python integers that grow during
elimination and are never truncated.
"""

from collections import namedtuple
from json.encoder import encode_basestring_ascii as _json_str

CCW = "ccw"
CW = "cw"

STRUCTURAL_TAGS = frozenset(
    {"Closedness", "Disconnected", "RightAngledVertex", "GenusMismatch"}
)


class DuplicateId(ValueError):
    """Two edges or two faces were declared with the same id."""


class DanglingEdgeReference(ValueError):
    """A face side names an edge id that was never declared."""


class WrongSideCount(ValueError):
    """A face does not have exactly p sides."""


Edge = namedtuple("Edge", "id type")
Face = namedtuple("Face", "id chirality sides")


def succ_type(t, p):
    """The cyclic successor of a type in 1..p."""
    return t % p + 1


def _type_pair(types, p):
    """The ordered type pair (i, i+1) of a vertex whose four ray types, in
    rotation order, alternate i and i+1; else None."""
    if len(types) == 4 and types[0] == types[2] != types[1] == types[3]:
        a, b = types[:2]
        if b == succ_type(a, p):
            return (a, b)
        if a == succ_type(b, p):
            return (b, a)
    return None


# the flat tables of SurfaceComplex._derive, described there
_Darts = namedtuple(
    "_Darts", "corner_of tail straight left right rotations pairs ray_types"
)


def _dedge(d):
    """The directed edge (edge id, forward) of dart d."""
    return (d >> 1, not d & 1)


class SurfaceComplex:
    """A polygonal surface with typed edges; immutable once built.

    The stored form is ``p`` and the flat tables of the module docstring,
    ``edge_types[e]``, ``chiralities[f]`` and ``side[c]``, which the
    constructor takes as they are, not copied, and keeps as ``_edge_types``,
    ``_chiralities`` and ``_side``.  Only bulk checks run there: p is an int
    of at least 3, there are p sides per face, every dart and type is an
    int (not a float or bool), every dart names an edge, every type is in
    1..p and every chirality is ccw or cw.  Surface axioms
    are :func:`validate`'s, the postcondition of every construction.
    ``edges`` and ``faces`` are read-only properties, tuples of ``Edge`` and
    ``Face`` records built from the tables on first read.

    Derived structures are computed on first use and cached per complex:
    the ``edges`` and ``faces`` records, closedness defects, the dart tables
    of :meth:`_derive`, the pair forms that ``vertices`` and ``rotation``
    hand out, the genus-independent findings of :func:`validate`, and the
    geodesic loop report with its dart cycles (filled by
    :func:`fqsurf.loops.trace_geodesic_loops`).  Every caller shares the
    cached objects, so they must be treated as read-only.

    Passes over a whole complex read the tables directly; the accessors
    (``rotation``, ``tail_vertex``, ``continue_through`` ...) are the
    checked per-element API, raising ValueError for an id it lacks.
    """

    # the caches, each None until first use
    _edges = _faces = _occ = _defects = _tables = _vertices = _rotations = None
    _validation = _loop_report = _loop_darts = None

    def __init__(self, p, edge_types, chiralities, side):
        _require_int_parameter("p", p)
        if p < 3:
            raise ValueError("p must be at least 3")
        if len(side) != p * len(chiralities):
            raise WrongSideCount(
                f"{len(side)} sides for {len(chiralities)} faces, expected {p} per face"
            )
        if set(map(type, side)) - {int}:
            c = next(c for c, d in enumerate(side) if type(d) is not int)
            raise ValueError(f"corner {c} of face {c // p} has dart {side[c]!r}, not an integer")
        if set(map(type, edge_types)) - {int}:
            e = next(e for e, t in enumerate(edge_types) if type(t) is not int)
            raise ValueError(f"edge {e} has type {edge_types[e]!r}, not an integer")
        n_darts = 2 * len(edge_types)
        if side and not 0 <= min(side) <= max(side) < n_darts:
            c = next(c for c, d in enumerate(side) if not 0 <= d < n_darts)
            raise DanglingEdgeReference(f"face {c // p} references unknown edge {side[c] >> 1}")
        if edge_types and not 1 <= min(edge_types) <= max(edge_types) <= p:
            e = next(e for e, t in enumerate(edge_types) if not 1 <= t <= p)
            raise ValueError(f"edge {e} has type {edge_types[e]} outside 1..{p}")
        if chiralities.count(CCW) + chiralities.count(CW) != len(chiralities):
            f = next(f for f, c in enumerate(chiralities) if c not in (CCW, CW))
            raise ValueError(f"face {f} has chirality {chiralities[f]!r}")
        self.p = p
        self._edge_types, self._chiralities, self._side = edge_types, chiralities, side

    # ------------------------------------------------------------------
    # raw structure

    @property
    def edges(self):
        """``Edge(id, type)`` records, in id order."""
        if self._edges is None:
            self._edges = tuple(map(Edge, range(len(self._edge_types)), self._edge_types))
        return self._edges

    @property
    def faces(self):
        """``Face(id, chirality, sides)`` records, in id order, each side an
        ``(edge id, reversed)`` pair."""
        if self._faces is None:
            p = self.p
            sides = [(d >> 1, d & 1 == 1) for d in self._side]
            self._faces = tuple(
                Face(f, chirality, tuple(sides[p * f:p * f + p]))
                for f, chirality in enumerate(self._chiralities)
            )
        return self._faces

    @property
    def num_edges(self):
        return len(self._edge_types)

    @property
    def num_faces(self):
        return len(self._chiralities)

    def edge_type(self, edge_id):
        if type(edge_id) is not int or not 0 <= edge_id < len(self._edge_types):
            raise ValueError(f"edge {edge_id!r} is not an int in 0..{self.num_edges - 1}")
        return self._edge_types[edge_id]

    def occurrences(self):
        """Map edge id -> list of (face_id, position) sides mentioning it."""
        if self._occ is None:
            occ = {e: [] for e in range(len(self._edge_types))}
            p = self.p
            for c, d in enumerate(self._side):
                occ[d >> 1].append(divmod(c, p))
            self._occ = occ
        return self._occ

    def closedness_defects(self):
        """Edges not used exactly once in each sense, as (edge id, reason)."""
        if self._defects is None:
            side, n = self._side, 2 * len(self._edge_types)
            defects = []
            # the darts are in range, so n distinct ones are each dart once
            if not len(side) == len(set(side)) == n:
                counts = [0] * n  # sides per dart
                for d in side:
                    counts[d] += 1
                for e, (fwd, back) in enumerate(zip(counts[::2], counts[1::2])):
                    if fwd + back != 2:
                        defects.append((e, f"{fwd + back} sides"))
                    elif fwd != 1:
                        defects.append((e, "same sense twice"))
            self._defects = defects
        return self._defects

    def is_closed(self):
        """True when every edge is used exactly once in each sense."""
        return not self.closedness_defects()

    # ------------------------------------------------------------------
    # derived vertices

    def _derive(self):
        """Walk each vertex's rays once, by ``sigma`` of the module docstring.

        Returns ``_Darts`` lists indexed by dart d or vertex v, read beside
        the stored ``_side[c]``: ``corner_of[d]``, the corner whose side is
        d (in face ``corner_of[d] // p``); ``tail[d]``, the vertex ray d
        leaves; ``straight[d]``, ``left[d]`` and ``right[d]``, at the
        head of d the dart two steps round the rotation from ``d ^ 1`` and
        the edges one step either way (-1 unless the head has degree 4);
        ``rotations[v]``, the rays leaving v clockwise from v's least corner
        (v's corners are their ``corner_of``); ``ray_types[v]``, their edge
        types; ``pairs[v]``, v's type pair, read once per distinct ray types.
        """
        if self._tables is None:
            if not self.is_closed():
                raise ValueError("vertex structure requires a closed complex")
            p = self.p
            side = self._side
            n = len(side)
            corner_of = [0] * n
            for c, d in enumerate(side):
                corner_of[d] = c
            after = list(range(1, n + 1))  # the next corner of the same face
            after[p - 1::p] = range(0, n, p)
            # the next ray clockwise round its tail: sigma, on darts
            turn = [side[after[corner_of[d ^ 1]]] for d in range(n)]
            edge_types = self._edge_types
            tail = [-1] * n
            straight = [0] * n
            left = [-1] * n
            right = [-1] * n
            rotations = []
            pairs = []
            ray_types = []
            pair_of = {}  # ray types -> type pair
            for start in side:
                if tail[start] >= 0:
                    continue
                v = len(rotations)
                rot = [start]
                d = turn[start]
                while d != start:
                    rot.append(d)
                    d = turn[d]
                for d in rot:
                    tail[d] = v
                if len(rot) == 4:
                    a, b, c, d = rot
                    ea, eb, ec, ed = a >> 1, b >> 1, c >> 1, d >> 1
                    a, b, c, d = a ^ 1, b ^ 1, c ^ 1, d ^ 1  # arriving at v
                    straight[a], straight[b], straight[c], straight[d] = (
                        rot[2], rot[3], rot[0], rot[1])
                    left[a], left[b], left[c], left[d] = eb, ec, ed, ea
                    right[a], right[b], right[c], right[d] = ed, ea, eb, ec
                else:
                    for d, s in zip(rot, rot[2:] + rot[:2]):
                        straight[d ^ 1] = s
                rotations.append(tuple(rot))
                types = tuple([edge_types[d >> 1] for d in rot])
                if types not in pair_of:
                    pair_of[types] = _type_pair(types, p)
                pairs.append(pair_of[types])
                ray_types.append(types)
            self._tables = _Darts(
                corner_of, tail, straight, left, right, rotations, pairs, ray_types
            )
        return self._tables

    def vertices(self):
        """Vertex corner orbits, each starting at its least (face, position)."""
        if self._vertices is None:
            tables = self._derive()
            p, corner_of = self.p, tables.corner_of
            self._vertices = tuple(
                tuple([divmod(corner_of[d], p) for d in rot]) for rot in tables.rotations
            )
        return self._vertices

    @property
    def num_vertices(self):
        return len(self._derive().rotations)

    def _darts(self, dedges):
        """The darts of directed edges, each a tuple of an int edge id of
        the complex and a bool; ValueError names the first that is not."""
        n = len(self._edge_types)
        darts = []
        for dedge in dedges:
            if not (type(dedge) is tuple and tuple(map(type, dedge)) == (int, bool)
                    and 0 <= dedge[0] < n):
                raise ValueError(f"{dedge!r} is not a directed edge of the complex")
            darts.append(2 * dedge[0] + (not dedge[1]))
        return darts

    def tail_vertex(self, dedge):
        return self._derive().tail[self._darts([dedge])[0]]

    def head_vertex(self, dedge):
        return self._derive().tail[self._darts([dedge])[0] ^ 1]

    def rotation(self, vertex_id):
        """Outgoing directed edges at a vertex, in clockwise order."""
        rotations = self._derive().rotations
        if type(vertex_id) is not int or not 0 <= vertex_id < len(rotations):
            raise ValueError(f"vertex {vertex_id!r} is not an int in 0..{len(rotations) - 1}")
        if self._rotations is None:
            self._rotations = [None] * len(rotations)
        rays = self._rotations[vertex_id]
        if rays is None:
            rays = self._rotations[vertex_id] = tuple(map(_dedge, rotations[vertex_id]))
        return rays

    def continue_through(self, dedge, turn):
        """Continue an incoming directed edge through its head vertex.

        ``turn`` is an offset in the clockwise rotation measured from the
        reversal of the incoming edge: at a degree-4 vertex, ``2`` goes
        straight, ``1`` turns left, ``-1`` turns right and ``0`` doubles back.
        """
        if type(turn) is not int:
            raise ValueError(f"turn {turn!r} is not an int")
        tables = self._derive()
        back = self._darts([dedge])[0] ^ 1
        rays = tables.rotations[tables.tail[back]]
        return _dedge(rays[(rays.index(back) + turn) % len(rays)])

    def straight_continuation(self, dedge):
        return self.continue_through(dedge, 2)

    def vertex_type_pair(self, vertex_id):
        """The ordered type pair (i, i+1) at a degree-4 vertex, else None."""
        pairs = self._derive().pairs
        if type(vertex_id) is not int or not 0 <= vertex_id < len(pairs):
            raise ValueError(f"vertex {vertex_id!r} is not an int in 0..{len(pairs) - 1}")
        return pairs[vertex_id]

    def __eq__(self, other):
        return (
            isinstance(other, SurfaceComplex)
            and self.p == other.p
            and self._edge_types == other._edge_types
            and self._chiralities == other._chiralities
            and self._side == other._side
        )

    def __repr__(self):
        return f"SurfaceComplex(p={self.p}, faces={self.num_faces}, edges={self.num_edges})"


def build_complex(p, edge_specs, face_specs):
    """Assemble a SurfaceComplex from plain id/type/side listings.

    Checked here is what only the listings show: p and every id and type
    are Python ints, every side's reversed flag is a bool, ids are unique
    and dense from 0, and each face has p sides.  The :class:`SurfaceComplex`
    constructor then checks the tables (p at least 3, types in 1..p,
    chiralities, edges that exist).  Semantic surface axioms are
    deliberately not enforced — run :func:`validate` for those.  Degenerate
    but well-formed inputs (a single face, a pair of squares) are accepted
    on purpose.  ``build_complex(cx.p, cx.edges, cx.faces)`` rebuilds a
    complex from its records.
    """
    _require_int_parameter("p", p)
    types = {}  # edge id -> type
    for eid, etype in edge_specs:
        if type(eid) is not int or type(etype) is not int:
            _require_int_parameter("edge id", eid)
            _require_int_parameter("edge type", etype)
        if eid in types:
            raise DuplicateId(f"edge id {eid} declared twice")
        types[eid] = etype
    if sorted(types) != list(range(len(types))):
        raise ValueError("edge ids must be dense 0..E-1")

    faces = {}  # face id -> (chirality, the darts of its sides)
    for fid, chirality, sides in face_specs:
        _require_int_parameter("face id", fid)
        if fid in faces:
            raise DuplicateId(f"face id {fid} declared twice")
        if len(sides) != p:
            raise WrongSideCount(f"face {fid} has {len(sides)} sides, expected {p}")
        darts = []
        for eid, rev in sides:
            if type(eid) is not int:
                _require_int_parameter("side edge", eid)
            if type(rev) is not bool:
                raise ValueError(f"face {fid}, edge {eid}: reversed must be a bool, got {rev!r}")
            darts.append(eid + eid + rev)
        faces[fid] = (chirality, darts)
    if sorted(faces) != list(range(len(faces))):
        raise ValueError("face ids must be dense 0..F-1")

    ordered = [faces[f] for f in range(len(faces))]
    return SurfaceComplex(
        p,
        [types[e] for e in range(len(types))],
        [chirality for chirality, _darts in ordered],
        [d for _chirality, darts in ordered for d in darts],
    )


Finding = namedtuple("Finding", "tag detail")


class ValidationReport(
    namedtuple("ValidationReport", "passed failures euler_characteristic genus")
):
    __slots__ = ()

    @property
    def structurally_ok(self):
        """True when only the type-labeling axioms (if any) are violated."""
        return not any(f.tag in STRUCTURAL_TAGS for f in self.failures)

    def tags(self):
        return sorted({f.tag for f in self.failures})


def validate(cx, expected_genus=None):
    """Check the surface axioms and report every violation found.

    Structural axioms (closedness with coherent senses, connectedness,
    degree-4 vertices) are reported separately from the labeling axioms
    (faces reading a consecutive cyclic type sequence, vertex types
    alternating i, i+1); the report's ``structurally_ok`` distinguishes the
    tiers.  Closed means oriented, so the Euler characteristic is even.

    Everything but the genus comparison is computed once per complex and
    cached; ``expected_genus`` is checked on each call, unless the complex
    is open or has no faces and so has no genus to compare.  It must be None
    or an int; anything else raises ValueError.
    """
    if expected_genus is not None:
        _require_int_parameter("expected genus", expected_genus)
    if cx._validation is None:
        cx._validation = _axiom_findings(cx)
    findings, face_findings, euler, genus = cx._validation
    failures = list(findings)
    if expected_genus is not None and genus is not None and genus != expected_genus:
        failures.append(
            Finding("GenusMismatch", f"computed genus {genus}, expected {expected_genus}")
        )
    failures.extend(face_findings)
    return ValidationReport(
        passed=not failures,
        failures=failures,
        euler_characteristic=euler,
        genus=genus,
    )


def _axiom_findings(cx):
    """The findings of :func:`validate` that precede and follow its genus
    comparison, with the Euler characteristic and genus."""
    p, edge_types = cx.p, cx._edge_types
    # the p-side type cycles, one from each type; a face must read one of them
    cycles = {t: [(t + k - 1) % p + 1 for k in range(p)] for t in range(1, p + 1)}
    corner_types = [edge_types[d >> 1] for d in cx._side]
    face_findings = []
    for f, chirality in enumerate(cx._chiralities):
        seq = corner_types[p * f:p * f + p]
        if chirality == CW:
            seq.reverse()
        if seq != cycles[seq[0]]:
            face_findings.append(
                Finding("FaceLabeling",
                        f"face {f} does not read a consecutive type cycle: {seq}")
            )
    bad_edges = cx.closedness_defects()
    if bad_edges:
        closedness = Finding("Closedness", f"edges used wrongly: {bad_edges[:8]}")
        return (closedness,), tuple(face_findings), None, None
    if not cx.num_faces:
        # a closed complex without faces has no edges or vertices either
        return (Finding("Disconnected", "the complex has no faces"),), (), 0, None

    failures = []
    tables = cx._derive()
    n_v, n_e, n_f = len(tables.rotations), cx.num_edges, cx.num_faces
    euler = n_v - n_e + n_f

    # connectivity over the face-adjacency (dual) graph: the face across the
    # side of dart d holds the corner of d ^ 1
    side, corner_of = cx._side, tables.corner_of
    reached = bytearray(n_f)
    reached[0] = 1
    stack = [0]
    while stack:
        f = stack.pop()
        for d in side[p * f:p * f + p]:
            g = corner_of[d ^ 1] // p
            if not reached[g]:
                reached[g] = 1
                stack.append(g)
    n_reached = reached.count(1)
    if n_reached != n_f:
        failures.append(
            Finding("Disconnected",
                    f"only {n_reached} of {n_f} faces reachable from face 0")
        )

    wrong_degree = [v for v, rot in enumerate(tables.rotations) if len(rot) != 4]
    if wrong_degree:
        failures.append(
            Finding("RightAngledVertex",
                    f"vertices without exactly 4 corners: {wrong_degree[:8]}")
        )
    else:
        bad_alt = [v for v, pair in enumerate(tables.pairs) if pair is None]
        if bad_alt:
            failures.append(
                Finding("VertexTypeAlternation",
                        f"vertices whose edge types do not alternate i, i+1: {bad_alt[:8]}")
            )
    # each closed component is oriented, so euler = sum of (2 - 2g) is even
    return tuple(failures), tuple(face_findings), euler, (2 - euler) // 2


class DualGraph(namedtuple("DualGraph", "nodes edges")):
    """One node per face, one edge per primal edge (loops allowed).

    ``edges`` holds (face_a, face_b, primal_edge_id), ordered by primal edge id.
    """

    __slots__ = ()

    def to_dot(self):
        lines = ["graph dual {"]
        for n in self.nodes:
            lines.append(f"  f{n};")
        for a, b, e in self.edges:
            lines.append(f'  f{a} -- f{b} [label="e{e}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def dual_graph(cx):
    """The face-adjacency multigraph, deterministically ordered."""
    if not cx.is_closed():
        raise ValueError("dual graph requires a closed complex")
    p, corner_of = cx.p, cx._derive().corner_of
    edges = [
        (min(a, b) // p, max(a, b) // p, e)
        for e, (a, b) in enumerate(zip(corner_of[::2], corner_of[1::2]))
    ]
    return DualGraph(tuple(range(cx.num_faces)), tuple(edges))


# ----------------------------------------------------------------------
# exact integer linear algebra


class IntegerMatrix:
    """Python ints as sparse rows, one ``{col: nonzero value}`` dict each.  No floats."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, data, rows=None, cols=None):
        data = [list(row) for row in data]
        if rows is None:
            rows = len(data)
        if cols is None:
            cols = len(data[0]) if data else 0
        if len(data) != rows or any(len(row) != cols for row in data):
            raise ValueError("ragged or mis-sized matrix data")
        bad = [x for row in data for x in row if type(x) is not int]
        if bad:
            raise TypeError(f"non-integer entry {bad[0]!r}")
        self.rows, self.cols = rows, cols
        self.entries = [{j: x for j, x in enumerate(row) if x} for row in data]

    @classmethod
    def from_rows(cls, entries, cols):
        """A matrix from ``{col: value}`` rows of ints; zero values are dropped.

        Raises TypeError for an entry that is not an int, as the constructor
        does, and ValueError for a column that is not an int in 0..cols-1.
        """
        for row in entries:
            for j, x in row.items():
                if type(x) is not int:
                    raise TypeError(f"non-integer entry {x!r}")
                if type(j) is not int or not 0 <= j < cols:
                    raise ValueError(f"column {j!r} is not an int in 0..{cols - 1}")
        m = cls.__new__(cls)
        m.rows, m.cols = len(entries), cols
        m.entries = [{j: x for j, x in row.items() if x} for row in entries]
        return m

    @property
    def data(self):
        """A fresh dense copy, one list per row."""
        return [[row.get(j, 0) for j in range(self.cols)] for row in self.entries]

    def __eq__(self, other):
        return (
            isinstance(other, IntegerMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __repr__(self):
        return f"IntegerMatrix({self.rows}x{self.cols})"


def _smith(entries, rows, cols):
    """Dense Smith normal form of a rows×cols block, bordered by identities.

    The block sits in the top left of one list of lists, U's identity to its
    right and V's identity below it (Cohen, GTM 138, §2.4).  Row operations
    act on whole rows and column operations on whole columns, so the border
    turns into U and V while pivots are taken only inside the block.  Returns
    the bordered matrix: D is its top-left rows×cols block, U the rows×rows
    block right of D, V the cols×cols block below D.
    """
    a = [row[:] + [int(i == j) for j in range(rows)] for i, row in enumerate(entries)]
    a += [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(dst, src, k):
        a[dst] = [x + k * y for x, y in zip(a[dst], a[src])]

    def add_col(dst, src, k):
        for row in a:
            row[dst] += k * row[src]

    def find_pivot(t):
        """The least nonzero |entry| left in the block, first in row-major order."""
        found = [(abs(a[i][j]), i, j)
                 for i in range(t, rows) for j in range(t, cols) if a[i][j]]
        return min(found)[1:] if found else None

    for t in range(min(rows, cols)):
        piv = find_pivot(t)
        if piv is None:
            break
        while True:
            i0, j0 = piv
            a[t], a[i0] = a[i0], a[t]
            if j0 != t:
                for row in a:
                    row[t], row[j0] = row[j0], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            p0 = a[t][t]
            dirty = False
            for i in range(t + 1, rows):
                if a[i][t]:
                    add_row(i, t, -(a[i][t] // p0))
                    if a[i][t]:
                        dirty = True
            for j in range(t + 1, cols):
                if a[t][j]:
                    add_col(j, t, -(a[t][j] // p0))
                    if a[t][j]:
                        dirty = True
            if dirty:
                piv = find_pivot(t)
                continue
            # an entry p0 does not divide: add its row to row t and repeat
            offender = next((i for i in range(t + 1, rows)
                             if any(a[i][j] % p0 for j in range(t + 1, cols))), None)
            if offender is None:
                break
            add_row(t, offender, 1)
            piv = (t, t)
    return a


def smith_normal_form(m):
    """Invariant factors of an integer matrix.

    Returns ``(diagonal, rank)`` where ``diagonal`` has ``min(rows, cols)``
    nonnegative entries forming a divisibility chain d1 | d2 | ... and
    ``rank`` counts the nonzero ones.

    Unit pivots are eliminated first, on sparse rows (Dumas, Saunders and
    Villard, J. Symbolic Comput. 32, 2001).  Columns are swept in index
    order; a column holding a ±1 entry takes the one in its shortest row
    (lowest row index on ties) as pivot, is cleared from the other rows by
    exact row operations, and leaves with the pivot's row, contributing one
    invariant factor 1.  Sweeps repeat until one finds no unit pivot.  The
    nonzero rows and columns left form the core, which dense ``_smith``
    finishes.
    """
    rows = [dict(row) for row in m.entries]
    where = [set() for _ in range(m.cols)]  # column -> rows holding it
    for i, row in enumerate(rows):
        for j in row:
            where[j].add(i)
    units = 0
    swept = False
    while not swept:
        swept = True
        for c in range(m.cols):
            pivots = [i for i in where[c] if rows[i][c] in (1, -1)]
            if not pivots:
                continue
            r = min(pivots, key=lambda i: (len(rows[i]), i))
            prow = rows[r]
            for i in where[c] - {r}:
                row = rows[i]
                k = row[c] * prow[c]  # prow[c] is its own inverse
                for j, x in prow.items():
                    y = row.get(j, 0) - k * x
                    if y:
                        row[j] = y
                        where[j].add(i)
                    else:
                        del row[j]
                        where[j].discard(i)
            for j in prow:
                where[j].discard(r)
            rows[r] = {}
            units += 1
            swept = False
    core_cols = [j for j in range(m.cols) if where[j]]
    core = [[row.get(j, 0) for j in core_cols] for row in rows if row]
    a = _smith(core, len(core), len(core_cols))
    diag = (1,) * units + tuple(a[i][i] for i in range(min(len(core), len(core_cols))))
    diag += (0,) * (min(m.rows, m.cols) - len(diag))
    return diag, sum(1 for d in diag if d)


def snf_with_transforms(m):
    """Smith normal form together with unimodular U, V so that U·M·V = D."""
    a = _smith(m.data, m.rows, m.cols)
    return (
        IntegerMatrix([row[:m.cols] for row in a[:m.rows]], m.rows, m.cols),
        IntegerMatrix([row[m.cols:] for row in a[:m.rows]], m.rows, m.rows),
        IntegerMatrix(a[m.rows:], m.cols, m.cols),
    )


class TreeCotree(namedtuple("TreeCotree", "tree cotree x_edges images")):
    """The chain complex of a closed surface reduced along a tree and a cotree.

    ``tree`` counts the edges of the spanning forest T and ``cotree`` those
    of the dual spanning forest C; ``x_edges`` lists the edges left over, X,
    in id order.  ``images[e]`` is edge e's image in Z^X as ``{X edge:
    coefficient}``: empty for a tree edge, ``{e: 1}`` for an X edge and the
    push of a cotree edge.
    """

    __slots__ = ()


def tree_cotree(cx):
    """Reduce the cellular chain complex of a closed complex along a tree and a cotree.

    Tree-cotree decomposition (Eppstein, "Dynamic generators of
    topologically embedded graphs", SODA 2003; Erickson and Whittlesey,
    "Greedy optimal homotopy and homology generators", SODA 2005):

    1. A spanning forest T of the 1-skeleton, by union-find over edge ids,
       is contracted.  Tree-edge rows drop out of d2 and the reduced d1 is
       zero, so rank d1 = |T|.
    2. A dual spanning forest C is grown by breadth-first search over the
       other edges whose two sides lie in distinct faces, and eliminated
       leaf first.  A cotree edge e from face f to its parent has
       d(e, f) = ±1; f's column, with its subtree already folded in, meets
       no other cotree edge, so e's image is its push
       -d(e, f)·(col_f - d(e, f)·e) and col_f folds into the parent's.
    3. The X edges are left over, 2g per closed component.  Each root of C
       collects its component's face boundaries, which sum to zero.

    Every step is a unit elimination, a chain homotopy equivalence over Z,
    so rank d2 = |C|, H1 is free on X, and a cycle's class there is the sum
    of its edges' images.  Nothing is cached; each call reduces afresh.
    Raises ValueError for a complex that is not closed.
    """
    parent = list(range(cx.num_vertices))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tables = cx._derive()
    tail, corner_of, p = tables.tail, tables.corner_of, cx.p
    in_tree = [False] * cx.num_edges
    for e in range(cx.num_edges):
        a, b = find(tail[e + e]), find(tail[e + e + 1])
        if a != b:
            parent[a] = b
            in_tree[e] = True

    cols = [{} for _ in range(cx.num_faces)]
    for c, d in enumerate(cx._side):
        e = d >> 1
        if not in_tree[e]:
            col = cols[c // p]
            col[e] = col.get(e, 0) + (-1 if d & 1 else 1)
    cols = [{e: x for e, x in col.items() if x} for col in cols]
    adjacent = [[] for _ in cols]
    for e in range(cx.num_edges):
        fa, fb = corner_of[e + e] // p, corner_of[e + e + 1] // p
        if not in_tree[e] and fa != fb:
            adjacent[fa].append((e, fb))
            adjacent[fb].append((e, fa))
    seen = [False] * cx.num_faces
    order = []  # (face, edge to its parent, parent face) in BFS order
    for root in range(cx.num_faces):
        if seen[root]:
            continue
        seen[root] = True
        queue = [root]
        for f in queue:  # the queue grows while it is walked
            for e, g in adjacent[f]:
                if not seen[g]:
                    seen[g] = True
                    queue.append(g)
                    order.append((g, e, f))

    images = [{} if t else {e: 1} for e, t in enumerate(in_tree)]
    for f, e, g in reversed(order):
        col, up = cols[f], cols[g]
        s = col.pop(e)
        k = s * up.pop(e)
        for x, c in col.items():
            y = up.get(x, 0) - k * c
            if y:
                up[x] = y
            else:
                del up[x]
        images[e] = {x: -s * c for x, c in col.items()}
    cotree = {e for _, e, _ in order}
    x_edges = tuple(e for e, t in enumerate(in_tree) if not t and e not in cotree)
    return TreeCotree(sum(in_tree), len(order), x_edges, images)


def betti_numbers(cx):
    """(b0, b1, b2) of the surface.

    Ranks come from :func:`tree_cotree` with no Smith normal form: rank d1
    is the size of the spanning forest and rank d2 the size of the dual
    spanning forest, so b0 counts the components, b2 counts them again
    (each closed component is oriented) and b1 the leftover edges.
    """
    red = tree_cotree(cx)
    return (
        cx.num_vertices - red.tree,
        cx.num_edges - red.tree - red.cotree,
        cx.num_faces - red.cotree,
    )


# ----------------------------------------------------------------------
# serialization

COMPLEX_FORMAT = "fq-complex/1"


def canonical_json(obj):
    """Deterministic, diffable JSON text of ``obj``, ending in a newline.

    Objects have sorted keys, containers are indented by two spaces per
    level (empty ones are written ``{}`` and ``[]``), and strings use ASCII
    escapes: the same bytes as the standard library's encoder with a
    two-space indent and sorted keys, plus the newline.  Only dict (with str
    keys), list, tuple (written as an array), str, int, bool and None are
    accepted; anything else, floats included, raises ``TypeError`` naming
    its type.
    """
    out = []
    _write_json(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def _write_json(obj, out, indent):
    """Append the JSON text of ``obj`` to ``out``.

    ``indent`` is a newline plus the indentation of the line ``obj`` starts
    on.  Ints, strs, bools and None inside a container are written inline,
    the common case, without a recursive call.
    """
    append = out.append
    kind = type(obj)
    if kind is dict:
        if not obj:
            append("{}")
            return
        inner = indent + "  "
        sep, comma = "{" + inner, "," + inner
        for key in sorted(obj):
            if type(key) is not str:
                raise TypeError(f"JSON object keys must be str, not {type(key).__name__}")
            append(sep)
            sep = comma
            append(_json_str(key))
            append(": ")
            value = obj[key]
            value_kind = type(value)
            if value_kind is int:
                append(int.__repr__(value))
            elif value_kind is str:
                append(_json_str(value))
            elif value_kind is bool:
                append("true" if value else "false")
            elif value is None:
                append("null")
            else:
                _write_json(value, out, inner)
        append(indent + "}")
    elif kind is list or kind is tuple:
        if not obj:
            append("[]")
            return
        inner = indent + "  "
        sep, comma = "[" + inner, "," + inner
        for value in obj:
            append(sep)
            sep = comma
            value_kind = type(value)
            if value_kind is int:
                append(int.__repr__(value))
            elif value_kind is str:
                append(_json_str(value))
            elif value_kind is bool:
                append("true" if value else "false")
            elif value is None:
                append("null")
            else:
                _write_json(value, out, inner)
        append(indent + "]")
    elif kind is str:
        append(_json_str(obj))
    elif kind is int:
        append(int.__repr__(obj))
    elif obj is True:
        append("true")
    elif obj is False:
        append("false")
    elif obj is None:
        append("null")
    else:
        raise TypeError(f"{kind.__name__} is not JSON-serializable in a canonical document")


def complex_to_dict(cx):
    p = cx.p
    sides = [{"edge": d >> 1, "reversed": d & 1 == 1} for d in cx._side]
    return {
        "format": COMPLEX_FORMAT,
        "p": p,
        "edges": [{"id": e, "type": t} for e, t in enumerate(cx._edge_types)],
        "faces": [
            {"id": f, "chirality": chirality, "sides": sides[p * f:p * f + p]}
            for f, chirality in enumerate(cx._chiralities)
        ],
    }


def _require_int(fmt, what, value):
    """Reject anything but a JSON integer: floats, strings and booleans too."""
    if type(value) is not int:
        raise ValueError(f"malformed {fmt} document: {what} {value!r} is not an integer")


def _require_int_parameter(name, value):
    """Reject anything but a Python int: floats, strings and booleans too."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _require_int_sequence(q):
    """The sequence as a tuple, each entry checked to be a Python int."""
    q = tuple(q)
    for x in q:
        _require_int_parameter("q entry", x)
    return q


def complex_from_dict(doc):
    try:
        if doc.get("format") != COMPLEX_FORMAT:
            raise ValueError(f"unsupported complex format {doc.get('format')!r}")
        edge_specs = [(e["id"], e["type"]) for e in doc["edges"]]
        face_specs = [
            (f["id"], f["chirality"], [(s["edge"], s["reversed"]) for s in f["sides"]])
            for f in doc["faces"]
        ]
        return build_complex(doc["p"], edge_specs, face_specs)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed {COMPLEX_FORMAT} document: {exc!r}") from None
