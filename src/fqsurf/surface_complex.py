"""Closed surfaces tiled by typed right-angled polygons, with exact homology.

Data model
----------
A :class:`SurfaceComplex` stores ``p`` (sides per face), a dense list of typed
edges, and a dense list of faces.  Each face records its boundary as a cyclic
list of sides in the counterclockwise walk order of the surface.  A side is a
plain ``(edge id, reversed)`` pair naming an edge and the sense in which the
walk traverses it, so an edge of a closed surface is mentioned by exactly two
sides, once forward and once reversed; storing coherent counterclockwise walks
is what makes the surface oriented.  ``chirality`` records whether the edge
types ascend (``"ccw"``) or descend (``"cw"``) along the stored walk — the
stored side order itself never flips.

Vertices are not stored.  Identifying the two sides that mention an edge glues
corners by the rule "the corner following my opposite side touches the same
point", so vertices are the orbits of

    sigma(corner) = next_in_face(opposite(corner))

where a corner is addressed as ``(face_id, position)`` and owns the side that
leaves it.  ``sigma`` preserves the tail vertex of the side, and successive
corners of an orbit list the outgoing edges around the vertex in clockwise
order.  All turn-based navigation (straight through a degree-4 vertex, left,
right) reduces to index arithmetic in that rotation; see
:meth:`SurfaceComplex.continue_through`.

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


class SurfaceComplex:
    """A polygonal surface with typed edges; immutable once built.

    Derived structures are computed on first use and cached per complex:
    edge occurrences, closedness defects, vertex orbits, rotations and the
    ray table, the genus-independent findings of :func:`validate`, and the
    geodesic loop report (filled by
    :func:`fqsurf.loops.trace_geodesic_loops`).  Every caller shares the
    cached objects, so they must be treated as read-only.
    """

    def __init__(self, p, edges, faces):
        self.p = p
        self.edges = tuple(edges)
        self.faces = tuple(faces)
        self._occ = None
        self._defects = None
        self._vertex_data = None
        self._validation = None
        self._loop_report = None

    # ------------------------------------------------------------------
    # raw structure

    @property
    def num_edges(self):
        return len(self.edges)

    @property
    def num_faces(self):
        return len(self.faces)

    def edge_type(self, edge_id):
        return self.edges[edge_id].type

    def occurrences(self):
        """Map edge id -> list of (face_id, position) sides mentioning it."""
        if self._occ is None:
            occ = {e.id: [] for e in self.edges}
            for f in self.faces:
                for k, (eid, _rev) in enumerate(f.sides):
                    occ[eid].append((f.id, k))
            self._occ = occ
        return self._occ

    def closedness_defects(self):
        """Edges not used exactly once in each sense, as (edge id, reason)."""
        if self._defects is None:
            defects = []
            for e in self.edges:
                locs = self.occurrences()[e.id]
                if len(locs) != 2:
                    defects.append((e.id, f"{len(locs)} sides"))
                    continue
                (fa, ka), (fb, kb) = locs
                if self.faces[fa].sides[ka][1] == self.faces[fb].sides[kb][1]:
                    defects.append((e.id, "same sense twice"))
            self._defects = defects
        return self._defects

    def is_closed(self):
        """True when every edge is used exactly once in each sense."""
        return not self.closedness_defects()

    # ------------------------------------------------------------------
    # derived vertices

    def _derive(self):
        """Walk each vertex's corners once, by ``sigma`` of the module docstring.

        Records the orbits, the rotations and the ray table, which maps each
        directed edge to its tail vertex and its position in that rotation.
        """
        if self._vertex_data is None:
            if not self.is_closed():
                raise ValueError("vertex structure requires a closed complex")
            occ = self.occurrences()
            orbits = []
            rotations = []
            ray_table = {}
            for f in self.faces:
                for k in range(len(f.sides)):
                    corner = (f.id, k)
                    orbit = []
                    rays = []
                    while True:
                        eid, rev = self.faces[corner[0]].sides[corner[1]]
                        ray = (eid, not rev)
                        # a closed complex leaves each directed edge from one corner
                        if ray in ray_table:
                            break
                        ray_table[ray] = (len(orbits), len(rays))
                        orbit.append(corner)
                        rays.append(ray)
                        a, b = occ[eid]
                        g, j = b if a == corner else a
                        corner = (g, (j + 1) % len(self.faces[g].sides))
                    if orbit:
                        orbits.append(tuple(orbit))
                        rotations.append(tuple(rays))
            self._vertex_data = (tuple(orbits), tuple(rotations), ray_table)
        return self._vertex_data

    def vertices(self):
        """Vertex corner orbits, each starting at its least (face, position)."""
        return self._derive()[0]

    @property
    def num_vertices(self):
        return len(self.vertices())

    def tail_vertex(self, dedge):
        return self._derive()[2][dedge][0]

    def head_vertex(self, dedge):
        return self.tail_vertex((dedge[0], not dedge[1]))

    def rotation(self, vertex_id):
        """Outgoing directed edges at a vertex, in clockwise order."""
        return self._derive()[1][vertex_id]

    def continue_through(self, dedge, turn):
        """Continue an incoming directed edge through its head vertex.

        ``turn`` is an offset in the clockwise rotation measured from the
        reversal of the incoming edge: at a degree-4 vertex, ``2`` goes
        straight, ``1`` turns left, ``-1`` turns right and ``0`` doubles back.
        """
        v, i = self._derive()[2][(dedge[0], not dedge[1])]
        rays = self.rotation(v)
        return rays[(i + turn) % len(rays)]

    def straight_continuation(self, dedge):
        return self.continue_through(dedge, 2)

    def vertex_type_pair(self, vertex_id):
        """The ordered type pair (i, i+1) at a degree-4 vertex, else None."""
        rays = self.rotation(vertex_id)
        if len(rays) != 4:
            return None
        t = [self.edge_type(e) for e, _ in rays]
        if t[0] != t[2] or t[1] != t[3] or t[0] == t[1]:
            return None
        if succ_type(t[0], self.p) == t[1]:
            return (t[0], t[1])
        if succ_type(t[1], self.p) == t[0]:
            return (t[1], t[0])
        return None

    def __eq__(self, other):
        return (
            isinstance(other, SurfaceComplex)
            and self.p == other.p
            and self.edges == other.edges
            and self.faces == other.faces
        )

    def __repr__(self):
        return f"SurfaceComplex(p={self.p}, faces={self.num_faces}, edges={self.num_edges})"


def build_complex(p, edge_specs, face_specs):
    """Assemble a SurfaceComplex from plain id/type/side listings.

    Ids must be dense from 0; side counts must equal p; every referenced edge
    must exist.  Semantic surface axioms are deliberately not enforced here —
    run :func:`validate` for those.  Degenerate but well-formed inputs (a
    single face, a pair of squares) are accepted on purpose, and p may be as
    small as 3.  Every id and type, and p, must be a Python int, and every
    side's reversed flag a bool.
    """
    _require_int_parameter("p", p)
    if p < 3:
        raise ValueError("p must be at least 3")
    edges = []
    seen = set()
    for eid, etype in edge_specs:
        _require_int_parameter("edge id", eid)
        _require_int_parameter("edge type", etype)
        if eid in seen:
            raise DuplicateId(f"edge id {eid} declared twice")
        seen.add(eid)
        if not 1 <= etype <= p:
            raise ValueError(f"edge {eid} has type {etype} outside 1..{p}")
        edges.append(Edge(eid, etype))
    edges.sort(key=lambda e: e.id)
    if [e.id for e in edges] != list(range(len(edges))):
        raise ValueError("edge ids must be dense 0..E-1")

    faces = []
    seen_f = set()
    for fid, chirality, sides in face_specs:
        _require_int_parameter("face id", fid)
        if fid in seen_f:
            raise DuplicateId(f"face id {fid} declared twice")
        seen_f.add(fid)
        if chirality not in (CCW, CW):
            raise ValueError(f"face {fid} has chirality {chirality!r}")
        if len(sides) != p:
            raise WrongSideCount(f"face {fid} has {len(sides)} sides, expected {p}")
        packed = []
        for eid, rev in sides:
            _require_int_parameter("side edge", eid)
            if eid not in seen:
                raise DanglingEdgeReference(f"face {fid} references unknown edge {eid}")
            if type(rev) is not bool:
                raise ValueError(f"face {fid}, edge {eid}: reversed must be a bool, got {rev!r}")
            packed.append((eid, rev))
        faces.append(Face(fid, chirality, tuple(packed)))
    faces.sort(key=lambda f: f.id)
    if [f.id for f in faces] != list(range(len(faces))):
        raise ValueError("face ids must be dense 0..F-1")

    return SurfaceComplex(p, edges, faces)


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
    is open or has no faces and so has no genus to compare.
    """
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
    face_findings = []
    for f in cx.faces:
        seq = [cx.edge_type(eid) for eid, _rev in f.sides]
        if f.chirality == CW:
            seq = seq[::-1]
        n = len(seq)
        if any(seq[(k + 1) % n] != succ_type(seq[k], cx.p) for k in range(n)):
            face_findings.append(
                Finding("FaceLabeling",
                        f"face {f.id} does not read a consecutive type cycle: {seq}")
            )
    bad_edges = cx.closedness_defects()
    if bad_edges:
        closedness = Finding("Closedness", f"edges used wrongly: {bad_edges[:8]}")
        return (closedness,), tuple(face_findings), None, None
    if not cx.num_faces:
        # a closed complex without faces has no edges or vertices either
        return (Finding("Disconnected", "the complex has no faces"),), (), 0, None

    failures = []
    orbits = cx.vertices()
    n_v, n_e, n_f = len(orbits), cx.num_edges, cx.num_faces
    euler = n_v - n_e + n_f

    # connectivity over the face-adjacency (dual) graph
    reached = {0}
    stack = [0]
    while stack:
        f = stack.pop()
        for eid, _rev in cx.faces[f].sides:
            for (g, _k) in cx.occurrences()[eid]:
                if g not in reached:
                    reached.add(g)
                    stack.append(g)
    if len(reached) != n_f:
        failures.append(
            Finding("Disconnected",
                    f"only {len(reached)} of {n_f} faces reachable from face 0")
        )

    wrong_degree = [vid for vid, orb in enumerate(orbits) if len(orb) != 4]
    if wrong_degree:
        failures.append(
            Finding("RightAngledVertex",
                    f"vertices without exactly 4 corners: {wrong_degree[:8]}")
        )
    else:
        bad_alt = [
            vid for vid in range(n_v) if cx.vertex_type_pair(vid) is None
        ]
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
    edges = []
    for e in cx.edges:
        (fa, _), (fb, _) = cx.occurrences()[e.id]
        edges.append((fa, fb, e.id))
    return DualGraph(tuple(f.id for f in cx.faces), tuple(edges))


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
        """A matrix from ``{col: value}`` rows of ints; zero values are dropped."""
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

    def matrix(self, columns):
        """``{X edge: coefficient}`` columns as an |X|-row IntegerMatrix."""
        index = {e: i for i, e in enumerate(self.x_edges)}
        rows = [{} for _ in self.x_edges]
        for j, col in enumerate(columns):
            for e, x in col.items():
                rows[index[e]][j] = x
        return IntegerMatrix.from_rows(rows, len(columns))


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

    rays = cx._derive()[2]  # directed edge -> (tail vertex, rotation index)
    in_tree = [False] * cx.num_edges
    for e in range(cx.num_edges):
        a, b = find(rays[e, True][0]), find(rays[e, False][0])
        if a != b:
            parent[a] = b
            in_tree[e] = True

    cols = []
    for f in cx.faces:
        col = {}
        for e, rev in f.sides:
            if not in_tree[e]:
                col[e] = col.get(e, 0) + (-1 if rev else 1)
        cols.append({e: x for e, x in col.items() if x})
    adjacent = [[] for _ in cx.faces]
    for e, ((fa, _), (fb, _)) in cx.occurrences().items():
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
    on.  Ints and strs inside a container are written inline, the common
    case, without a recursive call.
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
    return {
        "format": COMPLEX_FORMAT,
        "p": cx.p,
        "edges": [{"id": e.id, "type": e.type} for e in cx.edges],
        "faces": [
            {
                "id": f.id,
                "chirality": f.chirality,
                "sides": [{"edge": eid, "reversed": rev} for eid, rev in f.sides],
            }
            for f in cx.faces
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
