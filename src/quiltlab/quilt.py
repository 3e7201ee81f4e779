"""Templates and quilts: planar maps with marked faces, hole subtemplates,
and the side-length change of variables.

A template is a planar map (sphere topology) with a possibly empty set of
faces marked as holes and, on each non-hole face, a cyclic list of marked
vertices, one distinguished as the face's root.  A face with k marked
vertices is a k-gon; the edges between consecutive marked vertices form its
sides.  A quilt assigns a positive length to each edge.

Mark tuples are stored in face-cycle order (face on the left, so interior
faces run counterclockwise) starting at the root.  With ccw marks
(w_0=root, w_1, ..., w_{k-1}):

* side j runs from w_j to w_{j+1 mod k};
* side k-1 (ending at the root) is the side clockwise of the root: the
  "left" side L^- for 4-gons and 2-gons, and L^+ for the 3-gon;
* side 0 is the side counterclockwise of the root (R^-).

The orderable templates have faces F_ext (1-gon), F_0 (3-gon),
F_1..F_n (4-gons), F_{n+1} (2-gon) subject to:

(a) F_ext and F_0 share their root vertex and F_0's side 0 lies on the
    boundary of F_ext;
(b) the terminal vertex of F_i is the root vertex of F_{i+1}, cyclically
    (terminal = vertex clockwise of the root for the 3-gon, opposite vertex
    for 2- and 4-gons);
(c) the root vertex of F_i (i >= 1) has degree 2, and marked vertices that
    are not the root of any face have degree 3 (terminal vertices are the
    next face's root, so they are exempt: they keep degree 2);
(d) for i = 1..n the two sides of F_i at its root lie on the boundary of
    F_ext u F_0 u ... u F_{i-1}, while the two far sides meet that boundary
    only at endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import planar_map as pm
from .errors import (
    DisconnectedSelection,
    MapError,
    MissingOrder,
    ParseError,
    SingularMap,
    TemplateError,
    WrongGonProfile,
)
from .fields import bareiss_determinant

DET_TOL = 1e-9
CONSERVATION_TOL = 1e-9  # closing side lengths against the conservation identities


def conserved(residual) -> bool:
    """The closing-length rule: a conservation residual within
    ``CONSERVATION_TOL`` (``<=``; NaN fails)."""
    return residual <= CONSERVATION_TOL


@dataclass(frozen=True)
class Template:
    """Planar map with holes and per-face marked vertices (root first, in
    face-cycle order).  ``face_order``, when present, lists face ids as
    (F_ext, F_0, ..., F_{n+1})."""

    map: pm.HalfEdgeMap
    marks: dict
    holes: frozenset = frozenset()
    face_order: tuple = None

    def __post_init__(self):
        m = self.map
        all_faces = set(range(m.n_faces))
        if not set(self.holes) <= all_faces:
            raise TemplateError("hole ids out of range")
        if set(self.marks) != all_faces - set(self.holes):
            raise TemplateError("marks must cover exactly the non-hole faces")
        positions = {}
        for f, mk in self.marks.items():
            if len(mk) < 1:
                raise TemplateError(f"face {f} has no marked vertices")
            positions[f] = self._find_mark_positions(f)
        # not a field: eq and repr stay those of (map, marks, holes, face_order)
        object.__setattr__(self, "_mark_positions", positions)

    # -- marks along the face cycle ------------------------------------------

    def mark_positions(self, f):
        """Positions of the marked vertices within the face dart cycle."""
        return self._mark_positions[f]

    def _find_mark_positions(self, f):
        """Mark positions of face ``f``, read in one pass over its cycle;
        raises if marks not in cycle order."""
        cyc = self.map.face_cycles[f]
        vertex_of = self.map.vertex_of
        mk = self.marks[f]
        hits = {v: [] for v in mk}
        for i, d in enumerate(cyc):
            if vertex_of[d] in hits:
                hits[vertex_of[d]].append(i)
        for v in mk:
            if len(hits[v]) != 1:
                raise TemplateError(
                    f"marked vertex {v} occurs {len(hits[v])} times on face {f}"
                )
        pos = [hits[v][0] for v in mk]
        # cyclic increase starting from the root position
        k = len(pos)
        for i in range(1, k):
            a = (pos[i - 1] - pos[0]) % len(cyc)
            b = (pos[i] - pos[0]) % len(cyc)
            if not a < b:
                raise TemplateError(f"marks of face {f} not in face-cycle order")
        return tuple(pos)

    def _memo(self, name, compute):
        """``compute(self)``, worked out once per template and kept on it
        like the mark positions: not a field, so out of eq and repr."""
        if name not in self.__dict__:
            object.__setattr__(self, name, compute(self))
        return self.__dict__[name]

    def k_gon(self, f):
        return len(self.marks[f])

    def root_vertex(self, f):
        return self.marks[f][0]

    def terminal_vertex(self, f):
        """Clockwise of the root for 3-gons; opposite the root for 2-/4-gons."""
        k = self.k_gon(f)
        if k in (3, 4):
            return self.marks[f][2]
        if k == 2:
            return self.marks[f][1]
        raise TemplateError(f"face {f} is a {k}-gon and has no terminal vertex")

    def side_dart_paths(self, f):
        """Dart paths of the k sides (side j from mark j to mark j+1)."""
        cyc = self.map.face_cycles[f]
        pos = self.mark_positions(f)
        k = len(pos)
        n = len(cyc)
        out = []
        for j in range(k):
            a, b = pos[j], pos[(j + 1) % k]
            path = []
            i = a
            while True:
                path.append(cyc[i])
                i = (i + 1) % n
                if i == b:
                    break
            out.append(path)
        return out

    def side_edges(self, f):
        return [[d >> 1 for d in path] for path in self.side_dart_paths(f)]

    @property
    def n_added_gons(self):
        """Number of 4-gon faces (n in the F_ext, F_0, .., F_{n+1} profile)."""
        return sum(1 for f in self.marks if self.k_gon(f) == 4)


@dataclass(frozen=True)
class Quilt:
    """A template plus a positive length per edge (edge id = dart // 2)."""

    template: Template
    lengths: tuple

    def __post_init__(self):
        if len(self.lengths) != self.template.map.n_edges:
            raise TemplateError("one length per edge required")
        if any(not x > 0 for x in self.lengths):
            raise TemplateError("edge lengths must be positive")

    def side_lengths(self, f):
        return [sum(self.lengths[e] for e in side) for side in self.template.side_edges(f)]

    def boundary_length(self):
        """Total length of the 1-gon (external) face boundary."""
        t = self.template
        ext = [f for f in t.marks if t.k_gon(f) == 1]
        if len(ext) != 1:
            raise TemplateError("no unique 1-gon face")
        cyc = t.map.face_cycles[ext[0]]
        return sum(self.lengths[d >> 1] for d in cyc)


# --- validation -------------------------------------------------------------------


@dataclass(frozen=True)
class ConditionResult:
    name: str
    passed: bool
    offending_face: int = None
    detail: str = ""


@dataclass(frozen=True)
class ValidationReport:
    n: int
    conditions: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.conditions)

    def failures(self):
        return [c for c in self.conditions if not c.passed]


def _gon_profile_order(t: Template):
    if t.face_order is None:
        raise MissingOrder("template has no face order")
    order = tuple(t.face_order)
    if t.holes:
        raise TemplateError("orderable templates have no holes")
    if sorted(order) != sorted(t.marks):
        raise TemplateError("face_order must list every face exactly once")
    n = len(order) - 3
    if n < 0:
        raise WrongGonProfile("need at least 3 faces (1-gon, 3-gon, 2-gon)")
    want = [1, 3] + [4] * n + [2]
    got = [t.k_gon(f) for f in order]
    if got != want:
        raise WrongGonProfile(f"gon profile {got} != {want}")
    return order, n


def validate_template(t: Template) -> ValidationReport:
    """Check conditions (a)-(d) for an ordered template; per-condition report.

    The report is worked out once per template and kept on it, so a template
    that is validated again (a built quilt, then its caller) returns the
    same report object.
    """
    return t._memo("_validation", _validate)


def _validate(t: Template) -> ValidationReport:
    order, n = _gon_profile_order(t)
    f_ext, f0 = order[0], order[1]
    seq = order[1:]  # F_0 .. F_{n+1}
    results = []

    # (a) shared root; F_0's side ccw of the root lies on the outer boundary
    ok = t.root_vertex(f_ext) == t.root_vertex(f0)
    side0 = t.side_dart_paths(f0)[0]
    ok = ok and all(t.map.face_of[d ^ 1] == f_ext for d in side0)
    results.append(ConditionResult("a", ok, None if ok else f0))

    # (b) terminal chain
    bad = None
    for i in range(len(seq)):
        nxt = seq[(i + 1) % len(seq)]
        if t.terminal_vertex(seq[i]) != t.root_vertex(nxt):
            bad = seq[i]
            break
    results.append(ConditionResult("b", bad is None, bad))

    # (c) root degrees 2; non-root marked vertices degree 3
    roots = {t.root_vertex(f) for f in order}
    bad = None
    detail = ""
    for f in seq[1:]:
        if t.map.degree(t.root_vertex(f)) != 2:
            bad, detail = f, f"root degree {t.map.degree(t.root_vertex(f))}"
            break
        for v in t.marks[f][1:]:
            if v not in roots and t.map.degree(v) != 3:
                bad, detail = f, f"marked vertex {v} degree {t.map.degree(v)}"
                break
        if bad is not None:
            break
    results.append(ConditionResult("c", bad is None, bad, detail))

    # (d) near sides on the explored boundary; far sides touch it at endpoints only
    explored = {f_ext, f0}
    bad = None
    detail = ""
    for f in seq[1:-1]:  # the 4-gons
        paths = t.side_dart_paths(f)
        for d in paths[0] + paths[3]:
            if t.map.face_of[d ^ 1] not in explored:
                bad, detail = f, "near side leaves the explored boundary"
                break
        if bad is None:
            for path in (paths[1], paths[2]):
                for d in path:
                    if t.map.face_of[d ^ 1] in explored:
                        bad, detail = f, "far side edge on the explored boundary"
                        break
                for d in path[1:]:
                    v = t.map.vertex_of[d]
                    if any(g in explored for g in t.map.vertex_faces(v)):
                        bad, detail = f, "far side interior vertex on the explored boundary"
                        break
                if bad is not None:
                    break
        if bad is not None:
            break
        explored.add(f)
    results.append(ConditionResult("d", bad is None, bad, detail))

    return ValidationReport(n=n, conditions=tuple(results))


def recover_face_order(t: Template) -> tuple:
    """Reconstruct (F_ext, F_0, ..., F_{n+1}) from the marks alone.

    The chain is forced: each terminal vertex has degree 2, so the next face
    is the one at its other corner.  Raises TemplateError when no valid
    order exists.
    """
    ones = [f for f in t.marks if t.k_gon(f) == 1]
    threes = [f for f in t.marks if t.k_gon(f) == 3]
    twos = [f for f in t.marks if t.k_gon(f) == 2]
    if len(ones) != 1 or len(threes) != 1 or len(twos) != 1:
        raise WrongGonProfile("need exactly one 1-gon, one 3-gon, one 2-gon")
    f_ext, f0, f_last = ones[0], threes[0], twos[0]
    if t.root_vertex(f_ext) != t.root_vertex(f0):
        raise TemplateError("1-gon and 3-gon roots differ")
    order = [f_ext, f0]
    cur = f0
    seen = {f_ext, f0}
    while cur != f_last:
        v = t.terminal_vertex(cur)
        cand = [g for g in set(t.map.vertex_faces(v)) if g != cur]
        cand = [g for g in cand if g in t.marks and t.root_vertex(g) == v and g not in seen]
        if len(cand) != 1:
            raise TemplateError(f"face order breaks at vertex {v}")
        cur = cand[0]
        order.append(cur)
        seen.add(cur)
    if len(seen) != len(t.marks):
        raise TemplateError("face order does not reach every face")
    if t.terminal_vertex(f_last) != t.root_vertex(f0):
        raise TemplateError("2-gon terminal is not the 3-gon root")
    return tuple(order)


def with_face_order(t: Template) -> Template:
    if t.face_order is not None:
        return t
    return Template(map=t.map, marks=t.marks, holes=t.holes,
                    face_order=recover_face_order(t))


# --- side-length change of variables -----------------------------------------------


def coordinate_sides(order):
    """The 4n+3 coordinate sides of the face order (F_ext, F_0, ..., F_{n+1})
    in canonical order, as rows (face, side_index, name).  The "left" sides
    (l0+, li-, li+) are the rows whose name starts with "l".
    """
    f0 = order[1]
    rows = [(f0, 2, "l0+"), (f0, 0, "r0-"), (f0, 1, "r0+")]
    for i, f in enumerate(order[2:-1], start=1):
        rows += [(f, 3, f"l{i}-"), (f, 2, f"l{i}+"), (f, 0, f"r{i}-"), (f, 1, f"r{i}+")]
    return rows


@dataclass(frozen=True)
class DeterminantReport:
    n: int
    det: int
    det_float: float
    left_tree_size: int
    bijection_ok: bool
    dropped_edge: int

    @property
    def passed(self):
        """|det| = 1, exactly and within DET_TOL in floats, and the left-tree
        bijection, which is only tried on a left tree of 2n + 1 edges."""
        return abs(self.det) == 1 and abs(abs(self.det_float) - 1) <= DET_TOL and self.bijection_ok

    @property
    def triangular_ok(self):
        """The bijection is the triangularity: see :func:`_left_tree_contour`."""
        return self.bijection_ok


def _left_tree_contour(m: pm.HalfEdgeMap, tree_edges, start):
    """First-visit order of ``tree_edges`` along their contour from the dart
    ``start`` (a dart of one of them), or None when they are not a tree.

    At each head vertex the walk turns onto the next tree edge
    counterclockwise, so it traces the face of the plane subgraph T left of
    ``start``; being an orbit of a permutation of T's darts, it closes.  A
    face stays in one component, and a connected plane graph with a single
    face is a tree, so the face has length 2|T| exactly when T is a tree.
    """
    in_tree = set(tree_edges)
    first_visit = {}
    d = start
    steps = 0
    while True:
        first_visit.setdefault(d >> 1, steps)
        steps += 1
        d = m.next_dart[d ^ 1]
        while (d >> 1) not in in_tree:
            d = m.next_dart[d]
        if d == start:
            break
    return first_visit if steps == 2 * len(in_tree) else None


def side_length_map_determinant(t: Template) -> DeterminantReport:
    """Determinant of the 0/1 matrix taking edge lengths to side lengths.

    Rows are the coordinate side lengths (l0+, r0-, r0+, li-/+, ri-/+);
    columns are all edges except the single edge bordered only by the
    external face and the final 2-gon.  Also verifies the structure behind
    the unit-determinant proof: the left sides' edges form a tree through
    F_0's root with 2n+1 edges (shown by the length of its contour), each of
    which is the contour-earliest edge of exactly one left side, making the
    left block unitriangular.  Each face's sides are walked once.  Raises
    SingularMap if |det| != 1.
    """
    t = with_face_order(t)
    order, n = _gon_profile_order(t)
    rows = coordinate_sides(order)
    paths = {f: t.side_dart_paths(f) for f in order[1:-1]}  # the faces in rows
    row_edges = [[d >> 1 for d in paths[f][j]] for f, j, _ in rows]
    is_left = [name[0] == "l" for _, _, name in rows]
    left_sides = [edges for edges, left in zip(row_edges, is_left) if left]
    left_edges = {e for edges in left_sides for e in edges}
    right_edges = {e for edges, left in zip(row_edges, is_left) if not left for e in edges}

    if left_edges & right_edges:
        raise SingularMap("an edge lies on both a left and a right side")
    covered = left_edges | right_edges
    dropped = sorted(set(range(t.map.n_edges)) - covered)
    if len(dropped) != 1:
        raise SingularMap(f"expected exactly one uncovered edge, got {dropped}")
    cols = sorted(covered)
    if len(cols) != len(rows):
        raise SingularMap(f"matrix is {len(rows)}x{len(cols)}, not square")

    col_of = {e: i for i, e in enumerate(cols)}
    matrix = [[0] * len(cols) for _ in rows]
    for r, edges in enumerate(row_edges):
        for e in edges:
            matrix[r][col_of[e]] = 1
    det = bareiss_determinant(matrix)
    sign, logabs = np.linalg.slogdet(np.array(matrix, dtype=float))
    det_float = float(sign * np.exp(logabs)) if sign != 0 else 0.0

    # the contour starts at F_0's root, along the last dart of l0+ reversed
    tree = sorted(left_edges)
    visit = None
    if len(tree) == 2 * n + 1:
        visit = _left_tree_contour(t.map, tree, paths[order[1]][2][-1] ^ 1)
    bijection_ok = False
    if visit is not None:
        earliest = [min(edges, key=visit.__getitem__) for edges in left_sides]
        bijection_ok = sorted(earliest) == tree
    # Each left side's edges come at or after its earliest one in visit
    # order, so once the earliest edges are a bijection onto the tree, the
    # left block with rows by earliest edge and columns by visit order is
    # unitriangular: the bijection is the triangularity.
    report = DeterminantReport(
        n=n,
        det=det,
        det_float=det_float,
        left_tree_size=len(tree),
        bijection_ok=bijection_ok,
        dropped_edge=dropped[0],
    )
    if abs(abs(det) - 1) > 0 or abs(abs(det_float) - 1.0) > DET_TOL:
        raise SingularMap(f"|det| != 1: exact {det}, float {det_float}")
    return report


# --- marked subtemplates -------------------------------------------------------------


@dataclass(frozen=True)
class MarkedSubtemplate:
    """Reduction of a template to a marked face subset: complement components
    become labelled holes and unneeded degree-2 vertices are smoothed away
    (merging their edges).

    ``hole_labels[i]`` is the face id of hole i+1 in the reduced template;
    ``dart_expansion`` maps each reduced dart to the ordered parent darts it
    traverses; ``cluster_faces[i]`` is the parent face set swallowed by hole
    i+1.
    """

    template: Template
    hole_labels: tuple
    parent: Template
    parent_faces: frozenset
    cluster_faces: tuple
    dart_expansion: dict = field(compare=False, repr=False)

    @property
    def n_holes(self):
        return len(self.hole_labels)

def _face_bfs_order(t: Template):
    """Deterministic face BFS from the root dart's face, edges in id order."""
    m = t.map
    start = m.face_of[m.root]
    seen = [False] * m.n_faces
    seen[start] = True
    queue = [start]
    order = [start]
    head = 0
    while head < len(queue):
        f = queue[head]
        head += 1
        neighbors = []
        for d in m.face_cycles[f]:
            g = m.face_of[d ^ 1]
            if not seen[g]:
                neighbors.append((d >> 1, g))
        for _, g in sorted(neighbors):
            if not seen[g]:
                seen[g] = True
                queue.append(g)
                order.append(g)
    return tuple(order)


def mark_subtemplate(t: Template, faces) -> MarkedSubtemplate:
    """Reduce a hole-free template to the marked subtemplate of ``faces``.

    The selection must be connected under edge adjacency.  Each connected
    component of the complement becomes a hole (labelled by first encounter
    in a rooted face BFS); vertices that are not marked vertices of selected
    faces and are not corners of two distinct selected faces are deleted,
    merging their edges.
    """
    if t.holes:
        raise TemplateError("mark_subtemplate expects a hole-free template")
    m = t.map
    sel = frozenset(faces)
    if not sel or not sel <= set(t.marks):
        raise DisconnectedSelection("selection must be a nonempty set of faces")

    # face adjacency and the kept edges (those on a selected face), in one
    # pass over the faces at the two sides of each edge
    adj = [set() for _ in range(m.n_faces)]
    kept_edge = []
    face_of = m.face_of
    for a, b in zip(face_of[::2], face_of[1::2]):
        if a != b:
            adj[a].add(b)
            adj[b].add(a)
        kept_edge.append(a in sel or b in sel)

    # connectivity of the selection under shared edges
    comp = {next(iter(sel))}
    stack = [next(iter(sel))]
    while stack:
        f = stack.pop()
        for g in adj[f]:
            if g in sel and g not in comp:
                comp.add(g)
                stack.append(g)
    if comp != sel:
        raise DisconnectedSelection("marked faces are not edge-connected")

    # complement clusters in first-encounter order
    bfs = t._memo("_face_bfs", _face_bfs_order)
    cluster_of = {}
    clusters = []
    for f in bfs:
        if f in sel or f in cluster_of:
            continue
        cid = len(clusters)
        bucket = {f}
        stack = [f]
        while stack:
            g = stack.pop()
            cluster_of[g] = cid
            for h in adj[g]:
                if h not in sel and h not in bucket:
                    bucket.add(h)
                    stack.append(h)
        clusters.append(frozenset(bucket))

    # rotations restricted to kept darts
    rot = {}
    for v, cyc in enumerate(m.vertex_cycles):
        kept = [d for d in cyc if kept_edge[d >> 1]]
        if kept:
            rot[v] = kept

    marked_vertices = {v for f in sel for v in t.marks[f]}
    # every path starts at its own dart: smoothing appends to the far end
    twin = {d: d ^ 1 for darts in rot.values() for d in darts}
    path = {d: (d,) for d in twin}

    # smooth removable degree-2 vertices
    for v in list(rot):
        if (len(rot[v]) != 2 or v in marked_vertices
                or len(sel.intersection(m.vertex_faces(v))) >= 2):
            continue
        d1, d2 = rot[v]
        t1, t2 = twin[d1], twin[d2]
        if t1 == d2:  # would close an edge into a loop; keep the vertex
            continue
        path_t1, path_t2 = path[t1], path[t2]
        twin[t1] = t2
        twin[t2] = t1
        path[t1] = path_t1 + path[d2]
        path[t2] = path_t2 + path[d1]
        for d in (d1, d2):
            del path[d]
            del twin[d]
        del rot[v]

    survivors = sorted(path)
    # dense relabel with twins adjacent, edge order by smallest survivor dart
    new_id = {}
    for d in survivors:
        if d not in new_id:
            new_id[d], new_id[twin[d]] = len(new_id), len(new_id) + 1
    nxt = [0] * len(new_id)
    for darts in rot.values():
        for i, d in enumerate(darts):
            nxt[new_id[d]] = new_id[darts[(i + 1) % len(darts)]]

    # the root is carried by the surviving dart whose path starts at the old
    # root; twins are already 2k, 2k+1, the labels build_map would normalize to
    reduced = pm._finish(tuple(nxt), new_id.get(m.root, 0))

    # identify reduced faces with selected faces / clusters, and reduced
    # vertices with parent vertices
    expansion = {}
    face_from_parent = {}
    vert_map = {}
    for d in survivors:
        d_new = new_id[d]
        expansion[d_new] = path[d]
        face_from_parent.setdefault(face_of[d], set()).add(reduced.face_of[d_new])
        vert_map[m.vertex_of[d]] = reduced.vertex_of[d_new]
    new_marks = {}
    for f in sel:
        imgs = face_from_parent.get(f, set())
        if len(imgs) != 1:
            raise TemplateError(f"selected face {f} did not survive cleanly")
        (nf,) = imgs
        new_marks[nf] = tuple(vert_map[v] for v in t.marks[f])
    hole_labels = []
    for cid, bucket in enumerate(clusters):
        imgs = set().union(*(face_from_parent.get(f, ()) for f in bucket))
        if len(imgs) != 1:
            raise TemplateError(f"cluster {cid} is not a disk (boundary has {len(imgs)} rings)")
        hole_labels += imgs
    holes = frozenset(hole_labels)
    if len(holes) != len(clusters):
        raise TemplateError("two clusters merged into one hole")

    sub = Template(map=reduced, marks=new_marks, holes=holes, face_order=None)
    return MarkedSubtemplate(
        template=sub,
        hole_labels=tuple(hole_labels),
        parent=t,
        parent_faces=sel,
        cluster_faces=tuple(clusters),
        dart_expansion=expansion,
    )


# --- canonical forms ------------------------------------------------------------------


def template_key(t: Template, marked=None) -> bytes:
    """Isomorphism key of a rooted template (optionally with a marked-face
    set): BFS-canonical map code plus relabeled marks, holes (labelled by
    first encounter), and tags."""
    return _labeled_key(t, pm.canonical_labeling(t.map), marked)


def _labeled_key(t: Template, label, marked=None) -> bytes:
    """``template_key`` of ``t`` from its canonical labeling ``label``; each
    vertex's and face's smallest label is read once."""
    m = t.map
    vkey = [min(map(label.__getitem__, cyc)) for cyc in m.vertex_cycles]
    fkey = [min(map(label.__getitem__, cyc)) for cyc in m.face_cycles]
    parts = [pm.code_from_labeling(m, label).decode("ascii")]
    for f in sorted(range(m.n_faces), key=fkey.__getitem__):
        if f in t.holes:
            parts.append(f"F{fkey[f]}:HOLE")
        else:
            mk = ",".join(str(vkey[v]) for v in t.marks[f])
            tag = ""
            if marked is not None:
                tag = ":M" if f in marked else ":U"
            parts.append(f"F{fkey[f]}:{mk}{tag}")
    return "|".join(parts).encode("ascii")


def template_iso(a: Template, b: Template):
    """Dart bijection realizing a rooted isomorphism a -> b, or None."""
    la = pm.canonical_labeling(a.map)
    lb = pm.canonical_labeling(b.map)
    if _labeled_key(a, la) != _labeled_key(b, lb):
        return None
    inv_b = [0] * len(lb)
    for d, lab in enumerate(lb):
        inv_b[lab] = d
    return {d: inv_b[lab] for d, lab in enumerate(la)}


# --- serialization ---------------------------------------------------------------------


def template_to_text(t: Template) -> str:
    lines = [pm.to_text(t.map).rstrip("\n")]
    lines.append(f"ROOT {t.map.root}")
    if t.face_order is not None:
        lines.append("ORDER " + " ".join(str(f) for f in t.face_order))
    for f in sorted(t.holes):
        lines.append(f"HOLE {f}")
    for f in sorted(t.marks):
        lines.append(f"MARKS {f} " + " ".join(str(v) for v in t.marks[f]))
    return "\n".join(lines) + "\n"


def template_from_text(text: str) -> Template:
    """Inverse of :func:`template_to_text`; ``ROOT`` names a dart in the
    file's own labels, and the map is built once, rooted there."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    nxt, twn = pm.read_dart_rows(lines)
    try:
        rest = [(ln, ln.split()[0], [int(x) for x in ln.split()[1:]])
                for ln in lines[1 + len(nxt):]]
    except ValueError as exc:
        raise ParseError(f"malformed template text: {exc}") from exc
    root = 0
    order = None
    holes = set()
    marks = {}
    for ln, key, vals in rest:
        if key == "ORDER":
            order = tuple(vals)
        elif key == "ROOT" and len(vals) == 1:
            root = vals[0]
        elif key == "HOLE" and len(vals) == 1:
            holes.add(vals[0])
        elif key == "MARKS" and vals:
            marks[vals[0]] = tuple(vals[1:])
        else:
            raise ParseError(f"unrecognized line {ln!r}")
    try:
        m = pm.build_map(nxt, twn, root)
        return Template(map=m, marks=marks, holes=frozenset(holes), face_order=order)
    except (MapError, TemplateError) as exc:
        raise ParseError(f"not a valid template: {exc}") from exc
