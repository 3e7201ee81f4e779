"""Winding labels on subtemplate boundaries and the Hamiltonian-cycle check.

Draw a curve through each face of a filled template from its root to its
terminal vertex, concatenated smoothly in the face order; the cumulative
total curvature theta at the subtemplate's hole-boundary root/terminal
vertices depends on the subtemplate's embedding but not on which filling
was chosen.  The verification embeds the subtemplate once, freezes it,
extends the embedding into the holes per filling, and compares labels.

Geometry: these maps have parallel edges and bigon faces, so straight-line
drawings do not exist.  Every edge is drawn instead as a two-segment
polyline through a midpoint node, and the harmonic placement runs on the
subdivided map star-augmented with one phantom node per face (the phantom
doubles as the face's interior routing point).  The outer ring, midpoints
included, is pinned to the unit circle.

Smooth concatenation is emulated by pinning a departure direction at every
junction vertex: the wedge bisector of the corner the curve departs into.
At hole-boundary vertices that wedge is determined by the frozen
subtemplate geometry (filling subdivision points sit on the frozen
polylines), so pinned directions are filling-independent.

Work split.  ``embed_subtemplate`` computes, once per subtemplate, a
``SubtemplateGeometry`` holding the subtemplate's embedding, the junction
directions, the frozen curve of every subtemplate face (their clearances
measured in one batch), every dart's frozen two-segment polyline with its
segment lengths, and the curve graph.  Per filling, ``winding_label_values``
builds the filling-to-subtemplate vertex map once, places the subdivision
points of all darts on the frozen polylines in one array pass, solves one
harmonic system assembled from integer node ids, measures the clearances
of all cluster faces in one batch, and draws only the cluster faces.  The
batched steps give the same floats as one face, dart or node at a time.
The labels are drawn once per filling and geometry and kept on the filling,
so a filling compared with many others is drawn once.
"""

from __future__ import annotations

import functools
import itertools
import math
import weakref
from dataclasses import dataclass

import numpy as np

from .curvature import (
    PolygonalCurve,
    is_simple,
    nonadjacent_pairs,
    total_turning,
    turning_angles,
)
from .errors import EmbeddingDegenerate, InvalidChoice, TemplateError
from .quilt import MarkedSubtemplate, Template

LABEL_TOL = 1e-6


def labels_agree(max_difference):
    """The acceptance rule for winding labels: two fillings agree when no
    label differs by more than LABEL_TOL."""
    return max_difference <= LABEL_TOL


def _outer_face(t: Template):
    ones = [f for f in t.marks if t.k_gon(f) == 1]
    if len(ones) != 1:
        raise TemplateError("embedding needs a unique 1-gon outer face")
    return ones[0]


def _unit(vec):
    n = np.linalg.norm(vec)
    if n < 1e-12:
        raise EmbeddingDegenerate("zero direction vector")
    return vec / n


def _ccw_bisector(a1, a2):
    """Bisector of the wedge swept counterclockwise from a1 to a2."""
    t1 = math.atan2(a1[1], a1[0])
    t2 = math.atan2(a2[1], a2[0])
    spread = (t2 - t1) % (2 * math.pi)
    if spread == 0.0:
        spread = 2 * math.pi
    mid = t1 + spread / 2.0
    return np.array([math.cos(mid), math.sin(mid)])


def _seg_seg_distances(p1, p2, q1, q2):
    """Euclidean distances between closed segments p1p2 and q1q2, row by row."""

    def cross(u, v):
        return u[:, 0] * v[:, 1] - u[:, 1] * v[:, 0]

    def point_seg(p, a, b):
        ab = b - a
        denom = (ab * ab).sum(axis=1)
        t = np.divide(((p - a) * ab).sum(axis=1), denom,
                      out=np.zeros_like(denom), where=denom != 0)
        t = np.clip(t, 0.0, 1.0)
        return np.linalg.norm(p - (a + t[:, None] * ab), axis=1)

    dp = p2 - p1
    dq = q2 - q1
    crossing = (
        ((cross(dp, q1 - p1) > 0) != (cross(dp, q2 - p1) > 0))
        & ((cross(dq, p1 - q1) > 0) != (cross(dq, p2 - q1) > 0))
    )
    near = np.minimum(
        np.minimum(point_seg(q1, p1, p2), point_seg(q2, p1, p2)),
        np.minimum(point_seg(p1, q1, q2), point_seg(p2, q1, q2)),
    )
    return np.where(crossing, 0.0, near)


def _geometric_embed(t: Template, pinned):
    """Harmonic solve on the edge-subdivided, star-augmented map.

    Node keys: ('v', vertex), ('m', edge), ('f', face) phantoms.  ``pinned``
    maps node keys to positions; every other node is placed at the average
    of its neighbors (midpoints tie endpoints to their edges' faces,
    phantoms tie faces to their corners).  The outer face has no phantom.

    The system is assembled from integer node ids, vertices then midpoints
    then phantoms, as (node, neighbor) pairs.  Each node's pairs run in
    the order of its neighbor list: a midpoint's two ends then its faces, a
    vertex's midpoints then its faces, a phantom's midpoints then its
    corners.  The right-hand side therefore sums each node's pinned
    neighbors in that order.
    """
    m = t.map
    outer = _outer_face(t)
    nv, ne = m.n_vertices, m.n_edges
    faces = [f for f in range(m.n_faces) if f != outer]
    keys = [("v", v) for v in range(nv)]
    keys += [("m", e) for e in range(ne)]
    keys += [("f", f) for f in faces]
    phantom = np.full(m.n_faces, -1)
    phantom[faces] = np.arange(nv + ne, len(keys))

    vertex_of = np.array(m.vertex_of)
    face_of = phantom[np.array(m.face_of)]
    mid = nv + (np.arange(m.n_darts) >> 1)  # midpoint of each dart's edge
    inner = face_of >= 0
    corners = np.concatenate([m.face_cycles[f] for f in faces])
    corner_face = np.repeat(phantom[faces], [len(m.face_cycles[f]) for f in faces])
    node = np.concatenate([mid, vertex_of, mid[inner], face_of[inner],
                           corner_face, vertex_of[corners]])
    nbr = np.concatenate([vertex_of, mid, face_of[inner], mid[inner],
                          vertex_of[corners], corner_face])

    offset = {"v": 0, "m": nv}
    xy = np.zeros((len(keys), 2))
    is_pinned = np.zeros(len(keys), dtype=bool)
    pos = {}
    for key, p in pinned.items():
        p = pos[key] = np.asarray(p, dtype=float)
        kind, x = key
        i = phantom[x] if kind == "f" else offset[kind] + x
        if i >= 0:
            xy[i] = p
            is_pinned[i] = True
    free = np.flatnonzero(~is_pinned)
    if free.size:
        n = free.size
        index = np.full(len(keys), -1)
        index[free] = np.arange(n)
        row = index[node]
        nbr = nbr[row >= 0]
        row = row[row >= 0]
        col = index[nbr]
        inside = col >= 0
        a = -np.bincount(row[inside] * n + col[inside], minlength=n * n)
        a = a.reshape(n, n).astype(float)
        a[np.diag_indices(n)] = np.bincount(row, minlength=n)
        rim = row[~inside]
        rhs = np.stack([np.bincount(rim, weights=xy[nbr[~inside], c], minlength=n)
                        for c in (0, 1)], axis=1)
        try:
            sol = np.linalg.solve(a, rhs)
        except np.linalg.LinAlgError as exc:
            raise EmbeddingDegenerate(f"harmonic system singular: {exc}") from exc
        xy[free] = sol
        for i in free.tolist():
            pos[keys[i]] = xy[i]

    pts = xy[:nv + ne]
    if not np.all(np.isfinite(pts)):
        raise EmbeddingDegenerate("non-finite position")
    i, j = np.triu_indices(len(pts), 1)  # pairs in itertools.combinations order
    coincide = np.flatnonzero(np.linalg.norm(pts[i] - pts[j], axis=1) < 1e-9)
    if coincide.size:
        k = coincide[0]
        raise EmbeddingDegenerate(f"nodes {keys[i[k]]} and {keys[j[k]]} coincide")
    return pos


@dataclass
class GeomEmbedding:
    """Positions for a template: vertices, edge midpoints, face phantoms."""

    template: Template
    pos: dict

    def vertex(self, v):
        return self.pos[("v", v)]

    def midpoint(self, e):
        return self.pos[("m", e)]

    def dart_first_direction(self, d):
        """Unit direction of the first polyline segment of a dart."""
        v = self.template.map.vertex_of[d]
        vec = self.midpoint(d >> 1) - self.vertex(v)
        n = np.linalg.norm(vec)
        if n < 1e-12:
            raise EmbeddingDegenerate("zero-length first segment")
        return vec / n

    def corner_direction(self, face, v):
        """Unit bisector of the corner of ``face`` at vertex ``v``."""
        t = self.template
        cyc = t.map.face_cycles[face]
        hits = [i for i, d in enumerate(cyc) if t.map.vertex_of[d] == v]
        if len(hits) != 1:
            raise EmbeddingDegenerate(f"vertex {v} not a simple corner of face {face}")
        i = hits[0]
        d_out = cyc[i]
        d_in = cyc[(i - 1) % len(cyc)]
        a1 = self.dart_first_direction(d_out)
        a2 = self.dart_first_direction(d_in ^ 1)
        return _ccw_bisector(a1, a2)

    def midpoint_inward(self, face, e):
        """Unit bisector at the midpoint node of edge e, into ``face``."""
        t = self.template
        d = 2 * e if t.map.face_of[2 * e] == face else 2 * e + 1
        if t.map.face_of[d] != face:
            raise EmbeddingDegenerate(f"edge {e} does not border face {face}")
        m = self.midpoint(e)
        head = self.vertex(t.map.vertex_of[d ^ 1])
        tail = self.vertex(t.map.vertex_of[d])
        a1 = _unit(head - m)
        a2 = _unit(tail - m)
        return _ccw_bisector(a1, a2)

    def boundary_points(self, face):
        """Positions of the face's boundary nodes in ccw cycle order."""
        out = []
        for d in self.template.map.face_cycles[face]:
            out.append(self.vertex(self.template.map.vertex_of[d]))
            out.append(self.midpoint(d >> 1))
        return out

    def face_feature_size(self, face):
        """Clearance of the face polygon: offsets below this stay inside.

        Minimum of the shortest boundary segment and the closest approach
        between non-adjacent boundary segments.
        """
        return float(self.feature_sizes([face])[0])

    def feature_sizes(self, faces):
        """``face_feature_size`` of each face, from one pass over the
        boundary segments of all of them; raises for the first face, in the
        order given, whose clearance is zero."""
        polys = [np.array(self.boundary_points(f)) for f in faces]
        if not polys:
            return np.zeros(0)
        sizes = np.array([len(q) for q in polys])
        starts = np.cumsum(sizes) - sizes
        pts = np.concatenate(polys)
        # segment s of a face runs from its point s to its point s + 1
        first = np.repeat(starts, sizes)
        k = np.repeat(sizes, sizes)
        ends = pts[first + (np.arange(len(pts)) - first + 1) % k]
        feat = np.minimum.reduceat(np.linalg.norm(ends - pts, axis=1), starts)
        pairs = [_face_segment_pairs(int(n)) for n in sizes]
        i = np.concatenate([a + s for (a, _), s in zip(pairs, starts)])
        j = np.concatenate([b + s for (_, b), s in zip(pairs, starts)])
        owner = np.repeat(np.arange(len(polys)), [len(a) for a, _ in pairs])
        np.minimum.at(feat, owner, _seg_seg_distances(pts[i], ends[i], pts[j], ends[j]))
        flat = np.flatnonzero(feat <= 0)
        if flat.size:
            raise EmbeddingDegenerate(f"face {faces[flat[0]]} has zero clearance")
        return feat


@functools.cache
def _face_segment_pairs(k):
    return nonadjacent_pairs(k, closed=True)


def embed_template(t: Template) -> GeomEmbedding:
    """Outer ring (vertices and midpoints alternating) on the unit circle,
    everything else harmonic."""
    m = t.map
    outer = _outer_face(t)
    # outer cycle runs clockwise in the plane; reverse (keeping the start)
    keys = []
    for d in m.face_cycles[outer]:
        keys.append(("v", m.vertex_of[d]))
        keys.append(("m", d >> 1))
    keys = [keys[0]] + list(reversed(keys[1:]))
    pinned = {}
    k = len(keys)
    for i, key in enumerate(keys):
        a = 2 * math.pi * i / k
        pinned[key] = np.array([math.cos(a), math.sin(a)])
    return GeomEmbedding(template=t, pos=_geometric_embed(t, pinned))


def _polyline_points(poly, lens, frac):
    """Points at arc-length fractions ``frac`` along two-segment polylines,
    row by row: ``poly[r]`` holds the three points of row r's polyline and
    ``lens[r]`` its two segment lengths.  Each point is the one found by
    walking its polyline segment by segment, float for float.
    """
    a, mid, b = poly[:, 0], poly[:, 1], poly[:, 2]
    l0, l1 = lens[:, 0], lens[:, 1]
    target = frac * (l0 + l1)

    def along(start, stop, run, ln):
        u = np.divide(target - run, ln, out=np.zeros_like(target), where=ln != 0)
        u = np.where(0.0 > u, 0.0, u)
        u = np.where(1.0 < u, 1.0, u)
        return start + (stop - start) * u[:, None]

    on_first = (l0 >= target)[:, None]
    on_second = (l0 + l1 >= target)[:, None]
    return np.where(on_first, along(a, mid, 0.0, l0),
                    np.where(on_second, along(mid, b, l0, l1), b))


# --- subtemplate geometry and filling labels --------------------------------------


@dataclass(eq=False)
class SubtemplateGeometry:
    """Frozen embedding of a marked subtemplate, equal only to itself.

    Everything a filling comparison may share is precomputed here: the
    face curves of the subtemplate's own faces (frozen point lists), the
    pinned junction directions at hole-boundary vertices, each dart's
    frozen polyline and the curve graph.  Only curves inside the holes are
    drawn per filling.
    """

    tsub: MarkedSubtemplate
    emb: GeomEmbedding
    depart_dir: dict    # tsub face -> unit departure direction at its root
    arrive_dir: dict    # tsub face -> unit arrival direction at its terminal
    hole_entry_dir: dict  # tsub vertex on a hole ring -> direction into the hole
    frozen_curves: dict   # tsub face -> frozen polyline points
    dart_polylines: np.ndarray  # tsub dart -> (tail, edge midpoint, head)
    dart_lengths: np.ndarray    # tsub dart -> lengths of its two segments
    curve_graph: CurveGraph


def embed_subtemplate(tsub: MarkedSubtemplate) -> SubtemplateGeometry:
    t = tsub.template
    emb = embed_template(t)

    on_hole = {}
    for j, hole in enumerate(tsub.hole_labels):
        for d in t.map.face_cycles[hole]:
            on_hole[t.map.vertex_of[d]] = j
    hole_entry_dir = {
        v: emb.corner_direction(tsub.hole_labels[j], v) for v, j in on_hole.items()
    }

    faces = [f for f in t.marks if t.k_gon(f) >= 2]
    roots = {t.root_vertex(f): f for f in faces}
    two_gon = next(f for f in faces if t.k_gon(f) == 2)
    depart = {f: emb.corner_direction(f, t.root_vertex(f)) for f in faces}
    arrive = {}
    for f in faces:
        term = t.terminal_vertex(f)
        if f == two_gon:
            arrive[f] = -emb.corner_direction(f, term)
        elif term in on_hole:
            arrive[f] = hole_entry_dir[term]
        else:
            arrive[f] = depart[roots[term]]
    frozen = {
        f: _face_curve_points(emb, f, depart[f], arrive[f],
                              t.root_vertex(f), t.terminal_vertex(f), clearance)
        for f, clearance in zip(faces, emb.feature_sizes(faces).tolist())
    }
    polylines = np.array([
        [emb.vertex(t.map.vertex_of[d]), emb.midpoint(d >> 1),
         emb.vertex(t.map.vertex_of[d ^ 1])]
        for d in range(t.map.n_darts)
    ])
    lengths = np.array([
        [np.linalg.norm(mid - tail), np.linalg.norm(head - mid)]
        for tail, mid, head in polylines
    ])
    return SubtemplateGeometry(
        tsub=tsub,
        emb=emb,
        depart_dir=depart,
        arrive_dir=arrive,
        hole_entry_dir=hole_entry_dir,
        frozen_curves=frozen,
        dart_polylines=polylines,
        dart_lengths=lengths,
        curve_graph=subtemplate_curve_graph(tsub),
    )


def _filling_embedding(geom: SubtemplateGeometry, filling):
    """Extend the frozen subtemplate embedding to a filling.

    Subtemplate vertices keep their positions; each subtemplate dart's
    expansion is spread by arc length along the frozen edge polyline
    (vertices at fractions i/k, piece midpoints at (i+1/2)/k); hole
    interiors are then placed harmonically.  A node that two darts place
    keeps the position of the first.
    """
    vertex_of = filling.template.map.vertex_of
    keys, darts, fracs = [], [], []
    for d, path in enumerate(filling.dart_paths):
        k = len(path)
        for i, x in enumerate(path):
            keys += [("v", vertex_of[x]), ("m", x >> 1)]
            fracs += [i / k, (i + 0.5) / k]
        darts += [d] * (2 * k)
    points = _polyline_points(geom.dart_polylines[darts], geom.dart_lengths[darts],
                              np.array(fracs))
    pinned = {}
    for key, point in zip(keys, points):
        pinned.setdefault(key, point)
    return GeomEmbedding(
        template=filling.template,
        pos=_geometric_embed(filling.template, pinned),
    )


OFFSET = 0.15
PIN = 0.08


def _boundary_nodes_cw(t: Template, face, root, term):
    """Boundary nodes (vertex/midpoint keys) strictly between root and term,
    walking the face boundary clockwise (against the ccw face cycle)."""
    cyc = t.map.face_cycles[face]
    n = len(cyc)
    tails = [t.map.vertex_of[d] for d in cyc]
    i_r = tails.index(root)
    nodes = []
    i = i_r
    while True:
        d = cyc[(i - 1) % n]
        nodes.append(("m", d >> 1))
        i = (i - 1) % n
        if tails[i] == term:
            break
        nodes.append(("v", tails[i]))
        if len(nodes) > 2 * n:
            raise TemplateError("terminal not found on the face boundary")
    return nodes


def _face_curve_points(emb: GeomEmbedding, face, depart_dir, arrive_dir, root, term,
                       clearance):
    """Root-to-terminal curve hugging the clockwise ("left") boundary of the
    face at a small inward offset; pinned end directions.  ``clearance`` is
    the face's ``face_feature_size``."""
    t = emb.template
    delta = OFFSET * clearance
    pts = [emb.vertex(root), emb.vertex(root) + PIN * delta * depart_dir]
    for key in _boundary_nodes_cw(t, face, root, term):
        if key[0] == "m":
            p = emb.midpoint(key[1])
            inward = emb.midpoint_inward(face, key[1])
        else:
            p = emb.vertex(key[1])
            inward = emb.corner_direction(face, key[1])
        pts.append(p + delta * inward)
    pts.append(emb.vertex(term) - PIN * delta * arrive_dir)
    pts.append(emb.vertex(term))
    return pts


def filling_curve(geom: SubtemplateGeometry, filling, to_tsub):
    """The concatenated root-to-terminal curve of a filling: points plus the
    polyline index of every root/terminal visit.  ``to_tsub`` is the
    filling's ``vertex_to_tsub`` map.

    Curves of subtemplate faces are the frozen point lists from the
    geometry; only cluster faces are drawn in the filling's embedding, with
    their end directions pinned to the frozen junction data, so per-hole
    passes have filling-independent end angles exactly.  The clearances of
    all cluster faces are measured in one batch.
    """
    t = filling.template
    tsub = geom.tsub
    emb = _filling_embedding(geom, filling)
    seq = t.face_order[1:]  # F_0 .. F_{n+1}

    # face correspondence with the subtemplate
    filling_to_tsub_face = {}
    for d, path in enumerate(filling.dart_paths):
        tf = tsub.template.map.face_of[d]
        if tf not in tsub.template.holes:
            filling_to_tsub_face[t.map.face_of[path[0]]] = tf
    drawn = [f for f in seq if f not in filling_to_tsub_face]
    clearance = dict(zip(drawn, emb.feature_sizes(drawn).tolist()))

    def depart_of(f):
        tf = filling_to_tsub_face.get(f)
        if tf is not None:
            return geom.depart_dir[tf]
        rv = to_tsub.get(t.root_vertex(f))
        if rv in geom.hole_entry_dir:
            return geom.hole_entry_dir[rv]
        return emb.corner_direction(f, t.root_vertex(f))

    def arrive_of(f, nxt):
        tf = filling_to_tsub_face.get(f)
        if tf is not None:
            return geom.arrive_dir[tf]
        # cluster face: arrival pinned by whatever follows
        if nxt is None:
            raise TemplateError("cluster face cannot close the template")
        return depart_of(nxt)

    points = []
    visits = []
    for i, f in enumerate(seq):
        root = t.root_vertex(f)
        term = t.terminal_vertex(f)
        nxt = seq[i + 1] if i + 1 < len(seq) else None
        tf = filling_to_tsub_face.get(f)
        if tf is not None:
            pts = geom.frozen_curves[tf]
        else:
            pts = _face_curve_points(
                emb, f, depart_of(f), arrive_of(f, nxt), root, term, clearance[f]
            )
        if points:
            pts = pts[1:]  # junction point shared with the previous face
        else:
            visits.append((root, 0))
        points.extend(pts)
        visits.append((term, len(points) - 1))
    return points, visits


def winding_label_values(geom: SubtemplateGeometry, filling):
    """theta at the subtemplate's hole-boundary root/terminal vertices:
    cumulative total curvature at each visit, 0 at the start.

    Drawn once per filling and geometry: the labels are kept on the filling
    (not a field, so out of eq and repr), keyed weakly by the geometry's
    identity, and each call returns a fresh dict.  A degenerate embedding
    is not kept, so it raises again on every call.
    """
    memo = filling.__dict__.get("_winding_labels")
    if memo is None:
        memo = weakref.WeakKeyDictionary()
        object.__setattr__(filling, "_winding_labels", memo)
    if geom not in memo:
        memo[geom] = _label_values(geom, filling)
    return dict(memo[geom])


def _label_values(geom: SubtemplateGeometry, filling):
    to_tsub = filling.vertex_to_tsub(geom.tsub)
    points, visits = filling_curve(geom, filling, to_tsub)
    curve = PolygonalCurve(vertices=tuple(map(tuple, points)))
    angles = turning_angles(curve)
    prefix = [0.0]
    acc = 0.0
    for a in angles:
        acc += a
        prefix.append(acc)
    # arriving at point p accumulates the turns at points 1..p-1
    theta_at = lambda p: prefix[max(p - 1, 0)] if p >= 1 else 0.0

    nodes = geom.curve_graph.boundary_vertices
    labels = {}
    for fv, idx in visits:
        v = to_tsub.get(fv)
        if v in nodes and v not in labels:
            labels[v] = theta_at(idx)
    return labels


@dataclass(frozen=True)
class WindingAgreementReport:
    labels_a: dict
    labels_b: dict
    max_difference: float

    @property
    def agree(self):
        return labels_agree(self.max_difference)


def winding_labels(tsub: MarkedSubtemplate, filling_a, filling_b,
                   geom=None) -> WindingAgreementReport:
    """Compare theta labels of two fillings over one frozen embedding."""
    if geom is None:
        geom = embed_subtemplate(tsub)
    la = winding_label_values(geom, filling_a)
    lb = winding_label_values(geom, filling_b)
    if set(la) != set(lb):
        raise TemplateError("fillings label different vertex sets")
    diff = max((abs(la[v] - lb[v]) for v in la), default=0.0)
    return WindingAgreementReport(labels_a=la, labels_b=lb, max_difference=diff)


# --- the curve graph and admissible arc systems --------------------------------------


@dataclass(frozen=True)
class CurveGraph:
    """Directed graph of maximal face-curve concatenations.

    Nodes: the 3-gon root x plus every hole-boundary root/terminal vertex.
    Each edge covers a maximal run of faces whose junctions are interior.
    """

    nodes: frozenset
    edges: tuple            # (source, target, faces tuple)
    boundary_vertices: frozenset
    vertices_by_hole: dict  # hole position -> tuple of V_i in ring order
    start: int


def subtemplate_curve_graph(tsub: MarkedSubtemplate) -> CurveGraph:
    t = tsub.template
    roots = {t.root_vertex(f): f for f in t.marks if t.k_gon(f) >= 2}
    x = None
    for f in t.marks:
        if t.k_gon(f) == 3:
            x = t.root_vertex(f)
    if x is None:
        raise TemplateError("subtemplate has no 3-gon")

    on_hole = {}
    for j, hole in enumerate(tsub.hole_labels):
        for d in t.map.face_cycles[hole]:
            on_hole[t.map.vertex_of[d]] = j

    vi = {}
    for f in t.marks:
        if t.k_gon(f) < 2:
            continue
        for v in (t.root_vertex(f), t.terminal_vertex(f)):
            if v in on_hole:
                vi.setdefault(on_hole[v], set()).add(v)
    nodes = {x} | {v for vs in vi.values() for v in vs}

    edges = []
    seen = set()
    for f in t.marks:
        if t.k_gon(f) < 2 or f in seen:
            continue
        if t.root_vertex(f) not in nodes:
            continue
        run = [f]
        seen.add(f)
        cur = f
        while t.terminal_vertex(cur) not in nodes:
            nxt = roots.get(t.terminal_vertex(cur))
            if nxt is None or nxt in seen:
                raise TemplateError("face chain broke during curve-graph build")
            run.append(nxt)
            seen.add(nxt)
            cur = nxt
        edges.append((t.root_vertex(f), t.terminal_vertex(cur), tuple(run)))
    uncovered = [f for f in t.marks if t.k_gon(f) >= 2 and f not in seen]
    if uncovered:
        raise TemplateError(f"faces {uncovered} not covered by curve chains")

    rings = {}
    for j, hole in enumerate(tsub.hole_labels):
        ring = [t.map.vertex_of[d] for d in t.map.face_cycles[hole]]
        rings[j] = tuple(v for v in ring if v in vi.get(j, ()))
    return CurveGraph(
        nodes=frozenset(nodes),
        edges=tuple(edges),
        boundary_vertices=frozenset(v for vs in vi.values() for v in vs),
        vertices_by_hole=rings,
        start=x,
    )


def hamiltonian_closure(tsub: MarkedSubtemplate, choices) -> bool:
    """True iff adding the per-hole arcs to the curve graph yields a single
    cycle through every node.

    ``choices`` maps hole positions to arc sets (iterables of (source,
    target) vertex pairs).  Raises InvalidChoice unless in- and out-degrees
    all equal one.
    """
    g = subtemplate_curve_graph(tsub)
    succ = {}
    indeg = {v: 0 for v in g.nodes}
    outdeg = {v: 0 for v in g.nodes}
    for u, v, _faces in g.edges:
        succ.setdefault(u, []).append(v)
        outdeg[u] += 1
        indeg[v] += 1
    for arcs in choices.values():
        for u, v in arcs:
            if u not in g.nodes or v not in g.nodes:
                raise InvalidChoice(f"arc ({u}, {v}) uses unknown vertices")
            succ.setdefault(u, []).append(v)
            outdeg[u] += 1
            indeg[v] += 1
    if any(indeg[v] != 1 or outdeg[v] != 1 for v in g.nodes):
        raise InvalidChoice("in/out degree must be exactly one at every vertex")
    count = 0
    cur = g.start
    while True:
        cur = succ[cur][0]
        count += 1
        if cur == g.start:
            break
        if count > len(g.nodes):
            return False
    return count == len(g.nodes)


def arcs_from_filling(tsub: MarkedSubtemplate, filling, hole_pos: int):
    """The arc system a filling induces on one hole: maximal runs of its
    cluster faces, as (entry vertex, exit vertex) pairs in subtemplate ids."""
    to_tsub = filling.vertex_to_tsub(tsub)
    t = filling.template
    cluster = set(filling.clusters[hole_pos])
    arcs = []
    run_start = None
    prev = None
    for f in t.face_order[1:]:
        if f in cluster:
            if run_start is None:
                run_start = t.root_vertex(f)
            prev = f
        elif run_start is not None:
            arcs.append((to_tsub[run_start], to_tsub[t.terminal_vertex(prev)]))
            run_start = None
    if run_start is not None:
        arcs.append((to_tsub[run_start], to_tsub[t.terminal_vertex(prev)]))
    return tuple(arcs)


def canonical_arc_curvature(geom: SubtemplateGeometry, hole_pos, src, dst,
                            depart, arrive):
    """Total curvature of a simple representative arc from src to dst drawn
    in the hole with the pinned end directions.  Homotopy in the hole disk
    pins the value, so any simple representative yields the canonical one;
    the representative hugs the hole boundary walked clockwise."""
    hole_face = geom.tsub.hole_labels[hole_pos]
    pts = _face_curve_points(geom.emb, hole_face, depart, arrive, src, dst,
                             geom.emb.face_feature_size(hole_face))
    curve = PolygonalCurve(vertices=tuple(map(tuple, pts)))
    if not is_simple(curve):
        raise EmbeddingDegenerate(f"representative arc {src}->{dst} self-crosses")
    return total_turning(curve)


def admissible_arc_sets(tsub: MarkedSubtemplate, geom: SubtemplateGeometry,
                        theta: dict, hole_pos: int):
    """All winding-compatible noncrossing arc systems for one hole.

    Exits (where the curve graph arrives) are matched bijectively to entries
    (where it departs) by arcs drawn in the hole; an arc src->dst is
    compatible when its simple representative has total curvature
    theta(dst) - theta(src) (incompatible arcs are off by multiples of
    2*pi).  Noncrossing is the chord condition in the hole's ring order.
    """
    g = geom.curve_graph
    ring = g.vertices_by_hole[hole_pos]
    indeg = {v: 0 for v in g.nodes}
    outdeg = {v: 0 for v in g.nodes}
    for u, v, _ in g.edges:
        outdeg[u] += 1
        indeg[v] += 1
    exits = [v for v in ring if indeg[v] == 1]
    entries = [v for v in ring if outdeg[v] == 1]
    if len(exits) != len(entries):
        raise TemplateError("unbalanced hole boundary")

    t = tsub.template
    emb = geom.emb
    hole_face = tsub.hole_labels[hole_pos]
    depart = {v: emb.corner_direction(hole_face, v) for v in exits}
    arrive = {}
    for v in entries:
        f = next(f for f in t.marks if t.k_gon(f) >= 2 and t.root_vertex(f) == v)
        arrive[v] = emb.corner_direction(f, v)

    compatible = {}
    for u in exits:
        for w in entries:
            if u == w:
                continue
            curv = canonical_arc_curvature(geom, hole_pos, u, w, depart[u], arrive[w])
            compatible[(u, w)] = abs(curv - (theta[w] - theta[u])) < math.pi

    ring_pos = {v: i for i, v in enumerate(ring)}

    def crossing(a1, a2):
        (u1, w1), (u2, w2) = a1, a2
        s = sorted([ring_pos[u1], ring_pos[w1]])
        x, y = ring_pos[u2], ring_pos[w2]
        return (s[0] < x < s[1]) != (s[0] < y < s[1])

    systems = []
    for perm in itertools.permutations(entries):
        arcs = tuple(zip(exits, perm))
        if any(not compatible.get(a, False) for a in arcs):
            continue
        if any(crossing(a, c) for a, c in itertools.combinations(arcs, 2)):
            continue
        systems.append(arcs)
    return systems
