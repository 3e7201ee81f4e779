"""Small fixtures and oracles that only the tests read."""

import numpy as np

from quiltlab import fields as fl
from quiltlab import meander as me
from quiltlab import planar_map as pm
from quiltlab.errors import MapError


def canonical_code(m: pm.HalfEdgeMap) -> bytes:
    """Root-preserving isomorphism invariant of ``m``: its next/twin tables
    in breadth-first visit order from the root."""
    return pm.code_from_labeling(m, pm.canonical_labeling(m))


def relabel_map(m: pm.HalfEdgeMap, dart_permutation):
    """Apply a dart relabeling (conjugation) to ``m``."""
    n = m.n_darts
    nxt = [0] * n
    twn = [0] * n
    for d in range(n):
        nxt[dart_permutation[d]] = dart_permutation[m.next_dart[d]]
        twn[dart_permutation[d]] = dart_permutation[d ^ 1]
    return pm.build_map(nxt, twn, dart_permutation[m.root])


def single_edge_map() -> pm.HalfEdgeMap:
    """One edge, two vertices, one face of two darts."""
    return pm.build_map([0, 1], [1, 0], 0)


def polygon_map(k: int) -> pm.HalfEdgeMap:
    """Cycle on k vertices (k >= 2): V=k, E=k, F=2; edge i joins i and i+1."""
    inner = [(i, i) for i in range(k)]
    outer = [((i + 1) % k, i) for i in reversed(range(k))]
    m, _ = pm.from_face_edge_cycles([inner, outer])
    return m


def tetrahedron_map() -> pm.HalfEdgeMap:
    """Skeleton of the tetrahedron: V=4, E=6, F=4."""
    m, _ = from_faces([(0, 1, 2), (0, 2, 3), (0, 3, 1), (3, 2, 1)])
    return m


def from_faces(face_vertex_cycles, root_pair=None):
    """Build a map from faces given as vertex cycles (face on the left).

    Each face is a cyclic sequence of vertex labels; every oriented pair
    ``(u, v)`` must occur in exactly one face (so parallel edges between the
    same two vertices are not expressible here).  Returns ``(map, dart_of)``
    where ``dart_of[(u, v)]`` locates oriented edges in the result.
    ``root_pair`` picks the root dart; defaults to the first pair of the
    first face.  A thin adapter over ``planar_map.from_face_edge_cycles``,
    with the edge between u and v labelled ``frozenset((u, v))``.
    """
    pairs = [list(zip(cyc, [*cyc[1:], *cyc[:1]])) for cyc in face_vertex_cycles]
    position = {pair: (i, j) for i, cyc in enumerate(pairs) for j, pair in enumerate(cyc)}
    root = (0, 0) if root_pair is None else position[tuple(root_pair)]
    m, dart_cycles = pm.from_face_edge_cycles(
        [[(u, frozenset((u, v))) for u, v in cyc] for cyc in pairs], root)
    return m, {pair: dart_cycles[i][j] for pair, (i, j) in position.items()}


def euler_characteristic(m: pm.HalfEdgeMap):
    """V - E + F: 2 exactly when ``m`` is spherical."""
    return m.n_vertices - m.n_edges + m.n_faces


def vertex_to_parent(red):
    """Reduced vertex id -> parent vertex id of the ``MarkedSubtemplate``
    ``red``."""
    out = {}
    for d, path in red.dart_expansion.items():
        out[red.template.map.vertex_of[d]] = red.parent.map.vertex_of[path[0]]
    return out


def edge_vertices(m: pm.HalfEdgeMap, edge):
    """(tail, head) vertices of edge ``edge``'s first dart."""
    return (m.vertex_of[2 * edge], m.vertex_of[2 * edge + 1])


def edge_faces(m: pm.HalfEdgeMap, edge):
    """Faces on the left of edge ``edge``'s two darts."""
    return (m.face_of[2 * edge], m.face_of[2 * edge + 1])


def map_from_cycles_by_dict(cycles, root_key=None):
    """``planar_map.from_face_edge_cycles`` as it was written with dicts
    keyed by ``(tail, edge label)`` entries: the oracle of the constructor.

    Each entry travels from its tail vertex along the labelled edge to the
    next entry's tail; every edge label must occur exactly twice, with
    distinct tails (no loop edges).  Parallel edges are fine since labels
    disambiguate.  Returns ``(map, dart_of)`` with ``dart_of[(tail, edge)]``
    locating darts; ``root_key`` is such a pair (default: first entry of the
    first face).
    """
    occurrences = {}
    for ci, cyc in enumerate(cycles):
        k = len(cyc)
        if k < 2:
            raise MapError("face cycles need at least two entries")
        for i, (tail, e) in enumerate(cyc):
            head = cyc[(i + 1) % k][0]
            occurrences.setdefault(e, []).append((tail, head, ci, i))
    for e, occ in occurrences.items():
        if len(occ) != 2:
            raise MapError(f"edge {e!r} occurs {len(occ)} times, expected 2")
        if occ[0][0] == occ[1][0]:
            raise MapError(f"edge {e!r} is a loop or doubly-traversed")
        if occ[0][0] != occ[1][1] or occ[0][1] != occ[1][0]:
            raise MapError(f"edge {e!r} endpoints disagree between its two sides")

    edge_ids = {e: i for i, e in enumerate(occurrences)}
    dart_of = {}
    for e, occ in occurrences.items():
        k = edge_ids[e]
        dart_of[(occ[0][0], e)] = 2 * k
        dart_of[(occ[1][0], e)] = 2 * k + 1
    n = 2 * len(occurrences)
    # face successor phi (faces on the left), then ccw rotation = phi o twin
    face_next = [0] * n
    for cyc in cycles:
        k = len(cyc)
        for i, (tail, e) in enumerate(cyc):
            nxt_entry = cyc[(i + 1) % k]
            face_next[dart_of[(tail, e)]] = dart_of[nxt_entry]
    nxt = [face_next[d ^ 1] for d in range(n)]
    if root_key is None:
        root_key = cycles[0][0]
    m = pm._finish(tuple(nxt), dart_of[root_key])
    return m, dart_of


def cycles_oracle(cycles, root=(0, 0)):
    """:func:`map_from_cycles_by_dict` in the signature of
    ``planar_map.from_face_edge_cycles``: returns ``(map, dart_cycles)``."""
    m, dart_of = map_from_cycles_by_dict(cycles, cycles[root[0]][root[1]])
    return m, [[dart_of[entry] for entry in cyc] for cyc in cycles]


def oriented_arcs(diagram: me.ArcDiagram):
    """Arcs of ``diagram`` as (start, end), orientations from the
    alternation rule: exactly one endpoint of each arc is odd, and upper
    arcs run from it."""
    out = []
    for a, b in diagram.pairs:
        odd, even = (a, b) if a % 2 else (b, a)
        out.append((odd, even) if diagram.side == me.UPPER else (even, odd))
    return out


def near_degenerate(p):
    """Correlation of the ``MotParams`` ``p`` close to +-1 (gamma near 0 or
    2), where sampling gets hard."""
    return abs(p.correlation) > 0.995


def in_quadrant(walk):
    """min(L) >= 0 and min(R) >= 0 over the points of ``walk``."""
    return bool(walk.L.min() >= 0.0 and walk.R.min() >= 0.0)


def star_graph_with_boundary(spokes: int) -> fl.Graph:
    """One interior vertex joined to ``spokes`` boundary vertices."""
    edges = tuple((0, i) for i in range(1, spokes + 1))
    return fl.Graph(n=spokes + 1, edges=edges, boundary=frozenset(range(1, spokes + 1)))


def catalan(n: int) -> int:
    """The n-th Catalan number."""
    c = 1
    for i in range(n):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def step_chol(p):
    """Cholesky factor of the per-step increment covariance Sigma dt of the
    ``MotParams`` ``p``: the oracle's generator, written apart from
    ``mating._increment_mix``."""
    dt = p.duration / p.steps
    cov = p.variance * dt * np.array(
        [[1.0, p.correlation], [p.correlation, 1.0]]
    )
    return np.linalg.cholesky(cov)


def sample_walk_proposals(p, count, rng, start=(0.0, 1.0), end=(0.0, 0.0)):
    """Unconditioned bridges from start to end, drawn in full by pinning a
    free walk's endpoint: shape (count, steps+1, 2).

    The full-rejection oracle for ``mating.sample_cone_walk``: keeping the
    proposals that stay in the closed quadrant gives the same law without
    the shift.
    """
    n = p.steps
    incs = rng.standard_normal((count, n, 2)) @ step_chol(p).T
    paths = np.zeros((count, n + 1, 2))
    paths[:, 1:, :] = np.cumsum(incs, axis=1)
    paths += np.asarray(start, dtype=float)
    drift = paths[:, -1, :] - np.asarray(end, dtype=float)
    frac = (np.arange(n + 1) / n)[None, :, None]
    paths -= frac * drift[:, None, :]  # exact endpoint pinning
    return paths


def build_through_cycles(b):
    """``Builder.build`` as it was written through the dict-keyed
    constructor :func:`map_from_cycles_by_dict`: the oracle of the build.
    Returns (template, seq_to_face, lengths or None)."""
    from quiltlab._builder import EXT
    from quiltlab.quilt import Template

    n = len(b.ring)
    ext_cycle = [(b.ring[(i + 1) % n][0], b.ring[i][1]) for i in reversed(range(n))]
    all_cycles = [ext_cycle] + b.cycles
    hmap, dart_of = map_from_cycles_by_dict(all_cycles, root_key=ext_cycle[0])

    def face_id(cycle):
        return hmap.face_of[dart_of[cycle[0]]]

    seq_to_face = {EXT: face_id(ext_cycle)}
    for i, cyc in enumerate(b.cycles):
        seq_to_face[i] = face_id(cyc)
    vmap = {}
    for (tail, _e), d in dart_of.items():
        vmap.setdefault(tail, hmap.vertex_of[d])
    marks = {seq_to_face[EXT]: (vmap[0],)}
    for i, mk in enumerate(b.marks):
        marks[seq_to_face[i]] = tuple(vmap[x] for x in mk)
    order = [seq_to_face[EXT]] + [seq_to_face[i] for i in range(len(b.cycles))]
    template = Template(map=hmap, marks=marks, holes=frozenset(), face_order=tuple(order))
    lengths = None
    if b.edge_len is not None:
        lengths = [0.0] * hmap.n_edges
        for (tail, e), d in dart_of.items():
            lengths[d >> 1] = b.edge_len[e]
        lengths = tuple(lengths)
    return template, seq_to_face, lengths


def n2_builders():
    """Closed Builders of the 10 templates with two 4-gons, in move order."""
    from quiltlab._builder import Builder

    for t1, s1 in ((1, 1), (1, 2)):
        base = Builder()
        base.add_face(t=t1, s=s1)
        for t2 in range(1, len(base.left) + 1):
            for s2 in range(1, len(base.right) + 1):
                b = base.clone()
                b.add_face(t=t2, s=s2)
                b.close()
                yield b
