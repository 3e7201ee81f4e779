"""Small fixtures and oracles that only the tests read."""

import numpy as np

from quiltlab import fields as fl
from quiltlab import planar_map as pm


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
    """``Builder.build`` as it was written through
    ``planar_map.from_face_edge_cycles``: the oracle of the array-form build.
    Returns (template, seq_to_face, lengths or None)."""
    from quiltlab._builder import EXT
    from quiltlab.quilt import Template

    n = len(b.ring)
    ext_cycle = [(b.ring[(i + 1) % n][0], b.ring[i][1]) for i in reversed(range(n))]
    all_cycles = [ext_cycle] + b.cycles
    hmap, dart_of = pm.from_face_edge_cycles(all_cycles, root_key=ext_cycle[0])

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
