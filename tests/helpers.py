"""Small fixtures and oracles that only the tests read."""

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
