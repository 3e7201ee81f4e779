import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from quiltlab import planar_map as pm
from quiltlab.errors import (
    DisconnectedMap,
    FixedPointInTwin,
    NonInvolution,
    SizeMismatch,
)

from helpers import (
    canonical_code,
    euler_characteristic,
    from_faces,
    polygon_map,
    relabel_map,
    single_edge_map,
    tetrahedron_map,
)


def test_triangle_counts():
    t = polygon_map(3)
    assert (t.n_vertices, t.n_edges, t.n_faces) == (3, 3, 2)
    assert euler_characteristic(t) == 2


def test_single_edge_counts():
    e = single_edge_map()
    assert (e.n_vertices, e.n_edges, e.n_faces) == (2, 1, 1)
    assert euler_characteristic(e) == 2
    assert len(e.face_cycles[0]) == 2


def test_tetrahedron_counts():
    t = tetrahedron_map()
    assert (t.n_vertices, t.n_edges, t.n_faces) == (4, 6, 4)
    assert euler_characteristic(t) == 2


def test_face_cycles_partition_darts():
    for m in (polygon_map(3), single_edge_map(), tetrahedron_map()):
        darts = [d for cyc in m.face_cycles for d in cyc]
        assert sorted(darts) == list(range(m.n_darts))
        verts = [d for cyc in m.vertex_cycles for d in cyc]
        assert sorted(verts) == list(range(m.n_darts))


def test_face_lengths_sum_to_twice_edges():
    t = tetrahedron_map()
    assert sum(len(c) for c in t.face_cycles) == 2 * t.n_edges


def test_quadrangulated_square_three_faces():
    # square 0-1-2-3 with diagonal 0-2: faces traced by hand from the
    # rotation system: two triangles plus the outer face
    faces = [(0, 1, 2), (0, 2, 3), (3, 2, 1, 0)]
    m, _ = from_faces(faces)
    assert m.n_faces == 3
    assert m.n_edges == 5
    assert euler_characteristic(m) == 2


def test_from_faces_dart_of_locates_oriented_edges():
    faces = [(0, 1, 2), (0, 2, 3), (0, 3, 1), (3, 2, 1)]
    m, dart_of = from_faces(faces, root_pair=(0, 2))
    assert m.root == dart_of[(0, 2)]
    assert len(dart_of) == 12
    tails = {}
    for (u, v), d in dart_of.items():
        assert dart_of[(v, u)] == d ^ 1
        tails.setdefault(u, set()).add(m.vertex_of[d])
    assert all(len(vs) == 1 for vs in tails.values())
    assert len(set.union(*tails.values())) == 4


def test_polygon_map_bigon():
    m = polygon_map(2)
    assert (m.n_vertices, m.n_edges, m.n_faces) == (2, 2, 2)
    assert euler_characteristic(m) == 2
    assert [len(c) for c in m.face_cycles] == [2, 2]
    assert [len(c) for c in m.vertex_cycles] == [2, 2]


def test_twin_normalization():
    t = polygon_map(4)
    for d in range(t.n_darts):
        assert t.twin(d) == (d ^ 1)


def test_build_map_errors():
    with pytest.raises(SizeMismatch):
        pm.build_map([0, 1], [1, 0, 2], 0)
    with pytest.raises(SizeMismatch):
        pm.build_map([0], [0], 0)
    with pytest.raises(FixedPointInTwin):
        pm.build_map([1, 0], [0, 1], 0)
    with pytest.raises(NonInvolution):
        pm.build_map([0, 1, 2, 3], [1, 2, 3, 0], 0)
    with pytest.raises(DisconnectedMap):
        # two separate single edges
        pm.build_map([0, 1, 2, 3], [1, 0, 3, 2], 0)


def test_canonical_code_identity_and_distinct():
    t = polygon_map(3)
    e = single_edge_map()
    assert canonical_code(t) == canonical_code(t)
    assert canonical_code(t) != canonical_code(e)


def test_canonical_code_rotating_root_on_symmetric_map():
    # the triangle has an automorphism rotating its darts; re-rooting along
    # the same face orbit gives isomorphic rooted maps
    t = polygon_map(3)
    orbit_root = t.face_of[t.root]
    codes = set()
    for d in t.face_cycles[orbit_root]:
        m = pm.build_map(list(t.next_dart), [x ^ 1 for x in range(t.n_darts)], d)
        codes.add(canonical_code(m))
    assert len(codes) == 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_canonical_code_relabel_invariant(seed):
    t = tetrahedron_map()
    perm = list(range(t.n_darts))
    random.Random(seed).shuffle(perm)
    relabeled = relabel_map(t, perm)
    assert canonical_code(relabeled) == canonical_code(t)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(0, 10_000))
def test_cycles_start_at_their_smallest_dart_in_order(n_edges, seed):
    rnd = random.Random(seed)
    n = 2 * n_edges
    nxt = list(range(n))
    rnd.shuffle(nxt)
    pairs = list(range(n))
    rnd.shuffle(pairs)
    twn = [0] * n
    for a, b in zip(pairs[::2], pairs[1::2]):
        twn[a], twn[b] = b, a
    try:
        m = pm.build_map(nxt, twn, rnd.randrange(n))
    except DisconnectedMap:
        assume(False)
    for cycles, id_of in ((m.vertex_cycles, m.vertex_of), (m.face_cycles, m.face_of)):
        assert all(cyc[0] == min(cyc) for cyc in cycles)
        assert [cyc[0] for cyc in cycles] == sorted(cyc[0] for cyc in cycles)
        assert all(id_of[d] == i for i, cyc in enumerate(cycles) for d in cyc)


def test_text_round_trip():
    for m in (polygon_map(3), tetrahedron_map()):
        text = pm.to_text(m)
        again = pm.from_text(text)
        assert pm.to_text(again) == text
        assert canonical_code(again) == canonical_code(m)


def test_from_face_edge_cycles_parallel_edges():
    # bigon: two vertices joined by two parallel edges
    cycles = [[(0, "a"), (1, "b")], [(0, "b"), (1, "a")]]
    m, dart_cycles = pm.from_face_edge_cycles(cycles)
    # edges numbered by first occurrence; an edge's first side is dart 2k
    assert dart_cycles == [[0, 2], [3, 1]] and m.root == 0
    assert (m.n_vertices, m.n_edges, m.n_faces) == (2, 2, 2)
    assert euler_characteristic(m) == 2
