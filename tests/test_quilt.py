import dataclasses
import functools
import gc
import hashlib
import itertools
import math
import random
import weakref
from collections import Counter

import numpy as np
import pytest

from quiltlab import curvature as cv
from quiltlab import mating as mt
from quiltlab import planar_map as pm
from quiltlab import quilt as qt
from quiltlab import quilt_enum as qe
from quiltlab import quilt_winding as qw
from quiltlab._builder import Builder
from quiltlab._verify import FIXTURES
from quiltlab.errors import (
    BudgetExhausted,
    DisconnectedSelection,
    EmbeddingDegenerate,
    InvalidChoice,
    MapError,
    MissingOrder,
    SingularMap,
    TemplateError,
    WrongGonProfile,
)

from conftest import MASTER_SEED, build_subtemplate, build_template
from helpers import (
    build_through_cycles,
    cycles_oracle,
    edge_faces,
    edge_vertices,
    n2_builders,
    polygon_map,
    vertex_to_parent,
)


@pytest.fixture(scope="module")
def minimal():
    return build_template([])


@pytest.fixture(scope="module")
def chain3():
    return build_template([(1, 1), (1, 1), (1, 1)])


@pytest.fixture(scope="module")
def chain3_sub(chain3):
    order = chain3.face_order
    return qt.mark_subtemplate(chain3, [order[0], order[1], order[3], order[5]])


@pytest.fixture(scope="module")
def wide_sub():
    return build_subtemplate([(1, 2), (1, 2), (1, 2)], unmarked_positions=(2, 4))


# --- validation --------------------------------------------------------------------


def test_minimal_template_valid(minimal):
    report = qt.validate_template(minimal)
    assert report.passed and report.n == 0
    assert [minimal.k_gon(f) for f in minimal.face_order] == [1, 3, 2]


def test_all_small_templates_valid():
    count = 0
    for moves in ([(1, 1)], [(1, 2)], [(1, 1), (2, 1)], [(1, 2), (2, 2)]):
        t = build_template(moves)
        assert qt.validate_template(t).passed
        assert qt.recover_face_order(t) == t.face_order
        count += 1
    assert count == 4


def test_validation_report_kept_on_the_template():
    t = build_template([(1, 1), (1, 2)])
    before = repr(t)
    report = qt.validate_template(t)
    assert qt.validate_template(t) is report
    rebuilt = qt.Template(map=t.map, marks=t.marks, holes=t.holes, face_order=t.face_order)
    assert rebuilt == t and repr(rebuilt) == repr(t) == before
    fresh = qt.validate_template(rebuilt)
    assert fresh is not report and fresh == report and fresh.passed


def test_template_iso_of_an_equal_template_is_the_identity(chain3_sub):
    t = chain3_sub.template
    copy = qt.Template(map=t.map, marks=t.marks, holes=t.holes)
    assert copy == t and repr(copy) == repr(t)
    assert qt.template_key(copy) == qt.template_key(t)
    assert qt.template_iso(t, copy) == {d: d for d in range(t.map.n_darts)}


def test_missing_order(minimal):
    bare = qt.Template(map=minimal.map, marks=minimal.marks, holes=frozenset())
    with pytest.raises(MissingOrder):
        qt.validate_template(bare)
    assert qt.with_face_order(bare).face_order == minimal.face_order


def test_wrong_gon_profile(minimal):
    bad_order = (minimal.face_order[1], minimal.face_order[0], minimal.face_order[2])
    bad = qt.Template(
        map=minimal.map, marks=minimal.marks, holes=frozenset(), face_order=bad_order
    )
    with pytest.raises(WrongGonProfile):
        qt.validate_template(bad)


def test_root_degree_violation_fails_condition_c():
    t = build_template([(1, 1), (1, 1)])
    order = t.face_order
    f2 = order[3]
    marks = dict(t.marks)
    # rotate F_2's marks so its "root" is a degree-3 vertex
    marks[f2] = marks[f2][1:] + marks[f2][:1]
    bad = qt.Template(map=t.map, marks=marks, holes=frozenset(), face_order=t.face_order)
    report = qt.validate_template(bad)
    assert not report.passed
    failed = {c.name for c in report.failures()}
    assert "c" in failed or "b" in failed


# --- determinant -------------------------------------------------------------------


def test_minimal_determinant_explicit(minimal):
    report = qt.side_length_map_determinant(minimal)
    # explicit 3x3 matrix: rows l0+, r0-, r0+ hit three distinct edges
    assert report.det in (-1, 1)
    assert report.left_tree_size == 1
    assert report.bijection_ok and report.triangular_ok


def test_determinant_all_n2_templates():
    count = 0
    for b in n2_builders():
        t, _, _ = b.build()
        rep = qt.side_length_map_determinant(t)
        assert abs(rep.det) == 1
        assert rep.left_tree_size == 2 * rep.n + 1
        assert rep.bijection_ok and rep.triangular_ok
        assert abs(abs(rep.det_float) - 1.0) < 1e-9
        count += 1
    assert count == 10


def test_determinant_unit_on_wider_fixture():
    t = build_template([(1, 2), (2, 1), (1, 3), (2, 2)])
    rep = qt.side_length_map_determinant(t)
    assert abs(rep.det) == 1 and rep.left_tree_size == 9


def test_singular_map_raised_on_tampered_marks():
    t = build_template([(1, 1)])
    # swapping two non-root marks of the 4-gon breaks the side structure
    order = t.face_order
    f1 = order[2]
    marks = dict(t.marks)
    a, c, d, b = marks[f1]
    marks[f1] = (a, b, d, c)
    try:
        bad = qt.Template(map=t.map, marks=marks, holes=frozenset(),
                          face_order=t.face_order)
    except TemplateError:
        return  # rejected even earlier: marks out of cycle order
    with pytest.raises((SingularMap, TemplateError)):
        qt.side_length_map_determinant(bad)


def _left_tree(t):
    """(left edges, right edges, contour start) of an ordered template."""
    edges = {"l": set(), "r": set()}
    for f, j, name in qt.coordinate_sides(t.face_order):
        edges[name[0]].update(d >> 1 for d in t.side_dart_paths(f)[j])
    start = t.side_dart_paths(t.face_order[1])[2][-1] ^ 1  # reversed end of l0+
    return edges["l"], edges["r"], start


def test_left_tree_contour_orders_the_left_tree():
    t = build_template([(1, 2), (2, 1), (1, 3), (2, 2)])
    left, _, start = _left_tree(t)
    visit = qt._left_tree_contour(t.map, left, start)
    assert set(visit) == left and len(set(visit.values())) == len(left)
    assert visit[start >> 1] == 0 and max(visit.values()) < 2 * len(left)


def test_left_tree_contour_rejects_a_cycle_and_a_forest():
    t = build_template([(1, 2), (2, 1), (1, 3), (2, 2)])
    left, _, start = _left_tree(t)
    # F_0's right sides run from its root to its terminal, both on the tree
    f0 = t.face_order[1]
    r0 = {d >> 1 for j in (0, 1) for d in t.side_dart_paths(f0)[j]}
    assert qt._left_tree_contour(t.map, left | r0, start) is None
    # removing an edge with tree edges at both ends leaves two components
    degree = {}
    for e in left:
        for v in edge_vertices(t.map, e):
            degree[v] = degree.get(v, 0) + 1
    cut = next(e for e in sorted(left) if e != start >> 1
               and min(degree[v] for v in edge_vertices(t.map, e)) >= 2)
    assert qt._left_tree_contour(t.map, left - {cut}, start) is None


def test_left_tree_contour_on_a_square():
    m = polygon_map(4)  # edge i joins vertices i and i+1; dart 2i leaves i
    assert qt._left_tree_contour(m, {0, 1, 2}, 0) == {0: 0, 1: 1, 2: 2}
    assert qt._left_tree_contour(m, {0, 1, 2, 3}, 0) is None  # the closing edge
    assert qt._left_tree_contour(m, {0, 2}, 0) is None  # two components


def test_determinant_reports_a_failed_tree_proof(monkeypatch):
    t = build_template([(1, 1), (2, 1)])
    monkeypatch.setattr(qt, "_left_tree_contour", lambda m, tree, start: None)
    rep = qt.side_length_map_determinant(t)
    assert abs(rep.det) == 1 and rep.left_tree_size == 5
    assert not rep.bijection_ok and not rep.triangular_ok


def test_mark_positions_kept_from_validation(chain3):
    rebuilt = qt.Template(map=chain3.map, marks=dict(chain3.marks),
                          holes=chain3.holes, face_order=chain3.face_order)
    assert rebuilt == chain3 and repr(rebuilt) == repr(chain3)
    assert "_mark_positions" not in repr(chain3)
    for f in chain3.marks:
        pos = chain3.mark_positions(f)
        assert pos is chain3.mark_positions(f)
        tails = [chain3.map.vertex_of[chain3.map.face_cycles[f][i]] for i in pos]
        assert tails == list(chain3.marks[f])
    f1 = chain3.face_order[2]  # a 4-gon: marks a, b, c, d in cycle order
    a, b, c, d = chain3.marks[f1]
    with pytest.raises(TemplateError, match="not in face-cycle order"):
        qt.Template(map=chain3.map, marks={**chain3.marks, f1: (a, c, b, d)},
                    holes=chain3.holes, face_order=chain3.face_order)


# --- the array-form build -------------------------------------------------------------


def _builds_agree(b, build):
    """``build(b)`` equals the build through the dict-keyed constructor: map,
    marks (in order), face order, seq_to_face and lengths."""
    got = build(b)
    (t, seq, lengths), (t0, seq0, lengths0) = got, build_through_cycles(b)
    assert t.map == t0.map and t.face_order == t0.face_order
    assert list(t.marks.items()) == list(t0.marks.items())
    assert list(seq.items()) == list(seq0.items())
    assert lengths == lengths0 and repr(t) == repr(t0)
    return got


def test_array_build_matches_cycle_build(monkeypatch):
    compositions = _recorded_compositions(monkeypatch)
    assert len(compositions) == COMPOSE_DIGEST[0]
    monkeypatch.undo()
    monkeypatch.setattr(pm, "from_face_edge_cycles", cycles_oracle)
    for (tsub, sources), (t, marked) in compositions:
        t0, marked0 = qe.compose_fillings(tsub, sources)
        assert t.map == t0.map and t.face_order == t0.face_order
        assert list(t.marks.items()) == list(t0.marks.items())
        assert repr(t) == repr(t0) and marked == marked0
    monkeypatch.undo()

    array_build = Builder.build
    builders = list(n2_builders())
    for moves, _ in FIXTURES.values():
        b = Builder()
        for t, s in moves:
            b.add_face(t=t, s=s)
        b.close()
        builders.append(b)
    for b in builders:
        _builds_agree(b, array_build)
    assert len(builders) == 13

    chain = build_subtemplate([(1, 1)] * 3, (2, 4))
    built = []

    def checked(b):
        built.append(b)
        return _builds_agree(b, array_build)

    monkeypatch.setattr(Builder, "build", checked)
    assert len(qe.enumerate_fillings(chain, (2, 2))) == 50
    assert len(built) == 50  # every leaf is a filling
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 11)
    rng = np.random.default_rng(11)
    for _ in range(1000):
        assert mt.simulate_discretized_disk(p, rng=rng).quilt.lengths is not None
    assert len(built) == 1050


@pytest.mark.parametrize("defect, message", [
    ("once", "occurs 1 times, expected 2"),
    ("thrice", "occurs 3 times, expected 2"),
    ("endpoints", "endpoints disagree between its two sides"),
    ("short", "face cycles need at least two entries"),
])
def test_array_build_refuses_corrupt_cycles(defect, message):
    b = Builder()
    b.add_face(t=1, s=1)
    b.add_face(t=2, s=1)
    b.close()
    f1 = b.cycles[1]
    if defect == "once":
        del f1[0]
    elif defect == "thrice":
        b.cycles[-1].insert(0, f1[0])
    elif defect == "short":
        b.cycles.append([f1[0]])
    else:
        f1[0] = (b.nv, f1[0][1])  # a tail no other entry has
    for build in (Builder.build, build_through_cycles):
        with pytest.raises(MapError, match=message):
            build(b)


# --- subtemplates -------------------------------------------------------------------


def test_mark_all_faces_identity(chain3):
    sub = qt.mark_subtemplate(chain3, list(chain3.marks))
    assert sub.n_holes == 0
    assert qt.template_key(sub.template) == qt.template_key(chain3)


def test_single_hole_prefix(chain3):
    order = chain3.face_order
    sub = qt.mark_subtemplate(chain3, [order[0], order[1]])
    assert sub.n_holes == 1
    assert len(sub.cluster_faces[0]) == 4


def test_two_holes(chain3_sub):
    assert chain3_sub.n_holes == 2
    assert sorted(len(c) for c in chain3_sub.cluster_faces) == [1, 1]
    # holes share no boundary edges: each edge borders at most one hole
    t = chain3_sub.template
    for e in range(t.map.n_edges):
        fs = edge_faces(t.map, e)
        assert sum(1 for f in fs if f in t.holes) <= 1


def test_disconnected_selection_rejected(chain3):
    order = chain3.face_order
    with pytest.raises(DisconnectedSelection):
        qt.mark_subtemplate(chain3, [order[0], order[4]])


def test_expansion_round_trip(chain3, chain3_sub):
    # merged darts expand to parent dart paths partitioning the kept edges
    parent_darts = [
        d for path in chain3_sub.dart_expansion.values() for d in path
    ]
    assert len(parent_darts) == len(set(parent_darts))
    kept_edges = {d >> 1 for d in parent_darts}
    dropped = set(range(chain3.map.n_edges)) - kept_edges
    for e in dropped:
        fs = set(edge_faces(chain3.map, e))
        assert not fs & chain3_sub.parent_faces


# --- fillings and the product bijection ------------------------------------------------


def test_zero_hole_filling_is_identity(chain3):
    sub = qt.mark_subtemplate(chain3, list(chain3.marks))
    fills = qe.enumerate_fillings(sub, 0)
    assert len(fills) == 1
    assert qt.template_key(fills[0].template) == qt.template_key(chain3)


def test_budget_one_unique_filling(chain3_sub, chain3):
    fills = qe.enumerate_fillings(chain3_sub, 1)
    assert len(fills) == 1
    assert fills[0].added == (1, 1)
    assert qt.template_key(fills[0].template) == qt.template_key(chain3)


def test_fillings_reduce_back(chain3_sub):
    fills = qe.enumerate_fillings(chain3_sub, 2)
    key = qt.template_key(chain3_sub.template)
    for f in fills[:10]:
        red = qt.mark_subtemplate(f.template, f.marked)
        assert qt.template_key(red.template) == key
        assert qt.validate_template(f.template).passed


def test_product_law_chain3(chain3_sub):
    rep = qe.verify_product_bijection(chain3_sub, 2, constructive=True)
    assert rep.n_fillings == 50
    assert rep.factor_sizes == (10, 5)
    assert rep.injective and rep.surjective
    assert rep.composed_checked == 50


def test_product_law_mixed_budgets(chain3_sub):
    rep = qe.verify_product_bijection(chain3_sub, (2, 3), constructive=False)
    assert rep.n_fillings == 300
    assert rep.factor_sizes == (10, 30)


def test_product_law_budgets_3_3(chain3_sub):
    # the probe of scale: the search without the cluster check expanded
    # 216,035 nodes and built 18,474 leaves for these 2,730 fillings; with
    # it, 2,495 nodes, and with the closing look-ahead too, 879 nodes and
    # 2,730 leaves
    fills = qe.enumerate_fillings(chain3_sub, (3, 3))
    assert hashlib.sha256(b"".join(f.key for f in fills)).hexdigest() == (
        "490b1e05c4c717c3bf08a3d8bc27b5da900765165bdd74c7adc09dbec5723997")
    rep = qe.verify_product_bijection(chain3_sub, (3, 3), constructive=False,
                                      fillings=fills)
    assert rep.n_fillings == 2730
    assert rep.factor_sizes == (91, 30)


def test_product_law_wide_fixture(wide_sub):
    rep = qe.verify_product_bijection(wide_sub, 2, constructive=True)
    assert rep.n_fillings == rep.factor_sizes[0] * rep.factor_sizes[1]


# (moves, unmarked positions, budgets, count, sha256 of the joined keys),
# measured on the search that rebuilt every frontier profile per (t, s)
FILLING_DIGESTS = {
    "chain": ([(1, 1)] * 3, (2, 4), (2, 2), 50,
              "4ea961b7636661cf23d3228918d97a0ab8d8d6bd4d2cd0b51aadc28c6329548f"),
    "wide": ([(1, 2)] * 3, (2, 4), (2, 2), 70,
             "b1cfa659b4bc69e525709935435b5324ecac7c5a381ee130116e123d49771a3b"),
    "two-pass": ([(1, 1)] * 3 + [(1, 2), (1, 3)], (2, 4, 6), (2, 2), 14,
                 "37052e543a9b7baf90852250b58fae8c3e466cc8ce30dbd926a07bcd6dec6ec2"),
    "chain-4-1": ([(1, 1)] * 3, (2, 4), (4, 1), 875,
                  "6ce4bcda5fc8d0f968f0af3590d4113d271fd682288c0bc4de67ab27649bf98c"),
}


# sha256 of each hole's projection keys (newline-joined, in filling order),
# measured on the reduction that rebuilt every map through build_map
PROJECTION_DIGESTS = {
    "chain": ("67918a5748e000612d5efd6e8c13924ddf869e3367b2e2f9ba67f480e78dd269",
              "825c7cddc8a6f0f583fc84a44561d07ee73611781892f5e2dc261d875be6010f"),
    "wide": ("6f644bed86617df52b67e1500cd5475d55ed0e1988b34c5a027190a3ffed661d",
             "7dc889d422aa075a3ae7087d6ff53517c8bd16ee3f4c4fdd196cdab8fa570d66"),
    "two-pass": ("492274942dba749e83eb611a8feece1440bd4e94408d66cec6bc3a6269166691",
                 "c370c0aced4165fbb940aad6846b31594975b90d396e4e5571fc5a0f7cbe336f"),
    "chain-4-1": ("1fa97c407174fdecd229c921605ff024b51ea56ec8578e058491a8c83e8e2007",
                  "db6d35a11989e82abb9781b50783fc54e4cd13a2b96265c85cf145e18e95e79e"),
}
# (leaf reductions, sha256 of their newline-joined reprs) of the chain (2, 2)
# search; each repr is (key, hole labels, sorted clusters, sorted expansion)
LEAF_REDUCTION_DIGEST = (
    50, "ba842713e95ae6e9c14b7d5f9404451921646fd5b9d1c346e4e7a3b1be20a1b8")


@functools.cache
def _digest_fixture(name):
    moves, holes, budgets, _, _ = FILLING_DIGESTS[name]
    tsub = build_subtemplate(moves, holes)
    return tsub, qe.enumerate_fillings(tsub, budgets)


def _recorded_fillings(monkeypatch):
    """(args, result) of every call of ``quilt_enum._filling`` from now on:
    the search makes one per leaf, and the constructive product check one
    per composed filling."""
    seen = []
    make = qe._filling

    def recording(*args):
        seen.append((args, make(*args)))
        return seen[-1][1]

    monkeypatch.setattr(qe, "_filling", recording)
    return seen


def _reference_view(tsub, template, marked):
    """The view of ``tsub`` in ``template`` rebuilt from the definition,
    ``mark_subtemplate`` and ``template_iso``: dart paths, clusters and the
    filling-vertex -> subtemplate-vertex map.  None when the marked faces
    reduce to another subtemplate; raises when they do not reduce."""
    red = qt.mark_subtemplate(template, marked)
    iso = qt.template_iso(red.template, tsub.template)  # reduced -> tsub dart
    if iso is None:
        return None
    tmap = tsub.template.map
    from_tsub = {td: rd for rd, td in iso.items()}
    dart_paths = tuple(red.dart_expansion[from_tsub[d]] for d in range(tmap.n_darts))
    clusters = [None] * tsub.n_holes
    for pos, hole_face in enumerate(red.hole_labels):
        d = red.template.map.face_cycles[hole_face][0]
        clusters[tsub.hole_labels.index(tmap.face_of[iso[d]])] = red.cluster_faces[pos]
    red_to_tsub = {red.template.map.vertex_of[rd]: tmap.vertex_of[td]
                   for rd, td in iso.items()}
    vertices = {fv: red_to_tsub[rv] for rv, fv in vertex_to_parent(red).items()}
    return dart_paths, tuple(clusters), vertices


def _assert_view_matches_reference(tsub, filling):
    dart_paths, clusters, vertices = _reference_view(tsub, filling.template, filling.marked)
    assert filling.dart_paths == dart_paths
    assert filling.clusters == clusters
    assert filling.vertex_to_tsub(tsub) == vertices


def _assert_outcome_matches_reference(tsub, template, marked):
    """``_filling`` raises, returns None or makes a filling exactly as the
    reference does, and the walk fails exactly when no filling is made;
    returns the outcome: the error type, None or "view"."""
    try:
        want = _reference_view(tsub, template, marked)
    except TemplateError as e:
        with pytest.raises(type(e)):
            qe._filling(tsub, template, marked)
        assert qe._view(tsub, template, frozenset(marked)) is None
        return type(e)
    got = qe._filling(tsub, template, marked)
    if want is None:
        assert got is None and qe._view(tsub, template, frozenset(marked)) is None
        return None
    assert (got.dart_paths, got.clusters, got.vertex_to_tsub(tsub)) == want
    return "view"


@pytest.mark.parametrize("name", sorted(FILLING_DIGESTS))
def test_fillings_byte_identical(name):
    _, _, _, count, digest = FILLING_DIGESTS[name]
    tsub, fills = _digest_fixture(name)
    assert len(fills) == count
    assert hashlib.sha256(b"".join(f.key for f in fills)).hexdigest() == digest
    for f in fills:
        _assert_view_matches_reference(tsub, f)


@pytest.mark.parametrize("name", sorted(PROJECTION_DIGESTS))
def test_projection_keys_byte_identical(name):
    tsub, fills = _digest_fixture(name)
    got = tuple(
        hashlib.sha256(b"\n".join(
            qt.template_key(qe.project_filling(tsub, f, i).template) for f in fills
        )).hexdigest()
        for i in range(tsub.n_holes))
    assert got == PROJECTION_DIGESTS[name]


def _classes(keys):
    """Each key replaced by the index of its first occurrence: two key lists
    split their items alike exactly when these lists are equal."""
    first = {}
    return [first.setdefault(k, len(first)) for k in keys]


@pytest.mark.parametrize("name,budgets", [
    (name, b) for name in sorted(FIXTURES)
    for b in ((2, 2), (2, 1), (1, 2), (3, 1), (1, 3), (4, 1), (2, 3), (3, 2))], ids=str)
def test_hole_key_splits_fillings_as_projections_do(name, budgets):
    # the product bijection keys each factor by the hole key; the projection
    # is the definition (the chain-4-1 digest fixture is chain's subtemplate)
    tsub = build_subtemplate(*FIXTURES[name])
    try:
        fills = qe.enumerate_fillings(tsub, budgets)
    except BudgetExhausted:
        assert (name, budgets) in {("two-pass", (1, 2)), ("two-pass", (1, 3))}
        return
    for i in range(tsub.n_holes):
        assert _classes(qe.hole_key(tsub, f, i) for f in fills) == _classes(
            qt.template_key(qe.project_filling(tsub, f, i).template) for f in fills)


def test_hole_key_reads_the_cluster_marks():
    # the fixtures' fillings never differ in marks alone, so rotate the marks
    # of one cluster face: the projection changes, and so must the hole key
    tsub, fills = _digest_fixture("chain")
    f = fills[0]
    for i, cluster in enumerate(f.clusters):
        for g in cluster:
            marks = dict(f.template.marks)
            marks[g] = marks[g][1:] + marks[g][:1]
            rotated = dataclasses.replace(
                f, template=dataclasses.replace(f.template, marks=marks))
            assert qt.template_key(qe.project_filling(tsub, rotated, i).template) != (
                qt.template_key(qe.project_filling(tsub, f, i).template))
            assert qe.hole_key(tsub, rotated, i) != qe.hole_key(tsub, f, i)


def test_leaf_reductions_byte_identical(monkeypatch):
    # the leaves of the search, in the order it closes them, each reduced by
    # the definition
    tsub = build_subtemplate(*FIXTURES["chain"])
    leaves = _recorded_fillings(monkeypatch)
    qe.enumerate_fillings(tsub, (2, 2))
    reductions = [qt.mark_subtemplate(template, marked) for (_, template, marked), _ in leaves]
    reprs = [repr((qt.template_key(r.template), r.hole_labels,
                   tuple(tuple(sorted(c)) for c in r.cluster_faces),
                   sorted(r.dart_expansion.items()))).encode() for r in reductions]
    assert (len(reprs), hashlib.sha256(b"\n".join(reprs)).hexdigest()) == (
        LEAF_REDUCTION_DIGEST)


def test_reduced_map_is_build_map_of_its_arrays():
    # mark_subtemplate builds its map from arrays whose twins are already
    # 2k, 2k+1, skipping build_map's normalization, which is the identity there
    maps = [build_subtemplate(*FIXTURES[name]).template.map for name in sorted(FIXTURES)]
    for name in sorted(FIXTURES):
        tsub = build_subtemplate(*FIXTURES[name])
        maps += [qt.mark_subtemplate(f.template, f.marked).template.map
                 for f in qe.enumerate_fillings(tsub, (2, 2))]
    assert len(maps) > 3
    for m in maps:
        assert pm.build_map(m.next_dart, [d ^ 1 for d in range(m.n_darts)], m.root) == m


# (composed templates, sha256 of their newline-joined texts) of the constructive
# chain, wide and two-pass (2, 2) passes; each text is the template text, its
# repr and its sorted marked faces.  Measured on the compose that keyed darts
# by a dict of (tail, edge label) entries.
COMPOSE_DIGEST = (
    134, "d360c1bb6ed9e835c3ec94a0b5eabf44eb79c364a2d9b127909918cafe912218")


def _recorded_compositions(monkeypatch):
    """((tsub, sources), (template, marked faces)) of every call of
    ``compose_fillings`` in the constructive (2, 2) passes of the chain,
    wide and two-pass fixtures, one per combination of factor
    representatives."""
    seen = []
    compose = qe.compose_fillings

    def recording(tsub, sources):
        seen.append(((tsub, sources), compose(tsub, sources)))
        return seen[-1][1]

    monkeypatch.setattr(qe, "compose_fillings", recording)
    for name in ("chain", "wide", "two-pass"):
        tsub, fills = _digest_fixture(name)
        rep = qe.verify_product_bijection(tsub, (2, 2), fillings=fills)
        assert rep.composed_checked == rep.n_fillings
    return seen


def _composed_text(template, marked):
    return f"{qt.template_to_text(template)}{template!r}\n{sorted(marked)}"


def test_composed_templates_byte_identical(monkeypatch):
    texts = [_composed_text(*c).encode() for _, c in _recorded_compositions(monkeypatch)]
    assert (len(texts), hashlib.sha256(b"\n".join(texts)).hexdigest()) == COMPOSE_DIGEST


def test_composed_filling_view_matches_reduction(chain3_sub, monkeypatch):
    fills = qe.enumerate_fillings(chain3_sub, 2)
    made = _recorded_fillings(monkeypatch)
    rep = qe.verify_product_bijection(chain3_sub, 2, fillings=fills)
    assert len(made) == rep.composed_checked == 50
    for _, f in made:
        _assert_view_matches_reference(chain3_sub, f)


@pytest.mark.parametrize("name,budgets", [
    *((name, b) for name in ("chain", "wide", "two-pass") for b in ((2, 2), (4, 1), (2, 3))),
    ("chain", (1, 5)),
], ids=str)
def test_walk_view_matches_reduction_on_every_leaf(name, budgets, monkeypatch):
    tsub = build_subtemplate(*FIXTURES[name])
    leaves = _recorded_fillings(monkeypatch)
    fills = qe.enumerate_fillings(tsub, budgets)
    assert len(leaves) == len(fills)
    for _, f in leaves:
        _assert_view_matches_reference(tsub, f)


def test_walk_view_matches_reduction_on_every_composed_filling(monkeypatch):
    for name in ("chain", "wide", "two-pass"):
        _digest_fixture(name)  # enumerated first: only composed fillings are recorded
    made = _recorded_fillings(monkeypatch)
    assert len(_recorded_compositions(monkeypatch)) == COMPOSE_DIGEST[0] == len(made)
    for (tsub, _, _), f in made:
        _assert_view_matches_reference(tsub, f)


def test_walk_outcome_matches_reduction_on_other_marked_sets():
    # random face sets of the chain leaves, each against the leaf's own
    # subtemplate and against its own reduction, with every outcome met:
    # no reduction (a disconnected set, a template with holes), another
    # subtemplate, and a view.  The reduction's "not a disk" is never met:
    # each cluster is one face of the plane graph of the kept edges, which
    # is connected once the marked set is.
    tsub, fills = _digest_fixture("chain")
    rnd = random.Random(0)
    outcomes = Counter()
    for f in fills[::5]:
        faces = sorted(f.template.marks)
        for g in faces:  # one face more or less than the leaf's
            outcomes[_assert_outcome_matches_reference(tsub, f.template, f.marked ^ {g})] += 1
        for _ in range(30):
            marked = frozenset(rnd.sample(faces, rnd.randint(1, len(faces))))
            outcomes[_assert_outcome_matches_reference(tsub, f.template, marked)] += 1
            try:
                red = qt.mark_subtemplate(f.template, marked)
            except TemplateError:
                continue
            outcomes["own " + str(_assert_outcome_matches_reference(
                red, f.template, marked))] += 1
    # a template with holes does not reduce either
    outcomes[_assert_outcome_matches_reference(tsub, tsub.template, tsub.template.marks)] += 1
    assert set(outcomes) == {DisconnectedSelection, TemplateError, None, "view", "own view"}


def test_walk_outcome_matches_reduction_across_fixtures():
    # the leaves of each fixture against the other fixtures' subtemplates
    outcomes = Counter()
    for name, other in itertools.permutations(("chain", "wide", "two-pass"), 2):
        tsub = build_subtemplate(*FIXTURES[other])
        for f in _digest_fixture(name)[1]:
            outcomes[_assert_outcome_matches_reference(tsub, f.template, f.marked)] += 1
    assert set(outcomes) == {None}


def test_walk_matches_the_marks():
    # rotating the marks of a marked face keeps the map, and the reduction
    # then has other marks
    tsub, fills = _digest_fixture("chain")
    outcomes = Counter()
    for f in fills[::5]:
        for g in f.marked:
            marks = dict(f.template.marks)
            marks[g] = marks[g][1:] + marks[g][:1]
            template = dataclasses.replace(f.template, marks=marks)
            outcomes[_assert_outcome_matches_reference(tsub, template, f.marked)] += 1
    assert outcomes[None] and outcomes["view"]  # a 1-gon's marks rotate to themselves


def test_walk_keeps_an_unmarked_vertex_between_two_marked_faces():
    # mark_subtemplate keeps a vertex at the corners of two marked faces even
    # when neither marks it: drop the marks at each degree-2 vertex
    met = 0
    for f in _digest_fixture("chain")[1][::5]:
        m = f.template.map
        for v, cyc in enumerate(m.vertex_cycles):
            marks = {g: tuple(u for u in mk if u != v) or mk
                     for g, mk in f.template.marks.items()}
            if len(cyc) != 2 or any(v in mk for mk in marks.values()):
                continue
            template = qt.Template(map=m, marks=marks)
            red = qt.mark_subtemplate(template, set(marks))
            assert _assert_outcome_matches_reference(red, template, set(marks)) == "view"
            met += 1
    assert met


def _rerooted(m, root):
    return pm.build_map(m.next_dart, [d ^ 1 for d in range(m.n_darts)], root)


def _polygon_template(k, marks, root=0):
    return qt.Template(map=_rerooted(polygon_map(k), root), marks=marks)


def test_walk_matches_marked_faces_to_marked_faces():
    # a triangle with one face marked reduces to a 2-cycle and a hole; with
    # the other face marked, to the same rooted map with the roles swapped
    outcomes = Counter()
    marks = {0: (0, 1), 1: (1, 0)}
    for root, other in itertools.product(range(6), repeat=2):
        template = _polygon_template(3, marks, root)
        tsub = qt.mark_subtemplate(_polygon_template(3, marks, other), [1])
        outcomes[_assert_outcome_matches_reference(tsub, template, [0])] += 1
        outcomes[_assert_outcome_matches_reference(tsub, template, [1])] += 1
    assert outcomes[None] and outcomes["view"]


def test_walk_rejects_a_subtemplate_that_wraps_twice():
    # the 6-cycle maps onto the 3-cycle commuting with next and twin, each
    # face wrapping twice; no isomorphism reaches a dart twice
    template = _polygon_template(3, {0: (0,), 1: (0,)})
    outcomes = Counter()
    for u, w in itertools.product(range(6), repeat=2):
        tsub = qt.mark_subtemplate(_polygon_template(6, {0: (u,), 1: (w,)}), [0, 1])
        outcomes[_assert_outcome_matches_reference(tsub, template, [0, 1])] += 1
    assert set(outcomes) == {None}


def test_walk_roots_at_the_smallest_surviving_dart():
    # mark_subtemplate roots its reduction at the template's root only when
    # that dart survives, else at the smallest surviving dart; the walk
    # starts where it does.  Each leaf is re-rooted at every dart, so the
    # root is dropped (no marked face on its edge) or smoothed away.
    rnd = random.Random(1)
    rootless = Counter()
    for f in _digest_fixture("wide")[1][::7]:
        m = f.template.map
        faces = sorted(f.template.marks)
        marked = frozenset(rnd.sample(faces, len(faces) // 2))
        for root in range(m.n_darts):
            template = dataclasses.replace(f.template, map=_rerooted(m, root))
            try:
                red = qt.mark_subtemplate(template, marked)
            except TemplateError:
                break
            start = red.dart_expansion[red.template.map.root][0]
            if start != root:
                assert start == min(path[0] for path in red.dart_expansion.values())
                kept = m.face_of[root] in marked or m.face_of[root ^ 1] in marked
                rootless["smoothed" if kept else "dropped"] += 1
            assert _assert_outcome_matches_reference(red, template, marked) == "view"
            _assert_outcome_matches_reference(red, f.template, marked)
    assert rootless["dropped"] and rootless["smoothed"]


def test_search_counters_account_for_every_leaf(chain3_sub):
    rep = qe.verify_product_bijection(chain3_sub, (2, 2), constructive=False)
    search = rep.search
    assert set(search["rejects"]) == set(qe.REJECT_REASONS)
    assert search["leaves"] == rep.n_fillings + sum(search["rejects"].values())
    assert search["nodes"] > 0 and search["closing_cuts"] > 0 and search["budget_cuts"] > 0
    assert search["leaves"] == rep.n_fillings
    again = qe.verify_product_bijection(chain3_sub, (2, 2), constructive=False)
    assert again.search == search
    counters = {}
    fills = qe.enumerate_fillings(chain3_sub, (2, 2), counters=counters)
    assert counters == search
    given = qe.verify_product_bijection(
        chain3_sub, (2, 2), constructive=False, fillings=fills)
    assert given.search is None


def _keys_and_counters(tsub, budgets):
    counters = {}
    try:
        keys = [f.key for f in qe.enumerate_fillings(tsub, budgets, counters=counters)]
    except BudgetExhausted:
        keys = []
    return keys, counters


ORACLE_BUDGETS = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (2, 3)]


def _assert_matches_oracle(tsub, budgets, monkeypatch, keep_terminal_close):
    """Compare the search with its oracle, in which every cluster check,
    hole label and closing look-ahead accepts.  With ``keep_terminal_close``
    a child that can place no further face is still closed only if its arcs
    already match the 2-gon (the look-ahead with no budget left): without
    it every such child is built as a leaf, which costs minutes on the
    larger budgets."""
    keys, pruned = _keys_and_counters(tsub, budgets)
    monkeypatch.setattr(qe._Search, "fits", lambda self, clusters: True)
    monkeypatch.setattr(qe, "_grow_clusters", lambda search, builder, left, right, clusters: [
        ((t, s), clusters) for t in range(1, len(left) + 1) for s in range(1, len(right) + 1)])
    monkeypatch.setattr(qe, "_hole_labels_fit", lambda search, left, right, clusters: True)
    lookahead = qe._closing_lookahead

    def terminal_close(search, tag, children, left_raw, right_raw, budget_left):
        if budget_left or not keep_terminal_close:
            return children
        return lookahead(search, tag, children, left_raw, right_raw, False)

    monkeypatch.setattr(qe, "_closing_lookahead", terminal_close)
    oracle_keys, unpruned = _keys_and_counters(tsub, budgets)
    assert keys == oracle_keys
    # every leaf of the pruned search is a filling
    assert pruned["leaves"] == len(keys) and pruned["rejects"]["over_budget"] == 0
    assert unpruned["leaves"] == len(oracle_keys) + sum(unpruned["rejects"].values())
    assert pruned["budget_cuts"] > 0 and pruned["closing_cuts"] > 0
    assert unpruned["budget_cuts"] == unpruned["hole_cuts"] == 0
    assert pruned["nodes"] <= unpruned["nodes"]
    return pruned, unpruned


@pytest.mark.parametrize("name,budgets", [
    *((name, b) for name in ("chain", "wide", "two-pass") for b in ORACLE_BUDGETS),
    ("chain", (4, 1)),
], ids=str)
def test_cluster_prune_matches_unpruned_search(name, budgets, monkeypatch):
    tsub = build_subtemplate(*FIXTURES[name])
    _assert_matches_oracle(tsub, budgets, monkeypatch, keep_terminal_close=True)


@pytest.mark.parametrize("name,budgets", [
    (name, b) for name in ("chain", "wide", "two-pass") for b in ((2, 1), (1, 2))], ids=str)
def test_closing_lookahead_matches_unchecked_search(name, budgets, monkeypatch):
    # the whole look-ahead off: every child that can place no further face
    # is built, reduced and matched
    tsub = build_subtemplate(*FIXTURES[name])
    _, unpruned = _assert_matches_oracle(tsub, budgets, monkeypatch, keep_terminal_close=False)
    assert unpruned["closing_cuts"] == 0 and unpruned["rejects"]["key_mismatch"] > 0


def test_swapped_hole_labels_change_the_fillings(monkeypatch):
    # a planted unsound label: the 2-gon's single-hole runs name the other hole
    tsub = build_subtemplate(*FIXTURES["chain"])
    keys, _ = _keys_and_counters(tsub, (1, 3))
    side = qe._tsub_side

    def swapped(tsub, face, side_idx):
        profile, holes = side(tsub, face, side_idx)
        return profile, tuple(None if h is None else 1 - h for h in holes)

    monkeypatch.setattr(qe, "_tsub_side", swapped)
    planted, counters = _keys_and_counters(tsub, (1, 3))
    assert planted != keys and counters["hole_cuts"] > 0


def test_enumeration_result_freed_without_gc(chain3_sub):
    gc.disable()
    try:
        fills = qe.enumerate_fillings(chain3_sub, (2, 2))
        first = weakref.ref(fills[0])
        del fills
        assert first() is None
    finally:
        gc.enable()


def test_single_hole_trivially_bijective(chain3):
    order = chain3.face_order
    sub = qt.mark_subtemplate(chain3, [f for f in order if f != order[2]])
    rep = qe.verify_product_bijection(sub, 2, constructive=True)
    assert rep.factor_sizes == (rep.n_fillings,)


def test_compose_round_trip(chain3_sub):
    fills = qe.enumerate_fillings(chain3_sub, 2)
    for f in fills[:6]:
        template, marked = qe.compose_fillings(chain3_sub, [f, f])
        assert qt.template_key(template, marked=frozenset(marked)) == qt.template_key(
            f.template, marked=f.marked
        )


def test_cross_compose_valid(chain3_sub):
    fills = qe.enumerate_fillings(chain3_sub, 2)
    rnd = random.Random(0)
    for _ in range(10):
        fa, fb = rnd.sample(fills, 2)
        template, marked = qe.compose_fillings(chain3_sub, [fa, fb])
        assert qt.validate_template(template).passed
        red = qt.mark_subtemplate(template, marked)
        assert qt.template_key(red.template) == qt.template_key(chain3_sub.template)


def test_direct_single_hole_enumeration_matches_projection(chain3_sub):
    # fix a reference filling; filling hole 0 directly inside the reference
    # surroundings enumerates exactly the hole-0 projections
    budgets = (2, 2)
    fills = qe.enumerate_fillings(chain3_sub, budgets)
    ref = fills[0]
    proj_keys = {
        qt.template_key(qe.project_filling(chain3_sub, f, 0).template)
        for f in fills
    }
    # direct: keep the reference's hole-1 cluster as marked faces
    t_sub_one = qt.mark_subtemplate(
        ref.template, set(ref.marked) | set(ref.clusters[1])
    )
    direct = qe.enumerate_fillings(t_sub_one, (budgets[0],))
    ref_red = qt.mark_subtemplate(ref.template, ref.marked | set(ref.clusters[1]))
    ref_iso = qt.template_iso(t_sub_one.template, ref_red.template)
    direct_keys = set()
    for g in direct:
        red = qt.mark_subtemplate(g.template, g.marked)
        iso = qt.template_iso(red.template, t_sub_one.template)
        assert iso is not None
        # re-holify the reference clusters to get the projection object
        proj = qt.mark_subtemplate(
            g.template,
            _tsub_faces_in(g, t_sub_one, ref, ref_red, ref_iso) | set(g.clusters[0]),
        )
        direct_keys.add(qt.template_key(proj.template))
    assert direct_keys == proj_keys


def _tsub_faces_in(g, t_sub_one, ref, ref_red, ref_iso):
    """Faces of g's template that correspond to the original subtemplate
    faces (not the reference filling's frozen cluster); ``ref_red`` is the
    reference reduced onto ``t_sub_one`` and ``ref_iso`` its dart map."""
    red = qt.mark_subtemplate(g.template, g.marked)
    iso = qt.template_iso(t_sub_one.template, red.template)
    out = set()
    for d in range(t_sub_one.template.map.n_darts):
        # a face of t_sub_one is original iff its counterpart in the
        # reference is one of the reference's own marked faces
        ref_face = ref.template.map.face_of[ref_red.dart_expansion[ref_iso[d]][0]]
        if ref_face in ref.marked:
            g_face = g.template.map.face_of[red.dart_expansion[iso[d]][0]]
            out.add(g_face)
    return out


# --- winding labels and arcs -------------------------------------------------------


def test_winding_same_filling_exact(wide_sub):
    fills = qe.enumerate_fillings(wide_sub, 2)
    rep = qw.winding_labels(wide_sub, fills[0], fills[0])
    assert rep.max_difference == 0.0


def test_winding_filling_independence(wide_sub):
    fills = qe.enumerate_fillings(wide_sub, 2)
    geom = qw.embed_subtemplate(wide_sub)
    rnd = random.Random(4)
    pairs = list(itertools.combinations(range(len(fills)), 2))
    for i, j in rnd.sample(pairs, 40):
        rep = qw.winding_labels(wide_sub, fills[i], fills[j], geom=geom)
        assert rep.max_difference < 1e-6


def test_deep_fixture_labels_agree_or_degenerate(chain3_sub):
    # deep chains produce sliver drawings; fillings either compare cleanly
    # or are rejected with an explicit embedding error, never silently wrong
    fills = qe.enumerate_fillings(chain3_sub, 2)
    geom = qw.embed_subtemplate(chain3_sub)
    rnd = random.Random(0)
    degenerate = 0
    for i, j in rnd.sample(list(itertools.combinations(range(len(fills)), 2)), 30):
        try:
            rep = qw.winding_labels(chain3_sub, fills[i], fills[j], geom=geom)
        except EmbeddingDegenerate:
            degenerate += 1
            continue
        assert rep.max_difference < 1e-6
    assert degenerate < 30


def test_winding_labels_equal_across_separately_built_geometries(wide_sub):
    # the labels are kept per geometry, so two geometries compute them twice
    fill = qe.enumerate_fillings(wide_sub, 2)[0]
    values = [repr(sorted(qw.winding_label_values(qw.embed_subtemplate(wide_sub), fill).items()))
              for _ in range(2)]
    assert values[0] == values[1]


# --- winding labels kept on the filling --------------------------------------------


def _criterion6_pass(name):
    """Criterion 6's pass over one fixture: its budget-2 fillings, the
    geometry, and the sampled pairs after labelling each pair once."""
    tsub = build_subtemplate(*FIXTURES[name])
    fills = qe.enumerate_fillings(tsub, 2)
    geom = qw.embed_subtemplate(tsub)
    pairs = random.Random(MASTER_SEED).sample(
        list(itertools.combinations(range(len(fills)), 2)), 60)
    for i, j in pairs:
        qw.winding_labels(tsub, fills[i], fills[j], geom=geom)
    return tsub, fills, geom, pairs


def _hex_labels(labels):
    return {v: float(x).hex() for v, x in labels.items()}


@pytest.mark.parametrize("name", ["wide", "two-pass"])
def test_winding_labels_after_a_pass_equal_a_fresh_geometry(name):
    tsub, fills, geom, _ = _criterion6_pass(name)
    fresh = qw.embed_subtemplate(tsub)
    for f in fills:
        assert (_hex_labels(qw.winding_label_values(geom, f))
                == _hex_labels(qw.winding_label_values(fresh, f)))


@pytest.mark.parametrize("name", ["wide", "two-pass"])
def test_winding_pass_draws_each_filling_once(name, monkeypatch):
    drawn = []
    filling_curve = qw.filling_curve

    def record(geom, filling, to_tsub):
        drawn.append(filling)
        return filling_curve(geom, filling, to_tsub)

    monkeypatch.setattr(qw, "filling_curve", record)
    _, fills, _, pairs = _criterion6_pass(name)
    assert len(drawn) == len({id(f) for f in drawn})
    assert len(drawn) == len({i for pair in pairs for i in pair})


def test_winding_label_values_returns_a_fresh_dict(wide_sub):
    fill = qe.enumerate_fillings(wide_sub, 2)[0]
    geom = qw.embed_subtemplate(wide_sub)
    labels = qw.winding_label_values(geom, fill)
    expected = dict(labels)
    labels.clear()
    assert qw.winding_label_values(geom, fill) == expected


def test_winding_labels_kept_per_geometry_object(wide_sub):
    fill = qe.enumerate_fillings(wide_sub, 2)[0]
    geom = qw.embed_subtemplate(wide_sub)
    c, s = math.cos(0.3), math.sin(0.3)
    rotated = dataclasses.replace(geom, depart_dir={
        f: np.array([c * x - s * y, s * x + c * y]) for f, (x, y) in geom.depart_dir.items()})
    first = qw.winding_label_values(geom, fill)
    assert qw.winding_label_values(rotated, fill) != first
    assert qw.winding_label_values(geom, fill) == first


def test_winding_labels_hold_neither_filling_nor_geometry(wide_sub):
    gc.disable()
    try:
        fills = qe.enumerate_fillings(wide_sub, 2)
        geom = qw.embed_subtemplate(wide_sub)
        qw.winding_labels(wide_sub, fills[0], fills[1], geom=geom)
        kept, drawn = weakref.ref(geom), weakref.ref(fills[0])
        del geom
        assert kept() is None
        del fills
        assert drawn() is None
    finally:
        gc.enable()


# sha256 of repr((labels, frozen)): the sorted winding_label_values of every
# budget-2 filling, then each face's frozen curve, all as Python floats;
# measured on the embedding that built every face clearance and harmonic
# system one face, dart and node at a time
WINDING_DIGESTS = {
    "wide": "74e93e4d05c472b5f84f0ecaa498672d244d907631d9df21f38da10eb7e05975",
    "two-pass": "c9a64420f9c37e4224fc38b7ee242d70bc6e10e1d45e998008a567cb0ef97b04",
}


@pytest.mark.parametrize("name", sorted(WINDING_DIGESTS))
def test_winding_labels_byte_identical(name):
    tsub = build_subtemplate(*FIXTURES[name])
    geom = qw.embed_subtemplate(tsub)
    labels = [sorted(qw.winding_label_values(geom, f).items())
              for f in qe.enumerate_fillings(tsub, 2)]
    frozen = sorted((face, [tuple(float(x) for x in p) for p in pts])
                    for face, pts in geom.frozen_curves.items())
    text = repr((labels, frozen))
    assert hashlib.sha256(text.encode()).hexdigest() == WINDING_DIGESTS[name]


def _seg_seg_distance(p1, p2, q1, q2):
    """Scalar oracle: Euclidean distance between two closed segments."""

    def point_seg(p, a, b):
        ab = b - a
        denom = float(ab @ ab)
        t = 0.0 if denom == 0 else float((p - a) @ ab) / denom
        t = min(max(t, 0.0), 1.0)
        return float(np.linalg.norm(p - (a + t * ab)))

    d1 = (p2 - p1, q1 - p1, q2 - p1)
    cross1 = d1[0][0] * d1[1][1] - d1[0][1] * d1[1][0]
    cross2 = d1[0][0] * d1[2][1] - d1[0][1] * d1[2][0]
    d2 = (q2 - q1, p1 - q1, p2 - q1)
    cross3 = d2[0][0] * d2[1][1] - d2[0][1] * d2[1][0]
    cross4 = d2[0][0] * d2[2][1] - d2[0][1] * d2[2][0]
    if ((cross1 > 0) != (cross2 > 0)) and ((cross3 > 0) != (cross4 > 0)):
        return 0.0
    return min(
        point_seg(q1, p1, p2), point_seg(q2, p1, p2),
        point_seg(p1, q1, q2), point_seg(p2, q1, q2),
    )


def _feature_size_oracle(pts):
    """Shortest boundary segment or closest non-adjacent pair, pair by pair."""
    k = len(pts)
    segs = [(pts[i], pts[(i + 1) % k]) for i in range(k)]
    feat = min(np.linalg.norm(b - a) for a, b in segs)
    for i in range(k):
        for j in range(i + 2, k):
            if i == 0 and j == k - 1:
                continue
            feat = min(feat, _seg_seg_distance(*segs[i], *segs[j]))
    return feat


class _Polygon(qw.GeomEmbedding):
    """A bare polygon posing as one face of an embedding."""

    def boundary_points(self, face):
        return self.pos["polygon"]


def test_seg_seg_distances_match_scalar_oracle():
    rng = np.random.default_rng(5)
    p1, p2, q1, q2 = rng.normal(size=(4, 500, 2))
    q2[:50] = q1[:50]  # zero-length segments
    p2[50:100] = p1[50:100] + 1e-3 * (q2[50:100] - q1[50:100])  # near-parallel
    got = qw._seg_seg_distances(p1, p2, q1, q2)
    want = [_seg_seg_distance(*x) for x in zip(p1, p2, q1, q2)]
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)
    assert (got == 0.0).sum() == sum(w == 0.0 for w in want) > 0


def test_face_feature_size_matches_scalar_oracle(wide_sub, two_pass_sub):
    embeddings = [qw.embed_subtemplate(wide_sub).emb,
                  qw.embed_subtemplate(two_pass_sub).emb]
    fills = qe.enumerate_fillings(two_pass_sub, 2)
    geom = qw.embed_subtemplate(two_pass_sub)
    embeddings.append(qw._filling_embedding(geom, fills[-1]))
    checked = 0
    for emb in embeddings:
        for face in range(emb.template.map.n_faces):
            want = _feature_size_oracle(emb.boundary_points(face))
            assert emb.face_feature_size(face) == pytest.approx(want, rel=1e-12, abs=0.0)
            checked += 1
    rnd = random.Random(7)
    for _ in range(200):
        loop = cv.star_polygon(rnd.randrange(3, 40), rnd, ccw=rnd.random() < 0.5)
        pts = [np.array(p) for p in loop.vertices]
        emb = _Polygon(template=None, pos={"polygon": pts})
        assert emb.face_feature_size(0) == pytest.approx(
            _feature_size_oracle(pts), rel=1e-12, abs=0.0)
        checked += 1
    assert checked > 200


def _fixture_embeddings():
    """The subtemplate embedding of the wide and two-pass fixtures, then the
    embedding of each of their budget-2 fillings."""
    for name in ("wide", "two-pass"):
        tsub = build_subtemplate(*FIXTURES[name])
        geom = qw.embed_subtemplate(tsub)
        yield geom.emb
        for f in qe.enumerate_fillings(tsub, 2):
            yield qw._filling_embedding(geom, f)


def test_feature_sizes_batch_equals_per_face():
    rnd = random.Random(3)
    sizes = set()
    for emb in _fixture_embeddings():
        faces = list(range(emb.template.map.n_faces))
        rnd.shuffle(faces)
        want = [emb.face_feature_size(f) for f in faces]
        assert emb.feature_sizes(faces).tolist() == want
        sizes.update(len(emb.boundary_points(f)) for f in faces)
    assert len(sizes) >= 3  # the batches mix boundaries of several sizes


def _geometric_embed_oracle(t, pinned):
    """The harmonic solve assembled densely, node key by node key."""
    m = t.map
    outer = qw._outer_face(t)
    nodes = []
    nodes += [("v", v) for v in range(m.n_vertices)]
    nodes += [("m", e) for e in range(m.n_edges)]
    nodes += [("f", f) for f in range(m.n_faces) if f != outer]

    adj = {key: [] for key in nodes}
    for e in range(m.n_edges):
        u, w = edge_vertices(m, e)
        adj[("m", e)] += [("v", u), ("v", w)]
        adj[("v", u)].append(("m", e))
        adj[("v", w)].append(("m", e))
        for f in edge_faces(m, e):
            if f != outer:
                adj[("m", e)].append(("f", f))
                adj[("f", f)].append(("m", e))
    for f in range(m.n_faces):
        if f == outer:
            continue
        for d in m.face_cycles[f]:
            v = m.vertex_of[d]
            adj[("f", f)].append(("v", v))
            adj[("v", v)].append(("f", f))

    free = [key for key in nodes if key not in pinned]
    pos = {k: np.asarray(p, dtype=float) for k, p in pinned.items()}
    index = {k: i for i, k in enumerate(free)}
    a = np.zeros((len(free), len(free)))
    rhs = np.zeros((len(free), 2))
    for k in free:
        i = index[k]
        for nb in adj[k]:
            a[i, i] += 1.0
            if nb in index:
                a[i, index[nb]] -= 1.0
            else:
                rhs[i] += pos[nb]
    sol = np.linalg.solve(a, rhs)
    for k in free:
        pos[k] = sol[index[k]]
    return pos


def test_geometric_embed_matches_dense_assembly(monkeypatch):
    calls = []
    solve = qw._geometric_embed

    def recording(t, pinned):
        calls.append((t, dict(pinned)))
        return solve(t, pinned)

    monkeypatch.setattr(qw, "_geometric_embed", recording)
    for _ in _fixture_embeddings():
        pass
    assert len(calls) == 2 + 70 + 14
    for t, pinned in calls:
        got = solve(t, pinned)
        want = _geometric_embed_oracle(t, pinned)
        assert list(got) == list(want)
        for key, p in want.items():
            assert got[key].tobytes() == p.tobytes(), key


def test_coincident_pinned_nodes_raise(chain3):
    pos = qw.embed_template(chain3).pos
    pinned = {k: p for k, p in pos.items() if k[0] != "f"}
    pinned[("v", 1)] = pinned[("v", 0)].copy()
    with pytest.raises(EmbeddingDegenerate,
                       match=r"nodes \('v', 0\) and \('v', 1\) coincide"):
        qw._geometric_embed(chain3, pinned)
    # a separation just above the threshold is not a coincidence
    pinned[("v", 1)] = pinned[("v", 0)] + np.array([2e-9, 0.0])
    qw._geometric_embed(chain3, pinned)


@pytest.fixture(scope="module")
def two_pass_sub():
    return build_subtemplate(
        [(1, 1), (1, 1), (1, 1), (1, 2), (1, 3)], unmarked_positions=(2, 4, 6)
    )


def test_two_pass_fixture_labels(two_pass_sub):
    fills = qe.enumerate_fillings(two_pass_sub, 2)
    geom = qw.embed_subtemplate(two_pass_sub)
    worst = 0.0
    for other in fills[1:]:
        rep = qw.winding_labels(two_pass_sub, fills[0], other, geom=geom)
        worst = max(worst, rep.max_difference)
    assert worst < 1e-6


def test_hamiltonian_from_fillings(two_pass_sub):
    fills = qe.enumerate_fillings(two_pass_sub, 2)
    for f in fills:
        choices = {
            j: qw.arcs_from_filling(two_pass_sub, f, j)
            for j in range(two_pass_sub.n_holes)
        }
        assert qw.hamiltonian_closure(two_pass_sub, choices)


def test_admissible_product_all_hamiltonian(two_pass_sub):
    fills = qe.enumerate_fillings(two_pass_sub, 2)
    geom = qw.embed_subtemplate(two_pass_sub)
    g = qw.subtemplate_curve_graph(two_pass_sub)
    theta = qw.winding_label_values(geom, fills[0])
    theta[g.start] = 0.0
    sets = [
        qw.admissible_arc_sets(two_pass_sub, geom, theta, j)
        for j in range(two_pass_sub.n_holes)
    ]
    assert all(len(s) >= 1 for s in sets)
    for combo in itertools.product(*sets):
        assert qw.hamiltonian_closure(
            two_pass_sub, {j: arcs for j, arcs in enumerate(combo)}
        )
    # filling-derived arcs are admissible
    for f in fills:
        for j in range(two_pass_sub.n_holes):
            arcs = tuple(sorted(qw.arcs_from_filling(two_pass_sub, f, j)))
            assert any(tuple(sorted(a)) == arcs for a in sets[j])


def test_incompatible_arcs_break_the_cycle(two_pass_sub):
    fills = qe.enumerate_fillings(two_pass_sub, 2)
    geom = qw.embed_subtemplate(two_pass_sub)
    g = qw.subtemplate_curve_graph(two_pass_sub)
    theta = qw.winding_label_values(geom, fills[0])
    theta[g.start] = 0.0
    big = max(g.vertices_by_hole, key=lambda j: len(g.vertices_by_hole[j]))
    arcs = qw.arcs_from_filling(two_pass_sub, fills[0], big)
    assert len(arcs) == 2
    swapped = ((arcs[0][0], arcs[1][1]), (arcs[1][0], arcs[0][1]))
    choices = {
        j: qw.arcs_from_filling(two_pass_sub, fills[0], j)
        for j in range(two_pass_sub.n_holes)
    }
    choices[big] = swapped
    assert not qw.hamiltonian_closure(two_pass_sub, choices)
    admissible = [
        tuple(sorted(a))
        for a in qw.admissible_arc_sets(two_pass_sub, geom, theta, big)
    ]
    assert tuple(sorted(swapped)) not in admissible


def test_winding_reads_the_stored_view(two_pass_sub, monkeypatch):
    fills = qe.enumerate_fillings(two_pass_sub, 2)

    def refuse(*args, **kwargs):
        raise AssertionError("a filling was reduced again")

    for module in (qt, qe, qw):
        for name in ("mark_subtemplate", "template_iso"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    assert qw.winding_labels(two_pass_sub, fills[0], fills[-1]).agree
    for f in fills:
        for j in range(two_pass_sub.n_holes):
            assert qw.arcs_from_filling(two_pass_sub, f, j)


def test_invalid_choice_degree(two_pass_sub):
    g = qw.subtemplate_curve_graph(two_pass_sub)
    v = next(iter(g.boundary_vertices))
    with pytest.raises(InvalidChoice):
        qw.hamiltonian_closure(two_pass_sub, {0: ((v, v),) * 2})


def test_n21_regression_fixture():
    # figure-scale template: one 1-gon, one 3-gon, 21 4-gons, one 2-gon
    import pathlib

    path = pathlib.Path(__file__).parent / "data" / "template_n21.map"
    t = qt.template_from_text(path.read_text())
    report = qt.validate_template(t)
    assert report.passed and report.n == 21
    gons = sorted(t.k_gon(f) for f in t.marks)
    assert gons == [1, 2, 3] + [4] * 21
    det = qt.side_length_map_determinant(t)
    assert abs(det.det) == 1 and det.left_tree_size == 43
    assert det.bijection_ok and det.triangular_ok
    assert (t.map.n_vertices, t.map.n_edges, t.map.n_faces) == (66, 88, 24)


# --- serialization ------------------------------------------------------------------


def test_template_text_round_trip(chain3):
    text = qt.template_to_text(chain3)
    again = qt.template_from_text(text)
    assert qt.template_to_text(again) == text
    assert qt.template_key(again) == qt.template_key(chain3)


def test_template_text_with_relabelled_darts(chain3):
    # the same template written with its darts permuted, so that twins are
    # no longer paired 2k/2k+1: ROOT names the root in the file's labels
    m = chain3.map
    perm = list(range(m.n_darts))
    random.Random(5).shuffle(perm)
    nxt, twn = [0] * m.n_darts, [0] * m.n_darts
    for d in range(m.n_darts):
        nxt[perm[d]] = perm[m.next_dart[d]]
        twn[perm[d]] = perm[d ^ 1]
    assert any(twn[2 * k] != 2 * k + 1 for k in range(m.n_edges))
    # ids of the map the file describes, matched to chain3's by the rooted
    # canonical labelings
    built = pm.build_map(nxt, twn, perm[m.root])
    dart_at = {lab: d for d, lab in enumerate(pm.canonical_labeling(built))}
    image = [dart_at[lab] for lab in pm.canonical_labeling(m)]
    vert = {m.vertex_of[d]: built.vertex_of[image[d]] for d in range(m.n_darts)}
    face = {m.face_of[d]: built.face_of[image[d]] for d in range(m.n_darts)}
    lines = [f"E={m.n_edges}", *(f"{a} {b}" for a, b in zip(nxt, twn)),
             f"ROOT {perm[m.root]}",
             "ORDER " + " ".join(str(face[f]) for f in chain3.face_order),
             *(f"MARKS {face[f]} " + " ".join(str(vert[v]) for v in mk)
               for f, mk in chain3.marks.items())]
    again = qt.template_from_text("\n".join(lines) + "\n")
    assert again.map == built
    assert qt.template_key(again) == qt.template_key(chain3)
    assert qt.validate_template(again).passed


def test_subtemplate_text_round_trip(chain3_sub):
    text = qt.template_to_text(chain3_sub.template)
    again = qt.template_from_text(text)
    assert qt.template_key(again) == qt.template_key(chain3_sub.template)
