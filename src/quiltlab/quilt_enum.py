"""Enumeration of hole fillings and the product bijection check.

Given a marked subtemplate, a filling is an ordered hole-free template
containing it as marked subtemplate; the unmarked faces form one cluster
per hole, all 4-gons.  Fillings are enumerated by replaying the iterative
construction: every ordered template arises from a unique sequence of
(left split, right split) choices plus a marked/unmarked tag per 4-gon, so
a depth-first search over (t, s, tag) sequences with a final rooted match
against the subtemplate is exhaustive.  Budgets are per hole.

Pruning keeps the search at desk scale: tag counts, per-step side-profile
matching (the near sides of a marked 4-gon must collapse to the side
profile of an unused subtemplate 4-gon), a closing look-ahead, a
cluster-size check and hole labels at the close.  Once every marked 4-gon
is placed, every further face is unmarked, and placing one at (t, s) maps a
frontier arc's tags X to ["H"] + X[t-1:]; so a child is kept only if its
arcs collapse to the 2-gon's sides now, or can as ["H"] + X[m:] while
unmarked budget is left.  The search keeps the edge-connected clusters of
unmarked faces exactly: an unmarked 4-gon placed at split (t, s) shares
edges with just the faces behind the frontier edges it covers, so it joins
their clusters, and clusters only grow or merge.  A cluster larger than
every budget cuts its branch, and at a close, where the clusters are final,
there must be one per hole, the k-th largest within the k-th largest
budget.  At a close the frontier's collapsed runs also line up one-to-one
with the runs of the 2-gon's sides, and the rooted isomorphism of the leaf
maps the 2-gon to the 2-gon, side j to side j and marked tags to
themselves; so where a run of a 2-gon side borders a single hole, that
hole is the one every cluster behind the matching frontier run fills.  A
close is cut when a cluster is named by two holes, a hole by two clusters,
or a named cluster exceeds its own hole's budget.  Runs that border
several holes, and the near sides of marked 4-gons, name no hole, so the
exact per-hole test stays at the leaf.  All prunes are sound: they never
reject a sequence that could reduce to the target subtemplate within the
budgets.

Each search node reads the tags behind its two frontier arcs once and
builds their collapsed prefix profiles in one pass per arc (a left profile
is a reversed prefix, and collapsing commutes with reversal); a left
prefix is tested against the unused 4-gon profiles before it is paired
with any right prefix, and no prefix profile is built once every marked
4-gon is placed.  The look-ahead reads each arc's collapsed suffixes in one pass on
the parent's tags, and a child that can place no further face is only ever
closed, so its clusters and hole labels are checked on the parent's arcs,
before any clone or ``add_face``.  The search counts its nodes, the
children that the look-ahead cuts, the branches and closes that the
cluster check cuts, the closes that the hole labels cut, its leaves and the
reject reason of every leaf that is not a filling (``counters``).

A closed leaf, and a composed filling, is matched to the subtemplate once,
by ``_filling``, the one constructor of a ``Filling``: one rooted walk from
the subtemplate's root into the template (``_view``) follows each
subtemplate dart along the kept edges, through the vertices that
``mark_subtemplate`` would smooth away, and floods each hole's cluster.  It
builds no reduced map and labels nothing; ``mark_subtemplate``, the
definition, runs only to name a leaf that the walk rejects.  The filling
keeps the dart paths of the subtemplate's darts and its clusters in hole
order, and the composition, the product bijection check and
``quilt_winding`` read that view instead of reducing the filling again.

A filling's hole-i factor is its projection (``project_filling``: the
filling reduced onto the marked faces plus cluster i), which is the
definition.  The product bijection check keys the factor by ``hole_key``, a
rooted code of cluster i read off the view, which tells the projections
apart without building them; so a filling costs one walk, and no
projection is built or labelled.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, field

from . import planar_map as pm
from ._builder import EXT, Builder
from .errors import BijectionViolation, BudgetExhausted, TemplateError
from .quilt import (
    MarkedSubtemplate,
    Template,
    mark_subtemplate,
    template_key,
    validate_template,
    with_face_order,
)


@dataclass(frozen=True)
class Filling:
    """An element of the filling set: ordered template plus its marking.

    The filling is matched to its subtemplate once, when it is made
    (``_filling``, by one rooted walk), and every consumer reads that view,
    which equals the one that ``mark_subtemplate`` would give:
    ``dart_paths[d]`` is the tuple of filling darts that subtemplate dart d
    expands to, and ``clusters[i]`` is the face set filling hole i
    (position in the subtemplate's hole label order); ``added[i]`` its size.
    """

    template: Template
    marked: frozenset
    clusters: tuple
    key: bytes
    dart_paths: tuple = field(compare=False, repr=False)

    @property
    def added(self):
        return tuple(len(c) for c in self.clusters)

    def vertex_to_tsub(self, tsub: MarkedSubtemplate):
        """Filling vertex -> subtemplate vertex, for the subtemplate's vertices."""
        vertex_of = self.template.map.vertex_of
        return {vertex_of[path[0]]: v
                for path, v in zip(self.dart_paths, tsub.template.map.vertex_of)}


def _filling(tsub: MarkedSubtemplate, template: Template, marked):
    """The Filling of ``tsub`` made of ``template`` and its ``marked`` faces,
    with its view of ``tsub`` read off one rooted walk (``_view``).

    Returns None when the marked faces reduce to another subtemplate and
    raises TemplateError when they do not reduce at all: a failed walk is
    named by ``mark_subtemplate``, the definition, and never made a filling.
    """
    marked = frozenset(marked)
    view = _view(tsub, template, marked)
    if view is None:
        mark_subtemplate(template, marked)  # raises when the faces do not reduce
        return None
    dart_paths, clusters = view
    return Filling(
        template=template,
        marked=marked,
        clusters=clusters,
        key=template_key(template, marked=marked),
        dart_paths=dart_paths,
    )


def _view(tsub: MarkedSubtemplate, template: Template, marked: frozenset):
    """(dart paths, clusters) of ``tsub`` in ``template`` with its ``marked``
    faces; None unless ``mark_subtemplate(template, marked)`` is rooted-
    isomorphic to ``tsub``, holes and marks included.

    The reduction keeps the edges on a marked face.  It smooths away each
    vertex with two kept edges that is neither a marked vertex of a marked
    face nor a corner of two marked faces.  So a reduced dart is a kept
    dart at a surviving vertex, followed on through smoothed ones; its next
    is the next kept dart around its tail, and its twin is the reverse
    path.  The reduced root is the template's root when it survives, else
    the smallest surviving dart.

    The walk follows ``tsub``'s darts from the two roots along these
    reduced darts and stops at the first clash of next, twin or a dart
    reached twice.  It then matches each marked face of ``tsub`` to a
    marked face with the same marks.  A marked face is its own reduced
    face, so once they reach every marked face, every reduced dart is
    reached: the holes are the other reduced faces, and ``tsub`` is a
    reduction, so the marked faces are edge-connected.  The kept edges then
    form one connected plane graph, and each cluster is one of its faces,
    flooded from the face behind its hole's first dart over the edges that
    no marked face borders; so no cluster has two rings.
    """
    tt = tsub.template
    if template.holes or len(marked) != len(tt.marks) or not marked <= template.marks.keys():
        return None
    m = template.map
    nxt, face_of, vertex_of = m.next_dart, m.face_of, m.vertex_of
    sel = [False] * m.n_faces
    for g in marked:
        sel[g] = True
    kept = [sel[a] or sel[b] for a, b in zip(face_of[::2], face_of[1::2])]  # per edge
    marks = template.marks
    marked_vertices = {v for g in marked for v in marks[g]}
    through = [-1] * m.n_darts  # a kept dart at a smoothed vertex -> the other one
    for v, cyc in enumerate(m.vertex_cycles):
        ends = [d for d in cyc if kept[d >> 1]]
        if (len(ends) == 2 and v not in marked_vertices
                and len({face_of[d] for d in cyc if sel[face_of[d]]}) < 2):
            through[ends[0]], through[ends[1]] = ends[1], ends[0]

    root = m.root
    if not kept[root >> 1] or through[root] >= 0:
        root = next(d for d in range(m.n_darts) if kept[d >> 1] and through[d] < 0)
    tm = tt.map
    tnext = tm.next_dart
    image = [-1] * tm.n_darts  # tsub dart -> first template dart of its path
    paths = [None] * tm.n_darts
    image[tm.root] = root
    taken = {root}
    queue = [tm.root]
    for a in queue:  # the queue grows as darts are reached
        x = y = image[a]
        path = [x]
        z = through[y ^ 1]
        while z >= 0:
            path.append(z)
            y = z
            z = through[y ^ 1]
        paths[a] = tuple(path)
        z = nxt[x]
        while not kept[z >> 1]:
            z = nxt[z]
        for b, c in ((a ^ 1, y ^ 1), (tnext[a], z)):
            if image[b] == c:
                continue
            if image[b] >= 0 or c in taken:
                return None
            image[b] = c
            taken.add(c)
            queue.append(b)

    for f, mk in tt.marks.items():
        cyc = tm.face_cycles[f]
        g = face_of[image[cyc[0]]]
        if not sel[g] or len(marks[g]) != len(mk) or any(
                vertex_of[image[cyc[p]]] != v for p, v in zip(tt.mark_positions(f), marks[g])):
            return None
    clusters = []
    for h in tsub.hole_labels:
        start = face_of[image[tm.face_cycles[h][0]]]
        bucket = {start}
        stack = [start]
        while stack:
            for d in m.face_cycles[stack.pop()]:
                g = face_of[d ^ 1]
                if not kept[d >> 1] and g not in bucket:
                    bucket.add(g)
                    stack.append(g)
        clusters.append(frozenset(bucket))
    return tuple(paths), tuple(clusters)


def _normalize_budgets(tsub: MarkedSubtemplate, n_max):
    b = tsub.n_holes
    if isinstance(n_max, int):
        return (n_max,) * b
    budgets = tuple(int(x) for x in n_max)
    if len(budgets) != b:
        raise TemplateError(f"need {b} budgets, got {len(budgets)}")
    return budgets


# --- side profiles for pruning ------------------------------------------------------


def _collapse(tags):
    out = []
    for t in tags:
        if t == "H" and out and out[-1] == "H":
            continue
        out.append(t)
    return tuple(out)


def _lead(tag, profile):
    """``_collapse((tag,) + profile)`` for a collapsed ``profile``."""
    if tag == "H" and profile and profile[0] == "H":
        return profile
    return (tag,) + profile


def _tsub_side(tsub: MarkedSubtemplate, face, side_idx):
    """Collapsed profile of one side of a subtemplate face, and the hole of
    each of its runs: its position in ``hole_labels`` when the run borders a
    single hole, else None."""
    t = tsub.template
    hole_pos = {h: i for i, h in enumerate(tsub.hole_labels)}
    tags = []
    holes = []
    for d in t.side_dart_paths(face)[side_idx]:
        g = t.map.face_of[d ^ 1]
        if g not in hole_pos:
            tags.append(f"M{t.k_gon(g)}")
            holes.append(set())
        elif tags and tags[-1] == "H":
            holes[-1].add(hole_pos[g])
        else:
            tags.append("H")
            holes.append({hole_pos[g]})
    return tuple(tags), tuple(min(hs) if len(hs) == 1 else None for hs in holes)


def _tsub_profiles(tsub: MarkedSubtemplate):
    """Near-side profiles of the subtemplate's 4-gons, and the 2-gon's sides
    as (profile, run holes) pairs."""
    t = tsub.template
    four = []
    two = None
    for f in t.marks:
        k = t.k_gon(f)
        if k == 4:
            # sides 3 (L-, from b to a) and 0 (R-, from a to c)
            four.append((_tsub_side(tsub, f, 3)[0], _tsub_side(tsub, f, 0)[0]))
        elif k == 2:
            two = (_tsub_side(tsub, f, 1), _tsub_side(tsub, f, 0))
    return four, two


_RAW_TAG = {"M": "M4", "U": "H"}  # frontier tag of an added 4-gon, by its search tag


def _frontier_tags(faces, tags):
    """Raw tag of each explored face (``Builder.frontier_faces``) of an arc."""
    out = []
    for f in faces:
        if f == EXT:
            out.append("M1")
        elif f == 0:
            out.append("M3")
        else:
            out.append(_RAW_TAG[tags[f - 1]])
    return out


def _prefix_profiles(raw):
    """``_collapse(raw[:n])`` for n = 1 .. len(raw), in one pass."""
    out = []
    cur = ()
    for tag in raw:
        if not (tag == "H" and cur and cur[-1] == "H"):
            cur = cur + (tag,)
        out.append(cur)
    return out


# --- the search -----------------------------------------------------------------------


REJECT_REASONS = ("reduction_failed", "key_mismatch", "over_budget")


class _Search:
    """One enumeration: the target, the tag stack, the results, the counters."""

    def __init__(self, tsub: MarkedSubtemplate, budgets):
        self.tsub = tsub
        self.budgets = budgets
        self.b = tsub.n_holes
        self.n4 = tsub.template.n_added_gons
        self.four_profiles, two = _tsub_profiles(tsub)
        # the 2-gon's sides as frontier tags read from the terminal, and the
        # hole of each run (None: no remainder can close)
        if two:
            (left, left_holes), (right, right_holes) = two
            self.close_left, self.close_right = left[::-1], right
            self.close_holes = (left_holes[::-1], right_holes)
        else:
            self.close_left = self.close_right = self.close_holes = None
        self.total_budget = sum(budgets)
        self.caps = sorted(budgets, reverse=True)
        self.cap = max(budgets, default=0)
        self.tags = []  # "M"/"U" per added 4-gon, in construction order
        self.results = []
        self.seen = set()
        self.counters = {
            "nodes": 0,
            "closing_cuts": 0,
            "budget_cuts": 0,
            "hole_cuts": 0,
            "leaves": 0,
            "rejects": dict.fromkeys(REJECT_REASONS, 0),
        }

    def reject(self, reason):
        self.counters["rejects"][reason] += 1

    def fits(self, clusters):
        """Whether final clusters can fill the holes one each within budget."""
        return len(clusters) == self.b and all(
            n <= cap for n, cap in zip(sorted(map(len, clusters), reverse=True), self.caps))

    def closes(self, left, right, clusters):
        """Whether a close with final ``clusters`` passes the cluster check
        and the hole labels; counts the close that is cut."""
        if not self.fits(clusters):
            self.counters["budget_cuts"] += 1
            return False
        if not _hole_labels_fit(self, left, right, clusters):
            self.counters["hole_cuts"] += 1
            return False
        return True


def _finish(search: _Search, builder: Builder):
    """Close ``builder`` (consumed) and keep the template if it is a filling."""
    search.counters["leaves"] += 1
    builder.close()
    template, seq_to_face, _ = builder.build()
    report = validate_template(template)
    if not report.passed:
        raise TemplateError(f"search produced an invalid template: {report.failures()}")
    marked = {seq_to_face[EXT], seq_to_face[0], seq_to_face[len(builder.cycles) - 1]}
    for i, tag in enumerate(search.tags):
        if tag == "M":
            marked.add(seq_to_face[i + 1])
    try:
        filling = _filling(search.tsub, template, marked)
    except TemplateError:
        search.reject("reduction_failed")
        return
    if filling is None:
        search.reject("key_mismatch")
        return
    if any(n > cap for n, cap in zip(filling.added, search.budgets)):
        search.reject("over_budget")
        return
    if filling.key in search.seen:
        raise TemplateError("duplicate filling found; construction not unique")
    search.seen.add(filling.key)
    search.results.append(filling)


def _expand(search: _Search, builder: Builder, marked_used, unmarked_used, available,
            clusters):
    """Finish ``builder`` if it closes, then branch on every (t, s, tag).

    ``clusters`` are the edge-connected clusters of the unmarked faces, as
    frozensets of construction indices.
    """
    search.counters["nodes"] += 1
    left_faces = builder.frontier_faces(builder.left)
    right_faces = builder.frontier_faces(builder.right)
    left = (_frontier_tags(left_faces, search.tags), left_faces)
    right = (_frontier_tags(right_faces, search.tags), right_faces)
    if (marked_used == search.n4
            and _collapse(left[0]) == search.close_left
            and _collapse(right[0]) == search.close_right
            and search.closes(left, right, clusters)):
        _finish(search, builder.clone())
    if unmarked_used < search.total_budget:
        children = _grow_clusters(search, builder, left_faces, right_faces, clusters)
        _branch(search, builder, "U", children, left, right,
                marked_used, unmarked_used + 1, available)
    if marked_used < search.n4:
        # a marked 4-gon's near sides must match an unused subtemplate
        # 4-gon: each left prefix is tested before any right one
        left_wanted = {lp for lp, _ in available}
        right_profiles = _prefix_profiles(right[0])
        for t_i, lp in enumerate(_prefix_profiles(left[0]), 1):
            lp = lp[::-1]
            if lp not in left_wanted:
                continue
            for s_i, rp in enumerate(right_profiles, 1):
                prof = (lp, rp)
                if prof in available:
                    next_av = available.copy()
                    next_av[prof] -= 1
                    if not next_av[prof]:
                        del next_av[prof]
                    _branch(search, builder, "M", [((t_i, s_i), clusters)], left, right,
                            marked_used + 1, unmarked_used, next_av)


def _grow_clusters(search: _Search, builder: Builder, left_faces, right_faces, clusters):
    """The (split, clusters) children of an unmarked 4-gon that the budgets allow.

    The new face joins every cluster behind the frontier edges it covers;
    a grown cluster larger than every budget is cut.
    """
    f = len(builder.cycles)  # construction index of the new face
    # the smallest t (s) at which the face covers each cluster
    reach = [(next((t_i for t_i, g in enumerate(left_faces, 1) if g in c), math.inf),
              next((s_i for s_i, g in enumerate(right_faces, 1) if g in c), math.inf))
             for c in clusters]
    kept = []
    for t_i in range(1, len(left_faces) + 1):
        for s_i in range(1, len(right_faces) + 1):
            joined = [c for c, (t_c, s_c) in zip(clusters, reach) if t_i >= t_c or s_i >= s_c]
            if 1 + sum(map(len, joined)) > search.cap:
                break  # a larger s covers more and joins more
            grown = frozenset([f]).union(*joined)
            kept.append(((t_i, s_i), tuple(c for c in clusters if c.isdisjoint(grown))
                         + (grown,)))
    search.counters["budget_cuts"] += len(left_faces) * len(right_faces) - len(kept)
    return kept


def _closable(new, raw, target, budget_left):
    """The splits t after which an arc with tags ``raw``, led by a ``new``
    face, collapses to ``target`` (``now``), and those after which further
    unmarked faces can make it collapse to ``target`` (``later``).

    Placing an unmarked face at split m + 1 maps tags X to ["H"] + X[m:], and
    two such steps compose to one, so ``later`` asks for some m with
    ``_collapse(["H"] + X[m:]) == target``, X the child's tags.  Those are
    ["H", new] + raw[t-1:] and ["H"] + raw[k:] for k >= t - 1, read here
    from the collapsed suffixes of ``raw``.
    """
    now, later = set(), set()
    suffix = ()  # _collapse(raw[t-1:])
    reach = False  # _collapse(["H"] + raw[k:]) == target for some k >= t - 1
    for t_i in range(len(raw), 0, -1):
        suffix = _lead(raw[t_i - 1], suffix)
        child = _lead(new, suffix)
        if child == target:
            now.add(t_i)
        if budget_left:
            reach = reach or _lead("H", suffix) == target
            if reach or _lead("H", child) == target:
                later.add(t_i)
    return now, later


def _closing_lookahead(search: _Search, tag, children, left_raw, right_raw, budget_left):
    """The children of a ``tag`` 4-gon, placed once every marked 4-gon is,
    that can still close: both arcs collapse to the 2-gon's sides now, or
    can with further unmarked faces while ``budget_left``.

    A child's arc is the new face's tag followed by the parent's tags from
    the split edge on, so this is judged on the parent's tags, before any
    clone.  A child that can place no further face must close now.
    """
    new = _RAW_TAG[tag]
    now_l, later_l = _closable(new, left_raw, search.close_left, budget_left)
    now_r, later_r = _closable(new, right_raw, search.close_right, budget_left)
    kept = [(split, c) for split, c in children
            if split[0] in now_l and split[1] in now_r
            or split[0] in later_l and split[1] in later_r]
    search.counters["closing_cuts"] += len(children) - len(kept)
    return kept


def _hole_labels_fit(search: _Search, left, right, clusters):
    """Whether the final ``clusters`` can fill the holes that the 2-gon's
    runs name; ``left`` and ``right`` are the (tags, faces) of the closing
    frontier arcs.

    At a close, an arc's collapsed runs line up one-to-one with the runs of
    its 2-gon side.  The rooted isomorphism of the leaf maps the 2-gon to
    the 2-gon, side j to side j and marked tags to themselves, so every
    cluster behind a run whose 2-gon side run borders the single hole h
    fills h.  The close is cut if a cluster gets two holes, a hole two
    clusters, or a cluster more faces than its hole's budget.
    """
    hole_of = {}  # cluster -> hole position
    for (raw, faces), holes in zip((left, right), search.close_holes):
        run = -1
        for i, tag in enumerate(raw):
            if tag != "H" or i == 0 or raw[i - 1] != "H":
                run += 1
            h = holes[run]
            if tag == "H" and h is not None:
                c = next(c for c in clusters if faces[i] in c)
                if hole_of.setdefault(c, h) != h:
                    return False
    filler = {}  # hole position -> cluster
    for c, h in hole_of.items():
        if filler.setdefault(h, c) is not c or len(c) > search.budgets[h]:
            return False
    return True


def _branch(search: _Search, builder: Builder, tag, children, left, right,
            marked_used, unmarked_used, available):
    """Add a ``tag`` 4-gon at each ((t, s), clusters) of ``children`` and
    search below it; ``left`` and ``right`` are the parent's (tags, faces).

    Once every marked 4-gon is placed, only the children that can still
    close are kept (``_closing_lookahead``).  A child that can place no
    further face is only ever closed: its arcs are the new face followed by
    the parent's from the split edge on, so its clusters, which are final,
    and its hole labels are checked on the parent's arcs, and only children
    that pass are cloned and built.
    """
    budget_left = unmarked_used < search.total_budget
    if marked_used == search.n4:
        children = _closing_lookahead(search, tag, children, left[0], right[0], budget_left)
    terminal = marked_used == search.n4 and not budget_left
    if terminal:
        head = ([_RAW_TAG[tag]], [len(builder.cycles)])  # the new face's tag and index

        def arc(parent, split):
            return head[0] + parent[0][split - 1:], head[1] + parent[1][split - 1:]

        children = [((t_i, s_i), c) for (t_i, s_i), c in children
                    if search.closes(arc(left, t_i), arc(right, s_i), c)]
    for (t_i, s_i), clusters in children:
        child = builder.clone()
        child.add_face(t=t_i, s=s_i)
        search.tags.append(tag)
        if terminal:
            _finish(search, child)
        else:
            _expand(search, child, marked_used, unmarked_used, available, clusters)
        search.tags.pop()


def enumerate_fillings(tsub: MarkedSubtemplate, n_max, counters=None):
    """All fillings of the subtemplate, per-hole budgets ``n_max``.

    Output is duplicate-free (construction sequences biject with ordered
    templates) and sorted by canonical key; every result passes
    validate_template and reduces back to the subtemplate.  A dict passed
    as ``counters`` receives the search counters: ``nodes`` expanded,
    children cut by the closing look-ahead (``closing_cuts``), children and
    closes cut by the cluster check (``budget_cuts``), closes cut by the
    2-gon's hole labels (``hole_cuts``), ``leaves`` closed and matched, and
    ``rejects`` per reason (REJECT_REASONS); every leaf is a filling or one
    reject.
    """
    search = _Search(tsub, _normalize_budgets(tsub, n_max))
    available = {}
    for prof in search.four_profiles:
        available[prof] = available.get(prof, 0) + 1
    _expand(search, Builder(), 0, 0, available, ())
    if counters is not None:
        counters.update(search.counters)
    if not search.results:
        raise BudgetExhausted(
            f"no filling of the subtemplate within budgets {search.budgets}"
        )
    search.results.sort(key=lambda f: f.key)
    return search.results


# --- projections and the product bijection ---------------------------------------------


def project_filling(tsub: MarkedSubtemplate, filling: Filling, hole_pos: int):
    """The hole-``hole_pos`` projection: re-holify every other cluster.

    This is the definition of a filling's hole-``hole_pos`` factor;
    ``verify_product_bijection`` keys the factor by ``hole_key`` instead,
    which tells the same projections apart without building them.
    """
    keep = set(filling.marked) | set(filling.clusters[hole_pos])
    return mark_subtemplate(filling.template, keep)


def hole_key(tsub: MarkedSubtemplate, filling: Filling, hole_pos: int) -> bytes:
    """Rooted code of the cluster filling hole ``hole_pos``, read off the
    filling's view.

    The cluster's darts are labelled in BFS order from the filling dart
    that starts the hole's first boundary dart, over the face successor and
    over twins inside the cluster.  Each dart records its successor's
    label, its twin's label or else its place on the hole's boundary (the
    index of the subtemplate dart in the hole's face cycle and the offset in
    that dart's path), and its mark index in its face or -1.

    Every filling of ``tsub`` shares the subtemplate around the hole, so
    equal codes give rooted-isomorphic ``project_filling`` projections; and
    a rooted map has no nontrivial automorphism, so an isomorphism of two
    projections that maps cluster to cluster fixes the subtemplate and the
    codes are equal.  On the bundled fixtures the codes split the fillings
    exactly as the projections do.
    """
    m = filling.template.map
    nxt = m.next_dart
    hole_cycle = tsub.template.map.face_cycles[tsub.hole_labels[hole_pos]]
    boundary = {x: (-1 - j, k)
                for j, d in enumerate(hole_cycle)
                for k, x in enumerate(filling.dart_paths[d])}
    mark = {}
    for f in filling.clusters[hole_pos]:
        cyc = m.face_cycles[f]
        for j, p in enumerate(filling.template.mark_positions(f)):
            mark[cyc[p]] = j
    start = filling.dart_paths[hole_cycle[0]][0]
    label = {start: 0}
    queue = [start]
    code = []
    for x in queue:  # the queue grows as darts are labelled
        succ = nxt[x ^ 1]
        if succ not in label:
            label[succ] = len(queue)
            queue.append(succ)
        if x in boundary:
            side, offset = boundary[x]
        else:
            if x ^ 1 not in label:
                label[x ^ 1] = len(queue)
                queue.append(x ^ 1)
            side, offset = label[x ^ 1], -1
        code += (label[succ], side, offset, mark.get(x, -1))
    return array("i", code).tobytes()


@dataclass(frozen=True)
class BijectionReport:
    n_fillings: int
    factor_sizes: tuple
    injective: bool
    surjective: bool
    composed_checked: int
    search: dict = None  # enumerate_fillings counters, when enumerated here

    @property
    def product(self):
        p = 1
        for s in self.factor_sizes:
            p *= s
        return p


def verify_product_bijection(tsub: MarkedSubtemplate, n_max, constructive=True,
                             fillings=None):
    """Check that fillings factor as the product of per-hole filling sets.

    Enumerates the filling set at the given per-hole budgets, maps each
    filling to its per-hole factors, and verifies the product map is
    injective with image size equal to the product of the factor sizes.  A
    factor is defined by the filling's projection (``project_filling``) and
    keyed by its ``hole_key``, read off the filling's view without building
    the projection.
    With ``constructive=True`` every factor combination is also glued back
    together (compose_fillings) and checked to be a filling with the right
    projections, which exhibits surjectivity directly rather than by
    counting.  Raises BijectionViolation on failure.  The report carries
    the search counters when the fillings are enumerated here.
    """
    budgets = _normalize_budgets(tsub, n_max)
    b = tsub.n_holes
    search = None
    if fillings is None:
        search = {}
        fillings = enumerate_fillings(tsub, budgets, counters=search)
    if not fillings:
        raise BijectionViolation("no fillings within budget")

    factors = [dict() for _ in range(b)]  # hole key -> representative filling
    tuples = []
    for f in fillings:
        keys = tuple(hole_key(tsub, f, i) for i in range(b))
        for factor, k in zip(factors, keys):
            factor.setdefault(k, f)
        tuples.append(keys)

    injective = len(set(tuples)) == len(tuples)
    if not injective:
        raise BijectionViolation("two fillings share all their projections")
    sizes = tuple(len(d) for d in factors)
    product = 1
    for s in sizes:
        product *= s
    if product != len(fillings):
        raise BijectionViolation(
            f"|fillings| = {len(fillings)} but product of factors = {product}"
        )

    composed = 0
    if constructive and b >= 1:
        reps = [list(d.items()) for d in factors]
        tuple_set = set(tuples)
        for combo in itertools.product(*reps):
            want = tuple(k for k, _ in combo)
            sources = [f for _, f in combo]
            template, marked = compose_fillings(tsub, sources)
            try:
                comp_filling = _filling(tsub, template, marked)
            except TemplateError:
                comp_filling = None
            if comp_filling is None:
                raise BijectionViolation("composed template has the wrong subtemplate")
            got = tuple(hole_key(tsub, comp_filling, i) for i in range(b))
            if got != want:
                raise BijectionViolation("composed filling has wrong projections")
            if want not in tuple_set:
                raise BijectionViolation(
                    "composed a valid filling missing from the enumeration"
                )
            composed += 1

    return BijectionReport(
        n_fillings=len(fillings),
        factor_sizes=sizes,
        injective=True,
        surjective=True,
        composed_checked=composed,
        search=search,
    )


# --- gluing fillings hole by hole --------------------------------------------------------


def compose_fillings(tsub: MarkedSubtemplate, sources):
    """Glue per-hole fillings: hole i is filled as in ``sources[i]``.

    Returns (template, marked_faces).  Each source must be a filling of
    ``tsub``; only its cluster for the corresponding hole is used.
    """
    t = tsub.template
    b = tsub.n_holes
    if len(sources) != b:
        raise TemplateError(f"need {b} sources, one per hole")

    # per-hole data read off each source's view of the subtemplate
    hole_data = []
    for j, g in enumerate(sources):
        hole_face = tsub.hole_labels[j]
        boundary_pieces = {
            d: path for d, path in enumerate(g.dart_paths)
            if t.map.face_of[d] == hole_face or t.map.face_of[d ^ 1] == hole_face
        }
        piece_edges = {
            x >> 1 for path in boundary_pieces.values() for x in path
        }
        hole_data.append(
            dict(
                g=g,
                gmap=g.template.map,
                cluster=g.clusters[j],
                boundary_pieces=boundary_pieces,
                piece_edges=piece_edges,
                g_vertex_to_tsub=g.vertex_to_tsub(tsub),
            )
        )

    hole_of_dart = {}
    for j in range(b):
        hf = tsub.hole_labels[j]
        for d in range(t.map.n_darts):
            if t.map.face_of[d ^ 1] == hf:
                hole_of_dart[d] = j

    def vname(j, gv):
        data = hole_data[j]
        if gv in data["g_vertex_to_tsub"]:
            return ("t", data["g_vertex_to_tsub"][gv])
        return ("s", j, gv)

    cycles = []
    face_tags = []
    root = (0, 0)  # (cycle, entry) of the root dart's first piece

    # marked faces: tsub cycles with hole-boundary edges expanded
    for f in sorted(t.marks):
        entries = []
        for d in t.map.face_cycles[f]:
            if d == t.map.root:
                root = (len(cycles), len(entries))
            if d in hole_of_dart:
                j = hole_of_dart[d]
                data = hole_data[j]
                for x in data["boundary_pieces"][d]:
                    entries.append(
                        (vname(j, data["gmap"].vertex_of[x]), ("e", j, x >> 1)))
            else:
                entries.append((("t", t.map.vertex_of[d]), ("t", d >> 1)))
        cycles.append(entries)
        face_tags.append(("marked", f))

    # hole interiors from the sources
    for j in range(b):
        data = hole_data[j]
        gmap = data["gmap"]
        for gf in sorted(data["cluster"]):
            entries = []
            for x in gmap.face_cycles[gf]:
                ge = x >> 1
                label = ("e", j, ge) if ge in data["piece_edges"] else ("i", j, ge)
                entries.append((vname(j, gmap.vertex_of[x]), label))
            cycles.append(entries)
            face_tags.append(("hole", j, gf))

    hmap, dart_cycles = pm.from_face_edge_cycles(cycles, root)

    tail = [None] * hmap.n_darts
    for entries, darts in zip(cycles, dart_cycles):
        for (v, _e), d in zip(entries, darts):
            tail[d] = v
    vmap = {}  # vertex name -> map vertex of its smallest dart
    for d, v in enumerate(tail):
        vmap.setdefault(v, hmap.vertex_of[d])

    marks = {}
    marked_faces = set()
    for darts, tag in zip(dart_cycles, face_tags):
        fid = hmap.face_of[darts[0]]
        if tag[0] == "marked":
            f = tag[1]
            marks[fid] = tuple(vmap[("t", v)] for v in t.marks[f])
            marked_faces.add(fid)
        else:
            _, j, gf = tag
            g = hole_data[j]["g"]
            marks[fid] = tuple(
                vmap[vname(j, v)] for v in g.template.marks[gf]
            )
    template = with_face_order(Template(map=hmap, marks=marks, holes=frozenset()))
    report = validate_template(template)
    if not report.passed:
        raise BijectionViolation(
            f"composed template violates the template conditions: {report.failures()}"
        )
    return template, frozenset(marked_faces)
