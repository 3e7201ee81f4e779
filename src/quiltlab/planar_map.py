"""Half-edge (rotation system) representation of rooted planar maps.

Darts are dense integers ``0..2E-1``.  ``next_dart[d]`` is the next dart
counterclockwise around the tail vertex of ``d``; ``twin`` pairs the two darts
of each edge and is normalized at construction so that ``twin(2k) = 2k+1``
(hence edge ``k`` owns darts ``2k`` and ``2k+1``).

Orientation convention, fixed once and used everywhere: vertices are the
orbits of ``next``; faces are the orbits of ``d -> next[twin[d]]`` and are
traced with the face on the LEFT.  When the map is drawn in the plane with
the root face as the outer face, interior faces are traced counterclockwise
and the outer face clockwise.

Canonical id order, also fixed once: vertex and face ids follow each
cycle's smallest dart, and every cycle starts at that dart.  Tracing the
orbits from darts 0, 1, 2, ... in turn gives this order directly.

Maps are immutable after construction and safe to share between workers.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    DisconnectedMap,
    FixedPointInTwin,
    MapError,
    NonInvolution,
    NonPermutation,
    ParseError,
    SizeMismatch,
)


@dataclass(frozen=True)
class HalfEdgeMap:
    """Rooted combinatorial planar map.

    ``next_dart`` is the ccw rotation; twins are implicit (``d ^ 1``).
    Use :func:`build_map` / :func:`from_face_edge_cycles` instead of the raw
    constructor.
    """

    next_dart: tuple
    root: int
    vertex_of: tuple      # dart -> vertex id
    face_of: tuple        # dart -> face id
    vertex_cycles: tuple  # vertex id -> tuple of darts (rotation order)
    face_cycles: tuple    # face id -> tuple of darts (face on the left)

    # -- basic counts ---------------------------------------------------------

    @property
    def n_darts(self):
        return len(self.next_dart)

    @property
    def n_edges(self):
        return len(self.next_dart) // 2

    @property
    def n_vertices(self):
        return len(self.vertex_cycles)

    @property
    def n_faces(self):
        return len(self.face_cycles)

    # -- navigation -----------------------------------------------------------

    def twin(self, dart):
        return dart ^ 1

    def next(self, dart):
        return self.next_dart[dart]

    def face_next(self, dart):
        """Next dart around the face of ``dart`` (face kept on the left)."""
        return self.next_dart[dart ^ 1]

    def degree(self, vertex):
        return len(self.vertex_cycles[vertex])

    def vertex_faces(self, vertex):
        """Faces at the corners of ``vertex``, one per incident dart."""
        return [self.face_of[d] for d in self.vertex_cycles[vertex]]


def _orbits(perm):
    """Cycles of ``perm``, each from its smallest dart, in order of that
    dart, and the id of every dart's cycle."""
    n = len(perm)
    id_of = [-1] * n
    cycles = []
    for start in range(n):
        if id_of[start] >= 0:
            continue
        cid = len(cycles)
        cyc = []
        d = start
        while id_of[d] < 0:
            id_of[d] = cid
            cyc.append(d)
            d = perm[d]
        cycles.append(tuple(cyc))
    return tuple(cycles), tuple(id_of)


def build_map(next_permutation, twin_involution, root):
    """Validate and build a rooted map from a rotation system.

    Dart labels are normalized so that ``twin(2k) = 2k+1``; the returned map
    may therefore use different dart indices than the input (the root is
    carried along).  Raises SizeMismatch / NonInvolution / FixedPointInTwin /
    NonPermutation / DisconnectedMap on bad input.
    """
    nxt = list(next_permutation)
    twn = list(twin_involution)
    n = len(nxt)
    if len(twn) != n:
        raise SizeMismatch(f"next acts on {n} darts but twin on {len(twn)}")
    if n == 0 or n % 2:
        raise SizeMismatch(f"dart set must be nonempty and even, got {n}")
    if sorted(nxt) != list(range(n)):
        raise NonPermutation("next is not a permutation of 0..%d" % (n - 1))
    for d in range(n):
        t = twn[d]
        if not (0 <= t < n) or twn[t] != d:
            raise NonInvolution(f"twin fails to be an involution at dart {d}")
        if t == d:
            raise FixedPointInTwin(f"twin fixes dart {d}")
    if not (0 <= root < n):
        raise MapError(f"root dart {root} out of range")

    # Relabel darts so that edge k owns darts 2k, 2k+1 (first-come order).
    relabel = [-1] * n
    k = 0
    for d in range(n):
        if relabel[d] < 0:
            relabel[d] = 2 * k
            relabel[twn[d]] = 2 * k + 1
            k += 1
    new_next = [0] * n
    for d in range(n):
        new_next[relabel[d]] = relabel[nxt[d]]
    return _finish(tuple(new_next), relabel[root])


def _finish(next_dart, root):
    n = len(next_dart)
    vertex_cycles, vertex_of = _orbits(next_dart)
    face_cycles, face_of = _orbits([next_dart[d ^ 1] for d in range(n)])

    # connectivity: BFS over darts via next and twin
    seen = [False] * n
    stack = [root]
    seen[root] = True
    count = 1
    while stack:
        d = stack.pop()
        for e in (next_dart[d], d ^ 1):
            if not seen[e]:
                seen[e] = True
                count += 1
                stack.append(e)
    if count != n:
        raise DisconnectedMap(f"only {count} of {n} darts reachable from root")

    return HalfEdgeMap(
        next_dart=tuple(next_dart),
        root=root,
        vertex_of=vertex_of,
        face_of=face_of,
        vertex_cycles=vertex_cycles,
        face_cycles=face_cycles,
    )


def from_face_edge_cycles(cycles, root=(0, 0)):
    """Build a map from faces given as cycles of ``(tail_vertex, edge_label)``.

    Each entry travels from its tail vertex along the labelled edge to the
    next entry's tail, with the face on the left; labels may be any
    hashable, so parallel edges are fine.  Every label must occur exactly
    twice, with its endpoints reversed and distinct (no loop edges), or
    MapError is raised.  Edges are numbered by first occurrence over the
    cycles in turn; an edge's first side is dart 2k, its second 2k+1.
    Returns ``(map, dart_cycles)`` with ``dart_cycles[i][j]`` the dart of
    entry j of cycle i; ``root`` is the (cycle, entry) of the root dart.
    """
    first = {}   # edge label -> dart of its first side
    seen = {}    # edge label -> sides met so far
    dart_cycles = []
    for cyc in cycles:
        if len(cyc) < 2:
            raise MapError("face cycles need at least two entries")
        darts = []
        for _tail, e in cyc:
            c = seen.get(e, 0)
            if not c:
                first[e] = 2 * len(first)
            seen[e] = c + 1
            darts.append(first[e] + c)
        dart_cycles.append(darts)
    for e, c in seen.items():
        if c != 2:
            raise MapError(f"edge {e!r} occurs {c} times, expected 2")
    n = 2 * len(first)
    face_next = [0] * n
    tail = [None] * n
    for cyc, darts in zip(cycles, dart_cycles):
        prev = darts[-1]
        for (v, _e), d in zip(cyc, darts):
            face_next[prev] = d
            tail[d] = v
            prev = d
    for e, d in first.items():
        a, b = tail[d], tail[d + 1]
        if a == b:
            raise MapError(f"edge {e!r} is a loop or doubly-traversed")
        if a != tail[face_next[d + 1]] or tail[face_next[d]] != b:
            raise MapError(f"edge {e!r} endpoints disagree between its two sides")
    ci, j = root
    m = _finish(tuple([face_next[d ^ 1] for d in range(n)]), dart_cycles[ci][j])
    return m, dart_cycles


def code_from_labeling(m: HalfEdgeMap, label) -> bytes:
    """The next/twin tables of ``m`` written in the dart order of ``label``.

    With the ``canonical_labeling`` this is a root-preserving isomorphism
    invariant: two rooted maps are isomorphic (there is a dart bijection
    commuting with next and twin and matching roots) iff their codes are
    equal.
    """
    n = m.n_darts
    inv = [0] * n
    for d, lab in enumerate(label):
        inv[lab] = d
    parts = []
    for lab in range(n):
        d = inv[lab]
        parts.append(f"{label[m.next_dart[d]]},{label[d ^ 1]}")
    return (f"E={m.n_edges};" + ";".join(parts)).encode("ascii")


def canonical_labeling(m: HalfEdgeMap):
    """Breadth-first dart labeling from the root, over next and twin."""
    n = m.n_darts
    label = [-1] * n
    label[m.root] = 0
    queue = [m.root]
    nxt = 1
    head = 0
    while head < len(queue):
        d = queue[head]
        head += 1
        for e in (m.next_dart[d], d ^ 1):
            if label[e] < 0:
                label[e] = nxt
                nxt += 1
                queue.append(e)
    return label


# --- serialization -------------------------------------------------------------

def to_text(m: HalfEdgeMap) -> str:
    """Line-based text format: ``E=<n>`` then one ``next twin`` pair per dart."""
    lines = [f"E={m.n_edges}"]
    for d in range(m.n_darts):
        lines.append(f"{m.next_dart[d]} {d ^ 1}")
    return "\n".join(lines) + "\n"


def read_dart_rows(lines):
    """(next, twin) lists from stripped non-empty lines: the ``E=<n>``
    header, then 2n ``next twin`` lines; later lines are left to the caller."""
    if not lines or not lines[0].startswith("E="):
        raise ParseError("expected header line 'E=<n>'")
    try:
        n_edges = int(lines[0][2:])
        rows = [tuple(map(int, ln.split())) for ln in lines[1 : 1 + 2 * n_edges]]
    except ValueError as exc:
        raise ParseError(f"malformed map text: {exc}") from exc
    if len(rows) != 2 * n_edges or any(len(r) != 2 for r in rows):
        raise ParseError("expected 2*E dart lines of 'next twin'")
    return [r[0] for r in rows], [r[1] for r in rows]


def from_text(text: str) -> HalfEdgeMap:
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    try:
        return build_map(*read_dart_rows(lines), 0)
    except MapError as exc:
        raise ParseError(f"not a valid map: {exc}") from exc

