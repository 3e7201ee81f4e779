"""Incremental construction of ordered templates.

Implements the iterative picture: start from the disk split into the outer
1-gon, the 3-gon F_0 and the unexplored remainder; each step roots a 4-gon
at the current terminal vertex, walks a prefix of the unexplored boundary
clockwise (left) and counterclockwise (right), splits the reached frontier
edges at fresh vertices b and c, and joins them to a fresh bulk vertex d.
Closing turns the remaining region into the final 2-gon.

The same machinery drives the quilt simulator (splits located by edge
lengths) and the combinatorial filling search (splits indexed by edge
counts); in the latter case lengths are absent.

Face cycles are stored as lists of ``(tail_vertex, edge_id)`` entries (the
face keeps left of travel); edge ids stay unique across splits, which keeps
parallel edges (the two boundary arcs of the base map) unambiguous.
:meth:`Builder.build` hands the cycles to
``planar_map.from_face_edge_cycles``, the one constructor of a map from face
cycles, and reads face ids, vertex ids and lengths off the darts it returns.
"""

from __future__ import annotations

import math

from . import planar_map as pm
from .errors import ConstraintViolated, LengthCollision, TemplateError
from .quilt import Quilt, Template, conserved, validate_template

EXT = -1  # sentinel face index for the outer 1-gon


class Builder:
    """Mutable construction state; ``clone()`` snapshots for search branching.

    Vertices: 0 = a0 (root, stays on the boundary), 1 = c0, 2 = d0.
    Face sequence indices: 0 = F_0, then added 4-gons; EXT is the outer face.
    Frontier lists run from the current terminal to the root vertex a0; each
    entry is (edge_id, near_vertex, far_vertex).
    """

    __slots__ = (
        "nv", "ne", "ring", "cycles", "marks", "left", "right",
        "edge_face", "edge_len", "terminal", "collisions",
    )

    def __init__(self, r0_minus=None, l0_plus=None, r0_plus=None):
        lengths = r0_minus is not None
        if lengths and not 0 < r0_minus < 1:
            raise ConstraintViolated("r0- must lie in (0, 1) for a unit boundary")
        self.nv = 3
        self.ne = 4
        # edges: 0 = short arc a0-c0, 1 = long arc c0-a0, 2 = a0-d0, 3 = c0-d0
        self.ring = [(0, 0), (1, 1)]          # boundary, ccw in the plane
        self.cycles = [[(0, 0), (1, 3), (2, 2)]]   # F_0 = (a0, c0, d0)
        self.marks = [(0, 1, 2)]
        self.edge_len = (
            {0: r0_minus, 1: 1.0 - r0_minus, 2: l0_plus, 3: r0_plus}
            if lengths else None
        )
        self.edge_face = {0: 0, 1: EXT, 2: 0, 3: 0}
        self.left = [(2, 2, 0)]
        self.right = [(3, 2, 1), (1, 1, 0)]
        self.terminal = 2
        self.collisions = 0

    def clone(self):
        b = Builder.__new__(Builder)
        b.nv = self.nv
        b.ne = self.ne
        b.ring = list(self.ring)
        b.cycles = [list(c) for c in self.cycles]
        b.marks = list(self.marks)
        b.left = list(self.left)
        b.right = list(self.right)
        b.edge_face = dict(self.edge_face)
        b.edge_len = dict(self.edge_len) if self.edge_len is not None else None
        b.terminal = self.terminal
        b.collisions = self.collisions
        return b

    # -- split bookkeeping ------------------------------------------------------

    def _split(self, arc, idx, piece=None):
        """Split arc[idx] at a fresh vertex w.

        Updates the explored-side record (ring or a face cycle) and returns
        ``(w, far_record, near_edge_id)``.
        """
        eid, near, far = arc[idx]
        w = self.nv
        self.nv += 1
        e_near = self.ne
        e_far = self.ne + 1
        self.ne += 2

        face = self.edge_face.pop(eid)
        rec = self.ring if face == EXT else self.cycles[face]
        for i, (tail, e) in enumerate(rec):
            if e == eid:
                # rec travels tail -eid-> head; orient the two pieces
                if tail == near:
                    rec[i : i + 1] = [(tail, e_near), (w, e_far)]
                else:
                    rec[i : i + 1] = [(tail, e_far), (w, e_near)]
                break
        else:
            raise TemplateError("edge missing from its explored face record")

        if self.edge_len is not None:
            total = self.edge_len.pop(eid)
            if piece is None or not 0 < piece < total:
                raise LengthCollision("split point escapes the open edge")
            self.edge_len[e_near] = piece
            self.edge_len[e_far] = total - piece
        self.edge_face[e_near] = face
        self.edge_face[e_far] = face
        return w, (e_far, w, far), e_near

    def _walk(self, arc, target):
        """Locate a length split: returns (1-based count, piece length)."""
        cum = 0.0
        for i, (eid, _, _) in enumerate(arc):
            ln = self.edge_len[eid]
            if cum + ln > target:
                piece = target - cum
                if piece <= 0.0 or piece >= ln:
                    # zero-probability tie on the grid: nudge one ulp inward
                    self.collisions += 1
                    piece = min(max(piece, math.ulp(ln)), ln - math.ulp(ln))
                return i + 1, piece
            cum += ln
        raise ConstraintViolated(f"side length {target} exceeds the frontier arc")

    # -- construction moves ------------------------------------------------------

    def add_face(self, t=None, s=None, lengths=None):
        """Add a 4-gon rooted at the current terminal.

        Combinatorial mode: ``t``/``s`` are 1-based counts of frontier edges
        consumed clockwise/counterclockwise (the last one is split).
        Length mode: ``lengths = (l-, l+, r-, r+)`` locates the splits.
        """
        piece_l = piece_r = None
        if lengths is not None:
            lm, lp, rm, rp = lengths
            t, piece_l = self._walk(self.left, lm)
            s, piece_r = self._walk(self.right, rm)
        else:
            lp = rp = None
            if not (1 <= t <= len(self.left) and 1 <= s <= len(self.right)):
                raise ConstraintViolated("split index outside the frontier")

        a = self.terminal
        left_consumed = self.left[: t - 1]
        right_consumed = self.right[: s - 1]
        b, far_left, e_bn = self._split(self.left, t - 1, piece_l)
        c, far_right, e_cn = self._split(self.right, s - 1, piece_r)
        d = self.nv
        self.nv += 1
        e_db = self.ne
        e_dc = self.ne + 1
        self.ne += 2

        f = len(self.cycles)
        cycle = [(a, right_consumed[0][0]) if right_consumed else (a, e_cn)]
        for i in range(1, s - 1):
            cycle.append((right_consumed[i - 1][2], right_consumed[i][0]))
        if right_consumed:
            cycle.append((right_consumed[-1][2], e_cn))
        cycle.append((c, e_dc))
        cycle.append((d, e_db))
        cycle.append((b, e_bn))
        for i in reversed(range(t - 1)):
            cycle.append((left_consumed[i][2], left_consumed[i][0]))
        self.cycles.append(cycle)
        self.marks.append((a, c, d, b))

        if self.edge_len is not None:
            self.edge_len[e_db] = lp
            self.edge_len[e_dc] = rp
        self.edge_face[e_db] = f
        self.edge_face[e_dc] = f
        for eid, _, _ in left_consumed:
            self.edge_face.pop(eid, None)
        for eid, _, _ in right_consumed:
            self.edge_face.pop(eid, None)
        self.left = [(e_db, d, b), far_left] + self.left[t:]
        self.right = [(e_dc, d, c), far_right] + self.right[s:]
        self.terminal = d
        return f

    def close(self):
        """Turn the unexplored remainder into the final 2-gon."""
        cycle = [(near, eid) for eid, near, _ in self.right]
        cycle += [(far, eid) for eid, _, far in reversed(self.left)]
        self.cycles.append(cycle)
        self.marks.append((self.terminal, 0))

    def frontier_faces(self, arc):
        """Explored face index (EXT = outer) behind each frontier edge."""
        return [self.edge_face[eid] for eid, _, _ in arc]

    # -- final assembly ------------------------------------------------------------

    def build(self):
        """Assemble the completed template (after close()).

        Returns (template, seq_to_face_id, lengths or None); ``seq_to_face_id``
        maps EXT and construction indices to face ids of the final map.  The
        cycles (F_ext, F_0, ..., F_last) go to
        ``planar_map.from_face_edge_cycles``, which numbers the edges and
        raises MapError on a malformed cycle.
        """
        n = len(self.ring)
        ext = [(self.ring[(i + 1) % n][0], self.ring[i][1]) for i in reversed(range(n))]
        cycles = [ext] + self.cycles
        hmap, dart_cycles = pm.from_face_edge_cycles(cycles)
        n_darts = hmap.n_darts
        tail = [0] * n_darts
        label = [0] * n_darts
        for cyc, darts in zip(cycles, dart_cycles):
            for (v, e), d in zip(cyc, darts):
                tail[d] = v
                label[d] = e

        face_of, vertex_of = hmap.face_of, hmap.vertex_of
        # tuples of lists, not of generators: a generator's tuple is resized
        # around the free list but joins it when freed, and held memory grows
        order = tuple([face_of[darts[0]] for darts in dart_cycles])
        seq_to_face = dict(zip([EXT, *range(len(self.cycles))], order))
        vmap = [0] * self.nv  # Builder vertex -> map vertex of its smallest dart
        for d in range(n_darts - 1, -1, -1):
            vmap[tail[d]] = vertex_of[d]
        marks = {order[0]: (vmap[0],)}
        for f, mk in zip(order[1:], self.marks):
            marks[f] = tuple([vmap[x] for x in mk])
        template = Template(map=hmap, marks=marks, holes=frozenset(), face_order=order)
        lengths = None
        if self.edge_len is not None:
            lengths = tuple([self.edge_len[e] for e in label[::2]])
        return template, seq_to_face, lengths


def build_quilt_from_cells(cells):
    """Assemble the quilt determined by cell boundary lengths.

    ``cells`` carries the initial triple (l0+, r0-, r0+), the interior rows
    (l-, l+, r-, r+) and the derived closing lengths.  The closing 2-gon's
    side lengths must reproduce the conservation identities to rounding.
    The template must pass the validity report.  Returns (quilt,
    length_collision_count).
    """
    if not cells.sn2_satisfied():
        raise ConstraintViolated("cell lengths violate the cone constraints")
    b = Builder(
        r0_minus=cells.r0_minus, l0_plus=cells.l0_plus, r0_plus=cells.r0_plus
    )
    for row in cells.interior:
        b.add_face(lengths=tuple(row))
    b.close()
    template, _seq, lengths = b.build()
    quilt = Quilt(template=template, lengths=lengths)
    report = validate_template(template)
    if not report.passed:
        raise TemplateError(f"built template failed validation: {report.failures()}")
    f_last = template.face_order[-1]
    sides = quilt.side_lengths(f_last)
    l_close, r_close = sides[1], sides[0]
    if not conserved(max(abs(l_close - cells.l_end_minus), abs(r_close - cells.r_end_minus))):
        raise ConstraintViolated(
            "closing side lengths disagree with the conservation identities"
        )
    return quilt, b.collisions
