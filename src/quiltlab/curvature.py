"""Total curvature (winding) of polygonal curves.

The total curvature of a polygonal curve is the sum of the signed exterior
angles at its interior vertices (all of them, plus the closure vertex, for
closed curves).  Each angle lies in the open interval (-pi, pi); an exact
cusp of +-pi has no well-defined sign and raises DegenerateSegment.  For a
simple closed curve the total is +-2*pi (the discrete Umlaufsatz), +
counterclockwise.

Every vertex of polygonal data is treated as a regular point; the curves
these routines are applied to are discretizations of curves that are regular
near their endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    DegenerateSegment,
    HopfViolation,
    NotSimple,
    PathDegeneratesUnderF,
)

HOPF_TOL_PER_VERTEX = 1e-9


@dataclass(frozen=True)
class PolygonalCurve:
    """Ordered planar points; ``closed`` closes implicitly (no repeated point).

    Consecutive vertices must be distinct.  Coordinates are dimensionless.
    """

    vertices: tuple
    closed: bool = False

    def __post_init__(self):
        pts = tuple((float(x), float(y)) for x, y in self.vertices)
        object.__setattr__(self, "vertices", pts)
        if len(pts) < 2:
            raise DegenerateSegment("need at least two vertices")
        for i in range(len(pts) - 1):
            if pts[i] == pts[i + 1]:
                raise DegenerateSegment(f"zero-length segment at index {i}")
        if self.closed and pts[0] == pts[-1]:
            raise DegenerateSegment(
                "closed curves use implicit closure; drop the repeated endpoint"
            )

    @classmethod
    def from_complex(cls, zs, closed=False):
        return cls(vertices=tuple((z.real, z.imag) for z in zs), closed=closed)

    def to_array(self):
        return np.asarray(self.vertices, dtype=float)

    def segments(self):
        pts = self.vertices
        segs = [(pts[i], pts[i + 1]) for i in range(len(pts) - 1)]
        if self.closed:
            segs.append((pts[-1], pts[0]))
        return segs

    def reverse(self):
        return PolygonalCurve(vertices=tuple(reversed(self.vertices)), closed=self.closed)

    @property
    def n_segments(self):
        return len(self.vertices) - 1 + (1 if self.closed else 0)


def _turn(u, w):
    """Signed exterior angle between direction u and direction w, in (-pi, pi)."""
    cross = u[0] * w[1] - u[1] * w[0]
    dot = u[0] * w[0] + u[1] * w[1]
    if cross == 0.0 and dot < 0.0:
        raise DegenerateSegment("exact cusp (turning angle of +-pi)")
    return math.atan2(cross, dot)


def turning_angles(curve: PolygonalCurve):
    """Exterior angles at interior vertices (and the closure vertex if closed)."""
    pts = curve.vertices
    n = len(pts)
    dirs = [(pts[i + 1][0] - pts[i][0], pts[i + 1][1] - pts[i][1]) for i in range(n - 1)]
    if curve.closed:
        dirs.append((pts[0][0] - pts[-1][0], pts[0][1] - pts[-1][1]))
    angles = []
    for i in range(len(dirs) - 1):
        angles.append(_turn(dirs[i], dirs[i + 1]))
    if curve.closed:
        angles.append(_turn(dirs[-1], dirs[0]))
    return angles


def total_turning(curve: PolygonalCurve) -> float:
    """Total curvature of the curve in radians.

    Term-by-term the angles of the reversed curve are the negatives of the
    original ones, and the fsum makes the totals negate exactly.
    """
    if curve.n_segments < 2:
        raise DegenerateSegment("need at least two segments")
    return math.fsum(turning_angles(curve))


# --- exact-orientation segment intersection ------------------------------------

_ORIENT_EPS = 1e-12


def _orient(a, b, c):
    """Sign of the cross product (b-a) x (c-a), exact near degeneracy."""
    det = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
    scale = max(
        abs(b[0] - a[0]), abs(c[1] - a[1]), abs(b[1] - a[1]), abs(c[0] - a[0]), 1.0
    )
    if abs(det) > _ORIENT_EPS * scale * scale:
        return 1 if det > 0 else -1
    fa = (Fraction(a[0]), Fraction(a[1]))
    fb = (Fraction(b[0]), Fraction(b[1]))
    fc = (Fraction(c[0]), Fraction(c[1]))
    fd = (fb[0] - fa[0]) * (fc[1] - fa[1]) - (fb[1] - fa[1]) * (fc[0] - fa[0])
    return (fd > 0) - (fd < 0)


def _on_segment(a, b, p):
    """p collinear with a-b: is p within the closed segment box?"""
    return (
        min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
        and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
    )


def segments_intersect(p1, p2, q1, q2) -> bool:
    """Closed-segment intersection with exact orientation fallback."""
    o1 = _orient(p1, p2, q1)
    o2 = _orient(p1, p2, q2)
    o3 = _orient(q1, q2, p1)
    o4 = _orient(q1, q2, p2)
    if o1 != o2 and o3 != o4:
        return True
    if o1 == 0 and _on_segment(p1, p2, q1):
        return True
    if o2 == 0 and _on_segment(p1, p2, q2):
        return True
    if o3 == 0 and _on_segment(q1, q2, p1):
        return True
    if o4 == 0 and _on_segment(q1, q2, p2):
        return True
    return False


def nonadjacent_pairs(k: int, closed: bool):
    """Index arrays (i, j), i < j, of the segment pairs of a k-segment curve
    that share no endpoint.  Segment i runs from vertex i to vertex i + 1;
    on a closed curve the last segment also meets the first."""
    i, j = np.triu_indices(k, 2)
    if closed:
        keep = ~((i == 0) & (j == k - 1))
        i, j = i[keep], j[keep]
    return i, j


def _orientation_signs(pts, n):
    """Signs of ``_orient(pts[s], pts[s + 1], pts[v])`` for each of the first
    n segments s (indices cyclic) and every vertex v, as an (n, len(pts))
    int8 array; 0 where ``_orient``'s float filter cannot decide the sign.

    The determinant is the same IEEE expression, operation for operation, so
    every nonzero entry is the sign ``_orient`` returns.
    """
    a = pts[:n, None, :]
    b = np.roll(pts, -1, axis=0)[:n, None, :]
    bax, bay = b[..., 0] - a[..., 0], b[..., 1] - a[..., 1]
    cax, cay = pts[:, 0] - a[..., 0], pts[:, 1] - a[..., 1]
    det = bax * cay - bay * cax
    scale = np.maximum(
        np.maximum(np.maximum(np.abs(bax), np.abs(cay)),
                   np.maximum(np.abs(bay), np.abs(cax))),
        1.0,
    )
    return np.where(np.abs(det) > _ORIENT_EPS * scale * scale,
                    np.sign(det), 0.0).astype(np.int8)


def _folds_back(a, b, d):
    """Segments a-b and b-d meet somewhere besides their shared endpoint b."""
    return (_orient(b, d, a) == 0 and _on_segment(b, d, a)) or (
        _orient(a, b, d) == 0 and _on_segment(a, b, d)
    )


def is_simple(curve: PolygonalCurve) -> bool:
    """No two non-adjacent segments intersect; adjacent ones only share the
    common endpoint.

    Every vertex is first oriented against every segment in floating point,
    in one numpy pass, and the sign is accepted where |det| clears the
    ``_ORIENT_EPS * scale**2`` filter of ``_orient``.  A non-adjacent pair
    whose four orientations all clear it crosses iff they separate both
    segments, and an adjacent pair whose two clear it does not fold back.
    Every other pair is decided by the scalar test with its exact
    ``Fraction`` fallback, so the answer is that of the exact pairwise test.
    """
    segs = curve.segments()
    n = len(segs)
    pts = curve.to_array()
    nv = len(pts)
    sign = _orientation_signs(pts, n)
    # adjacent pairs (m, m + 1), cyclically on a closed curve
    m = np.arange(n if curve.closed else n - 1)
    nxt = (m + 1) % n
    for r in np.flatnonzero(sign[nxt, m] * sign[m, (m + 2) % nv] == 0):
        if _folds_back(*segs[m[r]], segs[nxt[r]][1]):
            return False
    i, j = nonadjacent_pairs(n, curve.closed)
    s1, s2 = sign[i, j], sign[i, (j + 1) % nv]
    s3, s4 = sign[j, i], sign[j, i + 1]
    if np.any((s1 * s2 < 0) & (s3 * s4 < 0)):
        return False
    return not any(
        segments_intersect(*segs[i[r]], *segs[j[r]])
        for r in np.flatnonzero(s1 * s2 * s3 * s4 == 0)
    )


def verify_hopf(loop: PolygonalCurve) -> int:
    """Umlaufsatz check: returns +1 (ccw) / -1 (cw) for a simple closed loop.

    Asserts |total turning| = 2*pi within 1e-9 per vertex; raises NotSimple
    or HopfViolation otherwise.
    """
    if not loop.closed:
        raise NotSimple("verify_hopf needs a closed curve")
    if not is_simple(loop):
        raise NotSimple("curve is not simple")
    total = total_turning(loop)
    tol = HOPF_TOL_PER_VERTEX * len(loop.vertices)
    if abs(abs(total) - 2 * math.pi) > tol:
        raise HopfViolation(f"|total turning| = {abs(total)!r} is not 2*pi +- {tol}")
    return 1 if total > 0 else -1


# --- discrete arg f' -----------------------------------------------------------

def map_curve(f, curve: PolygonalCurve) -> PolygonalCurve:
    """Apply a complex map pointwise; consecutive collisions are an error."""
    zs = [complex(x, y) for x, y in curve.vertices]
    ws = [complex(f(z)) for z in zs]
    for i in range(len(ws) - 1):
        if ws[i] == ws[i + 1]:
            raise PathDegeneratesUnderF(f"image points {i} and {i + 1} coincide")
    return PolygonalCurve.from_complex(ws, closed=curve.closed)


def discrete_arg_derivative(f, base, base_arg, target, path: PolygonalCurve) -> float:
    """Continuation of arg f' from ``base`` to ``target`` along ``path``:

        arg f'(target) = base_arg + w(f o path) - w(path)

    where w is total turning.  ``f`` maps complex to complex and must be
    injective on the path.
    """
    base = complex(base)
    target = complex(target)
    first = complex(*path.vertices[0])
    last = complex(*path.vertices[-1])
    if abs(first - base) > 1e-12 * max(1.0, abs(base)):
        raise ValueError("path does not start at base")
    if abs(last - target) > 1e-12 * max(1.0, abs(target)):
        raise ValueError("path does not end at target")
    image = map_curve(f, path)
    return base_arg + total_turning(image) - total_turning(path)


# --- fixture helpers -------------------------------------------------------------

def regular_polygon(k: int, ccw=True, radius=1.0, center=(0.0, 0.0)) -> PolygonalCurve:
    pts = []
    for i in range(k):
        a = 2 * math.pi * i / k
        pts.append((center[0] + radius * math.cos(a), center[1] + radius * math.sin(a)))
    if not ccw:
        pts.reverse()
    return PolygonalCurve(vertices=tuple(pts), closed=True)


def star_polygon(k: int, rng, jitter=0.45, ccw=True) -> PolygonalCurve:
    """Random star-shaped polygon: radial jitter guarantees simplicity."""
    pts = []
    for i in range(k):
        a = 2 * math.pi * i / k
        r = 1.0 + jitter * (2.0 * rng.random() - 1.0)
        pts.append((r * math.cos(a), r * math.sin(a)))
    if not ccw:
        pts.reverse()
    return PolygonalCurve(vertices=tuple(pts), closed=True)


def circular_arc(z0: complex, z1: complex, k: int, ccw=True) -> PolygonalCurve:
    """Polyline along the origin-centered circular arc from z0 to z1."""
    r0, a0 = abs(z0), math.atan2(z0.imag, z0.real)
    a1 = math.atan2(z1.imag, z1.real)
    if ccw and a1 <= a0:
        a1 += 2 * math.pi
    if not ccw and a1 >= a0:
        a1 -= 2 * math.pi
    angles = [a0 + (a1 - a0) * i / k for i in range(k + 1)]
    zs = [r0 * complex(math.cos(a), math.sin(a)) for a in angles]
    return PolygonalCurve.from_complex(zs)
