import math
import random

import numpy as np
import pytest

from quiltlab import curvature as cv
from quiltlab.errors import (
    DegenerateSegment,
    HopfViolation,
    NotSimple,
    PathDegeneratesUnderF,
)


def test_collinear_open_path():
    c = cv.PolygonalCurve(vertices=((0, 0), (1, 0), (2, 0)))
    assert cv.total_turning(c) == 0.0


def test_ccw_square_full_turn():
    sq = cv.PolygonalCurve(vertices=((0, 0), (1, 0), (1, 1), (0, 1)), closed=True)
    assert cv.total_turning(sq) == pytest.approx(2 * math.pi, abs=1e-12)
    assert cv.verify_hopf(sq) == 1


def test_cw_square_negative_turn():
    sq = cv.PolygonalCurve(vertices=((0, 0), (0, 1), (1, 1), (1, 0)), closed=True)
    assert cv.total_turning(sq) == pytest.approx(-2 * math.pi, abs=1e-12)
    assert cv.verify_hopf(sq) == -1


def test_tangent_sampled_half_circle():
    # 65 segments whose directions sample the upper-half-circle tangents;
    # the analytic half turn of the smooth arc is pi exactly
    k = 64
    h = math.pi / k
    pts = [(1.0, 0.0)]
    for j in range(k + 1):
        a = math.pi / 2 + j * math.pi / k
        x, y = pts[-1]
        pts.append((x + h * math.cos(a), y + h * math.sin(a)))
    c = cv.PolygonalCurve(vertices=tuple(pts))
    assert cv.total_turning(c) == pytest.approx(math.pi, abs=1e-6)


def test_inscribed_half_circle_has_chord_gap():
    # the inscribed polyline's tangents start and end on chords, so its
    # total turning is pi - pi/k exactly
    k = 64
    arc = cv.circular_arc(1 + 0j, -1 + 0j, k)
    assert cv.total_turning(arc) == pytest.approx(math.pi - math.pi / k, abs=1e-9)


def test_star_polygons_hopf(rng=None):
    rnd = random.Random(7)
    for _ in range(50):
        k = rnd.randrange(8, 51)
        ccw = rnd.random() < 0.5
        loop = cv.star_polygon(k, rnd, ccw=ccw)
        sign = cv.verify_hopf(loop)
        assert sign == (1 if ccw else -1)
        assert abs(abs(cv.total_turning(loop)) - 2 * math.pi) < 1e-9 * k


def test_not_simple_raises():
    bowtie = cv.PolygonalCurve(
        vertices=((0, 0), (1, 1), (1, 0), (0, 1)), closed=True
    )
    assert not cv.is_simple(bowtie)
    with pytest.raises(NotSimple):
        cv.verify_hopf(bowtie)


def test_open_curve_rejected_by_hopf():
    c = cv.PolygonalCurve(vertices=((0, 0), (1, 0), (1, 1)))
    with pytest.raises(NotSimple):
        cv.verify_hopf(c)


def test_hopf_violation_detected(monkeypatch):
    sliver = cv.PolygonalCurve(
        vertices=((0, 0), (1, 1e-12), (2, 0), (1, 1)), closed=True
    )
    # still a simple quadrilateral: Hopf holds
    assert cv.verify_hopf(sliver) in (-1, 1)
    # a total turning 10 tolerances off 2*pi on a simple loop is a violation
    tol = cv.HOPF_TOL_PER_VERTEX * len(sliver.vertices)
    monkeypatch.setattr(cv, "total_turning", lambda loop: 2 * math.pi + 10 * tol)
    with pytest.raises(HopfViolation):
        cv.verify_hopf(sliver)


def test_degenerate_cusp_raises():
    with pytest.raises(DegenerateSegment):
        cv.total_turning(cv.PolygonalCurve(vertices=((0, 0), (1, 0), (0, 0.0))))


def test_zero_segment_rejected():
    with pytest.raises(DegenerateSegment):
        cv.PolygonalCurve(vertices=((0, 0), (0, 0), (1, 0)))


def test_closed_duplicate_endpoint_rejected():
    with pytest.raises(DegenerateSegment):
        cv.PolygonalCurve(vertices=((0, 0), (1, 0), (0, 0)), closed=True)


def test_reversal_antisymmetry_exact():
    rnd = random.Random(3)
    for _ in range(25):
        pts = [(rnd.uniform(-1, 1), rnd.uniform(-1, 1)) for _ in range(12)]
        try:
            c = cv.PolygonalCurve(vertices=tuple(pts))
            total = cv.total_turning(c)
        except DegenerateSegment:
            continue
        assert cv.total_turning(c.reverse()) == -total
        angles = cv.turning_angles(c)
        back = cv.turning_angles(c.reverse())
        assert all(a == -b for a, b in zip(angles, reversed(back)))


# --- discrete arg f' ------------------------------------------------------------


def test_affine_map_gives_base_arg():
    f = lambda z: 2 * z + 1
    rnd = random.Random(1)
    for _ in range(10):
        zs = [complex(0, 0)]
        for _ in range(8):
            zs.append(zs[-1] + complex(rnd.uniform(0.1, 1), rnd.uniform(-1, 1)))
        path = cv.PolygonalCurve.from_complex(zs)
        out = cv.discrete_arg_derivative(f, zs[0], 0.25, zs[-1], path)
        assert out == pytest.approx(0.25, abs=1e-12)


def test_rotation_map_constant_arg():
    a = complex(math.cos(math.pi / 3), math.sin(math.pi / 3))
    f = lambda z: a * z
    path = cv.PolygonalCurve.from_complex([1 + 0j, 1 + 1j, 2j, -1 + 1j])
    out = cv.discrete_arg_derivative(f, 1 + 0j, math.pi / 3, -1 + 1j, path)
    assert out - math.pi / 3 == pytest.approx(0.0, abs=1e-12)


def test_square_map_along_circle_arc():
    # f(z) = z^2 on the unit circle from 1 to i: arg f' = arg(2z) advances
    # by pi/2 along the arc
    path = cv.circular_arc(1 + 0j, 1j, 64)
    out = cv.discrete_arg_derivative(lambda z: z * z, 1 + 0j, 0.0, 1j, path)
    seg = math.pi / 2 / 64
    assert abs(out - math.pi / 2) < 10 * seg


def test_path_independence_conformal():
    # two different simple paths from 1 to 1+1j under z^2 agree within the
    # documented tolerance
    f = lambda z: z * z
    p1 = cv.PolygonalCurve.from_complex([1 + 0j, 1.5 + 0.2j, 1.4 + 0.8j, 1 + 1j])
    p2 = cv.PolygonalCurve.from_complex([1 + 0j, 0.8 + 0.5j, 1 + 1j])
    o1 = cv.discrete_arg_derivative(f, 1 + 0j, 0.0, 1 + 1j, p1)
    o2 = cv.discrete_arg_derivative(f, 1 + 0j, 0.0, 1 + 1j, p2)
    max_seg = max(
        abs(complex(*b) - complex(*a))
        for a, b in zip(p1.vertices, p1.vertices[1:])
    )
    assert abs(o1 - o2) < 10 * max_seg


def test_homotopy_invariance_under_interior_deformation():
    f = lambda z: z * z + 3
    base = [1 + 0j, 1.2 + 0.4j, 1.1 + 0.9j, 1 + 1.4j]
    p1 = cv.PolygonalCurve.from_complex(base)
    wiggled = [base[0], base[1] + 0.05j, base[2] - 0.04j, base[3]]
    p2 = cv.PolygonalCurve.from_complex(wiggled)
    o1 = cv.discrete_arg_derivative(f, base[0], 0.0, base[-1], p1)
    o2 = cv.discrete_arg_derivative(f, base[0], 0.0, base[-1], p2)
    assert abs(o1 - o2) < 0.5  # same branch; small deformation


def test_image_collision_detected():
    f = lambda z: z * z
    path = cv.PolygonalCurve.from_complex([1 + 0j, -1 + 0j])
    with pytest.raises(PathDegeneratesUnderF):
        cv.discrete_arg_derivative(f, 1 + 0j, 0.0, -1 + 0j, path)


def test_segment_intersection_exact_fallback():
    # decisions at scales far below the float orientation threshold
    h = 2e-17
    a, b = (0.0, 0.0), (2.0, h)
    touch = (1.0, h / 2)  # exactly on the segment (h/2 is exact)
    assert cv.segments_intersect(a, b, touch, (1.0, 1.0))
    above = (1.0, math.nextafter(h / 2, 1.0))  # one ulp off the segment
    assert not cv.segments_intersect(a, b, above, (1.0, 1.0))


# --- simplicity: the filtered numpy test against the scalar pairwise oracle -------


def _is_simple_oracle(curve):
    """The scalar O(k^2) pairwise test: every segment pair in turn, each
    orientation through ``_orient``'s exact fallback."""
    segs = curve.segments()
    n = len(segs)
    for i in range(n):
        for j in range(i + 1, n):
            adjacent = j == i + 1 or (curve.closed and i == 0 and j == n - 1)
            a, b = segs[i]
            c, d = segs[j]
            if adjacent:
                # shared endpoint allowed; any further contact is a fold-back
                shared = b if j == i + 1 else a
                other_i = a if j == i + 1 else b
                other_j = d if j == i + 1 else c
                if cv._orient(c, d, other_i) == 0 and cv._on_segment(c, d, other_i):
                    if other_i != shared:
                        return False
                if cv._orient(a, b, other_j) == 0 and cv._on_segment(a, b, other_j):
                    if other_j != shared:
                        return False
                continue
            if cv.segments_intersect(a, b, c, d):
                return False
    return True


def _hopf_loops(seed):
    """The 1,000 star loops of ``_verify.check_hopf`` at ``seed``."""
    rng = random.Random(seed)
    loops = []
    for _ in range(1000):
        k = rng.randrange(8, 51)
        ccw = rng.random() < 0.5
        loops.append(cv.star_polygon(k, rng, ccw=ccw))
    return loops


def _near_degenerate_curves():
    """The 2e-17-scale pair of the exact-fallback test inside longer curves:
    the last segment ends exactly on the first, or one ulp above it."""
    h = 2e-17
    curves = []
    for y, simple in ((h / 2, False), (math.nextafter(h / 2, 1.0), True)):
        pts = ((0.0, 0.0), (2.0, h), (2.0, 3.0), (1.0, 1.0), (1.0, y))
        curves.append((cv.PolygonalCurve(vertices=pts), simple))
        curves.append((cv.PolygonalCurve(vertices=pts).reverse(), simple))
        shifted = ((-1.0, -1.0),) + pts
        curves.append((cv.PolygonalCurve(vertices=shifted), simple))
    return curves


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_is_simple_matches_oracle_on_hopf_loops(seed):
    for loop in _hopf_loops(seed):  # star-shaped, so simple
        assert cv.is_simple(loop) and _is_simple_oracle(loop)


def test_is_simple_matches_oracle_on_integer_curves():
    # small integer grids give collinear overlaps, touching vertices and
    # repeated points; a 1e-13 jitter puts points within the float filter
    rnd = random.Random(11)
    checked = simple = 0
    for trial in range(6000):
        k = rnd.randrange(2, 10)
        pts = [(rnd.randrange(6), rnd.randrange(6)) for _ in range(k)]
        if trial % 3 == 2:
            pts = [(x + rnd.uniform(-1e-13, 1e-13), y) for x, y in pts]
        try:
            curve = cv.PolygonalCurve(vertices=tuple(pts), closed=rnd.random() < 0.5)
        except DegenerateSegment:
            continue
        want = _is_simple_oracle(curve)
        assert cv.is_simple(curve) == want, curve
        checked += 1
        simple += want
    assert checked > 4000 and 0 < simple < checked


@pytest.mark.parametrize("pts, closed, simple", [
    (((0, 0), (2, 0), (1, 0)), False, False),            # folds back onto itself
    (((0, 0), (1, 0), (0, 0), (0, 1)), False, False),    # retraces exactly
    (((0, 0), (1, 0), (2, 0)), False, True),             # straight continuation
    (((1, 0), (2, 0), (2, 1), (3, 0)), True, False),     # closing segment overlaps
    (((1, 0), (2, 0), (2, 1), (0, 0)), True, True),      # closing segment continues
    (((0, 0), (1, 0)), True, False),                     # two-vertex closed curve
])
def test_is_simple_adjacent_fold_backs(pts, closed, simple):
    curve = cv.PolygonalCurve(vertices=pts, closed=closed)
    assert cv.is_simple(curve) == _is_simple_oracle(curve) == simple


def test_is_simple_exact_on_near_degenerate_pairs():
    for curve, simple in _near_degenerate_curves():
        assert cv.is_simple(curve) == _is_simple_oracle(curve) == simple


def test_is_simple_sends_undecided_pairs_to_the_exact_test(monkeypatch):
    calls = []
    exact = cv.segments_intersect

    def counted(*args):
        calls.append(args)
        return exact(*args)

    monkeypatch.setattr(cv, "segments_intersect", counted)
    assert all(cv.is_simple(loop) for loop in _hopf_loops(0)[:50])
    assert calls == []  # star loops clear the filter everywhere
    curve, simple = _near_degenerate_curves()[0]
    assert cv.is_simple(curve) == simple
    assert ((0.0, 0.0), (2.0, 2e-17), (1.0, 1.0), (1.0, 1e-17)) in calls
