import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiltlab import _verify
from quiltlab import meander as me
from quiltlab.errors import MeanderError, SizeMismatch

from helpers import catalan, oriented_arcs

# open meander counts by size (2m-1 crossings), frozen from the
# pair-filter oracle and cross-checked by the transfer matrix; verify-all
# stops at m = 5, the tests go on to m = 7
MEANDER_COUNTS = {**_verify.MEANDER_COUNTS, 6: 1828, 7: 13820}


def test_arc_diagram_counts_are_catalan():
    for m in range(1, 6):
        diags = me.enumerate_arc_diagrams(m, me.UPPER)
        assert len(diags) == catalan(m)
        assert len(set(d.pairs for d in diags)) == len(diags)


def test_arc_diagram_m1():
    (diag,) = me.enumerate_arc_diagrams(1, me.UPPER)
    assert diag.pairs == ((1, 2),)  # the single arc 1 - infinity


def test_noncrossing_rejected():
    with pytest.raises(MeanderError):
        me.ArcDiagram(m=2, side=me.UPPER, pairs=((1, 3), (2, 4)))


def test_orientations_alternate_along_line():
    for m in (2, 3):
        for diag in me.enumerate_arc_diagrams(m, me.UPPER):
            starts = {a for a, b in oriented_arcs(diag)}
            # upper arcs start at their odd endpoint
            assert all(p % 2 == 1 for p in starts)
        for diag in me.enumerate_arc_diagrams(m, me.LOWER):
            starts = {a for a, b in oriented_arcs(diag)}
            assert all(p % 2 == 0 for p in starts)


def test_is_single_loop_m1():
    (up,) = me.enumerate_arc_diagrams(1, me.UPPER)
    (lo,) = me.enumerate_arc_diagrams(1, me.LOWER)
    assert me.is_single_loop(up, lo)


def test_is_single_loop_m2_pairing():
    up = me.ArcDiagram(m=2, side=me.UPPER, pairs=((1, 2), (3, 4)))
    lo = me.ArcDiagram(m=2, side=me.LOWER, pairs=((1, 4), (2, 3)))
    assert me.is_single_loop(up, lo)


def test_multiloop_pair_exists_at_m3():
    uppers = me.enumerate_arc_diagrams(3, me.UPPER)
    lowers = me.enumerate_arc_diagrams(3, me.LOWER)
    assert any(
        not me.is_single_loop(u, l) for u, l in itertools.product(uppers, lowers)
    )


def test_size_mismatch():
    (up,) = me.enumerate_arc_diagrams(1, me.UPPER)
    lo = me.enumerate_arc_diagrams(2, me.LOWER)[0]
    with pytest.raises(SizeMismatch):
        me.is_single_loop(up, lo)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_meander_counts(m):
    assert len(me.enumerate_meanders(m)) == MEANDER_COUNTS[m]


@pytest.mark.parametrize("m", list(MEANDER_COUNTS))
def test_transfer_matrix_counts(m):
    assert me.count_meanders_transfer_matrix(m) == MEANDER_COUNTS[m]


def test_winding_function_figure_example():
    # the meander visiting the line at (3,2,1,4,7,6,5) carries winding
    # labels (0, pi, 0, -pi, 0, pi, 0)
    target = (3, 2, 1, 4, 7, 6, 5)
    (mnd,) = [m for m in me.enumerate_meanders(4) if m.crossing_order == target]
    wf = me.winding_function(mnd)
    assert wf.theta == (0, 1, 0, -1, 0, 1, 0)


def test_winding_m1():
    (mnd,) = me.enumerate_meanders(1)
    assert me.winding_function(mnd).theta == (0,)


def test_winding_steps_and_telescoping():
    for mnd in me.enumerate_meanders(3):
        wf = me.winding_function(mnd)
        order = mnd.crossing_order
        steps = [wf[order[i + 1]] - wf[order[i]] for i in range(len(order) - 1)]
        assert all(abs(s) == 1 for s in steps)
        ups = steps.count(1)
        downs = steps.count(-1)
        assert ups - downs == wf[order[-1]] - 0


def test_admissible_sets_figure_example():
    target = (3, 2, 1, 4, 7, 6, 5)
    (mnd,) = [m for m in me.enumerate_meanders(4) if m.crossing_order == target]
    wf = me.winding_function(mnd)
    assert len(me.admissible_diagrams(wf, me.UPPER)) == 2
    assert len(me.admissible_diagrams(wf, me.LOWER)) == 2


def test_admissible_sets_m1():
    wf = me.WindingFunction(theta=(0,))
    assert len(me.admissible_diagrams(wf, me.UPPER)) == 1
    assert len(me.admissible_diagrams(wf, me.LOWER)) == 1


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_factorization(m):
    report = me.verify_factorization(m)
    assert report.total_meanders == MEANDER_COUNTS[m]
    for cls in report.classes:
        assert cls.meander_count == cls.upper_count * cls.lower_count


def test_factorization_m1_single_class():
    report = me.verify_factorization(1)
    assert len(report.classes) == 1
    assert report.classes[0].meander_count == 1


def test_figure_class_count_four():
    report = me.verify_factorization(4)
    cls = {c.theta: c for c in report.classes}[(0, 1, 0, -1, 0, 1, 0)]
    assert (cls.upper_count, cls.lower_count, cls.meander_count) == (2, 2, 4)


def test_single_loop_closure_within_classes():
    for m in (2, 3):
        report = me.verify_factorization(m)
        for cls in report.classes:
            wf = me.WindingFunction(theta=cls.theta)
            for u in me.admissible_diagrams(wf, me.UPPER):
                for l in me.admissible_diagrams(wf, me.LOWER):
                    assert me.is_single_loop(u, l)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_random_pairings_must_be_noncrossing(m, rnd):
    pts = list(range(1, 2 * m + 1))
    rnd.shuffle(pts)
    pairs = tuple(sorted(tuple(sorted(pts[2 * i : 2 * i + 2])) for i in range(m)))
    crossing = any(
        a < c < b < d or c < a < d < b
        for (a, b), (c, d) in itertools.combinations(pairs, 2)
    )
    if crossing:
        with pytest.raises(MeanderError):
            me.ArcDiagram(m=m, side=me.UPPER, pairs=pairs)
    else:
        me.ArcDiagram(m=m, side=me.UPPER, pairs=pairs)
