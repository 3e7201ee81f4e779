"""Open meanders, arc diagrams, winding functions, and the conditional
independence factorization.

An open meander of size m is a self-avoiding loop through infinity crossing
the real line transversally at 1..2m-1.  It is encoded by a pair of
noncrossing perfect matchings ("arc diagrams") on {1..2m-1} u {oo}, one
drawn in each half-plane.  Internally the point at infinity is stored as
2m, which is its position in the boundary cyclic order, so noncrossing is
the usual linear condition.

Loop orientation convention (global): the loop starts at infinity in the
lower half-plane and ends at infinity in the upper half-plane.  The winding
function theta labels crossing points with cumulative half-turns in units
of pi, theta(v1) = 0.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .errors import FactorizationViolation, MeanderError, SizeMismatch

UPPER = "upper"
LOWER = "lower"


def infinity_point(m: int) -> int:
    """Internal label of the point at infinity for size m."""
    return 2 * m


@dataclass(frozen=True)
class ArcDiagram:
    """Noncrossing perfect matching on {1..2m-1} u {oo}, one half-plane.

    ``pairs`` is a sorted tuple of sorted 2-tuples; oo is stored as 2m.
    Arc orientations are derived, not stored: along the real line arcs
    alternately enter and exit, which forces upper arcs to run from their
    odd endpoint to their even endpoint and lower arcs the other way
    around (infinity at position 2m counts as even).
    """

    m: int
    side: str
    pairs: tuple

    def __post_init__(self):
        if self.side not in (UPPER, LOWER):
            raise MeanderError(f"side must be 'upper' or 'lower', not {self.side!r}")
        pts = sorted(p for pair in self.pairs for p in pair)
        if pts != list(range(1, 2 * self.m + 1)):
            raise MeanderError("pairs are not a perfect matching on 1..2m")
        if not _noncrossing(self.pairs):
            raise MeanderError("matching is not noncrossing")

    @property
    def partner(self):
        d = {}
        for a, b in self.pairs:
            d[a] = b
            d[b] = a
        return d


def _noncrossing(pairs):
    for (a, b), (c, d) in itertools.combinations(pairs, 2):
        if a < c < b < d or c < a < d < b:
            return False
    return True


def enumerate_arc_diagrams(m: int, side: str):
    """All noncrossing perfect matchings on {1..2m-1} u {oo}; Catalan(m) many."""
    if m < 1:
        raise MeanderError(f"size must be >= 1, got {m}")
    out = []
    for pairs in _noncrossing_matchings(1, 2 * m):
        out.append(ArcDiagram(m=m, side=side, pairs=pairs))
    return out


@lru_cache(maxsize=None)
def _noncrossing_matchings(lo, hi):
    """Noncrossing perfect matchings of the interval [lo, hi], as tuples."""
    if lo > hi:
        return ((),)
    out = []
    for k in range(lo + 1, hi + 1, 2):
        left = _noncrossing_matchings(lo + 1, k - 1)
        right = _noncrossing_matchings(k + 1, hi)
        for a in left:
            for b in right:
                out.append(tuple(sorted(((lo, k),) + a + b)))
    return tuple(out)


def _trace_loop(upper: ArcDiagram, lower: ArcDiagram):
    """Follow the union of the two matchings starting at infinity.

    Starts along the lower arc at infinity and alternates half-planes.
    Returns the sequence of interior points visited (the crossing order if
    the union is a single loop).
    """
    inf = infinity_point(upper.m)
    up, lo = upper.partner, lower.partner
    order = []
    point = lo[inf]
    side = UPPER
    while point != inf:
        order.append(point)
        point = up[point] if side == UPPER else lo[point]
        side = LOWER if side == UPPER else UPPER
    return order


def is_single_loop(upper: ArcDiagram, lower: ArcDiagram) -> bool:
    """True iff the two diagrams glue to one loop through all crossings."""
    if upper.m != lower.m:
        raise SizeMismatch(f"sizes differ: {upper.m} vs {lower.m}")
    if upper.side != UPPER or lower.side != LOWER:
        raise MeanderError("expected an (upper, lower) pair")
    return len(_trace_loop(upper, lower)) == 2 * upper.m - 1


@dataclass(frozen=True)
class Meander:
    """Open meander: a glued (upper, lower) pair forming a single loop.

    Identity is exactly the matching pair; ``crossing_order`` is the order
    v_1..v_{2m-1} in which the oriented loop visits the real line.
    """

    upper: ArcDiagram
    lower: ArcDiagram
    crossing_order: tuple = field(compare=False)

    @property
    def m(self):
        return self.upper.m


def enumerate_meanders(m: int):
    """All open meanders of size m (2m-1 crossings), by pair filtering.

    This brute-force route over Catalan(m)^2 matching pairs is the trusted
    oracle; :func:`count_meanders_transfer_matrix` is the fast counting path.
    """
    uppers = enumerate_arc_diagrams(m, UPPER)
    lowers = enumerate_arc_diagrams(m, LOWER)
    out = []
    for up in uppers:
        for lo in lowers:
            order = _trace_loop(up, lo)
            if len(order) == 2 * m - 1:
                out.append(Meander(upper=up, lower=lo, crossing_order=tuple(order)))
    return out


@dataclass(frozen=True)
class WindingFunction:
    """theta indexed by point label v in 1..2m-1, stored in units of pi."""

    theta: tuple

    @property
    def m(self):
        return (len(self.theta) + 1) // 2

    def __getitem__(self, v):
        return self.theta[v - 1]


def winding_function(mnd: Meander) -> WindingFunction:
    """Winding labels along the loop: theta(v1)=0 and each arc adds +-pi.

    An arc adds +pi when traversed counterclockwise: upper arcs traversed
    right-to-left and lower arcs traversed left-to-right.
    """
    m = mnd.m
    theta = [None] * (2 * m - 1)
    order = mnd.crossing_order
    theta[order[0] - 1] = 0
    for i in range(len(order) - 1):
        a, b = order[i], order[i + 1]
        side = UPPER if i % 2 == 0 else LOWER  # first interior arc is upper
        if side == UPPER:
            step = 1 if b < a else -1
        else:
            step = 1 if b > a else -1
        theta[b - 1] = theta[a - 1] + step
    return WindingFunction(theta=tuple(theta))


def admissible_diagrams(theta: WindingFunction, side: str):
    """The admissible sets: for every arc x < y (both finite), upper-side
    diagrams need theta(y) = theta(x) - pi and lower-side diagrams
    theta(y) = theta(x) + pi.  The arc at infinity is unconstrained."""
    m = theta.m
    want = -1 if side == UPPER else 1
    inf = infinity_point(m)
    out = []
    for diag in enumerate_arc_diagrams(m, side):
        ok = True
        for a, b in diag.pairs:
            if b == inf:
                continue
            if theta[b] - theta[a] != want:
                ok = False
                break
        if ok:
            out.append(diag)
    return out


@dataclass(frozen=True)
class WindingClass:
    theta: tuple
    upper_count: int
    lower_count: int
    meander_count: int


@dataclass(frozen=True)
class FactorizationReport:
    m: int
    classes: tuple
    total_meanders: int

    def as_dict(self):
        return {
            "m": self.m,
            "classes": [
                {
                    "theta": list(c.theta),
                    "upper": c.upper_count,
                    "lower": c.lower_count,
                    "meanders": c.meander_count,
                }
                for c in self.classes
            ],
        }


def verify_factorization(m: int) -> FactorizationReport:
    """Check, exactly, that each winding class factors as A+ x A-.

    For every winding function theta realized at size m this asserts
    (i) the set of meanders with winding theta equals the full product of
    admissible diagram sets, and (ii) every product pair is a single loop.
    Raises FactorizationViolation otherwise (that would falsify the
    factorization, so tests treat it as failure).
    """
    meanders = enumerate_meanders(m)
    by_theta = {}
    for mnd in meanders:
        th = winding_function(mnd).theta
        by_theta.setdefault(th, []).append(mnd)

    classes = []
    for th in sorted(by_theta):
        group = by_theta[th]
        wf = WindingFunction(theta=th)
        a_plus = admissible_diagrams(wf, UPPER)
        a_minus = admissible_diagrams(wf, LOWER)
        got = {(mnd.upper.pairs, mnd.lower.pairs) for mnd in group}
        expect = {(u.pairs, l.pairs) for u in a_plus for l in a_minus}
        if got != expect:
            raise FactorizationViolation(
                f"class {th}: meander set differs from A+ x A- "
                f"({len(got)} vs {len(expect)})"
            )
        for u in a_plus:
            for l in a_minus:
                if not is_single_loop(u, l):
                    raise FactorizationViolation(
                        f"class {th}: product pair is not a single loop"
                    )
        classes.append(
            WindingClass(
                theta=th,
                upper_count=len(a_plus),
                lower_count=len(a_minus),
                meander_count=len(group),
            )
        )
    total = sum(c.meander_count for c in classes)
    if total != len(meanders):
        raise FactorizationViolation("classes do not partition the meander set")
    return FactorizationReport(m=m, classes=tuple(classes), total_meanders=total)


# --- transfer-matrix counting -------------------------------------------------

def count_meanders_transfer_matrix(m: int) -> int:
    """Count open meanders of size m by a left-to-right boundary-state DP.

    The state after scanning positions 1..k is the noncrossing matching of
    dangling strand ends on the cut line (uppers outermost-to-innermost,
    then lowers innermost-to-outermost) recording which ends are joined
    through the scanned part; u tracks how many ends are upper.  At each
    position the upper and the lower arc each either open a new strand or
    close the innermost dangling one; closing both sides of ends that are
    already joined would create a closed loop and is forbidden.  Accepting
    states after 2m-1 positions have exactly one upper and one lower end,
    joined to each other (the two arcs reaching infinity).

    Independent of the pair-filter enumeration; used as a cross-check.
    """
    if m < 1:
        raise MeanderError(f"size must be >= 1, got {m}")
    # state: (matching, u); matching[i] = partner index
    states = {((), 0): 1}
    for _ in range(2 * m - 1):
        nxt = {}

        def bump(state, cnt):
            nxt[state] = nxt.get(state, 0) + cnt

        for (mat, u), cnt in states.items():
            n = len(mat)
            l = n - u
            # open upper, open lower: insert an adjacent joined pair at the divider
            new = (
                tuple(p if p < u else p + 2 for p in mat[:u])
                + (u + 1, u)
                + tuple(p if p < u else p + 2 for p in mat[u:])
            )
            bump((new, u + 1), cnt)
            # open upper, close innermost lower: the slot at index u flips side
            if l >= 1:
                bump((mat, u + 1), cnt)
            # close innermost upper, open lower: the slot at index u-1 flips side
            if u >= 1:
                bump((mat, u - 1), cnt)
            # close both innermost ends, joining their partners
            if u >= 1 and l >= 1 and mat[u - 1] != u:
                p, q = mat[u - 1], mat[u]
                pairs = {p: q, q: p}
                kept = [i for i in range(n) if i not in (u - 1, u)]
                pos = {old: new for new, old in enumerate(kept)}
                new = tuple(
                    pos[pairs[i]] if i in pairs else pos[mat[i]] for i in kept
                )
                bump((new, u - 1), cnt)
        states = nxt
    return states.get(((1, 0), 1), 0)
