"""Desk-scale simulator of the Poissonized mating-of-trees discretization.

Pipeline: sample a correlated two-dimensional Gaussian bridge from (0, 1)
to (0, 0) conditioned to stay in the closed quadrant, cut its time axis by
a Poisson process, refine the walk at the cut times with sub-grid bridge
values and minima, read off per-cell boundary lengths from increments and
running infima, and assemble the quilt.

Conventions and proxies, documented once:

* variance: a^2 = 2 / sin(pi gamma^2 / 4); correlation -cos(pi gamma^2 / 4).
* the duration prior over total time is improper in the idealized model; we
  fix a configurable total duration (default 1.0) as a bounded proxy and
  treat the walk as a discrete bridge with ``steps`` increments.
* the quadrant conditioning is exact on the grid, with no rejection on L:
  a free bridge's increments are exchangeable, so exactly one cyclic shift
  of them, the one that starts at the argmin, stays >= 0 (the cycle lemma),
  and that shift has the law of the bridge conditioned to stay >= 0 (the
  discrete Vervaat transform).  Given L, R = 1 + rho L + sqrt(1 - rho^2) W
  with W an independent bridge, so a proposal pairs the shifted L with a
  fresh W and is rejected only when R < 0 at a grid point; the accepted law
  is that of the bridge conditioned on the quadrant.  ``rejections`` counts
  these R-stage proposals.  Seeded walks and quilts differ from versions
  that rejected on both coordinates; the law is the same.
* the partition has at least one cut by construction: the first cut is
  Exp(1 / epsilon) truncated to (0, t), the rest a Poisson partition of
  (first, t], exact as the process is memoryless.  Seeded quilts differ
  from versions that redrew partitions with no cut; the law is the same.
* between two neighbouring points the walk is, coordinate by coordinate, a
  Brownian bridge conditioned to stay >= 0: the value at each Poisson cut
  time and the minimum over each sub-interval are drawn from that law
  (:func:`refine_walk`), with no snapping to the grid and no redraw.  The
  coordinates are treated separately, which is exact at gamma = sqrt 2
  (correlation 0); at other gamma it ignores the cross-dependence of L and
  R within one step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._builder import build_quilt_from_cells
from .errors import (
    GammaOutOfRange,
    MatingError,
    PartitionMismatch,
    RejectionBudgetExceeded,
)
from .fields import _familywise_z

# the largest expected cut count t / epsilon: on a 2-CPU x86_64 machine one
# quilt took 12-17 s at 10^5 and did not return within 120 s at 10^6
MAX_EXPECTED_CUTS = 1e5
CALIBRATION_Z_MAX = 4.0  # family-wise z of the covariance calibration


@dataclass(frozen=True)
class MotParams:
    """Simulation parameters with the derived mating-of-trees constants."""

    gamma: float
    variance: float
    correlation: float
    epsilon: float
    steps: int
    seed: int
    duration: float = 1.0


def mot_params(gamma, epsilon, steps, seed, duration=1.0) -> MotParams:
    if not 0 < gamma < 2:
        raise GammaOutOfRange(f"gamma must lie in (0, 2), got {gamma}")
    if not (0 < epsilon < math.inf and 0 < duration < math.inf) or steps < 2:
        raise MatingError("epsilon, duration must be positive and finite and steps >= 2")
    if duration / epsilon > MAX_EXPECTED_CUTS:
        raise MatingError(f"duration / epsilon must be <= {MAX_EXPECTED_CUTS:g} expected cuts")
    angle = math.pi * gamma * gamma / 4.0
    return MotParams(
        gamma=gamma,
        variance=2.0 / math.sin(angle),
        correlation=-math.cos(angle),
        epsilon=epsilon,
        steps=int(steps),
        seed=int(seed),
        duration=float(duration),
    )


@dataclass
class ConeWalk:
    """Discrete bridge (L_t, R_t) from (0, 1) to (0, 0) in the quadrant.

    ``L_min`` and ``R_min`` hold the minimum of each coordinate over each
    sub-interval [times[k], times[k+1]] of a refined walk
    (:func:`refine_walk`); on a grid-only walk they are None and the minima
    are read at the points.
    """

    times: np.ndarray
    L: np.ndarray
    R: np.ndarray
    rejections: int = 0
    L_min: np.ndarray | None = None
    R_min: np.ndarray | None = None

    @property
    def duration(self):
        return float(self.times[-1])

    def sub_minima(self):
        """(L, R) minima over each sub-interval between consecutive points."""
        if self.L_min is not None:
            return self.L_min, self.R_min
        L = np.asarray(self.L, dtype=float)
        R = np.asarray(self.R, dtype=float)
        return np.minimum(L[:-1], L[1:]), np.minimum(R[:-1], R[1:])


def _increment_mix(p: MotParams, a, b, drift=0.0):
    """(L, R) = (sd a, drift + rho sd a + sqrt(1 - rho^2) sd b), sd^2 the
    per-step variance ``variance * dt``.

    Fed independent standard-normal increments a and b, this is one step
    of the generator: increments of covariance variance dt [[1, rho],
    [rho, 1]], the target of :func:`calibrate_covariance`.  Fed partial
    sums, it mixes whole paths, which is how :func:`_cone_proposals` uses
    it, with R's pinned descent from 1 to 0 as ``drift``.
    """
    sd = math.sqrt(p.variance * p.duration / p.steps)
    rho = p.correlation
    L = sd * a
    return L, drift + rho * L + (math.sqrt(1.0 - rho * rho) * sd) * b


def _cone_proposals(p: MotParams, count, rng):
    """(L, R) grid values of ``count`` proposals, each of shape
    (count, steps + 1), with L >= 0, L[0] = L[n] = 0, R[0] = 1 and R[n] = 0
    exactly.

    L is a free bridge s from 0 to 0 shifted cyclically to start at its
    argmin k, L[j] = s[(k + j) mod n] - s[k]: a difference, never a sum of
    shifted increments, so no rounding takes it below 0.  R is
    1 + rho L + sqrt(1 - rho^2) W, W an independent bridge from 0 to
    -1 / sqrt(1 - rho^2), written as (1 - j/n) + rho L + sqrt(1 - rho^2) w
    with w a bridge from 0 to 0, whose end is 0.0 exactly.  Both are scaled
    and mixed by :func:`_increment_mix`.
    """
    n = p.steps
    frac = np.arange(n + 1) / n
    walks = np.zeros((2, count, n + 1))
    np.cumsum(rng.standard_normal((2, count, n)), axis=2, out=walks[:, :, 1:])
    walks -= frac * walks[:, :, n:]  # pinned: both end at 0.0 exactly
    s, w = walks
    rows = np.arange(count)[:, None]
    k = s[:, :n].argmin(axis=1)[:, None]
    return _increment_mix(p, s[rows, (k + np.arange(n + 1)) % n] - s[rows, k], w, 1.0 - frac)


def sample_cone_walk(p: MotParams, rng=None, max_proposals=2_000_000,
                     batch=16) -> ConeWalk:
    """First quadrant-positive bridge from a rejection stream.

    Proposals come in batches of ``batch``; L is drawn already >= 0 by the
    cyclic shift of :func:`_cone_proposals`, and a proposal is rejected when
    R < 0 at a grid point.  The walk is the lowest-indexed survivor.  Raises
    RejectionBudgetExceeded after ``max_proposals`` proposals; the number
    drawn before the walk is recorded on it as ``rejections``.
    """
    if rng is None:
        rng = np.random.default_rng(p.seed)
    times = np.linspace(0.0, p.duration, p.steps + 1)
    tried = 0
    while tried < max_proposals:
        take = min(batch, max_proposals - tried)
        L, R = _cone_proposals(p, take, rng)
        kept = np.flatnonzero(R.min(axis=1) >= 0.0)
        if kept.size:
            i = int(kept[0])
            return ConeWalk(times=times, L=L[i].copy(), R=R[i].copy(),
                            rejections=tried + i)
        tried += take
    raise RejectionBudgetExceeded(
        f"no quadrant-positive bridge in {max_proposals} proposals "
        f"(gamma={p.gamma}, steps={p.steps})"
    )


def poisson_partition(t, epsilon, seed=None, rng=None) -> np.ndarray:
    """Durations cut from [0, t] by a rate-1/epsilon Poisson process.

    The part count is (number of Poisson points) + 1 and the parts sum to t
    exactly.
    """
    if t <= 0 or epsilon <= 0:
        raise MatingError("t and epsilon must be positive")
    if not t / epsilon <= MAX_EXPECTED_CUTS:
        raise MatingError(f"t / epsilon must be <= {MAX_EXPECTED_CUTS:g} expected cuts")
    if rng is None:
        rng = np.random.default_rng(seed)
    n_points = rng.poisson(t / epsilon)
    cuts = np.sort(rng.uniform(0.0, t, size=n_points))
    knots = np.concatenate(([0.0], cuts, [t]))
    return np.diff(knots)


@dataclass(frozen=True)
class CellLengths:
    """Per-cell boundary lengths of the discretized disk.

    The initial cell contributes (l0+, r0-, r0+); each interior cell a
    quadruple (l-, l+, r-, r+); the final cell's lengths are the conserved
    quantities (l_end-, r_end-).  Boundary-cell conventions l0- = 0 and
    l_end+ = r_end+ = 0 are stored as observed deficits: they vanish exactly
    when the walk stays in the quadrant on the first and last parts.  The
    lengths are fixed once made, so the cone margins are worked out once.
    """

    l0_plus: float
    r0_minus: float
    r0_plus: float
    interior: np.ndarray  # (n, 4) columns l-, l+, r-, r+
    l_end_minus: float
    r_end_minus: float
    first_l_deficit: float = 0.0
    last_l_deficit: float = 0.0
    last_r_deficit: float = 0.0

    @property
    def n_cells(self):
        return len(self.interior) + 2

    def conservation_residual(self):
        """Telescoping identities for the closing lengths."""
        l = self.l0_plus + float(np.sum(self.interior[:, 1] - self.interior[:, 0]))
        r = 1.0 + (self.r0_plus - self.r0_minus) + float(
            np.sum(self.interior[:, 3] - self.interior[:, 2])
        )
        return max(abs(l - self.l_end_minus), abs(r - self.r_end_minus))

    def sn2_margins(self):
        """The 2n+1 strict cone sums (positive iff the constraints hold), as
        a read-only array kept on the object: not a field, so out of eq and
        repr."""
        if "_margins" not in self.__dict__:
            margins = _cone_margins(self)
            margins.flags.writeable = False
            object.__setattr__(self, "_margins", margins)
        return self._margins

    def sn2_satisfied(self):
        """Cone constraints plus the boundary-cell zero conventions.

        The strict sums only see the interior parts; the first part's L dip
        and the last part's dips are covered by the stored deficits, which
        must vanish for the walk to stay in the quadrant.
        """
        deficits = (self.first_l_deficit, self.last_l_deficit, self.last_r_deficit)
        return bool((self.sn2_margins() > 0).all()) and all(d <= 0.0 for d in deficits)

    def degenerate(self):
        """A zero cell side or zero cone margin: probability zero under the
        sub-grid law of :func:`refine_walk`."""
        vals = [self.l0_plus, self.r0_minus, self.r0_plus,
                self.l_end_minus, self.r_end_minus]
        if self.interior.size:
            vals.append(float(self.interior.min()))
        return min(vals) <= 0.0 or float(self.sn2_margins().min()) <= 0.0


def _cone_margins(cells: CellLengths):
    """The strict cone sums of :meth:`CellLengths.sn2_margins`."""
    lm = cells.interior[:, 0]
    lp = cells.interior[:, 1]
    rm = cells.interior[:, 2]
    rp = cells.interior[:, 3]
    run_l = cells.l0_plus + np.concatenate(([0.0], np.cumsum(lp - lm)[:-1]))
    margins = list(run_l - lm)
    run_r = 1.0 + np.concatenate(
        ([0.0], np.cumsum(np.concatenate(([cells.r0_plus - cells.r0_minus], rp - rm)))[:-1])
    )
    margins.append(1.0 - cells.r0_minus)
    margins.extend(run_r[1:] - rm)
    return np.array(margins)


def _log_survival(c, x):
    """(log h, d log h / dx) at x > 0 of h = 1 - exp(-c x), and of h = x
    where c = 0.

    1 - exp(-2 a x / (var u)) is the probability that a Brownian bridge
    from a to x over time u stays >= 0; at a = 0 it vanishes, and x, the
    limit of h / c, is the h-transform that replaces it.  log h is concave
    in x.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        cx = c * x
        log_h = np.where(c > 0, np.log(-np.expm1(-cx)), np.log(x))
        slope = np.where(c > 0, c / np.expm1(cx), 1.0 / x)
    return log_h, slope


def _bridge_cut_values(a, b, u1, u2, var, rng):
    """Values at time u1 of Brownian bridges (variance ``var`` per unit
    time) from a at time 0 to b at time u1 + u2, conditioned to stay >= 0.

    The density is proportional to phi(x) h_a(x) h_b(x) on x > 0, phi the
    bridge's N(mu, s^2) marginal and h the survival factors of
    :func:`_log_survival`.  Their log S is concave, so the tangent at any
    x0 bounds it: S(x) <= S(x0) + S'(x0) (x - x0).  The proposal is phi
    times that exponential, which is N(mu + s^2 S'(x0), s^2), accepted with
    probability exp(S(x) - S(x0) - S'(x0) (x - x0)).  x0 is the mode of
    phi(x) x^2, which bounds the target's mode from above, so that
    |S'(x0)| s stays bounded and the acceptance stays bounded below for all
    (a, b, u1, u2), endpoints at or near 0 included.  Returns (values,
    tries), tries the proposals drawn for each value.
    """
    tau = u1 + u2
    mu = a + (b - a) * (u1 / tau)
    s2 = var * u1 * u2 / tau
    ca, cb = 2.0 * a / (var * u1), 2.0 * b / (var * u2)
    x0 = 0.5 * (mu + np.sqrt(mu * mu + 8.0 * s2))
    (ha, da), (hb, db) = _log_survival(ca, x0), _log_survival(cb, x0)
    log_h0, slope0 = ha + hb, da + db
    mean, sd = mu + s2 * slope0, np.sqrt(s2)
    out = np.empty_like(mu)
    tries = np.zeros(mu.shape, dtype=int)
    todo = np.arange(mu.size)
    while todo.size:
        tries[todo] += 1
        x = mean[todo] + sd[todo] * rng.standard_normal(todo.size)
        log_u = np.log(rng.random(todo.size))
        pos = x > 0.0
        xp = np.where(pos, x, 1.0)
        (ha, _), (hb, _) = _log_survival(ca[todo], xp), _log_survival(cb[todo], xp)
        gap = ha + hb - log_h0[todo] - slope0[todo] * (xp - x0[todo])
        ok = pos & (log_u <= gap)
        out[todo[ok]] = x[ok]
        todo = todo[~ok]
    return out, tries


def _bridge_minima(a, b, tau, var, rng):
    """Minima of Brownian bridges from a to b over time tau, conditioned to
    stay >= 0, by inversion of
    P(min > m) = (1 - e^{-2(a-m)(b-m)/(var tau)}) / (1 - e^{-2ab/(var tau)}).

    With U uniform, q = (a-m)(b-m) = -(c/2) log(1 - U (1 - e^{-y})) and
    ab - q = (c/2) log(1 + (1-U)(e^y - 1)), c = var tau and y = 2ab/c; the
    smaller root is written as 2(ab - q) / (a + b + sqrt((a-b)^2 + 4q)),
    so no difference of close numbers is taken and the minimum lies
    strictly in (0, min(a, b)) when a, b > 0.  It is 0 where a or b is 0.
    """
    c = var * tau
    ab = a * b
    y = 2.0 * ab / c
    u = rng.random(np.shape(a))
    q = -0.5 * c * np.log1p(u * np.expm1(-y))
    # (1-U)(e^y - 1) overflows past y = 700, where e^{-y} no longer counts
    gap = np.where(y > 700.0, ab + 0.5 * c * np.log1p(-u),
                   0.5 * c * np.log1p((1.0 - u) * np.expm1(np.minimum(y, 700.0))))
    den = a + b + np.sqrt((a - b) ** 2 + 4.0 * q)
    return np.where(ab > 0.0, 2.0 * gap / np.where(den > 0.0, den, 1.0), 0.0)


def refine_walk(walk: ConeWalk, cuts, variance, rng):
    """The walk refined at the cut times, with its sub-interval minima.

    Each coordinate, between two neighbouring points, is a Brownian bridge
    of the given variance per unit time conditioned to stay >= 0.  The
    value at each cut time is drawn given its left neighbour (a grid point
    or an earlier cut of the same grid step) and the next grid point, which
    is exact by the Markov property; then the minimum over each sub-interval
    of the refined walk.  Returns (refined walk, index of each cut in it).
    """
    times = np.asarray(walk.times, dtype=float)
    cuts = np.asarray(cuts, dtype=float)
    if not (cuts[1:] > cuts[:-1]).all():
        cuts = np.unique(cuts)
    if cuts.size and not (0.0 < cuts[0] and cuts[-1] < times[-1]):
        raise PartitionMismatch("cut times must lie strictly inside the walk")
    grid = np.column_stack((walk.L, walk.R)).astype(float)
    if not grid.min() >= 0.0:
        raise MatingError("refine_walk needs a walk in the closed quadrant")
    # merge the sorted cuts into the grid: a cut at a grid time is that point
    pos = np.searchsorted(times, cuts)  # first grid time >= each cut
    off = times[pos] != cuts
    new = cuts[off]
    at_cut = pos + (np.cumsum(off) - off)  # index of each cut in t
    at_new = at_cut[off]
    at_grid = np.arange(times.size) + np.searchsorted(new, times)
    t = np.empty(times.size + new.size)
    t[at_grid] = times
    t[at_new] = new
    vals = np.empty((t.size, 2))
    vals[at_grid] = grid
    if new.size:
        step = pos[off] - 1  # the grid step holding each cut
        right = at_grid[step + 1]
        rank = at_new - at_grid[step] - 1  # earlier cuts in the same step
        for r in range(int(rank.max()) + 1):
            p, q = at_new[rank == r], right[rank == r]
            x, _ = _bridge_cut_values(
                vals[p - 1].ravel(), vals[q].ravel(), np.repeat(t[p] - t[p - 1], 2),
                np.repeat(t[q] - t[p], 2), variance, rng)
            vals[p] = x.reshape(-1, 2)
    low = _bridge_minima(vals[:-1], vals[1:], np.diff(t)[:, None], variance, rng)
    refined = ConeWalk(times=t, L=vals[:, 0].copy(), R=vals[:, 1].copy(),
                       rejections=walk.rejections,
                       L_min=low[:, 0].copy(), R_min=low[:, 1].copy())
    return refined, at_cut


def cell_lengths_at(walk: ConeWalk, cut_indices) -> CellLengths:
    """Cell lengths with the cuts at the given interior point indices: each
    cell's minima are those of its sub-intervals (:meth:`ConeWalk.sub_minima`)."""
    L = np.asarray(walk.L, dtype=float)
    R = np.asarray(walk.R, dtype=float)
    bounds = np.concatenate(([0], np.asarray(cut_indices, dtype=int), [len(L) - 1]))
    if (bounds[1:] <= bounds[:-1]).any():
        raise PartitionMismatch("cut indices must be strictly increasing")
    sub_l, sub_r = walk.sub_minima()
    low_l = np.minimum.reduceat(sub_l, bounds[:-1])
    low_r = np.minimum.reduceat(sub_r, bounds[:-1])
    a, b = bounds[1:-2], bounds[2:-1]
    ml, mr = low_l[1:-1], low_r[1:-1]
    interior = np.column_stack((L[a] - ml, L[b] - ml, R[a] - mr, R[b] - mr))
    k1, klast = bounds[1], bounds[-2]
    return CellLengths(
        l0_plus=float(L[k1] - L[0]),
        r0_minus=float(R[0] - low_r[0]),
        r0_plus=float(R[k1] - low_r[0]),
        interior=interior,
        l_end_minus=float(L[klast] - L[-1]),
        r_end_minus=float(R[klast] - R[-1]),
        first_l_deficit=float(L[0] - low_l[0]),
        last_l_deficit=float(L[-1] - low_l[-1]),
        last_r_deficit=float(R[-1] - low_r[-1]),
    )


@dataclass
class SimulationResult:
    quilt: object
    cells: CellLengths
    walk: ConeWalk
    provenance: dict


def simulate_discretized_disk(p: MotParams, rng=None) -> SimulationResult:
    """End-to-end pipeline: walk -> Poisson parts -> refined walk -> cell
    lengths -> quilt.

    Deterministic given (params, seed): all randomness flows from one
    generator seeded by ``p.seed``, and seeded quilts differ from versions
    that drew the walk by rejection on both coordinates.  One walk is drawn
    (:func:`sample_cone_walk`) and one partition with at least one cut, so
    the part count is 1 + Poisson(t / epsilon) conditioned on at least one
    cut, with no redraw.  The provenance counts the walks (always 1) and the
    proposals rejected before the walk (``rejections``: R-stage proposals,
    L being drawn >= 0 by the cyclic shift); ``partition_resamples`` and
    ``snap_merges`` are always 0: no partition is redrawn and no cut is
    snapped to the grid.
    Raises MatingError if the cells come out degenerate, which has
    probability zero under the sub-grid law.
    """
    if rng is None:
        rng = np.random.default_rng(p.seed)
    walk = sample_cone_walk(p, rng=rng)
    t = walk.duration
    first = -p.epsilon * math.log1p(rng.random() * math.expm1(-t / p.epsilon))
    parts = np.concatenate(([first], poisson_partition(t - first, p.epsilon, rng=rng)))
    refined, idx = refine_walk(walk, np.cumsum(parts)[:-1], p.variance, rng)
    cells = cell_lengths_at(refined, idx)
    if cells.degenerate():
        raise MatingError("degenerate cell lengths from the sub-grid refinement")
    quilt, collisions = build_quilt_from_cells(cells)
    provenance = {
        "gamma": p.gamma,
        "epsilon": p.epsilon,
        "steps": p.steps,
        "seed": p.seed,
        "duration": p.duration,
        "rejections": walk.rejections,
        "walks": 1,
        "poisson_parts": int(len(parts)),
        "partition_resamples": 0,
        "snap_merges": 0,
        "length_collisions": int(collisions),
    }
    return SimulationResult(quilt=quilt, cells=cells, walk=refined, provenance=provenance)


@dataclass(frozen=True)
class CovarianceReport:
    target: tuple
    empirical: tuple
    max_rel_dev: float
    max_z: float  # the family-wise z-score of the worst entry

    @property
    def passed(self):
        return self.max_z < CALIBRATION_Z_MAX


def calibrate_covariance(p: MotParams, n_steps=10_000, rng=None) -> CovarianceReport:
    """Empirical per-step covariance of the increment generator vs target.

    Measured on the sampler's own unconditioned increments, those of
    :func:`_increment_mix`: quadrant conditioning reweights accepted paths,
    so the generator, not the accepted ensemble, is what the covariance
    target specifies.  ``max_z`` is the family-wise z over the 3 entries of
    their deviations in estimator-stderr units (relative to the target
    variance: sqrt(2 / n) for a variance, sqrt((1 + rho^2) / n) for the
    covariance); below 4 it passes, a false-alarm rate of at most 6.3e-5
    once the estimates are near normal (the chi^2 skew of small n adds some).
    """
    if n_steps < 1:
        raise MatingError(f"need at least one increment, got {n_steps}")
    if rng is None:
        rng = np.random.default_rng(p.seed)
    dt = p.duration / p.steps
    z = rng.standard_normal((2, n_steps))
    incs = np.column_stack(_increment_mix(p, z[0], z[1]))
    emp = (incs.T @ incs) / n_steps
    var_target = p.variance * dt
    cov_target = p.correlation * p.variance * dt
    devs = np.array([
        abs(emp[0, 0] - var_target) / var_target,
        abs(emp[1, 1] - var_target) / var_target,
        abs(emp[0, 1] - cov_target) / var_target,
    ])
    stderr = np.sqrt(np.array([2.0, 2.0, 1.0 + p.correlation**2]) / n_steps)
    return CovarianceReport(
        target=(var_target, cov_target),
        empirical=(float(emp[0, 0]), float(emp[1, 1]), float(emp[0, 1])),
        max_rel_dev=float(devs.max()),
        max_z=_familywise_z(float(np.max(devs / stderr)), 3),
    )
