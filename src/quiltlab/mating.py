"""Desk-scale simulator of the Poissonized mating-of-trees discretization.

Pipeline: sample a correlated two-dimensional Gaussian bridge from (0, 1)
to (0, 0) conditioned (by rejection) to stay in the closed quadrant, cut
its time axis by a Poisson process, read off per-cell boundary lengths from
increments and running infima, and assemble the quilt.

Conventions and proxies, documented once:

* variance: a^2 = 2 / sin(pi gamma^2 / 4); correlation -cos(pi gamma^2 / 4).
* the duration prior over total time is improper in the idealized model; we
  fix a configurable total duration (default 1.0) as a bounded proxy and
  treat the walk as a discrete bridge with ``steps`` increments.
* the bridge is built one step at a time from the exact conditional law of
  the next point given the current one and the pinned endpoint, so endpoint
  pinning is exact and rejection only enforces quadrant positivity; a
  proposal is dropped at its first grid point outside the closed quadrant,
  which leaves the law of the accepted walk that of the bridge conditioned
  on the quadrant.  This replaces endpoint-ball rejection, which is
  infeasible at these step counts.  Seeded walks and quilts differ from
  versions that drew every proposal in full; the law is the same.
* infima are taken over grid points only; refinement error scales with the
  step size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._builder import build_quilt_from_cells
from .errors import (
    GammaOutOfRange,
    MatingError,
    PartitionMismatch,
    RejectionBudgetExceeded,
)

CONSERVATION_TOL = 1e-9


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

    @property
    def near_degenerate(self):
        """Correlation close to +-1 (gamma near 0 or 2); sampling gets hard."""
        return abs(self.correlation) > 0.995


def mot_params(gamma, epsilon, steps, seed, duration=1.0) -> MotParams:
    if not 0 < gamma < 2:
        raise GammaOutOfRange(f"gamma must lie in (0, 2), got {gamma}")
    if epsilon <= 0 or steps < 2 or duration <= 0:
        raise MatingError("epsilon, duration must be positive and steps >= 2")
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
    """Discrete bridge (L_t, R_t) from (0, 1) to (0, 0) in the quadrant."""

    times: np.ndarray
    L: np.ndarray
    R: np.ndarray
    rejections: int = 0

    @property
    def duration(self):
        return float(self.times[-1])

    def in_quadrant(self, through=None):
        """min(L) >= 0 and min(R) >= 0 up to grid index ``through`` (inclusive)."""
        sl = slice(None) if through is None else slice(0, through + 1)
        return bool(self.L[sl].min() >= 0.0 and self.R[sl].min() >= 0.0)


def _step_chol(p: MotParams):
    """Cholesky factor of the per-step increment covariance Sigma dt."""
    dt = p.duration / p.steps
    cov = p.variance * dt * np.array(
        [[1.0, p.correlation], [p.correlation, 1.0]]
    )
    return np.linalg.cholesky(cov)


def _bridge_batch(p: MotParams, count, rng, start=(0.0, 1.0), end=(0.0, 0.0)):
    """Exact Gaussian bridges from start to end: shape (count, steps+1, 2)."""
    n = p.steps
    incs = rng.standard_normal((count, n, 2)) @ _step_chol(p).T
    paths = np.zeros((count, n + 1, 2))
    paths[:, 1:, :] = np.cumsum(incs, axis=1)
    paths += np.asarray(start, dtype=float)
    drift = paths[:, -1, :] - np.asarray(end, dtype=float)
    frac = (np.arange(n + 1) / n)[None, :, None]
    paths -= frac * drift[:, None, :]  # exact endpoint pinning
    return paths


def _bridge_step(x, end, left, chol_t, rng):
    """Exact conditional step of a bridge with ``left`` steps to go.

    X_{k+1} | X_k, X_n = end ~ N(X_k + (end - X_k) / left,
    Sigma dt (left - 1) / left), for rows of ``x``; ``chol_t`` is the
    transposed Cholesky factor of Sigma dt.
    """
    z = rng.standard_normal(x.shape) @ chol_t
    return x + (end - x) / left + math.sqrt((left - 1) / left) * z


def _first_quadrant_bridge(p: MotParams, count, rng):
    """(path, index) of the lowest-indexed of ``count`` bridge proposals that
    stays in the closed quadrant, or (None, None) when none does.

    The proposals are grown together one step at a time, and each is dropped
    at its first grid point outside the quadrant.
    """
    n = p.steps
    chol_t = _step_chol(p).T
    start = np.array([0.0, 1.0])
    end = np.zeros(2)
    paths = np.empty((count, n + 1, 2))
    paths[:, 0] = start
    alive = np.arange(count)
    x = np.tile(start, (count, 1))
    for k in range(n - 1):
        x = _bridge_step(x, end, n - k, chol_t, rng)
        if x.min() < 0.0:
            keep = x.min(axis=1) >= 0.0
            alive, x = alive[keep], x[keep]
            if not alive.size:
                return None, None
        paths[alive, k + 1] = x
    i = int(alive[0])
    path = paths[i]
    path[n] = end
    return path, i


def sample_cone_walk(p: MotParams, rng=None, max_proposals=2_000_000,
                     batch=512) -> ConeWalk:
    """First quadrant-positive bridge from a rejection stream.

    Proposals come in batches of ``batch``, each grown step by step from the
    exact conditional bridge step and dropped at its first exit from the
    closed quadrant (see the module notes); the walk is the lowest-indexed
    survivor.  Raises RejectionBudgetExceeded after ``max_proposals``
    attempts; the number of proposals tried before the walk is recorded on
    it as ``rejections``.
    """
    if rng is None:
        rng = np.random.default_rng(p.seed)
    times = np.linspace(0.0, p.duration, p.steps + 1)
    tried = 0
    while tried < max_proposals:
        take = min(batch, max_proposals - tried)
        path, i = _first_quadrant_bridge(p, take, rng)
        if path is not None:
            return ConeWalk(
                times=times,
                L=path[:, 0].copy(),
                R=path[:, 1].copy(),
                rejections=tried + i,
            )
        tried += take
    raise RejectionBudgetExceeded(
        f"no quadrant-positive bridge in {max_proposals} proposals "
        f"(gamma={p.gamma}, steps={p.steps})"
    )


def sample_walk_proposals(p: MotParams, count, rng=None,
                          start=(0.0, 1.0), end=(0.0, 0.0)):
    """Unconditioned bridges, drawn in full by pinning a free walk's endpoint.

    An independent construction of the bridge law that :func:`sample_cone_walk`
    samples step by step (for calibration and for rejected-walk tests).
    """
    if rng is None:
        rng = np.random.default_rng(p.seed)
    return _bridge_batch(p, count, rng, start=start, end=end)


def poisson_partition(t, epsilon, seed=None, rng=None) -> np.ndarray:
    """Durations cut from [0, t] by a rate-1/epsilon Poisson process.

    The part count is (number of Poisson points) + 1 and the parts sum to t
    exactly.
    """
    if t <= 0 or epsilon <= 0:
        raise MatingError("t and epsilon must be positive")
    if rng is None:
        rng = np.random.default_rng(seed)
    n_points = rng.poisson(t / epsilon)
    cuts = np.sort(rng.uniform(0.0, t, size=n_points))
    knots = np.concatenate(([0.0], cuts, [t]))
    return np.diff(knots)


@dataclass
class CellLengths:
    """Per-cell boundary lengths of the discretized disk.

    The initial cell contributes (l0+, r0-, r0+); each interior cell a
    quadruple (l-, l+, r-, r+); the final cell's lengths are the conserved
    quantities (l_end-, r_end-).  Boundary-cell conventions l0- = 0 and
    l_end+ = r_end+ = 0 are stored as observed deficits: they vanish exactly
    when the walk stays in the quadrant on the first and last parts.
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
        """The 2n+1 strict cone sums (positive iff the constraints hold)."""
        lm = self.interior[:, 0]
        lp = self.interior[:, 1]
        rm = self.interior[:, 2]
        rp = self.interior[:, 3]
        run_l = self.l0_plus + np.concatenate(([0.0], np.cumsum(lp - lm)[:-1]))
        margins = list(run_l - lm)
        run_r = 1.0 + np.concatenate(
            ([0.0], np.cumsum(np.concatenate(([self.r0_plus - self.r0_minus], rp - rm)))[:-1])
        )
        margins.append(1.0 - self.r0_minus)
        margins.extend(run_r[1:] - rm)
        return np.array(margins)

    def sn2_satisfied(self, strict=True):
        """Cone constraints plus the boundary-cell zero conventions.

        The strict sums only see the interior parts; the first part's L dip
        and the last part's dips are covered by the stored deficits, which
        must vanish for the walk to stay in the quadrant.
        """
        margins = self.sn2_margins()
        ok = bool((margins > 0).all()) if strict else bool((margins >= 0).all())
        deficits = (self.first_l_deficit, self.last_l_deficit, self.last_r_deficit)
        return ok and all(d <= 0.0 for d in deficits)

    def degenerate(self):
        """A zero cell side or zero cone margin: probability zero in the
        continuum, a grid artifact here; the partition is resampled."""
        vals = [self.l0_plus, self.r0_minus, self.r0_plus,
                self.l_end_minus, self.r_end_minus]
        if self.interior.size:
            vals.append(float(self.interior.min()))
        return min(vals) <= 0.0 or float(self.sn2_margins().min()) <= 0.0


def _snap_parts_to_grid(walk: ConeWalk, parts):
    """Poisson cut times mapped to interior grid indices (duplicates merged)."""
    parts = np.asarray(parts, dtype=float)
    total = float(parts.sum())
    if abs(total - walk.duration) > 1e-9 * max(1.0, walk.duration):
        raise PartitionMismatch(
            f"parts sum to {total}, walk duration is {walk.duration}"
        )
    cuts = np.cumsum(parts)[:-1]
    n = len(walk.times) - 1
    dt = walk.duration / n
    idx = np.rint(cuts / dt).astype(int)
    idx = np.clip(idx, 1, n - 1)
    idx = np.unique(idx)
    merged = (len(cuts) - len(idx))
    return idx, merged


def extract_cell_lengths(walk: ConeWalk, parts) -> CellLengths:
    """Cell boundary lengths from increments and running infima.

    Part boundaries snap to the walk grid (collisions merge parts and are
    counted by the caller via :func:`_snap_parts_to_grid`).
    """
    idx, _merged = _snap_parts_to_grid(walk, parts)
    return cell_lengths_at(walk, idx)


def _cell_minima(walk: ConeWalk, cut_indices):
    """(L, R, bounds, low_l, low_r): the cell bounds 0, cuts..., n and the
    minima of L and R over each closed cell [bounds[i], bounds[i+1]]."""
    L = np.asarray(walk.L, dtype=float)
    R = np.asarray(walk.R, dtype=float)
    bounds = np.concatenate(([0], np.asarray(cut_indices, dtype=int), [len(L) - 1]))
    if (bounds[1:] <= bounds[:-1]).any():
        raise PartitionMismatch("cut indices must be strictly increasing")
    inner = bounds[1:-1]
    low_l = np.minimum.reduceat(L, bounds[:-1])
    low_l[:-1] = np.minimum(low_l[:-1], L[inner])
    low_r = np.minimum.reduceat(R, bounds[:-1])
    low_r[:-1] = np.minimum(low_r[:-1], R[inner])
    return L, R, bounds, low_l, low_r


def cell_lengths_at(walk: ConeWalk, cut_indices) -> CellLengths:
    """Cell lengths with the cuts at the given interior grid indices."""
    L, R, bounds, low_l, low_r = _cell_minima(walk, cut_indices)
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


def _has_zero_side(walk: ConeWalk, cut_indices):
    """Whether a cell side that ``CellLengths.degenerate`` checks is <= 0.

    The sides come from the same float operations as the fields of
    :func:`cell_lengths_at`, so True here implies ``degenerate()`` there; a
    cheap first screen of a partition before its cell lengths are built.
    """
    L, R, bounds, low_l, low_r = _cell_minima(walk, cut_indices)
    a, b = bounds[:-1], bounds[1:]
    sides = np.concatenate((
        (R[a] - low_r)[:-1], (R[b] - low_r)[:-1],  # r-, r+ of all but the last cell
        (L[a] - low_l)[1:-1], (L[b] - low_l)[1:-1],  # l-, l+ of the interior cells
        (L[b[0]] - L[0], L[a[-1]] - L[-1], R[a[-1]] - R[-1]),  # l0+, l_end-, r_end-
    ))
    return bool(sides.min() <= 0.0)


def build_quilt(cells: CellLengths):
    """Quilt of the cell decomposition; template passes the validity report."""
    return build_quilt_from_cells(cells)


@dataclass
class SimulationResult:
    quilt: object
    cells: CellLengths
    walk: ConeWalk
    provenance: dict


def simulate_discretized_disk(p: MotParams, rng=None) -> SimulationResult:
    """End-to-end pipeline: walk -> Poisson parts -> cell lengths -> quilt.

    Deterministic given (params, seed): all randomness flows from one
    generator seeded by ``p.seed``.  The provenance counts the walks drawn
    for this quilt (``walks``, walks abandoned after 50 degenerate
    partitions included), the proposals rejected before them and the
    partitions redrawn.
    """
    if rng is None:
        rng = np.random.default_rng(p.seed)
    resamples = 0
    rejections = 0
    cells = None
    for walks in range(1, 201):
        walk = sample_cone_walk(p, rng=rng)
        rejections += walk.rejections
        for _ in range(50):
            parts = poisson_partition(walk.duration, p.epsilon, rng=rng)
            if len(parts) < 2:
                resamples += 1
                continue
            idx, merged = _snap_parts_to_grid(walk, parts)
            if not _has_zero_side(walk, idx):
                candidate = cell_lengths_at(walk, idx)
                if not candidate.degenerate():
                    cells = candidate
                    break
            resamples += 1
        if cells is not None:
            break
    if cells is None:
        raise RejectionBudgetExceeded("could not draw a nondegenerate partition")
    quilt, collisions = build_quilt(cells)
    provenance = {
        "gamma": p.gamma,
        "epsilon": p.epsilon,
        "steps": p.steps,
        "seed": p.seed,
        "duration": p.duration,
        "rejections": rejections,
        "walks": walks,
        "poisson_parts": int(len(parts)),
        "partition_resamples": int(resamples),
        "snap_merges": int(merged),
        "length_collisions": int(collisions),
    }
    return SimulationResult(quilt=quilt, cells=cells, walk=walk, provenance=provenance)


@dataclass(frozen=True)
class CovarianceReport:
    target: tuple
    empirical: tuple
    max_rel_dev: float


def calibrate_covariance(p: MotParams, n_steps=10_000, rng=None) -> CovarianceReport:
    """Empirical per-step covariance of the increment generator vs target.

    Measured on unconditioned increments: quadrant conditioning reweights
    accepted paths, so the generator, not the accepted ensemble, is what the
    covariance target specifies.
    """
    if rng is None:
        rng = np.random.default_rng(p.seed)
    dt = p.duration / p.steps
    incs = rng.standard_normal((n_steps, 2)) @ _step_chol(p).T
    emp = (incs.T @ incs) / n_steps
    var_target = p.variance * dt
    cov_target = p.correlation * p.variance * dt
    devs = [
        abs(emp[0, 0] - var_target) / var_target,
        abs(emp[1, 1] - var_target) / var_target,
        abs(emp[0, 1] - cov_target) / var_target,
    ]
    return CovarianceReport(
        target=(var_target, cov_target),
        empirical=(float(emp[0, 0]), float(emp[1, 1]), float(emp[0, 1])),
        max_rel_dev=float(max(devs)),
    )
