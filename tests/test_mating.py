import dataclasses
import json
import math

import numpy as np
import pytest
import scipy.stats

from quiltlab import _verify as vf
from quiltlab import mating as mt
from quiltlab import quilt as qt
from quiltlab.errors import (
    ConstraintViolated,
    GammaOutOfRange,
    MatingError,
    PartitionMismatch,
    RejectionBudgetExceeded,
)


def test_params_sqrt2():
    p = mt.mot_params(math.sqrt(2), 0.1, 64, 1)
    assert p.variance == pytest.approx(2.0, abs=1e-12)
    assert p.correlation == pytest.approx(0.0, abs=1e-12)


def test_params_gamma_one():
    p = mt.mot_params(1.0, 0.1, 64, 1)
    assert p.variance == pytest.approx(2.0 * math.sqrt(2.0), abs=1e-12)
    assert p.correlation == pytest.approx(-math.sqrt(0.5), abs=1e-12)


def test_params_near_two_flagged():
    p = mt.mot_params(1.999, 0.1, 64, 1)
    assert p.correlation > 0.99
    assert p.near_degenerate
    with pytest.raises(GammaOutOfRange):
        mt.mot_params(2.0, 0.1, 64, 1)
    with pytest.raises(GammaOutOfRange):
        mt.mot_params(0.0, 0.1, 64, 1)


def test_walk_positivity_and_pinning(rng):
    p = mt.mot_params(math.sqrt(2), 0.1, 64, 5)
    walk = mt.sample_cone_walk(p, rng=rng)
    assert walk.L.min() >= 0 and walk.R.min() >= 0
    assert walk.L[0] == 0.0 and walk.R[0] == 1.0
    assert abs(walk.L[-1]) < 1e-12 and abs(walk.R[-1]) < 1e-12


# --- the bridge law: step-by-step sampler against the full-proposal oracle ----------

LAW = mt.mot_params(math.sqrt(2), 0.2, 16, 0)
LAW_WALKS = 4000
LAW_ALPHA = 1e-3  # family-wise false-alarm rate over the three KS tests


def _oracle_r_paths(rng):
    """R paths of full-length bridge proposals kept by quadrant rejection."""
    kept = []
    while sum(map(len, kept)) < LAW_WALKS:
        paths = mt.sample_walk_proposals(LAW, 20_000, rng=rng)
        kept.append(paths[(paths.min(axis=1) >= 0.0).all(axis=1), :, 1])
    return np.concatenate(kept)[:LAW_WALKS]


def _law_pvalue(seed):
    """Bonferroni p-value of two-sample KS on max R, R at the midpoint and R
    at step 3, sample_cone_walk against the rejection oracle."""
    oracle = _oracle_r_paths(np.random.default_rng([seed, 0]))
    rng = np.random.default_rng([seed, 1])
    walks = np.array([mt.sample_cone_walk(LAW, rng=rng).R for _ in range(LAW_WALKS)])
    mid = LAW.steps // 2
    pvalues = [
        scipy.stats.ks_2samp(stat(oracle), stat(walks)).pvalue
        for stat in (lambda r: r.max(axis=1), lambda r: r[:, mid], lambda r: r[:, 3])
    ]
    return min(1.0, 3 * min(pvalues))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_cone_walk_law_matches_rejection_oracle(seed):
    assert _law_pvalue(seed) > LAW_ALPHA


def test_cone_walk_law_check_catches_dropped_variance_factor(monkeypatch):
    def step_without_factor(x, end, left, chol_t, rng):
        # the conditional step with its (left - 1) / left variance factor dropped
        z = rng.standard_normal(x.shape) @ chol_t
        return x + (end - x) / left + z

    monkeypatch.setattr(mt, "_bridge_step", step_without_factor)
    assert _law_pvalue(0) < LAW_ALPHA


def test_cone_walk_budget_smaller_than_batch(monkeypatch):
    p = mt.mot_params(math.sqrt(2), 0.15, 256, 0)
    sizes = []
    grow = mt._first_quadrant_bridge

    def counted(p, count, rng):
        sizes.append(count)
        return grow(p, count, rng)

    monkeypatch.setattr(mt, "_first_quadrant_bridge", counted)
    with pytest.raises(RejectionBudgetExceeded):
        mt.sample_cone_walk(p, rng=np.random.default_rng(0), max_proposals=1, batch=512)
    assert sizes == [1]


def test_cone_walk_first_survivor_and_rejections(monkeypatch):
    # rejections counts the proposals tried before the returned walk
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 4)
    hits = []
    grow = mt._first_quadrant_bridge

    def recorded(p, count, rng):
        path, i = grow(p, count, rng)
        hits.append((count, i))
        return path, i

    monkeypatch.setattr(mt, "_first_quadrant_bridge", recorded)
    walk = mt.sample_cone_walk(p, rng=np.random.default_rng(4), batch=16)
    *missed, (count, i) = hits
    assert missed and all(j is None for _, j in missed) and i is not None
    assert walk.rejections == sum(c for c, _ in missed) + i
    assert walk.in_quadrant() and walk.L[-1] == 0.0 and walk.R[-1] == 0.0


def test_covariance_calibration():
    p = mt.mot_params(1.0, 0.1, 64, 11)
    rep = mt.calibrate_covariance(p, n_steps=10_000)
    assert rep.max_rel_dev < 0.05


def test_poisson_single_part_probability(rng):
    # epsilon >> t: no Poisson points with probability e^{-t/eps}
    hits = sum(
        1 for _ in range(4000) if len(mt.poisson_partition(1.0, 50.0, rng=rng)) == 1
    )
    expect = math.exp(-1.0 / 50.0)
    assert abs(hits / 4000 - expect) < 0.02


def test_poisson_mean_part_count(rng):
    # the mean part count through the total cut count of 10^4 partitions at
    # rate 10, against Poisson(10^5): exact two-sided test, false-alarm rate 1e-4
    counts = [len(mt.poisson_partition(1.0, 0.1, rng=rng)) for _ in range(10_000)]
    cuts = sum(counts) - len(counts)
    law = scipy.stats.poisson(10.0 * len(counts))
    assert 2 * min(law.cdf(cuts), law.sf(cuts - 1)) > 1e-4


def test_poisson_parts_sum_exact(rng):
    for _ in range(100):
        parts = mt.poisson_partition(2.5, 0.3, rng=rng)
        assert math.fsum(parts) == pytest.approx(2.5, abs=1e-12)


def test_poisson_partition_check_passes_at_seeds_0_to_29():
    # family-wise false-alarm rate <= 1e-4 per seed
    assert [s for s in range(30) if not vf.check_poisson_partition(s)[0]] == []


@pytest.mark.parametrize("defect", ["cut-times-warped", "rate-3pct-high"])
def test_poisson_partition_check_catches_planted_defect(monkeypatch, defect):
    honest = mt.poisson_partition

    def warped(t, epsilon, seed=None, rng=None):
        # cut times u -> u**1.03 on [0, 1]: right count, wrong positions
        cuts = np.cumsum(honest(t, epsilon, rng=rng))[:-1] ** 1.03
        return np.diff(np.concatenate(([0.0], cuts, [t])))

    def fast(t, epsilon, seed=None, rng=None):
        return honest(t, epsilon / 1.03, rng=rng)

    planted = {"cut-times-warped": warped, "rate-3pct-high": fast}[defect]
    monkeypatch.setattr(mt, "poisson_partition", planted)
    assert not any(vf.check_poisson_partition(s)[0] for s in range(3))


def test_extract_one_part_fixture():
    # hand fixture: the formulas reduce to endpoint/min readings
    times = np.linspace(0, 1, 5)
    L = np.array([0.0, 0.4, 0.3, 0.5, 0.0])
    R = np.array([1.0, 0.7, 0.9, 0.4, 0.0])
    walk = mt.ConeWalk(times=times, L=L, R=R)
    cells = mt.cell_lengths_at(walk, [2])
    assert cells.l0_plus == pytest.approx(0.3)           # L[2] - L[0]
    assert cells.r0_minus == pytest.approx(1.0 - 0.7)    # R[0] - min R[0..2]
    assert cells.r0_plus == pytest.approx(0.9 - 0.7)     # R[2] - min R[0..2]
    assert cells.l_end_minus == pytest.approx(0.3)       # L[2] - L[4]
    assert cells.r_end_minus == pytest.approx(0.9)       # R[2] - R[4]
    assert cells.conservation_residual() < 1e-12


def test_extract_interior_cell_fixture():
    times = np.linspace(0, 1, 7)
    L = np.array([0.0, 0.5, 0.2, 0.6, 0.4, 0.7, 0.0])
    R = np.array([1.0, 0.8, 1.1, 0.5, 0.9, 0.3, 0.0])
    walk = mt.ConeWalk(times=times, L=L, R=R)
    cells = mt.cell_lengths_at(walk, [1, 4])
    lm, lp, rm, rp = cells.interior[0]
    assert lm == pytest.approx(0.5 - 0.2)   # L[1] - min L[1..4]
    assert lp == pytest.approx(0.4 - 0.2)   # L[4] - min L[1..4]
    assert rm == pytest.approx(0.8 - 0.5)   # R[1] - min R[1..4]
    assert rp == pytest.approx(0.9 - 0.5)   # R[4] - min R[1..4]
    assert cells.conservation_residual() < 1e-12


def test_conservation_over_simulations():
    p = mt.mot_params(math.sqrt(2), 0.2, 64, 3)
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(200):
        res = mt.simulate_discretized_disk(p, rng=rng)
        worst = max(worst, res.cells.conservation_residual())
    assert worst < 1e-9


def test_cone_containment_iff_sn2(rng):
    # both directions, on accepted and rejected proposals
    p = mt.mot_params(1.8, 0.25, 32, 9)
    paths = mt.sample_walk_proposals(p, 4000, rng=rng)
    times = np.linspace(0, 1, p.steps + 1)
    checked_in = checked_out = 0
    for k in range(paths.shape[0]):
        walk = mt.ConeWalk(times=times, L=paths[k, :, 0], R=paths[k, :, 1])
        cuts = [8, 16, 24]
        cells = mt.cell_lengths_at(walk, cuts)
        in_cone = walk.in_quadrant()
        if cells.degenerate() and in_cone:
            continue  # a grid tie: the pipeline reads sub-grid minima instead
        assert cells.sn2_satisfied() == in_cone
        checked_in += in_cone
        checked_out += not in_cone
    assert checked_in > 0 and checked_out > 100


def _slice_cell_lengths(walk, cut_indices):
    """Reference cell lengths: one slice per cell."""
    L, R = walk.L, walk.R
    idx = [0] + [int(i) for i in cut_indices] + [len(L) - 1]
    k1, klast = idx[1], idx[-2]
    rows = []
    for a, b in zip(idx[1:-2], idx[2:-1]):
        low_l, low_r = L[a : b + 1].min(), R[a : b + 1].min()
        rows.append((float(L[a] - low_l), float(L[b] - low_l),
                     float(R[a] - low_r), float(R[b] - low_r)))
    return mt.CellLengths(
        l0_plus=float(L[k1] - L[0]),
        r0_minus=float(R[0] - R[: k1 + 1].min()),
        r0_plus=float(R[k1] - R[: k1 + 1].min()),
        interior=np.array(rows, dtype=float).reshape(len(rows), 4),
        l_end_minus=float(L[klast] - L[-1]),
        r_end_minus=float(R[klast] - R[-1]),
        first_l_deficit=float(L[0] - L[: k1 + 1].min()),
        last_l_deficit=float(L[-1] - L[klast:].min()),
        last_r_deficit=float(R[-1] - R[klast:].min()),
    )


def test_cell_lengths_equal_slice_oracle(rng):
    cases = 0
    for _ in range(300):
        n = int(rng.integers(2, 80))
        p = mt.mot_params(float(rng.uniform(0.2, 1.9)), 0.2, n, 0)
        path = mt.sample_walk_proposals(p, 1, rng=rng)[0]
        walk = mt.ConeWalk(times=np.linspace(0, 1, n + 1), L=path[:, 0], R=path[:, 1])
        inner = np.arange(1, n)
        size = int(rng.integers(1, n))
        cut_sets = [np.sort(rng.choice(inner, size=size, replace=False)),
                    [1], [n - 1], inner, inner[:2], inner[-2:]]
        for cuts in cut_sets:
            got, want = mt.cell_lengths_at(walk, cuts), _slice_cell_lengths(walk, cuts)
            for f in dataclasses.fields(mt.CellLengths):
                a, b = getattr(got, f.name), getattr(want, f.name)
                if f.name == "interior":
                    assert a.shape == b.shape and np.array_equal(a, b)
                else:
                    assert a == b, f.name
            cases += 1
    assert cases == 1800


def test_build_quilt_minimal_reproduces_lengths():
    times = np.linspace(0, 1, 5)
    L = np.array([0.0, 0.4, 0.3, 0.5, 0.0])
    R = np.array([1.0, 0.7, 0.9, 0.4, 0.0])
    cells = mt.cell_lengths_at(mt.ConeWalk(times=times, L=L, R=R), [2])
    quilt, _ = mt.build_quilt(cells)
    t = quilt.template
    assert qt.validate_template(t).passed
    f0 = t.face_order[1]
    sides = quilt.side_lengths(f0)  # (R-, R+, L+)
    assert sides[0] == pytest.approx(cells.r0_minus)
    assert sides[1] == pytest.approx(cells.r0_plus)
    assert sides[2] == pytest.approx(cells.l0_plus)
    assert quilt.boundary_length() == pytest.approx(1.0, abs=1e-12)


def test_build_quilt_rejects_bad_cells():
    times = np.linspace(0, 1, 5)
    L = np.array([0.0, 0.4, -0.3, 0.5, 0.0])
    R = np.array([1.0, 0.7, 0.9, 0.4, 0.0])
    cells = mt.cell_lengths_at(mt.ConeWalk(times=times, L=L, R=R), [2])
    with pytest.raises(ConstraintViolated):
        mt.build_quilt(cells)


def test_partition_mismatch():
    times = np.linspace(0, 1, 5)
    walk = mt.ConeWalk(times=times, L=np.zeros(5), R=np.ones(5))
    with pytest.raises(PartitionMismatch):
        mt.cell_lengths_at(walk, [3, 2])
    with pytest.raises(PartitionMismatch):
        mt.refine_walk(walk, [0.5, 1.0], 2.0, np.random.default_rng(0))


def test_pipeline_deterministic_and_valid():
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 7)
    res1 = mt.simulate_discretized_disk(p)
    res2 = mt.simulate_discretized_disk(p)
    assert res1.provenance == res2.provenance
    assert np.array_equal(res1.walk.L, res2.walk.L)
    assert res1.quilt.lengths == res2.quilt.lengths
    assert qt.validate_template(res1.quilt.template).passed
    rep = qt.side_length_map_determinant(res1.quilt.template)
    assert abs(rep.det) == 1


def test_pipeline_all_gammas():
    for gamma, steps in ((0.5, 6), (1.0, 16), (math.sqrt(2), 64), (1.8, 128)):
        p = mt.mot_params(gamma, 0.25, steps, 13)
        res = mt.simulate_discretized_disk(p)
        assert qt.validate_template(res.quilt.template).passed
        assert res.cells.conservation_residual() < 1e-9
        assert res.cells.sn2_satisfied()


def test_exchange_symmetry_at_sqrt2(rng):
    # correlation 0 makes the quadrant dynamics coordinate-exchangeable, so
    # the max-R marginal of the standard ensemble matches the max-L marginal
    # of an independently sampled swapped-pinning ensemble ((1,0) to (0,0));
    # the raw L and R marginals differ by the endpoint pinning alone
    p = mt.mot_params(math.sqrt(2), 0.2, 16, 17)
    a = mt.sample_walk_proposals(p, 30_000, rng=rng)
    b = mt.sample_walk_proposals(p, 30_000, rng=rng, start=(1.0, 0.0))
    keep_a = (a.min(axis=1) >= 0.0).all(axis=1)
    keep_b = (b.min(axis=1) >= 0.0).all(axis=1)
    assert keep_a.sum() > 200 and keep_b.sum() > 200
    max_r = a[keep_a, :, 1].max(axis=1)
    max_l_swapped = b[keep_b, :, 0].max(axis=1)
    ks = scipy.stats.ks_2samp(max_r, max_l_swapped)
    assert ks.pvalue > 0.01


def test_json_provenance_round_trip():
    p = mt.mot_params(1.0, 0.2, 32, 21)
    res = mt.simulate_discretized_disk(p)
    blob = json.dumps(res.provenance, sort_keys=True)
    assert json.loads(blob) == res.provenance
    assert res.provenance["seed"] == 21


def test_provenance_counts_walks(monkeypatch):
    # one walk per quilt: no walk is abandoned
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 5)
    calls = []
    draw = mt.sample_cone_walk

    def counted(*args, **kwargs):
        calls.append(1)
        return draw(*args, **kwargs)

    monkeypatch.setattr(mt, "sample_cone_walk", counted)
    rng = np.random.default_rng(5)
    total = 0
    for _ in range(40):
        total += mt.simulate_discretized_disk(p, rng=rng).provenance["walks"]
    assert total == len(calls) == 40


# --- the sub-grid law: cut values, minima, and the kept part count ---------------------

VAR = 2.0  # the variance per unit time at gamma = sqrt 2
SUB_N = 20_000
SUB_ALPHA = 1e-4  # per KS test; nine tests, family-wise false-alarm rate <= 9e-4

# (a, b, u1, u2): endpoint values and the times from each endpoint to the cut
CUT_CASES = [
    (0.0, 0.3, 0.004, 0.012),   # left endpoint at 0: the h-transformed density
    (1e-8, 0.3, 0.008, 0.008),  # left endpoint just above 0
    (0.0, 0.0, 0.01, 0.01),     # both at 0
    (0.05, 0.2, 0.01, 0.005),
    (1.0, 1.2, 0.01, 0.006),    # far from 0: nearly the plain bridge marginal
]
# (a, b, tau): endpoint values and the sub-interval's duration
MIN_CASES = [
    (0.3, 0.2, 1 / 64),
    (1e-8, 0.3, 1 / 64),
    (1.0, 1.5, 1 / 64),
    (3.0, 3.0, 1e-3),  # 2ab / (var tau) = 9000: the large-exponent branch
]


def _cut_value_cdf(a, b, u1, u2):
    """CDF of the stated cut-value density by trapezoid quadrature on a fine
    grid: phi(x) (1 - e^{-2ax/(var u1)}) (1 - e^{-2bx/(var u2)}) on x > 0,
    a factor replaced by x where its endpoint is 0."""
    tau = u1 + u2
    mu, s = a + (b - a) * u1 / tau, math.sqrt(VAR * u1 * u2 / tau)
    x = np.linspace(0.0, mu + 12 * s, 200_001)

    def factor(end, u):
        return x if end == 0 else -np.expm1(-2 * end * x / (VAR * u))

    dens = np.exp(-0.5 * ((x - mu) / s) ** 2) * factor(a, u1) * factor(b, u2)
    cdf = scipy.integrate.cumulative_trapezoid(dens, x, initial=0.0)
    return lambda v: np.interp(v, x, cdf / cdf[-1])


def _stated_min_cdf(a, b, tau):
    """P(min <= m) = 1 - (1 - e^{-2(a-m)(b-m)/(var tau)}) / (1 - e^{-2ab/(var tau)})."""
    c = VAR * tau
    lo = min(a, b)

    def cdf(m):
        m = np.clip(m, 0.0, lo)
        return 1.0 + np.expm1(-2 * (a - m) * (b - m) / c) / -np.expm1(-2 * a * b / c)

    return cdf


def _cut_values_and_pvalue(case):
    full = [np.full(SUB_N, v) for v in case]
    x, tries = mt._bridge_cut_values(*full, VAR, np.random.default_rng(11))
    return x, tries, scipy.stats.kstest(x, _cut_value_cdf(*case)).pvalue


@pytest.mark.parametrize("case", CUT_CASES)
def test_cut_values_match_quadrature(case):
    x, tries, pvalue = _cut_values_and_pvalue(case)
    assert (x > 0).all()
    assert pvalue > SUB_ALPHA
    # the tangent proposal accepts with probability bounded below (>= 0.5
    # here), so tries per cut stay small even at an endpoint at or near 0
    assert tries.mean() < 2.0 and tries.max() <= 40


def test_cut_value_check_catches_dropped_survival_factors(monkeypatch):
    # planted: no survival factors, which leaves the plain bridge marginal cut at 0
    monkeypatch.setattr(mt, "_log_survival", lambda c, x: (np.zeros_like(x),) * 2)
    assert _cut_values_and_pvalue(CUT_CASES[0])[2] <= SUB_ALPHA


@pytest.mark.parametrize("case", MIN_CASES)
def test_minima_match_stated_cdf(case):
    a, b, tau = case
    full = [np.full(SUB_N, v) for v in case]
    m = mt._bridge_minima(*full, VAR, np.random.default_rng(12))
    assert ((m > 0) & (m < min(a, b))).all()
    assert scipy.stats.kstest(m, _stated_min_cdf(a, b, tau)).pvalue > SUB_ALPHA


def test_minima_zero_at_a_zero_endpoint():
    m = mt._bridge_minima(np.array([0.0, 0.4]), np.array([0.3, 0.0]),
                          np.full(2, 1 / 64), VAR, np.random.default_rng(0))
    assert (m == 0.0).all()


def test_refined_walk_keeps_grid_and_brackets_minima(rng):
    p = mt.mot_params(math.sqrt(2), 0.15, 64, 3)
    walk = mt.sample_cone_walk(p, rng=rng)
    step = walk.times[1]
    cuts = [0.3 * step, 0.6 * step, 5 * step, 40.5 * step]  # two in step 0, one on the grid
    refined, idx = mt.refine_walk(walk, cuts, p.variance, rng)
    assert len(refined.times) == len(walk.times) + 3
    assert np.array_equal(refined.times[idx], cuts)
    on_grid = np.isin(refined.times, walk.times)
    assert np.array_equal(refined.L[on_grid], walk.L) and np.array_equal(refined.R[on_grid], walk.R)
    assert (refined.L[idx] > 0).all() and (refined.R[idx] > 0).all()
    for vals, low in ((refined.L, refined.L_min), (refined.R, refined.R_min)):
        ends = np.minimum(vals[:-1], vals[1:])
        assert ((low < ends) | ((low == 0) & (ends == 0))).all() and (low >= 0).all()
    cells = mt.cell_lengths_at(refined, idx)
    assert not cells.degenerate() and cells.sn2_satisfied()


# the kept part count of accepted quilts at the criterion-7 parameters
PART_PARAMS = (math.sqrt(2), 0.15, 64)
PART_QUILTS = 200
PART_ALPHA = 1e-4  # two-sided, per seed


def _zero_truncated_sum_pmf(lam, n, kmax=80):
    """Law of the sum of n iid Poisson(lam) counts conditioned on >= 1."""
    one = scipy.stats.poisson.pmf(np.arange(kmax + 1), lam)
    one[0] = 0.0
    one /= one.sum()
    out, base = np.array([1.0]), one
    while n:
        if n & 1:
            out = np.convolve(out, base)
        base = np.convolve(base, base)
        n >>= 1
    return out


def _part_count_pvalue(seed):
    """Two-sided exact test of the total cut count of PART_QUILTS quilts
    against the sum of zero-truncated Poisson(t / epsilon) counts: the law
    of 1 + Poisson(t / epsilon) parts conditioned on at least 2."""
    p = mt.mot_params(*PART_PARAMS, seed)
    rng = np.random.default_rng(seed)
    cuts = sum(mt.simulate_discretized_disk(p, rng=rng).provenance["poisson_parts"] - 1
               for _ in range(PART_QUILTS))
    pmf = _zero_truncated_sum_pmf(p.duration / p.epsilon, PART_QUILTS)
    return min(1.0, 2 * min(pmf[: cuts + 1].sum(), pmf[cuts:].sum()))


def test_part_count_law_passes_at_seeds_0_to_29():
    assert [s for s in range(30) if _part_count_pvalue(s) <= PART_ALPHA] == []


def test_part_count_law_catches_short_cell_redraw(monkeypatch):
    honest = mt.poisson_partition

    def redraw_short(t, epsilon, seed=None, rng=None):
        # a planted defect: redraw while a part is shorter than one grid step
        parts = honest(t, epsilon, rng=rng)
        while parts.min() < t / PART_PARAMS[2]:
            parts = honest(t, epsilon, rng=rng)
        return parts

    monkeypatch.setattr(mt, "poisson_partition", redraw_short)
    assert _part_count_pvalue(0) <= PART_ALPHA
