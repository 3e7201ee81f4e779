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
            continue  # grid tie; resampled upstream in the pipeline
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


@pytest.mark.parametrize(
    "gamma,steps", [(0.5, 6), (1.0, 16), (math.sqrt(2), 64), (1.8, 128)])
def test_zero_side_screen_only_rejects_degenerate(gamma, steps):
    p = mt.mot_params(gamma, 0.25, steps, 13)
    rng = np.random.default_rng(13)
    screened = passed = 0
    for _ in range(20):
        walk = mt.sample_cone_walk(p, rng=rng)
        for _ in range(40):
            parts = mt.poisson_partition(walk.duration, p.epsilon, rng=rng)
            if len(parts) < 2:
                continue
            idx, _ = mt._snap_parts_to_grid(walk, parts)
            if mt._has_zero_side(walk, idx):
                assert mt.cell_lengths_at(walk, idx).degenerate()
                screened += 1
            else:
                passed += 1
    assert screened > 0 and passed > 0


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
        mt.extract_cell_lengths(walk, [0.4, 0.4])
    with pytest.raises(PartitionMismatch):
        mt.cell_lengths_at(walk, [3, 2])


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
    # walks abandoned after 50 degenerate partitions count too
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
    assert total == len(calls) > 40
