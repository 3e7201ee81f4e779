"""Acceptance suite: one test per criterion, at the stated tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
inline; they also appear in captured output).  Statistical checks run under
the pinned master seed, so the suite is deterministic.
"""

import itertools
import json
import math
import random
import time

import numpy as np
import pytest
import scipy.stats

from quiltlab import curvature as cv
from quiltlab import fields as fl
from quiltlab import mating as mt
from quiltlab import meander as me
from quiltlab import quilt as qt
from quiltlab import quilt_enum as qe
from quiltlab import quilt_winding as qw
from quiltlab._verify import MEANDER_COUNTS, run_verify_all

from conftest import MASTER_SEED, build_subtemplate, build_template


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:>2}] {status}: {name} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def test_criterion_01_meander_counts():
    start = time.monotonic()
    counts = {m: len(me.enumerate_meanders(m)) for m in range(1, 6)}
    cross = {m: me.count_meanders_transfer_matrix(m) for m in range(1, 6)}
    elapsed = time.monotonic() - start
    ok = counts == MEANDER_COUNTS and cross == MEANDER_COUNTS and elapsed < 60
    report(1, "meander counts 1,2,8,42,262", ok,
           f"counts={counts} elapsed={elapsed:.1f}s")


def test_criterion_02_meander_factorization():
    ok = True
    detail = []
    for m in range(1, 6):
        rep = me.verify_factorization(m)  # raises on any violation
        ok = ok and rep.total_meanders == MEANDER_COUNTS[m]
        ok = ok and all(
            c.meander_count == c.upper_count * c.lower_count for c in rep.classes
        )
        detail.append(f"m={m}:{len(rep.classes)} classes")
    rep4 = me.verify_factorization(4)
    cls = {c.theta: c for c in rep4.classes}[(0, 1, 0, -1, 0, 1, 0)]
    ok = ok and (cls.upper_count, cls.lower_count, cls.meander_count) == (2, 2, 4)
    report(2, "factorization A+ x A- with figure class 4 = 2x2", ok,
           "; ".join(detail))


def test_criterion_03_hopf():
    rnd = random.Random(MASTER_SEED)
    worst = 0.0
    ok = True
    for _ in range(1000):
        k = rnd.randrange(8, 51)
        ccw = rnd.random() < 0.5
        loop = cv.star_polygon(k, rnd, ccw=ccw)
        sign = cv.verify_hopf(loop)
        ok = ok and sign == (1 if ccw else -1)
        worst = max(worst, abs(abs(cv.total_turning(loop)) - 2 * math.pi))
    for k in (3, 4, 5, 64):
        ok = ok and cv.verify_hopf(cv.regular_polygon(k)) == 1
        ok = ok and cv.verify_hopf(cv.regular_polygon(k, ccw=False)) == -1
    ok = ok and worst < 1e-9 * 51
    report(3, "Hopf Umlaufsatz on 1000 random simple polygons", ok,
           f"max |2pi deviation| = {worst:.2e}")


def test_criterion_04_product_bijection():
    fixtures = [
        ("chain baseline", build_subtemplate([(1, 1)] * 3, (2, 4)), (2, 2), True),
        ("wide", build_subtemplate([(1, 2)] * 3, (2, 4)), (2, 2), True),
        ("two-pass hole", build_subtemplate(
            [(1, 1), (1, 1), (1, 1), (1, 2), (1, 3)], (2, 4, 6)), (2, 2), True),
        ("budget four", build_subtemplate([(1, 1)] * 3, (2, 4)), (4, 1), False),
    ]
    details = []
    ok = True
    for name, tsub, budgets, constructive in fixtures:
        start = time.monotonic()
        rep = qe.verify_product_bijection(tsub, budgets, constructive=constructive)
        elapsed = time.monotonic() - start
        product = rep.factor_sizes[0] * rep.factor_sizes[1]
        ok = ok and rep.n_fillings == product and rep.injective and rep.surjective
        ok = ok and elapsed < 300
        details.append(f"{name}: {rep.n_fillings}={rep.factor_sizes} {elapsed:.0f}s")
    report(4, "template product bijection on 2-hole fixtures", ok,
           "; ".join(details))


GAMMA_STEPS = ((0.5, 6), (1.0, 16), (math.sqrt(2), 48), (1.8, 128))


def test_criterion_05_unit_determinant():
    ok = True
    checked = 0
    for moves in ([], [(1, 1)], [(1, 2), (2, 2)], [(1, 1), (2, 1), (1, 2)]):
        rep = qt.side_length_map_determinant(build_template(moves))
        ok = ok and abs(rep.det) == 1 and abs(abs(rep.det_float) - 1) < 1e-9
        ok = ok and rep.left_tree_size == 2 * rep.n + 1
        ok = ok and rep.bijection_ok and rep.triangular_ok
        checked += 1
    for gamma, steps in GAMMA_STEPS:
        rng = np.random.default_rng(MASTER_SEED + int(gamma * 1000))
        p = mt.mot_params(gamma, 0.25, steps, MASTER_SEED)
        for _ in range(250):
            res = mt.simulate_discretized_disk(p, rng=rng)
            rep = qt.side_length_map_determinant(res.quilt.template)
            if not (abs(rep.det) == 1 and abs(abs(rep.det_float) - 1) < 1e-9
                    and rep.left_tree_size == 2 * rep.n + 1
                    and rep.bijection_ok and rep.triangular_ok):
                ok = False
                break
            checked += 1
    report(5, "|det| = 1 with left-tree contour structure", ok,
           f"templates checked = {checked}")


def test_criterion_06_winding_labels():
    fixtures = [
        ("wide", build_subtemplate([(1, 2)] * 3, (2, 4))),
        ("two-pass", build_subtemplate(
            [(1, 1), (1, 1), (1, 1), (1, 2), (1, 3)], (2, 4, 6))),
    ]
    ok = True
    details = []
    for name, tsub in fixtures:
        fills = qe.enumerate_fillings(tsub, 2)
        geom = qw.embed_subtemplate(tsub)
        worst = 0.0
        rnd = random.Random(MASTER_SEED)
        pairs = list(itertools.combinations(range(len(fills)), 2))
        for i, j in rnd.sample(pairs, min(60, len(pairs))):
            rep = qw.winding_labels(tsub, fills[i], fills[j], geom=geom)
            worst = max(worst, rep.max_difference)
        ok = ok and worst < 1e-6
        details.append(f"{name}: max diff {worst:.2e} over {len(fills)} fillings")
    # frozen regression of the two-pass fixture's labels (in pi units)
    tsub = fixtures[1][1]
    fills = qe.enumerate_fillings(tsub, 2)
    geom = qw.embed_subtemplate(tsub)
    labels = qw.winding_label_values(geom, fills[0])
    frozen = {3: 0.6244885189, 5: 0.3557749052, 7: 0.1800508348,
              11: 0.1276258306, 13: 0.1179489885, 15: 0.0855360771}
    drift = max(abs(labels[v] / math.pi - frozen[v]) for v in frozen)
    ok = ok and drift < 1e-8
    report(6, "winding labels independent of the filling", ok,
           "; ".join(details) + f"; regression drift {drift:.1e}")


def test_criterion_07_mating_pipeline():
    p = mt.mot_params(math.sqrt(2), 0.15, 64, MASTER_SEED)
    rng = np.random.default_rng(MASTER_SEED)
    runs = 10_000
    worst_resid = 0.0
    ok = True
    start = time.monotonic()
    for _ in range(runs):
        res = mt.simulate_discretized_disk(p, rng=rng)
        if not qt.validate_template(res.quilt.template).passed:
            ok = False
            break
        worst_resid = max(worst_resid, res.cells.conservation_residual())
        if not res.cells.sn2_satisfied():
            ok = False
            break
    elapsed = time.monotonic() - start
    ok = ok and worst_resid < 1e-9

    # cone containment <=> constraints, on accepted and rejected proposals
    probe = mt.mot_params(1.8, 0.25, 32, MASTER_SEED)
    paths = mt.sample_walk_proposals(probe, 4000, rng=rng)
    times = np.linspace(0, 1, probe.steps + 1)
    seen = [0, 0]
    for k in range(paths.shape[0]):
        walk = mt.ConeWalk(times=times, L=paths[k, :, 0], R=paths[k, :, 1])
        cells = mt.cell_lengths_at(walk, [8, 16, 24])
        in_cone = walk.in_quadrant()
        if cells.degenerate() and in_cone:
            continue
        if cells.sn2_satisfied() != in_cone:
            ok = False
            break
        seen[in_cone] += 1
    ok = ok and min(seen) > 0

    cov = mt.calibrate_covariance(p, n_steps=10_000,
                                  rng=np.random.default_rng(MASTER_SEED))
    ok = ok and cov.max_rel_dev < 0.05
    report(7, "mating pipeline validity over 10^4 quilts", ok,
           f"max residual {worst_resid:.1e}; cov dev {cov.max_rel_dev:.3f}; "
           f"equivalence checked on {sum(seen)} walks; {elapsed:.0f}s")


def test_criterion_08_poisson_partition():
    rng = np.random.default_rng(MASTER_SEED)
    counts = np.array([
        len(mt.poisson_partition(1.0, 0.1, rng=rng)) for _ in range(10_000)
    ])
    mean = float(counts.mean())
    sigma = math.sqrt(10.0 / 10_000)
    lengths = np.concatenate([
        np.diff(np.sort(rng.uniform(0, 100.0, size=rng.poisson(1000))))
        for _ in range(3)
    ])
    ks = scipy.stats.kstest(lengths, "expon", args=(0, 0.1))
    ok = abs(mean - 11.0) < 3 * sigma and ks.pvalue > 0.01
    report(8, "Poisson partition law", ok,
           f"mean parts {mean:.3f} (target 11 +- {3 * sigma:.3f}); "
           f"KS p = {ks.pvalue:.3f}")


def test_criterion_09_field_rotation():
    rng = np.random.default_rng(MASTER_SEED)
    drift = 0.0
    for _ in range(1000):
        a = fl.random_orthogonal(3, rng)
        fv = fl.FieldVector(grid=3, values=np.zeros((3, 1)),
                            charges=np.array([-2.0, 0.4, 1.0]))
        out = fl.rotate_fields(fv, a, interpret_charges=False)
        drift = max(drift, abs(float(out.charges.sum() - fv.charges.sum())))
    angle = math.pi / 4
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    rep = fl.rotation_independence_test(16, rot, 10_000, MASTER_SEED)
    ok = drift < 1e-12 and rep.max_cross_z < 4.0 and rep.max_marginal_dev_stderr < 5.0
    report(9, "field-vector rotation conserves charge and independence", ok,
           f"drift {drift:.1e}; cross-z {rep.max_cross_z:.2f}; "
           f"marginal {rep.max_marginal_dev_stderr:.2f} stderr")


def test_criterion_10_lattice_identities():
    rnd = random.Random(MASTER_SEED)
    ok = True
    checked = 0
    for n in range(2, 7):
        pairs = list(itertools.combinations(range(n), 2))
        for _ in range(40):
            k = rnd.randrange(n - 1, len(pairs) + 1)
            g = fl.Graph(n=n, edges=tuple(rnd.sample(pairs, k)))
            if not g.is_connected():
                continue
            if fl.spanning_tree_count(g) != fl.spanning_trees_brute_force(g):
                ok = False
            checked += 1
    resid = max(
        fl.gaussian_partition_identity(fl.grid_graph(L)).residual
        for L in (3, 4, 5, 6)
    )
    ok = ok and resid < 1e-10
    ok = ok and abs(fl.c_sle(2.0) + 2.0) < 1e-12
    for kappa in (0.7, 2.0, 3.5, 6.0):
        ok = ok and abs(fl.c_sle(kappa) - fl.c_sle(16.0 / kappa)) < 1e-12
    report(10, "matrix-tree and partition determinant identities", ok,
           f"graphs={checked}; partition residual {resid:.1e}")


def test_criterion_11_determinism():
    start = time.monotonic()
    rep1 = run_verify_all(seed=MASTER_SEED)
    rep2 = run_verify_all(seed=MASTER_SEED)
    elapsed = time.monotonic() - start
    blob1 = json.dumps(rep1, sort_keys=True)
    blob2 = json.dumps(rep2, sort_keys=True)
    statuses = {c["name"]: c["status"] for c in rep1["checks"]}
    ok = blob1 == blob2 and all(s == "pass" for s in statuses.values())
    ok = ok and elapsed < 900
    report(11, "verify-all deterministic and green", ok,
           f"two runs in {elapsed:.0f}s; statuses {sorted(set(statuses.values()))}")
