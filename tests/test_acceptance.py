"""Acceptance suite: one test per criterion, at the stated workloads.

Criteria 1-10 take their verdict from ``quiltlab._verify``'s checks (the
code ``quilt-lab verify-all`` runs) at ``scale="full"``.  Only the time
limits, criterion 6's frozen label regression and criterion 7's probes,
which have no power at the quick size, live here.  Each test prints one
PASS/FAIL line (pytest -s shows them inline), under the pinned master seed.
"""

import json
import math
import time

import numpy as np

from quiltlab import _verify as vf
from quiltlab import mating as mt
from quiltlab import quilt_enum as qe
from quiltlab import quilt_winding as qw

from conftest import MASTER_SEED, build_subtemplate
from helpers import in_quadrant, sample_walk_proposals


def report(number, name, passed, detail=""):
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number:>2}] {status}: {name} {detail}")
    assert passed, f"criterion {number} ({name}) failed: {detail}"


def criterion(number, name, check, limit=math.inf, extra=(True, ""), **kwargs):
    """Report ``check`` at the master seed, within ``limit`` seconds, and
    ``extra``, the (passed, detail) pair of the test's own checks."""
    start = time.monotonic()
    ok, details = check(MASTER_SEED, **kwargs)
    elapsed = time.monotonic() - start
    report(number, name, ok and elapsed < limit and extra[0],
           f"{json.dumps(details, sort_keys=True)}{extra[1]}; {elapsed:.1f}s")


def test_criterion_01_meander_counts():
    criterion(1, "meander counts 1,2,8,42,262", vf.check_meander_counts, limit=60)


def test_criterion_02_meander_factorization():
    criterion(2, "factorization A+ x A- with figure class 4 = 2x2",
              vf.check_meander_factorization)


def test_criterion_03_hopf():
    criterion(3, "Hopf Umlaufsatz on 1000 random simple polygons", vf.check_hopf)


def test_criterion_04_product_bijection():
    criterion(4, "template product bijection on 2-hole fixtures",
              vf.check_product_bijection, limit=300, scale="full")


def test_criterion_05_unit_determinant():
    criterion(5, "|det| = 1 with left-tree contour structure",
              vf.check_unit_determinant, scale="full")


def test_criterion_06_winding_labels():
    # frozen regression of the two-pass fixture's labels (in pi units)
    tsub = build_subtemplate(*vf.FIXTURES["two-pass"])
    geom = qw.embed_subtemplate(tsub)
    labels = qw.winding_label_values(geom, qe.enumerate_fillings(tsub, 2)[0])
    frozen = {3: 0.6244885189, 5: 0.3557749052, 7: 0.1800508348,
              11: 0.1276258306, 13: 0.1179489885, 15: 0.0855360771}
    drift = max(abs(labels[v] / math.pi - frozen[v]) for v in frozen)
    criterion(6, "winding labels independent of the filling", vf.check_winding_labels,
              extra=(drift < 1e-8, f"; regression drift {drift:.1e}"), scale="full")


def test_criterion_07_mating_pipeline():
    # cone containment <=> constraints, on accepted and rejected proposals
    probe = mt.mot_params(1.8, 0.25, 32, MASTER_SEED)
    paths = sample_walk_proposals(probe, 4000, rng=np.random.default_rng(MASTER_SEED))
    times = np.linspace(0, 1, probe.steps + 1)
    cuts = [8, 16, 24]
    # an in-cone walk gets its sub-grid minima (no new cut times), so that
    # its cells have no zero side
    refine_rng = np.random.default_rng(MASTER_SEED)
    seen = [0, 0]
    ok = True
    for k in range(paths.shape[0]):
        walk = mt.ConeWalk(times=times, L=paths[k, :, 0], R=paths[k, :, 1])
        in_cone = in_quadrant(walk)
        if in_cone:
            walk, at = mt.refine_walk(walk, times[cuts], probe.variance, refine_rng)
            cells = mt.cell_lengths_at(walk, at)
        else:
            cells = mt.cell_lengths_at(walk, cuts)
        if (in_cone and cells.degenerate()) or cells.sn2_satisfied() != in_cone:
            ok = False
            break
        seen[in_cone] += 1

    p = mt.mot_params(math.sqrt(2), 0.15, 64, MASTER_SEED)
    cov = mt.calibrate_covariance(p, n_steps=10_000,
                                  rng=np.random.default_rng(MASTER_SEED))
    ok = ok and min(seen) > 0 and cov.passed
    criterion(7, "mating pipeline validity over 10^4 quilts", vf.check_mating_pipeline,
              extra=(ok, f"; cov dev {cov.max_rel_dev:.3f}, z {cov.max_z:.2f}; "
                         f"equivalence checked on {seen} (out, in) walks"),
              scale="full")


def test_criterion_08_poisson_partition():
    criterion(8, "Poisson partition law", vf.check_poisson_partition)


def test_criterion_09_field_rotation():
    criterion(9, "field-vector rotation conserves charge and independence",
              vf.check_field_rotation)


def test_criterion_10_lattice_identities():
    criterion(10, "matrix-tree and partition determinant identities",
              vf.check_lattice_identities, scale="full")


def test_criterion_11_determinism():
    start = time.monotonic()
    rep1 = vf.run_verify_all(seed=MASTER_SEED)
    rep2 = vf.run_verify_all(seed=MASTER_SEED)
    elapsed = time.monotonic() - start
    blob1 = json.dumps(rep1, sort_keys=True)
    blob2 = json.dumps(rep2, sort_keys=True)
    statuses = {c["name"]: c["status"] for c in rep1["checks"]}
    ok = blob1 == blob2 and all(s == "pass" for s in statuses.values())
    ok = ok and elapsed < 900
    report(11, "verify-all deterministic and green", ok,
           f"two runs in {elapsed:.0f}s; statuses {sorted(set(statuses.values()))}")
