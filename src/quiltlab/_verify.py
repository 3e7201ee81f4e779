"""Aggregate verification suite behind ``quilt-lab verify-all``.

Runs one named check per verified claim and returns a deterministic report
(no timestamps or durations in the payload, so identical seeds give
byte-identical reports).  Failures are data, not exceptions; the CLI turns
them into exit code 1.  ``inject_fault=<name>`` deliberately corrupts one
check's computed value, which exercises the failure path end to end.
"""

from __future__ import annotations

import math
import time

import numpy as np
import scipy.stats

from . import curvature as cv
from . import fields as fl
from . import mating as mt
from . import meander as me
from . import quilt as qt
from . import quilt_enum as qe
from . import quilt_winding as qw
from ._builder import Builder

MEANDER_COUNTS = {1: 1, 2: 2, 3: 8, 4: 42, 5: 262}


def fixture_template(moves):
    """Ordered template from a scripted move sequence."""
    b = Builder()
    for t, s in moves:
        b.add_face(t=t, s=s)
    b.close()
    template, _, _ = b.build()
    return template


def fixture_subtemplate(moves, unmarked_positions):
    """Reduce the scripted template, carving holes at the given positions
    of the face order (position 2 = F_1, etc.)."""
    t = fixture_template(moves)
    order = t.face_order
    skip = {order[i] for i in unmarked_positions}
    return qt.mark_subtemplate(t, [f for f in order if f not in skip])


def check_meander_counts(seed, faulty=False):
    got = {m: len(me.enumerate_meanders(m)) for m in range(1, 5)}
    got.update({5: me.count_meanders_transfer_matrix(5)})
    cross = {m: me.count_meanders_transfer_matrix(m) for m in range(1, 5)}
    if faulty:
        got[3] += 1
    ok = all(got[m] == MEANDER_COUNTS[m] for m in got) and all(
        cross[m] == got[m] for m in cross
    )
    return ok, {"counts": got}


def check_meander_factorization(seed, faulty=False):
    sizes = (1, 2, 3, 4)
    reports = {}
    for m in sizes:
        rep = me.verify_factorization(m)
        reports[m] = {"classes": len(rep.classes), "total": rep.total_meanders}
    ok = all(reports[m]["total"] == MEANDER_COUNTS[m] for m in sizes)
    if faulty:
        ok = False
    return ok, {"sizes": reports}


def check_hopf(seed, faulty=False):
    import random

    rng = random.Random(seed)
    worst = 0.0
    for _ in range(1000):
        k = rng.randrange(8, 51)
        ccw = rng.random() < 0.5
        loop = cv.star_polygon(k, rng, ccw=ccw)
        sign = cv.verify_hopf(loop)
        if sign != (1 if ccw else -1):
            return False, {"error": "wrong orientation sign"}
        worst = max(worst, abs(abs(cv.total_turning(loop)) - 2 * math.pi))
    if faulty:
        worst += 1.0
    return worst < 1e-9 * 51, {"max_deviation": worst}


def check_product_bijection(seed, faulty=False):
    tsub = fixture_subtemplate(
        [(1, 1), (1, 1), (1, 1)], unmarked_positions=(2, 4)
    )
    rep = qe.verify_product_bijection(tsub, 2, constructive=False)
    expected = rep.factor_sizes[0] * rep.factor_sizes[1]
    if faulty:
        expected += 1
    return rep.n_fillings == expected, {
        "fillings": rep.n_fillings,
        "factor_sizes": list(rep.factor_sizes),
    }


def check_unit_determinant(seed, faulty=False):
    count = 0
    for gamma, steps in ((0.5, 6), (1.0, 16), (math.sqrt(2), 48), (1.8, 128)):
        for k in range(25):
            p = mt.mot_params(gamma, 0.25, steps, seed + 7919 * k)
            res = mt.simulate_discretized_disk(p)
            rep = qt.side_length_map_determinant(res.quilt.template)
            det = abs(rep.det) + (1 if faulty else 0)
            if det != 1 or not rep.bijection_ok or not rep.triangular_ok:
                return False, {"gamma": gamma, "seed": seed + 7919 * k}
            if rep.left_tree_size != 2 * rep.n + 1:
                return False, {"error": "left tree size"}
            count += 1
    return True, {"templates": count}


def check_winding_labels(seed, faulty=False):
    tsub = fixture_subtemplate(
        [(1, 2), (1, 2), (1, 2)], unmarked_positions=(2, 4)
    )
    fills = qe.enumerate_fillings(tsub, 2)
    geom = qw.embed_subtemplate(tsub)
    worst = 0.0
    for other in fills[1:13]:
        rep = qw.winding_labels(tsub, fills[0], other, geom=geom)
        worst = max(worst, rep.max_difference)
    if faulty:
        worst += 1.0
    return worst < qw.LABEL_TOL, {"fillings": len(fills), "max_difference": worst}


def check_mating_pipeline(seed, faulty=False):
    p = mt.mot_params(math.sqrt(2), 0.15, 64, seed)
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    for _ in range(200):
        res = mt.simulate_discretized_disk(p, rng=rng)
        if not qt.validate_template(res.quilt.template).passed:
            return False, {"error": "invalid template"}
        worst_resid = max(worst_resid, res.cells.conservation_residual())
        if not res.cells.sn2_satisfied():
            return False, {"error": "cone constraints violated"}
    if faulty:
        worst_resid += 1.0
    return worst_resid < 1e-9, {"runs": 200, "max_conservation_residual": worst_resid}


def check_poisson_partition(seed, faulty=False):
    rng = np.random.default_rng(seed)
    counts = np.array([
        len(mt.poisson_partition(1.0, 0.1, rng=rng)) for _ in range(10_000)
    ])
    mean = float(counts.mean())
    sigma = math.sqrt(10.0) / math.sqrt(10_000)
    lengths = np.concatenate([
        np.diff(np.sort(rng.uniform(0, 100.0, size=rng.poisson(1000))))
        for _ in range(3)
    ])
    ks = scipy.stats.kstest(lengths, "expon", args=(0, 0.1))
    mean_dev = abs(mean - 11.0) + (1.0 if faulty else 0.0)
    ok = mean_dev < 3 * sigma and ks.pvalue > 0.01
    return ok, {"mean_parts": mean, "ks_pvalue": float(ks.pvalue)}


def check_field_rotation(seed, faulty=False):
    rng = np.random.default_rng(seed)
    drift = 0.0
    for _ in range(1000):
        a = fl.random_orthogonal(3, rng)
        fv = fl.FieldVector(grid=3, values=np.zeros((3, 1)),
                            charges=np.array([-2.0, 0.4, 1.0]))
        out = fl.rotate_fields(fv, a, interpret_charges=False)
        drift = max(drift, abs(float(out.charges.sum()) - float(fv.charges.sum())))
    angle = math.pi / 4
    rot = np.array([[math.cos(angle), -math.sin(angle)],
                    [math.sin(angle), math.cos(angle)]])
    rep = fl.rotation_independence_test(16, rot, 10_000, seed)
    if faulty:
        drift += 1.0
    ok = drift < 1e-12 and rep.max_cross_z < 4.0 and rep.max_marginal_dev_stderr < 5.0
    return ok, {
        "max_charge_drift": drift,
        "max_cross_z": rep.max_cross_z,
        "max_marginal_dev_stderr": rep.max_marginal_dev_stderr,
    }


def check_lattice_identities(seed, faulty=False):
    import itertools
    import random

    rng = random.Random(seed)
    checked = 0
    for n in range(2, 7):
        for _ in range(10):
            possible = list(itertools.combinations(range(n), 2))
            k = rng.randrange(n - 1, len(possible) + 1)
            edges = tuple(rng.sample(possible, k))
            g = fl.Graph(n=n, edges=edges)
            if not g.is_connected():
                continue
            det = fl.spanning_tree_count(g) + (1 if faulty else 0)
            if det != fl.spanning_trees_brute_force(g):
                return False, {"edges": edges}
            checked += 1
    resid = max(
        fl.gaussian_partition_identity(fl.grid_graph(L)).residual for L in (3, 4, 5)
    )
    c2 = fl.c_sle(2.0)
    dual = abs(fl.c_sle(3.0) - fl.c_sle(16.0 / 3.0))
    ok = resid < 1e-10 and abs(c2 + 2.0) < 1e-12 and dual < 1e-12
    return ok, {"graphs_checked": checked, "partition_residual": resid}


CHECKS = (
    ("meander-counts", check_meander_counts),
    ("meander-factorization", check_meander_factorization),
    ("hopf-umlaufsatz", check_hopf),
    ("product-bijection", check_product_bijection),
    ("unit-determinant", check_unit_determinant),
    ("winding-labels", check_winding_labels),
    ("mating-pipeline", check_mating_pipeline),
    ("poisson-partition", check_poisson_partition),
    ("field-rotation", check_field_rotation),
    ("lattice-identities", check_lattice_identities),
)


def run_verify_all(seed=0, budget=None, inject_fault=None, timings=None):
    """Run every check within the time budget; returns the report dict.

    ``budget`` (seconds) of 0 skips everything; a positive budget stops
    scheduling further checks once exceeded (skipped checks are reported as
    such).  The report contains no wall-clock data: a dict passed as
    ``timings`` receives the seconds of each check that ran instead.
    """
    checks = []
    start = time.monotonic()
    for name, func in CHECKS:
        if budget is not None and (
            budget <= 0 or time.monotonic() - start > budget
        ):
            checks.append({"name": name, "status": "skipped", "details": {}})
            continue
        t0 = time.perf_counter()
        try:
            ok, details = func(seed, faulty=(inject_fault == name))
        except Exception as exc:  # a crashed check is a failed check
            ok, details = False, {"exception": f"{type(exc).__name__}: {exc}"}
        if timings is not None:
            timings[name] = time.perf_counter() - t0
        checks.append(
            {"name": name, "status": "pass" if ok else "fail", "details": details}
        )
    return {"seed": seed, "checks": checks}
