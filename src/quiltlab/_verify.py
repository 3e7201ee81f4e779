"""The acceptance checks behind ``quilt-lab verify-all`` and the acceptance suite.

Each check returns ``(ok, details)``; the details hold no timestamps or
durations, so identical seeds give byte-identical reports.  Failures are
data, not exceptions; the CLI turns them into exit code 1.  ``faulty=True``
corrupts one check's computed value, which exercises the failure path end
to end.  A check with a larger acceptance workload takes ``scale``:
``"quick"`` (``verify-all``) or ``"full"``; only sizes depend on it.
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import replace

import numpy as np

from . import curvature as cv
from . import fields as fl
from . import mating as mt
from . import meander as me
from . import quilt as qt
from . import quilt_enum as qe
from . import quilt_winding as qw
from ._builder import Builder

MEANDER_COUNTS = {1: 1, 2: 2, 3: 8, 4: 42, 5: 262}

# scripted subtemplates of criteria 4 and 6: (moves, unmarked positions)
FIXTURES = {
    "chain": ([(1, 1)] * 3, (2, 4)),
    "wide": ([(1, 2)] * 3, (2, 4)),
    "two-pass": ([(1, 1), (1, 1), (1, 1), (1, 2), (1, 3)], (2, 4, 6)),
}


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
    got = {m: len(me.enumerate_meanders(m)) for m in MEANDER_COUNTS}
    cross = {m: me.count_meanders_transfer_matrix(m) for m in MEANDER_COUNTS}
    if faulty:
        got[3] += 1
    return got == MEANDER_COUNTS and cross == MEANDER_COUNTS, {"counts": got}


def check_meander_factorization(seed, faulty=False):
    reports = {m: me.verify_factorization(m) for m in MEANDER_COUNTS}
    figure = {c.theta: c for c in reports[4].classes}[(0, 1, 0, -1, 0, 1, 0)]
    ok = (figure.upper_count, figure.lower_count, figure.meander_count) == (2, 2, 4)
    for m, rep in reports.items():
        ok = ok and rep.total_meanders == MEANDER_COUNTS[m] and all(
            c.meander_count == c.upper_count * c.lower_count for c in rep.classes
        )
    if faulty:
        ok = False
    return ok, {"classes": {m: len(rep.classes) for m, rep in reports.items()}}


def check_hopf(seed, faulty=False):
    for k in (3, 4, 5, 64):
        if (cv.verify_hopf(cv.regular_polygon(k)) != 1
                or cv.verify_hopf(cv.regular_polygon(k, ccw=False)) != -1):
            return False, {"error": f"wrong orientation sign of the regular {k}-gon"}
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
    return worst < cv.HOPF_TOL_PER_VERTEX * 51, {"loops": 1000, "max_deviation": worst}


def check_product_bijection(seed, faulty=False, scale="quick"):
    runs = {
        "quick": [("chain", (2, 2), False)],
        "full": [("chain", (2, 2), True), ("wide", (2, 2), True),
                 ("two-pass", (2, 2), True), ("chain", (4, 1), False)],
    }[scale]
    ok = True
    sizes = {}
    for name, budgets, constructive in runs:
        tsub = fixture_subtemplate(*FIXTURES[name])
        rep = qe.verify_product_bijection(tsub, budgets, constructive=constructive)
        expected = rep.product + (1 if faulty else 0)
        ok = ok and rep.n_fillings == expected and rep.injective and rep.surjective
        sizes[f"{name} {budgets}"] = [rep.n_fillings, *rep.factor_sizes]
    return ok, {"fillings_and_factor_sizes": sizes}


def check_unit_determinant(seed, faulty=False, scale="quick"):
    per_gamma = {"quick": 25, "full": 250}[scale]
    scripted = [fixture_template(moves) for moves in
                ([], [(1, 1)], [(1, 2), (2, 2)], [(1, 1), (2, 1), (1, 2)])]
    params = (mt.mot_params(gamma, 0.25, steps, seed + 7919 * k)
              for gamma, steps in ((0.5, 6), (1.0, 16), (math.sqrt(2), 48), (1.8, 128))
              for k in range(per_gamma))
    sampled = (mt.simulate_discretized_disk(p).quilt.template for p in params)
    for i, template in enumerate(itertools.chain(scripted, sampled)):
        rep = qt.side_length_map_determinant(template)
        if not (replace(rep, det=rep.det + 1) if faulty else rep).passed:
            return False, {"failed_template": i}
    return True, {"templates": i + 1}


def check_winding_labels(seed, faulty=False, scale="quick"):
    names, n_pairs = {"quick": (("wide",), 12), "full": (("wide", "two-pass"), 60)}[scale]
    worst = 0.0
    fixtures = {}
    for name in names:
        tsub = fixture_subtemplate(*FIXTURES[name])
        fills = qe.enumerate_fillings(tsub, 2)
        geom = qw.embed_subtemplate(tsub)
        pairs = list(itertools.combinations(range(len(fills)), 2))
        pairs = random.Random(seed).sample(pairs, min(n_pairs, len(pairs)))
        for i, j in pairs:
            rep = qw.winding_labels(tsub, fills[i], fills[j], geom=geom)
            worst = max(worst, rep.max_difference)
        fixtures[name] = {"fillings": len(fills), "pairs": len(pairs)}
    if faulty:
        worst += 1.0
    return qw.labels_agree(worst), {"fixtures": fixtures, "max_difference": worst}


def check_mating_pipeline(seed, faulty=False, scale="quick"):
    runs = {"quick": 200, "full": 10_000}[scale]
    p = mt.mot_params(math.sqrt(2), 0.15, 64, seed)
    rng = np.random.default_rng(seed)
    worst_resid = 0.0
    for _ in range(runs):
        res = mt.simulate_discretized_disk(p, rng=rng)
        if not qt.validate_template(res.quilt.template).passed:
            return False, {"error": "invalid template"}
        worst_resid = max(worst_resid, res.cells.conservation_residual())
        if not res.cells.sn2_satisfied():
            return False, {"error": "cone constraints violated"}
    if faulty:
        worst_resid += 1.0
    return qt.conserved(worst_resid), {
        "runs": runs, "max_conservation_residual": worst_resid,
    }


def check_poisson_partition(seed, faulty=False):
    """10^4 partitions of [0, 1] at rate 10 from ``mt.poisson_partition``.

    Two tests, each at level 5e-5, so the family-wise false-alarm rate is at
    most 1e-4 at any seed: the exact two-sided Poisson test of the total cut
    count against Poisson(10^5), and the KS test of the pooled cut times
    against Uniform(0, 1), which is their exact law given the counts.
    """
    import scipy.stats  # here, not at import: it is most of this module's import time

    n, rate, alpha = 10_000, 10.0, 5e-5
    rng = np.random.default_rng(seed)
    parts = [mt.poisson_partition(1.0, 1.0 / rate, rng=rng) for _ in range(n)]
    lens = np.array([len(p) for p in parts])
    cuts = int(lens.sum()) - n
    if faulty:
        cuts += n
    law = scipy.stats.poisson(n * rate)
    count_p = min(1.0, 2 * min(law.cdf(cuts), law.sf(cuts - 1)))
    # every partition's np.cumsum(p)[:-1] at once: one running sum, each
    # partition's offset taken off, each partition's endpoint t dropped
    ends = np.cumsum(lens) - 1
    running = np.cumsum(np.concatenate(parts))
    offsets = np.repeat(np.concatenate(([0.0], running[ends[:-1]])), lens)
    ks = scipy.stats.kstest(np.delete(running - offsets, ends), "uniform")
    ok = count_p > alpha and ks.pvalue > alpha
    return ok, {"cuts": cuts, "count_pvalue": float(count_p), "ks_pvalue": float(ks.pvalue)}


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
    return drift < fl.CHARGE_DRIFT_TOL and rep.passed, {
        "max_charge_drift": drift,
        "max_cross_z": rep.max_cross_z,
        "max_marginal_dev_stderr": rep.max_marginal_dev_stderr,
    }


def check_lattice_identities(seed, faulty=False, scale="quick"):
    per_n = {"quick": 10, "full": 40}[scale]
    rng = random.Random(seed)
    checked = 0
    for n in range(2, 7):
        possible = list(itertools.combinations(range(n), 2))
        for _ in range(per_n):
            k = rng.randrange(n - 1, len(possible) + 1)
            edges = tuple(rng.sample(possible, k))
            g = fl.Graph(n=n, edges=edges)
            if not g.is_connected():
                continue
            det = fl.spanning_tree_count(g) + (1 if faulty else 0)
            if det != fl.spanning_trees_brute_force(g):
                return False, {"edges": edges}
            checked += 1
    reps = [fl.gaussian_partition_identity(fl.grid_graph(L)) for L in (3, 4, 5, 6)]
    c2 = fl.c_sle(2.0)
    dual = max(abs(fl.c_sle(k) - fl.c_sle(16.0 / k)) for k in (0.7, 2.0, 3.0, 3.5, 6.0))
    ok = (all(rep.passed for rep in reps) and abs(c2 + 2.0) < fl.CENTRAL_CHARGE_TOL
          and dual < fl.CENTRAL_CHARGE_TOL)
    return ok, {"graphs_checked": checked,
                "partition_residual": max(rep.residual for rep in reps)}


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
