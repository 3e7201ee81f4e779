"""The benchmark's four workloads and the correctness gate of every operation.

Each workload is a closed loop with one caller: the next operation starts
when the last one has finished.  ``setup`` builds the fixtures and
parameters and runs one untimed warm-up operation; ``loop`` runs the timed
operations through a :class:`Recorder`.  Every random input derives from the seed.

An operation returns ``(gates, counters)`` and, for ``verify-all``, the
status of each check.  A gate is an exact claim about the output; a false
gate makes the run incorrect and the operation failed.  An exception, or a
verify-all check that reports ``fail``, counts as a failed operation
without making the run incorrect: the first is a refusal, the second is the
program's own verdict, which the benchmark reports as it is.
"""

from __future__ import annotations

import itertools
import math
import random
import resource
from time import perf_counter

import numpy as np

from quiltlab import _verify, fields, mating, meander, quilt, quilt_enum, quilt_winding
from quiltlab._builder import Builder

# criterion 7: gamma = sqrt 2, epsilon = 0.15, 64 steps
MATING = (math.sqrt(2), 0.15, 64)

# criterion 4, in order: name, moves, unmarked positions, budgets,
# constructive, exact filling count
FIXTURES = (
    ("chain", ((1, 1),) * 3, (2, 4), (2, 2), True, 50),
    ("wide", ((1, 2),) * 3, (2, 4), (2, 2), True, 70),
    ("two-pass", ((1, 1),) * 3 + ((1, 2), (1, 3)), (2, 4, 6), (2, 2), True, 14),
    ("chain-4-1", ((1, 1),) * 3, (2, 4), (4, 1), False, 875),
)
# criterion 6: its own sample of 60 filling pairs per fixture, drawn as the
# acceptance test draws it; one operation checks one pair of each fixture.
# The fixtures and this sample are the whole input, so --seed changes nothing
# here: a search workload has no randomness of its own.
WINDING_FIXTURES = ("wide", "two-pass")
WINDING_PAIRS = 60
CRITERION6_SEED = 2

MEANDER_M = 9
MEANDER_COUNT = 933458  # OEIS A005316
GFF_L = 64
GFF_FIELDS = 4
GFF_CALLS = 6  # per pass, after one meander count
GFF_Z_MAX = 5.0


def maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Recorder:
    """Times operations and tallies attempts, failures and gate results.

    The loop ends at the first pass boundary after ``seconds``, or after
    exactly ``max_ops`` operations when that is given (used to replay a run
    operation for operation).  ``corrected`` gives each operation's time at
    the reference speed, from the speed probe that was active in the loop
    and the kind of reference loop named for the operation (speed.py).
    """

    def __init__(self, seconds=None, max_ops=None, tracer=None, probe=None):
        self.seconds = seconds
        self.max_ops = max_ops
        self.tracer = tracer
        self.probe = probe
        self.kinds = []
        self.speed_kinds = []
        self.windows = []  # (start, end) of each operation
        self.records = []  # (kind, gates, counters, checks) per operation
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.failures = {}
        self.extra = {}
        self.start = perf_counter()

    def done(self, pass_end=True):
        if self.max_ops is not None:
            return len(self.windows) >= self.max_ops
        return pass_end and perf_counter() - self.start >= self.seconds

    def gate(self, label, ok):
        if not ok:
            self.correct = False
            self._fail(f"gate:{label}")

    def _fail(self, reason, n=1):
        self.failed += n
        self.failures[reason] = self.failures.get(reason, 0) + n

    def corrected(self):
        return [self.probe.correct(t0, t1, k)
                for (t0, t1), k in zip(self.windows, self.speed_kinds)]

    def op(self, kind, fn, speed="interpreter"):
        if self.tracer is not None:
            self.tracer.open(f"op.{kind}")
        t0 = perf_counter()
        try:
            out = fn()
        except Exception as exc:  # a refused operation is a failed one
            out = exc
        finally:
            self.windows.append((t0, perf_counter()))
            self.kinds.append(kind)
            self.speed_kinds.append(speed)
            if self.tracer is not None:
                self.tracer.close()
        if isinstance(out, Exception):
            self.attempted += 1
            self._fail(f"{kind}:{type(out).__name__}")
            self.records.append((kind, type(out).__name__, None, None))
            return
        gates, counters, checks = out if len(out) == 3 else (*out, None)
        bad = sorted(g for g, ok in gates.items() if not ok)
        self.records.append((kind, tuple(bad), counters, checks))
        self.attempted += 1 if checks is None else len(checks)
        if bad:
            self.correct = False
            self._fail(f"{kind}:{','.join(bad)}")
        for name, status in (checks or {}).items():
            if status != "pass":
                self._fail(f"{kind}:{name}:{status}")


# --- mating: repeated verified quilts -------------------------------------------------


def quilt_op(params, rng):
    res = mating.simulate_discretized_disk(params, rng=rng)
    template = res.quilt.template
    det = quilt.side_length_map_determinant(template)
    gates = {
        "valid": quilt.validate_template(template).passed,
        "unit-det": abs(det.det) == 1 and det.bijection_ok and det.triangular_ok,
        "conservation": res.cells.conservation_residual() < 1e-9,
        "sn2": res.cells.sn2_satisfied(),
    }
    prov = res.provenance
    counters = {k: prov[k] for k in (
        "rejections", "poisson_parts", "partition_resamples", "snap_merges",
        "length_collisions")}
    return gates, counters


def mating_setup(seed, rep):
    params = mating.mot_params(*MATING, seed)
    quilt_op(params, np.random.default_rng([seed, 1, rep]))
    return params


def mating_loop(params, seed, rec):
    rng = np.random.default_rng(seed)
    while True:
        rec.op("quilt", lambda: quilt_op(params, rng))
        if rec.done():
            return


# --- fillings: the criterion-4 fixtures, then criterion-6 winding pairs ---------------


def fixture_subtemplate(moves, unmarked_positions):
    b = Builder()
    for t, s in moves:
        b.add_face(t=t, s=s)
    b.close()
    template = b.build()[0]
    order = template.face_order
    skip = {order[i] for i in unmarked_positions}
    return quilt.mark_subtemplate(template, [f for f in order if f not in skip])


def fixture_op(tsub, budgets, constructive, expected, out):
    fills = quilt_enum.enumerate_fillings(tsub, budgets)
    rep = quilt_enum.verify_product_bijection(
        tsub, budgets, constructive=constructive, fillings=fills)
    out.append(fills)
    gates = {
        "count": len(fills) == expected,
        "product": rep.n_fillings == len(fills) == rep.product,
        "bijection": rep.injective and rep.surjective,
        "composed": rep.composed_checked == (rep.product if constructive else 0),
    }
    counters = {"fillings": len(fills), "composed": rep.composed_checked}
    return gates, counters


def pairs_op(jobs):
    """One winding pair on each winding fixture: the operations stay alike."""
    worst = 0.0
    gates = {}
    for name, tsub, a, b, geom in jobs:
        rep = quilt_winding.winding_labels(tsub, a, b, geom=geom)
        gates[f"label-{name}"] = rep.max_difference < quilt_winding.LABEL_TOL
        worst = max(worst, rep.max_difference)
    return gates, {"pairs": len(jobs), "max_difference": worst}


def fillings_setup(seed, rep):
    tsubs = {name: fixture_subtemplate(moves, holes)
             for name, moves, holes, *_ in FIXTURES}
    name, _, _, budgets, constructive, expected = FIXTURES[1]
    fixture_op(tsubs[name], budgets, constructive, expected, [])
    return tsubs


def embed_op(tsub, out):
    out.append(quilt_winding.embed_subtemplate(tsub))
    return {}, {}


def fillings_loop(tsubs, seed, rec):
    while True:
        fills = {}
        for name, _, _, budgets, constructive, expected in FIXTURES:
            out = []
            rec.op("fixture", lambda: fixture_op(
                tsubs[name], budgets, constructive, expected, out))
            if out:
                fills[name] = out[0]
            if rec.done(pass_end=False):
                return
        geoms = {}
        for name in WINDING_FIXTURES:
            out = []
            rec.op("embed", lambda: embed_op(tsubs[name], out))
            if out:
                geoms[name] = out[0]
            if rec.done(pass_end=False):
                return
        if all(n in fills and n in geoms for n in WINDING_FIXTURES):
            samples = {n: random.Random(CRITERION6_SEED).sample(
                list(itertools.combinations(range(len(fills[n])), 2)), WINDING_PAIRS)
                for n in WINDING_FIXTURES}
            for k in range(WINDING_PAIRS):
                jobs = [(n, tsubs[n], *(fills[n][i] for i in samples[n][k]), geoms[n])
                        for n in WINDING_FIXTURES]
                rec.op("pairs", lambda: pairs_op(jobs))
                if rec.done(pass_end=False):
                    return
        if rec.done():
            return


# --- verify-all: the user's one-command check ------------------------------------------


def verify_op(seed):
    report = _verify.run_verify_all(seed)
    checks = {c["name"]: c["status"] for c in report["checks"]}
    expected = [name for name, _ in _verify.CHECKS]
    gates = {
        "complete": [c["name"] for c in report["checks"]] == expected,
        "statuses": set(checks.values()) <= {"pass", "fail"},
    }
    counters = {"pass": sum(s == "pass" for s in checks.values()),
                "fail": sum(s == "fail" for s in checks.values())}
    return gates, counters, checks


def verify_setup(seed, rep):
    # no fixtures and no lazy state beyond the imports: the warm-up runs the
    # report plumbing only (budget 0 skips every check), so that set-up time
    # is not one more copy of the operation itself
    _verify.run_verify_all(seed, budget=0)
    return None


def verify_loop(state, seed, rec):
    i = 0
    while True:
        s = seed + i
        rec.op("verify-all", lambda: verify_op(s))
        i += 1
        if rec.done():
            return


# --- probes: the meander transfer matrix at m = 9, then GFF draws at L = 64 --------------


def meander_op():
    count = meander.count_meanders_transfer_matrix(MEANDER_M)
    return {"A005316": count == MEANDER_COUNT}, {"meanders": count}


def dirichlet_energy(values, L):
    """f^T Delta f per field, by the 4-neighbour stencil with zero boundary."""
    m = L - 2
    f = np.asarray(values).reshape(-1, m, m)
    # every lattice edge touching the interior, boundary values 0
    dx = np.diff(np.concatenate([np.zeros((f.shape[0], m, 1)), f,
                                 np.zeros((f.shape[0], m, 1))], axis=2), axis=2)
    dy = np.diff(np.concatenate([np.zeros((f.shape[0], 1, m)), f,
                                 np.zeros((f.shape[0], 1, m))], axis=1), axis=1)
    return (dx ** 2).sum(axis=(1, 2)) + (dy ** 2).sum(axis=(1, 2))


def gff_op(seed, sums):
    """One CLI-sized GFF draw; the energy of a draw is chi^2 with k dof."""
    fv = fields.sample_gff(GFF_L, GFF_FIELDS, seed)
    k = (GFF_L - 2) ** 2
    energy = float(dirichlet_energy(fv.values, GFF_L).sum())
    dof = k * GFF_FIELDS
    sums[0] += energy
    sums[1] += dof
    z = (energy - dof) / math.sqrt(2 * dof)
    gates = {"shape": fv.values.shape == (GFF_FIELDS, k), "chi2": abs(z) < GFF_Z_MAX}
    return gates, {"fields": GFF_FIELDS}


def probes_setup(seed, rep):
    # small sizes: load the code paths without raising the memory high-water
    # mark that the meander and GFF phases report
    meander.count_meanders_transfer_matrix(5)
    fields.sample_gff(16, GFF_FIELDS, [seed, 1, rep])
    return None


def probes_loop(state, seed, rec):
    """Passes of one meander count and GFF_CALLS draws, each draw a fresh seed.

    The memory growth of each phase is taken in the first pass, when the
    meander phase runs first in the process.
    """
    sums = [0.0, 0]
    draw = 0
    while True:
        rss = maxrss_mb()
        rec.op("meander", meander_op)
        rec.extra.setdefault("meander.peak_rss_mb", maxrss_mb() - rss)
        rss = maxrss_mb()
        for _ in range(GFF_CALLS):
            if rec.done(pass_end=False):
                break
            s = seed + draw
            draw += 1
            # the dense Cholesky is most of a draw: corrected by the blas loop
            rec.op("gff", lambda: gff_op(s, sums), speed="blas")
        rec.extra.setdefault("fields.peak_rss_mb", maxrss_mb() - rss)
        if rec.done():
            break
    if sums[1]:
        z = (sums[0] - sums[1]) / math.sqrt(2 * sums[1])
        rec.extra["gff_chi2_z"] = z
        rec.gate("gff-chi2-all-draws", abs(z) < GFF_Z_MAX)


WORKLOADS = {
    "mating": (mating_setup, mating_loop),
    "fillings": (fillings_setup, fillings_loop),
    "verify-all": (verify_setup, verify_loop),
    "probes": (probes_setup, probes_loop),
}


def headline(name, kinds, times, records):
    """The workload's own figures, under the names the ROADMAP uses."""
    def lat(kind):
        return [t for k, t in zip(kinds, times) if k == kind]

    def total(kind, key):
        return sum(r[2][key] for r in records if r[0] == kind and r[2])

    if name == "mating":
        ms = np.array(lat("quilt")) * 1e3
        return [("quilts_per_s", len(ms) / ms.sum() * 1e3, "1/s"),
                ("quilt_ms_p50", float(np.percentile(ms, 50)), "ms"),
                ("quilt_ms_p90", float(np.percentile(ms, 90)), "ms"),
                ("quilt_samples", len(ms), "count")]
    if name == "fillings":
        rows = [("fillings_per_s", total("fixture", "fillings") / sum(lat("fixture")), "1/s")]
        if lat("pairs"):
            rows.append(("winding_pairs_per_s", total("pairs", "pairs") / sum(lat("pairs")), "1/s"))
        return rows
    if name == "verify-all":
        return [("verify_all_s", float(np.median(lat("verify-all"))), "s")]
    rows = [("meander_tm_s", float(np.median(lat("meander"))), "s")]
    if lat("gff"):
        rows.append(("gff_fields_per_s", total("gff", "fields") / sum(lat("gff")), "1/s"))
    return rows
