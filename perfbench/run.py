"""quiltlab benchmark: four closed-loop workloads, end-to-end and per-layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload mating --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py) and what one operation is on each:

* ``mating``: one verified quilt at the criterion-7 parameters;
* ``fillings``: one criterion-4 fixture (enumeration and product
  bijection), one embedding, or one winding pair on each criterion-6 fixture;
* ``verify-all``: one ``run_verify_all(seed + i)``;
* ``probes``: one meander count at m = 9, or one ``sample_gff(64, 4)``.

The program is imported from the checkout's ``src/``; nothing under it is
changed.  BLAS runs one thread (set before numpy is imported), so that a
run uses one core.  The loop runs for ``--seconds``, to the end of a
workload pass, and every time is corrected for the machine's speed
(speed.py).

``--trace 0`` reports the end-to-end metrics, the same five on every
workload: ``setup_s`` (the imports, plus the median of three set-ups, each
building fixtures and parameters and running one warm-up operation),
``peak_rss_mb``, ``ops_per_s``, ``op_ms_p50`` and ``op_ms_p90`` (with fewer
than 100 operations, the highest percentile with ten operations beyond it,
and at least the median).  The lines tagged ``workload`` give the figures
under the ROADMAP's names: quilts_per_s, quilt_ms_p50 and quilt_ms_p90,
fillings_per_s, winding_pairs_per_s, verify_all_s, meander_tm_s and
gff_fields_per_s.

``--trace 1`` wraps the program's public functions (tracer.py) for half
the time, then replays the same operations untraced, which gives
``trace_overhead`` and must reproduce every record.  It reports the
per-layer metrics: self time and calls per function, and counters taken
from returned reports.  Spans are kept in memory and written to
``perfbench/out/`` at the end.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 3

# (module, function, metrics reported): each becomes "<layer>.<function>.<metric>";
# simulate_discretized_disk is traced for the counters in its provenance only
TRACED = (
    ("mating", "simulate_discretized_disk", ()),
    ("mating", "sample_cone_walk", ("self_s", "calls")),
    ("mating", "poisson_partition", ("calls",)),
    ("mating", "cell_lengths_at", ("self_s", "calls")),
    ("_builder", "build_quilt_from_cells", ("self_s",)),
    ("planar_map", "from_face_edge_cycles", ("self_s", "calls")),
    ("quilt", "validate_template", ("self_s", "calls")),
    ("quilt", "side_length_map_determinant", ("self_s",)),
    ("fields", "bareiss_determinant", ("self_s",)),
    ("quilt", "mark_subtemplate", ("self_s", "calls")),
    ("quilt", "template_key", ("self_s", "calls")),
    ("quilt", "template_iso", ("self_s", "calls")),
    ("quilt_enum", "enumerate_fillings", ("self_s",)),
    ("quilt_enum", "verify_product_bijection", ("self_s",)),
    ("quilt_enum", "project_filling", ("calls",)),
    ("quilt_enum", "compose_fillings", ("self_s", "calls")),
    ("quilt_winding", "embed_subtemplate", ("self_s",)),
    ("quilt_winding", "winding_labels", ("self_s", "calls")),
    ("curvature", "verify_hopf", ("self_s",)),
    ("curvature", "is_simple", ("self_s", "calls")),
    ("curvature", "total_turning", ("self_s",)),
    ("meander", "count_meanders_transfer_matrix", ("self_s",)),
    ("meander", "verify_factorization", ("self_s",)),
    ("meander", "enumerate_meanders", ("self_s",)),
    ("fields", "gff_sampling_factor", ("self_s", "calls")),
    ("fields", "sample_gff", ("self_s",)),
    ("fields", "sample_gff_batch", ("self_s",)),
    ("fields", "rotation_independence_test", ("self_s",)),
    ("fields", "spanning_tree_count", ("self_s",)),
)
UNITS = {"self_s": "s", "calls": "count"}
VERIFY_CHECKS = (
    "meander-counts", "meander-factorization", "hopf-umlaufsatz",
    "product-bijection", "unit-determinant", "winding-labels",
    "mating-pipeline", "poisson-partition", "field-rotation",
    "lattice-identities",
)
# counters and ratios taken from returned reports, with their units
DERIVED = (
    ("mating.proposals", "count"),
    ("mating.walk_acceptance", "ratio"),
    ("mating.partition_acceptance", "ratio"),
    ("mating.partition_resamples", "count"),
    ("mating.snap_merges", "count"),
    ("mating.length_collisions", "count"),
    ("quilt_enum.fillings", "count"),
    ("quilt_enum.leaf_yield", "ratio"),
    ("meander.peak_rss_mb", "MB"),
    ("fields.peak_rss_mb", "MB"),
)
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
)


def layer(module):
    return module.lstrip("_")


def per_layer_names():
    """Every per-layer metric with its unit, in report order."""
    names = [(f"{layer(m)}.{f}.{k}", UNITS[k]) for m, f, ks in TRACED for k in ks]
    names += list(DERIVED)
    names += [(f"verify.{c}.s", "s") for c in VERIFY_CHECKS]
    names.append(("trace_overhead", "ratio"))
    return names


def use_checkout_src():
    """Import quiltlab from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "quiltlab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no quiltlab sources under {src}")
    sys.path.insert(0, str(src))


def cap_blas_threads():
    """One BLAS thread, within the processor count, whatever the machine.

    The benchmark is one closed-loop caller on one core.  A second BLAS
    thread times the load of whatever else shares the machine's other cores:
    on a 2-CPU shared host, the median L=64 GFF draw spread 31% over five
    runs with two threads and 11% with one (both corrected by the
    interpreter loop).
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return nproc


def on_walk(counters, walk):
    counters["rejections"] += walk.rejections


def on_quilt(counters, res):
    counters["quilts"] += 1
    for key in ("partition_resamples", "snap_merges", "length_collisions"):
        counters[key] += res.provenance[key]


def on_fillings(counters, fills):
    counters["fillings"] += len(fills)


HOOKS = {
    "sample_cone_walk": on_walk,
    "simulate_discretized_disk": on_quilt,
    "enumerate_fillings": on_fillings,
}


def install(tracer):
    for module, func, _ in TRACED:
        mod = importlib.import_module(f"quiltlab.{module}")
        tracer.install(mod, func, f"{layer(module)}.{func}", HOOKS.get(func))
    verify = importlib.import_module("quiltlab._verify")
    tracer.replace(verify, "CHECKS", tuple(
        (name, tracer.wrap(fn, f"verify.{name}")) for name, fn in verify.CHECKS))


def measure(workload, seed, seconds, trace, max_ops=None, setup_reps=SETUP_REPS):
    """Set up ``setup_reps`` times, then run the timed loop under the speed probe.

    The loop runs for ``seconds`` (to the end of a workload pass) or
    ``max_ops`` operations.  With ``trace`` it runs traced for half the time,
    then an untraced replay of exactly the same seeded operations gives the
    tracing overhead and must reproduce every record of the traced pass.

    Returns (setup seconds per rep, recorder, replay or None, tracer or None);
    every time is corrected for the machine's speed (speed.py).
    """
    import workloads
    from speed import SpeedProbe
    from tracer import Tracer

    setup, loop = workloads.WORKLOADS[workload]
    probe = SpeedProbe()
    setup_times = []
    for rep in range(setup_reps):
        state, seconds_taken = probe.timed(lambda: setup(seed, rep))
        setup_times.append(seconds_taken)
    if not trace:
        with SpeedProbe() as probe:
            rec = workloads.Recorder(seconds, max_ops, probe=probe)
            loop(state, seed, rec)
        return setup_times, rec, None, None
    tracer = Tracer()
    install(tracer)
    try:
        with SpeedProbe(tracer) as probe:
            rec = workloads.Recorder(seconds / 2, max_ops, tracer, probe)
            loop(state, seed, rec)
    finally:
        tracer.uninstall()
    with SpeedProbe() as probe:
        replay = workloads.Recorder(max_ops=len(rec.windows), probe=probe)
        loop(state, seed, replay)
    if replay.records != rec.records or replay.correct != rec.correct:
        rec.gate("traced-equals-untraced", False)
    return setup_times, rec, replay, tracer


def tail_percentile(n):
    """90, or the highest percentile with ten samples beyond it, at least 50."""
    return max(50.0, min(90.0, 100.0 * (1 - 10 / n)))


def end_to_end(import_s, setup_times, times):
    import numpy as np
    from workloads import maxrss_mb

    ms = np.array(times) * 1e3
    return {
        "setup_s": import_s + statistics.median(setup_times),
        "peak_rss_mb": maxrss_mb(),
        "ops_per_s": len(ms) / ms.sum() * 1e3,
        "op_ms_p50": float(np.percentile(ms, 50)),
        "op_ms_p90": float(np.percentile(ms, tail_percentile(len(ms)))),
    }


def per_layer(rec, tracer, replay):
    summary = tracer.summary()
    calls = {name: row["calls"] for name, row in summary.items()}
    c = tracer.counters
    out = {}
    for module, func, kinds in TRACED:
        row = summary.get(f"{layer(module)}.{func}", {"calls": 0, "self_s": 0.0})
        for k in kinds:
            out[f"{layer(module)}.{func}.{k}"] = row[k]
    walks = calls.get("mating.sample_cone_walk", 0)
    proposals = c["rejections"] + walks
    partitions = calls.get("mating.poisson_partition", 0)
    leaves = tracer.count_within("quilt.mark_subtemplate", "quilt_enum.enumerate_fillings")
    out.update({
        "mating.proposals": proposals,
        "mating.walk_acceptance": walks / proposals if proposals else 0.0,
        "mating.partition_acceptance": c["quilts"] / partitions if partitions else 0.0,
        "mating.partition_resamples": c["partition_resamples"],
        "mating.snap_merges": c["snap_merges"],
        "mating.length_collisions": c["length_collisions"],
        "quilt_enum.fillings": c["fillings"],
        "quilt_enum.leaf_yield": c["fillings"] / leaves if leaves else 0.0,
        "meander.peak_rss_mb": rec.extra.get("meander.peak_rss_mb", 0.0),
        "fields.peak_rss_mb": rec.extra.get("fields.peak_rss_mb", 0.0),
    })
    for check in VERIFY_CHECKS:
        out[f"verify.{check}.s"] = summary.get(f"verify.{check}", {"total_s": 0.0})["total_s"]
    out["trace_overhead"] = sum(rec.corrected()) / sum(replay.corrected()) - 1.0
    return out


def git_commit():
    """HEAD of the checkout, read from .git without leaving it; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def context(args, nproc):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "machine": platform.platform(),
        "cpu": platform.machine(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "commit": git_commit(),
        "command": [Path(sys.executable).name] + sys.argv,
        "seed": args.seed,
        "workload": args.workload,
        "trace": args.trace,
    }


def write_spans(args, ctx, tracer):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    with path.open("w") as fh:
        json.dump({"context": ctx, "fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, fh)
    return path


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("mating", "fillings", "verify-all", "probes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None):
    args = parse_args(argv)
    use_checkout_src()
    nproc = cap_blas_threads()
    t0 = perf_counter()
    import workloads  # numpy, scipy and every quiltlab module
    import_s = perf_counter() - t0
    # the speed probe uses numpy, so it is loaded after the timed import
    from speed import REF_S, SpeedProbe

    import_s = SpeedProbe().scale(import_s)

    setup_times, rec, replay, tracer = measure(
        args.workload, args.seed, args.seconds, bool(args.trace))
    times = rec.corrected()
    ctx = context(args, nproc)
    if tracer is None:
        metrics = end_to_end(import_s, setup_times, times)
        units = dict(END_TO_END)
    else:
        metrics = per_layer(rec, tracer, replay)
        units = dict(per_layer_names())
        ctx["spans_file"] = str(write_spans(args, ctx, tracer).relative_to(ROOT))
        ctx["span_count"] = len(tracer.spans)

    print("context " + json.dumps(ctx))
    print(f"operations {len(rec.windows)}  attempted {rec.attempted}  "
          f"failed {rec.failed}  failure_share {rec.failed / max(rec.attempted, 1):.4f}  "
          f"correct {rec.correct}")
    for reason, n in sorted(rec.failures.items()):
        print(f"failure {reason} x{n}")
    for key, value in sorted(rec.extra.items()):
        print(f"extra {key} {value}")
    for kind, ref in REF_S.items():
        print(f"speed_factor {kind} {rec.probe.factor(kind)}  "
              f"(reference loop time / {ref} s; timings are divided by it)")
    for name, value, unit in workloads.headline(args.workload, rec.kinds, times, rec.records):
        print(f"workload {name} {value} {unit}")
    for name, value in metrics.items():
        print(f"metric {name} {value} {units[name]}")
    print(json.dumps({
        "correct": rec.correct,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))


if __name__ == "__main__":
    main()
