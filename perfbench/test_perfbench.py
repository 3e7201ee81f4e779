"""Tests of the benchmark itself: python3 -m pytest perfbench

For a given seed, traced and untraced runs give identical counters and
correctness outcomes, and two runs repeat every counter exactly.  The runs
are cut to a few operations per workload.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.use_checkout_src()

import speed  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

# operations per workload: enough to reach every kind of operation
OPS = {"mating": 6, "fillings": 6, "verify-all": 1, "probes": 2}


def test_benchmark_json_lists_what_run_reports():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_names()
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert {name for name, _ in workloads._verify.CHECKS} == set(run.VERIFY_CHECKS)


def test_dirichlet_energy_matches_dense_laplacian():
    L = 7
    lap = workloads.fields.grid_dirichlet_laplacian(L)
    f = np.random.default_rng(0).standard_normal((3, lap.shape[0]))
    want = np.einsum("ik,kl,il->i", f, lap, f)
    assert np.allclose(workloads.dirichlet_energy(f, L), want)


def test_self_time_subtracts_children_and_uninstall_restores():
    t = tr.Tracer()
    t.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0], ["c", 2.0, 3.0, 1],
               ["b", 5.0, 6.0, 0]]
    summary = t.summary()
    assert summary["a"]["self_s"] == pytest.approx(6.0)
    assert summary["b"]["self_s"] == pytest.approx(3.0)
    assert summary["b"]["calls"] == 2
    assert t.count_within("c", "a") == 1 and t.count_within("a", "b") == 0

    quilt_enum = workloads.quilt_enum
    orig = quilt_enum.mark_subtemplate
    t = tr.Tracer()
    run.install(t)
    assert quilt_enum.mark_subtemplate is not orig
    assert workloads.quilt.mark_subtemplate is quilt_enum.mark_subtemplate
    t.uninstall()
    assert quilt_enum.mark_subtemplate is orig


def test_speed_correction_removes_samples_and_scales():
    p = speed.SpeedProbe()
    ref = speed.REF_S
    # the interpreter loop ran at half the reference speed throughout, the
    # blas loop at a quarter; a sample is both loops
    p.starts = [0.0, 1.0, 3.0]
    p.loop_s = {"interpreter": [2 * ref["interpreter"]] * 3, "blas": [4 * ref["blas"]] * 3}
    p.durations = [2 * ref["interpreter"] + 4 * ref["blas"]] * 3
    work = 2.0 - p.durations[1]
    assert p.correct(0.5, 2.5) == pytest.approx(work / 2)
    assert p.correct(0.5, 2.5, "blas") == pytest.approx(work / 4)
    assert p.correct(1.5, 2.5) == pytest.approx(0.5)
    assert p.factor("blas") == pytest.approx(4.0)
    with p:
        assert len(p.durations) == 4
    assert len(p.durations) == len(p.loop_s["blas"]) == 5


@pytest.fixture
def short_fillings(monkeypatch):
    # chain (4,1) alone takes seconds; the cut pass reaches the winding pairs
    monkeypatch.setattr(workloads, "FIXTURES", workloads.FIXTURES[:3])


def outcome(first):
    return first.records, first.correct, first.attempted, first.failed


@pytest.mark.parametrize("name", list(OPS))
def test_traced_matches_untraced_and_runs_repeat(name, short_fillings):
    def measure(trace):
        return run.measure(name, 3, 1.0, trace, max_ops=OPS[name], setup_reps=1)

    _, plain, _, _ = measure(False)
    _, twice, _, _ = measure(False)
    _, traced, replay, t1 = measure(True)
    _, again, _, t2 = measure(True)

    assert len(plain.records) == OPS[name]
    assert plain.correct, plain.failures
    assert outcome(twice) == outcome(plain)
    assert outcome(traced) == outcome(plain)
    assert outcome(again) == outcome(traced)
    assert replay.records == plain.records

    def calls(t):  # the speed probe's samples follow the clock, not the work
        return {k: v["calls"] for k, v in t.summary().items() if not k.startswith("speed.")}

    assert calls(t1) == calls(t2)
    assert t1.counters == t2.counters
    if name == "fillings":
        assert {r[0] for r in plain.records} == {"fixture", "embed", "pairs"}
        assert t1.counters["fillings"] == 50 + 70 + 14
    if name == "mating":
        metrics = run.per_layer(traced, t1, replay)
        assert metrics["mating.poisson_partition.calls"] == (
            OPS[name] + sum(r[2]["partition_resamples"] for r in plain.records))
