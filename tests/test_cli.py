import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quiltlab import _verify
from quiltlab import fields as fl
from quiltlab import mating as mt
from quiltlab import planar_map as pm
from quiltlab import quilt as qt
from quiltlab import quilt_enum as qe
from quiltlab import quilt_winding as qw
from quiltlab.cli import _polyline_from_text, main
from quiltlab.errors import ParseError

from conftest import build_template
from helpers import tetrahedron_map


def run(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_meander_count(capsys):
    code, out, _ = run(["meander", "count", "--size", "4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 42
    assert payload["provenance"]["seed"] == 2


def test_meander_count_transfer(capsys):
    code, out, _ = run(
        ["meander", "count", "--size", "5", "--method", "transfer"], capsys
    )
    assert code == 0
    assert json.loads(out)["count"] == 262


def test_meander_verify_message(capsys):
    code, _, err = run(["meander", "verify", "--size", "3"], capsys)
    assert code == 0
    assert "8 meanders" in err and "factorization OK" in err


def test_meander_classes_schema(tmp_path, capsys):
    out_path = tmp_path / "classes.json"
    code, _, _ = run(
        ["meander", "classes", "--size", "3", "--out", str(out_path)], capsys
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["m"] == 3
    assert sum(c["meanders"] for c in payload["classes"]) == 8
    for cls in payload["classes"]:
        assert set(cls) == {"theta", "upper", "lower", "meanders"}
        assert cls["meanders"] == cls["upper"] * cls["lower"]


def test_size_zero_usage_error(capsys):
    assert main(["meander", "count", "--size", "0"]) == 2


def test_unknown_flag_rejected(capsys):
    assert main(["meander", "count", "--size", "3", "--bogus"]) == 2


def test_curvature_csv(tmp_path, capsys):
    path = tmp_path / "square.csv"
    path.write_text("0,0\n1,0\n1,1\n0,1\n")
    code, out, _ = run(
        ["curvature", "--in", str(path), "--closed"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["turning_pi_units"] == pytest.approx(2.0, abs=1e-12)


def test_quilt_validate_and_determinant(tmp_path, capsys):
    t = build_template([(1, 1), (1, 2)])
    path = tmp_path / "t.map"
    path.write_text(qt.template_to_text(t))
    code, out, _ = run(["quilt", "validate", "--in", str(path)], capsys)
    assert code == 0 and json.loads(out)["passed"]
    code, out, _ = run(["quilt", "determinant", "--in", str(path)], capsys)
    assert code == 0
    assert abs(json.loads(out)["det"]) == 1


def test_quilt_verify_bijection(tmp_path, capsys):
    t = build_template([(1, 1), (1, 1), (1, 1)])
    order = t.face_order
    path = tmp_path / "t.map"
    path.write_text(qt.template_to_text(t))
    holes = f"{order[2]},{order[4]}"
    code, out, _ = run(
        ["quilt", "verify-bijection", "--in", str(path), "--holes", holes,
         "--budget", "2", "--no-compose"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["fillings"] == 50
    assert payload["factor_sizes"] == [10, 5]
    search = payload["search"]
    assert set(search) == {"nodes", "closing_cuts", "budget_cuts", "hole_cuts", "leaves",
                           "rejects"}
    assert search["leaves"] == 50 + sum(search["rejects"].values())
    assert search["budget_cuts"] > 0 and search["rejects"]["over_budget"] == 0


def test_quilt_winding_labels(tmp_path, capsys):
    t = build_template([(1, 2), (1, 2), (1, 2)])
    order = t.face_order
    path = tmp_path / "t.map"
    path.write_text(qt.template_to_text(t))
    holes = f"{order[2]},{order[4]}"
    code, out, _ = run(
        ["quilt", "winding-labels", "--in", str(path), "--holes", holes,
         "--budget", "2"],
        capsys,
    )
    assert code == 0
    assert json.loads(out)["max_difference"] < 1e-6


def test_mating_simulate_deterministic(tmp_path, capsys):
    args = ["mating", "simulate", "--gamma", "1.0", "--eps", "0.3",
            "--steps", "24", "--seed", "7"]
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(p1)]) == 0
    assert main(args + ["--out", str(p2)]) == 0
    assert p1.read_bytes() == p2.read_bytes()
    payload = json.loads(p1.read_text())
    assert payload["provenance"]["seed"] == 7
    assert payload["provenance"]["walks"] >= 1
    assert "template" in payload["quilt"]


def test_mating_calibrate_csv(tmp_path, capsys):
    out_path = tmp_path / "cov.csv"
    code, _, _ = run(
        ["mating", "calibrate", "--gamma", "1.0", "--steps", "64",
         "--samples", "20000", "--out", str(out_path)],
        capsys,
    )
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "quantity,target,empirical"
    assert len(lines) == 4


def test_fields_rotate(capsys):
    code, out, _ = run(
        ["fields", "rotate", "--n", "2", "--charges", "-2,1",
         "--angle", str(math.pi / 4), "--grid", "8", "--samples", "2000",
         "--seed", "3"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["charge_sum_drift"] < 1e-12


def test_fields_kirchhoff(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("0 1\n1 2\n0 2\n")
    code, out, _ = run(["fields", "kirchhoff", "--graph", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["spanning_trees"] == 3


def test_fields_partition_identity(capsys):
    code, out, _ = run(["fields", "partition-identity", "--grid", "4"], capsys)
    assert code == 0
    assert json.loads(out)["residual"] < 1e-10


def test_env_seed_override(capsys, monkeypatch):
    monkeypatch.setenv("QUILTLAB_SEED", "123")
    code, out, _ = run(["meander", "count", "--size", "2"], capsys)
    assert code == 0
    assert json.loads(out)["provenance"]["seed"] == 123


def test_env_seed_not_an_integer_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("QUILTLAB_SEED", "abc")
    code, out, err = run(["meander", "count", "--size", "2"], capsys)
    assert code == 2 and out == ""
    assert "QUILTLAB_SEED" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, message", [
    (["fields", "rotate", "--charges", "a,b"], "error: --charges"),
    (["fields", "rotate", "--n", "3", "--charges", "1,2"], "error: --charges"),
    (["fields", "rotate", "--samples", "0"], "--samples must be >= 1"),
    (["fields", "rotate", "--samples", "-5"], "--samples must be >= 1"),
    (["mating", "calibrate", "--gamma", "1", "--samples", "0"], "--samples must be >= 1"),
], ids=["charges-not-numbers", "charges-count", "rotate-zero-samples",
        "rotate-negative-samples", "calibrate-zero-samples"])
def test_malformed_field_and_mating_options_are_usage_errors(capsys, argv, message):
    code, out, err = run(argv, capsys)
    assert code == 2 and out == ""
    assert message in err and "Traceback" not in err


N21 = Path(__file__).parent / "data" / "template_n21.map"


class _Hung(Exception):
    """Raised by the alarm below; not an OSError, so main does not catch it."""


def _hang_up(signum, frame):
    raise _Hung("still running after 20 s")


# one row per value outside its option's domain; the flag under test is
# argv[-2] and its value argv[-1]
DOMAIN_ROWS = {
    "size-0": ["meander", "count", "--size", "0"],
    "samples-0": ["fields", "rotate", "--samples", "0"],
    "steps-1": ["mating", "simulate", "--gamma", "1", "--steps", "1"],
    "eps-0": ["mating", "simulate", "--gamma", "1", "--eps", "0"],
    "eps-nan": ["mating", "simulate", "--gamma", "1", "--eps", "nan"],
    "eps-inf": ["mating", "simulate", "--gamma", "1", "--eps", "inf"],
    "calibrate-eps-inf": ["mating", "calibrate", "--gamma", "1", "--eps", "inf"],
    "eps-1e-300": ["mating", "simulate", "--gamma", "1", "--eps", "1e-300"],
    "eps-1e-8": ["mating", "simulate", "--gamma", "1", "--eps", "1e-8"],
    "gamma-3": ["mating", "simulate", "--gamma", "3"],
    "gamma-nan": ["mating", "simulate", "--gamma", "nan"],
    "rotate-grid-0": ["fields", "rotate", "--grid", "0"],
    "rotate-grid-2": ["fields", "rotate", "--grid", "2"],
    "partition-grid-0": ["fields", "partition-identity", "--grid", "0"],
    "partition-grid-2": ["fields", "partition-identity", "--grid", "2"],
    "n-0": ["fields", "rotate", "--n", "0"],
    "angle-inf": ["fields", "rotate", "--angle", "inf"],
    "angle-nan": ["fields", "rotate", "--angle", "nan"],
    "charges-nan": ["fields", "rotate", "--charges", "1,nan"],
    "quilt-budget-0": ["quilt", "verify-bijection", "--in", str(N21), "--holes", "3",
                       "--budget", "0"],
    "quilt-budget-negative": ["quilt", "winding-labels", "--in", str(N21), "--holes", "3",
                              "--budget", "-1"],
    "verify-all-budget-nan": ["verify-all", "--budget", "nan"],
    "seed-negative": ["mating", "simulate", "--gamma", "1", "--seed", "-1"],
}


@pytest.mark.parametrize("argv", DOMAIN_ROWS.values(), ids=DOMAIN_ROWS.keys())
def test_numeric_option_outside_its_domain_is_a_usage_error(capsys, argv):
    previous = signal.signal(signal.SIGALRM, _hang_up)
    signal.alarm(20)
    try:
        code, out, err = run(argv, capsys)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert code == 2 and out == "" and "Traceback" not in err
    assert any("error:" in line and f"{argv[-2]} must be" in line
               for line in err.splitlines()), err


@pytest.mark.parametrize("command", ["winding-labels", "verify-bijection"])
@pytest.mark.parametrize("holes", ["a,b", "3,", "999", "3,-1"])
def test_bad_hole_ids_are_usage_errors_before_any_search(capsys, monkeypatch,
                                                         command, holes):
    def refuse(*args, **kwargs):
        raise AssertionError("the search ran")

    for name in ("mark_subtemplate", "enumerate_fillings", "verify_product_bijection"):
        for module in (qt, qe):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    code, out, err = run(["quilt", command, "--in", str(N21), f"--holes={holes}"], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: --holes") and "Traceback" not in err


def test_one_winding_rule_at_the_tolerance(tmp_path, capsys, monkeypatch):
    # a planted difference of exactly LABEL_TOL, then the next float up:
    # the report, the criterion-6 check and the CLI give the same verdicts
    t = build_template([(1, 2), (1, 2), (1, 2)])
    path = tmp_path / "t.map"
    path.write_text(qt.template_to_text(t))
    holes = f"{t.face_order[2]},{t.face_order[4]}"
    for diff, agree in ((qw.LABEL_TOL, True), (math.nextafter(qw.LABEL_TOL, 1.0), False)):
        report = qw.WindingAgreementReport(labels_a={0: 0.0}, labels_b={0: diff},
                                           max_difference=diff)
        monkeypatch.setattr(qw, "winding_labels", lambda *args, **kwargs: report)
        assert report.agree is agree
        assert _verify.check_winding_labels(0)[0] is agree
        code, _, _ = run(["quilt", "winding-labels", "--in", str(path),
                          "--holes", holes], capsys)
        assert code == (0 if agree else 1)


# one row per claim: its report class, its CLI command and its verify-all check
ONE_RULE_ROWS = {
    "determinant": (qt.DeterminantReport, ["quilt", "determinant", "--in", str(N21)],
                    _verify.check_unit_determinant),
    "rotation": (fl.RotationReport, ["fields", "rotate", "--grid", "4", "--samples", "500"],
                 _verify.check_field_rotation),
    "partition-identity": (fl.PartitionIdentityReport, ["fields", "partition-identity"],
                           _verify.check_lattice_identities),
    "calibration": (mt.CovarianceReport, ["mating", "calibrate", "--gamma", "1",
                                          "--samples", "1000"], None),
}


@pytest.mark.parametrize("report_cls, argv, check", ONE_RULE_ROWS.values(),
                         ids=ONE_RULE_ROWS.keys())
def test_each_claim_takes_its_verdict_from_the_report(capsys, monkeypatch,
                                                      report_cls, argv, check):
    assert run(argv, capsys)[0] == 0
    monkeypatch.setattr(report_cls, "passed", property(lambda self: False))
    assert run(argv, capsys)[0] == 1
    if check is not None:
        assert check(0)[0] is False


def test_determinant_fails_without_the_left_tree(capsys, monkeypatch):
    monkeypatch.setattr(qt, "_left_tree_contour", lambda m, tree, start: None)
    code, out, _ = run(["quilt", "determinant", "--in", str(N21)], capsys)
    payload = json.loads(out)
    assert code == 1 and abs(payload["det"]) == 1 and not payload["bijection_ok"]


def test_importing_the_cli_leaves_scipy_stats_unloaded():
    # nor scipy.fft and scipy.special, which only GFF draws and the
    # family-wise z need
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, quiltlab.cli; print(sorted(m for m in sys.modules"
         " if m in ('scipy.stats', 'scipy.fft', 'scipy.special')))"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]", proc.stderr


def test_verify_all_budget_zero(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-all", "--budget", "0", "--out", str(out_path)], capsys
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert all(c["status"] == "skipped" for c in payload["checks"])


def test_verify_all_timings_sidecar(tmp_path, capsys, monkeypatch):
    quick = ("meander-counts", "meander-factorization", "product-bijection")
    monkeypatch.setattr(
        _verify, "CHECKS", tuple(c for c in _verify.CHECKS if c[0] in quick))
    plain, timed, sidecar = (tmp_path / n for n in ("a.json", "b.json", "t.json"))
    assert run(["verify-all", "--out", str(plain)], capsys)[0] == 0
    assert run(["verify-all", "--out", str(timed), "--timings", str(sidecar)],
               capsys)[0] == 0
    assert timed.read_bytes() == plain.read_bytes()
    timings = json.loads(sidecar.read_text())
    assert sorted(timings) == sorted(quick)
    assert all(isinstance(v, float) and v >= 0 for v in timings.values())


@pytest.mark.parametrize("name", [name for name, _ in _verify.CHECKS])
def test_verify_all_fault_injection(tmp_path, capsys, monkeypatch, name):
    monkeypatch.setattr(
        _verify, "CHECKS", tuple(c for c in _verify.CHECKS if c[0] == name))
    out_path = tmp_path / "report.json"
    code, _, _ = run(
        ["verify-all", "--inject-fault", name, "--out", str(out_path)], capsys)
    assert code == 1
    payload = json.loads(out_path.read_text())
    assert [(c["name"], c["status"]) for c in payload["checks"]] == [(name, "fail")]


def test_template_file_write_read_write_identical(tmp_path):
    t = build_template([(1, 1), (2, 1)])
    text = qt.template_to_text(t)
    again = qt.template_from_text(text)
    assert qt.template_to_text(again) == text


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.sampled_from(
            ["meander", "count", "verify", "--size", "3", "0", "-1", "fields",
             "kirchhoff", "--graph", "missing.file", "--seed", "quilt",
             "--bogus", "curvature", "--in"]
        ),
        max_size=5,
    )
)
def test_exit_codes_under_argv_fuzzing(argv):
    code = main(argv)
    assert code in (0, 1, 2)


@pytest.mark.parametrize("argv, content", [
    (["quilt", "validate", "--in"], b""),
    (["curvature", "--in"], b"foo\n"),
    (["fields", "kirchhoff", "--graph"], b"1\n"),
    (["quilt", "validate", "--in"], b"\xff\xfe\x00E=1"),
    (["fields", "kirchhoff", "--graph"], b"1 1\n"),
    (["quilt", "validate", "--in"], b"E=1\n0 0\n1 1\n"),
    (["quilt", "validate", "--in"],
     b"E=4\n7 1\n2 0\n4 3\n0 2\n1 5\n6 4\n5 7\n3 6\nROOT 0\nORDER 0 2 1\n"
     b"MARKS 0 2\nMARKS 1 2 0\nMARKS 2 0 1 2\n"),
], ids=["empty-template", "csv-foo", "edge-1", "binary-template", "self-loop",
        "twin-fixes-dart", "mark-off-its-face"])
def test_malformed_input_file_is_a_usage_error(tmp_path, capsys, argv, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    code, _, err = run(argv + [str(path)], capsys)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err


# valid files of each reader's format, and tokens to corrupt them with
READERS = {
    "template": (qt.template_from_text,
                 qt.template_to_text(build_template([(1, 1), (2, 1)]))),
    "map": (pm.from_text, pm.to_text(tetrahedron_map())),
    "graph": (fl.load_graph, fl.dump_graph(fl.grid_graph(2))),
    "polyline": (_polyline_from_text, "# square\n0,0\n1,0\n1,1\n0,1\n"),
}
TOKENS = ["E=1", "E=2", "E=0", "E=-1", "E=x", "0", "1", "2", "3", "-1", "11", "B",
          "x", ",", "1,2", "1,", "nan", "ROOT", "ORDER", "HOLE", "MARKS", "#", ""]


@st.composite
def corrupted(draw, text):
    lines = text.splitlines()
    line = st.lists(st.sampled_from(TOKENS), max_size=4).map(" ".join)
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        op = draw(st.sampled_from(["drop", "replace", "insert"]))
        if op == "insert" or i == len(lines):
            lines.insert(i, draw(line))
        elif op == "drop":
            del lines[i]
        else:
            lines[i] = draw(line)
    return "\n".join(lines)


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_readers_raise_only_quiltlab_errors(name, data):
    reader, text = READERS[name]
    fuzzed = data.draw(st.one_of(corrupted(text), st.text(max_size=40)))
    try:
        reader(fuzzed)
    except ParseError:
        pass
