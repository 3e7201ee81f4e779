"""quilt-lab command line interface.

Subcommands: meander {count,verify,classes}, curvature, quilt {validate,
verify-bijection,determinant,winding-labels}, mating {simulate,calibrate},
fields {rotate,kirchhoff,partition-identity}, verify-all.

Exit codes: 0 success, 1 verification failure, 2 usage error (UsageError)
or a malformed input file (ParseError).  All numeric reports carry provenance
(version, seed, parameters); JSON output is canonical (sorted keys, fixed
float formatting) so reruns with the same seed are byte-identical.  The
environment variable QUILTLAB_SEED overrides --seed everywhere.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__
from . import fields as fl
from . import mating as mt
from . import meander as me
from . import quilt as qt
from . import quilt_enum as qe
from . import quilt_winding as qw
from . import curvature as cv
from .errors import ParseError, QuiltLabError, UsageError
from ._verify import run_verify_all

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2


def _provenance(args, **extra):
    out = {"version": __version__}
    for key in ("seed", "size", "gamma", "eps", "steps", "grid", "samples",
                "budget", "n", "angle", "charges"):
        if hasattr(args, key):
            out[key] = getattr(args, key)
    out.update(extra)
    return out


def _emit(args, payload):
    text = json.dumps(payload, sort_keys=True, indent=2, default=_jsonify) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _jsonify(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, frozenset):
        return sorted(obj)
    raise TypeError(f"cannot serialize {type(obj)}")


# --- meander ---------------------------------------------------------------------


def cmd_meander_count(args):
    if args.method == "pairs":
        count = len(me.enumerate_meanders(args.size))
    else:
        count = me.count_meanders_transfer_matrix(args.size)
    _emit(args, {"provenance": _provenance(args), "count": count,
                 "method": args.method})
    return EXIT_OK


def cmd_meander_verify(args):
    report = me.verify_factorization(args.size)
    payload = report.as_dict()
    payload["provenance"] = _provenance(args)
    _emit(args, payload)
    classes = len(report.classes)
    print(
        f"{report.total_meanders} meanders, {classes} theta-classes, "
        "factorization OK",
        file=sys.stderr,
    )
    return EXIT_OK


def cmd_meander_classes(args):
    report = me.verify_factorization(args.size)
    payload = report.as_dict()
    payload["provenance"] = _provenance(args)
    _emit(args, payload)
    return EXIT_OK


def _read_text(path):
    """The text of an input file; bytes that do not decode are a ParseError."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not a text file: {exc.reason}") from exc


# --- curvature -------------------------------------------------------------------


def _polyline_from_text(text):
    """Points of the CSV polyline format: one ``x,y`` per line, ``#`` comments."""
    pts = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        try:
            x, y = ln.split(",")
            pts.append((float(x), float(y)))
        except ValueError as exc:
            raise ParseError(f"expected 'x,y', got {ln!r}") from exc
    return pts


def cmd_curvature(args):
    pts = _polyline_from_text(_read_text(args.infile))
    curve = cv.PolygonalCurve(vertices=tuple(pts), closed=args.closed)
    total = cv.total_turning(curve)
    _emit(args, {
        "provenance": _provenance(args),
        "turning_radians": total,
        "turning_pi_units": total / math.pi,
        "closed": args.closed,
    })
    return EXIT_OK


# --- quilt -----------------------------------------------------------------------


def _load_template(path):
    return qt.template_from_text(_read_text(path))


def cmd_quilt_validate(args):
    t = _load_template(args.infile)
    if t.face_order is None:
        t = qt.with_face_order(t)
    report = qt.validate_template(t)
    _emit(args, {
        "provenance": _provenance(args),
        "n": report.n,
        "passed": report.passed,
        "conditions": [
            {"name": c.name, "passed": c.passed, "offending_face": c.offending_face}
            for c in report.conditions
        ],
    })
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_quilt_determinant(args):
    t = _load_template(args.infile)
    report = qt.side_length_map_determinant(qt.with_face_order(t))
    _emit(args, {
        "provenance": _provenance(args),
        "det": report.det,
        "det_float": report.det_float,
        "left_tree_size": report.left_tree_size,
        "bijection_ok": report.bijection_ok,
        "triangular_ok": report.triangular_ok,
    })
    return EXIT_OK if report.passed else EXIT_FAIL


def _subtemplate_from_file(path, holes):
    """Rebuild a MarkedSubtemplate by reducing a parent template file at
    ``holes``, the comma-separated ids of faces of its map."""
    t = qt.with_face_order(_load_template(path))
    try:
        hole_ids = {int(x) for x in holes.split(",")}
    except ValueError:
        raise UsageError(f"--holes takes comma-separated face ids, got {holes!r}") from None
    unknown = sorted(hole_ids - set(range(t.map.n_faces)))
    if unknown:
        raise UsageError(f"--holes {unknown} are not faces of {path} "
                         f"(ids 0..{t.map.n_faces - 1})")
    marked = sorted(set(range(t.map.n_faces)) - hole_ids)
    return qt.mark_subtemplate(t, marked)


def cmd_quilt_verify_bijection(args):
    tsub = _subtemplate_from_file(args.infile, args.holes)
    report = qe.verify_product_bijection(
        tsub, args.budget, constructive=not args.no_compose
    )
    _emit(args, {
        "provenance": _provenance(args),
        "fillings": report.n_fillings,
        "factor_sizes": list(report.factor_sizes),
        "injective": report.injective,
        "surjective": report.surjective,
        "composed_checked": report.composed_checked,
        "search": report.search,
    })
    return EXIT_OK


def cmd_quilt_winding_labels(args):
    tsub = _subtemplate_from_file(args.infile, args.holes)
    fills = qe.enumerate_fillings(tsub, args.budget)
    if len(fills) < 2:
        print("need at least two fillings", file=sys.stderr)
        return EXIT_FAIL
    geom = qw.embed_subtemplate(tsub)
    worst = 0.0
    labels = None
    for other in fills[1:]:
        rep = qw.winding_labels(tsub, fills[0], other, geom=geom)
        worst = max(worst, rep.max_difference)
        labels = rep.labels_a
    _emit(args, {
        "provenance": _provenance(args),
        "fillings": len(fills),
        "max_difference": worst,
        "labels_pi_units": {str(k): v / math.pi for k, v in sorted(labels.items())},
    })
    return EXIT_OK if qw.labels_agree(worst) else EXIT_FAIL


# --- mating ----------------------------------------------------------------------


def cmd_mating_simulate(args):
    p = mt.mot_params(args.gamma, args.eps, args.steps, args.seed)
    res = mt.simulate_discretized_disk(p)
    t = res.quilt.template
    payload = {
        "params": {
            "gamma": p.gamma, "epsilon": p.epsilon, "steps": p.steps,
            "seed": p.seed, "variance": p.variance, "correlation": p.correlation,
        },
        "cells": [[float(x) for x in row] for row in res.cells.interior],
        "init": [res.cells.l0_plus, res.cells.r0_minus, res.cells.r0_plus],
        "end": [res.cells.l_end_minus, res.cells.r_end_minus],
        "quilt": {
            "template": qt.template_to_text(t),
            "next": list(t.map.next_dart),
            "twin": [d ^ 1 for d in range(t.map.n_darts)],
            "lengths": list(res.quilt.lengths),
        },
        "provenance": dict(res.provenance, version=__version__),
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_mating_calibrate(args):
    p = mt.mot_params(args.gamma, args.eps, args.steps, args.seed)
    rep = mt.calibrate_covariance(p, n_steps=args.samples)
    lines = ["quantity,target,empirical"]
    lines.append(f"var_L,{rep.target[0]!r},{rep.empirical[0]!r}")
    lines.append(f"var_R,{rep.target[0]!r},{rep.empirical[1]!r}")
    lines.append(f"cov_LR,{rep.target[1]!r},{rep.empirical[2]!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if rep.passed else EXIT_FAIL


# --- fields ----------------------------------------------------------------------


def cmd_fields_rotate(args):
    n = args.n
    try:
        charges = [float(x) for x in args.charges.split(",")]
    except ValueError:
        raise UsageError(
            f"--charges takes comma-separated numbers, got {args.charges!r}") from None
    if len(charges) != n:
        raise UsageError(f"--charges needs {n} values for --n {n}, got {len(charges)}")
    if not all(map(math.isfinite, charges)):
        raise UsageError(f"--charges must be finite numbers, got {args.charges!r}")
    if n == 2:
        c, s = math.cos(args.angle), math.sin(args.angle)
        a = np.array([[c, -s], [s, c]])
    else:
        rng = np.random.default_rng(args.seed)
        a = fl.random_orthogonal(n, rng)
    report = fl.rotation_independence_test(
        args.grid, a, args.samples, args.seed, charges=charges
    )
    _emit(args, {
        "provenance": _provenance(args),
        "max_cross_z": report.max_cross_z,
        "max_marginal_dev_stderr": report.max_marginal_dev_stderr,
        "charge_sum_before": report.charge_sum_before,
        "charge_sum_after": report.charge_sum_after,
        "charge_sum_drift": report.charge_sum_drift,
    })
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_fields_kirchhoff(args):
    g = fl.load_graph(_read_text(args.graph))
    count = fl.spanning_tree_count(g)
    _emit(args, {"provenance": _provenance(args), "spanning_trees": count})
    return EXIT_OK


def cmd_fields_partition_identity(args):
    g = fl.grid_graph(args.grid)
    rep = fl.gaussian_partition_identity(g)
    _emit(args, {
        "provenance": _provenance(args),
        "interior_vertices": rep.interior_count,
        "det_exact": rep.det_exact,
        "residual": rep.residual,
    })
    return EXIT_OK if rep.passed else EXIT_FAIL


# --- verify-all --------------------------------------------------------------------


def cmd_verify_all(args):
    timings = {} if args.timings else None
    report = run_verify_all(
        seed=args.seed, budget=args.budget, inject_fault=args.inject_fault,
        timings=timings,
    )
    _emit(args, report)
    if args.timings:
        with open(args.timings, "w") as fh:
            fh.write(json.dumps(timings, sort_keys=True, indent=2) + "\n")
    failures = [c for c in report["checks"] if c["status"] == "fail"]
    for c in report["checks"]:
        print(f"[{c['status'].upper():>5}] {c['name']}", file=sys.stderr)
    return EXIT_FAIL if failures else EXIT_OK


# --- parser ------------------------------------------------------------------------


def _number(flag, kind, low=-math.inf, high=math.inf, strict=False):
    """The argparse ``type`` of a numeric option: ``kind(text)`` must lie in
    [low, high], or in (low, high) when ``strict``.  NaN lies in neither, and
    an unbounded end is an infinity, so a strict domain is finite.  A value
    outside it is an ArgumentTypeError that names ``flag``: exit 2."""
    rule = []
    if low > -math.inf:
        rule.append(f"> {low}" if strict else f">= {low}")
    if high < math.inf:
        rule.append(f"< {high}" if strict else f"<= {high}")
    if strict and math.inf in (-low, high):
        rule.append("finite")
    noun = "an integer" if kind is int else "a number"

    def convert(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{flag} takes {noun}, got {text!r}") from None
        if not (low < value < high if strict else low <= value <= high):
            raise argparse.ArgumentTypeError(
                f"{flag} must be {' and '.join(rule)}, got {text}")
        return value

    return convert


def build_parser():
    parser = argparse.ArgumentParser(prog="quilt-lab", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_seed(p):
        p.add_argument("--seed", type=_number("--seed", int, 0), default=2)

    def add_out(p):
        p.add_argument("--out", default=None)

    def add_walk(p):
        p.add_argument("--gamma", type=_number("--gamma", float, 0, 2, strict=True),
                       required=True)
        # duration 1: --eps bounds the expected cut count 1 / eps
        p.add_argument("--eps", type=_number("--eps", float, 1 / mt.MAX_EXPECTED_CUTS,
                                             strict=True), default=0.1)
        p.add_argument("--steps", type=_number("--steps", int, 2), default=64)

    p_me = sub.add_parser("meander", help="meander enumeration and verification")
    me_sub = p_me.add_subparsers(dest="subcommand", required=True)
    p = me_sub.add_parser("count")
    p.add_argument("--size", type=_number("--size", int, 1), required=True)
    p.add_argument("--method", choices=("pairs", "transfer"), default="pairs")
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_meander_count)
    p = me_sub.add_parser("verify")
    p.add_argument("--size", type=_number("--size", int, 1), required=True)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_meander_verify)
    p = me_sub.add_parser("classes")
    p.add_argument("--size", type=_number("--size", int, 1), required=True)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_meander_classes)

    p = sub.add_parser("curvature", help="total turning of a CSV polyline")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--closed", action="store_true")
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_curvature)

    p_q = sub.add_parser("quilt", help="template validation and factorization")
    q_sub = p_q.add_subparsers(dest="subcommand", required=True)
    p = q_sub.add_parser("validate")
    p.add_argument("--in", dest="infile", required=True)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_quilt_validate)
    p = q_sub.add_parser("determinant")
    p.add_argument("--in", dest="infile", required=True)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_quilt_determinant)
    p = q_sub.add_parser("verify-bijection")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--holes", required=True,
                   help="comma-separated face ids to carve out as holes")
    p.add_argument("--budget", type=_number("--budget", int, 1), default=2)
    p.add_argument("--no-compose", action="store_true")
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_quilt_verify_bijection)
    p = q_sub.add_parser("winding-labels")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--holes", required=True)
    p.add_argument("--budget", type=_number("--budget", int, 1), default=2)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_quilt_winding_labels)

    p_mt = sub.add_parser("mating", help="mating-of-trees simulator")
    mt_sub = p_mt.add_subparsers(dest="subcommand", required=True)
    p = mt_sub.add_parser("simulate")
    add_walk(p)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_mating_simulate)
    p = mt_sub.add_parser("calibrate")
    add_walk(p)
    p.add_argument("--samples", type=_number("--samples", int, 1), default=10_000)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_mating_calibrate)

    p_f = sub.add_parser("fields", help="field rotation and lattice identities")
    f_sub = p_f.add_subparsers(dest="subcommand", required=True)
    p = f_sub.add_parser("rotate")
    p.add_argument("--n", type=_number("--n", int, 1), default=2)
    p.add_argument("--charges", default="1,1")
    p.add_argument("--angle", type=_number("--angle", float, strict=True),
                   default=math.pi / 4)
    p.add_argument("--grid", type=_number("--grid", int, 3), default=16)
    p.add_argument("--samples", type=_number("--samples", int, 1), default=10_000)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_fields_rotate)
    p = f_sub.add_parser("kirchhoff")
    p.add_argument("--graph", required=True)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_fields_kirchhoff)
    p = f_sub.add_parser("partition-identity")
    p.add_argument("--grid", type=_number("--grid", int, 3), default=4)
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_fields_partition_identity)

    p = sub.add_parser("verify-all", help="run the acceptance checks")
    p.add_argument("--budget", type=_number("--budget", float, 0), default=None,
                   help="time budget in seconds (0 skips everything)")
    p.add_argument("--inject-fault", default=None,
                   help="test hook: corrupt a named check (e.g. 'determinant')")
    p.add_argument("--timings", default=None, metavar="FILE",
                   help="write the seconds of each check that ran to FILE as JSON")
    add_seed(p); add_out(p)
    p.set_defaults(func=cmd_verify_all)
    return parser


def main(argv=None):
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    # argparse mistakes "-2,1" for a flag; fuse value onto --charges
    argv = list(argv)
    for i in range(len(argv) - 1):
        if argv[i] == "--charges":
            argv[i : i + 2] = [f"--charges={argv[i + 1]}"]
            break
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code) if exc.code else EXIT_OK
    seed_env = os.environ.get("QUILTLAB_SEED")
    try:
        if seed_env is not None and hasattr(args, "seed"):
            args.seed = _number("QUILTLAB_SEED", int, 0)(seed_env)
        return args.func(args)
    except (ParseError, UsageError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except QuiltLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
