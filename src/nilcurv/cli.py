"""Command-line front end: it parses arguments, calls the library and
prints the report. Candidates, witnesses and random draws all come from
the library.

Subcommands: catalog, check, ric, sect, deform, signsets, classify,
maxmin, verify-paper.  Reports embed the resolved configuration and the
tolerances under which each numeric was asserted.  JSON output (--json)
is byte-deterministic for a fixed (input, seed, version) triple.

Exit codes: 0 success, 1 assertion/witness failure, 2 input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import __version__
from .algebra import NilpotentAlgebra, Subspace
from .catalog import list_catalog
from .classification import classify, theorem2_expected_M
from .curvature import (
    EIG_CLUSTER_REL,
    Metric,
    MetricError,
    ricci_operator,
    sectional_K,
    sectional_kappa,
)
from .deformation import (
    CandidateError,
    DeformationSpec,
    convergence_check,
    deformed_ricci,
    extremal_T,
    lemma5_candidates,
    scaled_ricci_limit,
    sphere_grid,
    worst_gap,
)
from .io import (
    FormatError,
    load_algebra,
    load_deformation,
    load_gram,
    save_algebra,
)
from .sign_sets import (
    K_NEGATIVE_MAX,
    RIC_NEGATIVE_MAX,
    RIC_POSITIVE_MIN,
    PreconditionError,
    WitnessSearchError,
    classify_plane,
    classify_ric_vector,
    find_negative_K_witness,
    find_negative_ric_witness,
    find_positive_ric_witness,
)
from .verify import GROUPS, run_suite


class InputError(ValueError):
    """Bad user input (file, flag value, vector syntax); exit code 2."""


# ---------------------------------------------------------------------------
# serialization helpers


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set)):
        return [_jsonable(v) for v in sorted(obj)] if isinstance(obj, set) \
            else [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, Subspace):
        return {"dim": obj.dim,
                "basis": [[str(c) for c in row] for row in obj.basis]}
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: _jsonable(getattr(obj, f.name))
                for f in dataclasses.fields(obj)}
    return obj


def _human_lines(data, indent=0):
    pad = "  " * indent
    lines = []
    if isinstance(data, dict):
        for k, v in data.items():
            if isinstance(v, (dict, list)) and v:
                lines.append(f"{pad}{k}:")
                lines.extend(_human_lines(v, indent + 1))
            else:
                lines.append(f"{pad}{k}: {v}")
    elif isinstance(data, list):
        scalar = all(not isinstance(v, (dict, list)) for v in data)
        if scalar:
            lines.append(pad + "  ".join(str(v) for v in data))
        else:
            for i, v in enumerate(data):
                lines.append(f"{pad}[{i}]")
                lines.extend(_human_lines(v, indent + 1))
    else:
        lines.append(pad + str(data))
    return lines


def _write(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit(report: dict, args) -> None:
    report = _jsonable(report)
    text = (json.dumps(report, sort_keys=True, indent=1) if args.json
            else "\n".join(_human_lines(report)))
    _write(text + "\n", args)


def _config(args, **extra) -> dict:
    cfg = {"command": args.command, "version": __version__}
    for key in ("seed", "samples", "tol", "metric", "out"):
        if hasattr(args, key):
            cfg[key] = getattr(args, key)
    cfg.update(extra)
    return cfg


def _parse_vector(text: str, n: int, flag: str) -> np.ndarray:
    try:
        v = np.array([float(Fraction(p)) for p in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"{flag}: cannot parse {text!r}: {exc}")
    if v.shape != (n,):
        raise InputError(f"{flag}: expected {n} comma-separated entries")
    return v


def _parse_plane(text: str, n: int, flag: str) -> tuple[np.ndarray, np.ndarray]:
    parts = text.split(";")
    if len(parts) != 2:
        raise InputError(f"{flag}: expected two vectors separated by ';'")
    return (_parse_vector(parts[0], n, flag), _parse_vector(parts[1], n, flag))


def _load_algebra(path: str) -> NilpotentAlgebra:
    try:
        return load_algebra(path)
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")


def _load_metric(args, n: int) -> Metric:
    path = getattr(args, "metric", None)
    try:
        return Metric(load_gram(path, n))
    except FileNotFoundError:
        raise InputError(f"no such file: {path}")
    except MetricError as exc:
        raise InputError(f"metric {path}: {exc}")


# ---------------------------------------------------------------------------
# subcommands


def cmd_catalog(args) -> int:
    entries = []
    for e in list_catalog(args.filter):
        a = e.build()
        entries.append({"key": e.key, "params": e.params, "name": a.name,
                        "dim": a.n, "nilpotency_class": a.nilpotency_class(),
                        "two_step": a.is_two_step()})
        if args.emit_json:
            outdir = Path(args.emit_json)
            outdir.mkdir(parents=True, exist_ok=True)
            suffix = "_".join(f"{k}{v}" for k, v in sorted(e.params.items()))
            fname = e.key + (f"_{suffix}" if suffix else "") + ".json"
            save_algebra(a, outdir / fname)
    _emit({"config": _config(args, filter=args.filter),
           "entries": entries}, args)
    return 0


def cmd_check(args) -> int:
    a = _load_algebra(args.algebra)
    rep = a.validate()
    _emit({"config": _config(args, algebra=args.algebra),
           "name": a.name, "dim": a.n,
           "valid": rep.valid, "nilpotent": rep.nilpotent,
           "nilpotency_class": rep.nilpotency_class, "abelian": rep.abelian,
           "jacobi_failures": [list(f) for f in rep.jacobi_failures],
           "tolerances": {"jacobi": "exact rational"}}, args)
    return 0 if rep.valid else 1


def cmd_ric(args) -> int:
    a = _load_algebra(args.algebra)
    metric = _load_metric(args, a.n)
    rep = ricci_operator(a, metric)
    _emit({"config": _config(args, algebra=args.algebra),
           "eigenvalues": rep.eigenvalues.tolist(),
           "operator": rep.operator.tolist(),
           "max_simple": rep.max_simple, "min_simple": rep.min_simple,
           "tolerances": {"eigen_cluster_rel": EIG_CLUSTER_REL}}, args)
    return 0


def cmd_sect(args) -> int:
    a = _load_algebra(args.algebra)
    metric = _load_metric(args, a.n)
    x, y = _parse_plane(args.plane, a.n, "--plane")
    k = sectional_K(a, metric, x, y)
    report = {"config": _config(args, algebra=args.algebra, plane=args.plane),
              "K": k, "tolerances": {"float": "IEEE double"}}
    try:
        report["kappa"] = sectional_kappa(a, metric, x, y)
    except ValueError:
        report["kappa"] = None
        report["kappa_note"] = "plane degenerate; normalization undefined"
    _emit(report, args)
    return 0


def cmd_deform(args) -> int:
    a = _load_algebra(args.algebra)
    try:
        gram, lambdas = load_deformation(args.spec, a.n)
    except FileNotFoundError:
        raise InputError(f"no such file: {args.spec}")
    try:
        spec = DeformationSpec(base=Metric(gram), lambdas=lambdas)
    except ValueError as exc:   # MetricError, or a check of DeformationSpec
        raise InputError(f"spec {args.spec}: {exc}")
    limit = scaled_ricci_limit(spec, a)
    report = {"config": _config(args, algebra=args.algebra, spec=args.spec,
                                t=args.t),
              "d": limit.d, "gap": limit.gap,
              "Lambda": [list(tr) for tr in limit.Lambda],
              "phi0_eigenvalues": limit.phi0_eigenvalues().tolist(),
              "block_structure": limit.has_block_structure,
              "tolerances": {}}
    if limit.has_block_structure:
        report["p"], report["q"] = limit.p, limit.q
        report["A_eigenvalues"] = np.linalg.eigvalsh(limit.A).tolist()
    if args.t is not None:
        rep = deformed_ricci(spec, a, args.t)
        report["ricci_t"] = {"t": args.t,
                             "eigenvalues": rep.eigenvalues.tolist()}
    if args.trace:
        if not limit.has_block_structure:
            raise InputError("--trace requires the (p, q) exponent pattern")
        try:
            cand = extremal_T(limit, a)
            trace = convergence_check(spec, a, cand)
        except CandidateError as exc:
            raise InputError(f"--trace: no closed-form candidate: {exc}")
        lines = ["t,lambda_max_t,proj_distance"]
        lines += [f"{t},{lam},{dist}" for (t, lam, dist) in trace.rows]
        _write("\n".join(lines) + "\n", args)
        return 0
    _emit(report, args)
    return 0


def cmd_signsets(args) -> int:
    a = _load_algebra(args.algebra)
    if (args.vector is None) == (args.plane is None):
        raise InputError("exactly one of --vector / --plane is required")
    report = {"config": _config(args, algebra=args.algebra,
                                vector=args.vector, plane=args.plane),
              "witnesses": [],
              "tolerances": {"ric_positive": RIC_POSITIVE_MIN,
                             "ric_negative": RIC_NEGATIVE_MAX,
                             "K_negative": K_NEGATIVE_MAX}}
    code = 0
    if args.vector is not None:
        x = _parse_vector(args.vector, a.n, "--vector")
        label = classify_ric_vector(a, x)
        report["labels"] = [label]
        try:
            if label in ("g_pos",):
                w = find_positive_ric_witness(a, x)
                report["witnesses"].append(_witness_dict(w))
            elif label == "outside":
                w = find_negative_ric_witness(a, x)
                report["witnesses"].append(_witness_dict(w))
        except WitnessSearchError as exc:
            report["witness_error"] = str(exc)
            code = 1
    else:
        x, y = _parse_plane(args.plane, a.n, "--plane")
        try:
            labels = classify_plane(a, x, y)
        except PreconditionError as exc:
            raise InputError(f"--plane: {exc}")
        report["labels"] = sorted(labels)
        if "G_geq" not in labels:
            try:
                w = find_negative_K_witness(a, x, y)
                report["witnesses"].append(_witness_dict(w))
            except WitnessSearchError as exc:
                report["witness_error"] = str(exc)
                code = 1
    _emit(report, args)
    return code


def _witness_dict(w) -> dict:
    d = {"kind": w.kind, "value": w.value, "gram": w.gram.tolist()}
    if w.lambdas is not None:
        d["lambdas"] = w.lambdas.tolist()
    if w.t is not None:
        d["t"] = w.t
    if w.scaled_value is not None:
        d["scaled_value"] = w.scaled_value
        d["scaled_target"] = w.scaled_target
    return d


def cmd_classify(args) -> int:
    a = _load_algebra(args.algebra)
    _emit({"config": _config(args, algebra=args.algebra),
           "verdict": classify(a),
           "tolerances": {
               "rank_checks": "exact rational; negative rk7 budget-qualified",
               "certificates": "exact rational"}}, args)
    return 0


def cmd_maxmin(args) -> int:
    a = _load_algebra(args.algebra)
    expected = theorem2_expected_M(a)
    report = {"config": _config(args, algebra=args.algebra),
              "expected_M": expected,
              "tolerances": {"projective_distance": args.tol}}
    if a.is_abelian():
        report["note"] = ("Ricci identically zero for every metric; "
                          "maximal and minimal closures are all of "
                          "projective space by convention "
                          "(M-bar = m-bar = P(g)).")
        _emit(report, args)
        return 0
    cands, notes = lemma5_candidates(a, args.seed, args.samples)
    runs = []
    for cand, spec in cands:
        try:
            trace = convergence_check(spec, a, cand, target=args.tol)
            runs.append({"T": cand.T.tolist(),
                         "construction": cand.construction,
                         "best_distance": trace.best_distance(),
                         "converged": trace.converged})
        except CandidateError as exc:
            notes.append(f"convergence skipped: {exc}")
    report["candidates"] = runs
    report["notes"] = notes
    if runs:
        report["candidates_in_expected_subspace"] = sum(
            expected.contains_float(r["T"]) for r in runs)
        # grid-coverage statistic over the expected subspace
        if expected.dim <= 3:
            report["coverage"] = {
                "grid_resolution": 0.2,
                "worst_gap": worst_gap(sphere_grid(expected, 0.2),
                                       [r["T"] for r in runs])}
        else:
            report["coverage"] = {"note": "expected subspace dimension > 3; "
                                          "grid statistic skipped"}
    ok = bool(runs) and all(r["converged"] for r in runs)
    if not runs:
        report["note"] = "no candidates produced; see notes"
    _emit(report, args)
    return 0 if ok or not runs else 1


def cmd_verify_paper(args) -> int:
    try:
        result = run_suite(only=args.only, seed=args.seed)
    except KeyError as exc:
        raise InputError(str(exc))
    result["config"] = _config(args, only=args.only)
    if args.json:
        # wall-clock runtimes vary between runs; drop them so JSON output
        # is byte-identical for a fixed (input, seed, version)
        for r in result["results"]:
            r.pop("runtime_s", None)
        _emit(result, args)
    else:
        lines = [f"{'check':32s} {'pass':5s} {'runtime_s':>9s}"]
        for r in result["results"]:
            lines.append(f"{r['name']:32s} {str(r['passed']):5s} "
                         f"{r['runtime_s']:9.3f}")
        lines.append(f"overall: {'PASS' if result['passed'] else 'FAIL'}")
        _write("\n".join(lines) + "\n", args)
    return 0 if result["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _positive_int(text: str) -> int:
    if not text.isdigit() or int(text) == 0:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nilcurv",
        description="Curvature of left-invariant metrics on nilpotent "
                    "Lie algebras.")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, metric=False):
        sp.add_argument("--seed", type=int, default=0,
                        help="RNG seed (default 0)")
        sp.add_argument("--json", action="store_true",
                        help="emit JSON instead of a table")
        sp.add_argument("--out", default=None, help="write output to a file")
        if metric:
            sp.add_argument("--metric", default=None,
                            help="metric JSON path (default: identity Gram)")

    sp = sub.add_parser("catalog", help="list/emit the algebra catalog")
    sp.add_argument("--filter", default=None,
                    choices=["two-step", "codim1-abelian", "abelian"])
    sp.add_argument("--emit-json", default=None, metavar="DIR",
                    help="write each entry as algebra JSON into DIR")
    common(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("check", help="validate an algebra file")
    sp.add_argument("algebra")
    common(sp)
    sp.set_defaults(func=cmd_check)

    sp = sub.add_parser("ric", help="Ricci operator and spectrum")
    sp.add_argument("algebra")
    common(sp, metric=True)
    sp.set_defaults(func=cmd_ric)

    sp = sub.add_parser("sect", help="sectional curvature of a plane")
    sp.add_argument("algebra")
    sp.add_argument("--plane", required=True,
                    metavar='"x1,..,xn;y1,..,yn"')
    common(sp, metric=True)
    sp.set_defaults(func=cmd_sect)

    sp = sub.add_parser("deform", help="scaled Ricci limit of a deformation")
    sp.add_argument("algebra")
    sp.add_argument("spec", help="deformation JSON {metric, lambdas}")
    sp.add_argument("--t", type=float, default=None,
                    help="also report the deformed Ricci spectrum at t")
    sp.add_argument("--trace", action="store_true",
                    help="emit the convergence trace as CSV")
    common(sp)
    sp.set_defaults(func=cmd_deform)

    sp = sub.add_parser("signsets", help="metric-independent sign labels")
    sp.add_argument("algebra")
    sp.add_argument("--vector", default=None, metavar='"x1,..,xn"')
    sp.add_argument("--plane", default=None, metavar='"x;y"')
    common(sp)
    sp.set_defaults(func=cmd_signsets)

    sp = sub.add_parser("classify", help="structural classification verdict")
    sp.add_argument("algebra")
    common(sp)
    sp.set_defaults(func=cmd_classify)

    sp = sub.add_parser("maxmin", help="Ricci-extremal candidate report")
    sp.add_argument("algebra")
    sp.add_argument("--samples", type=_positive_int, default=10)
    sp.add_argument("--tol", type=float, default=1e-3)
    common(sp)
    sp.set_defaults(func=cmd_maxmin)

    sp = sub.add_parser("verify-paper", help="run the acceptance suite")
    sp.add_argument("--only", default=None,
                    help=f"check name or group ({', '.join(GROUPS)})")
    common(sp)
    sp.set_defaults(func=cmd_verify_paper)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (InputError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WitnessSearchError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
