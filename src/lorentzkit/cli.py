"""Command-line front end.

Subcommands: catalog, analyze, classify, check, gs, perturb, geodesic.
Reports are JSON on stdout (CSV for family tables with --format csv);
exit code 0 means every requested verdict holds, 1 means a check was
violated or a computation failed (details embedded in the report), 2 means
a usage or input error (message on stderr).

Each `_cmd_*(args, bundle)` handler only computes: it returns its exit code
and its body, a dict of report fields (or the CSV text of a family table).
`run` alone builds the report envelope, adds the wall time, emits the
report and maps exceptions to exit codes.

Reports are deterministic for a fixed --seed; wall time is only included
when --timing is passed, so default reports are byte-identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

import numpy as np

from . import __version__, catalog
from .conditions import (Region, gs_trace, inclusion_audit, ricci_condition,
                         riem_condition, temporal_certificate, tidal_condition)
from .errors import DomainError, LorentzkitError
from .geodesics import geodesic, parallel_transport
from .geometry import Tolerances, curvature_data
from .perturb import positivity_exit_family, trapped_exit_family
from .specfile import load_spec, spec_digest
from .submanifold import classify_trapped

_CHECK_NAMES = ("E", "SE", "P", "FP", "O", "inclusions", "orientation",
                "temporal")


def _finite_float(text: str) -> float:
    try:
        x = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from exc
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number")
    return x


def _positive_float(text: str) -> float:
    x = _finite_float(text)
    if x <= 0.0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return x


def _parse_vector(text: str) -> np.ndarray:
    return np.array([_finite_float(t) for t in text.split(",")])


def _int_at_least(least: int):
    def parse(text: str) -> int:
        try:
            k = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(f"bad integer {text!r}") from exc
        if k < least:
            raise argparse.ArgumentTypeError(
                f"must be at least {least}, got {k}")
        return k
    return parse


def _sized(flag: str, vec: np.ndarray, dim: int,
           nonzero: bool = False) -> np.ndarray:
    """vec, after checking it has `dim` components (and is nonzero: a
    vector whose squared norm underflows to 0 is zero to the solvers)."""
    if vec.shape[0] != dim:
        raise argparse.ArgumentTypeError(
            f"{flag} needs {dim} components, got {vec.shape[0]}")
    if nonzero and float(vec @ vec) == 0.0:
        raise argparse.ArgumentTypeError(
            f"{flag} must be nonzero, with a squared norm above 0")
    return vec


def _in_domain(flag: str, field_, p: np.ndarray) -> np.ndarray:
    """p, after checking it lies in the chart's declared domain.

    Periodic axes are exempt. Only points given on the command line are
    checked: integrator stages near a chart edge query the field directly.
    """
    if not field_.contains(p):
        bounds = ", ".join(f"[{lo:g}, {hi:g}]" for lo, hi in field_.domain)
        raise DomainError(f"{flag} point {p.tolist()} lies outside the chart "
                          f"domain {bounds}")
    return p


def _submanifold(bundle, name: str):
    if name not in bundle.submanifolds:
        raise LorentzkitError(
            f"no submanifold {name!r} in {bundle.name}; "
            f"available: {sorted(bundle.submanifolds)}")
    return bundle.submanifolds[name]


def _parse_params(items) -> dict:
    out = {}
    for item in items or []:
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"--param needs name=value, got {item!r}")
        k, v = item.split("=", 1)
        out[k.strip()] = _finite_float(v)
    return out


def _parse_box(text: str, bundle) -> tuple | None:
    if text == "default":
        return None
    intervals = []
    for part in text.split(","):
        if ":" not in part:
            raise argparse.ArgumentTypeError(
                f"region interval {part!r} must be lo:hi")
        lo, hi = part.split(":", 1)
        intervals.append((_finite_float(lo), _finite_float(hi)))
    if len(intervals) != bundle.field.dim:
        raise argparse.ArgumentTypeError(
            f"region needs {bundle.field.dim} intervals")
    return tuple(intervals)


def _json_default(obj):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not serializable: {type(obj)}")


def _emit(report: dict, out) -> None:
    json.dump(report, out, indent=2, sort_keys=True, default=_json_default)
    out.write("\n")


def _family_csv(summary: dict) -> str:
    lines = ["n,certificate,closed_form,printed,deviation,sign_ok,c0,c1,c2\n"]
    sem = {row["n"]: row for row in summary["seminorms"]}

    def fmt(x) -> str:
        return "" if x == "" else repr(float(x))

    for cert in summary["certificates"]:
        row = sem.get(cert["n"], {})
        lines.append(
            f"{cert['n']},{fmt(cert['certificate'])},{fmt(cert['closed_form'])},"
            f"{fmt(cert['printed'])},{fmt(cert['deviation'])},{cert['sign_ok']},"
            f"{fmt(row.get('c0', ''))},{fmt(row.get('c1', ''))},"
            f"{fmt(row.get('c2', ''))}\n")
    return "".join(lines)


def _common_flags(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # present on the top-level parser with real defaults and on every
    # subparser with SUPPRESS, so flags work on either side of the subcommand
    d = argparse.SUPPRESS if suppress else None
    parser.add_argument("--seed", type=_int_at_least(0),  # numpy: >= 0
                        default=d if suppress else 0,
                        help="seed for all sampling (default 0)")
    parser.add_argument("--jobs", type=int,
                        default=d if suppress else 1,
                        help="accepted for compatibility; sampling is serial")
    parser.add_argument("--param", action="append", metavar="NAME=VALUE",
                        default=d if suppress else None,
                        help="override a spacetime parameter (repeatable)")
    parser.add_argument("--format", choices=("json", "csv"),
                        default=d if suppress else "json")
    parser.add_argument("--timing", action="store_true",
                        default=d if suppress else False,
                        help="include wall time in the report (breaks "
                             "byte-for-byte reproducibility)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="lorentzkit",
        description="numerical Lorentzian geometry: curvature, trapped "
                    "submanifolds, condition checks, perturbation families")
    _common_flags(ap, suppress=False)
    common = argparse.ArgumentParser(add_help=False)
    _common_flags(common, suppress=True)
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("catalog", help="list builtin spacetimes", parents=[common])

    p = sub.add_parser("analyze", help="curvature snapshot at a point",
                       parents=[common])
    p.add_argument("spec")
    p.add_argument("--at", required=True, type=_parse_vector)

    p = sub.add_parser("classify", parents=[common],
                       help="trapped classification of a submanifold")
    p.add_argument("spec")
    p.add_argument("--submanifold", required=True)

    p = sub.add_parser("check", help="condition check over a region",
                       parents=[common])
    p.add_argument("spec")
    p.add_argument("--condition", required=True, choices=_CHECK_NAMES)
    p.add_argument("--region", default="default")
    p.add_argument("--strict", action="store_true")
    p.add_argument("--points", type=_int_at_least(1), default=40)
    p.add_argument("--dirs", type=_int_at_least(8), default=16)

    p = sub.add_parser("gs", help="curvature trace along a normal geodesic",
                       parents=[common])
    p.add_argument("spec")
    p.add_argument("--submanifold", required=True)
    p.add_argument("--at", required=True, type=_parse_vector,
                   help="parameter point on the submanifold")
    p.add_argument("--dir", required=True, type=_parse_vector,
                   help="future causal normal velocity (chart components)")
    p.add_argument("--length", type=_positive_float, default=1.0)

    p = sub.add_parser("perturb", help="conformal exit-family certificates",
                       parents=[common])
    p.add_argument("spec")
    p.add_argument("--theorem", required=True, choices=("3.3", "4.2"),
                   help="3.3: trapped-exit family; 4.2: positivity-exit family")
    p.add_argument("--submanifold", help="needed for --theorem 3.3")
    p.add_argument("--at", required=True, type=_parse_vector,
                   help="parameter point (3.3) or chart point (4.2)")
    p.add_argument("--witness", nargs="*", default=[],
                   metavar="v=..|w=..", help="witness vectors for 4.2")
    p.add_argument("--nmax", type=_int_at_least(1), default=8)

    p = sub.add_parser("geodesic", help="integrate a geodesic",
                       parents=[common])
    p.add_argument("spec")
    p.add_argument("--from", dest="start", required=True, type=_parse_vector)
    p.add_argument("--dir", required=True, type=_parse_vector)
    p.add_argument("--length", type=_positive_float, default=1.0)
    p.add_argument("--transport", type=str, default=None,
                   help="semicolon-separated vectors to transport")
    return ap


def _cmd_catalog(args, bundle):
    return 0, {"builtins": catalog.names()}


def _cmd_analyze(args, bundle):
    p = _in_domain("--at", bundle.field,
                   _sized("--at", args.at, bundle.field.dim))
    data = curvature_data(bundle.field, p)
    return 0, {
        "point": p.tolist(),
        "signature_index": data.index,
        "christoffel": data.gamma.tolist(),
        "riemann": data.riem.tolist(),
        "ricci": data.ric.tolist(),
        "ricci_scalar": data.scalar(),
        "kretschmann": data.kretschmann(),
    }


def _cmd_classify(args, bundle):
    emb = _submanifold(bundle, args.submanifold)
    hint = bundle.hints.get(args.submanifold)
    verdict = classify_trapped(bundle.field, bundle.orientation, emb, hint)
    return 0, {"submanifold": args.submanifold, "verdict": verdict.summary()}


def _cmd_check(args, bundle):
    box = _parse_box(args.region, bundle) or bundle.default_box
    region = Region(box=box, n_points=args.points, n_dirs=args.dirs,
                    seed=args.seed)
    name = args.condition
    if name in ("E", "SE"):
        r = ricci_condition(bundle.field, region, strict=(name == "SE"),
                            jobs=args.jobs)
    elif name in ("P", "FP"):
        r = riem_condition(bundle.field, region, strict=(name == "P"),
                           jobs=args.jobs)
    elif name == "O":
        r = tidal_condition(bundle.field, region, jobs=args.jobs)
    elif name == "inclusions":
        r = inclusion_audit(bundle.field, region, jobs=args.jobs)
    elif name == "orientation":
        r = temporal_certificate(bundle.field, bundle.orientation,
                                 "orientation", region)
    elif bundle.temporal is None:
        raise LorentzkitError(f"{bundle.name} declares no temporal function")
    else:
        r = temporal_certificate(bundle.field, bundle.temporal, "temporal",
                                 region)
    if isinstance(r, dict):             # the audit or a certificate
        ok = r["verdict"] in ("consistent", "PASSED")
    else:
        strict = args.strict or name in ("SE", "P")
        ok = r.satisfied_strictly if strict else r.satisfied_weakly
        r = r.to_dict()
    return (0 if ok else 1), {"requested": name, "result": r, "satisfied": ok}


def _cmd_gs(args, bundle):
    emb = _submanifold(bundle, args.submanifold)
    u0 = _sized("--at", args.at, emb.m)
    direction = _sized("--dir", args.dir, bundle.field.dim, nonzero=True)
    result = gs_trace(bundle.field, emb, u0, direction, args.length)
    ok = result["min_trace"] >= -Tolerances().tau_cond
    return (0 if ok else 1), {"result": result, "satisfied": ok}


def _cmd_perturb(args, bundle):
    if args.theorem == "3.3":
        if not args.submanifold:
            raise LorentzkitError("--theorem 3.3 needs --submanifold")
        emb = _submanifold(bundle, args.submanifold)
        fam = trapped_exit_family(bundle.field, bundle.orientation, emb,
                                  _sized("--at", args.at, emb.m),
                                  n_max=args.nmax)
    else:
        witness = {}
        for item in args.witness:
            if "=" not in item:
                raise LorentzkitError(f"witness entries look like v=1,0,0,0; "
                                      f"got {item!r}")
            k, v = item.split("=", 1)
            witness[k.strip()] = _parse_vector(v)
        if "v" not in witness or "w" not in witness:
            raise LorentzkitError("--theorem 4.2 needs --witness v=.. w=..")
        dim = bundle.field.dim
        fam = positivity_exit_family(
            bundle.field,
            _in_domain("--at", bundle.field, _sized("--at", args.at, dim)),
            _sized("--witness v", witness["v"], dim, nonzero=True),
            _sized("--witness w", witness["w"], dim, nonzero=True),
            n_max=args.nmax)
    summary = fam.summary()
    code = 0 if all(c.sign_ok for c in fam.certificates) else 1
    if args.format == "csv":
        return code, _family_csv(summary)
    return code, {"family": summary, "satisfied": code == 0}


def _cmd_geodesic(args, bundle):
    dim = bundle.field.dim
    start = _in_domain("--from", bundle.field,
                       _sized("--from", args.start, dim))
    direction = _sized("--dir", args.dir, dim, nonzero=True)
    vecs = [_sized("--transport", _parse_vector(v), dim)
            for v in args.transport.split(";")] if args.transport else []
    sol = geodesic(bundle.field, start, direction, args.length)
    samples = [{"s": s, "point": x.tolist(),
                "canonical_point": bundle.field.canonicalize(x).tolist(),
                "velocity": xd.tolist()}
               for s, x, xd in sol.samples(33)]
    result = {
        "length_requested": args.length,
        "length_reached": sol.t_reached,
        "chart_exit": sol.chart_exit,
        "norm_drift": sol.norm_drift,
        "n_rhs_evals": sol.n_rhs_evals,
        "refinements": sol.refinements,
        "samples": samples,
    }
    if vecs:
        tr = parallel_transport(bundle.field, sol, np.array(vecs).T)
        result["transport"] = {
            "product_drift": tr.product_drift,
            "n_rhs_evals": tr.n_rhs_evals,
            "refinements": tr.refinements,
            "final": tr.evaluate(sol.t_reached).tolist(),
        }
    return 0, {"result": result}


_COMMANDS = {
    "catalog": _cmd_catalog,
    "analyze": _cmd_analyze,
    "classify": _cmd_classify,
    "check": _cmd_check,
    "gs": _cmd_gs,
    "perturb": _cmd_perturb,
    "geodesic": _cmd_geodesic,
}
_PARSER = build_parser()


def run(argv: list[str], out=None) -> int:
    """Entry point used by tests; returns the exit code. The one place a
    report leaves the program (see the module docstring)."""
    out = out or sys.stdout
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    t0 = time.time()
    try:
        overrides = _parse_params(args.param)
        rep = {"tool_version": __version__, "command": args.command}
        bundle = None
        if args.command != "catalog":
            bundle = load_spec(args.spec, overrides)
            rep.update(input=bundle.name,
                       input_digest=spec_digest(args.spec, overrides),
                       seed=args.seed, tolerances=Tolerances().as_dict())
        code, body = _COMMANDS[args.command](args, bundle)
        if isinstance(body, str):
            out.write(body)
            return code
        rep.update(body)
        if args.timing:
            rep["wall_time_s"] = round(time.time() - t0, 3)
        _emit(rep, out)
        return code
    except (OSError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LorentzkitError as exc:
        _emit({"error": str(exc), "error_type": type(exc).__name__,
               "command": args.command}, out)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
