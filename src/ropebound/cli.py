"""Command-line interface.

Subcommands: bounds, build, check, optimize, sweep, correction, export,
import.  Every report embeds a reproducibility block (package version, seed,
and the full flag set); scalar output is fixed at 12 significant digits and
contains nothing time- or host-dependent, so identical invocations produce
byte-identical files.  Geometry files themselves follow their format specs
exactly and carry no extra header.  Exit status: 0 when all requested
verifications pass, 1 when a verification fails, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .bounds import asymptotic_coefficients, lower_bound_report
from .construct import (
    build_increment_spec,
    build_optimal_spec,
    build_planar_link,
    construction_report,
    donut_double,
    realize_torus,
)
from .helices import toroidal_correction
from .io_formats import FormatError, export_geometry, import_geometry
from .linking import linking_matrix
from .measure import measure_link, verify
from .optimize import OptimizationProblem, minimize_params
from .parallel import parallel_map

TORUS_METHODS = ("inc4", "inc5", "optimal")
PLANAR_METHODS = ("circles", "gibbous", "hybrid_square")

# Ratio rows of the reference correction table (columns are p = 1, 2, 3).
_TABLE_RATIOS = [
    1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9,
    2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 3.0, 3.5, 4.0, 4.5,
    5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5,
    10.0, 20.0,
]


@dataclass
class RunConfig:
    """Resolved invocation: subcommand, flags, and shared knobs."""

    subcommand: str
    flags: dict = field(default_factory=dict)
    random_seed: int = 0

    def header(self) -> dict:
        return {
            "version": __version__,
            "seed": self.random_seed,
            "flags": {k: v for k, v in sorted(self.flags.items())},
        }


def _sig12(value):
    """Round floats (recursively) to 12 significant digits for stable output."""
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig12(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if not math.isfinite(v) else float(f"{v:.12g}")
    if isinstance(value, np.ndarray):
        return _sig12(value.tolist())
    return value


def _emit(payload: dict, out: str | None):
    text = json.dumps(_sig12(payload), indent=1, sort_keys=True) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _write_csv(lines, out: str | None):
    text = "\n".join(lines) + "\n"
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _csv_header(config: RunConfig) -> list:
    flags = " ".join(f"{k}={v}" for k, v in sorted(config.flags.items()))
    return [f"# ropebound {__version__}", f"# seed={config.random_seed} {flags}"]


def _usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _config_from_args(args) -> RunConfig:
    flags = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "config") and v is not None
    }
    return RunConfig(
        subcommand=args.subcommand,
        flags=flags,
        random_seed=getattr(args, "seed", 0),
    )


def cmd_bounds(args) -> int:
    config = _config_from_args(args)
    if args.q is None and not args.asymptotic:
        _usage("bounds: provide --q and/or --asymptotic")
    payload = {"run": config.header()}
    if args.q is not None:
        payload["bounds"] = lower_bound_report(args.p, args.q).as_dict()
    if args.asymptotic:
        payload["asymptotic"] = asymptotic_coefficients(args.p)
    _emit(payload, args.out)
    return 0


def cmd_build(args) -> int:
    config = _config_from_args(args)
    method = args.method
    payload = {"run": config.header()}
    if method in TORUS_METHODS:
        if args.t is None:
            _usage(f"build {method}: requires --t (number of shells)")
        if method == "optimal":
            spec = build_optimal_spec(args.t, args.count_mode)
        else:
            spec = build_increment_spec(args.t, int(method[3:]), args.jenga_mode)
        if args.p != 1:
            spec = replace(spec, p=args.p)
        report = construction_report(spec, doubled=args.double, mirrored=args.mirror)
        payload["construction"] = report.as_dict()
        if args.double:
            link = donut_double(
                spec, mirror=args.mirror, n_points=args.points, check=False
            )
        else:
            link = realize_torus(spec, n_points=args.points, check=False)
        absolute = True
    elif method in PLANAR_METHODS:
        if args.q is None:
            _usage(f"build {method}: requires --q (component count)")
        params = None
        if args.optimize:
            problem = OptimizationProblem(
                method, args.q, n_points=min(args.points, 200), seed=args.seed
            )
            result = minimize_params(
                problem, restarts=args.restarts, maxfev=args.maxfev
            )
            params = dict(zip(problem.param_names, result["best_params"]))
            payload["optimization"] = {
                "best_params": params,
                "best_value": result["best_value"],
                "evaluations": result["evaluations"],
            }
        link = build_planar_link(
            args.q, method, params, n_points=args.points, check=False
        )
        absolute = False
    else:
        _usage(f"unknown build method {method!r}")

    metrics = measure_link(link)
    payload["metrics"] = metrics.as_dict()
    if not args.no_check:
        payload["verification"] = verify(metrics, absolute, args.tolerance)
    if args.out:
        export_geometry(link, args.format, args.out)
        payload["geometry"] = args.out
    _emit(payload, args.report)
    if args.no_check:
        return 0
    return 0 if payload["verification"]["passed"] else 1


def cmd_check(args) -> int:
    config = _config_from_args(args)
    link = import_geometry(args.file)
    metrics = measure_link(link)
    payload = {
        "run": config.header(),
        "file": args.file,
        "components": link.n_components,
        "metrics": metrics.as_dict(),
        "linking_matrix": linking_matrix(link.components).tolist(),
        "verification": verify(metrics, tolerance=args.tolerance),
    }
    _emit(payload, args.out)
    return 0 if payload["verification"]["passed"] else 1


def cmd_optimize(args) -> int:
    config = _config_from_args(args)
    if args.family == "toroidal_pair" and args.q != 14:
        _usage("optimize: toroidal_pair is a 14-component family")
    problem = OptimizationProblem(
        args.family, args.q, n_points=args.points, seed=args.seed
    )
    result = minimize_params(problem, restarts=args.restarts, maxfev=args.maxfev)
    bound = lower_bound_report(1, args.q)
    payload = {
        "run": config.header(),
        "family": args.family,
        "q": args.q,
        "best_params": dict(zip(problem.param_names, result["best_params"])),
        "best_value": result["best_value"],
        "evaluations": result["evaluations"],
        "alpha": result["best_value"] / (args.q * (args.q - 1)) ** 0.75,
        "lower_bound": bound.best_bound,
        "value_over_bound": result["best_value"] / bound.best_bound,
    }
    _emit(payload, args.out)
    return 0


def _sweep_row(method: str, t: int) -> dict:
    def doubled_alpha(spec):
        rep = construction_report(spec, doubled=True)
        return rep.alpha_predicted

    if method == "optimal":
        spec = build_optimal_spec(t, "exact")
        a_best = a_worst = doubled_alpha(spec)
        q_single = spec.q
    else:
        inc = int(method[3:])
        worst = build_increment_spec(t, inc, "naive")
        a_worst = doubled_alpha(worst)
        q_single = worst.q
        if t == 1:
            a_best = a_worst
        else:
            best = build_increment_spec(
                t, inc, "deferred_radius", outer_count=inc * (t - 1)
            )
            a_best = doubled_alpha(best)
    q2 = 2 * q_single
    c2 = q2 * (q2 - 1)
    bound = lower_bound_report(1, q2)
    return {
        "T": t,
        "Q": q2,
        "C": c2,
        "alpha_best": a_best,
        "alpha_worst": a_worst,
        "ratio": a_worst / (bound.best_bound / c2 ** 0.75),
    }


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    if args.tmax < args.tmin:
        _usage(f"sweep: --tmax {args.tmax} < --tmin {args.tmin}")
    if args.method not in TORUS_METHODS:
        _usage(f"sweep: unknown method {args.method!r}")
    rows = parallel_map(
        lambda t: _sweep_row(args.method, t), range(args.tmin, args.tmax + 1)
    )
    lines = _csv_header(config)
    lines.append("T,Q,C,alpha_best,alpha_worst,alpha_over_lower_bound")
    for r in rows:
        lines.append(
            f"{r['T']},{r['Q']},{r['C']},{r['alpha_best']:.12g},"
            f"{r['alpha_worst']:.12g},{r['ratio']:.12g}"
        )
    _write_csv(lines, args.out)
    return 0


def cmd_correction(args) -> int:
    config = _config_from_args(args)
    if args.table:
        lines = _csv_header(config)
        lines.append("ratio,p=1,p=2,p=3")
        with warnings.catch_warnings():
            # The ratio = 1 row is a degenerate horn torus; the integral is
            # still defined and belongs in the table.
            warnings.simplefilter("ignore")
            for ratio in _TABLE_RATIOS:
                cells = [
                    f"{toroidal_correction(ratio, p):.12g}" for p in (1, 2, 3)
                ]
                lines.append(f"{ratio:g}," + ",".join(cells))
        _write_csv(lines, args.out)
        return 0
    if args.ratio is None:
        _usage("correction: provide --ratio R [--p P] or --table")
    if args.ratio <= 1.0 and args.p > 1:
        _usage(
            f"correction: ratio {args.ratio} <= 1 is degenerate for p = {args.p}"
        )
    value = toroidal_correction(args.ratio, args.p)
    _emit(
        {"run": config.header(), "ratio": args.ratio, "p": args.p,
         "correction": value},
        args.out,
    )
    return 0


def cmd_export(args) -> int:
    link = import_geometry(args.file)
    export_geometry(link, args.format, args.out)
    return 0


def cmd_import(args) -> int:
    config = _config_from_args(args)
    link = import_geometry(args.file)
    payload = {
        "run": config.header(),
        "file": args.file,
        "components": link.n_components,
        "vertices": [c.n_vertices for c in link.components],
        "closed": [bool(c.closed) for c in link.components],
        "total_length": link.total_length(),
    }
    _emit(payload, args.out)
    return 0


def _add_common(sp):
    sp.add_argument("--points", type=int, default=1000,
                    help="sample points per component (default 1000)")
    sp.add_argument("--tolerance", type=float, default=0.01,
                    help="overlap tolerance in tube-radius units (default 0.01)")
    sp.add_argument("--seed", type=int, default=0, help="random seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ropebound",
        description="Tight torus-link construction, verification, and bounds.",
    )
    parser.add_argument("--config", help="JSON file of default flag values")
    sub = parser.add_subparsers(dest="subcommand", required=True)
    # Subparsers parse into a fresh namespace, so config-file defaults must be
    # installed on each subparser; keep them reachable from the main parser.
    parser.subcommand_parsers = []
    real_add_parser = sub.add_parser

    def add_parser(*a, **kw):
        sp = real_add_parser(*a, **kw)
        parser.subcommand_parsers.append(sp)
        return sp

    sub.add_parser = add_parser

    p = sub.add_parser("bounds", help="ropelength lower bounds for T(pQ,Q)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int)
    p.add_argument("--asymptotic", action="store_true",
                   help="include large-Q limiting coefficients")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build", help="construct a link and verify it")
    p.add_argument("method", choices=TORUS_METHODS + PLANAR_METHODS)
    p.add_argument("--q", type=int, help="components (planar methods)")
    p.add_argument("--t", type=int, help="shells (torus methods)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--double", action="store_true",
                   help="thread a second congruent copy through the hole")
    p.add_argument("--mirror", action="store_true",
                   help="reflect the second copy (with --double)")
    p.add_argument("--optimize", action="store_true",
                   help="optimize family parameters first (planar methods)")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--maxfev", type=int, default=400)
    p.add_argument("--count-mode", choices=("exact", "approx"), default="exact")
    p.add_argument("--jenga-mode", choices=("naive", "deferred_radius"),
                   default="naive")
    p.add_argument("--no-check", action="store_true")
    p.add_argument("--out", help="geometry output path (.vect/.csv/.json)")
    p.add_argument("--format", choices=("vect", "csv", "json"))
    p.add_argument("--report", help="write the JSON report here instead of stdout")
    _add_common(p)
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("check", help="verify a geometry file")
    p.add_argument("file")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("optimize", help="minimize normalized ropelength")
    p.add_argument("--family", choices=PLANAR_METHODS + ("toroidal_pair",),
                   required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--restarts", type=int, default=5)
    p.add_argument("--maxfev", type=int, default=2000)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("sweep", help="alpha(T) table for a torus method")
    p.add_argument("method", choices=TORUS_METHODS)
    p.add_argument("--tmin", type=int, required=True)
    p.add_argument("--tmax", type=int, required=True)
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("correction", help="toroidal length correction factors")
    p.add_argument("--ratio", type=float)
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--table", action="store_true",
                   help="emit the full correction table as CSV")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_correction)

    p = sub.add_parser("export", help="convert a geometry file")
    p.add_argument("file")
    p.add_argument("--format", choices=("vect", "csv", "json"))
    p.add_argument("--out", required=True)
    _add_common(p)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser("import", help="summarize a geometry file")
    p.add_argument("file")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_import)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        with open(args.config) as fh:
            defaults = json.load(fh)
        if not isinstance(defaults, dict):
            parser.error("--config must contain a JSON object of flag defaults")
        for sp in [parser] + parser.subcommand_parsers:
            known = {a.dest for a in sp._actions}
            sp.set_defaults(**{k: v for k, v in defaults.items() if k in known})
        args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, FormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
