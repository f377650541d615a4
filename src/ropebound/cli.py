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
import functools
import importlib
import json
import math
import sys
import warnings

import numpy as np

from . import __version__
from .bounds import asymptotic_coefficients, lower_bound_report
from .helices import toroidal_correction
from .specs import (
    FAMILIES,
    PLANAR_FAMILIES,
    build_increment_spec,
    build_optimal_spec,
    construction_report,
    doubled_alphas,
    increment_tori,
    optimal_tori,
)

# The geometry names of the commands that build, measure or convert links,
# with the module of each.  `bounds`, `sweep` and `correction` use none, so
# none is imported with this module: `_load_geometry` binds a command's
# names when it starts, and the module `__getattr__` serves any of them as
# an attribute of `cli` before that.  perfbench/tracing.py wraps several
# of these attributes (and parallel_map, which no command calls); a name
# already bound, a wrapper included, stays as it is.
_GEOMETRY = {
    "realize_torus": "construct",
    "donut_double": "construct",
    "build_planar_link": "construct",
    "measure_link": "measure",
    "verify": "measure",
    "linking_matrix": "linking",
    "export_geometry": "io_formats",
    "import_geometry": "io_formats",
    "OptimizationProblem": "optimize",
    "minimize_params": "optimize",
    "parallel_map": "parallel",
}


def __getattr__(name: str):
    """The geometry function or class `name` of `_GEOMETRY`, imported from
    its module."""
    if name not in _GEOMETRY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = importlib.import_module(f".{_GEOMETRY[name]}", __package__)
    return getattr(module, name)


def _load_geometry(*names):
    """Bind each of `names` in this module unless it is bound already."""
    space = globals()
    for name in names:
        if name not in space:
            space[name] = __getattr__(name)


TORUS_METHODS = ("inc4", "inc5", "optimal")

# Ratio rows of the reference correction table (columns are p = 1, 2, 3).
_TABLE_RATIOS = [
    1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8, 1.9,
    2.0, 2.1, 2.2, 2.3, 2.4, 2.5, 3.0, 3.5, 4.0, 4.5,
    5.0, 5.5, 6.0, 6.5, 7.0, 7.5, 8.0, 8.5, 9.0, 9.5,
    10.0, 20.0,
]


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


def _write(text: str, out: str | None):
    """Write a report to `out`, or to stdout when no path is given."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(payload: dict, out: str | None):
    _write(json.dumps(_sig12(payload), indent=1, sort_keys=True) + "\n", out)


def _write_csv(lines, out: str | None):
    _write("\n".join(lines) + "\n", out)


def _flags(args) -> dict:
    """The invocation's parsed flags by name, subcommand included, without
    the handler, the config path and unset values."""
    return {
        k: v
        for k, v in sorted(vars(args).items())
        if k not in ("func", "config") and v is not None
    }


def _run_header(args) -> dict:
    """Reproducibility block of a JSON report."""
    return {"version": __version__, "seed": args.seed, "flags": _flags(args)}


def _csv_header(args) -> list:
    flags = " ".join(f"{k}={v}" for k, v in _flags(args).items())
    return [f"# ropebound {__version__}", f"# seed={args.seed} {flags}"]


def _usage(message: str):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def cmd_bounds(args) -> int:
    if args.q is None and not args.asymptotic:
        _usage("bounds: provide --q and/or --asymptotic")
    payload = {"run": _run_header(args)}
    if args.q is not None:
        payload["bounds"] = lower_bound_report(args.p, args.q).as_dict()
    if args.asymptotic:
        payload["asymptotic"] = asymptotic_coefficients(args.p)
    _emit(payload, args.out)
    return 0


# The flags that only one kind of build takes, with the end of the usage
# error that any other build gets.
_BUILD_KIND_FLAGS = {
    "torus": (("t", "p", "double"), "applies to torus methods only"),
    "optimal": (("count_mode",), "applies to the optimal method only"),
    "planar": (("q", "optimize"), "applies to planar families only"),
    "optimize": (("restarts", "maxfev"), "tunes --optimize, so it needs it"),
    "out": (("format",), "chooses the format of --out, so it needs it"),
}


def _check_build_flags(args, defaults):
    """Usage error for a flag that differs from its value in `defaults`
    (what `build METHOD` alone parses to, --config defaults included) on a
    build whose kinds do not take it: its method, "torus" or "planar", and
    "optimize" or "out" when that flag is set."""
    m = args.method
    kinds = {m, "torus" if m in TORUS_METHODS else "planar",
             *(k for k in ("optimize", "out") if getattr(args, k))}
    for kind, (dests, reason) in _BUILD_KIND_FLAGS.items():
        for dest in dests:
            if kind not in kinds and getattr(args, dest) != getattr(defaults, dest):
                _usage(f"build {m}: --{dest.replace('_', '-')} {reason}")


def cmd_build(args) -> int:
    _load_geometry("realize_torus", "donut_double", "build_planar_link",
                   "OptimizationProblem", "minimize_params", "measure_link",
                   "verify", "linking_matrix", "export_geometry")
    method = args.method
    payload = {"run": _run_header(args)}
    if method in TORUS_METHODS:
        if args.t is None:
            _usage(f"build {method}: requires --t (number of shells)")
        if method == "optimal":
            spec = build_optimal_spec(args.t, args.count_mode, p=args.p)
        else:
            spec = build_increment_spec(args.t, int(method[3:]), p=args.p)
        report = construction_report(spec, doubled=args.double)
        payload["construction"] = report.as_dict()
        if args.double:
            link = donut_double(spec, n_points=args.points, check=False)
        else:
            link = realize_torus(spec, n_points=args.points, check=False)
        absolute = True
    else:
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
        link = build_planar_link(args.q, method, params, n_points=args.points)
        absolute = False

    metrics = measure_link(link)
    payload["metrics"] = metrics.as_dict()
    if not args.no_check:
        # a torus has a linking pattern to check; a planar link has none
        linking = {"linking": linking_matrix(link.components)} if absolute else {}
        payload["verification"] = verify(
            link, metrics, absolute=absolute, tolerance=args.tolerance, **linking
        )
    if args.out:
        export_geometry(link, args.format, args.out)
        payload["geometry"] = args.out
    _emit(payload, args.report)
    if args.no_check:
        return 0
    return 0 if payload["verification"]["passed"] else 1


def cmd_check(args) -> int:
    _load_geometry("import_geometry", "measure_link", "linking_matrix", "verify")
    link = import_geometry(args.file)
    metrics = measure_link(link)
    # linking numbers are defined for closed curves only
    closed = all(c.closed for c in link.components)
    linking = linking_matrix(link.components) if closed else None
    # a JSON file of a planar family is in loop units, so only embeddability
    # is checked; CSV and VECT files carry no family and are checked absolutely
    absolute = link.metadata.get("family") not in PLANAR_FAMILIES
    payload = {
        "run": _run_header(args),
        "file": args.file,
        "components": link.n_components,
        "metrics": metrics.as_dict(),
        "linking_matrix": None if linking is None else linking.tolist(),
        "verification": (
            verify(link, metrics, linking, absolute=absolute,
                   tolerance=args.tolerance) if closed else
            verify(link, metrics, absolute=absolute, tolerance=args.tolerance)),
    }
    _emit(payload, args.out)
    return 0 if payload["verification"]["passed"] else 1


def cmd_optimize(args) -> int:
    _load_geometry("OptimizationProblem", "minimize_params")
    if args.family == "toroidal_pair" and args.q != 14:
        _usage("optimize: toroidal_pair is a 14-component family")
    problem = OptimizationProblem(
        args.family, args.q, n_points=args.points, seed=args.seed
    )
    result = minimize_params(problem, restarts=args.restarts, maxfev=args.maxfev)
    bound = lower_bound_report(1, args.q)
    payload = {
        "run": _run_header(args),
        "family": args.family,
        "q": args.q,
        "best_params": dict(zip(problem.param_names, result["best_params"])),
        "best_value": result["best_value"],
        "evaluations": result["evaluations"],
        "alpha": result["best_value"] / bound.crossing_number ** 0.75,
        "lower_bound": bound.best_bound,
        "value_over_bound": result["best_value"] / bound.best_bound,
    }
    _emit(payload, args.out)
    return 0


# Shells per chunk of a sweep: it bounds the per-shell arrays of a chunk's
# array passes; their bracket rows and quadrature nodes are bounded by
# helices._BLOCK.
_SWEEP_CHUNK_SHELLS = 1 << 13


def _sweep_chunks(tmin: int, tmax: int, specs_per_t: int):
    """Consecutive runs of T in [tmin, tmax] of at most _SWEEP_CHUNK_SHELLS
    shells in all (T shells per spec); a T with more is a chunk of its
    own."""
    chunk, shells = [], 0
    for t in range(tmin, tmax + 1):
        if chunk and shells + specs_per_t * t > _SWEEP_CHUNK_SHELLS:
            yield chunk
            chunk, shells = [], 0
        chunk.append(t)
        shells += specs_per_t * t
    yield chunk


def _sweep_lines(method: str, ts: list) -> list:
    """CSV rows of one chunk of T values.  alpha_worst is the doubled
    torus of `build_*_spec(T)`; an increment build's alpha_best leaves its
    outer shell with inc * (T - 1) helices (the same spec at T = 1)."""
    if method == "optimal":
        qs, alphas = doubled_alphas(optimal_tori(ts))
        worst = best = alphas
    else:
        inc = int(method[3:])
        outer = [inc * t for t in ts] + [inc * max(t - 1, 1) for t in ts]
        qs, alphas = doubled_alphas(increment_tori(ts + ts, inc, outer))
        worst, best = alphas[:len(ts)], alphas[len(ts):]
    lines = []
    for t, q, a_best, a_worst in zip(ts, qs, best, worst):
        bound = lower_bound_report(1, 2 * q)
        ratio = a_worst / bound.alpha_best
        lines.append(f"{t},{bound.q},{bound.crossing_number},{a_best:.12g},"
                     f"{a_worst:.12g},{ratio:.12g}")
    return lines


def cmd_sweep(args) -> int:
    """alpha(T) of the doubled torus for T in [tmin, tmax], with its ratio to
    the lower bound's.  Each chunk of T values is a few array passes
    (`specs.increment_tori` / `optimal_tori`, then `doubled_alphas`),
    run in order; the rows equal `construction_report(build_*_spec(T),
    doubled=True)` bit for bit."""
    if args.tmax < args.tmin:
        _usage(f"sweep: --tmax {args.tmax} < --tmin {args.tmin}")
    if args.method not in TORUS_METHODS:
        _usage(f"sweep: unknown method {args.method!r}")
    lines = _csv_header(args)
    lines.append("T,Q,C,alpha_best,alpha_worst,alpha_over_lower_bound")
    specs_per_t = 1 if args.method == "optimal" else 2
    for ts in _sweep_chunks(args.tmin, args.tmax, specs_per_t):
        lines += _sweep_lines(args.method, ts)
    _write_csv(lines, args.out)
    return 0


def cmd_correction(args) -> int:
    if args.table:
        lines = _csv_header(args)
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
        {"run": _run_header(args), "ratio": args.ratio, "p": args.p,
         "correction": value},
        args.out,
    )
    return 0


def cmd_export(args) -> int:
    _load_geometry("import_geometry", "export_geometry")
    link = import_geometry(args.file)
    export_geometry(link, args.format, args.out)
    return 0


def cmd_import(args) -> int:
    _load_geometry("import_geometry")
    link = import_geometry(args.file)
    payload = {
        "run": _run_header(args),
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

    p = sub.add_parser("bounds", help="ropelength lower bounds for T(pQ,Q)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--q", type=int)
    p.add_argument("--asymptotic", action="store_true",
                   help="include large-Q limiting coefficients")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("build", help="construct a link and verify it")
    p.add_argument("method", choices=TORUS_METHODS + PLANAR_FAMILIES)
    p.add_argument("--q", type=int, help="components (planar methods)")
    p.add_argument("--t", type=int, help="shells (torus methods)")
    p.add_argument("--p", type=int, default=1)
    p.add_argument("--double", action="store_true",
                   help="thread a second copy through the hole (p = 1 only)")
    p.add_argument("--optimize", action="store_true",
                   help="optimize family parameters first (planar methods)")
    p.add_argument("--restarts", type=int, default=1)
    p.add_argument("--maxfev", type=int, default=400)
    p.add_argument("--count-mode", choices=("exact", "approx"), default="exact")
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
    p.add_argument("--family", choices=tuple(FAMILIES), required=True)
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


def _install_config(parser, path: str):
    """Install the flag defaults of a JSON config file on the main parser
    and every subparser (subparsers parse into a fresh namespace, so each
    needs its own defaults).  A file that cannot be read or parsed, a key
    no parser takes, or a value its flag cannot take is a usage error."""
    try:
        with open(path) as fh:
            defaults = json.load(fh)
    except (OSError, ValueError) as exc:
        _usage(f"--config {path}: {exc}")
    if not isinstance(defaults, dict):
        parser.error("--config must contain a JSON object of flag defaults")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    parsers = [parser, *sub.choices.values()]
    dests = {a.dest for sp in parsers for a in sp._actions}
    for key in (k for k in defaults if k not in dests):
        _usage(f"--config {path}: unknown key {key!r}")
    for sp in parsers:
        actions = {a.dest: a for a in sp._actions}
        known = {k: v for k, v in defaults.items() if k in actions}
        for key, value in known.items():
            if not _config_value_fits(actions[key], value):
                _usage(f"--config {path}: bad value {value!r} for {key!r}")
        sp.set_defaults(**known)


def _config_value_fits(action, value) -> bool:
    """Whether a config-file value can be the default of `action`'s flag:
    a bool for a switch, else a string (argparse converts string defaults
    with the flag's type) or a number for a numeric flag."""
    if action.nargs == 0:
        return isinstance(value, bool)
    number = {int: int, float: (int, float)}.get(action.type, ())
    return isinstance(value, str) or (
        isinstance(value, number) and not isinstance(value, bool))


@functools.cache
def _plain_parser() -> argparse.ArgumentParser:
    """The parser without config defaults, built once per process: parsing
    leaves it as it was, and building it costs about 2 ms, which every
    in-process call (a `check` of a 200-point torus takes about 14 ms)
    would pay again."""
    return build_parser()


def main(argv=None) -> int:
    parser = _plain_parser()
    args = parser.parse_args(argv)
    if args.config:
        parser = build_parser()
        _install_config(parser, args.config)
        args = parser.parse_args(argv)
    if not math.isfinite(args.tolerance):
        _usage(f"--tolerance must be finite, got {args.tolerance}")
    if args.subcommand == "build":
        _check_build_flags(args, parser.parse_args(["build", args.method]))
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # a FormatError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
