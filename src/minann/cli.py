"""Command-line front end: build families, measure, trace, compare, report.

Exit status contract: 0 on success with all verdicts passing, 1 when any
verdict fails, 2 on usage or validation errors, 3 on numerical failures.
All file outputs are written atomically (temp file in the target directory,
then rename).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import __version__
from .errors import GeometryError, NumericalError, ValidationError
from .experiments import (
    SCENARIOS,
    MeasureReport,
    compare_areas,
    compare_lengths,
    run_scenario,
    sweep_scenario,
)
from .families import DEFAULT_MARGIN, attained_height_range, clip_to_slab, family_from_spec
from .measures import (
    DEFAULT_THETA_NODES,
    CatenoidParams,
    circle_length,
    circle_length_dd,
    length_profile,
    slab_area,
    total_curvature,
    trace_levels,
)
from .svgplot import level_curves_svg
from .weierstrass import (
    Slab,
    data_from_json,
    data_to_json,
    flux,
    gauss_winding,
    period_check,
    symmetry_check,
    winding_class,
)


# -- argument parsing helpers ---------------------------------------------------


def parse_complex(text: str) -> complex:
    """Parse a shell-safe complex literal: ``re,im`` or a bare real."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected a complex number as re,im (or a bare real), got {text!r}"
    )


def parse_param(text: str) -> tuple[str, object]:
    """Parse a ``key=value`` scenario override; value may be int, float,
    complex (re,im), or a bare string."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(f"expected key=value, got {text!r}")
    key, raw = text.split("=", 1)
    value: object
    if "," in raw:
        try:
            re_s, im_s = raw.split(",")
            value = complex(float(re_s), float(im_s))
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad complex value in {text!r}")
    else:
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
    return key.strip(), value


def atomic_write(path: str, content: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minann-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(content)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def emit_json(doc, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        atomic_write(path, text)
    else:
        sys.stdout.write(text)


def load_data(path: str):
    try:
        with open(path) as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ValidationError(f"cannot read data file {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ValidationError(f"data file {path!r} is not valid JSON: {exc}") from exc
    return data_from_json(doc)


# -- subcommands -----------------------------------------------------------------


# Family flags that gen hands to family_from_spec when given; the spec loader
# rejects those the family does not read.  gen requires the flags below even
# though the spec loader would default them.
_GEN_PARAMS = ("k", "f3", "center", "c1", "eps1", "c2", "eps2", "a_m1", "a_1", "b_m1", "b_1")
_GEN_REQUIRED = {
    "catenoid_cover": ("f3",),
    "perturbed_two_cover": ("c1", "eps1"),
    "figure_eight": ("a_m1", "a_1"),
}
_GEN_PAIR_REQUIRED = {"perturbed_two_cover": ("c2", "eps2"), "figure_eight": ("b_m1", "b_1")}


def cmd_gen(args) -> int:
    def require(names, what):
        if any(getattr(args, name) is None for name in names):
            flags = " and ".join("--" + name.replace("_", "-") for name in names)
            raise ValidationError(f"{what} requires {flags}")

    require(_GEN_REQUIRED[args.family], args.family)
    if args.asymmetric and args.family in _GEN_PAIR_REQUIRED:
        require(_GEN_PAIR_REQUIRED[args.family], f"asymmetric {args.family}")
    spec = {
        "family": args.family,
        "params": {k: getattr(args, k) for k in _GEN_PARAMS if getattr(args, k) is not None},
        "margin": args.margin,
        "symmetric": not args.asymmetric,
    }
    data, _ = family_from_spec(spec)
    emit_json(data_to_json(data), args.out)
    return 0


def cmd_check(args) -> int:
    data = load_data(args.data)
    verdict = period_check(data)
    doc = {
        "well_defined": verdict.well_defined,
        "vertical_flux": verdict.vertical_flux,
        "residues": [[r.real, r.imag] for r in verdict.residues],
        "symmetric": symmetry_check(data),
        "winding_class": winding_class(data),
        "gauss_winding": gauss_winding(data, data.window.geometric_mean),
        "window": {"r_inner": data.window.r_inner, "r_outer": data.window.r_outer},
    }
    if verdict.well_defined and verdict.vertical_flux:
        fl = flux(data)
        doc["flux"] = {"f1": fl.f1, "f2": fl.f2, "f3": fl.f3}
        lo, hi = attained_height_range(data)
        doc["attained_heights"] = {"h_minus": lo, "h_plus": hi}
    emit_json(doc, args.out)
    return 0 if verdict.well_defined and verdict.vertical_flux else 1


def _slab_from_args(data, args) -> Slab:
    if args.h_min is not None and args.h_max is not None:
        return Slab(args.h_min, args.h_max)
    if args.slab_half is not None:
        return clip_to_slab(data, Slab(-args.slab_half, args.slab_half))
    raise ValidationError("provide --h-min/--h-max or --slab-half")


def cmd_measure(args) -> int:
    data = load_data(args.data)
    doc = {"kind": args.kind}
    if args.kind == "length":
        if args.r is None:
            raise ValidationError("measure length requires --r")
        doc["r"] = args.r
        doc["t"] = math.log(args.r)
        doc["length"] = circle_length(data, args.r)
        doc["length_dd"] = circle_length_dd(data, args.r)
    elif args.kind == "area":
        slab = _slab_from_args(data, args)
        doc["slab"] = {"h_minus": slab.h_minus, "h_plus": slab.h_plus}
        doc["area"] = slab_area(data, slab, args.theta_nodes)
    elif args.kind == "curvature":
        doc["total_curvature"] = total_curvature(data, n_theta=args.theta_nodes)
        doc["total_curvature_over_pi"] = doc["total_curvature"] / math.pi
    emit_json(doc, args.out)
    return 0


def cmd_trace(args) -> int:
    data = load_data(args.data)
    curves = trace_levels(data, args.height, args.theta_nodes)
    if args.csv:
        lines = ["theta,r,x1,x2,x3"]
        for curve in curves:
            for node in curve.nodes:
                lines.append(",".join("%.17g" % v for v in node))
        atomic_write(args.csv, "\n".join(lines) + "\n")
    if args.svg:
        profile = length_profile(data, n_grid=64) if args.inset else None
        atomic_write(args.svg, level_curves_svg(curves, profile))
    doc = {
        "levels": [
            {
                "height": curve.h,
                "length": curve.length,
                "self_intersections": curve.self_intersections,
                "multiplicity": curve.multiplicity,
            }
            for curve in curves
        ]
    }
    emit_json(doc, args.out)
    return 0


def cmd_compare(args) -> int:
    data = load_data(args.data)
    f3 = flux(data).f3
    slab = _slab_from_args(data, args)
    cat = CatenoidParams(f3=f3, center=args.center, cover=args.cover_k)
    report = MeasureReport("compare")
    report.merge(
        compare_lengths(
            data, cat, slab, args.grid, expect=args.expect, n_theta=args.theta_nodes
        )
    )
    report.merge(
        compare_areas(
            data,
            cat,
            slab,
            expect=args.expect,
            include_marginal=args.marginal,
            n_theta=args.theta_nodes,
        )
    )
    doc = report.to_json()
    emit_json({k: doc[k] for k in ("quantities", "verdicts")}, args.out)
    return 0 if report.all_pass else 1


def cmd_report(args) -> int:
    data = load_data(args.data) if args.data else None
    overrides = dict(args.param or [])
    report = run_scenario(args.scenario, overrides, n_theta=args.theta_nodes, data=data)
    emit_json(report.to_json(), args.out)
    return 0 if report.all_pass else 1


def cmd_sweep(args) -> int:
    data = load_data(args.data) if args.data else None
    overrides = dict(args.set or [])
    if args.values:
        values = [float(v) for v in args.values.split(",") if v.strip()]
        if not values:
            raise ValidationError("--values must contain at least one number")
    else:
        if args.stop is None:
            raise ValidationError("provide --values or --start/--stop/--count")
        values = list(np.linspace(args.start, args.stop, args.count))
    rows = sweep_scenario(
        args.scenario, args.param, values, overrides, n_theta=args.theta_nodes, data=data
    )
    emit_json({"scenario": args.scenario, "rows": rows}, args.out)
    return 0


# -- parser construction ----------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minann",
        description="Minimal annuli in a slab: construction, tracing, and comparisons.",
    )
    parser.add_argument("--version", action="version", version=f"minann {__version__}")
    parser.add_argument(
        "--theta-nodes",
        type=int,
        default=DEFAULT_THETA_NODES,
        help="tracing, area and curvature nodes (default %(default)s)",
    )
    parser.add_argument(
        "--seed", type=int, default=None, help="seed for randomized scenarios"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate family data as JSON")
    p.add_argument(
        "--family",
        required=True,
        choices=["catenoid_cover", "perturbed_two_cover", "figure_eight"],
    )
    p.add_argument("--k", type=int, help="cover degree (catenoid_cover, default 1)")
    p.add_argument("--f3", type=float, help="vertical flux (catenoid_cover)")
    p.add_argument("--center", type=float, help="waist height (catenoid_cover, default 0)")
    p.add_argument("--c1", type=parse_complex, help="leading coefficient")
    p.add_argument("--eps1", type=parse_complex, help="perturbation size")
    p.add_argument("--c2", type=parse_complex, help="second leading coefficient (pair)")
    p.add_argument("--eps2", type=parse_complex, help="second perturbation size (pair)")
    p.add_argument("--a-m1", dest="a_m1", type=parse_complex, help="z^-1 coefficient")
    p.add_argument("--a-1", dest="a_1", type=parse_complex, help="z coefficient")
    p.add_argument("--b-m1", dest="b_m1", type=parse_complex, help="second z^-1 (pair)")
    p.add_argument("--b-1", dest="b_1", type=parse_complex, help="second z coefficient (pair)")
    p.add_argument("--margin", type=float, default=DEFAULT_MARGIN)
    p.add_argument(
        "--asymmetric",
        action="store_true",
        help="take the second factor from --c2/--eps2 or --b-m1/--b-1 "
        "instead of conjugating the first",
    )
    p.add_argument("--out", help="output path (default: stdout)")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check", help="period, symmetry, and winding checks")
    p.add_argument("--data", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("measure", help="scalar measurements")
    p.add_argument("--data", required=True)
    p.add_argument("--kind", required=True, choices=["length", "area", "curvature"])
    p.add_argument("--r", type=float, help="circle radius (length)")
    p.add_argument("--h-min", dest="h_min", type=float)
    p.add_argument("--h-max", dest="h_max", type=float)
    p.add_argument("--slab-half", dest="slab_half", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("trace", help="trace level curves; CSV/SVG output")
    p.add_argument("--data", required=True)
    p.add_argument(
        "--height", type=float, action="append", required=True, help="repeatable"
    )
    p.add_argument("--csv", help="CSV output path (theta,r,x1,x2,x3)")
    p.add_argument("--svg", help="SVG output path")
    p.add_argument("--inset", action="store_true", help="add length profile inset")
    p.add_argument("--out", help="summary JSON path (default: stdout)")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("compare", help="compare against a catenoid cover")
    p.add_argument("--data", required=True)
    p.add_argument("--cover-k", dest="cover_k", type=int, default=2)
    p.add_argument("--center", type=float, default=0.0)
    p.add_argument("--expect", choices=["below", "above"], default="below")
    p.add_argument("--grid", type=int, default=33)
    p.add_argument("--marginal", action="store_true")
    p.add_argument("--h-min", dest="h_min", type=float)
    p.add_argument("--h-max", dest="h_max", type=float)
    p.add_argument("--slab-half", dest="slab_half", type=float)
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("report", help="run a named scenario")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--data", help="run on this data instead of the built-in instance")
    p.add_argument(
        "--param",
        type=parse_param,
        action="append",
        metavar="KEY=VALUE",
        help="override a scenario parameter (repeatable)",
    )
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("sweep", help="sweep one scenario parameter")
    p.add_argument("--scenario", required=True, choices=sorted(SCENARIOS))
    p.add_argument("--param", required=True, help="parameter to sweep")
    p.add_argument("--values", help="comma-separated explicit values")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--count", type=int, default=9)
    p.add_argument(
        "--set",
        type=parse_param,
        action="append",
        metavar="KEY=VALUE",
        help="fix another parameter (repeatable)",
    )
    p.add_argument("--data")
    p.set_defaults(func=cmd_sweep)
    p.add_argument("--out")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if (
        args.seed is not None
        and args.command in ("report", "sweep")
        and "seed" in SCENARIOS[args.scenario].defaults
    ):
        # Randomized scenarios read their seed from the parameter set.
        extra = ("seed", int(args.seed))
        if args.command == "report":
            args.param = (args.param or []) + [extra]
        else:
            args.set = (args.set or []) + [extra]
    try:
        return int(args.func(args))
    except ValidationError as exc:
        print(f"minann: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"minann: numerical failure: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:  # pragma: no cover - defensive catch-all
        print(f"minann: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
