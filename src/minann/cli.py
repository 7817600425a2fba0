"""Command-line front end: build families, measure, trace, compare, report.

Exit status contract: 0 on success with all verdicts passing, 1 when any
verdict fails, 2 on usage or validation errors, 3 on numerical failures
and on running out of memory.  All file outputs are written atomically
(temp file in the target directory, then rename), and a command that
writes several renders them all first and, when one write fails, gives
each target it already wrote its former content, or removes it if new.
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
from .families import (
    DEFAULT_MARGIN,
    FAMILIES,
    attained_height_range,
    clip_to_slab,
    family_from_spec,
)
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
        value = parse_complex(raw)
    else:
        try:
            value = int(raw)
        except ValueError:
            try:
                value = float(raw)
            except ValueError:
                value = raw
    return key.strip(), value


def atomic_write(path: str, content: str | bytes) -> None:
    """Write through a temp file in the target directory; ValidationError if that fails."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".minann-", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb" if isinstance(content, bytes) else "w") as handle:
                handle.write(content)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc


def _write_all(files) -> None:
    """atomic_write each (path, content) in turn.  When one fails, each
    target already written gets back the bytes it held, or is removed if it
    did not exist, so the failed command leaves its targets as it found them."""
    written = []  # (path, its bytes before the write, or None)
    try:
        for path, content in files:
            try:
                with open(path, "rb") as handle:
                    before = handle.read()
            except FileNotFoundError:
                before = None
            except OSError as exc:
                raise ValidationError(f"cannot write {path!r}: {exc.strerror or exc}") from exc
            atomic_write(path, content)
            written.append((path, before))
    except ValidationError:
        for path, before in reversed(written):
            if before is None:
                os.unlink(path)
            else:
                atomic_write(path, before)
        raise


def _finite_or_null(doc):
    """``doc`` with each non-finite float written as null, as JSON.stringify does."""
    if isinstance(doc, float):
        return doc if math.isfinite(doc) else None
    if isinstance(doc, dict):
        return {key: _finite_or_null(value) for key, value in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [_finite_or_null(value) for value in doc]
    return doc


def _json_text(doc) -> str:
    return json.dumps(_finite_or_null(doc), indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit_json(doc, path: str | None) -> None:
    text = _json_text(doc)
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


# gen requires these flags, which the spec loader would default; other families take the defaults.
_GEN_REQUIRED = {
    "catenoid_cover": ("f3",),
    "perturbed_two_cover": ("c1", "eps1"),
    "figure_eight": ("a_m1", "a_1"),
}


_FLAG_TYPES = {int: int, float: float, complex: parse_complex}


def _gen_flags() -> dict[str, tuple[type, str]]:
    """(kind, help) of the gen flag of each FAMILIES param, in table order.

    The help names the family that reads the param and its spec default, or
    says that gen requires it.  A second factor's param, complex and without
    default, is required with --asymmetric.
    """
    flags: dict[str, tuple[type, list[str]]] = {}
    for family, entry in FAMILIES.items():
        for key, default in {**entry.params, **dict.fromkeys(entry.pair_params)}.items():
            note = (
                "required" if key in _GEN_REQUIRED.get(family, ())
                else "required with --asymmetric" if default is None
                else f"default {default!r}"
            )
            kind = complex if default is None else type(default)
            flags.setdefault(key, (kind, []))[1].append(f"{family}, {note}")
    return {key: (kind, "; ".join(notes)) for key, (kind, notes) in flags.items()}


def cmd_gen(args) -> int:
    names = _GEN_REQUIRED.get(args.family, ())
    if any(getattr(args, name) is None for name in names):
        flags = " and ".join("--" + name.replace("_", "-") for name in names)
        raise ValidationError(f"{args.family} requires {flags}")
    spec = {
        "family": args.family,
        "params": {k: getattr(args, k) for k in _gen_flags() if getattr(args, k) is not None},
        "margin": args.margin,
        "symmetric": not args.asymmetric,
    }
    emit_json(data_to_json(family_from_spec(spec)), args.out)
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
    if verdict.well_defined:
        fl = flux(data)
        doc["flux"] = {"f1": fl.f1, "f2": fl.f2, "f3": fl.f3}
        lo, hi = attained_height_range(data)
        doc["attained_heights"] = {"h_minus": lo, "h_plus": hi}
    emit_json(doc, args.out)
    return 0 if verdict.well_defined else 1


def _slab_from_args(data, args) -> Slab:
    """The slab of --h-min with --h-max, or of --slab-half alone."""
    bounds = (args.h_min, args.h_max)
    if args.slab_half is None and None not in bounds:
        return Slab(*bounds)
    if args.slab_half is not None and bounds == (None, None):
        return clip_to_slab(data, Slab.symmetric(args.slab_half))
    raise ValidationError("provide --h-min with --h-max, or --slab-half alone")


def cmd_measure(args) -> int:
    data = load_data(args.data)
    doc = {"kind": args.kind}
    if args.kind == "length":
        if args.r is None:
            raise ValidationError("measure length requires --r")
        doc["length"] = circle_length(data, args.r)  # checks the window before log(r)
        doc["length_dd"] = circle_length_dd(data, args.r)
        doc["r"] = args.r
        doc["t"] = math.log(args.r)
    elif args.kind == "area":
        slab = _slab_from_args(data, args)
        doc["slab"] = {"h_minus": slab.h_minus, "h_plus": slab.h_plus}
        doc["area"] = slab_area(data, slab, args.theta_nodes)
    elif args.kind == "curvature":
        doc["total_curvature"] = total_curvature(data, n_theta=args.theta_nodes)
        doc["total_curvature_over_pi"] = doc["total_curvature"] / math.pi
    emit_json(doc, args.out)
    return 0


# One node of the trace CSV: theta, r, x1, x2, x3, each to 17 significant digits.
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%.17g\n"


def cmd_trace(args) -> int:
    data = load_data(args.data)
    curves = trace_levels(data, args.height, args.theta_nodes)
    # Every output is rendered before the first is written, and a failed
    # write takes back the ones before it.
    files = []
    if args.csv:
        parts = ["theta,r,x1,x2,x3\n"]
        for curve in curves:
            rows = np.column_stack((curve.theta, curve.r, curve.points))
            parts.append(_CSV_ROW * len(rows) % tuple(rows.ravel().tolist()))
        files.append((args.csv, "".join(parts)))
    if args.svg:
        profile = length_profile(data, n_grid=64) if args.inset else None
        files.append((args.svg, level_curves_svg(curves, profile)))
    summary = _json_text({
        "levels": [
            {
                "height": curve.h,
                "length": curve.length,
                "self_intersections": curve.self_intersections,
                "multiplicity": curve.multiplicity,
            }
            for curve in curves
        ]
    })
    if args.out:
        files.append((args.out, summary))
    _write_all(files)
    if not args.out:
        sys.stdout.write(summary)
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
        try:
            values = [float(v) for v in args.values.split(",") if v.strip()]
        except ValueError as exc:
            raise ValidationError(f"--values must be numbers: {exc}") from None
        if not values:
            raise ValidationError("--values must contain at least one number")
    else:
        if args.start is None or args.stop is None:
            raise ValidationError("provide --values or --start/--stop/--count")
        if args.count < 1:
            raise ValidationError("--count must be at least 1")
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
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate family data as JSON")
    p.add_argument("--family", required=True, choices=list(FAMILIES))
    for key, (kind, text) in _gen_flags().items():
        p.add_argument("--" + key.replace("_", "-"), dest=key, type=_FLAG_TYPES[kind], help=text)
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
    try:
        return int(args.func(args))
    except ValidationError as exc:
        print(f"minann: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"minann: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError as exc:
        print(f"minann: numerical failure: out of memory: {exc}", file=sys.stderr)
        return 3
    except GeometryError as exc:  # pragma: no cover - defensive catch-all
        print(f"minann: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
