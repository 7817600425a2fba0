"""Span tracing of ``minann`` from outside the package.

``install()`` replaces every public function of every ``minann`` module, plus
``LaurentPoly.evaluate`` and the ``_immersion`` cache, with a wrapper that
records one span per call.  Modules import one another's functions by name
(``experiments`` and ``cli`` import from ``measures``; ``families``,
``measures`` and ``weierstrass`` share ``roots`` and ``_immersion``;
``LaurentPoly.__call__`` is ``evaluate``), so the installer patches every
module attribute and class attribute bound to the same function object, and
then fails if any ``minann`` module still holds an unwrapped original.  It
imports every module that ``LAYERS`` names first, and fails if a ``LAYERS``
name has no function to wrap, so a renamed function cannot read 0 calls.

A span is ``(id, name, parent_id, op_id, start, end, error, size)``.  Spans
stay in memory until ``Tracer.spans`` is written out by the caller; ``size``
is the work count computed from the call's arguments where the layer has
one (segment pairs, rays, nodes, points).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, fields

WRAPPED_PRIVATE = {"minann.weierstrass": ("_immersion",)}
WRAPPED_METHODS = {"minann.laurent": {"LaurentPoly": ("evaluate",)}}


def _size_of(name: str, fn):
    """Work count from the arguments of a call, or None if the layer has none."""
    params = list(inspect.signature(fn).parameters.values())

    def arg(pname):
        idx = [p.name for p in params].index(pname)
        default = params[idx].default

        def get(args, kwargs):
            if len(args) > idx:
                return args[idx]
            return kwargs.get(pname, default)

        return get

    if name == "measures.planar_self_intersections":
        xy = arg("xy")

        def pairs(a, k):
            n = len(xy(a, k))
            return n * (n - 3) // 2  # non-adjacent segment pairs of a closed polyline

        return pairs
    if name == "measures.level_radii":
        thetas = arg("thetas")
        return lambda a, k: len(thetas(a, k))
    if name == "measures.circle_length":
        nodes = arg("n_theta")
        return lambda a, k: int(nodes(a, k))
    if name == "laurent.LaurentPoly.evaluate":
        z = arg("z")

        def points(a, k):
            value = z(a, k)
            size = getattr(value, "size", None)
            if size is None:
                return len(value) if isinstance(value, (list, tuple)) else 1
            return int(size)

        return points
    return None


class Tracer:
    """Holds the spans of one process and the call stack that parents them."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.op_id = 0
        self._stack: list[int] = [0]
        self._next_id = 1
        self.originals: dict[int, object] = {}

    def wrap(self, name: str, fn):
        size_of = _size_of(name, fn)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            size = size_of(args, kwargs) if size_of is not None else 0
            stack.append(span_id)
            error = 0
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                error = 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, name, parent, self.op_id, start, end, error, size))

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def install(self) -> None:
        """Wrap the traced functions of every ``minann`` module."""
        for short in {layer.split(".", 1)[0] for layer, _ in LAYERS}:
            importlib.import_module(f"minann.{short}")
        modules = {k: m for k, m in sys.modules.items()
                   if k == "minann" or k.startswith("minann.")}
        targets: dict[int, tuple[str, object]] = {}
        for modname, module in modules.items():
            short = modname.split(".", 1)[1] if "." in modname else modname
            for attr, value in vars(module).items():
                defined_here = getattr(value, "__module__", None) == modname
                public = not attr.startswith("_") and inspect.isfunction(value)
                if defined_here and (public or attr in WRAPPED_PRIVATE.get(modname, ())):
                    targets[id(value)] = (f"{short}.{attr}", value)
            for cls_name, methods in WRAPPED_METHODS.get(modname, {}).items():
                cls = getattr(module, cls_name)
                for meth in methods:
                    value = cls.__dict__[meth]
                    targets[id(value)] = (f"{short}.{cls_name}.{meth}", value)
        unmatched = {layer for layer, _ in LAYERS} - {name for name, _ in targets.values()}
        if unmatched:
            raise RuntimeError(f"traced layers with no minann function: {sorted(unmatched)}")
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in targets.items()}
        self.originals = {key: fn for key, (_, fn) in targets.items()}
        for owner, namespace in _namespaces(modules):
            for attr, value in list(namespace.items()):
                if self._is_original(value):
                    setattr(owner, attr, wrappers[id(value)])
        self.verify(modules)

    def _is_original(self, value) -> bool:
        return self.originals.get(id(value), self) is value

    def verify(self, modules) -> None:
        """Fail if any module or class attribute still binds an original."""
        left = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, namespace in _namespaces(modules)
            for attr, value in namespace.items()
            if self._is_original(value)
        ]
        if left:
            raise RuntimeError(f"unwrapped minann functions remain: {sorted(left)}")


def _namespaces(modules):
    """(owner, namespace) of every minann module and of the classes it defines."""
    for modname, module in modules.items():
        yield module, vars(module)
        for value in list(vars(module).values()):
            if inspect.isclass(value) and value.__module__ == modname:
                yield value, value.__dict__


# -- per-layer metrics -------------------------------------------------------------

# Span names and the fields reported for each; see README.md for predictions.
LAYERS = (
    ("measures.planar_self_intersections", ("calls", "self_s", "pairs")),
    ("measures.trace_level", ("calls", "self_s", "incl_s", "crossings_used_ratio")),
    ("measures.waist_height", ("calls", "incl_s", "trace_calls")),
    ("measures.level_radii", ("calls", "rays", "self_s", "errors")),
    ("measures.circle_length", ("calls", "nodes", "self_s", "incl_s")),
    ("measures.circle_length_dd", ("calls", "self_s")),
    ("measures.slab_area", ("calls", "self_s")),
    ("measures.total_curvature", ("calls", "self_s")),
    ("measures.traversal_multiplicity", ("calls", "self_s")),
    ("laurent.LaurentPoly.evaluate", ("calls", "points", "self_s")),
    ("laurent.roots", ("calls", "self_s", "errors")),
    ("weierstrass.from_g_pair", ("calls", "self_s")),
    ("weierstrass.period_check", ("calls", "self_s")),
    ("weierstrass.metric_lambda_samples", ("calls", "self_s")),
    ("families.admissible_annulus", ("calls", "self_s")),
    ("families.attained_height_range", ("calls", "self_s")),
    *((f"experiments.{fn}", ("calls", "self_s", "incl_s")) for fn in (
        "run_scenario", "compare_lengths", "compare_areas", "classify_levels",
        "random_even_vertical_flux", "random_three_term_pair")),
    ("svgplot.level_curves_svg", ("calls", "self_s")),
    ("cli.main", ("calls", "self_s")),
    ("cli.atomic_write", ("calls", "self_s")),
)
# Work counts computed from argument sizes all live in Stats.size.
SIZE_FIELDS = ("pairs", "rays", "nodes", "points")
FIELD_UNITS = {
    "calls": ("count", "lower"), "self_s": ("s", "lower"), "incl_s": ("s", "lower"),
    "errors": ("count", "lower"), "trace_calls": ("count", "lower"),
    "crossings_used_ratio": ("ratio", "higher"),
    **{field: ("count", "lower") for field in SIZE_FIELDS},
}
# Metrics that are not a field of one span name.
EXTRA_METRICS = (
    ("weierstrass.immersion_cache.hit_ratio", "ratio", "higher"),
    ("cli.import_s", "s", "lower"),
    ("tracing.pass_s", "s", "lower"),
    ("tracing.overhead_s", "s", "lower"),
)
# Callers that read a traced level's crossings; every other caller discards them.
CROSSING_CALLERS = {"experiments.classify_levels", "cli.cmd_trace"}


def metric_specs() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    specs = [(f"{layer}.{field}", *FIELD_UNITS[field])
             for layer, fields in LAYERS for field in fields]
    return specs + list(EXTRA_METRICS)


@dataclass
class Stats:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0
    errors: int = 0
    size: int = 0
    crossing_calls: int = 0
    trace_calls: int = 0

    def add(self, other: "Stats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def field(self, name: str) -> float:
        if name in SIZE_FIELDS:
            return self.size
        if name == "crossings_used_ratio":
            return self.crossing_calls / self.calls if self.calls else 0.0
        return getattr(self, name)


def aggregate(spans) -> dict[int, dict[str, Stats]]:
    """Per operation id, per span name: calls, inclusive and self time, errors."""
    child_time: dict[int, float] = defaultdict(float)
    names = {}
    for span_id, name, parent, _op, start, end, _err, _size in spans:
        child_time[parent] += end - start
        names[span_id] = name
    out: dict[int, dict[str, Stats]] = defaultdict(lambda: defaultdict(Stats))
    for span_id, name, parent, op, start, end, error, size in spans:
        st = out[op][name]
        st.calls += 1
        st.incl_s += end - start
        st.self_s += end - start - child_time[span_id]
        st.errors += error
        st.size += size
        if name == "measures.trace_level":
            caller = names.get(parent)
            st.crossing_calls += caller in CROSSING_CALLERS
            if caller == "measures.waist_height":
                out[op][caller].trace_calls += 1
    return out


def per_pass(op_stats: dict[int, dict[str, Stats]], pass_of_op) -> list[dict[str, Stats]]:
    """Merge operation stats into one dict per pass, in pass order."""
    passes: dict[int, dict[str, Stats]] = defaultdict(lambda: defaultdict(Stats))
    for op, by_name in op_stats.items():
        for name, st in by_name.items():
            passes[pass_of_op(op)][name].add(st)
    return [passes[k] for k in sorted(passes)]


def layer_metrics(passes: list[dict[str, Stats]]) -> dict[str, float]:
    """Median over passes of every LAYERS field (zero where a layer was idle)."""
    out = {}
    for layer, names in LAYERS:
        for field in names:
            values = [p[layer].field(field) if layer in p else 0 for p in passes]
            out[f"{layer}.{field}"] = statistics.median(values)
    return out


def run_metrics(by_pass, cache_hits, cache_misses, import_s, traced_times,
                untraced_times) -> dict[str, float]:
    """Every per-layer metric of one traced run."""
    metrics = layer_metrics(by_pass)
    metrics["weierstrass.immersion_cache.hit_ratio"] = cache_hits / max(
        cache_hits + cache_misses, 1)
    metrics["cli.import_s"] = import_s
    metrics["tracing.pass_s"] = statistics.median(traced_times)
    metrics["tracing.overhead_s"] = metrics["tracing.pass_s"] - statistics.median(untraced_times)
    return metrics


def write_spans(path, spans) -> None:
    with open(path, "w") as handle:
        handle.write("id,name,parent,op,start,end,error,size\n")
        for span in spans:
            handle.write(",".join(map(str, span)) + "\n")
