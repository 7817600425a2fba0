"""Named, machine-checkable experiments over the shipped families.

Each scenario is one function registered with its summary, its default
parameters and, where it measures one family instance, that family.
``run_scenario`` builds the instance (or takes the caller's data), runs the
period checks, and lets the function measure the relevant quantities into a
MeasureReport whose verdicts carry signed margins.  A failed inequality is a
failing verdict, never an exception, so sweeps can map where an inequality
stops holding.

Two length readings appear side by side throughout.  Circle-route quantities
differentiate the closed-form circle length in t = ln r and convert by the
constant 2*pi/F3; traced-route quantities use the level curves' measured
lengths.  The two agree exactly on catenoid covers and differ at second
order in the slab height otherwise; reports carry both so the gap is
visible.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .errors import GeometryError, InadmissibleParametersError, PreconditionError
from .families import (
    DEFAULT_MARGIN,
    FigureEightParams,
    admissible_annulus,
    catenoid_cover,
    clip_to_slab,
    family_from_spec,
)
from .laurent import TWO_PI, AnnulusWindow, LaurentPoly
from .measures import (
    CatenoidParams,
    profile_radii,
    catenoid_area,
    catenoid_level_length,
    circle_length,
    circle_length_dd,
    convexity_report,
    marginal_waist_ratio,
    marginally_stable_waist,
    slab_area,
    total_curvature,
    trace_levels,
    waist_height,
)
from .weierstrass import (
    Parity,
    Slab,
    WeierstrassData,
    flux,
    from_g_pair,
    immerse,
    period_check,
    symmetry_check,
    winding_class,
)

DEFAULT_SEED = 20260814
FLUX_MATCH_TOL = 1e-9
WAIST_FLUX_TOL = 1e-6
IDENTITY_TOL = 1e-8
FD_CONSISTENCY_TOL = 1e-4
SYMMETRY_GRID_TOL = 1e-9
HORIZONTAL_FLUX_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    passed: bool
    margin: float

    def to_json(self):
        return {"pass": bool(self.passed), "margin": float(self.margin)}


@dataclass(frozen=True)
class Scenario:
    """Catalog entry: summary, default parameters, the family whose instance
    ``run_scenario`` builds and period-checks (None when the scenario draws
    or builds its own data), and the function that measures it."""

    name: str
    summary: str
    defaults: dict
    family: str | None
    measure: Callable = field(repr=False)


@dataclass
class MeasureReport:
    scenario: str
    quantities: dict = field(default_factory=dict)
    verdicts: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)

    @property
    def all_pass(self) -> bool:
        return all(v.passed for v in self.verdicts.values())

    def add_check(self, name: str, passed: bool, margin: float):
        self.verdicts[name] = Verdict(bool(passed), float(margin))

    def merge(self, sub: "MeasureReport", quantities=None, verdicts=None):
        """Copy a sub-report's quantities and verdicts into this report.

        ``quantities`` and ``verdicts`` select what is copied: None copies
        every entry, a sequence copies the named entries, and a dict maps
        each copied key to the name it takes here.
        """
        for mine, theirs, keys in (
            (self.quantities, sub.quantities, quantities),
            (self.verdicts, sub.verdicts, verdicts),
        ):
            if keys is None:
                keys = list(theirs)
            if not isinstance(keys, dict):
                keys = {key: key for key in keys}
            for key, name in keys.items():
                mine[name] = theirs[key]

    def to_json(self):
        return {
            "scenario": self.scenario,
            "quantities": {k: float(v) for k, v in sorted(self.quantities.items())},
            "verdicts": {k: v.to_json() for k, v in sorted(self.verdicts.items())},
            "provenance": self.provenance,
        }


def _provenance(name: str, params: dict, n_theta: int) -> dict:
    from . import __version__

    echo = {}
    for key, value in sorted(params.items()):
        if isinstance(value, complex):
            echo[key] = [value.real, value.imag]
        else:
            echo[key] = value
    return {
        "scenario": name,
        "inputs": echo,
        "theta_nodes": int(n_theta),
        "tool": f"minann {__version__}",
    }


# -- generators ----------------------------------------------------------------


def random_even_vertical_flux(
    rng: np.random.Generator, max_exponent: int = 2, margin: float = DEFAULT_MARGIN
) -> WeierstrassData:
    """Random even-parity data whose period check passes with vertical flux.

    Coefficients away from the constant term are standard complex normals;
    the constant term of each factor is then solved from the requirement that
    the factor's square has zero circle mean.  Draws that leave no admissible
    annulus are rejected and retried.
    """

    def factor() -> LaurentPoly:
        coeffs = {}
        for n in range(1, max_exponent + 1):
            for sign in (1, -1):
                re, im = rng.standard_normal(2)
                coeffs[sign * n] = complex(re, im)
        cross = sum(coeffs[n] * coeffs[-n] for n in range(1, max_exponent + 1))
        coeffs[0] = 1j * np.sqrt(complex(2.0 * cross))
        return LaurentPoly(coeffs)

    for _ in range(64):
        g_minus = factor()
        g_plus = factor()
        try:
            window = admissible_annulus(g_minus, g_plus, margin)
            data = from_g_pair(g_minus, g_plus, Parity.EVEN, window)
        except GeometryError:
            continue
        if period_check(data).vertical_flux:
            return data
    raise PreconditionError("could not draw admissible random data in 64 tries")


def random_three_term_pair(rng: np.random.Generator) -> WeierstrassData:
    """Random winding-zero data with factor exponents in {-1, 0, 1}."""
    for _ in range(64):
        a_m1, a_1, b_m1, b_1 = (
            complex(*rng.standard_normal(2)) for _ in range(4)
        )
        if 0 in (a_m1, a_1, b_m1, b_1):
            continue
        params = FigureEightParams(
            a_m1=a_m1,
            a_0=np.sqrt(complex(-2.0 * a_m1 * a_1)),
            a_1=a_1,
            b_m1=b_m1,
            b_0=np.sqrt(complex(-2.0 * b_m1 * b_1)),
            b_1=b_1,
        )
        gm, gp = params.g_minus(), params.g_plus()
        try:
            window = admissible_annulus(gm, gp)
            return from_g_pair(gm, gp, Parity.EVEN, window)
        except GeometryError:
            continue
    raise PreconditionError("could not draw admissible three-term data in 64 tries")


# -- report-producing operations ------------------------------------------------


def compare_lengths(
    sigma: WeierstrassData,
    cat: CatenoidParams,
    slab: Slab,
    grid=33,
    expect: str = "below",
    n_theta: int = 512,
) -> MeasureReport:
    """Traced level lengths of sigma against the catenoid closed form.

    ``expect`` is "below" when the surface's levels should be shorter than
    the catenoid's and "above" for the reverse claim.  The circle-route
    margin (closed-form circle lengths compared under the t = (2pi/F3)h
    substitution) is reported alongside the traced margins.
    """
    if expect not in ("below", "above"):
        raise PreconditionError(f"expect must be 'below' or 'above', got {expect!r}")
    if not symmetry_check(sigma):
        raise PreconditionError("length comparison requires reflection-symmetric data")
    f3 = flux(sigma).f3
    if abs(cat.f3 - f3) > FLUX_MATCH_TOL * f3:
        raise PreconditionError(
            f"catenoid flux {cat.f3!r} does not match the surface flux {f3!r}"
        )
    report = MeasureReport("compare_lengths")
    report.quantities["f3"] = f3
    report.quantities["cat_f3"] = cat.f3
    sign = 1.0 if expect == "below" else -1.0

    if np.isscalar(grid):
        heights = np.linspace(slab.h_minus, slab.h_plus, int(grid))
    else:
        heights = np.asarray(grid, dtype=float)
        if heights.min() < slab.h_minus - 1e-12 or heights.max() > slab.h_plus + 1e-12:
            raise PreconditionError("comparison heights must lie inside the slab")
    # At the waist the two lengths agree, so strictness is only meaningful
    # away from it; the skip width absorbs the tolerance of a numerically
    # located waist height.
    skip = 1e-6 * max(slab.h_plus - slab.h_minus, 1.0)
    kept = [h for h in heights if abs(h - cat.center) > skip]
    waist, *curves = trace_levels(sigma, [cat.center, *kept], n_theta)
    waist_len = waist.length
    report.quantities["traced_waist_length"] = waist_len
    report.add_check(
        "waist_equals_flux",
        abs(waist_len - f3) <= WAIST_FLUX_TOL * f3,
        WAIST_FLUX_TOL - abs(waist_len - f3) / f3,
    )

    traced_margins = []
    circle_margins = []
    rate = TWO_PI / f3
    for h, curve in zip(kept, curves):
        l_cat = catenoid_level_length(cat, h)
        traced_margins.append(sign * (l_cat - curve.length))
        l_circle = circle_length(sigma, math.exp(rate * (h - cat.center)))
        circle_margins.append(sign * (l_cat - l_circle))
    if not traced_margins:
        raise PreconditionError("height grid contains no nonzero heights")
    traced_margins = np.array(traced_margins)
    circle_margins = np.array(circle_margins)
    report.quantities["traced_margin_min"] = float(traced_margins.min())
    report.quantities["traced_margin_max"] = float(traced_margins.max())
    report.quantities["circle_margin_min"] = float(circle_margins.min())
    report.add_check(
        "traced_level_lengths", bool(traced_margins.min() > 0.0), float(traced_margins.min())
    )
    report.add_check(
        "circle_route_lengths", bool(circle_margins.min() > 0.0), float(circle_margins.min())
    )
    return report


def compare_areas(
    sigma: WeierstrassData,
    cat: CatenoidParams,
    slab: Slab,
    expect: str = "below",
    include_marginal: bool = False,
    n_theta: int = measures.DEFAULT_THETA_NODES,
) -> MeasureReport:
    """Slab area of sigma against the catenoid-cover closed form."""
    if expect not in ("below", "above"):
        raise PreconditionError(f"expect must be 'below' or 'above', got {expect!r}")
    report = MeasureReport("compare_areas")
    area_sigma = slab_area(sigma, slab, n_theta)
    area_cat = catenoid_area(cat, slab)
    sign = 1.0 if expect == "below" else -1.0
    margin = sign * (area_cat - area_sigma)
    report.quantities["area_sigma"] = area_sigma
    report.quantities["area_catenoid"] = area_cat
    report.quantities["area_margin"] = margin
    report.add_check("area_comparison", margin > 0.0, margin)
    if include_marginal:
        waist = marginally_stable_waist(slab)
        area_marg = catenoid_area(waist, slab)
        report.quantities["area_marginal_waist"] = area_marg
        report.quantities["marginal_f3"] = waist.f3
        report.add_check(
            "area_above_marginal", area_sigma > area_marg, area_sigma - area_marg
        )
    return report


def classify_levels(
    sigma: WeierstrassData,
    slab: Slab,
    n_levels: int = 9,
    expected_crossings: int | None = None,
    n_theta: int = 512,
) -> MeasureReport:
    """Self-intersection counts and traversal multiplicities per level."""
    report = MeasureReport("classify_levels")
    heights = np.linspace(slab.h_minus, slab.h_plus, int(n_levels))
    curves = trace_levels(sigma, heights, n_theta)
    counts = [curve.self_intersections for curve in curves]
    multiplicities = [curve.multiplicity for curve in curves]
    report.quantities["levels"] = float(n_levels)
    report.quantities["crossings_min"] = float(min(counts))
    report.quantities["crossings_max"] = float(max(counts))
    report.quantities["multiplicity_max"] = float(max(multiplicities))
    if max(multiplicities) > 1:
        # Doubly traversed levels: every point is a coincident pair, so the
        # transversal count is taken on one traversal and flagged here.
        report.quantities["degenerate_cover"] = 1.0
    if expected_crossings is not None:
        ok = all(c == expected_crossings for c in counts)
        worst = max(abs(c - expected_crossings) for c in counts)
        report.add_check("expected_crossings", ok, -float(worst))
    return report


# -- scenario catalog ------------------------------------------------------------


def _winding_check(report: MeasureReport, data: WeierstrassData, expected: int):
    k = winding_class(data)
    report.quantities["winding_class"] = float(k)
    report.add_check("winding_class", k == expected, -abs(k - expected))


def _period_checks(report: MeasureReport, data: WeierstrassData) -> bool:
    verdict = period_check(data)
    residual = max(abs(r) for r in verdict.residues[:2])
    report.quantities["horizontal_residual"] = residual
    report.add_check("well_defined", verdict.well_defined, -residual)
    report.add_check("vertical_flux", verdict.vertical_flux, -residual)
    return verdict.well_defined and verdict.vertical_flux


_PERTURBED = {"c1": 1.0 + 0.0j, "eps1": 0.05 + 0.0j, "margin": DEFAULT_MARGIN}
_FIGURE_EIGHT = {"a_m1": 1.0 + 0.0j, "a_1": 1.0 + 0.0j, "margin": DEFAULT_MARGIN}
_FAMILY_DEFAULTS = {"perturbed_two_cover": _PERTURBED, "figure_eight": _FIGURE_EIGHT}

SCENARIOS: dict[str, Scenario] = {}


def _scenario(defaults: dict, family: str | None = None):
    """Register the decorated function as the scenario named after it and
    summarized by its docstring."""

    def register(measure):
        name = measure.__name__.lstrip("_")
        SCENARIOS[name] = Scenario(name, measure.__doc__, dict(defaults), family, measure)
        return measure

    return register


def _build(family: str, params: dict) -> WeierstrassData:
    """The family instance that a scenario's parameters describe."""
    if family == "figure_eight" and params.get("a_0") is not None:
        # Explicit a_0 bypasses the derived constraint so that deliberately
        # inconsistent data can be fed to the period checks.
        g_minus = LaurentPoly(
            {-1: complex(params["a_m1"]), 0: complex(params["a_0"]), 1: complex(params["a_1"])}
        )
        g_plus = g_minus.conj_reflect()
        window = admissible_annulus(g_minus, g_plus, float(params["margin"]))
        return from_g_pair(g_minus, g_plus, Parity.EVEN, window)
    spec = {
        "family": family,
        "params": {k: params[k] for k in _FAMILY_DEFAULTS[family] if k != "margin"},
        "margin": params["margin"],
    }
    return family_from_spec(spec)[0]


def _thin_slab(data: WeierstrassData, params: dict) -> Slab:
    half = abs(float(params["slab_half"]))
    return clip_to_slab(data, Slab(-half, half))


def _three_term_residual(data: WeierstrassData, grid: int) -> tuple[float, float]:
    """Defect (|c-|^2 + |c+|^2)/pi of L'' = 4L - defect, c = 2 pi times a
    factor's constant coefficient, and the worst relative residual of that
    identity over the profile radii."""
    c_minus = TWO_PI * data.g_minus.coefficient(0)
    c_plus = TWO_PI * data.g_plus.coefficient(0)
    defect = (abs(c_minus) ** 2 + abs(c_plus) ** 2) / math.pi
    worst = 0.0
    for r in profile_radii(data.window, grid, inset=1e-3):
        length = circle_length(data, r)
        residual = abs(circle_length_dd(data, r) - (4.0 * length - defect))
        worst = max(worst, residual / length)
    return defect, worst


@_scenario({"seed": DEFAULT_SEED, "count": 100, "max_exponent": 2, "grid": 24})
def _lemma_3_1(report: MeasureReport, data, params: dict, n_theta: int):
    """strict lower convexity bound on random even vertical-flux data"""
    rng = np.random.default_rng(int(params["seed"]))
    count = int(params["count"])
    worst = math.inf
    for _ in range(count):
        sample = random_even_vertical_flux(rng, int(params["max_exponent"]))
        radii = profile_radii(sample.window, int(params["grid"]), inset=1e-3)
        defect = min(
            circle_length_dd(sample, r) - 2.0 * circle_length(sample, r) for r in radii
        )
        worst = min(worst, defect)
    report.quantities["datasets"] = float(count)
    report.quantities["min_defect"] = worst
    report.add_check("dd_above_2L", worst > 0.0, worst)


@_scenario({"seed": DEFAULT_SEED, "count": 20, "grid": 24})
def _lemma_3_4_identity(report: MeasureReport, data, params: dict, n_theta: int):
    """three-term factors satisfy the exact winding-zero identity"""
    rng = np.random.default_rng(int(params["seed"]))
    count = int(params["count"])
    worst = 0.0
    for _ in range(count):
        _, residual = _three_term_residual(random_three_term_pair(rng), int(params["grid"]))
        worst = max(worst, residual)
    report.quantities["datasets"] = float(count)
    report.quantities["max_relative_residual"] = worst
    report.add_check("identity", worst <= IDENTITY_TOL, IDENTITY_TOL - worst)


@_scenario(_PERTURBED, "perturbed_two_cover")
def _theorem_3_5(report: MeasureReport, data, params: dict, n_theta: int):
    """perturbed double cover: constant negative upper-convexity defect"""
    _winding_check(report, data, 2)
    eps1 = complex(data.g_minus.coefficient(0))
    eps2 = complex(data.g_plus.coefficient(0))
    expected = -4.0 * math.pi * (abs(eps1) ** 2 + abs(eps2) ** 2)
    worst_residual = 0.0
    worst_defect = -math.inf
    for r in profile_radii(data.window, 50, inset=1e-3):
        length = circle_length(data, r)
        defect = circle_length_dd(data, r) - 4.0 * length
        worst_residual = max(worst_residual, abs(defect - expected) / length)
        worst_defect = max(worst_defect, defect)
    report.quantities["computed_defect"] = expected
    # Two alternate -8 pi |eps|^2 normalizations reported for comparison; the
    # mean-square one always equals the computed defect.
    report.quantities["minus_8pi_mean_square"] = -8.0 * math.pi * (
        (abs(eps1) ** 2 + abs(eps2) ** 2) / 2.0
    )
    report.quantities["minus_8pi_eps1_square"] = -8.0 * math.pi * abs(eps1) ** 2
    report.quantities["max_relative_residual"] = worst_residual
    report.quantities["max_defect"] = worst_defect
    report.add_check(
        "dd_defect_identity", worst_residual <= IDENTITY_TOL, IDENTITY_TOL - worst_residual
    )
    report.add_check("dd_below_4L", worst_defect < 0.0, -worst_defect)


def _symmetry_deviation(data: WeierstrassData, n_grid: int = 32) -> float:
    w = data.window
    lo = max(w.r_inner, 1.0 / w.r_outer) * (1.0 + 1e-9)
    hi = min(w.r_outer, 1.0 / w.r_inner) * (1.0 - 1e-9)
    radii = np.exp(np.linspace(math.log(lo), math.log(hi), n_grid))
    thetas = TWO_PI * np.arange(n_grid) / n_grid
    grid_r, grid_t = np.meshgrid(radii, thetas, indexing="ij")
    z = grid_r * np.exp(1j * grid_t)
    direct = immerse(data, z)
    reflected = immerse(data, 1.0 / np.conj(z))
    flip = np.array([1.0, 1.0, -1.0])
    return float(np.max(np.abs(reflected - direct * flip)))


@_scenario({**_PERTURBED, **_FIGURE_EIGHT, "grid": 32})
def _prop_3_6_symmetry(report: MeasureReport, data, params: dict, n_theta: int):
    """conjugate-coefficient families are reflection symmetric"""
    if data is not None:
        instances = {"data": data}
    else:
        instances = {
            "perturbed": _build("perturbed_two_cover", params),
            "figure_eight": _build("figure_eight", params),
        }
    for label, data in instances.items():
        dev = _symmetry_deviation(data, int(params["grid"]))
        report.quantities[f"{label}_reflection_deviation"] = dev
        report.add_check(
            f"{label}_reflection", dev <= SYMMETRY_GRID_TOL, SYMMETRY_GRID_TOL - dev
        )
        fl = flux(data)
        horiz = max(abs(fl.f1), abs(fl.f2))
        report.quantities[f"{label}_f3"] = fl.f3
        report.quantities[f"{label}_horizontal_flux"] = horiz
        report.add_check(
            f"{label}_horizontal_flux",
            horiz <= HORIZONTAL_FLUX_TOL * fl.f3,
            HORIZONTAL_FLUX_TOL * fl.f3 - horiz,
        )
        report.add_check(f"{label}_coefficient_symmetry", symmetry_check(data), 0.0)


@_scenario({**_PERTURBED, "slab_half": 0.2, "grid": 33}, "perturbed_two_cover")
def _prop_3_7(report: MeasureReport, data, params: dict, n_theta: int):
    """perturbed double cover levels against the matched doubled catenoid"""
    cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=2)
    report.merge(
        compare_lengths(
            data, cat, _thin_slab(data, params), int(params["grid"]),
            expect="below", n_theta=n_theta,
        )
    )


@_scenario({**_PERTURBED, "slab_half": 0.2}, "perturbed_two_cover")
def _theorem_3_8(report: MeasureReport, data, params: dict, n_theta: int):
    """perturbed double cover area against the matched doubled catenoid"""
    cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=2)
    report.merge(
        compare_areas(data, cat, _thin_slab(data, params), expect="below", n_theta=n_theta)
    )

    # eps -> 0 control: the same measurement on the unperturbed cover must
    # collapse to the closed form within quadrature error.
    control = _build("perturbed_two_cover", {**params, "eps1": 0.0})
    slab_c = _thin_slab(control, params)
    cat_c = CatenoidParams(f3=flux(control).f3, center=0.0, cover=2)
    area_control = slab_area(control, slab_c, n_theta)
    area_closed = catenoid_area(cat_c, slab_c)
    rel = abs(area_control - area_closed) / area_closed
    report.quantities["control_relative_margin"] = rel
    report.add_check("control_margin_collapses", rel <= IDENTITY_TOL, IDENTITY_TOL - rel)


@_scenario({**_FIGURE_EIGHT, "slab_half": 0.25, "grid": 50, "levels": 9}, "figure_eight")
def _theorem_4_1(report: MeasureReport, data, params: dict, n_theta: int):
    """figure-eight convexity band and single self-crossing per level"""
    _winding_check(report, data, 0)
    conv = convexity_report(data, n_grid=int(params["grid"]))
    report.quantities["dd_minus_2L_min"] = conv.defect_min["2"]
    report.quantities["dd_minus_4L_max"] = conv.defect_max["4"]
    report.add_check("dd_above_2L", conv.defect_min["2"] > 0.0, conv.defect_min["2"])
    report.add_check("dd_below_4L", conv.defect_max["4"] < 0.0, -conv.defect_max["4"])
    levels = classify_levels(
        data, _thin_slab(data, params), int(params["levels"]),
        expected_crossings=1, n_theta=n_theta,
    )
    report.merge(levels, quantities=("crossings_min", "crossings_max"))


@_scenario({**_FIGURE_EIGHT, "fd_step": 0.01}, "figure_eight")
def _corollary_4_2(report: MeasureReport, data, params: dict, n_theta: int):
    """winding-zero second-derivative identity, closed form and traced"""
    f3 = flux(data).f3
    rate = TWO_PI / f3
    defect, worst = _three_term_residual(data, 50)
    report.quantities["identity_defect"] = defect
    report.quantities["max_relative_residual"] = worst
    report.add_check("identity_closed_form", worst <= IDENTITY_TOL, IDENTITY_TOL - worst)

    # Traced-level consistency runs on the flux-matched 2-fold cover, the
    # case where levels coincide with circles and the h to t conversion is
    # exact; the figure-eight numbers are reported next to it without a
    # verdict because its circles are not levels and the two readings differ
    # structurally off the waist.
    cover, cat = catenoid_cover(2, f3)
    step = float(params["fd_step"])
    worst_cover = 0.0
    centers = (0.0, 0.1, -0.15)
    stencils = [h + k * step for h in centers for k in (-1, 0, 1)]
    lengths = [curve.length for curve in trace_levels(cover, stencils, n_theta)]
    for i, h in enumerate(centers):
        vals = lengths[3 * i : 3 * i + 3]
        fd = (vals[0] - 2.0 * vals[1] + vals[2]) / step**2
        closed = rate**2 * circle_length_dd(cover, math.exp(rate * h))
        worst_cover = max(worst_cover, abs(fd - closed) / abs(closed))
    report.quantities["cover_fd_relative_error"] = worst_cover
    report.add_check(
        "traced_fd_consistency_cover",
        worst_cover <= FD_CONSISTENCY_TOL,
        FD_CONSISTENCY_TOL - worst_cover,
    )

    stencil = [k * step for k in (-1, 0, 1)]
    vals = [curve.length for curve in trace_levels(data, stencil, n_theta)]
    traced_dd0 = (vals[0] - 2.0 * vals[1] + vals[2]) / step**2
    report.quantities["figure_eight_traced_dd0"] = traced_dd0
    report.quantities["figure_eight_circle_dd0"] = rate**2 * (
        4.0 * circle_length(data, 1.0) - defect
    )


@_scenario({**_FIGURE_EIGHT, "slab_half": 0.25, "grid": 33}, "figure_eight")
def _theorem_4_3(report: MeasureReport, data, params: dict, n_theta: int):
    """figure-eight area above matched and marginally stable catenoids"""
    slab = _thin_slab(data, params)
    h0, waist_len = waist_height(data, slab, n_theta=n_theta)
    report.quantities["waist_height"] = h0
    report.quantities["waist_length"] = waist_len

    cat = CatenoidParams(f3=flux(data).f3, center=h0, cover=1)
    report.merge(
        compare_lengths(
            data, cat, slab, int(params["grid"]), expect="above", n_theta=n_theta
        ),
        quantities={"traced_margin_min": "length_margin_min"},
        verdicts=("traced_level_lengths",),
    )
    report.merge(
        compare_areas(
            data, cat, slab, expect="above", include_marginal=True, n_theta=n_theta
        ),
        quantities={
            "area_sigma": "area_sigma",
            "area_catenoid": "area_matched_catenoid",
            "area_marginal_waist": "area_marginal_waist",
        },
        verdicts={
            "area_comparison": "area_above_matched_catenoid",
            "area_above_marginal": "area_above_marginal",
        },
    )

    ustar = marginal_waist_ratio()
    report.quantities["marginal_ratio"] = ustar
    report.add_check(
        "marginal_ratio_oracle",
        abs(ustar - 1.1996786402577338) <= 1e-6,
        1e-6 - abs(ustar - 1.1996786402577338),
    )


@_scenario({**_FIGURE_EIGHT, "slab_half": 0.25, "grid": 33}, "figure_eight")
def _step_two(report: MeasureReport, data, params: dict, n_theta: int):
    """figure-eight levels and area below the matched doubled catenoid"""
    slab = _thin_slab(data, params)
    cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=2)
    report.merge(
        compare_lengths(
            data, cat, slab, int(params["grid"]), expect="below", n_theta=n_theta
        )
    )
    report.merge(
        compare_areas(data, cat, slab, expect="below", n_theta=n_theta),
        quantities=("area_sigma", "area_catenoid"),
        verdicts={"area_comparison": "area_below_cover"},
    )


@_scenario({**_FIGURE_EIGHT, "r_min": 1e-3, "r_max": 1e3})
def _total_curvature_8pi(report: MeasureReport, data, params: dict, n_theta: int):
    """total curvature of the extended figure-eight surface"""
    if data is None:
        data = _build("figure_eight", params)
    wide = AnnulusWindow(float(params["r_min"]), float(params["r_max"]))
    tc = total_curvature(data, window=wide, n_theta=n_theta)
    target = -8.0 * math.pi
    rel = abs(tc - target) / abs(target)
    report.quantities["total_curvature"] = tc
    report.quantities["relative_error"] = rel
    report.add_check("figure_eight_8pi", rel <= 0.02, 0.02 - rel)

    control, _ = catenoid_cover(1, TWO_PI)
    ctrl_window = AnnulusWindow(math.exp(-8.0), math.exp(8.0))
    tc_ctrl = total_curvature(control, window=ctrl_window, n_theta=n_theta)
    rel_ctrl = abs(tc_ctrl + 4.0 * math.pi) / (4.0 * math.pi)
    report.quantities["catenoid_total_curvature"] = tc_ctrl
    report.quantities["catenoid_relative_error"] = rel_ctrl
    report.add_check("catenoid_4pi", rel_ctrl <= 0.001, 0.001 - rel_ctrl)


def run_scenario(
    name: str, overrides: dict | None = None, n_theta: int = 512, data=None
) -> MeasureReport:
    """Execute a catalog scenario with optional parameter overrides.

    A scenario with a family builds its instance from the parameters, or
    takes ``data``, and is measured only when the period checks pass.
    Overrides must be parameters the scenario reads; with ``data`` the
    family parameters are rejected too, since nothing would read them.
    Inequality failures come back as failing verdicts.  Inadmissible
    parameters surface as a failing ``constructible`` verdict so sweeps can
    step over them; other geometry errors propagate.
    """
    if name not in SCENARIOS:
        raise PreconditionError(
            f"unknown scenario {name!r}; available: {', '.join(sorted(SCENARIOS))}"
        )
    scenario = SCENARIOS[name]
    params = dict(scenario.defaults)
    overrides = dict(overrides or {})
    # An explicit a_0 is read wherever a figure-eight is built.
    accepted = set(params) | ({"a_0"} if "a_m1" in params else set())
    unknown = set(overrides) - accepted
    if unknown:
        raise PreconditionError(f"unknown parameters for {name}: {sorted(unknown)}")
    if data is not None:
        if "seed" in params:
            raise PreconditionError("scenario draws its own random ensemble")
        ignored = set(overrides) & {*_PERTURBED, *_FIGURE_EIGHT, "a_0"}
        if ignored:
            raise PreconditionError(
                f"{name} runs on the given data and would ignore {sorted(ignored)}"
            )
    params.update(overrides)
    report = MeasureReport(name)
    try:
        if scenario.family is not None and data is None:
            data = _build(scenario.family, params)
        if scenario.family is None or _period_checks(report, data):
            scenario.measure(report, data, params, int(n_theta))
    except InadmissibleParametersError as exc:
        report = MeasureReport(name)
        report.add_check("constructible", False, -math.inf)
        report.provenance = _provenance(name, params, n_theta)
        report.provenance["error"] = str(exc)
        return report
    report.provenance = _provenance(name, params, n_theta)
    return report


def sweep_scenario(
    name: str,
    param: str,
    values,
    overrides: dict | None = None,
    n_theta: int = 512,
    data=None,
) -> list:
    """Run a scenario across parameter values and collect verdict margins.

    Consecutive sign changes of each margin are flagged so the output maps
    where an inequality stops holding.
    """
    rows = []
    previous = {}
    for value in values:
        ov = dict(overrides or {})
        ov[param] = value
        report = run_scenario(name, ov, n_theta, data)
        margins = {k: v.margin for k, v in report.verdicts.items()}
        flipped = sorted(
            k for k, m in margins.items()
            if k in previous and (m > 0) != (previous[k] > 0)
        )
        rows.append(
            {
                "param": param,
                "value": float(value),
                "all_pass": report.all_pass,
                "margins": {k: float(v) for k, v in sorted(margins.items())},
                "sign_changes": flipped,
            }
        )
        previous = margins
    return rows
