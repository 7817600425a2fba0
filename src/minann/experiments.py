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
import operator
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import measures
from .errors import DomainError, GeometryError, InadmissibleParametersError, PreconditionError
from .families import (
    DEFAULT_MARGIN,
    FAMILIES,
    _three_term_constant,
    admissible_annuli,
    catenoid_cover,
    clip_to_slab,
)
from .laurent import TWO_PI, AnnulusWindow, LaurentPoly, _count, solve_roots
from .measures import (
    CatenoidParams,
    _profile_lengths,
    catenoid_area,
    catenoid_level_length,
    circle_length,
    circle_length_dd,
    marginal_waist_ratio,
    marginally_stable_waist,
    slab_area,
    total_curvature,
    trace_levels,
    waist_height,
)
from .weierstrass import (
    MAX_DENSE_WIDTH,
    Parity,
    Slab,
    WeierstrassData,
    _dense_span,
    data_to_json,
    flux,
    from_g_pair,
    immerse,
    period_check,
    period_checks,
    symmetry_check,
    symmetry_margin,
    winding_class,
)

DEFAULT_SEED = 20260814
FLUX_MATCH_TOL = 1e-9
WAIST_FLUX_TOL = 1e-6
IDENTITY_TOL = 1e-8
FD_CONSISTENCY_TOL = 1e-4
ENSEMBLE_CHUNK = 128  # most data sets a random ensemble draws and measures at once
SYMMETRY_GRID_TOL = 1e-9
HORIZONTAL_FLUX_TOL = 1e-12


@dataclass(frozen=True)
class Verdict:
    """One signed margin; the check passes exactly when it is positive."""

    margin: float

    @property
    def passed(self) -> bool:
        return self.margin > 0.0

    def to_json(self):
        return {"pass": self.passed, "margin": self.margin}


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

    def add_check(self, name: str, margin: float):
        self.verdicts[name] = Verdict(float(margin))

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


# Params that a run on given data rejects as overrides and leaves out of its inputs.
_DATA_IGNORES = frozenset({key for entry in FAMILIES.values() for key in entry.params} | {"margin"})


def _provenance(name: str, params: dict, n_theta: int, data=None) -> dict:
    """The run's inputs; with given ``data`` that data stands in for the
    family params and ``margin``, which nothing read."""
    from . import __version__

    inputs = {
        key: [value.real, value.imag] if isinstance(value, complex) else value
        for key, value in sorted(params.items())
        if data is None or key not in _DATA_IGNORES
    }
    if data is not None:
        inputs["data"] = data_to_json(data)
    return {
        "scenario": name,
        "inputs": inputs,
        "theta_nodes": n_theta,
        "tool": f"minann {__version__}",
    }


# -- generators ----------------------------------------------------------------


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """The complex array with parts ``re`` and ``im``, bit for bit."""
    out = np.empty(np.shape(re), complex)
    out.real = re
    out.imag = im
    return out


def _round_factors(exponents: range, rows: np.ndarray, drawn: np.ndarray) -> list:
    """A built round's factor pairs, None for an attempt that ``drawn`` marks
    as making no pair.  Each row is constructed by ``LaurentPoly._from_row``
    after + 0j: the public constructor sums every coefficient onto 0j, which
    turns a -0.0 part into 0.0."""
    return [
        (LaurentPoly._from_row(exponents, gm), LaurentPoly._from_row(exponents, gp))
        if ok else None
        for (gm, gp), ok in zip((rows + 0j).tolist(), drawn.tolist())
    ]


def _draw(
    rng: np.random.Generator, size: int | None, width: int, build, what: str
) -> WeierstrassData | list[WeierstrassData]:
    """Rejection-sample ``size`` even-parity data sets with vertical flux
    (one when size is None).

    Draws go in rounds.  A round takes the normals of every still-missing
    data set in one ``rng.standard_normal((missing, width))`` call, the same
    stream as one call per normal pair, and ``build`` turns the whole array
    into the round's factor coefficients, ``(exponents, rows, drawn)`` with
    ``rows[i]`` the (2, len(exponents)) g-/g+ coefficients of attempt i and
    ``drawn`` the mask of attempts that make a pair, which
    ``_round_factors`` makes into factor pairs.  The round then solves
    the factor roots together (``solve_roots``), takes the admissible annuli
    together (``admissible_annuli``), builds the data of every admissible
    pair (``from_g_pair``) and period-checks the built data together
    (``period_checks``).  The attempts are accepted in stream order when
    built and ``vertical_flux``.  A round never draws more attempts than
    data sets are missing, so the stream ends where single draws would end
    it, and the accepted data sets come back in stream order.  64
    consecutive rejections raise PreconditionError.
    """
    count = 1 if size is None else _count(size, "size", 0)
    accepted: list[WeierstrassData] = []
    rejected = 0
    while len(accepted) < count:
        pairs = _round_factors(*build(rng.standard_normal((count - len(accepted), width))))
        drawn = [pair for pair in pairs if pair is not None]
        solve_roots([g for pair in drawn for g in pair])
        windows = iter(admissible_annuli(drawn))
        built = []
        for pair in pairs:
            data = None
            if pair is not None:
                window = next(windows)
                if isinstance(window, AnnulusWindow):
                    try:
                        data = from_g_pair(*pair, Parity.EVEN, window)
                    except GeometryError:
                        pass
            built.append(data)
        verdicts = iter(period_checks([data for data in built if data is not None]))
        for data in built:
            if data is not None and next(verdicts).vertical_flux:
                accepted.append(data)
                rejected = 0
            else:
                rejected += 1
                if rejected == 64:
                    raise PreconditionError(f"could not draw admissible {what} in 64 tries")
    return accepted[0] if size is None else accepted


def _vertical_flux_rows(normals: np.ndarray, max_exponent: int):
    """``random_even_vertical_flux``'s round builder: factor coefficients
    over the exponents -max_exponent..max_exponent.

    Each factor takes 4 * max_exponent normals, (re, im) of z^n then of
    z^-n for n = 1, 2, ...; its constant is 1j * sqrt(2 * cross) with cross
    the sum of the products of the z^n and z^-n coefficients.  Python's
    complex arithmetic is written out in reals: the sum starts from 0,
    2.0 * cross multiplies by (2.0, 0.0) and 1j * s by (0.0, 1.0).
    """
    m = max_exponent
    v = normals.reshape(len(normals), 2, m, 2, 2)  # (attempt, factor, n - 1, z^n / z^-n, re / im)
    pr, pi, qr, qi = v[..., 0, 0], v[..., 0, 1], v[..., 1, 0], v[..., 1, 1]
    cross_re = cross_im = 0.0
    for n in range(m):
        cross_re = cross_re + (pr[..., n] * qr[..., n] - pi[..., n] * qi[..., n])
        cross_im = cross_im + (pr[..., n] * qi[..., n] + pi[..., n] * qr[..., n])
    root = np.sqrt(_complex(2.0 * cross_re - 0.0 * cross_im, 2.0 * cross_im + 0.0 * cross_re))
    constant = _complex(0.0 * root.real - root.imag, 0.0 * root.imag + root.real)
    rows = np.concatenate(
        [_complex(qr, qi)[..., ::-1], constant[..., None], _complex(pr, pi)], axis=-1
    )
    return range(-m, m + 1), rows, np.ones(len(normals), bool)


def _three_term_rows(normals: np.ndarray):
    """``random_three_term_pair``'s round builder: factor coefficients over
    the exponents -1, 0, 1.

    Each factor takes 4 normals, (re, im) of a_m1 then of a_1; its constant
    is ``_three_term_constant(a_m1, a_1)`` on Python complex numbers, the
    expression of ``families._three_term_factor``.  An attempt with a
    coefficient equal to 0 makes no pair.
    """
    v = normals.reshape(len(normals), 2, 2, 2)  # (attempt, factor, a_m1 / a_1, re / im)
    a_m1, a_1 = _complex(v[..., 0, 0], v[..., 0, 1]), _complex(v[..., 1, 0], v[..., 1, 1])
    root = np.array(
        list(map(_three_term_constant, a_m1.ravel().tolist(), a_1.ravel().tolist())), complex
    ).reshape(a_m1.shape)
    rows = np.stack([a_m1, root, a_1], axis=-1)
    drawn = ~(v == 0.0).all(axis=-1).any(axis=(1, 2))
    return range(-1, 2), rows, drawn


def random_even_vertical_flux(
    rng: np.random.Generator, max_exponent: int = 2, size: int | None = None
) -> WeierstrassData | list[WeierstrassData]:
    """Random even-parity data with vertical flux (``vertical_flux`` holds).

    Coefficients away from the constant term are standard complex normals;
    the constant term of each factor is then solved from the requirement that
    the factor's square has zero circle mean.  Draws that leave no admissible
    annulus are rejected and retried.  Only the flux half of the period check
    holds: the z^0 coefficient of psi3 (the vertical dz residue) is complex in
    general, so ``well_defined`` is false, and the height and every
    height-based measure raise MultivaluedDataError on the draws.  The
    closed-form length measures need no height.

    ``size=None`` returns one data set and ``size=n`` a list of n, drawn in
    rounds (``_draw``) with the bits and the stream of n single draws; every
    round is period-checked, and a draw that fails ``vertical_flux`` is
    rejected like an inadmissible one.  ``max_exponent`` is at most 1023
    (whose span fits MAX_DENSE_WIDTH), else DomainError before ``rng`` is
    drawn from.
    """
    m = _count(max_exponent, "max_exponent", 1)
    lo, width = _dense_span(-m, m)
    if width > MAX_DENSE_WIDTH:
        raise DomainError(
            f"max_exponent {m} spans z^{lo} to z^{m}, a dense width of {width} "
            f"above the limit {MAX_DENSE_WIDTH}"
        )
    return _draw(
        rng, size, 8 * m, lambda normals: _vertical_flux_rows(normals, m), "random data"
    )


def random_three_term_pair(
    rng: np.random.Generator, size: int | None = None
) -> WeierstrassData | list[WeierstrassData]:
    """Random winding-zero data with factor exponents in {-1, 0, 1}.

    Each factor's constant term is solved from the others (as in
    ``families._three_term_factor``), so its square has zero circle mean
    and the draws have vertical flux by construction; as for
    ``random_even_vertical_flux``, psi3's residue is complex in general and
    ``well_defined`` is false.

    ``size=None`` returns one data set and ``size=n`` a list of n, drawn in
    rounds (``_draw``) with the bits and the stream of n single draws; every
    round is period-checked, so ``vertical_flux`` is tested on each draw, not
    assumed.
    """
    return _draw(rng, size, 8, _three_term_rows, "three-term data")


# -- report-producing operations ------------------------------------------------


def compare_lengths(
    sigma: WeierstrassData,
    cat: CatenoidParams,
    slab: Slab,
    grid: int = 33,
    expect: str = "below",
    n_theta: int = 512,
) -> MeasureReport:
    """Traced level lengths of sigma against the catenoid closed form.

    ``expect`` is "below" when the surface's levels should be shorter than
    the catenoid's and "above" for the reverse claim.  The circle-route
    margin (closed-form circle lengths compared under the t = (2pi/F3)h
    substitution) is reported alongside the traced margins.
    """
    sign = _expect_sign(expect)
    heights = _length_heights(sigma, cat, slab, grid)
    waist, *curves = trace_levels(sigma, [cat.center, *heights], n_theta)
    return _compare_lengths(sigma, cat, waist.length, curves, sign)


def _expect_sign(expect: str) -> float:
    """+1 for "below" (the surface's quantity below the catenoid's), -1 for "above"."""
    if expect not in ("below", "above"):
        raise PreconditionError(f"expect must be 'below' or 'above', got {expect!r}")
    return 1.0 if expect == "below" else -1.0


def _length_heights(
    sigma: WeierstrassData, cat: CatenoidParams, slab: Slab, grid: int
) -> list[float]:
    """compare_lengths' preconditions, then its ``grid`` slab heights
    without those at the catenoid's waist."""
    grid = _count(grid, "grid", 1)
    if not symmetry_check(sigma):
        raise PreconditionError("length comparison requires reflection-symmetric data")
    f3 = flux(sigma).f3
    if abs(cat.f3 - f3) > FLUX_MATCH_TOL * f3:
        raise PreconditionError(
            f"catenoid flux {cat.f3!r} does not match the surface flux {f3!r}"
        )
    heights = np.linspace(slab.h_minus, slab.h_plus, grid)
    # At the waist the two lengths agree, so strictness is only meaningful
    # away from it; the skip width absorbs the tolerance of a numerically
    # located waist height.
    skip = 1e-6 * max(slab.h_plus - slab.h_minus, 1.0)
    kept = [h for h in heights if abs(h - cat.center) > skip]
    if not kept:
        raise PreconditionError("height grid contains no nonzero heights")
    return kept


def _compare_lengths(
    sigma: WeierstrassData, cat: CatenoidParams, waist_len: float, curves, sign: float
) -> MeasureReport:
    """compare_lengths from the traced length at the catenoid's waist and
    the traced levels at its _length_heights."""
    f3 = flux(sigma).f3
    report = MeasureReport("compare_lengths")
    report.quantities["f3"] = f3
    report.quantities["cat_f3"] = cat.f3
    report.quantities["traced_waist_length"] = waist_len
    report.add_check("waist_equals_flux", WAIST_FLUX_TOL - abs(waist_len - f3) / f3)

    kept = [curve.h for curve in curves]
    l_cat = np.array([catenoid_level_length(cat, h) for h in kept])
    traced_margins = sign * (l_cat - [curve.length for curve in curves])
    radii = np.exp(TWO_PI / f3 * (np.array(kept) - cat.center))
    circle_margins = sign * (l_cat - circle_length(sigma, radii))
    report.quantities["traced_margin_min"] = float(traced_margins.min())
    report.quantities["traced_margin_max"] = float(traced_margins.max())
    report.quantities["circle_margin_min"] = float(circle_margins.min())
    report.add_check("traced_level_lengths", traced_margins.min())
    report.add_check("circle_route_lengths", circle_margins.min())
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
    sign = _expect_sign(expect)
    area_sigma = slab_area(sigma, slab, n_theta)
    return _compare_areas(cat, slab, area_sigma, sign, include_marginal=include_marginal)


def _compare_areas(
    cat: CatenoidParams, slab: Slab, area_sigma: float, sign: float, include_marginal=False
) -> MeasureReport:
    """compare_areas from the surface's slab area."""
    report = MeasureReport("compare_areas")
    area_cat = catenoid_area(cat, slab)
    margin = sign * (area_cat - area_sigma)
    report.quantities["area_sigma"] = area_sigma
    report.quantities["area_catenoid"] = area_cat
    report.quantities["area_margin"] = margin
    report.add_check("area_comparison", margin)
    if include_marginal:
        waist = marginally_stable_waist(slab)
        area_marg = catenoid_area(waist, slab)
        report.quantities["area_marginal_waist"] = area_marg
        report.quantities["marginal_f3"] = waist.f3
        report.add_check("area_above_marginal", area_sigma - area_marg)
    return report


def _traced_slab_area(sigma: WeierstrassData, slab: Slab, curves) -> float:
    """slab_area from traced levels among which are the slab's two ends."""
    ends = {curve.h: curve for curve in curves}
    lower, upper = ends[slab.h_minus], ends[slab.h_plus]
    return measures._slab_area(sigma, lower.theta, lower.r, upper.r)


def classify_levels(
    sigma: WeierstrassData,
    slab: Slab,
    n_levels: int = 9,
    expected_crossings: int | None = None,
    n_theta: int = 512,
) -> MeasureReport:
    """Self-intersection counts and traversal multiplicities per level."""
    n_levels = _count(n_levels, "n_levels", 1)
    report = MeasureReport("classify_levels")
    heights = np.linspace(slab.h_minus, slab.h_plus, n_levels)
    curves = trace_levels(sigma, heights, n_theta)
    counts = [curve.self_intersections for curve in curves]
    multiplicities = [curve.multiplicity for curve in curves]
    report.quantities["levels"] = float(n_levels)
    report.quantities["crossings_min"] = float(min(counts))
    report.quantities["crossings_max"] = float(max(counts))
    report.quantities["multiplicity_max"] = float(max(multiplicities))
    if max(multiplicities) > 1:
        # Multiply traversed levels (the data's rotation order): every point
        # is covered more than once, so the transversal count is taken on
        # one traversal and flagged here.
        report.quantities["degenerate_cover"] = 1.0
    if expected_crossings is not None:
        worst = max(abs(c - expected_crossings) for c in counts)
        report.add_check("expected_crossings", 0.5 - worst)
    return report


# -- scenario catalog ------------------------------------------------------------


def _winding_check(report: MeasureReport, data: WeierstrassData, expected: int):
    k = winding_class(data)
    report.quantities["winding_class"] = float(k)
    report.add_check("winding_class", 0.5 - abs(k - expected))


def _period_checks(report: MeasureReport, data: WeierstrassData) -> bool:
    verdict = period_check(data)
    residual = max(abs(r) for r in verdict.residues[:2])
    report.quantities["horizontal_residual"] = residual
    report.add_check("well_defined", verdict.well_defined_slack)
    report.add_check("vertical_flux", verdict.flux_slack)
    return verdict.well_defined


_PERTURBED = {"c1": 1.0 + 0.0j, "eps1": 0.05 + 0.0j, "margin": DEFAULT_MARGIN}
_FIGURE_EIGHT = {"a_m1": 1.0 + 0.0j, "a_1": 1.0 + 0.0j, "margin": DEFAULT_MARGIN}

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
    """The family instance that a scenario's parameters describe; a family
    param the scenario does not list takes its spec default."""
    entry = FAMILIES[family]
    args = {key: params.get(key, default) for key, default in entry.params.items()}
    return entry.symmetric(**args, margin=params["margin"])


def _thin_slab(data: WeierstrassData, params: dict) -> Slab:
    return clip_to_slab(data, Slab.symmetric(params["slab_half"]))


def _three_term_residual(stack, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """Per data set of ``stack``: the defect (|c-|^2 + |c+|^2)/pi of
    L'' = 4L - defect, c = 2 pi times a factor's constant coefficient, and
    the worst relative residual of that identity over the profile radii."""
    defect = np.array([
        (abs(TWO_PI * data.g_minus.coefficient(0)) ** 2
         + abs(TWO_PI * data.g_plus.coefficient(0)) ** 2) / math.pi
        for data in stack
    ])
    _, length, dd = _profile_lengths(stack, grid)
    return defect, np.max(np.abs(dd - (4.0 * length - defect[:, None])) / length, axis=1)


def _ensemble_chunks(count: int):
    """Sizes of the consecutive draws of a ``count``-set ensemble, at most
    ENSEMBLE_CHUNK each; the stream, and so every bit, does not depend on it."""
    return (min(ENSEMBLE_CHUNK, count - start) for start in range(0, count, ENSEMBLE_CHUNK))


@_scenario({"seed": DEFAULT_SEED, "count": 100, "max_exponent": 2, "grid": 24})
def _lemma_3_1(report: MeasureReport, data, params: dict, n_theta: int):
    """strict lower convexity bound on random even vertical-flux data"""
    rng = np.random.default_rng(params["seed"])
    count = params["count"]
    worst = math.inf
    for size in _ensemble_chunks(count):
        samples = random_even_vertical_flux(rng, params["max_exponent"], size=size)
        _, length, dd = _profile_lengths(samples, params["grid"])
        worst = min(worst, float(np.min(dd - 2.0 * length)))
    report.quantities["datasets"] = float(count)
    report.quantities["min_defect"] = worst
    report.add_check("dd_above_2L", worst)


@_scenario({"seed": DEFAULT_SEED, "count": 20, "grid": 24})
def _lemma_3_4_identity(report: MeasureReport, data, params: dict, n_theta: int):
    """three-term factors satisfy the exact winding-zero identity"""
    rng = np.random.default_rng(params["seed"])
    count = params["count"]
    worst = 0.0
    for size in _ensemble_chunks(count):
        _, residual = _three_term_residual(random_three_term_pair(rng, size=size), params["grid"])
        worst = max(worst, float(np.max(residual)))
    report.quantities["datasets"] = float(count)
    report.quantities["max_relative_residual"] = worst
    report.add_check("identity", IDENTITY_TOL - worst)


@_scenario(_PERTURBED, "perturbed_two_cover")
def _theorem_3_5(report: MeasureReport, data, params: dict, n_theta: int):
    """perturbed double cover: constant negative upper-convexity defect"""
    _winding_check(report, data, 2)
    eps1 = complex(data.g_minus.coefficient(0))
    eps2 = complex(data.g_plus.coefficient(0))
    expected = -4.0 * math.pi * (abs(eps1) ** 2 + abs(eps2) ** 2)
    _, (length,), (dd,) = _profile_lengths((data,), 50)
    defect = dd - 4.0 * length
    worst_residual = float(np.max(np.abs(defect - expected) / length))
    worst_defect = float(np.max(defect))
    report.quantities["computed_defect"] = expected
    # Two alternate -8 pi |eps|^2 normalizations reported for comparison; the
    # mean-square one always equals the computed defect.
    report.quantities["minus_8pi_mean_square"] = -8.0 * math.pi * (
        (abs(eps1) ** 2 + abs(eps2) ** 2) / 2.0
    )
    report.quantities["minus_8pi_eps1_square"] = -8.0 * math.pi * abs(eps1) ** 2
    report.quantities["max_relative_residual"] = worst_residual
    report.quantities["max_defect"] = worst_defect
    report.add_check("dd_defect_identity", IDENTITY_TOL - worst_residual)
    report.add_check("dd_below_4L", -worst_defect)


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
        dev = _symmetry_deviation(data, params["grid"])
        report.quantities[f"{label}_reflection_deviation"] = dev
        report.add_check(f"{label}_reflection", SYMMETRY_GRID_TOL - dev)
        fl = flux(data)
        horiz = max(abs(fl.f1), abs(fl.f2))
        report.quantities[f"{label}_f3"] = fl.f3
        report.quantities[f"{label}_horizontal_flux"] = horiz
        report.add_check(f"{label}_horizontal_flux", HORIZONTAL_FLUX_TOL * fl.f3 - horiz)
        report.add_check(f"{label}_coefficient_symmetry", symmetry_margin(data))


@_scenario({**_PERTURBED, "slab_half": 0.2, "grid": 33}, "perturbed_two_cover")
def _prop_3_7(report: MeasureReport, data, params: dict, n_theta: int):
    """perturbed double cover levels against the matched doubled catenoid"""
    cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=2)
    slab = _thin_slab(data, params)
    report.merge(
        compare_lengths(data, cat, slab, params["grid"], expect="below", n_theta=n_theta)
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
    report.add_check("control_margin_collapses", IDENTITY_TOL - rel)


@_scenario({**_FIGURE_EIGHT, "slab_half": 0.25, "grid": 50, "levels": 9}, "figure_eight")
def _theorem_4_1(report: MeasureReport, data, params: dict, n_theta: int):
    """figure-eight convexity band and single self-crossing per level"""
    _winding_check(report, data, 0)
    _, (length,), (dd,) = _profile_lengths((data,), params["grid"])
    above_2l = float(np.min(dd - 2.0 * length))
    below_4l = float(np.max(dd - 4.0 * length))
    report.quantities["dd_minus_2L_min"] = above_2l
    report.quantities["dd_minus_4L_max"] = below_4l
    report.add_check("dd_above_2L", above_2l)
    report.add_check("dd_below_4L", -below_4l)
    levels = classify_levels(
        data, _thin_slab(data, params), params["levels"],
        expected_crossings=1, n_theta=n_theta,
    )
    report.merge(levels, quantities=("crossings_min", "crossings_max"))


@_scenario({**_FIGURE_EIGHT, "fd_step": 0.01}, "figure_eight")
def _corollary_4_2(report: MeasureReport, data, params: dict, n_theta: int):
    """winding-zero second-derivative identity, closed form and traced"""
    f3 = flux(data).f3
    rate = TWO_PI / f3
    (defect,), (worst,) = _three_term_residual((data,), 50)
    defect, worst = float(defect), float(worst)
    report.quantities["identity_defect"] = defect
    report.quantities["max_relative_residual"] = worst
    report.add_check("identity_closed_form", IDENTITY_TOL - worst)

    # Traced-level consistency runs on the flux-matched 2-fold cover, the
    # case where levels coincide with circles and the h to t conversion is
    # exact; the figure-eight numbers are reported next to it without a
    # verdict because its circles are not levels and the two readings differ
    # structurally off the waist.
    cover, cat = catenoid_cover(2, f3)
    step = params["fd_step"]
    centers = np.array([0.0, 0.1, -0.15])
    stencils = [h + k * step for h in centers for k in (-1, 0, 1)]
    vals = np.array([curve.length for curve in trace_levels(cover, stencils, n_theta)])
    fd = (vals[0::3] - 2.0 * vals[1::3] + vals[2::3]) / step**2
    closed = rate**2 * circle_length_dd(cover, np.exp(rate * centers))
    worst_cover = float(np.max(np.abs(fd - closed) / np.abs(closed)))
    report.quantities["cover_fd_relative_error"] = worst_cover
    report.add_check("traced_fd_consistency_cover", FD_CONSISTENCY_TOL - worst_cover)

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
    # The length grid, slab ends included; waist_height traces what it lacks.
    grid = np.linspace(slab.h_minus, slab.h_plus, params["grid"])
    traced = {curve.h: curve for curve in trace_levels(data, grid, n_theta)}
    h0, waist_len = waist_height(
        data, slab, n_theta, _lengths={h: curve.length for h, curve in traced.items()}
    )
    report.quantities["waist_height"] = h0
    report.quantities["waist_length"] = waist_len

    # The sign -1.0 claims the surface's lengths and area above the catenoid's.
    cat = CatenoidParams(f3=flux(data).f3, center=h0, cover=1)
    curves = [traced[h] for h in _length_heights(data, cat, slab, params["grid"])]
    report.merge(
        _compare_lengths(data, cat, waist_len, curves, -1.0),
        quantities={"traced_margin_min": "length_margin_min"},
        verdicts=("traced_level_lengths",),
    )
    report.merge(
        _compare_areas(
            cat, slab, _traced_slab_area(data, slab, traced.values()), -1.0,
            include_marginal=True,
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
    report.add_check("marginal_ratio_oracle", 1e-6 - abs(ustar - 1.1996786402577338))


@_scenario({**_FIGURE_EIGHT, "slab_half": 0.25, "grid": 33}, "figure_eight")
def _step_two(report: MeasureReport, data, params: dict, n_theta: int):
    """figure-eight levels and area below the matched doubled catenoid"""
    slab = _thin_slab(data, params)
    cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=2)
    heights = _length_heights(data, cat, slab, params["grid"])
    waist, *curves = trace_levels(data, [cat.center, *heights], n_theta)
    # The sign 1.0 claims the surface's lengths and area below the catenoid's.
    report.merge(_compare_lengths(data, cat, waist.length, curves, 1.0))
    report.merge(
        _compare_areas(cat, slab, _traced_slab_area(data, slab, curves), 1.0),
        quantities=("area_sigma", "area_catenoid"),
        verdicts={"area_comparison": "area_below_cover"},
    )


@_scenario({**_FIGURE_EIGHT, "r_min": 1e-3, "r_max": 1e3})
def _total_curvature_8pi(report: MeasureReport, data, params: dict, n_theta: int):
    """total curvature of the extended figure-eight surface"""
    if data is None:
        data = _build("figure_eight", params)
    wide = AnnulusWindow(params["r_min"], params["r_max"])
    tc = total_curvature(data, window=wide, n_theta=n_theta)
    target = -8.0 * math.pi
    rel = abs(tc - target) / abs(target)
    report.quantities["total_curvature"] = tc
    report.quantities["relative_error"] = rel
    report.add_check("figure_eight_8pi", 0.02 - rel)

    control, _ = catenoid_cover(1, TWO_PI)
    ctrl_window = AnnulusWindow(math.exp(-8.0), math.exp(8.0))
    tc_ctrl = total_curvature(control, window=ctrl_window, n_theta=n_theta)
    rel_ctrl = abs(tc_ctrl + 4.0 * math.pi) / (4.0 * math.pi)
    report.quantities["catenoid_total_curvature"] = tc_ctrl
    report.quantities["catenoid_relative_error"] = rel_ctrl
    report.add_check("catenoid_4pi", 0.001 - rel_ctrl)


def _typed(name: str, key: str, value, kind: type):
    """``value`` as ``kind``: int (which takes an integral float), float or
    complex, but never a bool.  An int must be at least 1 (a seed at least
    0, a grid at least 2, the fewest points that span a window or a slab),
    and fd_step must be positive."""
    refused = PreconditionError(f"{name} parameter {key} needs {kind.__name__}, got {value!r}")
    if isinstance(value, bool):
        raise refused
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    try:
        value = operator.index(value) if kind is int else kind(value)
    except (TypeError, ValueError):
        raise refused from None
    lowest = {"seed": 0, "grid": 2}.get(key, 1)
    if kind is int and value < lowest:
        raise PreconditionError(f"{name} parameter {key} must be at least {lowest}, got {value}")
    if key == "fd_step" and not value > 0.0:
        raise PreconditionError(f"{name} parameter {key} must be positive, got {value!r}")
    return value


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
    n_theta = measures._node_count(n_theta)
    scenario = SCENARIOS[name]
    params = dict(scenario.defaults)
    overrides = dict(overrides or {})
    unknown = set(overrides) - set(params)
    if unknown:
        raise PreconditionError(f"unknown parameters for {name}: {sorted(unknown)}")
    if data is not None:
        if "seed" in params:
            raise PreconditionError("scenario draws its own random ensemble")
        ignored = set(overrides) & _DATA_IGNORES
        if ignored:
            raise PreconditionError(
                f"{name} runs on the given data and would ignore {sorted(ignored)}"
            )
    # Overrides take their default's type.
    params.update(
        (key, _typed(name, key, value, type(params[key]))) for key, value in overrides.items()
    )
    provenance = _provenance(name, params, n_theta, data)
    report = MeasureReport(name)
    try:
        if scenario.family is not None and data is None:
            data = _build(scenario.family, params)
        if scenario.family is None or _period_checks(report, data):
            scenario.measure(report, data, params, n_theta)
    except InadmissibleParametersError as exc:
        report = MeasureReport(name)
        report.add_check("constructible", -math.inf)
        provenance["error"] = str(exc)
    report.provenance = provenance
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

    Verdicts whose margin changed sign since the previous value are flagged
    so the output maps where an inequality stops holding.  A complex value
    is echoed as [re, im].
    """
    rows = []
    previous = {}
    for value in values:
        ov = dict(overrides or {})
        ov[param] = value
        report = run_scenario(name, ov, n_theta, data)
        passed = {k: v.passed for k, v in report.verdicts.items()}
        flipped = sorted(k for k, p in passed.items() if previous.get(k, p) != p)
        rows.append(
            {
                "param": param,
                "value": [value.real, value.imag] if isinstance(value, complex) else float(value),
                "all_pass": report.all_pass,
                "margins": {k: v.margin for k, v in sorted(report.verdicts.items())},
                "sign_changes": flipped,
            }
        )
        previous = passed
    return rows
