"""Acceptance gate: twelve binding criteria with pinned tolerances.

Each test prints exactly one ``C<n> PASS|FAIL ...`` line before asserting,
so the gate's status reads straight off the pytest log.

C5's perturbed half and C6 check the perturbed double cover (c1 = 1, real
eps1) against laws derived for it.  The circle route obeys the convexity
identity L'' - 4L = -D exactly, D = 4 pi (|eps1|^2 + |eps2|^2), so with
t = 2 pi h / f3 the doubled catenoid's circle margin is exactly
(D/4)(cosh 2t - 1) > 0.  Parameter circles are not levels of this surface,
though, since psi3 = G- G+ is not constant, and the convexity argument does
not reach the traced levels.  Solving x3 = h to second order in eps gives
the level t(theta) = h - 2 eps sinh h cos(theta) + O(eps^2); integrating
mu sqrt(1 + t_theta^2) with mu = (|G-|^2 + |G+|^2)/2 gives

    L_cat(h) - L(h) = -18 pi eps^2 sinh^2 h cosh 2h + O(eps^4),

and the exact radial antiderivative of mu^2 over the slab [-H, H] gives

    A_cat - A_slab = -24 pi eps^2 sinh^3 H cosh 3H + O(eps^4).

Both traced margins are therefore negative: the levels are longer and the
slab area larger than the doubled catenoid's.  The tests check the measured
margins against these closed forms, with the O(eps^4) remainder confirmed
by halving eps, and check the coarea bound A_slab >= int L(h)^2 / f3 dh,
which carries the length comparison over to the area.
"""

import math

import numpy as np
import pytest

from minann import (
    SCENARIOS,
    CatenoidParams,
    Slab,
    catenoid_cover,
    catenoid_level_length,
    circle_length,
    circle_length_dd,
    clip_to_slab,
    figure_eight,
    flux,
    gauss_winding,
    perturbed_two_cover,
    profile_radii,
    run_scenario,
    slab_area,
    trace_level,
    trapezoid_circle,
)
from minann.laurent import TWO_PI, LaurentPoly

from fd_oracle import circle_l2, circle_length_dd_fd

SEED = 20260814

# The perturbed-cover scenarios and the trace resolution of their reports.
PERTURBED = SCENARIOS["prop_3_7"].defaults
EPS = PERTURBED["eps1"].real
SLAB_HALF = PERTURBED["slab_half"]
TRACE_NODES = 512
# Halving eps must shrink the relative discrepancy from an O(eps^2) closed
# form by 4, the signature of an O(eps^4) remainder.
ORDER_RATIO_RANGE = (3.6, 4.4)
# Largest relative discrepancy from an O(eps^2) closed form, in units of
# eps^2, that the O(eps^4) remainder may leave on these slabs.
REMAINDER_BOUND = 8.0


def _traced_length_defect(eps: float, h: float) -> float:
    """Leading-order L_cat(h) - L(h) for the perturbed cover (c1 = 1)."""
    return -18.0 * math.pi * eps**2 * math.sinh(h) ** 2 * math.cosh(2.0 * h)


def _area_defect(eps: float, half: float) -> float:
    """Leading-order A_cat - A_slab on the slab [-half, half] (c1 = 1)."""
    return -24.0 * math.pi * eps**2 * math.sinh(half) ** 3 * math.cosh(3.0 * half)


def _perturbed_instance(eps: float):
    data = perturbed_two_cover(PERTURBED["c1"], eps, margin=PERTURBED["margin"])
    f3 = flux(data).f3
    slab = clip_to_slab(data, Slab(-SLAB_HALF, SLAB_HALF))
    return data, slab, CatenoidParams(f3=f3, center=0.0, cover=2)


def _traced_margin(data, cat: CatenoidParams, h: float) -> float:
    return catenoid_level_length(cat, h) - trace_level(data, h, TRACE_NODES).length


def _relative_gap(measured: float, closed: float) -> float:
    return (measured - closed) / closed


def _coarea_integral(data, slab: Slab, f3: float, n: int) -> float:
    """Gauss-Legendre value of the integral of L(h)^2 / f3 over the slab."""
    x, w = np.polynomial.legendre.leggauss(n)
    heights = slab.center + slab.half_width * x
    lengths = np.array([trace_level(data, h, TRACE_NODES).length for h in heights])
    return slab.half_width * float(w @ lengths**2) / f3


@pytest.fixture(scope="module")
def reports():
    names = (
        "lemma_3_1",
        "lemma_3_4_identity",
        "theorem_3_5",
        "prop_3_6_symmetry",
        "prop_3_7",
        "theorem_3_8",
        "theorem_4_1",
        "theorem_4_3",
        "step_two",
        "total_curvature_8pi",
    )
    return {name: run_scenario(name) for name in names}


def _emit(n: int, ok: bool, detail: str) -> None:
    print(f"\nC{n} {'PASS' if ok else 'FAIL'} {detail}")


def test_c01_parseval_quadrature():
    """circle_l2 equals 4096-node trapezoid quadrature, 20 random polys, ≤1e-10."""
    rng = np.random.default_rng(SEED)
    thetas = TWO_PI * np.arange(4096) / 4096
    worst = 0.0
    for _ in range(20):
        exponents = rng.choice(np.arange(-4, 5), size=5, replace=False)
        coeffs = {
            int(n): complex(*rng.standard_normal(2)) for n in exponents
        }
        poly = LaurentPoly(coeffs)
        r = float(rng.uniform(0.5, 2.0))
        z = r * np.exp(1j * thetas)
        quad = float(np.mean(np.abs(poly(z)) ** 2)) * TWO_PI
        closed = circle_l2(poly, r)
        worst = max(worst, abs(quad - closed) / closed)
    ok = worst <= 1e-10
    _emit(1, ok, f"parseval max_rel={worst:.3e} (tol 1e-10)")
    assert ok


def test_c02_cover_growth_law():
    """|L'' - k^2 L|/L ≤ 1e-8 on 50-point t-grids for k in {1,2,3}."""
    from minann import circle_length

    worst = 0.0
    for k in (1, 2, 3):
        data, _ = catenoid_cover(k, 5.0)
        for r in profile_radii(data.window, 50, inset=1e-3):
            length = circle_length(data, float(r))
            dd = circle_length_dd(data, float(r))
            worst = max(worst, abs(dd - k * k * length) / length)
    ok = worst <= 1e-8
    _emit(2, ok, f"cover law max_rel={worst:.3e} (tol 1e-8)")
    assert ok


def test_c03_strict_convexity_and_identity(reports):
    """100 random vertical-flux datasets keep L'' > 2L; the three-term
    control satisfies L'' = 4L - (1/pi)(|c-|^2+|c+|^2) to 1e-8 relative."""
    floor = reports["lemma_3_1"].verdicts["dd_above_2L"]
    identity = reports["lemma_3_4_identity"].quantities["max_relative_residual"]
    ok = floor.passed and identity <= 1e-8
    _emit(3, ok, f"min defect={floor.margin:.3e} (>0), identity rel={identity:.3e} (tol 1e-8)")
    assert ok


def test_c04_perturbed_cover_defect(reports):
    """Perturbed 2-cover (c1=1, eps1=0.05): L''-4L is the constant
    -4pi(|eps1|^2+|eps2|^2) to 1e-8 relative, so L''<4L; winding is 2."""
    report = reports["theorem_3_5"]
    identity = report.verdicts["dd_defect_identity"]
    below = report.verdicts["dd_below_4L"]
    data = perturbed_two_cover(1.0, 0.05)
    winding = gauss_winding(data, data.window.geometric_mean)
    q = report.quantities
    reported_alongside = "minus_8pi_eps1_square" in q and "minus_8pi_mean_square" in q
    ok = identity.passed and below.passed and winding == 2 and reported_alongside
    _emit(
        4,
        ok,
        f"defect={q['computed_defect']:.6e} rel_resid={1e-8 - identity.margin:.3e} "
        f"(tol 1e-8), -8pi|eps1|^2={q['minus_8pi_eps1_square']:.6e}, winding={winding}",
    )
    assert ok


def test_c05_thin_slab_level_lengths(reports):
    """Matched flux, clipped thin slab, 33-point height grid.

    Figure-eight: the waist length equals the flux to 1e-6 relative, and at
    every nonzero grid height the level is shorter than the doubled
    catenoid's.  Perturbed cover: the same waist check; the circle-route
    margin equals its exact value (D/4)(cosh 2t - 1) > 0 to 1e-12 at every
    nonzero grid height; the traced margins follow -18 pi eps^2 sinh^2 h
    cosh 2h to within REMAINDER_BOUND * eps^2 relative, and at the grid ends
    that discrepancy shrinks fourfold when eps halves.
    """
    fig8 = reports["step_two"]
    fig8_waist = fig8.verdicts["waist_equals_flux"]
    fig8_traced = fig8.verdicts["traced_level_lengths"]

    pert = reports["prop_3_7"]
    data, slab, cat = _perturbed_instance(EPS)
    eps1 = data.g_minus.coefficient(0)
    eps2 = data.g_plus.coefficient(0)
    defect = 4.0 * math.pi * (abs(eps1) ** 2 + abs(eps2) ** 2)
    heights = np.linspace(slab.h_minus, slab.h_plus, PERTURBED["grid"])
    heights = heights[np.abs(heights) > 1e-9]
    circle = []
    circle_exact = []
    traced = []
    for h in heights:
        t = TWO_PI * h / cat.f3
        circle.append(catenoid_level_length(cat, h) - circle_length(data, math.exp(t)))
        circle_exact.append(0.25 * defect * (math.cosh(2.0 * t) - 1.0))
        traced.append(_traced_margin(data, cat, h))
    circle_err = float(np.max(np.abs(np.subtract(circle, circle_exact))))
    closed = np.array([_traced_length_defect(EPS, h) for h in heights])
    gaps = _relative_gap(np.array(traced), closed)
    worst_gap = float(np.max(np.abs(gaps)))

    half_data, _, half_cat = _perturbed_instance(EPS / 2)
    ends = (int(np.argmin(np.where(heights > 0, heights, np.inf))), int(np.argmax(heights)))
    ratios = []
    for i in ends:
        h = heights[i]
        half_gap = _relative_gap(
            _traced_margin(half_data, half_cat, h), _traced_length_defect(EPS / 2, h)
        )
        ratios.append(gaps[i] / half_gap)

    pert_waist = pert.verdicts["waist_equals_flux"]
    report_circle = pert.verdicts["circle_route_lengths"]
    report_traced = pert.verdicts["traced_level_lengths"]
    checks = {
        "figure-eight waist": fig8_waist.passed,
        "figure-eight traced lengths below": fig8_traced.passed,
        "perturbed waist": pert_waist.passed,
        "circle route below": report_circle.passed and min(circle) > 0.0,
        "circle margin exact": circle_err <= 1e-12,
        "report traces the checked levels": min(traced) == pytest.approx(
            report_traced.margin, rel=1e-12
        ),
        "traced margin law": worst_gap <= REMAINDER_BOUND * EPS**2,
        "O(eps^4) remainder": all(
            ORDER_RATIO_RANGE[0] <= r <= ORDER_RATIO_RANGE[1] for r in ratios
        ),
    }
    ok = all(checks.values())
    _emit(
        5,
        ok,
        f"figure-eight: traced_min={fig8_traced.margin:+.3e} waist_ok={fig8_waist.passed}; "
        f"perturbed: waist_ok={pert_waist.passed}, "
        f"traced min={min(traced):+.4e} vs closed {closed[np.argmin(traced)]:+.4e} "
        f"(worst rel gap {worst_gap / EPS**2:.2f} eps^2, tol {REMAINDER_BOUND:g} eps^2; "
        f"gap ratio eps/(eps/2) {ratios[0]:.2f} at h={heights[ends[0]]:g}, "
        f"{ratios[1]:.2f} at h={heights[ends[1]]:g}), "
        f"circle min={min(circle):+.3e} vs exact {min(circle_exact):+.3e} "
        f"(max err {circle_err:.1e}, tol 1e-12)",
    )
    failed = [name for name, passed in checks.items() if not passed]
    assert ok, f"C5 checks failed: {failed}"


def test_c06_perturbed_area_comparison(reports):
    """Perturbed-cover slab area against the doubled catenoid's.

    The eps -> 0 control collapses below 1e-8 relative.  The area margin
    A_cat - A_slab follows -24 pi eps^2 sinh^3 H cosh 3H to within
    REMAINDER_BOUND * eps^2 relative, and the discrepancy shrinks fourfold
    when eps halves.  The coarea bound int L(h)^2 / f3 dh (Cauchy-Schwarz on
    each level, equality only where |grad x3| is constant on levels) lies
    strictly between A_cat and A_slab, each gap above 100 times its
    quadrature error estimate.
    """
    report = reports["theorem_3_8"]
    control = report.verdicts["control_margin_collapses"]
    q = report.quantities
    data, slab, cat = _perturbed_instance(EPS)
    half = slab.half_width

    closed = _area_defect(EPS, half)
    half_margin = run_scenario("theorem_3_8", {"eps1": EPS / 2}).quantities["area_margin"]
    gap = _relative_gap(q["area_margin"], closed)
    ratio = gap / _relative_gap(half_margin, _area_defect(EPS / 2, half))

    # Error estimates compare against half the nodes, floored at rounding.
    bound = _coarea_integral(data, slab, cat.f3, 12)
    bound_err = max(abs(bound - _coarea_integral(data, slab, cat.f3, 6)), 1e-14 * bound)
    area = q["area_sigma"]
    area_err = max(abs(area - slab_area(data, slab, TRACE_NODES // 2)), 1e-14 * area)
    above_bound = area - bound
    bound_above_cat = bound - q["area_catenoid"]

    checks = {
        "eps->0 control": control.passed,
        "area margin law": abs(gap) <= REMAINDER_BOUND * EPS**2,
        "O(eps^4) remainder": ORDER_RATIO_RANGE[0] <= ratio <= ORDER_RATIO_RANGE[1],
        "area above coarea bound": above_bound > 100.0 * (area_err + bound_err),
        "coarea bound above catenoid": bound_above_cat > 100.0 * bound_err,
    }
    ok = all(checks.values())
    _emit(
        6,
        ok,
        f"area margin={q['area_margin']:+.4e} vs closed {closed:+.4e} "
        f"(rel gap {gap / EPS**2:.2f} eps^2, tol {REMAINDER_BOUND:g} eps^2; "
        f"gap ratio eps/(eps/2) {ratio:.2f}), "
        f"coarea: A-intL^2/f3={above_bound:.3e} (err {area_err + bound_err:.1e}), "
        f"intL^2/f3-A_cat={bound_above_cat:.3e} (err {bound_err:.1e}), "
        f"eps->0 control rel={q['control_relative_margin']:.3e} (tol 1e-8)",
    )
    failed = [name for name, passed in checks.items() if not passed]
    assert ok, f"C6 checks failed: {failed}"


def test_c07_figure_eight_band_and_crossings(reports):
    """Figure-eight: 2L < L'' < 4L on the window, exactly one planar
    self-intersection on every traced thin-slab level, winding 0."""
    report = reports["theorem_4_1"]
    above = report.verdicts["dd_above_2L"]
    below = report.verdicts["dd_below_4L"]
    crossings = report.verdicts["expected_crossings"]
    data = figure_eight(1.0, 1.0)
    winding = gauss_winding(data, data.window.geometric_mean)
    ok = above.passed and below.passed and crossings.passed and winding == 0
    _emit(
        7,
        ok,
        f"min(L''-2L)={above.margin:.3e}, max(L''-4L)={-below.margin:.3e}, "
        f"crossings={report.quantities['crossings_min']:.0f}..{report.quantities['crossings_max']:.0f}, "
        f"winding={winding}",
    )
    assert ok


def test_c08_figure_eight_beats_marginal(reports):
    """Figure-eight area above the marginally stable waist; the tangency
    ratio agrees with the bisection oracle to 1e-6; levels stay longer than
    the matched simple catenoid's off the waist."""
    report = reports["theorem_4_3"]
    marginal = report.verdicts["area_above_marginal"]
    ratio = report.quantities["marginal_ratio"]
    ratio_ok = abs(ratio - 1.1996786) <= 1e-6
    lengths = report.verdicts["traced_level_lengths"]
    ok = marginal.passed and ratio_ok and lengths.passed
    _emit(
        8,
        ok,
        f"area-marginal margin={marginal.margin:+.3e}, u*={ratio:.9f} "
        f"(|u*-1.1996786|={abs(ratio - 1.1996786):.2e}), length_min={lengths.margin:+.3e}",
    )
    assert ok


def test_c09_figure_eight_below_double_cover(reports):
    """Figure-eight slab area below the flux-matched doubled catenoid's on
    the thin symmetric slab."""
    area = reports["step_two"].verdicts["area_below_cover"]
    _emit(9, area.passed, f"area margin={area.margin:+.3e} (want >0)")
    assert area.passed


def test_c10_total_curvature(reports):
    """Total curvature within 2% of -8pi over [1e-3,1e3] for the
    figure-eight and within 0.1% of -4pi over [e^-8,e^8] for the catenoid."""
    q = reports["total_curvature_8pi"].quantities
    fig8_ok = q["relative_error"] <= 0.02
    cat_ok = q["catenoid_relative_error"] <= 0.001
    ok = fig8_ok and cat_ok
    _emit(
        10,
        ok,
        f"figure-eight rel={q['relative_error']:.3e} (tol 0.02), "
        f"catenoid rel={q['catenoid_relative_error']:.3e} (tol 0.001)",
    )
    assert ok


def test_c11_symmetry_and_horizontal_flux(reports):
    """Both families: reflection deviation ≤ 1e-9 on the grid and
    horizontal flux ≤ 1e-12 of the vertical flux."""
    report = reports["prop_3_6_symmetry"]
    q = report.quantities
    dev = max(q["perturbed_reflection_deviation"], q["figure_eight_reflection_deviation"])
    ratio = max(
        q["perturbed_horizontal_flux"] / q["perturbed_f3"],
        q["figure_eight_horizontal_flux"] / q["figure_eight_f3"],
    )
    ok = report.all_pass
    _emit(
        11,
        ok,
        f"max reflection dev={dev:.3e} (tol 1e-9), max |f_horiz|/f3={ratio:.3e} (tol 1e-12)",
    )
    assert ok


def test_c12_closed_form_vs_finite_difference():
    """Closed-form L'' against central differences (step 1e-3 in t) within
    1e-5 relative on every family instance."""
    instances = [catenoid_cover(k, 5.0)[0] for k in (1, 2, 3)]
    instances.append(perturbed_two_cover(1.0, 0.05))
    instances.append(figure_eight(1.0, 1.0))
    worst = 0.0
    for data in instances:
        for r in profile_radii(data.window, 8, inset=0.05):
            fd = circle_length_dd_fd(data, float(r), step=1e-3)
            closed = circle_length_dd(data, float(r))
            worst = max(worst, abs(fd - closed) / abs(closed))
    ok = worst <= 1e-5
    _emit(12, ok, f"dd fd-vs-closed max_rel={worst:.3e} (tol 1e-5)")
    assert ok
