"""Circle lengths, level curves, areas, curvature, catenoid references."""

import cmath
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minann import measures, weierstrass
from minann.errors import (
    ConvergenceError,
    DomainError,
    GeometryError,
    HeightRangeError,
    MultivaluedDataError,
    NonMonotoneRayError,
    NumericalError,
)
from minann.experiments import (
    SCENARIOS,
    classify_levels,
    compare_lengths,
    random_even_vertical_flux,
    random_three_term_pair,
    run_scenario,
)
from minann.families import (
    admissible_annulus,
    attained_height_range,
    catenoid_cover,
    clip_to_slab,
    figure_eight,
    perturbed_two_cover,
)
from minann.laurent import TWO_PI, AnnulusWindow, LaurentPoly, roots, trapezoid_circle
from minann.measures import (
    CatenoidParams,
    catenoid_area,
    catenoid_level_length,
    circle_length,
    circle_length_dd,
    level_radii,
    marginal_waist_ratio,
    marginally_stable_waist,
    planar_self_intersections,
    profile_radii,
    slab_area,
    total_curvature,
    trace_level,
    trace_levels,
    traversal_multiplicity,
    waist_height,
)
from minann.weierstrass import (
    Parity,
    Slab,
    _immersion,
    flux,
    from_g_pair,
    height,
    immerse,
    period_check,
    metric_lambda_samples,
    winding_class,
)

from crossing_oracle import crossings_reference, greedy_merge
from fd_oracle import circle_length_dd_fd
from golden_oracle import waist_height_sequential
from level_solve_oracle import level_radii_reference


class TestCircleLength:
    def test_catenoid_hand_formula(self):
        data, _ = catenoid_cover(1, TWO_PI)
        for r in (0.7, 1.0, 1.9):
            assert circle_length(data, r) == pytest.approx(
                math.pi * (r + 1.0 / r), rel=1e-13
            )

    def test_quadrature_and_closed_form_dd_agree(self):
        for data in (
            catenoid_cover(2, 7.0)[0],
            perturbed_two_cover(1.0, 0.05),
            figure_eight(1.0, 1.0),
        ):
            for r in profile_radii(data.window, 8, inset=0.05):
                fd = circle_length_dd_fd(data, float(r))
                closed = circle_length_dd(data, float(r))
                assert abs(fd - closed) <= 1e-5 * max(abs(closed), 1.0)

    def test_cover_growth_law(self):
        for k in (1, 2, 3):
            data, _ = catenoid_cover(k, 4.0)
            worst = 0.0
            for r in profile_radii(data.window, 50, inset=1e-3):
                l = circle_length(data, float(r))
                ldd = circle_length_dd(data, float(r))
                worst = max(worst, abs(ldd - k * k * l) / l)
            assert worst <= 1e-8

    def test_rejects_radius_outside_window(self):
        data, _ = catenoid_cover(1, TWO_PI)
        for r in (100.0, 0.0, -1.0):
            for fn in (circle_length, circle_length_dd):
                with pytest.raises(DomainError):
                    fn(data, r)

    def test_radius_arrays_match_scalar_calls(self):
        rng = np.random.default_rng(5)
        cases = [catenoid_cover(k, 4.0)[0] for k in (1, 2, 3)]
        cases += [perturbed_two_cover(1.0 + 0.5j, 0.1 - 0.05j), figure_eight(0.7 + 0.2j, 1.3)]
        cases += [random_even_vertical_flux(rng, 3) for _ in range(10)]
        for data in cases:
            radii = profile_radii(data.window, 64, inset=1e-3)
            for fn in (circle_length, circle_length_dd):
                array = fn(data, radii)
                scalar = np.array([fn(data, float(r)) for r in radii])
                assert array.shape == radii.shape
                assert np.array_equal(array, scalar)
            # the closed window is measured; beyond LEVEL_HEIGHT_TOL it is refused
            edge = radii.copy()
            edge[17] = data.window.r_outer
            outside = radii.copy()
            outside[17] = data.window.r_outer * (1.0 + 1e-6)
            for fn in (circle_length, circle_length_dd):
                assert np.all(np.isfinite(fn(data, edge)))
                with pytest.raises(DomainError):
                    fn(data, outside)

    def test_length_terms_run_over_g_minus_then_g_plus(self):
        g_minus = LaurentPoly({-1: 3.0, 0: 1j, 2: 2.0})
        g_plus = LaurentPoly({-2: 0.5, 1: 1 - 1j})
        window = admissible_annulus(g_minus, g_plus)
        even = from_g_pair(g_minus, g_plus, Parity.EVEN, window)
        odd = from_g_pair(g_minus, g_plus, Parity.ODD, window)
        weights = [9.0, 1.0, 4.0, 0.25, abs(1 - 1j) ** 2]
        assert list(measures._length_terms(even).items()) == list(
            zip([(0, -2), (0, 0), (0, 4), (1, -4), (1, 2)], weights)
        )
        assert list(measures._length_terms(odd).items()) == list(
            zip([(0, -1), (0, 1), (0, 5), (1, -3), (1, 3)], weights)
        )

    def test_stacked_rows_equal_one_set_calls(self):
        # Mixed parities and exponent sets, so some sets lack some columns.
        rng = np.random.default_rng(8)
        stack = [catenoid_cover(k, 4.0)[0] for k in (1, 2, 3)]
        stack += [perturbed_two_cover(1.0 + 0.5j, 0.1 - 0.05j), figure_eight(0.7 + 0.2j, 1.3)]
        stack += random_even_vertical_flux(rng, 3, size=4) + random_three_term_pair(rng, size=4)
        windows = [data.window for data in stack]
        radii = profile_radii(windows, 24, inset=1e-3)
        assert radii.shape == (len(stack), 24) and radii.flags.c_contiguous
        length, dd = measures._lengths(stack, radii)
        for i, data in enumerate(stack):
            row = profile_radii(data.window, 24, inset=1e-3)
            assert np.array_equal(radii[i], row)
            assert np.array_equal(length[i], circle_length(data, row))
            assert np.array_equal(dd[i], circle_length_dd(data, row))
        _, stacked_length, stacked_dd = measures._profile_lengths(stack, 24)
        assert np.array_equal(stacked_length, length) and np.array_equal(stacked_dd, dd)

    def test_missing_term_adds_zero_where_its_power_overflows(self):
        # r^-400 overflows on the second set's window, which lacks the term.
        tiny = from_g_pair(
            LaurentPoly({-200: 1e-30}), LaurentPoly({0: 1.0}), Parity.EVEN, AnnulusWindow(0.5, 2.0)
        )
        small = from_g_pair(
            LaurentPoly({0: 1.0}), LaurentPoly({1: 1.0}), Parity.EVEN, AnnulusWindow(1e-3, 2e-3)
        )
        radii = np.array([[0.7, 1.5], [1.2e-3, 1.8e-3]])
        length, dd = measures._lengths([tiny, small], radii)
        assert np.array_equal(length[1], circle_length(small, radii[1]))
        assert np.array_equal(dd[1], circle_length_dd(small, radii[1]))
        assert np.array_equal(length[0], circle_length(tiny, radii[0]))

    def test_stacked_radius_outside_its_window_is_refused(self):
        stack = [catenoid_cover(1, 4.0)[0], figure_eight(1.0, 1.0)]
        radii = profile_radii([data.window for data in stack], 8)
        radii[1, 3] = stack[1].window.r_outer * (1.0 + 1e-6)
        with pytest.raises(DomainError, match="outside the data window"):
            measures._lengths(stack, radii)

    def test_profile_grid_is_even_and_interior(self):
        w = AnnulusWindow(0.5, 2.0)
        radii = profile_radii(w, 24)
        assert len(radii) == 24
        assert radii[0] >= w.r_inner and radii[-1] <= w.r_outer
        center = w.geometric_mean
        assert all(abs(r - center) > 1e-6 for r in radii)

    @pytest.mark.parametrize("n_grid", [-1, 0, 1])
    def test_profile_needs_two_radii(self, n_grid):
        with pytest.raises(DomainError, match=f"n_grid must be an integer of at least 2, got {n_grid}$"):
            profile_radii(AnnulusWindow(0.5, 2.0), n_grid)

    def test_closed_form_matches_quadrature_oracle(self, monkeypatch):
        # Reference: 4096-node trapezoid rule on |f_minus| + |f_plus|, exact
        # up to round-off on these trigonometric polynomials.
        def quadrature_length(data, r, n=4096):
            z = r * np.exp(1j * TWO_PI * np.arange(n) / n)
            vals = np.abs(data.f_minus.evaluate(z)) + np.abs(data.f_plus.evaluate(z))
            return float(vals.mean()) * math.pi

        rng = np.random.default_rng(11)
        cases = [catenoid_cover(k, 4.0)[0] for k in (1, 2, 3)]
        cases += [perturbed_two_cover(1.0, 0.05), figure_eight(1.0, 1.0)]
        cases += [random_even_vertical_flux(rng) for _ in range(30)]
        cases += [random_three_term_pair(rng) for _ in range(30)]
        grid = [(d, float(r)) for d in cases for r in profile_radii(d.window, 16, inset=1e-3)]
        reference = [quadrature_length(d, r) for d, r in grid]

        def no_evaluation(self, z):
            raise AssertionError("circle lengths must not evaluate the data")

        monkeypatch.setattr(LaurentPoly, "evaluate", no_evaluation)
        monkeypatch.setattr(LaurentPoly, "__call__", no_evaluation)
        worst = max(abs(circle_length(d, r) - ref) / ref for (d, r), ref in zip(grid, reference))
        assert worst <= 1e-13
        assert all(math.isfinite(circle_length_dd(d, r)) for d, r in grid)

    def test_figure_eight_convexity_band(self):
        data = figure_eight(1.0, 1.0)
        assert winding_class(data) == 0
        radii = profile_radii(data.window, 16, inset=1e-3)
        length = circle_length(data, radii)
        dd = circle_length_dd(data, radii)
        assert np.all(dd - 2.0 * length > 0.0)
        assert np.all(dd - 4.0 * length < 0.0)


class TestLevels:
    def test_catenoid_level_radius_is_exponential(self):
        data, _ = catenoid_cover(1, TWO_PI)
        for h in (-0.3, 0.0, 0.41):
            assert level_radii(data, h, [1.1])[0] == pytest.approx(
                math.exp(h), rel=1e-10
            )

    def test_level_solve_roundtrip_random_points(self):
        data = figure_eight(1.0, 1.0)
        rng = np.random.default_rng(5)
        for _ in range(100):
            r = float(rng.uniform(0.6, 1.7))
            th = float(rng.uniform(0.0, TWO_PI))
            h = height(data, r * np.exp(1j * th))
            back = level_radii(data, h, [th])[0]
            assert abs(back - r) <= 1e-10 * r

    def test_catenoid_trace_matches_closed_form(self):
        data, params = catenoid_cover(1, TWO_PI)
        for h in (-0.5, 0.2):
            curve = trace_level(data, h, 2048)
            assert curve.length == pytest.approx(
                catenoid_level_length(params, h), rel=1e-10
            )
            assert curve.self_intersections == 0
            assert curve.multiplicity == 1

    def test_double_cover_reports_multiplicity(self):
        data, params = catenoid_cover(2, TWO_PI)
        curve = trace_level(data, 0.1, 1024)
        assert curve.multiplicity == 2
        assert curve.self_intersections == 0
        assert curve.length == pytest.approx(
            catenoid_level_length(params, 0.1), rel=1e-10
        )

    def test_figure_eight_levels_cross_once(self):
        data = figure_eight(1.0, 1.0)
        for h in (-0.2, 0.0, 0.15):
            curve = trace_level(data, h, 1024)
            assert curve.self_intersections == 1
            assert curve.multiplicity == 1

    def test_unattained_height_raises(self):
        data, _ = catenoid_cover(1, TWO_PI)
        with pytest.raises(HeightRangeError):
            trace_level(data, 50.0, 256)

    def test_length_never_below_flux(self):
        for data in (figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05)):
            f3 = flux(data).f3
            for h in (-0.2, -0.05, 0.1, 0.25):
                assert trace_level(data, h, 512).length >= f3 * (1.0 - 1e-12)


class TestAreas:
    def test_catenoid_slab_area_closed_form(self):
        data, params = catenoid_cover(1, TWO_PI)
        slab = Slab(-0.9, 0.9)
        expected = TWO_PI * 0.9 + math.pi * math.sinh(1.8)
        assert slab_area(data, slab) == pytest.approx(expected, rel=1e-10)
        assert catenoid_area(params, slab) == pytest.approx(expected, rel=1e-14)

    def test_area_against_tensor_quadrature(self):
        # Column-wise 256x256 tensor quadrature in (theta, log r) over the
        # clipped region, Simpson in the radial direction.
        for data in (catenoid_cover(1, TWO_PI)[0], figure_eight(1.0, 1.0)):
            lo, hi = attained_height_range(data)
            slab = Slab(0.55 * lo, 0.55 * hi)
            n = 256
            thetas = TWO_PI * np.arange(n) / n
            r_lo = level_radii(data, slab.h_minus, thetas)
            r_hi = level_radii(data, slab.h_plus, thetas)
            total = 0.0
            m = 257  # odd node count for Simpson
            for j in range(n):
                ts = np.linspace(math.log(r_lo[j]), math.log(r_hi[j]), m)
                z = np.exp(ts + 1j * thetas[j])
                integrand = metric_lambda_samples(data, z) ** 2 * np.exp(2.0 * ts)
                w = np.ones(m)
                w[1:-1:2] = 4.0
                w[2:-1:2] = 2.0
                step = (ts[-1] - ts[0]) / (m - 1)
                total += np.dot(w, integrand) * step / 3.0
            total *= TWO_PI / n
            fast = slab_area(data, slab)
            assert abs(fast - total) <= 1e-6 * total

    def test_area_bounded_below_by_length_square_integral(self):
        data = figure_eight(1.0, 1.0)
        slab = clip_to_slab(data, Slab(-0.25, 0.25))
        f3 = flux(data).f3
        heights = np.linspace(slab.h_minus, slab.h_plus, 65)
        lengths = np.array([trace_level(data, float(h), 512).length for h in heights])
        lower = np.trapezoid(lengths**2 / f3, heights)
        area = slab_area(data, slab)
        assert area >= lower * (1.0 - 1e-9)

    @pytest.mark.parametrize("n_theta", [16, 17, 512, 4096])
    def test_one_antiderivative_pass_equals_two(self, n_theta):
        # The old route: one antiderivative call per level radius.
        for data in (
            catenoid_cover(1, TWO_PI)[0],
            catenoid_cover(2, TWO_PI)[0],
            figure_eight(1.0, 1.0),
            perturbed_two_cover(1.0, 0.05),
        ):
            lo, hi = attained_height_range(data)
            slab = Slab(0.6 * lo + 0.4 * hi, 0.1 * lo + 0.9 * hi)
            thetas = TWO_PI * np.arange(n_theta) / n_theta
            r_a, r_b = level_radii(data, [slab.h_minus, slab.h_plus], thetas)
            upper = measures._area_antiderivative(data, thetas, np.maximum(r_a, r_b))
            lower = measures._area_antiderivative(data, thetas, np.minimum(r_a, r_b))
            expected = float(trapezoid_circle(upper - lower).real)
            assert slab_area(data, slab, n_theta) == expected

    def test_area_requires_attained_slab(self):
        data, _ = catenoid_cover(1, TWO_PI)
        with pytest.raises(HeightRangeError):
            slab_area(data, Slab(-5.0, 5.0))


def _adaptive_curvature(data, window, n_theta=512, tol=1e-10, max_depth=24):
    """Reference: the area integral of K over the window, adaptive in log r.

    Gauss-Legendre panels in t = log r, cut at the factor root moduli and
    bisected until two halves agree with their parent; each circle is a
    trapezoid sum of the squared spherical derivative of the Gauss map
    g_plus/g_minus.
    """
    num, den = data.g_plus, data.g_minus
    wpoly = num.derivative() * den - num * den.derivative()
    phases = np.exp(1j * TWO_PI * np.arange(n_theta) / n_theta)

    def density(t):
        z = math.exp(t) * phases
        w2 = np.abs(wpoly.evaluate(z)) ** 2
        q = np.abs(num.evaluate(z)) ** 2 + np.abs(den.evaluate(z)) ** 2
        return float((4.0 * w2 / q**2).mean()) * TWO_PI * math.exp(2.0 * t)

    lo, hi = window.log_span()
    cuts = {lo, hi}
    for g in (num, den):
        for z in roots(g):
            if lo < math.log(abs(z)) < hi:
                cuts.add(math.log(abs(z)))
    edges = sorted(cuts)
    nodes, weights = np.polynomial.legendre.leggauss(15)

    def panel(a, b):
        x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
        return 0.5 * (b - a) * sum(w * density(t) for w, t in zip(weights, x))

    def refine(a, b, whole, local_tol, depth):
        m = 0.5 * (a + b)
        left, right = panel(a, m), panel(m, b)
        if abs(left + right - whole) <= local_tol or depth >= max_depth:
            return left + right
        return refine(a, m, left, 0.5 * local_tol, depth + 1) + refine(
            m, b, right, 0.5 * local_tol, depth + 1
        )

    coarse = sum(panel(a, b) for a, b in zip(edges, edges[1:]))
    budget = tol * max(abs(coarse), 1.0)
    total = 0.0
    for a, b in zip(edges, edges[1:]):
        share = budget * (b - a) / (hi - lo)
        total += refine(a, b, panel(a, b), max(share, 1e-16), 0)
    return -total


def _curvature_cases():
    cases = [
        (figure_eight(1.0, 1.0), None),
        (figure_eight(1.0, 1.0), AnnulusWindow(1e-3, 1e3)),
        (perturbed_two_cover(1.0, 0.05), None),
        (catenoid_cover(1, TWO_PI)[0], AnnulusWindow(math.exp(-8.0), math.exp(8.0))),
    ]
    cases += [(catenoid_cover(k, 4.0)[0], None) for k in (1, 2, 3)]
    rng = np.random.default_rng(11)
    cases += [(random_three_term_pair(rng), None) for _ in range(4)]
    cases += [(random_even_vertical_flux(rng), None) for _ in range(4)]
    return cases


class TestTotalCurvature:
    def test_catenoid_wide_window(self):
        data, _ = catenoid_cover(1, TWO_PI)
        wide = AnnulusWindow(math.exp(-8.0), math.exp(8.0))
        tc = total_curvature(data, window=wide)
        assert abs(tc + 4.0 * math.pi) <= 0.001 * 4.0 * math.pi

    def test_figure_eight_wide_window(self):
        data = figure_eight(1.0, 1.0)
        wide = AnnulusWindow(1e-3, 1e3)
        tc = total_curvature(data, window=wide)
        assert abs(tc + 8.0 * math.pi) <= 0.02 * 8.0 * math.pi

    def test_negative_on_any_window(self):
        data = perturbed_two_cover(1.0, 0.05)
        assert total_curvature(data) < 0.0

    def test_boundary_integral_matches_adaptive_area_integral(self):
        for data, window in _curvature_cases():
            window = window or data.window
            got = total_curvature(data, window=window, n_theta=512)
            want = _adaptive_curvature(data, window)
            assert abs(got - want) <= 1e-12 * abs(want)

    def test_spectral_in_the_node_count(self):
        for data, window in _curvature_cases():
            fine = total_curvature(data, window=window, n_theta=512)
            coarse = total_curvature(data, window=window, n_theta=256)
            assert abs(fine - coarse) <= 1e-14 * abs(fine)

    @pytest.mark.parametrize(
        "data",
        [catenoid_cover(k, 4.0)[0] for k in (1, 2, 3)] + [figure_eight(1.0, 1.0)],
        ids=["cover1", "cover2", "cover3", "figure_eight"],
    )
    def test_complete_surface_limit(self, data):
        # As the window widens, the boundary terms tend to 2 * top and
        # 2 * lowest exponent, so the total tends to -4 pi (top - lowest);
        # the truncation error of the window (c/s, c s) is O(1/s^2).
        factors = (data.g_minus, data.g_plus)
        top, lowest = max(g.highest for g in factors), min(g.lowest for g in factors)
        limit = -4.0 * math.pi * (top - lowest)
        center = data.window.geometric_mean
        for s in (1e1, 1e2, 1e3, 1e6):
            tc = total_curvature(data, AnnulusWindow(center / s, center * s), 256)
            assert abs(tc - limit) <= (4.0 / s**2 + 1e-14) * abs(limit)

    def test_window_holding_a_common_zero_raises(self):
        # Both factors vanish at z = 2, outside the data window (0.5, 1.5).
        g_minus = LaurentPoly({0: -2.0, 1: 1.0})
        g_plus = LaurentPoly({-1: -2.0, 0: 1.0})
        data = from_g_pair(g_minus, g_plus, Parity.EVEN, AnnulusWindow(0.5, 1.5))
        assert total_curvature(data) < 0.0
        for outer in (3.0, 2.0):  # the window is closed: a zero on its edge counts
            with pytest.raises(DomainError, match="share the zero"):
                total_curvature(data, window=AnnulusWindow(0.5, outer))
        assert total_curvature(data, window=AnnulusWindow(0.5, 1.999)) < 0.0


class TestNodeCounts:
    @pytest.mark.parametrize("n_theta", [-5, 0, 1, 15])
    def test_fewer_than_sixteen_nodes_raise(self, n_theta):
        data = figure_eight(1.0, 1.0)
        slab = clip_to_slab(data, Slab(-0.25, 0.25))
        calls = (
            lambda: trace_levels(data, [0.0], n_theta),
            lambda: slab_area(data, slab, n_theta),
            lambda: total_curvature(data, n_theta=n_theta),
        )
        for call in calls:
            with pytest.raises(DomainError, match="n_theta must be an integer of at least 16"):
                call()

    def test_sixteen_nodes_suffice(self):
        data = figure_eight(1.0, 1.0)
        slab = clip_to_slab(data, Slab(-0.25, 0.25))
        assert trace_levels(data, [0.0], 16)[0].length > 0.0
        assert slab_area(data, slab, 16) > 0.0
        assert total_curvature(data, n_theta=16) < 0.0


class TestCatenoidReferences:
    def test_ratio_solves_its_equation(self):
        u = marginal_waist_ratio()
        assert u == pytest.approx(1.1996786402577338, abs=1e-12)
        assert 1.0 / math.tanh(u) == pytest.approx(u, abs=1e-10)

    def test_marginal_waist_geometry(self):
        slab = Slab(-0.4, 0.4)
        params = marginally_stable_waist(slab)
        u = marginal_waist_ratio()
        assert params.cover == 1
        assert params.center == pytest.approx(0.0)
        # neck radius of the underlying single catenoid
        rho = params.f3 / (2.0 * math.pi * params.cover)
        assert rho == pytest.approx(0.4 / u, rel=1e-12)
        # tangency: the ray from the slab center through the boundary circle
        # has the profile's slope there, rho(H) = H * rho'(H)
        profile_at_top = rho * math.cosh(0.4 / rho)
        slope_at_top = math.sinh(0.4 / rho)
        assert profile_at_top == pytest.approx(0.4 * slope_at_top, rel=1e-9)

    def test_level_length_growth(self):
        params = CatenoidParams(f3=4.0, center=0.1, cover=2)
        assert catenoid_level_length(params, 0.1) == pytest.approx(4.0)
        h = 0.3
        expected = 4.0 * math.cosh(params.rate * (h - 0.1))
        assert catenoid_level_length(params, h) == pytest.approx(expected, rel=1e-14)

    def test_rejects_bad_parameters(self):
        with pytest.raises(DomainError):
            CatenoidParams(f3=-1.0, center=0.0)
        with pytest.raises(DomainError):
            CatenoidParams(f3=1.0, center=0.0, cover=0)


class TestWaistSearch:
    def test_finds_offset_catenoid_waist(self):
        data, params = catenoid_cover(1, TWO_PI, center=0.25)
        lo, hi = attained_height_range(data)
        h0, length = waist_height(data, Slab(lo + 1e-6, hi - 1e-6))
        assert h0 == pytest.approx(0.25, abs=1e-6)
        assert length == pytest.approx(params.f3, rel=1e-9)

    def test_symmetric_figure_eight_waist_at_zero(self):
        data = figure_eight(1.0, 1.0)
        h0, length = waist_height(data, Slab(-0.3, 0.3))
        assert abs(h0) <= 1e-6
        assert length == pytest.approx(flux(data).f3, rel=1e-6)

    def test_minimum_on_a_slab_edge_raises(self):
        # The figure-eight's waist is at h = 0, outside both slabs, so the
        # length falls toward the lower edge of the first and the upper of the
        # second; the one-probe search raises the same error.
        data = figure_eight(1.0, 1.0)
        for slab, edge in ((Slab(0.05, 0.2), "0.05"), (Slab(-0.2, -0.05), "-0.05")):
            for search in (waist_height, waist_height_sequential):
                with pytest.raises(ConvergenceError, match=f"slab edge h = {edge}$"):
                    search(data, slab)


def _waist_cases():
    """(data, slab) pairs whose waist lies inside the slab."""
    offset, _ = catenoid_cover(1, TWO_PI, center=0.25)
    lo, hi = attained_height_range(offset)
    cases = {
        "figure_eight": (figure_eight(1.0, 1.0), Slab(-0.3, 0.3)),
        "offset_catenoid": (offset, Slab(lo + 1e-6, hi - 1e-6)),
    }
    for name, data in (
        ("figure_eight_0.9", figure_eight(1.0, 0.9)),
        ("perturbed_two_cover", perturbed_two_cover(1.0, 0.05)),
    ):
        lo, hi = attained_height_range(data)
        cases[name] = (data, Slab(0.9 * lo + 0.1 * hi, 0.1 * lo + 0.9 * hi))
    return cases


_WAIST_CASES = _waist_cases()


class TestWaistLookAhead:
    @pytest.mark.parametrize("n_theta", [16, 64, 256, 512, 4096])
    @pytest.mark.parametrize("name", sorted(_WAIST_CASES))
    def test_equals_the_sequential_search(self, name, n_theta):
        data, slab = _WAIST_CASES[name]
        got = waist_height(data, slab, n_theta)
        want = waist_height_sequential(data, slab, n_theta)
        assert [float(x).hex() for x in got] == [float(x).hex() for x in want]

    def test_traces_ahead_in_fewer_solves(self, monkeypatch):
        # The sequential search makes ceil(17 / k) coarse-scan solves for k
        # levels per solve, then one per probe: c, d, every step and the
        # polish.  The look-ahead traces c and d together and depth steps
        # per solve.  512 rays hold eight levels per solve, and depth 2 is
        # the deepest whose three probes fill at most half of one:
        # 3 + 2 + 33 + 1 = 39 solves against 3 + 1 + 17 + 1 = 22.
        per_solve = measures._levels_per_solve(512)
        depth = measures._look_ahead_depth(512)
        coarse = -(-measures.WAIST_COARSE_HEIGHTS // per_solve)
        sizes = []
        solved = []
        original = measures._solve_levels

        def recording(data, hs, rays):
            sizes.append((hs.size, rays.theta.size))
            solved.extend(hs.tolist())
            return original(data, hs, rays)

        monkeypatch.setattr(measures, "_solve_levels", recording)
        data, slab = _WAIST_CASES["figure_eight"]
        waist_height_sequential(data, slab, 512)
        steps = len(sizes) - coarse - 3
        assert (per_solve, depth, coarse, steps) == (8, 2, 3, 33)
        assert len(sizes) == 39
        sizes.clear()
        solved.clear()
        waist_height(data, slab, 512)
        assert len(sizes) == coarse + 1 + -(-steps // depth) + 1 == 22
        assert all(k * n <= measures.MAX_SOLVE_RAYS for k, n in sizes)
        assert len(solved) == len(set(solved))  # no probe is traced twice

    @pytest.mark.parametrize("n_theta, depth", [(256, 3), (512, 2), (2048, 1), (4096, 1)])
    def test_depth_fills_half_a_solve(self, n_theta, depth):
        # The node counts the scenarios, waist_height's default and the CLI
        # use; at 256 and 512 nodes the depth timed faster than one more.
        assert measures._look_ahead_depth(n_theta) == depth


def _all_pairs_crossings(xy, merge_tol=measures.CROSSING_MERGE_TOL):
    """Reference crossing count: every non-adjacent segment pair in (i, j) order.

    Each row i keeps the pairs (i, j), j >= i + 2, whose bounding boxes
    overlap within merge_tol, then tests them one by one with strict
    orientation signs and merges the points within merge_tol.
    """
    p = np.asarray(xy, dtype=float)
    n = len(p)
    q = np.roll(p, -1, axis=0)
    lo = np.minimum(p, q)
    hi = np.maximum(p, q)

    def cross2(u, v):
        return u[0] * v[1] - u[1] * v[0]

    points = []
    for i in range(n):
        j_row = np.arange(i + 2, n - 1 if i == 0 else n)
        overlap = np.all(
            (lo[i] <= hi[j_row] + merge_tol) & (lo[j_row] <= hi[i] + merge_tol), axis=1
        )
        for j in j_row[overlap]:
            a, b, c, d = p[i], q[i], p[j], q[j]
            ab = b - a
            cd = d - c
            d1 = cross2(ab, c - a)
            d2 = cross2(ab, d - a)
            d3 = cross2(cd, a - c)
            d4 = cross2(cd, b - c)
            if d1 * d2 < 0 and d3 * d4 < 0:
                s = d1 / (d1 - d2)
                points.append((float(c[0] + s * cd[0]), float(c[1] + s * cd[1])))
    merged = greedy_merge(points, merge_tol)
    return len(merged), merged


# Small integer grids give many crossings, repeated points, and collinear or
# touching segments; the scaled variant moves them off exact binary values.
_grid_polylines = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=4, max_size=64
)
_polylines = st.one_of(
    _grid_polylines,
    st.tuples(_grid_polylines, st.floats(0.01, 100.0)).map(
        lambda ps: [(x * ps[1], y * ps[1]) for x, y in ps[0]]
    ),
    st.lists(
        st.tuples(st.floats(-10.0, 10.0), st.floats(-10.0, 10.0)), min_size=4, max_size=64
    ),
)


class TestCrossingKernel:
    # Block sizes down to one candidate pair split every sweep into blocks.
    @given(_polylines, st.sampled_from([measures.CROSSING_BLOCK_PAIRS, 64, 5, 2, 1]))
    @settings(max_examples=300, deadline=None)
    def test_matches_all_pairs_reference(self, polyline, block):
        xy = np.array(polyline, dtype=float)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(measures, "CROSSING_BLOCK_PAIRS", block)
            assert planar_self_intersections(xy) == _all_pairs_crossings(xy)

    @pytest.mark.parametrize("n_theta", [512, 4096])
    def test_matches_reference_on_figure_eight_traces(self, n_theta):
        data = figure_eight(1.0, 1.0)
        for h in (-0.2, 0.15):
            xy = trace_level(data, h, n_theta).points[:, :2]
            count, points = planar_self_intersections(xy)
            assert count == 1
            assert (count, points) == _all_pairs_crossings(xy)


class TestLazyCrossings:
    def test_length_only_callers_never_test_crossings(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("crossings computed for a length-only caller")

        monkeypatch.setattr(measures, "planar_self_intersections", refuse)
        monkeypatch.setattr(measures, "traversal_multiplicity", refuse)
        data = figure_eight(1.0, 1.0)
        slab = Slab(-0.2, 0.2)
        cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=1)
        assert compare_lengths(data, cat, slab, 5, expect="above", n_theta=128).all_pass
        assert abs(waist_height(data, slab, n_theta=128)[0]) <= 1e-6
        assert run_scenario("theorem_4_3").all_pass

    def test_crossings_computed_once_on_first_access(self, monkeypatch):
        calls = {"planar_self_intersections": 0, "traversal_multiplicity": 0}

        def counted(name):
            original = getattr(measures, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(measures, name, wrapper)

        counted("planar_self_intersections")
        counted("traversal_multiplicity")
        report = classify_levels(figure_eight(1.0, 1.0), Slab(-0.2, 0.2), 3, 1, 128)
        assert report.all_pass
        assert calls == {"planar_self_intersections": 3, "traversal_multiplicity": 3}

        curve = trace_level(catenoid_cover(2, TWO_PI)[0], 0.1, 256)
        assert calls == {"planar_self_intersections": 3, "traversal_multiplicity": 3}
        assert curve.multiplicity == 2
        assert curve.self_intersections == 0
        assert curve.crossing_points == ()
        assert curve.multiplicity == 2 and curve.self_intersections == 0
        assert calls == {"planar_self_intersections": 4, "traversal_multiplicity": 4}


REPEAT_TOL = 1e-9  # node repeat distance, relative to the largest coordinate


def _multiplicity_by_full_checks(points):
    """The reference loop: a full rolled comparison of the nodes for every
    divisor of the node count, largest first."""
    pts = np.asarray(points, dtype=float)
    n = len(pts)
    scale = max(float(np.max(np.abs(pts))), 1.0)
    for m in range(n, 1, -1):
        if n % m:
            continue
        if np.max(np.abs(pts - np.roll(pts, n // m, axis=0))) <= REPEAT_TOL * scale:
            return m
    return 1


def _multiplicity_cases():
    """Traced level points by case name, and each case's data by name."""
    points, data = {}, {}
    for k in (1, 2, 3, 4):
        cover = catenoid_cover(k, TWO_PI)[0]
        for n in (240, 512):
            points[f"cover{k}-{n}"] = trace_level(cover, 0.1, n).points
            data[f"cover{k}-{n}"] = cover
    eight = figure_eight(1.0, 1.0)
    for i, curve in enumerate(trace_levels(eight, [-0.2, 0.0, 0.15], 512)):
        points[f"figure-eight-{i}"] = curve.points
        data[f"figure-eight-{i}"] = eight
    return points, data


_CASE_POINTS, _CASE_DATA = _multiplicity_cases()


def _rotation_moves(data, turn, seed=5):
    """Largest change of the immersion under z -> exp(i turn) z at random
    points of the window, relative to the largest coordinate."""
    rng = np.random.default_rng(seed)
    lo, hi = data.window.log_span()
    z = np.exp(rng.uniform(lo, hi, 64) + 1j * rng.uniform(0.0, TWO_PI, 64))
    pts = weierstrass.immerse(data, z)
    moved = weierstrass.immerse(data, z * cmath.exp(1j * turn))
    return float(np.max(np.abs(moved - pts))) / max(float(np.max(np.abs(pts))), 1.0)


_ROTATION_CASES = {
    "figure-eight": (figure_eight(1.0, 1.0), 1),
    "perturbed-0.05": (perturbed_two_cover(1.0, 0.05), 1),
    "perturbed-0": (perturbed_two_cover(1.0, 0.0), 2),
    **{f"cover{k}": (catenoid_cover(k, 4.0)[0], k) for k in (1, 2, 3, 4, 5)},
}


class TestTraversalMultiplicity:
    @pytest.mark.parametrize("name, points", list(_CASE_POINTS.items()))
    def test_equals_the_full_check_loop(self, name, points):
        # The loop searches the divisors of the node count only: it finds the
        # order where the order divides the nodes and reads 1 elsewhere.
        order = traversal_multiplicity(_CASE_DATA[name])
        assert _multiplicity_by_full_checks(points) == (order if len(points) % order == 0 else 1)

    def test_cases_cover_repeats_and_misses(self):
        got = {name: traversal_multiplicity(data) for name, data in _CASE_DATA.items()}
        assert [got[f"cover{k}-{n}"] for k in (1, 2, 3, 4) for n in (240, 512)] == [1, 1, 2, 2, 3, 3, 4, 4]
        assert got["figure-eight-0"] == got["figure-eight-1"] == got["figure-eight-2"] == 1
        # 3 does not divide 512: the node search misses the 3-cover there.
        assert _multiplicity_by_full_checks(_CASE_POINTS["cover3-240"]) == 3
        assert _multiplicity_by_full_checks(_CASE_POINTS["cover3-512"]) == 1

    @pytest.mark.parametrize("name", list(_ROTATION_CASES))
    def test_order_is_the_immersions_rotation_symmetry(self, name):
        # One turn of 2 pi / m fixes every point; half or a third of it does not.
        data, expected = _ROTATION_CASES[name]
        m = traversal_multiplicity(data)
        assert m == expected
        assert _rotation_moves(data, TWO_PI / m) <= 1e-12
        assert _rotation_moves(data, TWO_PI / (2 * m)) > 1e-3
        assert _rotation_moves(data, TWO_PI / (3 * m)) > 1e-3

    def test_catalog_orders(self):
        assert traversal_multiplicity(figure_eight(1.0, 1.0)) == 1
        assert traversal_multiplicity(perturbed_two_cover(1.0, 0.05)) == 1
        assert traversal_multiplicity(perturbed_two_cover(1.0, 0.0)) == 2
        for k in (1, 2, 3, 4, 5, 2047):  # odd k has odd parity
            assert traversal_multiplicity(catenoid_cover(k, 4.0)[0]) == k

    @pytest.mark.parametrize("n_theta", [512, 4096])
    def test_three_cover_counts_one_traversal(self, n_theta):
        curve = trace_level(catenoid_cover(3, 4.0)[0], 0.0, n_theta)
        assert curve.multiplicity == 3
        assert curve.self_intersections == 0

    @given(st.integers(1, 64), st.integers(16, 1024))
    @settings(max_examples=60, deadline=None)
    def test_covers_read_their_order_at_any_node_count(self, k, n_theta):
        curve = trace_level(catenoid_cover(k, TWO_PI)[0], 0.0, n_theta)
        assert curve.multiplicity == k
        assert curve.self_intersections == 0


def _bisection_radii(data, h, thetas, steps=60):
    imm = _immersion(data)
    lo, hi = data.window.log_span()
    phase = np.exp(1j * thetas)
    sign = np.sign(imm.height(math.exp(hi) * phase) - imm.height(math.exp(lo) * phase))
    tlo = np.full(thetas.shape, lo)
    thi = np.full(thetas.shape, hi)
    for _ in range(steps):
        mid = 0.5 * (tlo + thi)
        above = sign * (imm.height(np.exp(mid) * phase) - h) > 0
        thi = np.where(above, mid, thi)
        tlo = np.where(above, tlo, mid)
    return np.exp(0.5 * (tlo + thi))


def _complex_newton_radii(data, hs, thetas):
    """Reference level solve: bracket-safeguarded Newton on the complex evaluator.

    The iteration the ray-mode solve replaced: every step evaluates the
    immersion's height and d(height)/dt = Re psi3(z) at complex points, and
    gathers the active rays by index.  Same start, bracket, bisection and
    freezing rule, so the two differ only by round-off.
    """
    imm = _immersion(data)
    sign = imm.ray_sign
    hs = np.atleast_1d(np.asarray(hs, dtype=float))
    lo, hi = data.window.log_span()
    phase = np.exp(1j * np.asarray(thetas, dtype=float))
    f_in = sign * (imm.height(math.exp(lo) * phase) - hs[:, None])
    f_out = sign * (imm.height(math.exp(hi) * phase) - hs[:, None])
    if np.any(f_in > 0) or np.any(f_out < 0):
        raise HeightRangeError("a height is not attained on every ray")
    shape = f_in.shape
    target = np.repeat(hs, phase.size)
    phase = np.tile(phase, hs.size)
    t = (lo + (hi - lo) * f_in / (f_in - f_out)).ravel()
    tlo = np.full(t.shape, lo)
    thi = np.full(t.shape, hi)
    active = np.arange(t.size)
    for _ in range(measures.LEVEL_SOLVE_MAX_STEPS):
        ta = t[active]
        z = np.exp(ta) * phase[active]
        resid = imm.height(z) - target[active]
        above = sign * resid > 0
        a_lo = np.where(above, tlo[active], ta)
        a_hi = np.where(above, ta, thi[active])
        tlo[active], thi[active] = a_lo, a_hi
        step = resid / data.psi3.evaluate(z).real
        t_new = ta - step
        newton = (t_new >= a_lo) & (t_new <= a_hi)
        t[active] = np.where(newton, t_new, 0.5 * (a_lo + a_hi))
        scale = np.maximum(1.0, np.abs(ta))
        done = newton & (np.abs(step) <= measures.LEVEL_SOLVE_TOL * scale)
        done |= a_hi - a_lo <= 4.0 * np.spacing(scale)
        active = active[~done]
        if active.size == 0:
            break
    return np.exp(t).reshape(shape)


def _single_valued(data):
    """The data with g_plus turned by the unit phase that makes the vertical residue real.

    The turn keeps the roots, the window and the zero circle means of f_-
    and f_+; it only rotates psi3, so the height becomes single valued.
    """
    turn = cmath.exp(-1j * cmath.phase(data.phi3.coefficient(-1)))
    return from_g_pair(
        data.g_minus, data.g_plus * turn, data.parity, data.window, data.height_offset
    )


def _outcome(solve, *args):
    """The solve's radii, or the type of the error it raises."""
    try:
        return solve(*args)
    except GeometryError as exc:
        return type(exc)


def _offset_figure_eight():
    data = figure_eight(1.0, 1.0)
    return from_g_pair(data.g_minus, data.g_plus, data.parity, data.window, height_offset=0.37)


_ORACLE_CASES = {
    "figure_eight": lambda: figure_eight(1.0, 1.0),
    "figure_eight_rho_0.9": lambda: figure_eight(1.0, 0.9),
    "perturbed_two_cover": lambda: perturbed_two_cover(1.0, 0.05),
    "catenoid_1_cover_odd": lambda: catenoid_cover(1, TWO_PI)[0],
    "catenoid_2_cover_even": lambda: catenoid_cover(2, 4.0, center=-0.2)[0],
    "catenoid_3_cover_odd": lambda: catenoid_cover(3, 4.0, center=0.1)[0],
    "figure_eight_offset": _offset_figure_eight,
}


class TestLevelSolve:
    @pytest.mark.parametrize(
        "data",
        [figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05), catenoid_cover(2, TWO_PI)[0]],
        ids=["figure_eight", "perturbed_two_cover", "catenoid_2_cover"],
    )
    def test_near_range_ends_matches_bisection_within_budget(self, data, monkeypatch):
        thetas = TWO_PI * np.arange(512) / 512
        lo, hi = attained_height_range(data)
        heights = (lo + 1e-3, lo + 1e-7, hi - 1e-7, hi - 1e-3)
        imm = _immersion(data)
        evaluations = []  # per solve: [ray-mode evaluations, complex height evaluations]

        def counted(owner, name, slot):
            original = getattr(owner, name)

            def wrapper(*args):
                evaluations[-1][slot] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, wrapper)

        counted(measures, "_ray_height", 0)
        counted(imm, "height", 1)
        solved = []
        for h in heights:
            evaluations.append([0, 0])
            solved.append(level_radii(data, h, thetas))
        evaluations.append([0, 0])
        batched = level_radii(data, np.array(heights), thetas)
        monkeypatch.undo()
        # One ray-mode evaluation for both window ends plus one per Newton
        # step: at most 9 steps per solve; the last solve holds four heights.
        assert max(modal for modal, _ in evaluations) <= 10
        assert all(complex_ == 1 for _, complex_ in evaluations)  # the residual certificate
        assert np.array_equal(batched, np.array(solved))
        for h, r in zip(heights, solved):
            reference = _bisection_radii(data, h, thetas)
            assert np.max(np.abs(r - reference) / reference) <= 1e-12

    @pytest.mark.parametrize(
        "data",
        [figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05), catenoid_cover(2, TWO_PI)[0]],
        ids=["figure_eight", "perturbed_two_cover", "catenoid_2_cover"],
    )
    def test_batched_rows_equal_single_height_solves(self, data):
        lo, hi = attained_height_range(data)
        # Nine heights span two batches at 512 rays and three at 1024.
        heights = np.concatenate(([lo + 1e-7], np.linspace(lo + 1e-3, hi - 1e-3, 7), [hi - 1e-7]))
        for n in (512, 1024):
            thetas = TWO_PI * np.arange(n) / n
            batched = level_radii(data, heights, thetas)
            assert batched.shape == (heights.size, n)
            for h, row in zip(heights, batched):
                assert np.array_equal(row, level_radii(data, float(h), thetas))

    def test_trace_levels_equals_trace_level(self):
        data = figure_eight(1.0, 1.0)
        heights = [-0.2, -0.05, 0.0, 0.1, 0.15, 0.2]
        for n in (64, 512, 4096):
            curves = trace_levels(data, heights, n)
            assert [c.h for c in curves] == heights
            for h, curve in zip(heights, curves):
                single = trace_level(data, h, n)
                assert curve.length == single.length
                assert np.array_equal(curve.r, single.r)
                assert np.array_equal(curve.points, single.points)
        assert trace_levels(data, [], 64) == []

    @pytest.mark.parametrize("n_theta", [16, 17, 512, 513])
    @pytest.mark.parametrize("levels", [1, 5])
    def test_batch_lengths_equal_per_curve_quadrature(self, n_theta, levels):
        # The per-curve route: one row FFT, lambda from three evaluate calls
        # and one trapezoid_circle sum per level.
        for data in (figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05)):
            lo, hi = attained_height_range(data)
            heights = np.linspace(0.9 * lo + 0.1 * hi, 0.1 * lo + 0.9 * hi, levels)
            thetas = TWO_PI * np.arange(n_theta) / n_theta
            curves = trace_levels(data, heights, n_theta)
            assert [c.h for c in curves] == heights.tolist()
            for h, curve in zip(heights, curves):
                r = level_radii(data, float(h), thetas)
                spec = np.fft.rfft(r)
                spec *= 1j * np.arange(spec.size)
                if n_theta % 2 == 0:
                    spec[-1] = 0.0
                dr = np.fft.irfft(spec, n_theta)
                z = r * np.exp(1j * thetas)
                lam = np.sqrt(
                    0.5 * sum(np.abs(p.evaluate(z)) ** 2 for p in (data.phi1, data.phi2, data.phi3))
                )
                assert np.array_equal(curve.theta, thetas)
                assert np.array_equal(curve.r, r)
                assert curve.length == float(trapezoid_circle(lam * np.sqrt(dr**2 + r**2)).real)

    def test_batch_with_one_unattained_height_raises(self):
        data = figure_eight(1.0, 1.0)
        lo, hi = attained_height_range(data)
        thetas = TWO_PI * np.arange(512) / 512
        heights = [0.0, 0.5 * hi, hi + 1.0, 0.5 * lo]
        with pytest.raises(HeightRangeError):
            level_radii(data, heights, thetas)
        with pytest.raises(HeightRangeError):
            trace_levels(data, heights, 512)
        with pytest.raises(DomainError):
            level_radii(data, [0.0, math.nan], thetas)
        with pytest.raises(DomainError):  # rays are not flattened
            level_radii(data, 0.0, thetas.reshape(2, -1))

    def test_every_solve_holds_whole_levels_within_the_ray_bound(self, monkeypatch):
        sizes = []
        original = measures._solve_levels

        def recording(data, hs, rays):
            sizes.append((hs.size, rays.theta.size))
            return original(data, hs, rays)

        monkeypatch.setattr(measures, "_solve_levels", recording)
        data = figure_eight(1.0, 1.0)
        per_solve = measures._levels_per_solve(512)
        trace_levels(data, np.linspace(-0.2, 0.2, 9), 512)
        assert sizes == [(min(per_solve, 9 - i), 512) for i in range(0, 9, per_solve)]
        assert sizes == [(8, 512), (1, 512)]
        sizes.clear()
        slab_area(data, Slab(-0.2, 0.2), 4096)
        assert measures._levels_per_solve(4096) == 1
        assert sizes == [(1, 4096), (1, 4096)]
        sizes.clear()
        trace_levels(data, np.linspace(-0.2, 0.2, 3), 64)
        assert sizes == [(3, 64)]
        assert all(k * n <= measures.MAX_SOLVE_RAYS for k, n in sizes)


    @pytest.mark.parametrize(
        "slope_factor", [1.0, 0.3, -1.0], ids=["newton", "overshooting", "bisecting"]
    )
    @pytest.mark.parametrize(
        "data",
        [
            figure_eight(1.0, 1.0),
            perturbed_two_cover(1.0, 0.05),
            perturbed_two_cover(1.0, 0.2),
            catenoid_cover(2, TWO_PI)[0],
            _offset_figure_eight(),
        ],
        ids=["figure_eight", "perturbed_two_cover", "perturbed_two_cover_0.2",
             "catenoid_2_cover", "figure_eight_offset"],
    )
    def test_equals_the_reference_loop_bit_for_bit(self, data, slope_factor, monkeypatch):
        # The figure-eight's and the 2-cover's log spans lie in [-1, 1], the
        # perturbed covers' do not (|t| up to 2.64 and 1.25).  The solve tests
        # bracket width only on steps where some ray bisects, the reference
        # on every step.  Heights on and 1e-7 inside the range
        # ends collapse brackets.  A slope shrunk by 0.3 makes Newton steps
        # overshoot, so rays mix Newton steps and bisection; a reversed slope
        # sends every Newton step out of its bracket, so every ray bisects
        # until its bracket is four ulps wide.
        ray_height = measures._ray_height

        def scaled(modes, t):
            value, slope = ray_height(modes, t)
            return value, slope_factor * slope

        monkeypatch.setattr(measures, "_ray_height", scaled)
        lo, hi = attained_height_range(data)
        heights = np.concatenate(([lo, lo + 1e-7, hi - 1e-7, hi], np.linspace(lo, hi, 9)[1:-1]))
        for n_theta in (64, 512, 4096):
            thetas = TWO_PI * np.arange(n_theta) / n_theta
            want = level_radii_reference(data, heights, thetas)
            bits = [x.hex() for x in want.ravel().tolist()]
            assert [x.hex() for x in level_radii(data, heights, thetas).ravel().tolist()] == bits
            traced = np.stack([c.r for c in trace_levels(data, heights, n_theta)])
            assert [x.hex() for x in traced.ravel().tolist()] == bits
            for per_solve in (1, 5) if n_theta < 4096 else ():  # one level per solve at 4096
                other = level_radii_reference(data, heights, thetas, per_solve)
                assert [x.hex() for x in other.ravel().tolist()] == bits

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_matches_the_complex_newton_oracle(self, name):
        data = _ORACLE_CASES[name]()
        lo, hi = attained_height_range(data)
        heights = np.linspace(lo, hi, 11)[1:-1]
        grids = [TWO_PI * np.arange(n) / n for n in (256, 512, 4096)]
        grids += [np.array([1.1]), np.array([0.3, 1.1, 2.0, 5.9])]  # non-uniform rays
        for thetas in grids:
            got = level_radii(data, heights, thetas)
            want = _complex_newton_radii(data, heights, thetas)
            assert np.max(np.abs(got - want) / want) <= 4e-15

    @pytest.mark.parametrize(
        "draw",
        [random_three_term_pair, lambda rng: random_even_vertical_flux(rng, 1)],
        ids=["three_term_pair", "even_vertical_flux"],
    )
    def test_random_draws_match_the_complex_newton_oracle(self, draw):
        # Raw draws have a complex vertical residue; turned draws are single
        # valued, and most still have a ray on which the height turns back.
        # Both solves must refuse the same draws with the same error, and agree
        # on four that they solve.
        rng = np.random.default_rng(2026)
        thetas = TWO_PI * np.arange(512) / 512
        solved = 0
        for _ in range(400):
            raw = draw(rng)
            data = _single_valued(raw)
            h0 = float(height(data, data.window.geometric_mean))
            for case in (raw, data):
                got = _outcome(level_radii, case, [h0], thetas)
                want = _outcome(_complex_newton_radii, case, [h0], thetas)
                if isinstance(got, type) or isinstance(want, type):
                    assert got is want
            if isinstance(got, type):
                continue
            lo, hi = attained_height_range(data)
            heights = np.linspace(lo, hi, 11)[1:-1]
            got = level_radii(data, heights, thetas)
            want = _complex_newton_radii(data, heights, thetas)
            assert np.max(np.abs(got - want) / want) <= 4e-15
            solved += 1
            if solved == 4:
                break
        assert solved == 4

    def test_step_budget_exhausted_raises_before_the_residual_check(self, monkeypatch):
        data = figure_eight(1.0, 1.0)
        thetas = TWO_PI * np.arange(64) / 64
        monkeypatch.setattr(measures, "LEVEL_SOLVE_MAX_STEPS", 1)
        imm = _immersion(data)

        def refuse(z):
            raise AssertionError("residual check reached with rays still moving")

        monkeypatch.setattr(imm, "height", refuse)
        with pytest.raises(ConvergenceError, match="after 1 steps"):
            level_radii(data, 0.1, thetas)
        with pytest.raises(ConvergenceError):
            trace_level(data, 0.1, 64)

class TestRayModes:
    @given(
        seed=st.integers(0, 2**32 - 1),
        draw=st.sampled_from([random_three_term_pair, random_even_vertical_flux]),
        parity=st.sampled_from(list(Parity)),
        offset=st.floats(-2.0, 2.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_match_the_complex_evaluator(self, seed, draw, parity, offset):
        rng = np.random.default_rng(seed)
        drawn = draw(rng)
        data = _single_valued(
            from_g_pair(drawn.g_minus, drawn.g_plus, parity, drawn.window, offset)
        )
        thetas = rng.uniform(0.0, TWO_PI, 7)
        lo, hi = data.window.log_span()
        t = np.vstack([np.full(7, lo), rng.uniform(lo, hi, (3, 7)), np.full(7, hi)])
        modes = _immersion(data).ray_modes(np.exp(1j * thetas))
        value, slope = measures._ray_height(modes, t)
        z = np.exp(t + 1j * thetas)
        want_value = _immersion(data).height(z)
        want_slope = data.psi3.evaluate(z).real  # d(height)/dt = r d(height)/dr
        assert np.max(np.abs(value - want_value)) <= 1e-13 * (1.0 + np.max(np.abs(want_value)))
        assert np.max(np.abs(slope - want_slope)) <= 1e-13 * (1.0 + np.max(np.abs(want_slope)))


def _psi3_data(psi3: LaurentPoly, window: AnnulusWindow):
    """Period-free even data with g_minus = z^-4 and g_plus = z^4 psi3.

    For psi3 with exponents in [0, 16], neither f_minus = z^-8 nor
    f_plus = z^8 psi3^2 has a constant term, so the immersion is single valued.
    """
    g_minus = LaurentPoly.monomial(-4)
    return from_g_pair(g_minus, LaurentPoly.monomial(4) * psi3, Parity.EVEN, window)


class TestRayDirection:
    def test_sign_change_on_the_window_raises(self):
        # Re psi3 = 1 + 2 r cos(theta) changes sign on |z| = 2.
        data = _psi3_data(LaurentPoly({0: 1.0, 1: 2.0}), AnnulusWindow(0.6, 2.0))
        thetas = TWO_PI * np.arange(64) / 64
        with pytest.raises(NonMonotoneRayError):
            level_radii(data, 0.0, thetas)
        with pytest.raises(NonMonotoneRayError):
            trace_level(data, 0.0, 64)
        with pytest.raises(NonMonotoneRayError):
            level_radii(data, 0.0, [0.0])  # monotone on this ray, not on the window

    def test_negative_only_between_the_rays_of_a_16_node_trace_raises(self):
        # Re psi3 = 1 + r^16 cos(16 theta): positive on every ray theta = 2 pi j / 16,
        # negative between them once r^16 > 1.
        data = _psi3_data(LaurentPoly({0: 1.0, 16: 1.0}), AnnulusWindow(1.05, 1.2))
        thetas = TWO_PI * np.arange(16) / 16
        lo, hi = data.window.log_span()
        grid = np.exp(np.linspace(lo, hi, 32))[:, None] * np.exp(1j * thetas)[None, :]
        assert period_check(data).well_defined
        assert np.all(data.psi3.evaluate(grid).real / np.abs(grid) > 0)  # a sampled probe passes
        h = height(data, 1.1)
        with pytest.raises(NonMonotoneRayError):
            level_radii(data, h, thetas)
        with pytest.raises(NonMonotoneRayError):
            trace_level(data, h, 16)

    def test_extremes_between_nodes_decide_the_sign(self):
        # Re psi3 = 1 + r^16 cos(16 theta + alpha).  Its minimum 1 - r^16 on each
        # circle sits between the nodes of every 512-node grid when
        # alpha = pi - pi/32, and the exact extremes find it.
        def data_for(alpha, r_in, r_out):
            psi3 = LaurentPoly({0: 1.0, 16: complex(math.cos(alpha), math.sin(alpha))})
            return _psi3_data(psi3, AnnulusWindow(r_in, r_out))

        positive = data_for(0.0, 0.9, 0.95 ** (1 / 16))  # min 0.05
        dipping = data_for(math.pi - math.pi / 32, 1.002 ** (1 / 16), 1.003 ** (1 / 16))
        assert weierstrass._ray_sign(positive) == 1.0
        with pytest.raises(NonMonotoneRayError):
            weierstrass._ray_sign(dipping)  # every 512-node sample is positive
        for r, low in ((dipping.window.r_inner, -0.002), (dipping.window.r_outer, -0.003)):
            lo, hi = weierstrass._circle_extremes(dipping.psi3, r)
            assert lo == pytest.approx(low, abs=1e-14)
            assert hi == pytest.approx(2.0 - low, abs=1e-14)

    def test_catalog_surfaces_certify_a_positive_sign(self):
        for data in (
            figure_eight(1.0, 1.0),
            perturbed_two_cover(1.0, 0.05),
            catenoid_cover(2, TWO_PI)[0],
        ):
            assert weierstrass._ray_sign(data) == 1.0

    def test_circle_extremes_bound_dense_samples(self):
        # No sample of a 2^14-node grid leaves [min, max], and each extreme
        # lies within the grid's own error (1/2)(pi N / M)^2 B of a sample,
        # N the degree and B = sum |c_n| r^n.
        rng = np.random.default_rng(11)
        m = 2**14
        phase = np.exp(1j * TWO_PI * np.arange(m) / m)
        for _ in range(40):
            exponents = rng.choice(np.arange(-6, 7), size=rng.integers(2, 8), replace=False)
            p = LaurentPoly({int(n): complex(*rng.normal(size=2)) for n in exponents})
            r = float(rng.uniform(0.4, 2.5))
            bound = sum(abs(c) * r**n for n, c in p.terms)
            degree = max(abs(n) for n, _ in p.terms)
            samples = p.evaluate(r * phase).real
            lo, hi = weierstrass._circle_extremes(p, r)
            assert samples.min() >= lo - 1e-12 * bound
            assert samples.max() <= hi + 1e-12 * bound
            grid_error = 0.5 * (math.pi * degree / m) ** 2 * bound
            assert lo >= samples.min() - grid_error
            assert hi <= samples.max() + grid_error

    def test_circle_extremes_of_a_constant_real_part(self):
        assert weierstrass._circle_extremes(LaurentPoly.constant(2.0 + 1.0j), 0.7) == (2.0, 2.0)
        assert weierstrass._circle_extremes(LaurentPoly(), 1.3) == (0.0, 0.0)
        # Re(z - 1/z) vanishes on the unit circle: the derivative is the zero expression.
        assert weierstrass._circle_extremes(LaurentPoly({1: 1.0, -1: -1.0}), 1.0) == (0.0, 0.0)

    def test_sign_is_computed_once_per_data_set(self, monkeypatch):
        calls = []
        original = weierstrass._ray_sign

        def counting(data):
            calls.append(data)
            return original(data)

        monkeypatch.setattr(weierstrass, "_ray_sign", counting)
        _immersion.cache_clear()
        measures._ray_setup.cache_clear()  # a cached set-up reads no sign
        data = figure_eight(1.0, 1.0)
        for n in (64, 512, 4096):
            trace_level(data, 0.1, n)
        slab_area(data, Slab(-0.2, 0.2))
        assert calls == [data]


class TestRayCache:
    def test_no_heights_certify_no_rays_and_fill_no_entry(self, monkeypatch):
        def refuse(data):
            raise AssertionError("ray direction certified for no heights")

        monkeypatch.setattr(weierstrass, "_ray_sign", refuse)
        data = figure_eight(1.0, 0.77)  # no other test builds it
        misses = measures._ray_setup.cache_info().misses
        assert trace_levels(data, [], 64) == []
        assert level_radii(data, [], TWO_PI * np.arange(64) / 64).shape == (0, 64)
        assert measures._ray_setup.cache_info().misses == misses

    def test_direction_is_certified_before_the_ray_modes(self):
        # Re psi3 = 1 + 2 r cos(theta) changes sign on |z| = 2, and the constant
        # term of psi3, the vertical dz residue, is complex: the ray modes alone
        # would raise MultivaluedDataError.
        data = _psi3_data(LaurentPoly({0: 1.0 + 0.5j, 1: 2.0}), AnnulusWindow(0.6, 2.0))
        with pytest.raises(MultivaluedDataError):
            _immersion(data).ray_modes(np.ones(4, dtype=complex))
        misses = measures._ray_setup.cache_info().misses
        for _ in range(2):  # a raising set-up is not cached: every call misses
            with pytest.raises(NonMonotoneRayError):
                trace_levels(data, [0.0], 64)
            with pytest.raises(NonMonotoneRayError):
                level_radii(data, 0.0, TWO_PI * np.arange(64) / 64)
        assert measures._ray_setup.cache_info().misses == misses + 4

    def test_too_few_nodes_raise_before_the_cache(self):
        data = figure_eight(1.0, 1.0)
        misses = measures._ray_setup.cache_info().misses
        for heights in ([0.1], []):
            with pytest.raises(DomainError, match="n_theta must be an integer of at least 16"):
                trace_levels(data, heights, measures.MIN_THETA_NODES - 1)
        assert measures._ray_setup.cache_info().misses == misses

    @pytest.mark.parametrize("n_theta", [16, 512, 4096])
    def test_cached_rows_equal_uncached_solves(self, n_theta):
        data = perturbed_two_cover(1.0, 0.05)
        lo, hi = attained_height_range(data)
        heights = np.linspace(0.9 * lo + 0.1 * hi, 0.1 * lo + 0.9 * hi, 6)
        thetas = TWO_PI * np.arange(n_theta) / n_theta
        rays = measures._ray_setup(data, thetas.tobytes())
        assert measures._ray_setup(data, thetas.tobytes()) is rays
        assert np.array_equal(rays.theta, thetas)
        assert not rays.theta.flags.writeable and not rays.ends.flags.writeable
        uncached = measures._ray_setup.__wrapped__(data, thetas.tobytes())
        want = [measures._solve_levels(data, np.array([h]), uncached)[0] for h in heights]
        for _ in range(2):  # both traces read the entry
            curves = trace_levels(data, heights, n_theta)
            for h, curve, r in zip(heights, curves, want):
                assert curve.theta is rays.theta
                assert np.array_equal(curve.r, level_radii(data, float(h), thetas))
                assert np.array_equal(curve.r, r)

    def test_data_sets_never_share_an_entry(self):
        grid = (TWO_PI * np.arange(64) / 64).tobytes()
        first, second = figure_eight(1.0, 1.0), figure_eight(1.0, 0.9)
        a, b = measures._ray_setup(first, grid), measures._ray_setup(second, grid)
        assert a is not b
        assert not np.array_equal(a.ends, b.ends)
        assert measures._ray_setup(figure_eight(1.0, 1.0), grid) is a  # an equal value hits
        assert measures._ray_setup(first, (TWO_PI * np.arange(128) / 128).tobytes()) is not a
        for data, rays in ((first, a), (second, b)):
            want = measures._ray_setup.__wrapped__(data, grid)
            assert np.array_equal(rays.ends, want.ends)
            assert np.array_equal(rays.modes[1], want.modes[1])

    def test_the_key_copies_the_nodes(self):
        data = figure_eight(1.0, 1.0)
        thetas = np.linspace(0.1, 6.0, 40)  # rays off every uniform grid
        before = level_radii(data, 0.1, thetas)
        thetas[::3] += 0.05
        after = level_radii(data, 0.1, thetas)
        uncached = measures._ray_setup.__wrapped__(data, thetas.tobytes())
        assert np.array_equal(after, measures._solve_levels(data, np.array([0.1]), uncached)[0])
        assert not np.array_equal(after, before)
        info = measures._ray_setup.cache_info()
        assert np.array_equal(level_radii(data, 0.1, thetas.copy()), after)
        assert measures._ray_setup.cache_info().hits == info.hits + 1
        assert measures._ray_setup.cache_info().misses == info.misses

    def test_slab_area_shares_the_traced_grid(self, monkeypatch):
        calls = []
        ray_modes = weierstrass._Immersion.ray_modes

        def counting(self, phase):
            calls.append(phase.size)
            return ray_modes(self, phase)

        monkeypatch.setattr(weierstrass._Immersion, "ray_modes", counting)
        data = perturbed_two_cover(1.0, 0.05)
        lo, hi = attained_height_range(data)
        slab = Slab(0.8 * lo + 0.2 * hi, 0.2 * lo + 0.8 * hi)
        trace_levels(data, [slab.h_minus, slab.center, slab.h_plus], 512)
        calls.clear()
        slab_area(data, slab, 512)
        assert calls == []

    def test_every_solve_runs_inside_level_radii(self, monkeypatch):
        depth, outside, solves = [0], [], []
        solve, radii = measures._solve_levels, measures.level_radii

        def recording_solve(data, hs, rays):
            solves.append(hs.size)
            if not depth[0]:
                outside.append(hs.size)
            return solve(data, hs, rays)

        def recording_radii(*args):
            depth[0] += 1
            try:
                return radii(*args)
            finally:
                depth[0] -= 1

        monkeypatch.setattr(measures, "_solve_levels", recording_solve)
        monkeypatch.setattr(measures, "level_radii", recording_radii)
        for name in ("prop_3_7", "theorem_4_1", "corollary_4_2", "theorem_4_3", "step_two"):
            run_scenario(name, n_theta=512)
        assert solves and outside == []


def _range_surfaces():
    named = [
        perturbed_two_cover(1.0, 0.05),
        figure_eight(1.0, 0.5),
        figure_eight(cmath.exp(1j), cmath.exp(2j)),  # a rotated figure_eight(1, 1)
        perturbed_two_cover(1.0, 0.05 - 0.01j),
    ]
    rng = np.random.default_rng(5)
    drawn = []
    while len(drawn) < 10:
        try:
            drawn.append(figure_eight(complex(*rng.normal(size=2)), complex(*rng.normal(size=2))))
        except GeometryError:
            continue
    return named, drawn


class TestAttainedRange:
    def test_rotated_figure_eights_share_the_range(self):
        # figure_eight(e^{i(b - f)}, e^{i(b + f)}) is figure_eight(1, 1) turned
        # by z -> e^{if} z (and z -> -z when a_0 takes the other root), with
        # its square-root factors multiplied by a phase: the same heights.
        lo, hi = attained_height_range(figure_eight(1.0, 1.0))
        for b, f in ((1.5, 0.5), (0.3, -1.1), (2.0, 0.25)):
            data = figure_eight(cmath.exp(1j * (b - f)), cmath.exp(1j * (b + f)))
            rot_lo, rot_hi = attained_height_range(data)
            assert rot_lo == pytest.approx(lo, abs=1e-12)
            assert rot_hi == pytest.approx(hi, abs=1e-12)

    @pytest.mark.parametrize("n_theta", [4096, 8192])
    def test_heights_just_inside_the_ends_are_attained(self, n_theta):
        named, drawn = _range_surfaces()
        thetas = TWO_PI * np.arange(n_theta) / n_theta
        for data in named + drawn:
            lo, hi = attained_height_range(data)
            inset = 1e-9 * (hi - lo)
            radii = level_radii(data, [lo + inset, hi - inset], thetas)
            assert np.all((radii >= data.window.r_inner) & (radii <= data.window.r_outer))

    def test_full_range_clip_is_measurable(self):
        # The clipped slab's levels touch the window circles; the solve accepts
        # them there, and the area converges in the node count.
        named, _ = _range_surfaces()
        for data in named:
            slab = clip_to_slab(data, Slab(-5.0, 5.0))
            areas = [slab_area(data, slab, n) for n in (512, 4096, 8192)]
            assert areas[0] > 0.0
            assert areas[1] == pytest.approx(areas[2], rel=1e-9)

    def test_range_is_computed_once_per_data_set(self, monkeypatch):
        calls = []
        original = weierstrass._circle_extremes

        def counting(p, r):
            calls.append(r)
            return original(p, r)

        monkeypatch.setattr(weierstrass, "_circle_extremes", counting)
        _immersion.cache_clear()
        data = figure_eight(1.0, 1.0)
        for _ in range(3):
            attained_height_range(data)
        clip_to_slab(data, Slab(-0.2, 0.2))
        clip_to_slab(data, Slab(-5.0, 5.0))
        assert sorted(calls) == [data.window.r_inner, data.window.r_outer]


def _immersion_calls(monkeypatch):
    """A list that gets one entry per _Immersion.point call, with its shape."""
    calls = []
    point = weierstrass._Immersion.point

    def counted(self, z):
        calls.append(np.shape(z))
        return point(self, z)

    monkeypatch.setattr(weierstrass._Immersion, "point", counted)
    return calls


class TestTracedBatchPoints:
    @pytest.mark.parametrize(
        "data",
        [figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05), catenoid_cover(2, TWO_PI)[0]],
        ids=["figure_eight", "perturbed_two_cover", "catenoid_2_cover"],
    )
    @pytest.mark.parametrize("levels", [1, 8, 9])
    def test_rows_equal_immerse_bit_for_bit(self, data, levels):
        lo, hi = attained_height_range(data)
        heights = np.linspace(lo, hi, levels + 2)[1:-1]
        for curve in trace_levels(data, heights, 512):
            want = immerse(data, curve.r * np.exp(1j * curve.theta))
            assert curve.points.shape == (512, 3)
            assert curve.points.tobytes() == want.tobytes()

    def test_cli_trace_case_at_4096_nodes(self):
        data = figure_eight(1.0, 1.0)
        for curve in trace_levels(data, [-0.2, 0.0, 0.2], 4096):
            want = immerse(data, curve.r * np.exp(1j * curve.theta))
            assert curve.points.tobytes() == want.tobytes()

    def test_one_immersion_call_per_trace_and_none_for_lengths(self, monkeypatch):
        calls = _immersion_calls(monkeypatch)
        data = figure_eight(1.0, 1.0)
        curves = trace_levels(data, np.linspace(-0.2, 0.2, 9), 512)
        assert calls == []
        curves[-1].points
        assert calls == [(9, 512)]
        for curve in curves:
            curve.points
        assert calls == [(9, 512)]
        # The waist search and the length comparisons read lengths only.
        waist_height(data, Slab(-0.2, 0.2), n_theta=128)
        cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=1)
        compare_lengths(data, cat, Slab(-0.2, 0.2), 5, expect="above", n_theta=128)
        assert calls == [(9, 512)]

    def test_classify_levels_evaluates_its_nine_levels_once(self, monkeypatch):
        calls = _immersion_calls(monkeypatch)
        report = classify_levels(figure_eight(1.0, 1.0), Slab(-0.2, 0.2), 9, 1, 512)
        assert report.all_pass
        assert calls == [(9, 512)]


class TestCurvatureOverflow:
    def test_high_cover_raises_instead_of_returning_nan(self):
        data, _ = catenoid_cover(1000, TWO_PI)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(NumericalError, match="not finite"):
                total_curvature(data)

    def test_finite_covers_keep_their_value(self):
        data, _ = catenoid_cover(500, TWO_PI)
        assert total_curvature(data) == pytest.approx(-4.0 * math.pi * 500, rel=1e-9)


def _catalog_polylines():
    """The one-traversal polyline of every level the catalog counts crossings on."""
    seen = []
    kernel = measures.planar_self_intersections

    def record(xy):
        seen.append(np.array(xy))
        return kernel(xy)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "planar_self_intersections", record)
        for name in sorted(SCENARIOS):
            run_scenario(name, n_theta=512)
    return seen


def _family_polylines(n_theta):
    """One traversal of nine levels across the attained range of each catalog
    family at n_theta nodes; at 512 nodes also of a 3-fold cover, whose
    nodes do not divide into its three traversals."""
    families = [figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05), catenoid_cover(2, 4.0)[0]]
    if n_theta == 512:
        families.append(catenoid_cover(3, 4.0)[0])
    polylines = []
    for data in families:
        lo, hi = attained_height_range(data)
        for curve in trace_levels(data, np.linspace(lo, hi, 11)[1:-1], n_theta):
            polylines.append(curve.points[: -(-n_theta // curve.multiplicity), :2])
    return polylines


def _bits2(points):
    return [(x.hex(), y.hex()) for x, y in points]


class TestBlockedCrossings:
    def _check(self, polylines, wants):
        for block in (measures.CROSSING_BLOCK_PAIRS, 1000, 61):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(measures, "CROSSING_BLOCK_PAIRS", block)
                for xy, (want_count, want) in zip(polylines, wants):
                    count, points = planar_self_intersections(xy)
                    assert count == want_count
                    assert _bits2(points) == _bits2(want)

    def test_catalog_levels_equal_the_all_pairs_reference(self):
        polylines = _catalog_polylines()
        assert len(polylines) == 9  # classify_levels' levels
        polylines += _family_polylines(512)
        self._check(polylines, [_all_pairs_crossings(xy) for xy in polylines])

    def test_cli_node_count_levels_equal_the_one_shot_kernel(self):
        # The all-pairs loop is too slow at 4096 nodes.
        polylines = _family_polylines(4096)
        self._check(polylines, [crossings_reference(xy) for xy in polylines])

    def test_refuses_more_crossings_than_its_limit(self, monkeypatch):
        # The star polygon {7/3} crosses itself at 14 distinct points.
        angles = 2.0 * math.pi * 3 * np.arange(7) / 7
        xy = np.stack((np.cos(angles), np.sin(angles)), axis=1)
        monkeypatch.setattr(measures, "MAX_CROSSINGS", 14)
        assert planar_self_intersections(xy)[0] == 14
        monkeypatch.setattr(measures, "MAX_CROSSINGS", 13)
        with pytest.raises(NumericalError, match="too many to merge"):
            planar_self_intersections(xy)


_FAN_SCRIPT = """
import numpy as np
from minann.measures import planar_self_intersections
# 4096 nodes between two slanted lines: every segment pair overlaps in x and
# y, about 8.4 million candidates, and only the closing segment crosses.
n = 4096
up = np.arange(n) % 2
xy = np.stack((up * 1.0, up + (np.arange(n) // 2) * 1e-6), axis=1)
count, points = planar_self_intersections(xy)
print(count, len(points))
"""


def test_crossing_candidates_fit_in_one_gib():
    src = Path(__file__).resolve().parents[1] / "src"

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-c", _FAN_SCRIPT],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=120,
        preexec_fn=limit,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "4093 4093\n"
