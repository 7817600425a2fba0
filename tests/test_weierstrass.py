"""Surface data assembly, immersion, periods, flux, symmetry, windings."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from minann import weierstrass
from minann.errors import (
    DomainError,
    InadmissibleWindowError,
    SchemaError,
)
from minann.experiments import SCENARIOS, _build, random_even_vertical_flux, random_three_term_pair
from minann.families import (
    admissible_annulus,
    catenoid_cover,
    figure_eight,
    perturbed_two_cover,
)
from minann.laurent import COEFF_REL_TOL, TWO_PI, AnnulusWindow, LaurentPoly
from minann.measures import circle_length, total_curvature
from minann.weierstrass import (
    Parity,
    PeriodVerdict,
    Slab,
    WeierstrassData,
    _dense_span,
    _immersion,
    data_from_json,
    data_to_json,
    flux,
    from_g_pair,
    gauss_winding,
    height,
    immerse,
    metric_lambda_samples,
    period_check,
    period_checks,
    symmetry_check,
    winding_class,
)

WINDOW = AnnulusWindow(0.5, 2.0)


def make_even(gm_coeffs, gp_coeffs, window=WINDOW):
    return from_g_pair(
        LaurentPoly(gm_coeffs), LaurentPoly(gp_coeffs), Parity.EVEN, window
    )


def _differentials_by_ring_operations(data):
    """phi1, phi2, phi3 as difference or sum, shift and scale, one at a time."""
    return (
        (data.f_minus - data.f_plus).shifted(-1) * 0.5,
        (data.f_minus + data.f_plus).shifted(-1) * 0.5j,
        data.psi3.shifted(-1),
    )


def _lambda_by_three_evaluations(data, z):
    """The conformal factor from three separately checked evaluate calls."""
    total = np.zeros(np.shape(z), dtype=float)
    for p in (data.phi1, data.phi2, data.phi3):
        total += np.abs(p.evaluate(z)) ** 2
    return np.sqrt(0.5 * total)


class TestAssembly:
    def test_differentials_match_ring_operations(self):
        cases = [figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05)]
        cases += [catenoid_cover(k, 1.0)[0] for k in (1, 2, 3)]
        rng = np.random.default_rng(5)
        cases += [random_even_vertical_flux(rng) for _ in range(4)]
        cases += [random_three_term_pair(rng) for _ in range(4)]
        assert {data.parity for data in cases} == set(Parity)
        for data in cases:
            expected = _differentials_by_ring_operations(data)
            assert data.phi1.terms == expected[0].terms
            assert data.phi2.terms == expected[1].terms
            assert data.phi3.terms == expected[2].terms

    def test_squared_combinations_and_product_channel(self):
        data = make_even({0: 1.0, 1: 0.3}, {-1: 3.0})
        # conformality: the product channel squared equals the product of
        # the squared combinations, coefficient for coefficient.
        resid = data.psi3 * data.psi3 - data.f_minus * data.f_plus
        assert resid.max_abs_coeff <= 1e-12 * data.f_minus.max_abs_coeff

    def test_odd_parity_inserts_one_shift(self):
        gm, gp = LaurentPoly({0: 1.0}), LaurentPoly({-1: 1.0})
        data = from_g_pair(gm, gp, Parity.ODD, WINDOW)
        assert data.f_minus.terms == ((1, 1.0 + 0j),)
        assert data.f_plus.terms == ((-1, 1.0 + 0j),)
        assert data.psi3.terms == ((0, 1.0 + 0j),)

    def test_rejects_root_inside_window(self):
        with pytest.raises(InadmissibleWindowError):
            make_even({0: -1.0, 1: 1.0}, {0: 1.0})  # root at z = 1

    def test_rejects_zero_factor(self):
        with pytest.raises(DomainError):
            from_g_pair(LaurentPoly(), LaurentPoly({0: 1.0}), Parity.EVEN, WINDOW)

    # (g- exponent, g+ exponent) at a dense width of 2048: the span holds
    # z^-1 and z^0, and monomials have no roots to solve.
    @pytest.mark.parametrize("gm, gp", [(1023, -1024), (2046, 2046), (-2047, -2047)])
    def test_accepts_the_widest_span(self, gm, gp):
        assert weierstrass.MAX_DENSE_WIDTH == 2048
        data = from_g_pair(
            LaurentPoly.monomial(gm), LaurentPoly.monomial(gp), Parity.ODD, WINDOW
        )
        assert (data.g_minus.lowest, data.g_plus.lowest) == (gm, gp)

    @pytest.mark.parametrize(
        "gm, gp", [(1024, -1024), (2047, 2047), (-2048, -2048), (-2, 2046)]
    )
    def test_refuses_a_wider_span(self, gm, gp):
        with pytest.raises(DomainError, match="dense width of 2049 above the limit 2048"):
            from_g_pair(LaurentPoly.monomial(gm), LaurentPoly.monomial(gp), Parity.EVEN, WINDOW)

    # Factor exponent ranges (lowest, highest), many of them without z^-1 or z^0.
    @given(
        st.lists(
            st.lists(st.integers(-3000, 3000), min_size=2, max_size=2).map(sorted),
            min_size=2,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_dense_span_equals_the_pair_and_stack_formulas(self, ranges):
        lows, highs = [r[0] for r in ranges], [r[1] for r in ranges]
        # from_g_pair's former gate, on the first two factors
        pair_lo = min(-1, lows[0], lows[1])
        pair = (pair_lo, max(0, highs[0], highs[1]) - pair_lo + 1)
        assert _dense_span(min(lows[:2]), max(highs[:2])) == pair
        # period_checks' former row layout, on the whole stack
        stack_lo = min(-1, min(lows))
        assert _dense_span(min(lows), max(highs)) == (stack_lo, max(0, max(highs)) - stack_lo + 1)

    def test_refuses_a_wide_span_before_solving_roots(self, monkeypatch):
        def no_roots(p):
            raise AssertionError("roots called")

        monkeypatch.setattr(weierstrass, "roots", no_roots)
        wide = LaurentPoly({-1: 1.0, 0: 2.0, 10**8: 1e-30})
        with pytest.raises(DomainError, match="dense width of 100000002"):
            from_g_pair(wide, LaurentPoly({0: 1.0}), Parity.EVEN, WINDOW)


DIFFERENTIALS = ("phi1", "phi2", "phi3")


def _with_parity(data, parity):
    """The same factor pair and window under the given parity; admissible,
    since admissibility reads only the factors and the window."""
    return from_g_pair(data.g_minus, data.g_plus, parity, data.window, data.height_offset)


def _residue_cases():
    """Catalog surfaces, catenoid covers, seeded random draws, and each one's
    copy under the other parity."""
    cases = [_build(s.family, s.defaults) for s in SCENARIOS.values() if s.family]
    cases += [catenoid_cover(k, f3)[0] for k in (1, 2, 3, 4) for f3 in (1.0, TWO_PI, 10.0)]
    rng = np.random.default_rng(11)
    cases += [random_even_vertical_flux(rng) for _ in range(20)]
    cases += [random_three_term_pair(rng) for _ in range(20)]
    other = {Parity.EVEN: Parity.ODD, Parity.ODD: Parity.EVEN}
    return cases + [_with_parity(data, other[data.parity]) for data in cases]


class TestDataModel:
    def test_fields_are_the_defining_five(self):
        names = [field.name for field in dataclasses.fields(WeierstrassData)]
        assert names == ["g_minus", "g_plus", "parity", "window", "height_offset"]

    def test_period_residues_are_the_dz_residues_bit_for_bit(self):
        cases = _residue_cases()
        assert {data.parity for data in cases} == set(Parity)
        for data in cases:
            residues = period_check(data).residues
            # repr tells signed zeros apart
            expected = tuple(getattr(data, name).coefficient(-1) for name in DIFFERENTIALS)
            assert repr(residues) == repr(expected)

    @pytest.mark.parametrize(
        "read",
        [
            period_check,
            lambda data: period_checks([catenoid_cover(2, 1.0)[0], data]),
            flux,
            symmetry_check,
            winding_class,
            lambda data: circle_length(data, 1.0),
            lambda data: total_curvature(data, n_theta=64),
        ],
        ids=[
            "period_check", "period_checks", "flux", "symmetry_check", "winding_class",
            "circle_length", "total_curvature",
        ],
    )
    def test_checks_build_no_differential(self, read):
        data = figure_eight(1.0, 1.0)
        read(data)
        assert not set(DIFFERENTIALS) & set(vars(data))

    def test_immersion_builds_the_differentials(self):
        data = figure_eight(1.0, 1.0)
        # an equal surface immersed earlier would be served from the cache
        _immersion.cache_clear()
        immerse(data, 1.0 + 0j)
        assert set(DIFFERENTIALS) <= set(vars(data))

    def test_equal_builds_stay_equal_whatever_they_cached(self):
        first, second = figure_eight(1.0, 1.0), figure_eight(1.0, 1.0)
        for name in ("f_minus", "f_plus", "psi3", *DIFFERENTIALS):
            getattr(first, name)
        assert set(vars(first)) != set(vars(second))
        assert first == second and hash(first) == hash(second)
        assert _with_parity(first, Parity.ODD) != second


class TestImmersion:
    def test_catenoid_closed_form(self):
        data, _ = catenoid_cover(1, TWO_PI)
        for r, theta in [(0.8, 0.3), (1.0, 0.0), (1.7, 2.4)]:
            z = r * math.e ** (1j * theta) if False else r * np.exp(1j * theta)
            pt = immerse(data, z)
            t = math.log(r)
            assert np.hypot(pt[0], pt[1]) == pytest.approx(math.cosh(t), rel=1e-12)
            assert pt[2] == pytest.approx(t, abs=1e-12)
            assert height(data, z) == pytest.approx(t, abs=1e-12)

    def test_height_offset_shifts_third_coordinate(self):
        base, _ = catenoid_cover(1, TWO_PI)
        lifted, _ = catenoid_cover(1, TWO_PI, center=0.25)
        z = 1.3 + 0.4j
        assert height(lifted, z) == pytest.approx(height(base, z) + 0.25, rel=1e-12)

    def test_coordinates_are_harmonic(self):
        data = perturbed_two_cover(1.0, 0.05)
        # five-point Laplacian in (log r, theta) on each coordinate
        h = 1e-3
        z0 = 1.1 * np.exp(0.7j)
        t0, th0 = math.log(1.1), 0.7

        def at(t, th):
            return immerse(data, math.exp(t) * np.exp(1j * th))

        lap = (
            at(t0 + h, th0)
            + at(t0 - h, th0)
            + at(t0, th0 + h)
            + at(t0, th0 - h)
            - 4.0 * at(t0, th0)
        ) / h**2
        scale = np.max(np.abs(at(t0, th0))) + 1.0
        assert np.max(np.abs(lap)) <= 1e-6 * scale

    def test_metric_factor_matches_curve_speed(self):
        data = figure_eight(1.0, 1.0)
        r, th = 1.2, 0.9
        z = r * np.exp(1j * th)
        h = 1e-5
        dtheta = (immerse(data, r * np.exp(1j * (th + h))) - immerse(
            data, r * np.exp(1j * (th - h))
        )) / (2.0 * h)
        speed = float(np.linalg.norm(dtheta))
        lam = metric_lambda_samples(data, np.array([z]))[0]
        assert lam == pytest.approx(speed / r, rel=1e-8)

    def test_rejects_origin(self):
        data, _ = catenoid_cover(1, TWO_PI)
        with pytest.raises(DomainError):
            immerse(data, 0.0)

    def test_metric_factor_equals_three_evaluations(self):
        cases = [figure_eight(1.0, 1.0), perturbed_two_cover(1.0, 0.05)]
        cases += [catenoid_cover(k, 1.0)[0] for k in (1, 2, 3)]
        rng = np.random.default_rng(17)
        cases += [random_even_vertical_flux(rng) for _ in range(4)]
        cases += [random_three_term_pair(rng) for _ in range(4)]
        assert {data.parity for data in cases} == set(Parity)
        for data in cases:
            lo, hi = data.window.log_span()
            t = rng.uniform(lo, hi, size=(3, 37))
            z = np.exp(t + 1j * rng.uniform(0.0, TWO_PI, size=t.shape))
            for points in (z[0], z, z[0, 0], complex(z[1, 2])):  # (n,), (k, n), 0-d
                got = metric_lambda_samples(data, points)
                expected = _lambda_by_three_evaluations(data, points)
                assert np.shape(got) == np.shape(expected)
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize(
        "points",
        [0.0, np.array([1.0, 0.0]), np.array([[1.0, np.inf]]), complex(math.nan, 1.0)],
        ids=["origin", "origin_in_array", "infinite", "nan"],
    )
    def test_metric_factor_rejects_bad_points(self, points):
        with pytest.raises(DomainError):
            metric_lambda_samples(figure_eight(1.0, 1.0), points)


def _period_check_by_products(data):
    """The verdict read off the Laurent products f-, f+ and psi3 of one data
    set, as period_check formed it before the stacked kernel."""
    m, p = data.f_minus.coefficient(0), data.f_plus.coefficient(0)
    scale = max(data.f_minus.max_abs_coeff, data.f_plus.max_abs_coeff)
    mean = max(abs(m), abs(p))
    residues = (0j + 0.5 * m + -0.5 * p, 0j + 0.5j * m + 0.5j * p, data.psi3.coefficient(0))
    height_scale = max(data.psi3.max_abs_coeff, 1e-300)
    return PeriodVerdict(
        flux_slack=COEFF_REL_TOL - mean / scale,
        log_slack=COEFF_REL_TOL - abs(residues[2].imag) / height_scale,
        residues=residues,
    )


def _period_stack():
    """Both parities of the residue cases, catenoid covers whose f-/f+ lack a
    constant term, a figure-eight and 200 draws from each generator."""
    covers = [catenoid_cover(k, 3.0)[0] for k in (1, 2, 5, 6)]
    assert all(0 not in data.f_minus.coeffs for data in covers)
    rng = np.random.default_rng(23)
    return (
        _residue_cases() + covers + [figure_eight(1.0, 1.0)]
        + random_even_vertical_flux(rng, size=200) + random_three_term_pair(rng, size=200)
    )


class TestPeriodKernel:
    def test_stack_equals_each_member_alone(self):
        stack = _period_stack()
        assert {data.parity for data in stack} == set(Parity)
        # repr tells signed zeros apart
        assert [repr(v) for v in period_checks(stack)] == [repr(period_check(d)) for d in stack]

    def test_members_equal_the_laurent_products(self):
        # Fresh copies hold no cached product; period_checks builds none.
        stack = [dataclasses.replace(data) for data in _period_stack()]
        verdicts = period_checks(stack)
        assert not {"f_minus", "f_plus", "psi3"} & {key for d in stack for key in vars(d)}
        assert [repr(v) for v in verdicts] == [repr(_period_check_by_products(d)) for d in stack]

    def test_pruned_and_absent_constants(self):
        # The z^0 coefficients of f- (first set) and of psi3 (second set,
        # negative) fall below PRUNE_EPS, which construction drops as an
        # absent +0j; f+ has no z^0 coefficient at all.
        stack = [
            make_even({-1: 1e-160, 1: 1e-160, 3: 1.0}, {1: 2.0}),
            make_even({-1: 1e-160, 3: 1.0}, {1: -1e-160, 2: 2.0}),
        ]
        for data in stack:
            assert 0 not in data.f_minus.coeffs and 0 not in data.f_plus.coeffs
        assert 0 not in stack[1].psi3.coeffs
        assert [repr(v) for v in period_checks(stack)] == [
            repr(_period_check_by_products(data)) for data in stack
        ]

    def test_overflowing_product_raises(self):
        data = make_even({0: 1.0, 1: 1e200}, {0: 1.0})
        with pytest.raises(DomainError):
            period_checks([figure_eight(1.0, 1.0), data])

    def test_empty_stack(self):
        assert period_checks([]) == []

    def test_widest_cover_checks_in_memory_linear_in_its_span(self):
        # The k = 2047 cover spans 2049 slots: every product a_i b_j at once
        # would take three (3, 2049, 2049) arrays, about 300 MB.
        data = catenoid_cover(2047, TWO_PI)[0]
        tracemalloc.start()
        try:
            verdict = period_checks((data,))[0]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert verdict.well_defined
        assert peak < 16 * 2**20

    def test_period_check_runs_the_kernel_once_per_data_set(self, monkeypatch):
        stacks = []

        def recording(stack):
            stacks.append(len(stack))
            return period_checks(stack)

        monkeypatch.setattr(weierstrass, "period_checks", recording)
        data = figure_eight(1.0, 1.0)
        first = period_check(data)
        assert flux(data).f3 > 0.0 and period_check(data) is first
        twin = dataclasses.replace(data)
        assert repr(period_check(twin)) == repr(first)
        assert stacks == [1, 1]


class TestPeriodsAndFlux:
    def test_catenoid_flux_is_prescribed(self):
        for k in (1, 2, 3):
            data, params = catenoid_cover(k, 5.0)
            verdict = period_check(data)
            assert verdict.well_defined and verdict.vertical_flux
            fl = flux(data)
            assert fl.f3 == pytest.approx(5.0, rel=1e-12)
            assert abs(fl.f1) <= 1e-12 and abs(fl.f2) <= 1e-12
            assert params.f3 == pytest.approx(5.0)

    def test_flux_matches_mean_height_slope(self):
        # independent quadrature oracle: the circle-mean of the third
        # coordinate grows linearly in log r with slope f3 / (2*pi).
        data = figure_eight(1.0, 1.0)
        f3 = flux(data).f3
        theta = TWO_PI * np.arange(512) / 512
        r1, r2 = 0.8, 1.45
        m1 = float(np.mean(immerse(data, r1 * np.exp(1j * theta))[:, 2]))
        m2 = float(np.mean(immerse(data, r2 * np.exp(1j * theta))[:, 2]))
        slope = (m2 - m1) / (math.log(r2) - math.log(r1))
        assert f3 == pytest.approx(TWO_PI * slope, rel=1e-10)
        # The ray slope d(height)/dr = Re psi3(z) / |z|, times r, has circle mean f3 / (2 pi).
        for r in (r1, r2):
            z = r * np.exp(1j * theta)
            ray_slope = data.psi3.evaluate(z).real / np.abs(z)
            assert f3 == pytest.approx(TWO_PI * r * float(np.mean(ray_slope)), rel=1e-12)

    def test_nonvanishing_mean_fails_vertical_flux(self):
        data = make_even({0: 1.0, 1: 0.25}, {0: 1.0, -1: 0.25})
        verdict = period_check(data)
        assert not verdict.vertical_flux
        assert not verdict.well_defined

    def test_flux_requires_passing_periods(self):
        data = make_even({0: 1.0, 1: 0.25}, {0: 1.0, -1: 0.25})
        from minann.errors import PreconditionError

        with pytest.raises(PreconditionError):
            flux(data)


class TestSymmetry:
    def test_symmetric_families_pass(self):
        assert symmetry_check(perturbed_two_cover(1.0, 0.05))
        assert symmetry_check(figure_eight(1.0, 1.0))
        data, _ = catenoid_cover(2, TWO_PI)
        assert symmetry_check(data)

    def test_asymmetric_data_fails(self):
        data = make_even({0: 1.0, 1: 0.25}, {-1: 2.0})
        assert not symmetry_check(data)

    def test_odd_catenoid_covers_pass(self):
        for k in (1, 3, 5):
            data, _ = catenoid_cover(k, 5.0, center=0.3)
            assert data.parity is Parity.ODD
            assert symmetry_check(data)

    @pytest.mark.parametrize("seed", range(8))
    def test_odd_identity_matches_sampled_reflection(self, seed):
        # Reference: the reflection predicate sampled on three circles.  A
        # pair g_plus = u z^-1 conj_reflect(g_minus) with |u| = 1 keeps the
        # ratio condition for every u, and psi3 is reflection-invariant only
        # for u = 1 or -1; an independent pair breaks both.
        rng = np.random.default_rng(seed)
        # g_minus = c (z - a)(z - b) / z with |a| < 1/2 and |b| > 2, so the
        # window around the unit circle stays wide for every pair below.
        a, b = np.exp(1j * rng.uniform(0.0, TWO_PI, 2)) * rng.uniform([0.1, 2.5], [0.4, 5.0])
        c = complex(*rng.standard_normal(2))
        g_minus = LaurentPoly({1: c, 0: -c * (a + b), -1: c * a * b})
        mirror = g_minus.conj_reflect().shifted(-1)
        cases = {
            "reflected": (mirror, True),
            "negated": (-mirror, True),
            "turned": (mirror * np.exp(1j * rng.uniform(0.1, 3.0)), False),
            "perturbed": (mirror + LaurentPoly({0: 1e-6 * mirror.max_abs_coeff}), False),
            "independent": (LaurentPoly({-2: 1.0, 0: 0.1 * np.exp(1j * rng.uniform(0, 3))}), False),
        }
        for name, (g_plus, expected) in cases.items():
            window = admissible_annulus(g_minus, g_plus)
            data = from_g_pair(g_minus, g_plus, Parity.ODD, window)
            gm = window.geometric_mean
            z = np.outer(
                [math.sqrt(window.r_inner * gm), gm, math.sqrt(window.r_outer * gm)],
                np.exp(1j * TWO_PI * np.arange(64) / 64),
            )
            w = 1.0 / np.conj(z)

            def reflected(p):
                return p.evaluate(w) * np.conj(p.evaluate(z))

            ratio = reflected(data.g_plus) / reflected(data.g_minus)
            psi_dev = np.abs(data.psi3.evaluate(w) - np.conj(data.psi3.evaluate(z)))
            sampled = bool(
                np.max(np.abs(ratio - 1.0)) <= 1e-10 * np.max(1.0 + np.abs(ratio))
                and np.max(psi_dev) <= 1e-10 * np.max(np.abs(data.psi3.evaluate(z)))
            )
            assert sampled is expected, name
            assert symmetry_check(data) is expected, name

    def test_reflection_identity_on_points(self):
        data = figure_eight(1.0, 1.0)
        rng = np.random.default_rng(3)
        for _ in range(25):
            r = float(rng.uniform(0.75, 1.35))
            th = float(rng.uniform(0.0, TWO_PI))
            z = r * np.exp(1j * th)
            direct = immerse(data, z)
            mirrored = immerse(data, 1.0 / np.conj(z))
            assert np.allclose(
                mirrored, direct * np.array([1.0, 1.0, -1.0]), atol=1e-10
            )


class TestWindings:
    def test_cover_windings_are_positive_degree(self):
        for k in (1, 2, 3):
            data, _ = catenoid_cover(k, TWO_PI)
            r = data.window.geometric_mean
            assert gauss_winding(data, r) == k
            assert winding_class(data) == k

    def test_family_winding_classes(self):
        perturbed = perturbed_two_cover(1.0, 0.05)
        assert gauss_winding(perturbed, perturbed.window.geometric_mean) == 2
        assert winding_class(perturbed) == 2
        fig8 = figure_eight(1.0, 1.0)
        assert gauss_winding(fig8, fig8.window.geometric_mean) == 0
        assert winding_class(fig8) == 0


class TestSerialization:
    def test_roundtrip_coefficient_exact(self):
        data = figure_eight(1.0 + 0.25j, 0.75)
        back = data_from_json(data_to_json(data))
        assert back.g_minus == data.g_minus
        assert back.g_plus == data.g_plus
        assert back.parity is data.parity
        assert back.window == data.window
        assert back.height_offset == data.height_offset

    def test_offset_survives_roundtrip(self):
        data, _ = catenoid_cover(1, TWO_PI, center=0.4)
        back = data_from_json(data_to_json(data))
        assert back.height_offset == pytest.approx(0.4)

    def test_schema_rejects_unknown_and_missing(self):
        doc = data_to_json(figure_eight(1.0, 1.0))
        bad = dict(doc)
        bad["junk"] = 1
        with pytest.raises(SchemaError):
            data_from_json(bad)
        missing = dict(doc)
        del missing["parity"]
        with pytest.raises(SchemaError):
            data_from_json(missing)
        with pytest.raises(SchemaError):
            data_from_json([1, 2, 3])

    @pytest.mark.parametrize(
        "field, value",
        [
            ("r_inner", "x"),
            ("r_outer", None),
            ("r_inner", True),
            ("height_offset", "up"),
            ("height_offset", [0.1]),
            ("g_minus", [["a", 1, 0]]),
            ("g_plus", [[1, None, 0]]),
            ("g_minus", [[1e400, 1, 0]]),
        ],
    )
    def test_schema_decodes_every_number(self, field, value):
        doc = data_to_json(figure_eight(1.0, 1.0))
        if field.startswith("r_"):
            doc["window"][field] = value
        else:
            doc[field] = value
        with pytest.raises(SchemaError):
            data_from_json(doc)


class TestSlab:
    def test_basic_geometry(self):
        s = Slab(-0.5, 1.5)
        assert s.center == pytest.approx(0.5)
        assert s.half_width == pytest.approx(1.0)
        with pytest.raises(DomainError):
            Slab(1.0, 1.0)

    @pytest.mark.parametrize("half", [0.25, 1e-300, 3.0])
    def test_symmetric_reads_the_half_width_unsigned(self, half):
        assert Slab.symmetric(-half) == Slab.symmetric(half) == Slab(-half, half)
        assert Slab.symmetric(-half).half_width == half

    @pytest.mark.parametrize("half", [0.0, -0.0, math.nan, math.inf])
    def test_symmetric_refuses_an_empty_or_unbounded_slab(self, half):
        with pytest.raises(DomainError):
            Slab.symmetric(half)
