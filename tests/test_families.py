"""Tests for the concrete family constructors and slab clipping."""

import cmath
import math

import pytest

from minann import (
    AnnulusWindow,
    CatenoidParams,
    DomainError,
    EmptySlabError,
    EmptyWindowError,
    FigureEightParams,
    InadmissibleParametersError,
    LaurentPoly,
    Parity,
    PerturbedCoverParams,
    SchemaError,
    Slab,
    admissible_annulus,
    attained_height_range,
    catenoid_cover,
    clip_to_slab,
    family_from_spec,
    figure_eight,
    figure_eight_pair,
    perturbed_two_cover,
    perturbed_two_cover_pair,
    roots,
)

TWO_PI = 2.0 * math.pi

# Root-free factors put the window at (1.05/e, e/1.05); frozen for reuse.
NO_ROOT_INNER = 1.05 / math.e
NO_ROOT_OUTER = math.e / 1.05


class TestAdmissibleAnnulus:
    def test_no_roots_falls_back_to_unit_anchor(self):
        g = LaurentPoly.monomial(2, 3.0)
        w = admissible_annulus(g, LaurentPoly.monomial(-1, 1.0))
        assert w.r_inner == pytest.approx(NO_ROOT_INNER, rel=1e-15)
        assert w.r_outer == pytest.approx(NO_ROOT_OUTER, rel=1e-15)

    def test_margin_shrinks_both_ends(self):
        g = LaurentPoly.monomial(0, 1.0)
        wide = admissible_annulus(g, g, margin=0.01)
        narrow = admissible_annulus(g, g, margin=0.25)
        assert narrow.r_inner > wide.r_inner
        assert narrow.r_outer < wide.r_outer

    @pytest.mark.parametrize("margin", [0.0, 1.0, -0.2, 3.0])
    def test_margin_outside_open_interval_rejected(self, margin):
        g = LaurentPoly.monomial(0, 1.0)
        with pytest.raises(DomainError):
            admissible_annulus(g, g, margin=margin)

    def test_anchor_on_root_modulus_is_empty(self):
        # single root at -1 puts the geometric-mean anchor on its modulus
        g = LaurentPoly({0: 1.0, 1: 1.0})
        with pytest.raises(EmptyWindowError):
            admissible_annulus(g, LaurentPoly.monomial(0, 1.0))

    def test_tight_gap_emptied_by_margin(self):
        # roots at -0.99 and -1.01: the gap ratio is below (1 + margin)^2
        g = LaurentPoly({0: 0.9999, 1: 2.0, 2: 1.0})
        mods = sorted(abs(z) for z in roots(g))
        assert mods == pytest.approx([0.99, 1.01], rel=1e-12)
        with pytest.raises(EmptyWindowError):
            admissible_annulus(g, LaurentPoly.monomial(0, 1.0), margin=0.05)

    def test_window_avoids_every_root_modulus(self):
        data = figure_eight(1.0, 1.0)
        mods = [abs(z) for z in roots(data.g_minus) + roots(data.g_plus)]
        for m in mods:
            assert not (data.window.r_inner <= m <= data.window.r_outer)


class TestCatenoidCover:
    def test_even_cover_coefficients(self):
        f3 = 5.0
        data, params = catenoid_cover(2, f3)
        s = math.sqrt(f3 / TWO_PI)
        assert data.parity is Parity.EVEN
        assert data.g_minus.terms == ((1, s + 0j),)
        assert data.g_plus.terms == ((-1, s + 0j),)
        assert params == CatenoidParams(f3=f3, center=0.0, cover=2)

    def test_odd_cover_coefficients(self):
        data, params = catenoid_cover(3, TWO_PI)
        assert data.parity is Parity.ODD
        assert data.g_minus.terms == ((1, 1.0 + 0j),)
        assert data.g_plus.terms == ((-2, 1.0 + 0j),)
        assert params.cover == 3

    def test_simple_catenoid_squared_combinations(self):
        data, _ = catenoid_cover(1, TWO_PI)
        assert data.f_minus.terms == ((1, 1.0 + 0j),)
        assert data.f_plus.terms == ((-1, 1.0 + 0j),)

    def test_center_becomes_height_offset(self):
        data, params = catenoid_cover(1, TWO_PI, center=0.3)
        assert data.height_offset == 0.3
        assert params.center == 0.3
        lo, hi = attained_height_range(data)
        assert lo == pytest.approx(0.3 + math.log(NO_ROOT_INNER), abs=1e-12)
        assert hi == pytest.approx(0.3 + math.log(NO_ROOT_OUTER), abs=1e-12)

    def test_rejects_bad_order_and_flux(self):
        with pytest.raises(DomainError):
            catenoid_cover(0, TWO_PI)
        with pytest.raises(DomainError):
            catenoid_cover(2, -1.0)
        with pytest.raises(DomainError):
            catenoid_cover(2, math.nan)


class TestPerturbedTwoCover:
    def test_derived_coefficients(self):
        c1, eps1 = 1.0 + 0.5j, 0.1 + 0.05j
        data = perturbed_two_cover(c1, eps1)
        delta1 = -(eps1**2) / (2.0 * c1)
        assert dict(data.g_minus.terms) == {1: c1, 0: eps1, -1: delta1}
        assert dict(data.g_plus.terms) == {
            -1: c1.conjugate(),
            0: eps1.conjugate(),
            1: delta1.conjugate(),
        }

    def test_factor_means_vanish_after_squaring(self):
        data = perturbed_two_cover(2.0, 0.3j)
        assert abs(data.f_minus.coefficient(0)) <= 1e-15
        assert abs(data.f_plus.coefficient(0)) <= 1e-15

    def test_frozen_window_and_attained_range(self):
        data = perturbed_two_cover(1.0, 0.05)
        assert data.window.r_inner == pytest.approx(0.07171633369868304, rel=1e-12)
        assert data.window.r_outer == pytest.approx(13.94382490607385, rel=1e-12)
        lo, hi = attained_height_range(data)
        assert hi == pytest.approx(1.8273743448803634, rel=1e-9)
        assert lo == pytest.approx(-hi, abs=1e-9)

    def test_rejects_zero_cover_coefficient(self):
        with pytest.raises(InadmissibleParametersError):
            perturbed_two_cover(0.0, 0.01)

    def test_rejects_large_perturbation(self):
        with pytest.raises(InadmissibleParametersError):
            perturbed_two_cover(1.0, 0.25)
        # just below the bound is fine
        perturbed_two_cover(1.0, 0.2499)

    def test_asymmetric_flag_points_at_pair_constructor(self):
        # the symmetric constructor is the pair with conjugated parameters
        c1, eps1 = 1.0 + 0.5j, 0.1 + 0.05j
        data = perturbed_two_cover(c1, eps1)
        pair = perturbed_two_cover_pair(c1, eps1, c1.conjugate(), eps1.conjugate())
        assert data.g_minus.terms == pair.g_minus.terms
        assert data.g_plus.terms == pair.g_plus.terms

    def test_pair_constructor_keeps_both_factors(self):
        data = perturbed_two_cover_pair(1.0, 0.05, 2.0, 0.1j)
        assert data.g_minus.coefficient(1) == 1.0
        assert data.g_plus.coefficient(-1) == 2.0
        assert abs(data.f_minus.coefficient(0)) <= 1e-15
        assert abs(data.f_plus.coefficient(0)) <= 1e-15

    def test_params_validate_catches_broken_constraint(self):
        params = PerturbedCoverParams(
            c1=1.0, eps1=0.1, delta1=0.2, c2=1.0, eps2=0.0, delta2=0.0
        )
        with pytest.raises(InadmissibleParametersError):
            params.validate()


class TestFigureEight:
    def test_frozen_window_and_attained_range(self):
        data = figure_eight(1.0, 1.0)
        assert data.window.r_inner == pytest.approx(0.5435199947152936, rel=1e-12)
        assert data.window.r_outer == pytest.approx(1.8398587167410825, rel=1e-12)
        lo, hi = attained_height_range(data)
        assert hi == pytest.approx(0.8939220807154908, rel=1e-9)
        assert lo == pytest.approx(-hi, abs=1e-9)

    def test_middle_coefficient_squares_to_constraint(self):
        # the outer coefficients need matching magnitudes: the partner factor
        # mirrors the root moduli, so a magnitude skew empties the shared gap
        data = figure_eight(2.0, 2.0j)
        a0 = data.g_minus.coefficient(0)
        assert a0**2 + 2.0 * data.g_minus.coefficient(-1) * data.g_minus.coefficient(
            1
        ) == pytest.approx(0.0, abs=1e-13)
        assert data.g_plus.coefficient(-1) == (2.0j).conjugate()
        assert data.g_plus.coefficient(1) == 2.0

    def test_root_moduli_straddle_the_window(self):
        data = figure_eight(1.0, 1.0)
        for g in (data.g_minus, data.g_plus):
            mods = sorted(abs(z) for z in roots(g))
            assert len(mods) == 2
            assert mods[0] < data.window.r_inner
            assert mods[1] > data.window.r_outer
        # frozen moduli of z^-1 + i sqrt(2) + z on the span polynomial
        mods = sorted(abs(z) for z in roots(data.g_minus))
        assert mods[0] == pytest.approx((math.sqrt(6) - math.sqrt(2)) / 2, rel=1e-12)
        assert mods[1] == pytest.approx((math.sqrt(6) + math.sqrt(2)) / 2, rel=1e-12)

    def test_rejects_zero_outer_coefficient(self):
        with pytest.raises(InadmissibleParametersError):
            figure_eight(0.0, 1.0)
        with pytest.raises(InadmissibleParametersError):
            figure_eight(1.0, 0.0)

    def test_asymmetric_flag_points_at_pair_constructor(self):
        # the symmetric partner is the conjugate reflection, b_0 = -i sqrt 2;
        # the pair constructor takes the principal root b_0 = +i sqrt 2
        data = figure_eight(1.0, 1.0)
        assert data.g_plus.terms == data.g_minus.conj_reflect().terms
        assert data.g_plus.coefficient(0) == -1j * math.sqrt(2.0)
        pair = figure_eight_pair(1.0, 1.0, 1.0, 1.0)
        assert pair.g_minus.terms == data.g_minus.terms
        assert pair.g_plus.coefficient(0) == 1j * math.sqrt(2.0)
        assert pair.g_plus.terms != data.g_plus.terms

    def test_pair_rejects_non_straddling_factor(self):
        # second factor's roots (moduli ~5.18 and ~19.3) sit entirely outside
        # the shared gap, so its levels cannot close into a figure-eight
        with pytest.raises(InadmissibleParametersError):
            figure_eight_pair(1.0, 1.0, 10.0, 0.1)

    def test_params_validate_catches_broken_constraint(self):
        params = FigureEightParams(
            a_m1=1.0, a_0=1.0, a_1=1.0, b_m1=1.0, b_0=cmath.sqrt(-2.0), b_1=1.0
        )
        with pytest.raises(InadmissibleParametersError):
            params.validate()


class TestSlabClipping:
    def test_catenoid_attained_range_closed_form(self):
        data, _ = catenoid_cover(1, TWO_PI)
        lo, hi = attained_height_range(data)
        assert lo == pytest.approx(math.log(NO_ROOT_INNER), abs=1e-12)
        assert hi == pytest.approx(math.log(NO_ROOT_OUTER), abs=1e-12)

    def test_clip_intersects_request_with_attained(self):
        data, _ = catenoid_cover(1, TWO_PI)
        hi = math.log(NO_ROOT_OUTER)
        slab = clip_to_slab(data, Slab(-0.5, 10.0))
        assert slab.h_minus == -0.5
        assert slab.h_plus == pytest.approx(hi, abs=1e-12)
        inside = clip_to_slab(data, Slab(-0.1, 0.2))
        assert (inside.h_minus, inside.h_plus) == (-0.1, 0.2)

    def test_disjoint_request_raises(self):
        data, _ = catenoid_cover(1, TWO_PI)
        with pytest.raises(EmptySlabError):
            clip_to_slab(data, Slab(2.0, 3.0))

    def test_figure_eight_clip_is_symmetric(self):
        data = figure_eight(1.0, 1.0)
        slab = clip_to_slab(data, Slab(-10.0, 10.0))
        assert slab.h_plus == pytest.approx(-slab.h_minus, abs=1e-9)
        assert slab.h_plus == pytest.approx(0.8939220807154908, rel=1e-9)


class TestFamilyFromSpec:
    def test_catenoid_spec(self):
        data, cat = family_from_spec(
            {"family": "catenoid_cover", "params": {"k": 2, "f3": 5.0, "center": 0.1}}
        )
        ref, ref_cat = catenoid_cover(2, 5.0, center=0.1)
        assert cat == ref_cat
        assert data.g_minus.terms == ref.g_minus.terms

    def test_perturbed_spec_with_complex_pairs(self):
        data, cat = family_from_spec(
            {
                "family": "perturbed_two_cover",
                "params": {"c1": [1.0, 0.5], "eps1": [0.1, 0.05]},
            }
        )
        assert cat is None
        ref = perturbed_two_cover(1.0 + 0.5j, 0.1 + 0.05j)
        assert data.g_minus.terms == ref.g_minus.terms

    def test_figure_eight_asymmetric_spec(self):
        data, _ = family_from_spec(
            {
                "family": "figure_eight",
                "symmetric": False,
                "params": {"a_m1": 1.0, "a_1": 1.0, "b_m1": 1.0, "b_1": 1.0},
            }
        )
        ref = figure_eight_pair(1.0, 1.0, 1.0, 1.0)
        assert data.g_plus.terms == ref.g_plus.terms

    def test_margin_field_is_honored(self):
        loose, _ = family_from_spec({"family": "figure_eight", "margin": 0.02})
        tight, _ = family_from_spec({"family": "figure_eight", "margin": 0.2})
        assert tight.window.r_inner > loose.window.r_inner

    @pytest.mark.parametrize(
        "spec",
        [
            [],
            {"family": "unknown_family"},
            {"family": "figure_eight", "extra": 1},
            {"family": "figure_eight", "params": [1, 2]},
            {"family": "figure_eight", "params": {"a_m1": [1, 2, 3]}},
            {"family": "figure_eight", "params": {"a_m1": "one"}},
            {"family": "figure_eight", "params": {"a_m": 2}},
            {"family": "figure_eight", "params": {"b_m1": 1.0, "b_1": 1.0}},
            {"family": "perturbed_two_cover", "params": {"c2": 1.0, "eps2": 0.1}},
            {"family": "perturbed_two_cover", "params": {"a_m1": 1.0}},
            {"family": "catenoid_cover", "params": {"c1": 1.0}},
            {"family": "catenoid_cover", "symmetric": False},
        ],
    )
    def test_schema_rejections(self, spec):
        with pytest.raises(SchemaError):
            family_from_spec(spec)
