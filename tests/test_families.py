"""Tests for the concrete family constructors and slab clipping."""

import argparse
import json
import math

import numpy as np
import pytest

from minann import (
    AnnulusWindow,
    CatenoidParams,
    DomainError,
    EmptySlabError,
    EmptyWindowError,
    InadmissibleParametersError,
    LaurentPoly,
    Parity,
    SCENARIOS,
    SchemaError,
    Slab,
    admissible_annulus,
    attained_height_range,
    catenoid_cover,
    clip_to_slab,
    data_from_json,
    family_from_spec,
    figure_eight,
    figure_eight_pair,
    from_g_pair,
    period_check,
    perturbed_two_cover,
    perturbed_two_cover_pair,
    roots,
)
from minann import cli
from minann.errors import ConvergenceError, GeometryError
from minann.experiments import _build
from minann.families import DEFAULT_MARGIN, FAMILIES, admissible_annuli
from minann.laurent import COEFF_REL_TOL, solve_roots

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


def _admissible_annulus_by_scalars(g_minus, g_plus, margin=DEFAULT_MARGIN):
    """The one-pair reference: Python floats from the sorted moduli on."""
    moduli = sorted(abs(z) for z in roots(g_minus) + roots(g_plus))
    anchor = math.exp(sum(math.log(m) for m in moduli) / len(moduli)) if moduli else 1.0
    lo = max((m for m in moduli if m < anchor), default=0.0)
    hi = min((m for m in moduli if m > anchor), default=math.inf)
    if any(m == anchor for m in moduli):
        raise EmptyWindowError("the anchor radius coincides with a root modulus")
    lo = (anchor / math.e if lo == 0.0 else lo) * (1.0 + margin)
    hi = (anchor * math.e if hi == math.inf else hi) / (1.0 + margin)
    if not lo < hi:
        raise EmptyWindowError(
            f"margin {margin} empties the gap ({lo / (1 + margin):.6g}, {hi * (1 + margin):.6g})"
        )
    return AnnulusWindow(lo, hi)


def _window_bits(window):
    if isinstance(window, GeometryError):
        return type(window).__name__, str(window)
    return window.r_inner.hex(), window.r_outer.hex()


def _outcome(build, *args):
    try:
        return _window_bits(build(*args))
    except GeometryError as exc:
        return _window_bits(exc)


def _random_pairs(count, seed):
    """Factor pairs with random exponent spans in [-3, 3] and complex normal coefficients."""
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(count):
        pair = []
        for _ in range(2):
            low = int(rng.integers(-3, 1))
            high = int(rng.integers(low, 4))
            c = rng.standard_normal((high - low + 1, 2))
            pair.append(LaurentPoly({n: complex(*c[n - low]) for n in range(low, high + 1)}))
        pairs.append(tuple(pair))
    return pairs


def _catalog_pairs():
    data = [catenoid_cover(k, TWO_PI)[0] for k in (1, 2, 3, 4)]
    data += [perturbed_two_cover(1.0, 0.05), figure_eight(1.0, 1.0), figure_eight_pair(1, 1, 1, 1)]
    return [(d.g_minus, d.g_plus) for d in data]


def _modulus_past_its_anchor(above: bool) -> float:
    """A modulus m whose one-root anchor exp(log m) lies above (or below) m."""
    for k in range(1, 1000):
        m = 50.0 + k / 8.0
        anchor = math.exp(math.log(m))
        if (anchor > m) if above else (anchor < m):
            return m
    raise AssertionError("no such modulus in the scan")


class TestAdmissibleAnnuli:
    """The stacked windows against one-pair calls and the scalar reference."""

    @pytest.mark.parametrize("margin", [DEFAULT_MARGIN, 0.01, 0.3])
    def test_random_pairs_equal_one_pair_calls(self, margin):
        pairs = _random_pairs(1000, seed=int(margin * 1000))
        solve_roots([g for pair in pairs for g in pair])
        stacked = [_window_bits(w) for w in admissible_annuli(pairs, margin)]
        single = [_outcome(admissible_annulus, *pair, margin) for pair in pairs]
        scalar = [_outcome(_admissible_annulus_by_scalars, *pair, margin) for pair in pairs]
        assert stacked == single == scalar
        # The draw covers windows and both kinds of empty gap.
        kinds = {bits[0] if bits[0] == "EmptyWindowError" else "window" for bits in stacked}
        assert kinds == {"window", "EmptyWindowError"}

    def test_catalog_pairs_equal_one_pair_calls(self):
        pairs = _catalog_pairs()
        stacked = [_window_bits(w) for w in admissible_annuli(pairs)]
        assert stacked == [_outcome(admissible_annulus, *pair) for pair in pairs]
        assert stacked == [_outcome(_admissible_annulus_by_scalars, *pair) for pair in pairs]
        assert all(isinstance(w, AnnulusWindow) for w in admissible_annuli(pairs))

    def test_root_free_covers_take_the_unit_anchor(self):
        covers = _catalog_pairs()[:4]
        want = ((1.0 / math.e) * 1.05, math.e / 1.05)
        for window in admissible_annuli(covers):
            assert (window.r_inner, window.r_outer) == want

    def test_anchor_on_a_modulus_in_a_stack(self):
        one = LaurentPoly.monomial(0, 1.0)
        on_root = (LaurentPoly({0: 1.0, 1: 1.0}), one)  # root -1, anchor 1
        windows = admissible_annuli([_catalog_pairs()[4], on_root, _catalog_pairs()[5]])
        assert isinstance(windows[0], AnnulusWindow) and isinstance(windows[2], AnnulusWindow)
        assert _window_bits(windows[1]) == (
            "EmptyWindowError", "the anchor radius coincides with a root modulus"
        )

    def test_margin_that_empties_the_gap(self):
        tight = (LaurentPoly({0: 0.9999, 1: 2.0, 2: 1.0}), LaurentPoly.monomial(0, 1.0))
        (window,) = admissible_annuli([tight], 0.05)
        assert isinstance(window, EmptyWindowError)
        assert str(window).startswith("margin 0.05 empties the gap (0.99")
        assert _window_bits(window) == _outcome(_admissible_annulus_by_scalars, *tight, 0.05)

    @pytest.mark.parametrize("above", [True, False])
    def test_unbounded_side_falls_back(self, above):
        # One root at m: exp(log m) misses m by an ulp, so one side of the
        # gap has no modulus and falls back to anchor*e or anchor/e.
        m = _modulus_past_its_anchor(above)
        pair = (LaurentPoly({0: -m, 1: 1.0}), LaurentPoly.monomial(0, 1.0))
        assert roots(pair[0]) == [m]
        (window,) = admissible_annuli([pair])
        anchor = math.exp(math.log(m))
        if above:
            assert window.r_outer == anchor * math.e / 1.05 and window.r_inner == m * 1.05
        else:
            assert window.r_inner == anchor / math.e * 1.05 and window.r_outer == m / 1.05
        assert _window_bits(window) == _outcome(_admissible_annulus_by_scalars, *pair)

    def test_tied_moduli_and_ragged_rows(self):
        # Roots +-1/2 and +-2: tied moduli around the anchor 1.
        tied = (LaurentPoly({0: -4.0, 2: 1.0}), LaurentPoly({0: -0.25, 2: 1.0}))
        assert sorted(abs(z) for z in roots(tied[0]) + roots(tied[1])) == [0.5, 0.5, 2.0, 2.0]
        stack = [tied, *_catalog_pairs(), *_random_pairs(20, seed=5), tied]
        windows = admissible_annuli(stack)
        assert (windows[0].r_inner, windows[0].r_outer) == (0.5 * 1.05, 2.0 / 1.05)
        assert [_window_bits(w) for w in windows] == [
            _outcome(_admissible_annulus_by_scalars, *pair) for pair in stack
        ]

    def test_uncertified_member_keeps_its_error(self, monkeypatch):
        # Cubic companions come back off by 1e-9 relative and fail the
        # certificate; the member's entry is the error its own call raises.
        solve = np.linalg.eigvals
        monkeypatch.setattr(
            np.linalg, "eigvals", lambda a: solve(a) * (1.0 + 1e-9 * (a.shape[-1] == 3))
        )
        cubic = (LaurentPoly({-1: 1.0, 0: 0.3, 2: 1.0}), LaurentPoly.monomial(0, 1.0))
        pairs = [_catalog_pairs()[5], cubic, _catalog_pairs()[6]]
        solve_roots([g for pair in pairs for g in pair])
        windows = admissible_annuli(pairs)
        assert isinstance(windows[1], ConvergenceError)
        assert "residual certificate" in str(windows[1])
        assert [_window_bits(w) for w in windows] == [_outcome(admissible_annulus, *p) for p in pairs]
        with pytest.raises(ConvergenceError, match="residual certificate"):
            admissible_annulus(*cubic)

    def test_zero_factor_and_margin_errors(self):
        zero = (LaurentPoly(), LaurentPoly.monomial(0, 1.0))
        (window,) = admissible_annuli([zero])
        assert isinstance(window, DomainError)
        with pytest.raises(DomainError, match="zero expression"):
            admissible_annulus(*zero)
        with pytest.raises(DomainError, match="margin must lie in"):
            admissible_annuli([zero], margin=1.0)
        assert admissible_annuli([]) == []


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
        with pytest.raises(InadmissibleParametersError, match="c2 must be nonzero"):
            perturbed_two_cover_pair(1.0, 0.01, 0.0, 0.01)

    def test_rejects_large_perturbation(self):
        with pytest.raises(InadmissibleParametersError):
            perturbed_two_cover(1.0, 0.25)
        with pytest.raises(InadmissibleParametersError, match=r"\|eps2\| must stay below"):
            perturbed_two_cover_pair(1.0, 0.01, 1.0, 0.25)
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

    def test_period_check_catches_broken_constraint(self):
        # delta = 0.2 instead of the derived -eps^2/(2c): f- = g-^2 keeps the
        # circle mean eps^2 + 2 delta c = 0.41 against its largest
        # coefficient 1 (of z^2), and f+ = conj_reflect(g-)^2 mirrors it
        gm = LaurentPoly({1: 1.0, 0: 0.1, -1: 0.2})
        gp = gm.conj_reflect()
        verdict = period_check(from_g_pair(gm, gp, Parity.EVEN, admissible_annulus(gm, gp)))
        assert verdict.flux_slack == pytest.approx(COEFF_REL_TOL - 0.41, abs=1e-15)
        assert verdict.vertical_flux is False


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
        data = family_from_spec(
            {"family": "catenoid_cover", "params": {"k": 2, "f3": 5.0, "center": 0.1}}
        )
        ref, _ = catenoid_cover(2, 5.0, center=0.1)
        assert data.g_minus.terms == ref.g_minus.terms
        assert data.g_plus.terms == ref.g_plus.terms
        assert data.height_offset == ref.height_offset == 0.1

    def test_catenoid_spec_takes_integral_numbers(self):
        # JSON writes 3.0 for an integral k; integers stand for real fields.
        data = family_from_spec(
            {"family": "catenoid_cover", "params": {"k": 3.0, "f3": 5, "center": 0}}
        )
        ref, _ = catenoid_cover(3, 5.0)
        assert data.g_minus.terms == ref.g_minus.terms
        assert data.g_plus.terms == ref.g_plus.terms

    def test_perturbed_spec_with_complex_pairs(self):
        data = family_from_spec(
            {
                "family": "perturbed_two_cover",
                "params": {"c1": [1.0, 0.5], "eps1": [0.1, 0.05]},
            }
        )
        ref = perturbed_two_cover(1.0 + 0.5j, 0.1 + 0.05j)
        assert data.g_minus.terms == ref.g_minus.terms

    def test_figure_eight_asymmetric_spec(self):
        data = family_from_spec(
            {
                "family": "figure_eight",
                "symmetric": False,
                "params": {"a_m1": 1.0, "a_1": 1.0, "b_m1": 1.0, "b_1": 1.0},
            }
        )
        ref = figure_eight_pair(1.0, 1.0, 1.0, 1.0)
        assert data.g_plus.terms == ref.g_plus.terms

    def test_margin_field_is_honored(self):
        loose = family_from_spec({"family": "figure_eight", "margin": 0.02})
        tight = family_from_spec({"family": "figure_eight", "margin": 0.2})
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
            {"family": "figure_eight", "symmetric": False, "params": {"a_m1": 1, "a_1": 1}},
            {"family": "perturbed_two_cover", "symmetric": False, "params": {"c1": 1}},
            {"family": "catenoid_cover", "params": {"k": 2.5}},
            {"family": "catenoid_cover", "params": {"k": True}},
            {"family": "catenoid_cover", "params": {"k": "2"}},
            {"family": "catenoid_cover", "params": {"f3": "x"}},
            {"family": "catenoid_cover", "params": {"f3": [1, 0]}},
            {"family": "catenoid_cover", "params": {"center": "x"}},
            {"family": "catenoid_cover", "params": {"center": True}},
            {"family": "figure_eight", "params": {"a_m1": ["a", 1]}},
            {"family": "figure_eight", "params": {"a_m1": [1, None]}},
            {"family": "figure_eight", "params": {"a_1": True}},
            {"family": "figure_eight", "margin": "x"},
            {"family": "figure_eight", "margin": None},
            {"family": ["x"]},
            {"family": "figure_eight", "symmetric": "false"},
            {"family": "figure_eight", "symmetric": 0},
            {"family": "catenoid_cover", "params": {"f3": math.nan}},
            {"family": "catenoid_cover", "params": {"center": 10**400}},
        ],
    )
    def test_schema_rejections(self, spec):
        with pytest.raises(SchemaError):
            family_from_spec(spec)


# One catalog instance per family: the table's spec defaults, overridden by
# the defaults of the scenarios that build that family.
CATALOG_PARAMS = {
    family: {
        key: next(
            (s.defaults[key] for s in SCENARIOS.values() if s.family == family), default
        )
        for key, default in entry.params.items()
    }
    for family, entry in FAMILIES.items()
}
PAIRS = {
    "perturbed_two_cover": {"c1": 1 + 0j, "eps1": 0.05 + 0j, "c2": 1 + 0.2j, "eps2": 0.03 - 0.01j},
    "figure_eight": {"a_m1": 1 + 0j, "a_1": 1 + 0j, "b_m1": 1.1 + 0.1j, "b_1": 0.9 + 0j},
}


def _gen(family: str, params: dict, capsys, asymmetric: bool = False):
    """The data that ``minann gen`` writes, given one flag per param."""
    argv = ["gen", "--family", family] + (["--asymmetric"] if asymmetric else [])
    for key, value in params.items():
        text = f"{value.real!r},{value.imag!r}" if isinstance(value, complex) else repr(value)
        argv.append(f"--{key.replace('_', '-')}={text}")
    assert cli.main(argv) == 0
    return data_from_json(json.loads(capsys.readouterr().out))


def _spec(family: str, params: dict, symmetric: bool = True):
    """The same params written as a JSON family spec, complex as [re, im]."""
    as_json = {
        key: [value.real, value.imag] if isinstance(value, complex) else value
        for key, value in params.items()
    }
    return family_from_spec({"family": family, "params": as_json, "symmetric": symmetric})


def _assert_same(*instances):
    first, *rest = instances
    for data in rest:
        assert data.g_minus.terms == first.g_minus.terms
        assert data.g_plus.terms == first.g_plus.terms
        assert data.window == first.window
        assert data.parity is first.parity
        assert data.height_offset == first.height_offset


class TestFamilyTable:
    @pytest.mark.parametrize("family", list(FAMILIES))
    def test_gen_spec_and_scenario_build_agree(self, family, capsys):
        params = CATALOG_PARAMS[family]
        _assert_same(
            _gen(family, params, capsys),
            _spec(family, params),
            _build(family, {**params, "margin": DEFAULT_MARGIN}),
        )

    @pytest.mark.parametrize("family", list(PAIRS))
    def test_asymmetric_gen_and_spec_agree(self, family, capsys):
        params = PAIRS[family]
        _assert_same(
            _gen(family, params, capsys, asymmetric=True),
            _spec(family, params, symmetric=False),
            FAMILIES[family].pair(**params),
        )

    def test_every_table_param_has_one_gen_flag_of_its_kind(self):
        parser = cli.build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        gen = sub.choices["gen"]
        flags = {a.dest: a for a in gen._actions}
        assert flags["family"].choices == list(FAMILIES)
        kinds = {int: int, float: float, complex: cli.parse_complex}
        table = set()
        for family, entry in FAMILIES.items():
            for key, default in {**entry.params, **dict.fromkeys(entry.pair_params, 0j)}.items():
                table.add(key)
                [flag] = [a for a in gen._actions if a.dest == key]
                assert flag.option_strings == ["--" + key.replace("_", "-")]
                assert flag.type is kinds[type(default)]
                assert family in flag.help
        assert set(flags) - table == {"help", "family", "margin", "asymmetric", "out"}
