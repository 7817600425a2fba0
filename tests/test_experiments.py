"""Tests for the scenario catalog, comparison operations, and sweeps."""

import dataclasses
import functools
import json
import math
import re
from typing import NamedTuple

import numpy as np
import pytest

from minann import (
    AnnulusWindow,
    CatenoidParams,
    LevelCurve,
    MeasureReport,
    Parity,
    PreconditionError,
    SCENARIOS,
    Slab,
    Verdict,
    WeierstrassData,
    catenoid_cover,
    classify_levels,
    clip_to_slab,
    compare_areas,
    compare_lengths,
    data_to_json,
    figure_eight,
    flux,
    from_g_pair,
    height,
    period_check,
    length_profile,
    profile_radii,
    random_even_vertical_flux,
    random_three_term_pair,
    run_scenario,
    slab_area,
    sweep_scenario,
    total_curvature,
    trace_level,
    trace_levels,
    waist_height,
)
from minann import measures
from minann.errors import DomainError, MultivaluedDataError
from minann.experiments import (
    ENSEMBLE_CHUNK,
    _ensemble_chunks,
    _round_factors,
    _three_term_rows,
    _vertical_flux_rows,
)
from minann.families import _three_term_factor, admissible_annulus
from minann.laurent import COEFF_REL_TOL, LaurentPoly

import ensemble_oracle

CATALOG_NAMES = {
    "lemma_3_1",
    "lemma_3_4_identity",
    "theorem_3_5",
    "prop_3_6_symmetry",
    "prop_3_7",
    "theorem_3_8",
    "theorem_4_1",
    "corollary_4_2",
    "theorem_4_3",
    "step_two",
    "total_curvature_8pi",
}

# Scenarios where every default-parameter verdict passes.
ALL_PASS = CATALOG_NAMES - {"prop_3_7", "theorem_3_8"}


@pytest.fixture(scope="module")
def catalog_reports():
    return {name: run_scenario(name) for name in SCENARIOS}


class TestCatalog:
    def test_names(self):
        assert set(SCENARIOS) == CATALOG_NAMES

    def test_entries_are_well_formed(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.summary
            assert isinstance(scenario.defaults, dict)

    def test_every_report_carries_provenance(self, catalog_reports):
        for name, report in catalog_reports.items():
            assert report.scenario == name
            prov = report.provenance
            assert prov["scenario"] == name
            assert prov["theta_nodes"] == 512
            assert prov["tool"].startswith("minann ")
            assert report.verdicts


class TestScenarioOutcomes:
    def test_expected_overall_outcomes(self, catalog_reports):
        for name in ALL_PASS:
            failing = [
                k for k, v in catalog_reports[name].verdicts.items() if not v.passed
            ]
            assert not failing, f"{name} unexpectedly failed {failing}"
        assert not catalog_reports["prop_3_7"].all_pass
        assert not catalog_reports["theorem_3_8"].all_pass

    def test_random_ensemble_convexity_floor(self, catalog_reports):
        report = catalog_reports["lemma_3_1"]
        assert report.quantities["datasets"] == 100.0
        assert report.verdicts["dd_above_2L"].margin == pytest.approx(
            44.72830414762, rel=1e-6
        )

    def test_three_term_identity_residual(self, catalog_reports):
        report = catalog_reports["lemma_3_4_identity"]
        assert report.quantities["max_relative_residual"] <= 1e-14

    def test_perturbed_cover_defect_constants(self, catalog_reports):
        q = catalog_reports["theorem_3_5"].quantities
        expected = -4.0 * math.pi * 2.0 * 0.05**2
        assert q["computed_defect"] == pytest.approx(expected, rel=1e-12)
        # for the symmetric default the three reported conventions coincide
        assert q["minus_8pi_mean_square"] == pytest.approx(expected, rel=1e-12)
        assert q["minus_8pi_eps1_square"] == pytest.approx(expected, rel=1e-12)
        assert q["max_defect"] == pytest.approx(expected, abs=1e-9)
        assert q["winding_class"] == 2.0

    def test_perturbed_traced_direction_reverses(self, catalog_reports):
        # Parameter circles are not levels of the perturbed cover, so the
        # circle route (margin (D/4)(cosh 2t - 1) > 0) says nothing about
        # the traced levels.  Their margin obeys L_cat - L =
        # -18 pi eps^2 sinh^2 h cosh 2h + O(eps^4): -6.195e-3 at eps = 0.05,
        # h = 0.2, against the pinned -6.2656e-3, the rest being the O(eps^4)
        # remainder.  Acceptance C5 checks that law.
        report = catalog_reports["prop_3_7"]
        traced = report.verdicts["traced_level_lengths"]
        circle = report.verdicts["circle_route_lengths"]
        assert not traced.passed
        assert traced.margin == pytest.approx(-6.265600348967e-03, rel=1e-6)
        assert circle.passed
        assert circle.margin == pytest.approx(4.884524463122e-06, rel=1e-6)
        assert report.verdicts["waist_equals_flux"].passed

    def test_perturbed_area_direction_reverses(self, catalog_reports):
        # A_cat - A_slab = -24 pi eps^2 sinh^3 H cosh 3H + O(eps^4):
        # -1.824e-3 at eps = 0.05, H = 0.2, against the pinned -1.8477e-3.
        # Acceptance C6 checks that law.
        report = catalog_reports["theorem_3_8"]
        area = report.verdicts["area_comparison"]
        assert not area.passed
        assert area.margin == pytest.approx(-1.847675375840e-03, rel=1e-6)
        # but the measurement collapses onto the closed form as eps -> 0
        assert report.verdicts["control_margin_collapses"].passed
        assert report.quantities["control_relative_margin"] <= 1e-8

    def test_figure_eight_convexity_band(self, catalog_reports):
        report = catalog_reports["theorem_4_1"]
        assert report.quantities["winding_class"] == 0.0
        assert report.verdicts["dd_above_2L"].margin == pytest.approx(
            7.751352947345e-03, rel=1e-6
        )
        assert report.quantities["crossings_min"] == 1.0
        assert report.quantities["crossings_max"] == 1.0

    def test_winding_zero_identity_and_cover_fd(self, catalog_reports):
        report = catalog_reports["corollary_4_2"]
        assert report.verdicts["identity_closed_form"].passed
        assert report.quantities["cover_fd_relative_error"] == pytest.approx(
            2.083362e-06, rel=1e-3
        )
        # the two second-derivative readings at the waist are both reported;
        # they differ structurally because circles are not levels here
        assert "figure_eight_traced_dd0" in report.quantities
        assert "figure_eight_circle_dd0" in report.quantities

    def test_figure_eight_beats_matched_and_marginal(self, catalog_reports):
        report = catalog_reports["theorem_4_3"]
        assert report.verdicts["traced_level_lengths"].margin == pytest.approx(
            5.463388771112e-04, rel=1e-6
        )
        assert report.verdicts["area_above_matched_catenoid"].margin == pytest.approx(
            4.805167368296e-02, rel=1e-6
        )
        assert report.verdicts["area_above_marginal"].passed
        assert abs(report.quantities["waist_height"]) <= 1e-6
        assert report.quantities["marginal_ratio"] == pytest.approx(
            1.1996786402577338, abs=1e-9
        )

    def test_figure_eight_below_double_cover(self, catalog_reports):
        report = catalog_reports["step_two"]
        assert report.verdicts["traced_level_lengths"].margin == pytest.approx(
            2.890687143875e-05, rel=1e-6
        )
        assert report.verdicts["circle_route_lengths"].margin == pytest.approx(
            3.834971475349e-04, rel=1e-6
        )
        assert report.verdicts["area_below_cover"].margin == pytest.approx(
            1.227758996814e-03, rel=1e-6
        )

    def test_total_curvature_targets(self, catalog_reports):
        q = catalog_reports["total_curvature_8pi"].quantities
        assert q["total_curvature"] == pytest.approx(-8.0 * math.pi, rel=0.02)
        assert q["catenoid_total_curvature"] == pytest.approx(
            -4.0 * math.pi, rel=1e-3
        )

    def test_reports_are_deterministic(self):
        for name in ("step_two", "lemma_3_4_identity"):
            first = json.dumps(run_scenario(name).to_json(), sort_keys=True)
            second = json.dumps(run_scenario(name).to_json(), sort_keys=True)
            assert first == second


class TestCompareLengths:
    def test_rejects_asymmetric_data(self):
        gm = LaurentPoly.monomial(1, 1.0)
        gp = LaurentPoly.monomial(-1, 2.0)
        data = from_g_pair(gm, gp, Parity.EVEN, admissible_annulus(gm, gp))
        with pytest.raises(PreconditionError):
            compare_lengths(data, CatenoidParams(2.0, 0.0, 1), Slab(-0.1, 0.1))

    def test_rejects_flux_mismatch(self):
        data, cat = catenoid_cover(2, 5.0)
        wrong = CatenoidParams(f3=5.1, center=0.0, cover=2)
        with pytest.raises(PreconditionError):
            compare_lengths(data, wrong, Slab(-0.1, 0.1))

    def test_rejects_bad_expectation(self):
        data, cat = catenoid_cover(2, 5.0)
        with pytest.raises(PreconditionError):
            compare_lengths(data, cat, Slab(-0.1, 0.1), expect="sideways")

    @pytest.mark.parametrize("grid", [0, -1])
    def test_rejects_grid_below_one(self, grid):
        data, cat = catenoid_cover(2, 5.0)
        with pytest.raises(DomainError, match=f"grid must be an integer of at least 1, got {grid}$"):
            compare_lengths(data, cat, Slab(-0.1, 0.1), grid=grid)

    def test_rejects_grid_with_only_the_waist(self):
        # a one-point grid is h_minus, where this cover's waist sits
        data, cat = catenoid_cover(2, 5.0, center=-0.1)
        with pytest.raises(PreconditionError, match="no nonzero heights"):
            compare_lengths(data, cat, Slab(-0.1, 0.1), grid=1)

    def test_explicit_grid_and_both_routes_reported(self):
        data = figure_eight(1.0, 1.0)
        f3 = 8.0 * math.pi
        cat = CatenoidParams(f3=f3, center=0.0, cover=2)
        slab = clip_to_slab(data, Slab(-0.2, 0.2))
        # heights -0.2, -0.1, 0.1, 0.2; the waist height 0 is skipped
        report = compare_lengths(data, cat, slab, grid=5, expect="below")
        assert report.verdicts["traced_level_lengths"].passed
        assert report.verdicts["circle_route_lengths"].passed
        for key in (
            "traced_margin_min",
            "traced_margin_max",
            "circle_margin_min",
            "traced_waist_length",
        ):
            assert key in report.quantities
        assert report.quantities["traced_waist_length"] == pytest.approx(f3, rel=1e-9)

    def test_covers_clipped_to_their_attained_range(self):
        # the clipped slab edges map onto the window circles, give or take an ulp
        for k in (1, 2, 3, 4):
            for f3 in (1.0, 2.0, 2.0 * math.pi, 4.0, 10.0):
                data, cat = catenoid_cover(k, f3)
                report = compare_lengths(data, cat, clip_to_slab(data, Slab(-50.0, 50.0)))
                for key in ("traced_margin_min", "traced_margin_max", "circle_margin_min"):
                    assert abs(report.quantities[key]) <= 1e-13 * f3, (k, f3, key)


class TestCompareAreasAndLevels:
    def test_area_comparison_on_exact_cover(self):
        data, cat = catenoid_cover(2, 5.0)
        slab = Slab(-0.2, 0.2)
        report = compare_areas(data, cat, slab, expect="below")
        # the cover is its own closed form, so the margin is pure quadrature
        assert report.quantities["area_sigma"] == pytest.approx(
            report.quantities["area_catenoid"], rel=1e-12
        )

    def test_marginal_block_optional(self):
        data, cat = catenoid_cover(2, 5.0)
        slab = Slab(-0.2, 0.2)
        without = compare_areas(data, cat, slab, expect="above")
        assert "area_marginal_waist" not in without.quantities
        with_marginal = compare_areas(
            data, cat, slab, expect="above", include_marginal=True
        )
        assert with_marginal.verdicts["area_above_marginal"].passed
        assert with_marginal.quantities["marginal_f3"] > 0.0

    def test_rejects_bad_expectation(self):
        data, cat = catenoid_cover(2, 5.0)
        with pytest.raises(PreconditionError):
            compare_areas(data, cat, Slab(-0.1, 0.1), expect="around")

    def test_double_cover_levels_are_degenerate(self):
        data, _ = catenoid_cover(2, 5.0)
        report = classify_levels(
            data, Slab(-0.2, 0.2), n_levels=5, expected_crossings=0
        )
        assert report.verdicts["expected_crossings"].passed
        assert report.quantities["multiplicity_max"] == 2.0
        assert report.quantities["degenerate_cover"] == 1.0

    def test_figure_eight_levels_cross_once(self):
        data = figure_eight(1.0, 1.0)
        slab = clip_to_slab(data, Slab(-0.25, 0.25))
        report = classify_levels(data, slab, n_levels=5, expected_crossings=1)
        assert report.verdicts["expected_crossings"].passed
        assert "degenerate_cover" not in report.quantities


    @pytest.mark.parametrize("n_levels", [0, -3])
    def test_rejects_fewer_than_one_level_before_tracing(self, n_levels, monkeypatch):
        def no_trace(*args, **kwargs):
            raise AssertionError("traced before the level count was checked")

        monkeypatch.setattr("minann.experiments.trace_levels", no_trace)
        with pytest.raises(DomainError, match=f"n_levels must be an integer of at least 1, got {n_levels}$"):
            classify_levels(figure_eight(1.0, 1.0), Slab(-0.2, 0.2), n_levels=n_levels)


def _composed_report(name: str, data, n_theta: int, grid: int) -> MeasureReport:
    """theorem_4_3 or step_two at the default slab, composed from the public
    waist_height, compare_lengths and compare_areas, each tracing its own
    levels."""
    slab = clip_to_slab(data, Slab.symmetric(0.25))
    report = MeasureReport(name)
    if name == "step_two":
        cat = CatenoidParams(f3=flux(data).f3, center=0.0, cover=2)
        report.merge(compare_lengths(data, cat, slab, grid, "below", n_theta))
        report.merge(
            compare_areas(data, cat, slab, "below", n_theta=n_theta),
            quantities=("area_sigma", "area_catenoid"),
            verdicts={"area_comparison": "area_below_cover"},
        )
        return report
    h0, waist_len = waist_height(data, slab, n_theta)
    report.quantities.update(waist_height=h0, waist_length=waist_len)
    cat = CatenoidParams(f3=flux(data).f3, center=h0, cover=1)
    report.merge(
        compare_lengths(data, cat, slab, grid, "above", n_theta),
        quantities={"traced_margin_min": "length_margin_min"},
        verdicts=("traced_level_lengths",),
    )
    report.merge(
        compare_areas(data, cat, slab, "above", include_marginal=True, n_theta=n_theta),
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
    return report


class TestSharedTraces:
    @pytest.mark.parametrize("grid", [33, 20, 8])
    @pytest.mark.parametrize("name", ["theorem_4_3", "step_two"])
    def test_solves_each_height_once(self, name, grid, monkeypatch):
        # At grid 33 the waist scan is every other grid height; at 20 and 8
        # the waist search traces the scan heights the grid lacks.
        solved = []
        original = measures._solve_levels

        def recording(data, hs, rays):
            solved.extend(float(h + 0.0).hex() for h in hs)  # -0.0 is 0.0
            return original(data, hs, rays)

        monkeypatch.setattr(measures, "_solve_levels", recording)
        run_scenario(name, {"grid": grid}, n_theta=512)
        assert solved and len(solved) == len(set(solved))

    @pytest.mark.parametrize("grid", [33, 20, 8])
    @pytest.mark.parametrize("n_theta", [256, 512])
    @pytest.mark.parametrize("name", ["theorem_4_3", "step_two"])
    def test_equals_the_public_composition(self, name, n_theta, grid):
        # The scenario traces each height once and shares the curves; the
        # composition traces the waist, the grid and the slab ends apiece.
        data = figure_eight(1.0, 1.0)
        got = run_scenario(name, {"grid": grid}, n_theta=n_theta, data=data)
        want = _composed_report(name, data, n_theta, grid)
        for key, value in want.quantities.items():
            assert float(got.quantities[key]).hex() == float(value).hex(), key
        for key, verdict in want.verdicts.items():
            assert float(got.verdicts[key].margin).hex() == float(verdict.margin).hex(), key


def _violating_figure_eight():
    """figure_eight(1, 1) with a_0 = i sqrt(1.9) in place of its derived i sqrt(2)."""
    g_minus = LaurentPoly({-1: 1.0, 0: complex(0.0, math.sqrt(1.9)), 1: 1.0})
    g_plus = g_minus.conj_reflect()
    return from_g_pair(g_minus, g_plus, Parity.EVEN, admissible_annulus(g_minus, g_plus))


class TestRunScenario:
    def test_unknown_scenario(self):
        with pytest.raises(PreconditionError):
            run_scenario("lemma_9_9")

    def test_unknown_parameter(self):
        data = figure_eight(1.0, 1.0)
        cases = [
            ("step_two", {"slab_width": 0.3}, None),
            # scenarios take only the parameters of the family they build
            ("step_two", {"c1": 2.0}, None),
            ("step_two", {"eps1": 0.1}, None),
            ("theorem_3_8", {"a_m1": 2.0}, None),
            ("theorem_3_5", {"a_0": 1j}, None),
            ("lemma_3_1", {"a_0": 1j}, None),
            ("prop_3_6_symmetry", {"b_0": 1j}, None),
            ("theorem_4_1", {"b_0": 1j}, None),
            # with external data the family parameters would be ignored
            ("theorem_4_3", {"a_m1": 2.0}, data),
            ("theorem_4_1", {"a_0": 1j}, data),
            ("prop_3_6_symmetry", {"eps1": 0.1}, data),
            ("total_curvature_8pi", {"margin": 0.1}, data),
        ]
        for name, overrides, given in cases:
            with pytest.raises(PreconditionError):
                run_scenario(name, overrides, data=given)

    def test_deliberate_constraint_violation_fails_periods(self):
        # a_0 = i sqrt(1.9) leaves the squared factors with nonzero means
        report = run_scenario("theorem_4_1", data=_violating_figure_eight())
        assert not report.all_pass
        assert not report.verdicts["vertical_flux"].passed
        assert not report.verdicts["well_defined"].passed
        # f- = (1/z + i sqrt(1.9) + z)^2 keeps the circle mean 2 - 1.9 = 0.1
        # against its largest coefficient 2 sqrt(1.9), and f+ matches it
        slack = COEFF_REL_TOL - 0.1 / (2.0 * math.sqrt(1.9))
        assert slack == pytest.approx(-0.0362738125, abs=1e-10)
        assert report.verdicts["vertical_flux"].margin == pytest.approx(slack, rel=1e-12)
        assert report.verdicts["well_defined"].margin == pytest.approx(slack, rel=1e-12)
        # the runner stops before measuring anything downstream
        assert "dd_above_2L" not in report.verdicts

    def test_inadmissible_parameters_become_failing_verdict(self):
        report = run_scenario("theorem_3_5", {"eps1": 0.5 + 0.0j})
        assert not report.all_pass
        assert not report.verdicts["constructible"].passed
        assert "error" in report.provenance

    def test_external_data(self):
        data = figure_eight(1.0, 1.0)
        report = run_scenario("theorem_4_3", data=data)
        assert report.all_pass
        symmetry = run_scenario("prop_3_6_symmetry", data=data)
        assert symmetry.all_pass
        assert "data_reflection" in symmetry.verdicts

    def test_random_ensemble_scenarios_reject_external_data(self):
        data = figure_eight(1.0, 1.0)
        with pytest.raises(PreconditionError):
            run_scenario("lemma_3_1", data=data)

    def test_provenance_echoes_complex_inputs_as_pairs(self):
        report = run_scenario("theorem_3_5")
        assert report.provenance["inputs"]["eps1"] == [0.05, 0.0]
        assert report.provenance["inputs"]["c1"] == [1.0, 0.0]

    def test_report_json_shape(self):
        doc = run_scenario("theorem_3_5").to_json()
        assert set(doc) == {"scenario", "quantities", "verdicts", "provenance"}
        assert list(doc["verdicts"]) == sorted(doc["verdicts"])
        assert list(doc["quantities"]) == sorted(doc["quantities"])
        for verdict in doc["verdicts"].values():
            assert set(verdict) == {"pass", "margin"}
            assert isinstance(verdict["pass"], bool)
            assert isinstance(verdict["margin"], float)
        json.dumps(doc)  # must be serializable as-is


class TestSweep:
    def test_sign_changes_flag_where_inequalities_flip(self):
        rows = sweep_scenario("step_two", "slab_half", [0.3, 0.45])
        assert rows[0]["all_pass"]
        assert rows[0]["sign_changes"] == []
        assert not rows[1]["all_pass"]
        assert "area_below_cover" in rows[1]["sign_changes"]
        assert "traced_level_lengths" in rows[1]["sign_changes"]
        assert rows[1]["margins"]["area_below_cover"] < 0.0

    def test_sweep_steps_over_inadmissible_values(self):
        rows = sweep_scenario("theorem_3_5", "eps1", [0.05, 0.5])
        assert rows[0]["all_pass"]
        assert not rows[1]["all_pass"]
        assert rows[1]["margins"]["constructible"] == -math.inf


class TestGenerators:
    def test_random_even_vertical_flux_properties(self):
        rng = np.random.default_rng(7)
        data = random_even_vertical_flux(rng)
        assert data.parity is Parity.EVEN
        verdict = period_check(data)
        assert verdict.vertical_flux
        assert abs(data.f_minus.coefficient(0)) <= 1e-12
        assert abs(data.f_plus.coefficient(0)) <= 1e-12

    def test_random_even_vertical_flux_height_is_multivalued(self):
        # Only the flux half of the period check holds: psi3's z^0 coefficient
        # (the vertical residue) is complex, so the height is not single valued.
        rng = np.random.default_rng(1)
        for _ in range(5):
            data = random_even_vertical_flux(rng)
            verdict = period_check(data)
            assert verdict.vertical_flux and not verdict.well_defined
            with pytest.raises(MultivaluedDataError):
                height(data, 1.0)

    def test_random_three_term_identity_inputs(self):
        rng = np.random.default_rng(11)
        data = random_three_term_pair(rng)
        assert {n for n, _ in data.g_minus.terms} <= {-1, 0, 1}
        assert abs(data.f_minus.coefficient(0)) <= 1e-12
        assert abs(data.f_plus.coefficient(0)) <= 1e-12

    def test_generators_are_seed_deterministic(self):
        a = random_even_vertical_flux(np.random.default_rng(123))
        b = random_even_vertical_flux(np.random.default_rng(123))
        assert a.g_minus.terms == b.g_minus.terms
        assert a.g_plus.terms == b.g_plus.terms
        c = random_three_term_pair(np.random.default_rng(123))
        d = random_three_term_pair(np.random.default_rng(123))
        assert c.g_minus.terms == d.g_minus.terms


def _same_draw(a, b):
    """Same factor terms and window, bit for bit (repr keeps signed zeros)."""
    def bits(data):
        return repr((data.g_minus.terms, data.g_plus.terms, data.parity, data.window))

    return bits(a) == bits(b)


class TestEnsembleStream:
    """Batched draws against the one-at-a-time reference (ensemble_oracle)."""

    GENERATORS = [
        (random_even_vertical_flux, ensemble_oracle.random_even_vertical_flux, {}),
        (random_even_vertical_flux, ensemble_oracle.random_even_vertical_flux, {"max_exponent": 1}),
        (random_even_vertical_flux, ensemble_oracle.random_even_vertical_flux, {"max_exponent": 3}),
        (random_three_term_pair, ensemble_oracle.random_three_term_pair, {}),
    ]

    @pytest.mark.parametrize("batched, single, kwargs", GENERATORS)
    @pytest.mark.parametrize("seed", [20260814, 1, 7])
    def test_size_n_equals_n_single_draws(self, batched, single, kwargs, seed):
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        got = batched(rng, size=37, **kwargs)
        want = [single(ref, **kwargs) for _ in range(37)]
        assert len(got) == 37
        assert all(_same_draw(a, b) for a, b in zip(got, want))
        assert rng.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("batched, single, kwargs", GENERATORS)
    def test_size_none_is_one_single_draw(self, batched, single, kwargs):
        rng, ref = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(3):
            assert _same_draw(batched(rng, **kwargs), single(ref, **kwargs))
            assert rng.bit_generator.state == ref.bit_generator.state
        assert batched(rng, size=0, **kwargs) == []
        assert rng.bit_generator.state == ref.bit_generator.state

    class Recording:
        """An rng that records the shapes asked of it and serves the normals
        of ``stream`` in order, the stream of a generator at any chunking."""

        def __init__(self, stream):
            self.stream, self.used, self.calls = stream, 0, []

        def standard_normal(self, shape):
            self.calls.append(shape)
            count = math.prod(shape) if isinstance(shape, tuple) else shape
            out = self.stream[self.used:self.used + count]
            self.used += count
            return out.reshape(shape)

    def test_rounds_redraw_only_the_missing_sets(self):
        # Rejections leave sets missing; each round draws just those.
        recording = self.Recording(np.random.default_rng(20260814).standard_normal(100_000))
        random_even_vertical_flux(recording, size=100)
        calls = recording.calls
        assert calls[0] == (100, 16)
        assert len(calls) > 1
        assert [shape[0] for shape in calls] == sorted((shape[0] for shape in calls), reverse=True)

    @pytest.mark.parametrize(
        "batched, single, kwargs, edit",
        [
            # a_1 of the first g- is (0, -0): the attempt makes no pair.
            (random_three_term_pair, ensemble_oracle.random_three_term_pair, {}, {2: 0.0, 3: -0.0}),
            # z^2 of the first g- is pruned, so its round stacks two degrees.
            (random_even_vertical_flux, ensemble_oracle.random_even_vertical_flux, {},
             {4: 1e-301, 5: -1e-301}),
            # Signed zeros in the first g+ coefficients.
            (random_even_vertical_flux, ensemble_oracle.random_even_vertical_flux, {},
             {8: -0.0, 11: -0.0, 12: 0.0, 13: -0.0}),
        ],
    )
    def test_edited_stream_equals_single_draws(self, batched, single, kwargs, edit):
        stream = np.random.default_rng(5).standard_normal(100_000)
        stream[list(edit)] = list(edit.values())
        recording, reference = self.Recording(stream), self.Recording(stream)
        got = batched(recording, size=6, **kwargs)
        want = [single(reference, **kwargs) for _ in range(6)]
        assert all(_same_draw(a, b) for a, b in zip(got, want))
        assert recording.used == reference.used
        if batched is random_three_term_pair:
            # The zeroed attempt is rejected and one more set is drawn.
            assert recording.calls[:2] == [(6, 8), (1, 8)]
            assert got[0].g_minus.coefficient(-1) == complex(*stream[8:10])

    def test_hopeless_exponent_raises_the_same_error(self):
        # At max_exponent 8 nearly every draw leaves no admissible annulus.
        for draw in (
            lambda rng: random_even_vertical_flux(rng, 8, size=5),
            lambda rng: random_even_vertical_flux(rng, 8),
            lambda rng: ensemble_oracle.random_even_vertical_flux(rng, 8),
        ):
            with pytest.raises(PreconditionError, match="random data in 64 tries"):
                draw(np.random.default_rng(20260814))

    def test_negative_size_is_refused(self):
        with pytest.raises(DomainError, match="size must be an integer of at least 0, got -1$"):
            random_three_term_pair(np.random.default_rng(1), size=-1)

    @pytest.mark.parametrize("max_exponent", [0, -1, 1.5, "2", None])
    def test_bad_max_exponent_is_refused_before_drawing(self, max_exponent):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="max_exponent must be an integer of at least 1"):
            random_even_vertical_flux(rng, max_exponent)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("max_exponent", [1024, 1100, 10**9])
    def test_span_past_the_dense_limit_is_refused_before_drawing(self, max_exponent):
        # The factors span z^-m..z^m, wider than MAX_DENSE_WIDTH from m = 1024
        # on; from_g_pair would refuse every draw after its roots were solved.
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        width = 2 * max_exponent + 1
        with pytest.raises(DomainError, match=f"a dense width of {width} above the limit 2048"):
            random_even_vertical_flux(rng, max_exponent, size=2)
        assert rng.bit_generator.state == state

    def test_widest_span_below_the_limit_goes_on_to_draw(self, monkeypatch):
        monkeypatch.setattr("minann.experiments._draw", lambda rng, size, width, *_: width)
        assert random_even_vertical_flux(np.random.default_rng(1), 1023) == 8 * 1023

    @pytest.mark.parametrize("size", [1.5, "3", 2.0])
    @pytest.mark.parametrize("generator", [random_even_vertical_flux, random_three_term_pair])
    def test_non_integer_size_is_refused_before_drawing(self, generator, size):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        with pytest.raises(DomainError, match="size must be an integer"):
            generator(rng, size=size)
        assert rng.bit_generator.state == state

    def test_integer_like_arguments_are_accepted(self):
        rng, ref = np.random.default_rng(4), np.random.default_rng(4)
        got = random_even_vertical_flux(rng, np.int64(1), size=np.int64(3))
        assert all(_same_draw(a, b) for a, b in zip(got, random_even_vertical_flux(ref, 1, size=3)))


    @pytest.mark.parametrize("count", [1, ENSEMBLE_CHUNK + 1])
    @pytest.mark.parametrize("seed", [20260814, 1, 7])
    @pytest.mark.parametrize(
        "name, extra",
        [
            ("lemma_3_1", {"max_exponent": 1}),
            ("lemma_3_1", {"max_exponent": 3}),
            ("lemma_3_4_identity", {}),
        ],
    )
    def test_report_equals_the_single_draw_report(self, monkeypatch, name, extra, seed, count):
        overrides = {"seed": seed, "count": count, **extra}
        got = json.dumps(run_scenario(name, overrides).to_json(), sort_keys=True)
        reference = dataclasses.replace(SCENARIOS[name], measure=getattr(ensemble_oracle, name))
        monkeypatch.setitem(SCENARIOS, name, reference)
        assert got == json.dumps(run_scenario(name, overrides).to_json(), sort_keys=True)

    def test_chunks_cover_the_count(self):
        assert list(_ensemble_chunks(0)) == []
        assert list(_ensemble_chunks(ENSEMBLE_CHUNK)) == [ENSEMBLE_CHUNK]
        assert list(_ensemble_chunks(2 * ENSEMBLE_CHUNK + 3)) == [ENSEMBLE_CHUNK, ENSEMBLE_CHUNK, 3]


def _normals_with_edge_values(rows, width, seed):
    """Standard normals with a third of the entries replaced by 0.0, -0.0 or
    +-1e-301 (a coefficient of such parts is pruned), every 17th row all
    -0.0 and every 23rd from the 5th all 1e-301."""
    rng = np.random.default_rng(seed)
    normals = rng.standard_normal((rows, width))
    edges = np.array([0.0, -0.0, 1e-301, -1e-301])
    mask = rng.random((rows, width)) < 1 / 3
    normals[mask] = edges[rng.integers(0, 4, mask.sum())]
    normals[::17] = -0.0
    normals[5::23] = 1e-301
    return normals


def _coefficient_bits(poly):
    return [(n, c.real.hex(), c.imag.hex()) for n, c in poly.terms]


class TestRoundBuilders:
    """Array-built factor rows against LaurentPoly(dict) construction."""

    @staticmethod
    def _vertical_flux_factor(normals, max_exponent):
        pairs = zip(normals[0::2], normals[1::2])
        coeffs = {}
        for n in range(1, max_exponent + 1):
            for sign in (1, -1):
                re, im = next(pairs)
                coeffs[sign * n] = complex(re, im)
        cross = sum(coeffs[n] * coeffs[-n] for n in range(1, max_exponent + 1))
        coeffs[0] = 1j * np.sqrt(complex(2.0 * cross))
        return LaurentPoly(coeffs)

    @pytest.mark.parametrize("max_exponent", [1, 2, 3, 5])
    def test_vertical_flux_rows_equal_dict_construction(self, max_exponent):
        width = 4 * max_exponent
        normals = _normals_with_edge_values(400, 2 * width, seed=max_exponent)
        pairs = _round_factors(*_vertical_flux_rows(normals, max_exponent))
        for row, pair in zip(normals.tolist(), pairs):
            want = (
                self._vertical_flux_factor(row[:width], max_exponent),
                self._vertical_flux_factor(row[width:], max_exponent),
            )
            assert [_coefficient_bits(g) for g in pair] == [_coefficient_bits(g) for g in want]
        # The edge values reach signed zeros, pruned terms and zero factors.
        assert (np.signbit(normals) & (normals == 0.0)).any()
        assert any(len(g.terms) < 2 * max_exponent + 1 for pair in pairs for g in pair)
        assert any(g.is_zero for pair in pairs for g in pair)

    def test_three_term_rows_equal_dict_construction(self):
        normals = _normals_with_edge_values(600, 8, seed=11)
        pairs = _round_factors(*_three_term_rows(normals))
        rejected = 0
        for row, pair in zip(normals.tolist(), pairs):
            a_m1, a_1, b_m1, b_1 = (complex(row[k], row[k + 1]) for k in range(0, 8, 2))
            if 0 in (a_m1, a_1, b_m1, b_1):
                assert pair is None
                rejected += 1
                continue
            want = (_three_term_factor(a_m1, a_1), _three_term_factor(b_m1, b_1))
            assert [_coefficient_bits(g) for g in pair] == [_coefficient_bits(g) for g in want]
        assert 0 < rejected < len(pairs)

    def test_random_normals_equal_dict_construction(self):
        # Plain draws of each builder, whose constants take their square
        # roots on arrays where the reference takes them on scalars.
        normals = np.random.default_rng(8).standard_normal((5000, 16))
        for (gm, gp), row in zip(_round_factors(*_vertical_flux_rows(normals, 2)), normals.tolist()):
            assert _coefficient_bits(gm) == _coefficient_bits(self._vertical_flux_factor(row[:8], 2))
            assert _coefficient_bits(gp) == _coefficient_bits(self._vertical_flux_factor(row[8:], 2))
        for (gm, gp), row in zip(_round_factors(*_three_term_rows(normals[:, :8])), normals.tolist()):
            a_m1, a_1, b_m1, b_1 = (complex(row[k], row[k + 1]) for k in range(0, 8, 2))
            assert _coefficient_bits(gm) == _coefficient_bits(_three_term_factor(a_m1, a_1))
            assert _coefficient_bits(gp) == _coefficient_bits(_three_term_factor(b_m1, b_1))



class TestVerdictContract:
    """A check passes exactly when its signed margin is positive."""

    @staticmethod
    def disagreeing(report):
        doc = report.to_json()["verdicts"]
        return sorted(k for k, v in doc.items() if v["pass"] != (v["margin"] > 0.0))

    def test_default_catalog_at_512_nodes(self, catalog_reports):
        for name, report in catalog_reports.items():
            assert self.disagreeing(report) == [], name

    def test_default_catalog_at_128_nodes(self):
        for name in SCENARIOS:
            assert self.disagreeing(run_scenario(name, n_theta=128)) == [], name

    def test_failing_period_and_construction_reports(self):
        inconsistent = run_scenario("theorem_4_1", data=_violating_figure_eight())
        inadmissible = run_scenario("theorem_3_5", {"eps1": 0.5 + 0.0j})
        for report in (inconsistent, inadmissible):
            assert not report.all_pass
            assert self.disagreeing(report) == []

    def test_integer_and_symmetry_checks_carry_positive_slack(self, catalog_reports):
        assert catalog_reports["theorem_4_1"].verdicts["winding_class"].margin == 0.5
        assert catalog_reports["theorem_4_1"].verdicts["expected_crossings"].margin == 0.5
        symmetry = catalog_reports["prop_3_6_symmetry"].verdicts
        for label in ("perturbed", "figure_eight"):
            margin = symmetry[f"{label}_coefficient_symmetry"].margin
            assert 0.0 < margin <= COEFF_REL_TOL


class _CountSurfaces(NamedTuple):
    f8: object
    slab: Slab
    cover: object
    cat: CatenoidParams


@functools.cache
def _count_surfaces() -> _CountSurfaces:
    """The figure-eight with its clipped slab and a 2-cover with its
    catenoid, built once, before any test wraps the level solve."""
    f8 = figure_eight(1.0, 1.0)
    return _CountSurfaces(f8, clip_to_slab(f8, Slab.symmetric(0.25)), *catenoid_cover(2, 5.0))


# Each count the package takes, as call(value, rng, surfaces) and a valid value.
_COUNTS = {
    "trace_levels.n_theta": (lambda v, rng, s: trace_levels(s.f8, [-0.1, 0.1], v), 64),
    "trace_level.n_theta": (lambda v, rng, s: trace_level(s.f8, 0.1, v), 64),
    "waist_height.n_theta": (lambda v, rng, s: waist_height(s.f8, s.slab, v), 64),
    "slab_area.n_theta": (lambda v, rng, s: slab_area(s.f8, s.slab, v), 64),
    "total_curvature.n_theta": (lambda v, rng, s: total_curvature(s.f8, n_theta=v), 64),
    "profile_radii.n_grid": (lambda v, rng, s: profile_radii(AnnulusWindow(0.5, 2.0), v), 8),
    "length_profile.n_grid": (lambda v, rng, s: length_profile(s.f8, v), 8),
    "CatenoidParams.cover": (lambda v, rng, s: CatenoidParams(4.0, 0.0, v), 2),
    "catenoid_cover.k": (lambda v, rng, s: catenoid_cover(v, 4.0), 2),
    "compare_lengths.grid": (
        lambda v, rng, s: compare_lengths(s.cover, s.cat, Slab(-0.1, 0.1), v, n_theta=64), 5
    ),
    "classify_levels.n_levels": (
        lambda v, rng, s: classify_levels(s.f8, s.slab, v, n_theta=64), 3
    ),
    "random_three_term_pair.size": (lambda v, rng, s: random_three_term_pair(rng, size=v), 2),
    "random_even_vertical_flux.size": (
        lambda v, rng, s: random_even_vertical_flux(rng, size=v), 2
    ),
    "random_even_vertical_flux.max_exponent": (
        lambda v, rng, s: random_even_vertical_flux(rng, v), 2
    ),
    "run_scenario.n_theta": (
        lambda v, rng, s: run_scenario("total_curvature_8pi", n_theta=v), 64
    ),
}


def _bits(value):
    """``value`` with every float as its hex form, every array as its bytes
    and every integer with its type, so == compares bits."""
    if isinstance(value, WeierstrassData):
        value = data_to_json(value)
    elif isinstance(value, MeasureReport):
        value = value.to_json()
    elif isinstance(value, LevelCurve):
        value = (value.h, value.length, value.r)
    elif dataclasses.is_dataclass(value):
        value = dataclasses.asdict(value)
    if isinstance(value, dict):
        return {key: _bits(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_bits(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.tobytes()
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, np.integer)):
        return type(value).__name__, int(value)
    return value


class TestCountRule:
    """Every count is an int or numpy integer, not a bool, at or above its
    least value; anything else is a DomainError before any work."""

    @pytest.mark.parametrize("value", [2.5, 3.0, True, "64"])
    @pytest.mark.parametrize("entry", sorted(_COUNTS))
    def test_non_integers_are_refused_before_any_work(self, entry, value, monkeypatch):
        surfaces = _count_surfaces()
        solved = []
        original = measures._solve_levels

        def recording(data, hs, rays):
            solved.append(hs)
            return original(data, hs, rays)

        monkeypatch.setattr(measures, "_solve_levels", recording)
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        call, _ = _COUNTS[entry]
        message = f"must be an integer of at least \\d+, got {re.escape(repr(value))}$"
        with pytest.raises(DomainError, match=message):
            call(value, rng, surfaces)
        assert not solved
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("entry", sorted(_COUNTS))
    def test_numpy_integers_give_the_bits_of_ints(self, entry):
        call, value = _COUNTS[entry]
        want = _bits(call(value, np.random.default_rng(7), _count_surfaces()))
        got = _bits(call(np.int64(value), np.random.default_rng(7), _count_surfaces()))
        assert got == want


class TestOverrideTypes:
    def test_overrides_take_the_default_type(self):
        report = run_scenario("lemma_3_1", {"count": 2.0, "seed": 3, "grid": 8})
        inputs = report.provenance["inputs"]
        assert inputs["count"] == 2 and isinstance(inputs["count"], int)
        assert report.quantities["datasets"] == 2.0
        report = run_scenario("theorem_3_5", {"eps1": 0.05, "c1": 1})
        assert report.provenance["inputs"]["eps1"] == [0.05, 0.0]
        assert report.provenance["inputs"]["c1"] == [1.0, 0.0]
        assert run_scenario("step_two", {"slab_half": 1}).provenance["inputs"]["slab_half"] == 1.0

    def test_badly_typed_overrides_are_rejected(self):
        cases = [
            ("lemma_3_1", {"count": 2.5}),
            ("lemma_3_1", {"seed": "abc"}),
            ("lemma_3_1", {"seed": math.inf}),
            ("step_two", {"slab_half": "abc"}),
            ("step_two", {"slab_half": 0.25j}),
            ("step_two", {"grid": 33.5}),
            ("theorem_3_5", {"eps1": "abc"}),
            ("theorem_4_1", {"a_1": None}),
            ("theorem_4_1", {"levels": True}),
            ("lemma_3_1", {"seed": False}),
            ("step_two", {"slab_half": True}),
        ]
        for name, overrides in cases:
            with pytest.raises(PreconditionError, match="parameter"):
                run_scenario(name, overrides)

    @pytest.mark.parametrize(
        "name, key, value",
        [
            ("lemma_3_1", "count", 0),
            ("lemma_3_4_identity", "count", 0),
            ("theorem_4_1", "levels", 0),
            ("prop_3_7", "grid", -1),
            ("prop_3_6_symmetry", "grid", 0),
            ("prop_3_6_symmetry", "grid", 1),
            ("theorem_4_1", "grid", 1),
            ("lemma_3_1", "seed", -1),
            ("corollary_4_2", "fd_step", 0.0),
        ],
    )
    def test_out_of_domain_overrides_are_rejected(self, name, key, value):
        with pytest.raises(PreconditionError, match=f"{name} parameter {key} must be"):
            run_scenario(name, {key: value})

    def test_domain_edges_are_accepted(self):
        # A profile needs two radii to span the window, so grid's edge is 2.
        report = run_scenario("lemma_3_1", {"seed": 0, "count": 1, "grid": 2})
        assert report.quantities["datasets"] == 1.0

    def test_sweep_echoes_complex_values_as_pairs(self):
        rows = sweep_scenario("theorem_3_5", "eps1", [0.05j, 0.04 + 0.01j], n_theta=128)
        assert [row["value"] for row in rows] == [[0.0, 0.05], [0.04, 0.01]]
        assert all(row["all_pass"] for row in rows)


class TestReportPrimitives:
    def test_verdict_json(self):
        assert Verdict(0.5).to_json() == {"pass": True, "margin": 0.5}

    def test_all_pass_and_add_check(self):
        report = MeasureReport("demo")
        assert report.all_pass  # vacuously true with no verdicts
        report.add_check("first", 1.0)
        assert report.all_pass
        report.add_check("second", -1.0)
        assert not report.all_pass
