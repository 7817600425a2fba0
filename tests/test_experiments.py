"""Tests for the scenario catalog, comparison operations, and sweeps."""

import json
import math

import numpy as np
import pytest

from minann import (
    CatenoidParams,
    MeasureReport,
    Parity,
    PreconditionError,
    SCENARIOS,
    Slab,
    Verdict,
    catenoid_cover,
    classify_levels,
    clip_to_slab,
    compare_areas,
    compare_lengths,
    figure_eight,
    from_g_pair,
    period_check,
    random_even_vertical_flux,
    random_three_term_pair,
    run_scenario,
    sweep_scenario,
)
from minann.families import admissible_annulus
from minann.laurent import LaurentPoly

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

    def test_rejects_heights_outside_slab(self):
        data, cat = catenoid_cover(2, 5.0)
        with pytest.raises(PreconditionError):
            compare_lengths(data, cat, Slab(-0.1, 0.1), grid=[0.0, 0.5])

    def test_rejects_grid_with_only_the_waist(self):
        data, cat = catenoid_cover(2, 5.0)
        with pytest.raises(PreconditionError):
            compare_lengths(data, cat, Slab(-0.1, 0.1), grid=[0.0])

    def test_explicit_grid_and_both_routes_reported(self):
        data = figure_eight(1.0, 1.0)
        f3 = 8.0 * math.pi
        cat = CatenoidParams(f3=f3, center=0.0, cover=2)
        slab = clip_to_slab(data, Slab(-0.25, 0.25))
        report = compare_lengths(
            data, cat, slab, grid=[-0.2, -0.1, 0.1, 0.2], expect="below"
        )
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
        report = run_scenario(
            "theorem_4_1", {"a_0": complex(0.0, math.sqrt(1.9))}
        )
        assert not report.all_pass
        assert not report.verdicts["vertical_flux"].passed
        assert not report.verdicts["well_defined"].passed
        # each squared factor keeps a mean of 0.1, and the second horizontal
        # residue is half their sum
        assert report.verdicts["vertical_flux"].margin == pytest.approx(
            -0.1, abs=1e-12
        )
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


class TestReportPrimitives:
    def test_verdict_json(self):
        assert Verdict(True, 0.5).to_json() == {"pass": True, "margin": 0.5}

    def test_all_pass_and_add_check(self):
        report = MeasureReport("demo")
        assert report.all_pass  # vacuously true with no verdicts
        report.add_check("first", True, 1.0)
        assert report.all_pass
        report.add_check("second", False, -1.0)
        assert not report.all_pass
