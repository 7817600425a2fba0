"""End-to-end tests of the command-line interface via main()."""

import json
import math

import pytest

from minann import catenoid_area, CatenoidParams, Slab, data_from_json, figure_eight
from minann.cli import main, parse_complex, parse_param

FIG8_ARGS = ["gen", "--family", "figure_eight", "--a-m1", "1", "--a-1", "1"]


@pytest.fixture(scope="module")
def fig8_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "fig8.json"
    assert main(FIG8_ARGS + ["--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def catenoid_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "cat.json"
    args = ["gen", "--family", "catenoid_cover", "--k", "1", "--f3", str(2 * math.pi)]
    assert main(args + ["--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def broken_path(tmp_path_factory):
    """Data whose squared factors keep nonzero means: period checks fail."""
    import minann

    gm = minann.LaurentPoly({-1: 1.0, 0: 1j * math.sqrt(1.9), 1: 1.0})
    gp = gm.conj_reflect()
    window = minann.admissible_annulus(gm, gp)
    data = minann.from_g_pair(gm, gp, minann.Parity.EVEN, window)
    path = tmp_path_factory.mktemp("data") / "broken.json"
    path.write_text(json.dumps(minann.data_to_json(data)))
    return str(path)


class TestArgumentHelpers:
    def test_parse_complex(self):
        assert parse_complex("1.5") == 1.5 + 0j
        assert parse_complex("-2,0.25") == complex(-2.0, 0.25)
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("abc")
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex("1,2,3")

    def test_parse_param(self):
        assert parse_param("grid=50") == ("grid", 50)
        assert parse_param("slab_half=0.3") == ("slab_half", 0.3)
        assert parse_param("a_0=0,1.5") == ("a_0", 1.5j)
        assert parse_param("mode=fast") == ("mode", "fast")
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_param("no-equals-sign")


class TestGen:
    def test_roundtrip_matches_library_constructor(self, fig8_path):
        with open(fig8_path) as handle:
            data = data_from_json(json.load(handle))
        ref = figure_eight(1.0, 1.0)
        assert data.g_minus.terms == ref.g_minus.terms
        assert data.g_plus.terms == ref.g_plus.terms
        assert data.window.r_inner == ref.window.r_inner
        assert data.parity == ref.parity

    def test_stdout_output(self, capsys):
        assert main(FIG8_ARGS) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "g_minus" in doc and "window" in doc

    def test_missing_required_parameter(self, capsys):
        assert main(["gen", "--family", "catenoid_cover"]) == 2
        assert "--f3" in capsys.readouterr().err

    def test_inadmissible_parameters(self, capsys):
        args = ["gen", "--family", "perturbed_two_cover", "--c1", "1", "--eps1", "0.5"]
        assert main(args) == 2
        assert "eps1" in capsys.readouterr().err

    def test_pair_flag_without_asymmetric_is_usage_error(self, capsys):
        args = ["gen", "--family", "perturbed_two_cover", "--c1", "1", "--eps1", "0.05"]
        assert main(args + ["--c2", "3"]) == 2
        assert "c2" in capsys.readouterr().err

    def test_bad_complex_literal_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--family", "figure_eight", "--a-m1", "x", "--a-1", "1"])
        assert excinfo.value.code == 2

    def test_unknown_family_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["gen", "--family", "helicoid"])
        assert excinfo.value.code == 2

    def test_tol_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--tol=1e-6"] + FIG8_ARGS)
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestCheck:
    def test_passing_data(self, fig8_path, capsys):
        assert main(["check", "--data", fig8_path]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["well_defined"] and doc["vertical_flux"] and doc["symmetric"]
        assert doc["winding_class"] == 0
        assert doc["gauss_winding"] == 0
        assert doc["flux"]["f3"] == pytest.approx(8.0 * math.pi, rel=1e-12)
        assert doc["attained_heights"]["h_plus"] == pytest.approx(
            0.8939220807154908, rel=1e-9
        )

    def test_failing_data_exits_one_without_flux(self, broken_path, capsys):
        assert main(["check", "--data", broken_path]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["vertical_flux"]
        assert "flux" not in doc
        assert "attained_heights" not in doc

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["check", "--data", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--data", str(bad)]) == 2

    def test_out_file(self, fig8_path, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--data", fig8_path, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["symmetric"]
        leftovers = list(tmp_path.glob(".minann-*"))
        assert leftovers == []


class TestMeasure:
    def test_length_on_catenoid(self, catenoid_path, capsys):
        args = ["measure", "--data", catenoid_path, "--kind", "length", "--r", "1.2"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        expected = 2.0 * math.pi * math.cosh(math.log(1.2))
        assert doc["length"] == pytest.approx(expected, rel=1e-12)
        # the simple catenoid is its own second derivative in t = ln r
        assert doc["length_dd"] == pytest.approx(expected, rel=1e-12)
        assert doc["t"] == pytest.approx(math.log(1.2), rel=1e-15)

    def test_length_requires_radius(self, catenoid_path):
        assert main(["measure", "--data", catenoid_path, "--kind", "length"]) == 2

    def test_area_matches_closed_form(self, catenoid_path, capsys):
        args = [
            "measure", "--data", catenoid_path, "--kind", "area", "--slab-half", "0.5",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        closed = catenoid_area(
            CatenoidParams(f3=2.0 * math.pi, center=0.0, cover=1), Slab(-0.5, 0.5)
        )
        assert doc["area"] == pytest.approx(closed, rel=1e-10)
        assert doc["slab"] == {"h_minus": -0.5, "h_plus": 0.5}

    def test_area_requires_slab(self, catenoid_path):
        assert main(["measure", "--data", catenoid_path, "--kind", "area"]) == 2

    def test_unattainable_slab_is_numerical_failure(self, catenoid_path, capsys):
        args = [
            "measure", "--data", catenoid_path, "--kind", "area",
            "--h-min", "-5", "--h-max", "5",
        ]
        assert main(args) == 3
        assert "numerical failure" in capsys.readouterr().err

    def test_curvature_is_negative(self, fig8_path, capsys):
        args = [
            "--theta-nodes", "512",
            "measure", "--data", fig8_path, "--kind", "curvature",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["total_curvature"] < 0.0
        assert doc["total_curvature_over_pi"] == pytest.approx(
            doc["total_curvature"] / math.pi, rel=1e-15
        )


class TestTrace:
    def test_csv_schema(self, fig8_path, tmp_path, capsys):
        csv = tmp_path / "levels.csv"
        args = [
            "--theta-nodes", "256",
            "trace", "--data", fig8_path,
            "--height", "0.0", "--height", "0.2",
            "--csv", str(csv),
        ]
        assert main(args) == 0
        lines = csv.read_text().splitlines()
        assert lines[0] == "theta,r,x1,x2,x3"
        assert len(lines) == 1 + 2 * 256
        first = [float(v) for v in lines[1].split(",")]
        assert len(first) == 5
        assert first[0] == 0.0
        assert first[4] == pytest.approx(0.0, abs=1e-9)
        deeper = [float(v) for v in lines[1 + 256].split(",")]
        assert deeper[4] == pytest.approx(0.2, abs=1e-9)

    def test_summary_reports_crossings(self, fig8_path, capsys):
        args = ["--theta-nodes", "256", "trace", "--data", fig8_path, "--height", "0.1"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        (level,) = doc["levels"]
        assert level["height"] == 0.1
        assert level["self_intersections"] == 1
        assert level["multiplicity"] == 1
        assert level["length"] > 0.0

    def test_svg_output_is_deterministic(self, fig8_path, tmp_path, capsys):
        paths = [tmp_path / "a.svg", tmp_path / "b.svg"]
        for path in paths:
            args = [
                "--theta-nodes", "256",
                "trace", "--data", fig8_path,
                "--height", "-0.2", "--height", "0.0", "--height", "0.2",
                "--svg", str(path), "--inset",
            ]
            assert main(args) == 0
            capsys.readouterr()
        first, second = (p.read_bytes() for p in paths)
        assert first == second
        assert first.startswith(b'<?xml version="1.0"')
        assert b"<svg" in first


class TestCompare:
    def test_figure_eight_below_double_cover(self, fig8_path, tmp_path):
        out = tmp_path / "cmp.json"
        args = [
            "--theta-nodes", "512",
            "compare", "--data", fig8_path,
            "--slab-half", "0.25", "--expect", "below",
            "--out", str(out),
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        for name in (
            "traced_level_lengths",
            "circle_route_lengths",
            "waist_equals_flux",
            "area_comparison",
        ):
            assert doc["verdicts"][name]["pass"], name
        assert doc["quantities"]["traced_margin_min"] > 0.0

    def test_reversed_expectation_fails(self, fig8_path, capsys):
        args = [
            "--theta-nodes", "256",
            "compare", "--data", fig8_path,
            "--slab-half", "0.25", "--expect", "above",
        ]
        assert main(args) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["verdicts"]["traced_level_lengths"]["pass"]

    def test_marginal_flag_adds_verdict(self, fig8_path, capsys):
        args = [
            "--theta-nodes", "256",
            "compare", "--data", fig8_path,
            "--cover-k", "1", "--slab-half", "0.25",
            "--expect", "above", "--marginal",
        ]
        main(args)
        doc = json.loads(capsys.readouterr().out)
        assert "area_above_marginal" in doc["verdicts"]

    def test_requires_slab(self, fig8_path):
        assert main(["compare", "--data", fig8_path]) == 2


class TestReport:
    def test_external_data_scenario(self, fig8_path, capsys):
        args = [
            "--theta-nodes", "512",
            "report", "--scenario", "theorem_4_3", "--data", fig8_path,
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["scenario"] == "theorem_4_3"
        assert all(v["pass"] for v in doc["verdicts"].values())

    def test_deliberate_violation_exits_one(self, capsys):
        args = [
            "report", "--scenario", "theorem_4_1",
            "--param", "a_0=0,1.3784048752090221",
        ]
        assert main(args) == 1
        doc = json.loads(capsys.readouterr().out)
        assert not doc["verdicts"]["vertical_flux"]["pass"]

    def test_unknown_parameter_is_validation_error(self, capsys):
        args = ["report", "--scenario", "step_two", "--param", "slab_width=1"]
        assert main(args) == 2
        assert "unknown parameters" in capsys.readouterr().err

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--scenario", "lemma_9_9"])
        assert excinfo.value.code == 2

    def test_seed_flag_reaches_randomized_scenarios(self, capsys):
        args = ["--seed", "7", "report", "--scenario", "lemma_3_4_identity"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["provenance"]["inputs"]["seed"] == 7

    def test_seed_flag_ignored_for_deterministic_scenarios(self, capsys):
        args = ["--seed", "7", "report", "--scenario", "theorem_3_5"]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert "seed" not in doc["provenance"]["inputs"]


class TestSweep:
    def test_explicit_values(self, tmp_path):
        out = tmp_path / "sweep.json"
        args = [
            "--theta-nodes", "256",
            "sweep", "--scenario", "step_two", "--param", "slab_half",
            "--values", "0.3,0.45", "--out", str(out),
        ]
        assert main(args) == 0
        doc = json.loads(out.read_text())
        assert doc["scenario"] == "step_two"
        assert [row["value"] for row in doc["rows"]] == [0.3, 0.45]
        assert doc["rows"][0]["all_pass"]
        assert not doc["rows"][1]["all_pass"]
        assert doc["rows"][1]["sign_changes"]

    def test_requires_values_or_range(self):
        args = ["sweep", "--scenario", "step_two", "--param", "slab_half"]
        assert main(args) == 2

    def test_linear_range(self, capsys):
        args = [
            "--theta-nodes", "128",
            "sweep", "--scenario", "theorem_3_5", "--param", "eps1",
            "--start", "0.01", "--stop", "0.05", "--count", "3",
        ]
        assert main(args) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 3
        assert all(row["all_pass"] for row in doc["rows"])


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert capsys.readouterr().out.startswith("minann ")

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
