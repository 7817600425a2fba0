"""End-to-end tests of the command-line interface via main()."""

import json
import math
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from minann import SCENARIOS, catenoid_area, CatenoidParams, Slab, data_from_json, figure_eight
from minann import svgplot
from minann.cli import load_data, main, parse_complex, parse_param
from minann.measures import trace_levels

def loads(text):
    """Parse CLI output as RFC 8259 JSON: a NaN or Infinity token fails."""

    def reject(token):
        raise AssertionError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


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
        assert parse_param("eps1=0,1.5") == ("eps1", 1.5j)
        assert parse_param("mode=fast") == ("mode", "fast")
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            parse_param("no-equals-sign")


class TestGen:
    def test_roundtrip_matches_library_constructor(self, fig8_path):
        with open(fig8_path) as handle:
            data = data_from_json(loads(handle.read()))
        ref = figure_eight(1.0, 1.0)
        assert data.g_minus.terms == ref.g_minus.terms
        assert data.g_plus.terms == ref.g_plus.terms
        assert data.window.r_inner == ref.window.r_inner
        assert data.parity == ref.parity

    def test_stdout_output(self, capsys):
        assert main(FIG8_ARGS) == 0
        doc = loads(capsys.readouterr().out)
        assert "g_minus" in doc and "window" in doc

    def test_missing_required_parameter(self, capsys):
        assert main(["gen", "--family", "catenoid_cover"]) == 2
        assert "--f3" in capsys.readouterr().err

    def test_inadmissible_parameters(self, capsys):
        args = ["gen", "--family", "perturbed_two_cover", "--c1", "1", "--eps1", "0.5"]
        assert main(args) == 2
        assert "eps1" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family_args",
        [
            ["perturbed_two_cover", "--c1", "1", "--eps1", "0.05"],
            ["figure_eight", "--a-m1", "1", "--a-1", "1"],
        ],
    )
    def test_asymmetric_without_pair_flags_is_usage_error(self, family_args, capsys):
        assert main(["gen", "--asymmetric", "--family", *family_args]) == 2
        assert "needs params" in capsys.readouterr().err

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

    def test_family_without_a_gen_policy_takes_its_spec_defaults(
        self, fig8_path, tmp_path, monkeypatch
    ):
        from minann.families import DEFAULT_MARGIN, FAMILIES, Family, catenoid_cover

        def build(f3, margin):
            return catenoid_cover(3, f3, 0.0, margin)[0]

        monkeypatch.setitem(FAMILIES, "catenoid_3_cover", Family(build, None, {"f3": 5.0}))
        assert main(["check", "--data", fig8_path]) == 0
        path = tmp_path / "cover.json"
        assert main(["gen", "--family", "catenoid_3_cover", "--out", str(path)]) == 0
        data = data_from_json(json.loads(path.read_text()))
        assert data == build(5.0, DEFAULT_MARGIN)

    def test_tol_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--tol=1e-6"] + FIG8_ARGS)
        assert excinfo.value.code == 2
        assert "--tol" in capsys.readouterr().err


class TestCheck:
    def test_passing_data(self, fig8_path, capsys):
        assert main(["check", "--data", fig8_path]) == 0
        doc = loads(capsys.readouterr().out)
        assert doc["well_defined"] and doc["vertical_flux"] and doc["symmetric"]
        assert doc["winding_class"] == 0
        assert doc["gauss_winding"] == 0
        assert doc["flux"]["f3"] == pytest.approx(8.0 * math.pi, rel=1e-12)
        assert doc["attained_heights"]["h_plus"] == pytest.approx(
            0.8939220807154908, rel=1e-9
        )

    def test_failing_data_exits_one_without_flux(self, broken_path, capsys):
        assert main(["check", "--data", broken_path]) == 1
        doc = loads(capsys.readouterr().out)
        assert not doc["vertical_flux"]
        assert "flux" not in doc
        assert "attained_heights" not in doc

    def test_missing_file_is_validation_error(self, tmp_path):
        assert main(["check", "--data", str(tmp_path / "nope.json")]) == 2

    def test_malformed_json_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["check", "--data", str(bad)]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"[" * 200000, b'{"window": {"r_inner": 1, "r_outer": 1' + b"0" * 5000 + b"}}", b"\xff\xfe"],
        ids=["deep_nesting", "long_integer", "not_utf8"],
    )
    def test_unreadable_json_is_validation_error(self, tmp_path, content, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main(["check", "--data", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("minann: data file") and "is not valid JSON" in captured.err

    @pytest.mark.parametrize(
        "where, raw",
        [
            ("r_inner", '"x"'),
            ("height_offset", '"up"'),
            ("triple", '["a", 1, 0]'),
            ("triple", "[1, null, 0]"),
            ("triple", "[1e400, 1, 0]"),
            ("triple", "[true, 1, 0]"),
            ("height_offset", "NaN"),
            ("r_outer", "1" + "0" * 400),
        ],
    )
    def test_malformed_data_document_is_validation_error(
        self, fig8_path, tmp_path, where, raw, capsys
    ):
        # Each value is well-formed JSON that data_from_json must refuse; an
        # uncaught exception would escape main() with its traceback.
        doc = json.loads(Path(fig8_path).read_text())
        if where in ("r_inner", "r_outer"):
            doc["window"][where] = "@"
        elif where == "height_offset":
            doc["height_offset"] = "@"
        else:
            doc["g_minus"][-1] = "@"
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc).replace('"@"', raw))
        assert main(["check", "--data", str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("minann: ") and captured.out == ""

    def test_out_file(self, fig8_path, tmp_path):
        out = tmp_path / "check.json"
        assert main(["check", "--data", fig8_path, "--out", str(out)]) == 0
        doc = loads(out.read_text())
        assert doc["symmetric"]
        leftovers = list(tmp_path.glob(".minann-*"))
        assert leftovers == []


# Slab flags that name no one slab: --h-min with --h-max, or --slab-half
# alone, are the two accepted forms.
_MIXED_SLAB_FLAGS = [
    ["--h-min", "-0.1", "--h-max", "0.1", "--slab-half", "0.25"],
    ["--h-min", "-0.1", "--slab-half", "0.25"],
    ["--h-max", "0.1", "--slab-half", "0.25"],
    ["--h-min", "-0.1"],
    ["--h-max", "0.1"],
]


class TestMeasure:
    def test_length_on_catenoid(self, catenoid_path, capsys):
        args = ["measure", "--data", catenoid_path, "--kind", "length", "--r", "1.2"]
        assert main(args) == 0
        doc = loads(capsys.readouterr().out)
        expected = 2.0 * math.pi * math.cosh(math.log(1.2))
        assert doc["length"] == pytest.approx(expected, rel=1e-12)
        # the simple catenoid is its own second derivative in t = ln r
        assert doc["length_dd"] == pytest.approx(expected, rel=1e-12)
        assert doc["t"] == pytest.approx(math.log(1.2), rel=1e-15)

    def test_length_requires_radius(self, catenoid_path):
        assert main(["measure", "--data", catenoid_path, "--kind", "length"]) == 2

    @pytest.mark.parametrize("radius", ["0", "-1", "100"])
    def test_radius_outside_window_is_usage_error(self, catenoid_path, radius, capsys):
        args = ["measure", "--data", catenoid_path, "--kind", "length", "--r", radius]
        assert main(args) == 2
        assert "outside the data window" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--theta-nodes", "0", "measure", "--kind", "area", "--slab-half", "0.25"],
            ["--theta-nodes", "-5", "measure", "--kind", "area", "--slab-half", "0.25"],
            ["--theta-nodes", "1", "measure", "--kind", "area", "--slab-half", "0.25"],
            ["--theta-nodes", "0", "measure", "--kind", "curvature"],
            ["--theta-nodes", "8", "trace", "--height", "0"],
        ],
    )
    def test_too_few_theta_nodes_is_usage_error(self, fig8_path, argv, capsys):
        assert main(argv + ["--data", fig8_path]) == 2
        assert "n_theta must be an integer of at least 16" in capsys.readouterr().err

    def test_area_matches_closed_form(self, catenoid_path, capsys):
        args = [
            "measure", "--data", catenoid_path, "--kind", "area", "--slab-half", "0.5",
        ]
        assert main(args) == 0
        doc = loads(capsys.readouterr().out)
        closed = catenoid_area(
            CatenoidParams(f3=2.0 * math.pi, center=0.0, cover=1), Slab(-0.5, 0.5)
        )
        assert doc["area"] == pytest.approx(closed, rel=1e-10)
        assert doc["slab"] == {"h_minus": -0.5, "h_plus": 0.5}

    def test_area_requires_slab(self, catenoid_path):
        assert main(["measure", "--data", catenoid_path, "--kind", "area"]) == 2

    @pytest.mark.parametrize("flags", _MIXED_SLAB_FLAGS)
    def test_area_takes_one_slab(self, catenoid_path, flags, capsys):
        argv = ["measure", "--data", catenoid_path, "--kind", "area", *flags]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "minann: provide --h-min with --h-max, or --slab-half alone\n"
        assert out == ""

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
        doc = loads(capsys.readouterr().out)
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
        doc = loads(capsys.readouterr().out)
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

    @pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
    @pytest.mark.parametrize(
        "outputs",
        [
            ["--csv", "a.csv", "--svg", "missing/b.svg"],
            ["--svg", "b.svg", "--csv", "missing/a.csv"],
            ["--csv", "a.csv", "--svg", "b.svg", "--out", "missing/c.json"],
            ["--csv", "a.csv", "--svg", "taken"],
            ["--svg", "b.svg", "--csv", "a.csv", "--out", "taken"],
        ],
        ids=["svg", "csv", "summary", "rename", "rename_last"],
    )
    def test_a_failed_write_leaves_the_targets_as_found(
        self, fig8_path, tmp_path, outputs, existing
    ):
        # Every output is rendered first: when a write, or a rename onto a
        # directory, fails after others are in place, the command removes
        # the files it made, gives a.csv back the bytes it held, and exits 2.
        (tmp_path / "taken").mkdir()
        if existing:
            (tmp_path / "a.csv").write_bytes(b"kept\xff\n")
        before = {path: path.is_file() and path.read_bytes() for path in tmp_path.iterdir()}
        argv = ["--theta-nodes", "256", "trace", "--data", fig8_path, "--height", "0", *outputs]
        proc = _cli_under_limit(tmp_path, *argv)
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("minann: cannot write ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert {path: path.is_file() and path.read_bytes() for path in tmp_path.iterdir()} == before


def _csv_per_value(curves):
    """The trace CSV written one node and one value at a time."""
    lines = ["theta,r,x1,x2,x3"]
    for curve in curves:
        for t, rr, p in zip(curve.theta, curve.r, curve.points):
            node = (float(t), float(rr), float(p[0]), float(p[1]), float(p[2]))
            lines.append(",".join("%.17g" % v for v in node))
    return "\n".join(lines) + "\n"


def _polyline_per_value(points, stroke, width, dash=None):
    coords = " ".join(f"{svgplot._fmt(x)},{svgplot._fmt(y)}" for x, y in points)
    dash_attr = f' stroke-dasharray="{dash}"' if dash else ""
    return (
        f'<polyline fill="none" stroke="{stroke}" stroke-width="{svgplot._fmt(width)}"'
        f'{dash_attr} points="{coords}" />'
    )


class TestTraceWriters:
    @pytest.mark.parametrize("n_theta", [512, 4096])
    def test_csv_equals_per_value_formatting(self, fig8_path, tmp_path, n_theta, capsys):
        csv = tmp_path / "levels.csv"
        heights = ["--height=-0.2", "--height=0.0", "--height=0.2"]
        args = ["--theta-nodes", str(n_theta), "trace", "--data", fig8_path, *heights]
        assert main(args + ["--csv", str(csv)]) == 0
        curves = trace_levels(load_data(fig8_path), [-0.2, 0.0, 0.2], n_theta)
        assert csv.read_text() == _csv_per_value(curves)

    def test_polyline_equals_per_value_formatting_on_catalog_levels(self):
        data = figure_eight(1.0, 1.0)
        for curve in trace_levels(data, [-0.2, 0.0, 0.2], 4096):
            pts = [(float(p[0]), float(p[1])) for p in curve.points]
            assert svgplot._polyline(pts, "#1f77b4", 1.5) == _polyline_per_value(
                pts, "#1f77b4", 1.5
            )

    def test_negative_zero_is_rewritten_in_every_position(self):
        # Rounding to -0.000000 at the start, after a comma and after a space,
        # next to values that only start with "-0." or end in "0.000000".
        pts = [(-4e-7, -1e-9), (-0.0, 2.5), (-10.0, -0.0000004), (-0.5, 100.0000001)]
        got = svgplot._polyline(pts, "#000000", 1.2, dash="4,3")
        assert got == _polyline_per_value(pts, "#000000", 1.2, dash="4,3")
        assert 'points="0.000000,0.000000 0.000000,2.500000 -10.000000,0.000000 ' in got
        assert svgplot._polyline([], "#000000", 1.0) == _polyline_per_value([], "#000000", 1.0)


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
        doc = loads(out.read_text())
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
        doc = loads(capsys.readouterr().out)
        assert not doc["verdicts"]["traced_level_lengths"]["pass"]

    def test_marginal_flag_adds_verdict(self, fig8_path, capsys):
        args = [
            "--theta-nodes", "256",
            "compare", "--data", fig8_path,
            "--cover-k", "1", "--slab-half", "0.25",
            "--expect", "above", "--marginal",
        ]
        main(args)
        doc = loads(capsys.readouterr().out)
        assert "area_above_marginal" in doc["verdicts"]

    def test_catenoid_cover_clipped_to_its_range(self, tmp_path, capsys):
        path = str(tmp_path / "cat2.json")
        assert main(["gen", "--family", "catenoid_cover", "--k", "2", "--f3", "4", "--out", path]) == 0
        assert main(["compare", "--data", path, "--slab-half", "50"]) in (0, 1)
        assert "circle_route_lengths" in loads(capsys.readouterr().out)["verdicts"]

    def test_requires_slab(self, fig8_path):
        assert main(["compare", "--data", fig8_path]) == 2

    @pytest.mark.parametrize("flags", _MIXED_SLAB_FLAGS)
    def test_takes_one_slab(self, fig8_path, flags, capsys):
        assert main(["compare", "--data", fig8_path, *flags]) == 2
        out, err = capsys.readouterr()
        assert err == "minann: provide --h-min with --h-max, or --slab-half alone\n"
        assert out == ""

    @pytest.mark.parametrize(
        "argv",
        [["measure", "--kind", "area"], ["--theta-nodes", "256", "compare", "--expect", "below"]],
        ids=["measure", "compare"],
    )
    def test_negative_slab_half_reads_as_its_size(self, fig8_path, argv, capsys):
        # Slab.symmetric's rule, as for report --param slab_half=-0.25
        outputs = []
        for half in ("0.25", "-0.25"):
            assert main(argv + ["--data", fig8_path, "--slab-half", half]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--data", "FIG8", "--kind", "area", "--slab-half", "0"],
            ["report", "--scenario", "theorem_4_3", "--param", "slab_half=0"],
        ],
        ids=["measure", "report"],
    )
    def test_zero_slab_half_names_the_half_width(self, fig8_path, argv, capsys):
        argv = [fig8_path if arg == "FIG8" else arg for arg in argv]
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert err == "minann: a symmetric slab needs a nonzero half-width, got 0.0\n"
        assert out == ""

    @pytest.mark.parametrize("grid", ["0", "-1"])
    def test_grid_below_one_is_usage_error(self, fig8_path, grid, capsys):
        args = ["compare", "--data", fig8_path, "--slab-half", "0.25", "--grid", grid]
        assert main(args) == 2
        assert f"grid must be an integer of at least 1, got {grid}\n" in capsys.readouterr().err


class TestReport:
    def test_external_data_scenario(self, fig8_path, capsys):
        args = [
            "--theta-nodes", "512",
            "report", "--scenario", "theorem_4_3", "--data", fig8_path,
        ]
        assert main(args) == 0
        doc = loads(capsys.readouterr().out)
        assert doc["scenario"] == "theorem_4_3"
        assert all(v["pass"] for v in doc["verdicts"].values())

    def test_deliberate_violation_exits_one(self, broken_path, capsys):
        args = ["report", "--scenario", "theorem_4_1", "--data", broken_path]
        assert main(args) == 1
        doc = loads(capsys.readouterr().out)
        assert not doc["verdicts"]["vertical_flux"]["pass"]

    def test_provenance_echoes_the_given_data(self, broken_path, capsys):
        # The inputs name the measured surface, not the family defaults
        # (a_m1 = a_1 = 1, margin 0.05) that a run on given data never reads.
        args = ["report", "--scenario", "theorem_4_1", "--data", broken_path]
        assert main(args) == 1
        inputs = loads(capsys.readouterr().out)["provenance"]["inputs"]
        with open(broken_path) as handle:
            assert inputs["data"] == json.load(handle)
        assert sorted(inputs) == ["data", "grid", "levels", "slab_half"]

    def test_unknown_parameter_is_validation_error(self, capsys):
        args = ["report", "--scenario", "step_two", "--param", "slab_width=1"]
        assert main(args) == 2
        assert "unknown parameters" in capsys.readouterr().err

    def test_too_few_theta_nodes_is_usage_error(self, capsys):
        assert main(["--theta-nodes", "0", "report", "--scenario", "total_curvature_8pi"]) == 2
        assert "n_theta must be an integer of at least 16" in capsys.readouterr().err

    def test_one_profile_radius_is_usage_error(self, capsys):
        # One radius cannot span the window: every convexity verdict would
        # pass on the inner end alone.
        assert main(["report", "--scenario", "theorem_4_1", "--param", "grid=1"]) == 2
        err = capsys.readouterr().err
        assert "theorem_4_1 parameter grid must be an integer of at least 2, got 1" in err

    def test_unknown_scenario_is_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report", "--scenario", "lemma_9_9"])
        assert excinfo.value.code == 2

    def test_seed_flag_reaches_randomized_scenarios(self, capsys):
        args = ["report", "--scenario", "lemma_3_4_identity", "--param", "seed=7"]
        assert main(args) == 0
        doc = loads(capsys.readouterr().out)
        assert doc["provenance"]["inputs"]["seed"] == 7

    def test_global_seed_flag_is_gone(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["--seed", "7", "report", "--scenario", "lemma_3_4_identity"])
        assert excinfo.value.code == 2

    def test_badly_typed_parameter_is_usage_error(self, capsys):
        cases = [
            ("step_two", "slab_half=abc"),
            ("lemma_3_1", "seed=abc"),
            ("lemma_3_1", "count=2.5"),
            ("theorem_3_5", "eps1=abc"),
        ]
        for scenario, param in cases:
            assert main(["report", "--scenario", scenario, "--param", param]) == 2, param
            assert "parameter" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "scenario, param",
        [
            ("lemma_3_1", "count=0"),
            ("lemma_3_4_identity", "count=0"),
            ("theorem_4_1", "levels=0"),
            ("prop_3_7", "grid=-1"),
            ("prop_3_6_symmetry", "grid=0"),
            ("prop_3_6_symmetry", "grid=1"),
            ("theorem_4_1", "grid=1"),
            ("lemma_3_1", "seed=-1"),
            ("corollary_4_2", "fd_step=0"),
        ],
    )
    def test_out_of_domain_parameter_is_usage_error(self, scenario, param, capsys):
        assert main(["report", "--scenario", scenario, "--param", param]) == 2
        key = param.split("=")[0]
        assert f"{scenario} parameter {key} must be" in capsys.readouterr().err

    def test_inadmissible_parameters_print_a_null_margin(self, capsys):
        args = ["report", "--scenario", "theorem_3_5", "--param", "eps1=0.5"]
        assert main(args) == 1
        doc = loads(capsys.readouterr().out)
        assert doc["verdicts"] == {"constructible": {"pass": False, "margin": None}}


REPORT_EVERY_SCENARIO = """
from minann import SCENARIOS
from minann.cli import main
for name in sorted(SCENARIOS):
    print(name, main(["report", "--scenario", name]), flush=True)
"""


def test_reports_are_byte_identical_across_fresh_processes():
    # The window ends come from LAPACK eigenvalues and each process has its
    # own hash seed, so two cold runs must still print the same bytes.
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    outputs = [
        subprocess.run(
            [sys.executable, "-c", REPORT_EVERY_SCENARIO],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
            check=True,
        ).stdout
        for _ in range(2)
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0].count('"provenance":') == len(SCENARIOS)


class TestSweep:
    def test_explicit_values(self, tmp_path):
        out = tmp_path / "sweep.json"
        args = [
            "--theta-nodes", "256",
            "sweep", "--scenario", "step_two", "--param", "slab_half",
            "--values", "0.3,0.45", "--out", str(out),
        ]
        assert main(args) == 0
        doc = loads(out.read_text())
        assert doc["scenario"] == "step_two"
        assert [row["value"] for row in doc["rows"]] == [0.3, 0.45]
        assert doc["rows"][0]["all_pass"]
        assert not doc["rows"][1]["all_pass"]
        assert doc["rows"][1]["sign_changes"]

    def test_requires_values_or_range(self, capsys):
        args = ["sweep", "--scenario", "step_two", "--param", "slab_half"]
        assert main(args) == 2
        for extra in (
            ["--values", ""],
            ["--stop", "0.3"],
            ["--start", "0.1"],
            ["--start", "0.1", "--stop", "0.3", "--count", "0"],
            ["--start", "0.1", "--stop", "0.3", "--count", "-1"],
        ):
            assert main(args + extra) == 2, extra
        assert "--count must be an integer of at least 1, got -1" in capsys.readouterr().err

    def test_badly_typed_values_are_usage_errors(self, capsys):
        cases = [
            ["--scenario", "step_two", "--param", "slab_half", "--values", "1,abc"],
            ["--scenario", "lemma_3_1", "--param", "count", "--values", "2.5"],
            ["--scenario", "lemma_3_1", "--param", "count", "--values", "2",
             "--set", "seed=abc"],
        ]
        for extra in cases:
            assert main(["sweep", *extra]) == 2, extra
        err = capsys.readouterr().err
        assert "--values must be numbers" in err
        assert "lemma_3_1 parameter count must be an integer, got 2.5" in err
        assert "lemma_3_1 parameter seed must be an integer, got 'abc'" in err

    def test_linear_range(self, capsys):
        args = [
            "--theta-nodes", "128",
            "sweep", "--scenario", "theorem_3_5", "--param", "eps1",
            "--start", "0.01", "--stop", "0.05", "--count", "3",
        ]
        assert main(args) == 0
        doc = loads(capsys.readouterr().out)
        assert len(doc["rows"]) == 3
        assert all(row["all_pass"] for row in doc["rows"])


    def test_inadmissible_row_prints_a_null_margin(self, capsys):
        args = [
            "--theta-nodes", "128",
            "sweep", "--scenario", "theorem_3_5", "--param", "eps1",
            "--values", "0.05,0.5",
        ]
        assert main(args) == 0
        first, second = loads(capsys.readouterr().out)["rows"]
        assert first["all_pass"]
        assert second["margins"] == {"constructible": None}
        assert not second["all_pass"]


class TestUnwritableOutput:
    def test_out_in_a_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "fig8.json"
        assert main(FIG8_ARGS + ["--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("minann: cannot write ")
        assert list(tmp_path.rglob(".minann-*")) == []

    def test_csv_onto_a_directory(self, fig8_path, tmp_path, capsys):
        target = tmp_path / "levels.csv"
        target.mkdir()
        args = ["trace", "--data", fig8_path, "--height", "0", "--csv", str(target)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("minann: cannot write ") and captured.out == ""
        assert target.is_dir() and list(target.iterdir()) == []
        assert list(tmp_path.rglob(".minann-*")) == []


def _limit_address_space():
    # Runs in the child only: a 1 GiB address space, so an allocation that
    # grows with the factor pair's exponent span fails there, not here.
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _cli_under_limit(tmp_path, *argv, timeout=120):
    src = Path(__file__).resolve().parents[1] / "src"
    return subprocess.run(
        [sys.executable, "-m", "minann.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=_limit_address_space,
    )


COVER_ARGS = ["gen", "--family", "catenoid_cover", "--f3", "6.283185307179586", "--k"]


class TestExponentSpanGate:
    def _refused(self, proc, tmp_path, before):
        assert proc.returncode == 2, proc.stderr
        assert proc.stderr.startswith("minann: ") and "dense width" in proc.stderr
        assert "Traceback" not in proc.stderr and proc.stdout == ""
        assert sorted(tmp_path.iterdir()) == before

    def test_check_refuses_a_data_file_with_a_huge_exponent(self, fig8_path, tmp_path):
        doc = json.loads(Path(fig8_path).read_text())
        doc["g_minus"].append([100000000, 1e-30, 0])
        (tmp_path / "wide.json").write_text(json.dumps(doc))
        before = sorted(tmp_path.iterdir())
        proc = _cli_under_limit(tmp_path, "check", "--data", "wide.json", "--out", "verdict.json")
        self._refused(proc, tmp_path, before)

    def test_gen_refuses_a_cover_past_the_limit(self, tmp_path):
        proc = _cli_under_limit(tmp_path, *COVER_ARGS, "20000", "--out", "cover.json")
        self._refused(proc, tmp_path, [])

    def test_report_refuses_an_ensemble_past_the_limit_before_drawing(self, tmp_path):
        # max_exponent 1100 spans z^-1100..z^1100; the generator refuses it
        # before it solves a root, instead of rejecting 64 rounds of draws.
        argv = ["report", "--scenario", "lemma_3_1", "--param", "max_exponent=1100"]
        proc = _cli_under_limit(tmp_path, *argv, "--out", "report.json", timeout=60)
        self._refused(proc, tmp_path, [])

    def test_cover_of_order_2000_still_generates_and_checks(self, tmp_path):
        proc = _cli_under_limit(tmp_path, *COVER_ARGS, "2000", "--out", "cover.json")
        assert proc.returncode == 0, proc.stderr
        proc = _cli_under_limit(tmp_path, "check", "--data", "cover.json")
        assert proc.returncode == 0, proc.stderr
        verdict = loads(proc.stdout)
        assert verdict["well_defined"] and verdict["winding_class"] == 2000


class TestOutOfMemory:
    # Each command asks for more than the child's 1 GiB in one allocation:
    # 400 million trace nodes, and lemma_3_1's stacked (200, 600, 600)
    # companion matrices at max_exponent 300.
    @pytest.mark.parametrize(
        "argv",
        [
            ["--theta-nodes", "400000000", "trace", "--data", "FIG8", "--height", "0"],
            ["report", "--scenario", "lemma_3_1", "--param", "max_exponent=300"],
        ],
        ids=["trace", "report"],
    )
    def test_allocation_failure_is_a_numerical_failure(self, fig8_path, tmp_path, argv):
        argv = [fig8_path if arg == "FIG8" else arg for arg in argv]
        proc = _cli_under_limit(tmp_path, *argv, "--out", "out.json")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("minann: numerical failure: out of memory: ")
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr
        assert proc.stdout == "" and list(tmp_path.iterdir()) == []


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


class TestHighCovers:
    def test_curvature_overflow_exits_3_without_warnings(self, tmp_path):
        proc = _cli_under_limit(tmp_path, *COVER_ARGS, "1000", "--out", "cover.json")
        assert proc.returncode == 0, proc.stderr
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "minann.cli",
             "measure", "--data", "cover.json", "--kind", "curvature"],
            cwd=tmp_path,
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("minann: numerical failure: ")
        assert "not finite" in proc.stderr
        assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_undersampled_cover_level_traces_in_one_gib(self, tmp_path):
        # At 4096 nodes a 2047-fold level has two nodes per turn; the
        # crossings are counted on the nodes of one turn, read from the
        # data's rotation order.
        proc = _cli_under_limit(tmp_path, *COVER_ARGS, "2047", "--out", "cover.json")
        assert proc.returncode == 0, proc.stderr
        proc = _cli_under_limit(tmp_path, "trace", "--data", "cover.json", "--height", "0")
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        (level,) = loads(proc.stdout)["levels"]
        assert level["multiplicity"] == 2047 and level["self_intersections"] == 0
        assert level["length"] == pytest.approx(2.0 * math.pi, rel=1e-9)

    def test_star_polygon_of_order_one_fails_cleanly_in_one_gib(self, tmp_path):
        # One more g- term leaves the cover's rotation order 1: its level at
        # 4096 nodes is a star polygon of millions of crossings, and the
        # kernel refuses that many before its quadratic merge.
        proc = _cli_under_limit(tmp_path, *COVER_ARGS, "2047", "--out", "cover.json")
        assert proc.returncode == 0, proc.stderr
        doc = json.loads((tmp_path / "cover.json").read_text())
        doc["g_minus"].insert(0, [1022, 1e-3, 0])
        (tmp_path / "star.json").write_text(json.dumps(doc))
        proc = _cli_under_limit(tmp_path, "trace", "--data", "star.json", "--height", "0")
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("minann: numerical failure: ")
        assert "too many to merge" in proc.stderr and "Traceback" not in proc.stderr
        assert proc.stdout == ""
