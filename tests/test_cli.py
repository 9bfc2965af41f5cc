import json
import math
import time

import pytest

from quasilattice import cli


def run(*args: str) -> int:
    return cli.main(list(args))


def read(path):
    return path.read_text()


class TestGenerate:
    def test_density_summary(self, tmp_path):
        out = tmp_path / "gen"
        assert run("generate", "--radius", "100", "--out", str(out)) == 0
        summary = json.loads(read(out / "summary.json"))
        assert abs(summary["density"] - 0.5) < 1e-2
        assert summary["point_count"] == 101

    def test_zero_radius_exits_2(self, tmp_path):
        assert run("generate", "--radius", "0", "--out", str(tmp_path)) == 2

    def test_modes_agree(self, tmp_path):
        a = tmp_path / "proj"
        b = tmp_path / "subst"
        assert run("generate", "--radius", "30", "--mode", "projection", "--out", str(a)) == 0
        assert run("generate", "--radius", "30", "--mode", "substitution", "--out", str(b)) == 0
        assert read(a / "patch.csv") == read(b / "patch.csv")

    @pytest.mark.parametrize("mode", ["projection", "substitution"])
    def test_coefficient_overflow_exits_3_at_once(self, tmp_path, mode):
        start = time.perf_counter()
        assert run("generate", "--radius", "1e10", "--mode", mode, "--out", str(tmp_path)) == 3
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "patch.csv").exists()

    def test_csv_header(self, tmp_path):
        out = tmp_path / "gen"
        run("generate", "--radius", "10", "--out", str(out))
        first = read(out / "patch.csv").splitlines()[0]
        assert first == "position_float,a,b,c,label,weight_re,weight_im"


class TestWindows:
    def test_report(self, tmp_path):
        out = tmp_path / "win"
        assert run("windows", "--out", str(out)) == 0
        doc = json.loads(read(out / "windows.json"))
        assert doc["exact_fixed_point"] is True
        assert doc["iterations"] < 200
        assert max(doc["distance_to_exact"].values()) < 1e-10


class TestDeform:
    def test_summary_fields(self, tmp_path):
        out = tmp_path / "def"
        assert run("deform", "--radius", "100", "--alpha", "0.5", "--out", str(out)) == 0
        doc = json.loads(read(out / "deform_summary.json"))
        assert doc["admissible"] is True
        assert doc["density_input"] == pytest.approx(doc["density_output"])
        assert doc["interval_ratio"] == pytest.approx(1 + math.sqrt(2) / 3)

    def test_inadmissible_rejected(self, tmp_path):
        assert run("deform", "--radius", "50", "--alpha", "5", "--out", str(tmp_path)) == 2

    def test_allow_overlap_override(self, tmp_path):
        code = run(
            "deform", "--radius", "50", "--alpha", "5", "--allow-overlap",
            "--out", str(tmp_path / "d"),
        )
        assert code == 0

    def test_shift_operands_beyond_2_53_exit_3_at_once(self, tmp_path):
        # the shifts of alpha = 1/(2**52 + 1) need a denominator 4L > 2**53
        start = time.perf_counter()
        code = run(
            "deform", "--radius", "1000", "--alpha", "1/4503599627370497",
            "--out", str(tmp_path),
        )
        assert code == 3
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "deformed.csv").exists()


class TestDiffract:
    def test_alpha_one_support_half_integers(self, tmp_path):
        out = tmp_path / "dif"
        assert (
            run(
                "diffract", "--radius", "300", "--alpha", "1", "--kmax", "2",
                "--floor", "1e-6", "--out", str(out),
            )
            == 0
        )
        rows = read(out / "spectrum_analytic.csv").strip().splitlines()[1:]
        assert len(rows) == 9
        for row in rows:
            _, a, b, c, *_ = row.split(",")
            assert b == "0" and int(c) in (1, 2)

    def test_empty_spectrum_header_only(self, tmp_path):
        out = tmp_path / "dif"
        assert (
            run(
                "diffract", "--radius", "50", "--alpha", "0.5", "--kmax", "2",
                "--floor", "0.3", "--out", str(out),
            )
            == 0
        )
        assert read(out / "spectrum_analytic.csv").strip().splitlines() == [
            "k_float,k_a,k_b,k_c,amp_re,amp_im,intensity,source"
        ]

    def test_svg_and_comparison(self, tmp_path):
        out = tmp_path / "dif"
        svg = tmp_path / "plot.svg"
        assert (
            run(
                "diffract", "--radius", "2000", "--alpha", "0.5", "--beta", "0.1",
                "--kmax", "1", "--floor", "1e-4", "--out", str(out), "--svg", str(svg),
            )
            == 0
        )
        assert read(svg).startswith("<svg")
        doc = json.loads(read(out / "diffract_summary.json"))
        assert doc["max_error"] < 1e-2
        emp = read(out / "spectrum_empirical.csv").strip().splitlines()
        ana = read(out / "spectrum_analytic.csv").strip().splitlines()
        assert len(emp) == len(ana)

    def test_alpha_denominator_beyond_2_53_exits_3_at_once(self, tmp_path):
        start = time.perf_counter()
        assert (
            run(
                "diffract", "--radius", "10", "--alpha", "1/4503599627370497",
                "--kmax", "1", "--floor", "1e-4", "--out", str(tmp_path),
            )
            == 3
        )
        assert time.perf_counter() - start < 5.0
        assert not (tmp_path / "spectrum_analytic.csv").exists()

    def test_custom_window_exits_2(self, tmp_path, capsys):
        # theta and every amplitude assume the silver window; a patch cut
        # from [-1/2, 1/2] used to pass with a max error of 0.147
        cfgfile = tmp_path / "run.json"
        half = [{"lo": {"a": -1, "b": 0, "c": 2}, "hi": {"a": 1, "b": 0, "c": 2}}]
        cfgfile.write_text(json.dumps({"scheme": {"window": half}}))
        args = ["--radius", "1000", "--alpha", "0.5", "--config", str(cfgfile)]
        code = run(
            "diffract", *args, "--kmax", "2", "--floor", "1e-4",
            "--out", str(tmp_path / "dif"),
        )
        assert code == 2
        assert "silver window" in capsys.readouterr().err
        assert not (tmp_path / "dif").exists()
        for cmd in ("deform", "compare"):
            assert run(cmd, *args, "--out", str(tmp_path / cmd)) == 2
        # the same window spelled with other denominators is the silver one
        silver = [{"lo": {"a": 0, "b": -2, "c": 4}, "hi": {"a": 0, "b": 1, "c": 2}}]
        cfgfile.write_text(json.dumps({"scheme": {"window": silver}}))
        assert run("deform", *args, "--out", str(tmp_path / "d")) == 0


class TestSigma:
    def test_origin(self, tmp_path):
        out = tmp_path / "sig"
        assert run("sigma", "--shift", "0,0", "--radius", "50", "--out", str(out)) == 0
        doc = json.loads(read(out / "sigma.json"))
        assert doc["contains_target"] is True

    def test_shifted(self, tmp_path):
        out = tmp_path / "sig"
        assert run("sigma", "--shift", "1,1", "--radius", "100", "--out", str(out)) == 0
        doc = json.loads(read(out / "sigma.json"))
        assert doc["contains_target"] is True
        assert doc["width"] == pytest.approx(1.724394270e-02, rel=1e-6)

    def test_non_member_exits_2(self, tmp_path):
        assert run("sigma", "--shift", "1,0", "--radius", "50", "--out", str(tmp_path)) == 2

    def test_missing_shift_exits_2(self, tmp_path):
        assert run("sigma", "--radius", "50", "--out", str(tmp_path)) == 2


class TestExtinctions:
    def test_alpha_one(self, tmp_path):
        out = tmp_path / "ext"
        assert run("extinctions", "--alpha", "1", "--kmax", "2", "--out", str(out)) == 0
        doc = json.loads(read(out / "extinctions.json"))
        assert doc["span"] == "half_integers"

    def test_exact_quadratic_alpha(self, tmp_path):
        out = tmp_path / "ext"
        assert run("extinctions", "--alpha", "1+sqrt2", "--kmax", "4", "--out", str(out)) == 0
        doc = json.loads(read(out / "extinctions.json"))
        assert len(doc["extinctions"]) == 16

    def test_float_alpha_exits_2(self, tmp_path):
        assert run("extinctions", "--alpha", "0.5", "--kmax", "2", "--out", str(tmp_path)) == 2

    def test_report_reproducible_from_its_bound(self, tmp_path):
        from quasilattice.diffraction import extinction_report
        from quasilattice.quadfield import parse_exact

        out = tmp_path / "ext"
        assert run("extinctions", "--alpha", "1+sqrt2", "--kmax", "4", "--out", str(out)) == 0
        doc = json.loads(read(out / "extinctions.json"))
        again = extinction_report(parse_exact("1+sqrt2"), doc["k_max"], doc["kstar_max"])
        assert [k.to_json() for k in again.extinctions] == doc["extinctions"]


class TestCompare:
    def test_small_run(self, tmp_path):
        out = tmp_path / "cmp"
        assert (
            run("compare", "--radius", "500", "--alpha", "0.5", "--count", "5", "--out", str(out))
            == 0
        )
        doc = json.loads(read(out / "compare_summary.json"))
        assert doc["max_error"] < 1e-2
        rows = read(out / "comparison.csv").strip().splitlines()
        assert len(rows) == 6


class TestConfigHandling:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "flag, field", [("--radius", "radius"), ("--kmax", "k_max"), ("--floor", "floor")]
    )
    def test_non_finite_number_exits_2(self, tmp_path, capsys, flag, field, value):
        # "--flag=value" form, since argparse reads a bare "-inf" as an option
        assert run("diffract", f"{flag}={value}", "--out", str(tmp_path)) == 2
        assert f"{field} must be finite" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, name",
        [
            (["deform", "--alpha", "0.5", "--beta=nan"], "beta"),
            (["diffract", "--alpha", "0.5", "--beta=inf", "--kmax", "1", "--floor", "1e-3"], "beta"),
            (["diffract", "--alpha=-inf", "--allow-overlap", "--kmax", "1", "--floor", "1e-3"], "alpha"),
            (["deform", "--alpha=inf", "--allow-overlap"], "alpha"),
            (["compare", "--alpha=nan", "--allow-overlap", "--count", "3"], "alpha"),
        ],
    )
    def test_non_finite_deformation_parameter_exits_2(self, tmp_path, capsys, args, name):
        # a NaN beta used to merge every point into one at nan with weight 21
        out = tmp_path / "o"
        assert run(*args, "--radius", "20", "--out", str(out)) == 2
        assert f"{name} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_pwl_breakpoint_exits_2(self, tmp_path, capsys, bad):
        cfgfile = tmp_path / "run.json"
        points = [[-0.8, 0.0], [0.0, float(bad)], [0.8, 0.1]]
        cfgfile.write_text(json.dumps({"deformation": {"kind": "pwl", "points": points}}))
        out = tmp_path / "o"
        args = ["--radius", "20", "--allow-overlap", "--config", str(cfgfile), "--out", str(out)]
        assert run("deform", *args) == 2
        assert "breakpoints must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("count", ["-5", "0"])
    def test_count_below_one_exits_2(self, tmp_path, capsys, count):
        out = tmp_path / "o"
        args = ["--radius", "100", "--alpha", "0.5", "--count", count, "--out", str(out)]
        assert run("compare", *args) == 2
        assert "count must be >= 1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", ["two", "1/0", "1+1/0*sqrt2"])
    def test_unparsable_alpha_exits_2(self, tmp_path, capsys, text):
        assert run("deform", "--alpha", text, "--out", str(tmp_path / "o")) == 2
        assert f"could not parse '{text}'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args",
        [
            ["--alpha", "99999999999999999999/3"],
            ["--alpha", "99999999999999999999/3", "--allow-overlap"],
            ["--alpha", "1/2", "--beta", "1+99999999999999999999*sqrt2"],
        ],
    )
    def test_exact_parameter_beyond_64_bits_exits_3(self, tmp_path, capsys, args):
        out = tmp_path / "o"
        assert run("deform", *args, "--out", str(out)) == 3
        assert "exceeds 64-bit range" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, scheme",
        [
            (["generate", "--radius", "50"],
             {"window": [{"lo": {"a": -1, "b": 0, "c": 3}, "hi": {"a": 1, "b": 0, "c": 2}}]}),
            (["windows"],
             {"ifs": {"a": [{"source": "a", "scale": {"a": 1, "b": 0, "c": 3},
                             "offset": {"a": 0, "b": 0, "c": 1}}]}}),
            # scale 1/2 is a quarter-integer, but its iterates reach 15/8
            (["windows"],
             {"ifs": {"a": [{"source": "a", "scale": {"a": 1, "b": 0, "c": 2},
                             "offset": {"a": 1, "b": 0, "c": 1}}]}}),
            (["generate", "--radius", "50", "--mode", "substitution"],
             {"images": {"a": "aba", "b": "a"},
              "lengths": {"a": {"a": 1, "b": 1, "c": 3}, "b": {"a": 1, "b": 0, "c": 1}}}),
        ],
        ids=["window-endpoint-third", "ifs-scale-third", "ifs-scale-half", "rule-length-third"],
    )
    def test_lattice_data_off_the_quarter_integers_exits_2_at_once(
        self, tmp_path, capsys, command, scheme
    ):
        cfgfile = tmp_path / "scheme.json"
        cfgfile.write_text(json.dumps({"scheme": scheme}))
        start = time.perf_counter()
        assert run(*command, "--config", str(cfgfile), "--out", str(tmp_path / "o")) == 2
        assert time.perf_counter() - start < 5.0
        assert "is not a quarter-integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "obj, text",
        [({"a": 3, "b": -2, "c": 1}, "3-2*sqrt2"), ({"a": 1, "b": 0, "c": 3}, "1/3")],
    )
    def test_json_object_alpha_matches_its_text(self, tmp_path, obj, text):
        cfgfile = tmp_path / "run.json"
        beta = {"a": 1, "b": 0, "c": 4}
        cfgfile.write_text(json.dumps(
            {"deformation": {"kind": "affine", "alpha": obj, "beta": beta}}
        ))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("deform", "--radius", "200", "--config", str(cfgfile), "--out", str(a)) == 0
        cfgfile.write_text(json.dumps(
            {"deformation": {"kind": "affine", "alpha": text, "beta": "1/4"}}
        ))
        assert run("deform", "--radius", "200", "--config", str(cfgfile), "--out", str(b)) == 0
        for name in ("deformed.csv", "deform_summary.json"):
            assert read(a / name) == read(b / name)
        doc = json.loads(read(a / "deform_summary.json"))
        assert doc["deformation"]["beta"] == "1/4+0*sqrt2"

    @pytest.mark.parametrize(
        "command, outputs",
        [("deform", ("deformed.csv", "deform_summary.json")), ("extinctions", ("extinctions.json",))],
    )
    @pytest.mark.parametrize(
        "obj, text", [({"a": 3, "b": -2, "c": 1}, "3-2*sqrt2"), ({"a": 1, "b": 1, "c": 1}, "1+sqrt2")]
    )
    def test_top_level_json_object_alpha_matches_flag(self, tmp_path, command, outputs, obj, text):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"alpha": obj}))
        a, b = tmp_path / "a", tmp_path / "b"
        common = ["--radius", "200", "--kmax", "2"]
        assert run(command, *common, "--config", str(cfgfile), "--out", str(a)) == 0
        assert run(command, *common, "--alpha", text, "--out", str(b)) == 0
        for name in outputs:
            assert read(a / name) == read(b / name)

    def test_decimal_string_under_deformation_is_a_float(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps(
            {"deformation": {"kind": "affine", "alpha": "0.5", "beta": "0.1"}}
        ))
        a, b = tmp_path / "a", tmp_path / "b"
        assert run("deform", "--radius", "200", "--config", str(cfgfile), "--out", str(a)) == 0
        assert run("deform", "--radius", "200", "--alpha", "0.5", "--beta", "0.1",
                   "--out", str(b)) == 0
        for name in ("deformed.csv", "deform_summary.json"):
            assert read(a / name) == read(b / name)

    @pytest.mark.parametrize(
        "value, message",
        [
            ({"a": 1, "b": 0}, "an exact number is {'a', 'b', 'c'}"),
            ({"a": 1.5, "b": 0, "c": 1}, "an exact number is {'a', 'b', 'c'}"),
            (True, "cannot read True as a number"),
            ([1, 2], "cannot read [1, 2] as a number"),
        ],
    )
    @pytest.mark.parametrize("where", ["top", "deformation"])
    def test_unreadable_config_scalar_exits_2(self, tmp_path, capsys, value, message, where):
        cfgfile = tmp_path / "run.json"
        doc = ({"alpha": value} if where == "top"
               else {"deformation": {"kind": "affine", "alpha": value}})
        cfgfile.write_text(json.dumps(doc))
        out = tmp_path / "o"
        assert run("deform", "--radius", "50", "--config", str(cfgfile), "--out", str(out)) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_file_with_flag_override(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"radius": 50.0, "out": str(tmp_path / "a")}))
        assert run("generate", "--config", str(cfgfile), "--radius", "80") == 0
        doc = json.loads(read(tmp_path / "a" / "summary.json"))
        assert doc["radius"] == 80.0

    def test_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(json.dumps({"radiuss": 50.0}))
        assert run("generate", "--config", str(cfgfile)) == 2

    def test_missing_config_file(self, tmp_path):
        assert run("generate", "--config", str(tmp_path / "nope.json")) == 2

    def test_scheme_ifs_from_config(self, tmp_path):
        from quasilattice.cutproject import ifs_to_json, silver_ifs

        cfgfile = tmp_path / "scheme.json"
        cfgfile.write_text(
            json.dumps(
                {"scheme": {"ifs": ifs_to_json(silver_ifs())}, "out": str(tmp_path / "w")}
            )
        )
        assert run("windows", "--config", str(cfgfile)) == 0
        doc = json.loads(read(tmp_path / "w" / "windows.json"))
        ref = tmp_path / "ref"
        assert run("windows", "--out", str(ref)) == 0
        ref_doc = json.loads(read(ref / "windows.json"))
        assert doc["approximant"] == ref_doc["approximant"]

    def test_scheme_rule_from_config(self, tmp_path):
        from quasilattice.substitution import rule_to_json, silver_mean_rule

        scheme = rule_to_json(silver_mean_rule())
        cfgfile = tmp_path / "scheme.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "scheme": scheme,
                    "mode": "substitution",
                    "radius": 30.0,
                    "out": str(tmp_path / "g"),
                }
            )
        )
        assert run("generate", "--config", str(cfgfile)) == 0
        proj = tmp_path / "p"
        assert run("generate", "--radius", "30", "--out", str(proj)) == 0
        assert read(tmp_path / "g" / "patch.csv") == read(proj / "patch.csv")

    def test_custom_rule_exits_2(self, tmp_path, capsys):
        # theta and the amplitudes assume the silver chain; the silver rule
        # with doubled lengths used to exit 2 only by accident, with a
        # message about the deformation domain
        from quasilattice.quadfield import AlgebraicNumber
        from quasilattice.substitution import SubstitutionRule, rule_to_json, silver_mean_rule

        silver = silver_mean_rule()
        doubled = SubstitutionRule(
            silver.images, {ch: ln * AlgebraicNumber(2, 0, 1) for ch, ln in silver.lengths.items()}
        )
        cfgfile = tmp_path / "rule.json"
        cfgfile.write_text(json.dumps({"scheme": rule_to_json(doubled), "mode": "substitution"}))
        args = ["--radius", "1000", "--alpha", "0.5", "--config", str(cfgfile)]
        for cmd, extra in (("diffract", ["--kmax", "2", "--floor", "1e-4"]), ("deform", []),
                           ("compare", ["--count", "5"])):
            assert run(cmd, *args, *extra, "--out", str(tmp_path / cmd)) == 2
            assert "silver-mean rule" in capsys.readouterr().err
            assert not (tmp_path / cmd).exists()
        # generate keeps custom rules; the silver rule spelled out is accepted
        assert run("generate", *args, "--out", str(tmp_path / "g")) == 0
        cfgfile.write_text(json.dumps({"scheme": rule_to_json(silver), "mode": "substitution"}))
        assert run("deform", *args, "--out", str(tmp_path / "d")) == 0

    def test_exact_alpha_string_in_config(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(
            json.dumps({"radius": 80.0, "alpha": "3-2*sqrt2", "out": str(tmp_path / "d")})
        )
        assert run("deform", "--config", str(cfgfile)) == 0
        doc = json.loads(read(tmp_path / "d" / "deform_summary.json"))
        assert doc["interval_ratio"] == pytest.approx(2.0)

    def test_deformation_from_config(self, tmp_path):
        cfgfile = tmp_path / "run.json"
        cfgfile.write_text(
            json.dumps(
                {
                    "radius": 60.0,
                    "deformation": {"kind": "pwl", "points": [[-0.8, 0.0], [0.8, 0.1]]},
                    "out": str(tmp_path / "d"),
                }
            )
        )
        assert run("deform", "--config", str(cfgfile)) == 0

    def test_determinism(self, tmp_path):
        args = [
            "diffract", "--radius", "400", "--alpha", "0.5", "--kmax", "1",
            "--floor", "1e-4",
        ]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(*args, "--out", str(out1)) == 0
        assert run(*args, "--out", str(out2)) == 0
        for name in (
            "spectrum_analytic.csv",
            "spectrum_empirical.csv",
            "comparison.csv",
            "diffract_summary.json",
        ):
            assert read(out1 / name) == read(out2 / name)

    def test_overflow_maps_to_exit_3(self, tmp_path, monkeypatch):
        from quasilattice.quadfield import CoefficientOverflowError

        def boom(cfg):
            raise CoefficientOverflowError("synthetic")

        monkeypatch.setitem(cli._COMMANDS, "generate", boom)
        assert run("generate", "--radius", "10", "--out", str(tmp_path)) == 3

    def test_float_format_roundtrip(self, tmp_path):
        from quasilattice.quadfield import AlgebraicNumber

        out = tmp_path / "gen"
        run("generate", "--radius", "20", "--out", str(out))
        rows = read(out / "patch.csv").strip().splitlines()[1:]
        for row in rows:
            f, a, b, c, *_ = row.split(",")
            assert float(f) == AlgebraicNumber(int(a), int(b), int(c)).value()
