"""End-to-end command-line checks, run in process through main(argv).

Exit-code contract: 0 for a completed run (soft per-replication
failures included), 1 for domain errors reported as "error: ...", and
argparse's own 2 for malformed invocations.
"""
from __future__ import annotations

import hashlib
import json
import warnings
from importlib import resources

import numpy as np
import pytest

from runoff.cli import _per_year_block, main
from runoff.predictive import PredictiveError, ReserveDistribution, YearPredictive

TA_EXPOSURES = "accident,exposure\n" + "".join(
    f"{i},{1000 + 10 * i}\n" for i in range(1, 11)
)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def bundled_csv(name):
    return resources.files("runoff").joinpath("data", name).read_text()


class TestFit:
    def test_bundled_triangle_report_and_manifest(self, tmp_path, capsys):
        assert main(["fit", "taylor-ashe", "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "c_hat = 125.3001" in out
        assert "cl total reserve = 18680855.6" in out
        report = read_json(tmp_path / "runoff_fit.json")
        assert report["triangle"]["I"] == 10
        assert len(report["link_ratios"]) == 9
        assert report["concentration"]["diagnostic"] == "delta-recommended"
        assert len(report["concentration"]["cells"]) == 20
        assert report["reserves"]["cl"]["total"] == pytest.approx(18_680_855.6, abs=0.1)
        manifest = read_json(tmp_path / "runoff_fit_manifest.json")
        assert manifest["command"] == "fit"
        assert manifest["seed"] is None and manifest["seed_generated"] is False
        assert manifest["parameters"]["divisor"] == "unbiased"
        (path, digest), = manifest["inputs"].items()
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest

    def test_cape_cod_needs_exposures(self, tmp_path, capsys):
        code = main(["fit", "taylor-ashe", "--reserves", "cl,cc",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_cape_cod_with_exposure_sidecar(self, tmp_path, capsys):
        epath = tmp_path / "exposures.csv"
        epath.write_text(TA_EXPOSURES)
        code = main(["fit", "taylor-ashe", "--reserves", "cc",
                     "--exposures", str(epath), "--out-dir", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "runoff_fit.json")
        assert report["reserves"]["cc"]["prior_q"] > 0.0
        manifest = read_json(tmp_path / "runoff_fit_manifest.json")
        assert str(epath) in manifest["inputs"]

    def test_unknown_triangle(self, tmp_path, capsys):
        assert main(["fit", "atlantis", "--out-dir", str(tmp_path)]) == 1
        assert "no such file" in capsys.readouterr().err

    @pytest.mark.parametrize("name,text,extra", [
        ("long-nan-accident", "accident,lag,value\n1,0,10\nnan,0,5\n", []),
        ("long-overflowing-accident", "accident,lag,value\n1,0,10\n1e400,0,5\n", []),
        ("wide-nan-accident", "accident,lag0,lag1\n1,10,5\nnan,20,\n", ["--format", "wide"]),
    ])
    def test_bad_index_is_a_named_error(self, tmp_path, capsys, name, text, extra):
        path = tmp_path / f"{name}.csv"
        path.write_text(text)
        assert main(["fit", str(path), *extra, "--out-dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: line 3:") and "integer" in err

    # The suite turns warnings into errors, so the overflow must not warn first.
    @pytest.mark.parametrize("exposure,q_bf", [
        (1000.0, "-1"),  # gave a negative total reserve
        (1000.0, "nan"),  # wrote "total": null
        (1e300, "1e10"),  # the prior overflowed to inf, with a numpy warning
    ])
    def test_bf_prior_must_be_finite_and_positive(self, tmp_path, capsys, exposure, q_bf):
        epath = tmp_path / "exposures.csv"
        epath.write_text("accident,exposure\n" + "".join(f"{i},{exposure!r}\n"
                                                         for i in range(1, 11)))
        code = main(["fit", "taylor-ashe", "--reserves", "bf", "--exposures", str(epath),
                     "--q-bf", q_bf, "--out-dir", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: the prior ultimate of accident year 1 must be finite")
        assert not (tmp_path / "out" / "runoff_fit.json").exists()

    def test_non_finite_report_value_is_a_named_error(self, tmp_path, capsys):
        # Each prior of 1e308 is finite, but the total reserve is not.
        epath = tmp_path / "exposures.csv"
        epath.write_text("accident,exposure\n" + "".join(f"{i},1e307\n" for i in range(1, 11)))
        code = main(["fit", "taylor-ashe", "--reserves", "bf", "--exposures", str(epath),
                     "--q-bf", "10", "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: report.reserves.bf.total is not a finite number (inf)\n")
        assert not (tmp_path / "runoff_fit.json").exists()

    def test_exposure_row_with_one_field_is_a_named_error(self, tmp_path, capsys):
        epath = tmp_path / "exposures.csv"
        epath.write_text("accident,exposure\n1,1000\n2\n")
        code = main(["fit", "taylor-ashe", "--reserves", "cc",
                     "--exposures", str(epath), "--out-dir", str(tmp_path)])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: line 3: expected 2 fields")


class TestBootstrap:
    def test_report_quantiles_and_manifest_seed(self, tmp_path, capsys):
        code = main(["bootstrap", "taylor-ashe", "--B", "200", "--seed", "11",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "runoff_bootstrap.json")
        s = report["summary"]
        assert s["q5"] <= s["q25"] <= s["q50"] <= s["q75"] <= s["q95"]
        assert report["anchor"] == "CL"
        assert report["c_hat"]["source"] == "estimated"
        assert report["exposures_source"] is None
        manifest = read_json(tmp_path / "runoff_bootstrap_manifest.json")
        assert manifest["seed"] == 11
        assert manifest["seed_generated"] is False

    def test_rerun_is_byte_identical(self, tmp_path):
        for d in ("a", "b"):
            code = main(["bootstrap", "taylor-ashe", "--B", "150", "--seed", "7",
                         "--out-dir", str(tmp_path / d)])
            assert code == 0
        ra = (tmp_path / "a" / "runoff_bootstrap.json").read_bytes()
        rb = (tmp_path / "b" / "runoff_bootstrap.json").read_bytes()
        assert ra == rb

    def test_generated_seed_is_recorded(self, tmp_path):
        assert main(["bootstrap", "raa", "--B", "50",
                     "--out-dir", str(tmp_path)]) == 0
        manifest = read_json(tmp_path / "runoff_bootstrap_manifest.json")
        assert manifest["seed_generated"] is True
        assert isinstance(manifest["seed"], int)

    def test_bf_anchor_requires_q(self, tmp_path, capsys):
        code = main(["bootstrap", "taylor-ashe", "--anchor", "bf",
                     "--B", "50", "--seed", "1", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "needs --q-bf" in capsys.readouterr().err

    def test_bf_anchor_falls_back_to_first_lag_claims(self, tmp_path, capsys):
        code = main(["bootstrap", "taylor-ashe", "--anchor", "bf",
                     "--q-bf", "12", "--B", "100", "--seed", "2",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "runoff_bootstrap.json")
        assert report["anchor"] == "BF"
        assert report["exposures_source"] == "lag0-claims"
        manifest = read_json(tmp_path / "runoff_bootstrap_manifest.json")
        assert manifest["parameters"]["exposures_source"] == "lag0-claims"

    def test_csv_output_and_draw_dump(self, tmp_path):
        draws = tmp_path / "draws.csv"
        code = main(["bootstrap", "taylor-ashe", "--B", "80", "--seed", "3",
                     "--output-format", "csv", "--dump-draws", str(draws),
                     "--out-dir", str(tmp_path)])
        assert code == 0
        lines = (tmp_path / "runoff_bootstrap.csv").read_text().splitlines()
        assert lines[0].startswith("accident,F,c_times_F,point_reserve")
        dump = draws.read_text().splitlines()
        assert dump[0].endswith(",total")
        assert len(dump) == 81  # header plus one line per draw

    def test_no_se_where_the_mean_is_suppressed(self, tmp_path):
        # At c = 0.5 every developing year has c*F <= 2, where the ratio's
        # variance does not exist: se is withheld along with the mean.
        code = main(["bootstrap", "raa", "--B", "500", "--seed", "4", "--c-hat", "0.5",
                     "--inclusion-threshold", "0", "--output-format", "csv",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        code = main(["bootstrap", "raa", "--B", "500", "--seed", "4", "--c-hat", "0.5",
                     "--inclusion-threshold", "0", "--out-dir", str(tmp_path)])
        assert code == 0
        report = read_json(tmp_path / "runoff_bootstrap.json")
        assert report["summary"]["mean"] is None and report["summary"]["se"] is None
        suppressed = [y for y in report["per_year"] if y["mean_suppressed"]]
        assert [y["accident"] for y in suppressed] == list(range(2, 11))
        for y in suppressed:
            assert y["mean"] is None and y["se"] is None
            assert y["q5"] <= y["q50"] <= y["q95"]
        # The fully developed year keeps its exact zero mean and se.
        assert report["per_year"][0]["se"] == 0.0
        rows = (tmp_path / "runoff_bootstrap.csv").read_text().splitlines()
        header = rows[0].split(",")
        total = rows[-1].split(",")
        assert total[0] == "total" and total[header.index("se")] == ""

    @pytest.mark.filterwarnings("error")  # numpy overflow warnings must not escape
    def test_overflowing_draws_are_an_error(self, tmp_path, capsys):
        # RAA scaled by 1e300 at c = 3: the draws exceed the float range.
        raa = tmp_path / "raa.csv"
        lines = ["accident,lag,value"]
        for line in bundled_csv("raa.csv").splitlines()[1:]:
            i, j, v = line.split(",")
            lines.append(f"{i},{j},{float(v) * 1e300!r}")
        raa.write_text("\n".join(lines) + "\n")
        code = main(["bootstrap", str(raa), "--B", "1000", "--seed", "1", "--c-hat", "3",
                     "--inclusion-threshold", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "error: accident year" in err and "overflow" in err
        assert not (tmp_path / "runoff_bootstrap.json").exists()

    def test_per_year_mean_overflow_is_an_error(self):
        # Draws of about 1e308 are finite, but their mean's sum is not.
        year = YearPredictive(1, 0.5, 25.0, point_reserve=1e308, draws=np.full(1000, 1e308))
        dist = ReserveDistribution(per_year=(year,), total=year.draws, summary={}, flags={},
                                   anchor="BF")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictiveError, match="overflows"):
                _per_year_block(dist)

    def test_flag_validation(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bootstrap", "taylor-ashe", "--B", "0"])
        assert exc.value.code == 2
        code = main(["bootstrap", "taylor-ashe", "--B", "50", "--seed", "1",
                     "--c-hat", "0", "--out-dir", str(tmp_path)])
        assert code == 1
        assert "--c-hat must be positive" in capsys.readouterr().err


def assert_one_error_line(capsys, text: str) -> None:
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert text in err and "Traceback" not in err


class TestDegenerateInput:
    @pytest.mark.parametrize("command", ["fit", "bootstrap"])
    @pytest.mark.parametrize("rows", [
        ["1,0,0,0", "2,0,5,", "3,7,,"],  # a zero first row
        ["1,10,-30,5", "2,10,-30,", "3,7,,"],  # a negative column sum
    ], ids=["zero-first-row", "negative-column-sum"])
    def test_non_positive_column_sum_is_a_named_error(self, tmp_path, capsys, command, rows):
        path = tmp_path / "wide.csv"
        path.write_text("\n".join(["accident,lag0,lag1,lag2", *rows]) + "\n")
        out = tmp_path / "out"
        assert main([command, str(path), "--format", "wide", "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, "non-positive cumulative column sum at lag 0")
        assert not out.exists()

    def test_two_by_two_bootstrap_without_c_hat_is_a_concentration_error(self, tmp_path,
                                                                         capsys):
        path = tmp_path / "wide.csv"
        path.write_text("accident,lag0,lag1\n1,10,5\n2,20,\n")
        out = tmp_path / "out"
        assert main(["bootstrap", str(path), "--format", "wide", "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, "no usable (j, k) cells")
        assert not out.exists()

    def test_extreme_scale_prints_short_lines(self, tmp_path, capsys):
        path = tmp_path / "taylor-ashe.csv"
        lines = ["accident,lag,value"]
        for line in bundled_csv("taylor_ashe.csv").splitlines()[1:]:
            i, j, v = line.split(",")
            lines.append(f"{i},{j},{float(v) * 1e290!r}")
        path.write_text("\n".join(lines) + "\n")
        assert main(["fit", str(path), "--out-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "cl total reserve = 1.868086e+297" in out
        assert max(len(line) for line in out.splitlines()) < 120

    def test_floored_pattern_is_a_report_flag(self, tmp_path, capsys):
        # A zero last column makes the last link ratio 1 and the last
        # proportion 0, which the pattern floors; the suite makes any
        # warning an error, so this also checks that none is raised.
        path = tmp_path / "wide.csv"
        path.write_text("accident,lag0,lag1,lag2,lag3,lag4\n1,100,50,20,10,0\n"
                        "2,110,55,22,11,\n3,120,60,24,,\n4,130,65,,,\n5,140,,,,\n")
        common = [str(path), "--format", "wide", "--out-dir", str(tmp_path)]
        assert main(["fit", *common]) == 0
        assert read_json(tmp_path / "runoff_fit.json")["pattern"]["floored_lags"] == [4]
        assert main(["bootstrap", *common, "--c-hat", "50", "--seed", "1"]) == 0
        assert read_json(tmp_path / "runoff_bootstrap.json")["floored_lags"] == [4]
        assert capsys.readouterr().out.count("pattern: lags [4] floored and renormalised") == 2

    def test_floored_pattern_is_a_csv_report_row(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("accident,lag0,lag1,lag2,lag3,lag4\n1,100,50,20,10,0\n"
                        "2,110,55,22,11,\n3,120,60,24,,\n4,130,65,,,\n5,140,,,,\n")
        assert main(["bootstrap", str(path), "--format", "wide", "--c-hat", "50",
                     "--seed", "1", "--output-format", "csv", "--out-dir", str(tmp_path)]) == 0
        rows = (tmp_path / "runoff_bootstrap.csv").read_text().splitlines()
        assert rows[-2].startswith("total,") and rows[-1] == "floored_lags,4"

    def test_every_open_year_excluded_is_a_named_error(self, tmp_path, capsys):
        # At c = 0.5 every open year has c*F below the default threshold of
        # 5; only the fully developed first row is not excluded.
        path = tmp_path / "wide.csv"
        path.write_text("accident,lag0,lag1,lag2,lag3,lag4\n1,100,50,20,10,5\n"
                        "2,110,55,22,11,\n3,120,60,24,,\n4,130,65,,,\n5,140,,,,\n")
        out = tmp_path / "out"
        assert main(["bootstrap", str(path), "--format", "wide", "--c-hat", "0.5",
                     "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, "every open accident year is excluded by the inclusion rule")
        assert not out.exists()

    def test_unfloored_reports_carry_no_flag(self, tmp_path):
        common = ["taylor-ashe", "--out-dir", str(tmp_path)]
        assert main(["fit", *common]) == main(["bootstrap", *common, "--B", "10"]) == 0
        assert "floored_lags" not in read_json(tmp_path / "runoff_fit.json")["pattern"]
        assert "floored_lags" not in read_json(tmp_path / "runoff_bootstrap.json")
        assert main(["bootstrap", *common, "--B", "10", "--output-format", "csv"]) == 0
        assert "floored_lags" not in (tmp_path / "runoff_bootstrap.csv").read_text()


class TestSimulate:
    def test_correct_study_writes_all_artifacts(self, tmp_path, capsys):
        code = main(["simulate", "--study", "correct", "--M", "4", "--B", "30",
                     "--seed", "77", "--out-dir", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "coverage95" in out
        payload = read_json(tmp_path / "runoff_correct.json")
        assert payload["study"] == "coverage"
        assert (tmp_path / "runoff_correct.csv").exists()
        manifest = read_json(tmp_path / "runoff_correct_manifest.json")
        assert manifest["command"] == "simulate --study correct"
        assert manifest["parameters"]["M"] == 4
        assert manifest["seed"] == 77

    def test_reports_identical_across_threads(self, tmp_path):
        # Each study that runs coverage replications, at an M that 2 and 3
        # threads split into uneven contiguous chunks. The JSON differs only
        # in the threads field of a coverage study's config.
        studies = {
            "correct": ["correct", "--M", "7"],
            "nonstat": ["nonstat", "--M", "5", "--sigma-grid", "0,0.05"],
            "tweedie": ["tweedie", "--M", "5"],
            "count-hierarchy": ["correct", "--dgp", "count-hierarchy", "--M", "7"],
            "grid": ["grid", "--M", "5", "--grid-c", "20,50", "--grid-i", "7,10",
                     "--grid-j", "5"],
            "compare-odp": ["compare-odp", "--M", "5"],
        }
        for name, (study, *argv) in studies.items():
            reports = []
            for threads in ("1", "2", "3"):
                out = tmp_path / name / threads
                assert main(["simulate", "--study", study, *argv, "--B", "40", "--seed", "77",
                             "--threads", threads, "--out-dir", str(out)]) == 0
                text = (out / f"runoff_{study}.json").read_text()
                if study != "grid":
                    assert text.count(f'"threads": {threads}\n') == 1
                    text = text.replace(f'"threads": {threads}\n', '"threads": 1\n')
                reports.append(((out / f"runoff_{study}.csv").read_bytes(), text.encode()))
            assert reports[1] == reports[0] and reports[2] == reports[0], name

    def test_soft_failures_keep_exit_zero(self, tmp_path, capsys):
        code = main(["simulate", "--study", "correct", "--I", "5", "--J", "5",
                     "--M", "3", "--B", "10", "--seed", "1",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        assert "replication failures: 3" in capsys.readouterr().out

    def test_nonstat_sweep_flag(self, tmp_path):
        code = main(["simulate", "--study", "nonstat", "--M", "2", "--B", "10",
                     "--seed", "5", "--sigma-grid", "0,0.05",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_json(tmp_path / "runoff_nonstat.json")["rows"]
        assert [r["sigma_delta"] for r in rows] == [0.0, 0.05]

    def test_tweedie_phi_grid_mismatch(self, tmp_path, capsys):
        code = main(["simulate", "--study", "tweedie", "--M", "2", "--B", "10",
                     "--p-grid", "1.3,1.5", "--phi-grid", "90",
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        # These crashed inside numpy ("lam value too large").
        ["conservatism", "--nu", "inf"],
        ["correct", "--dgp", "count-hierarchy", "--kappa", "nan"],
        ["correct", "--dgp", "count-hierarchy", "--mu", "inf"],
        ["tweedie", "--phi-grid", "nan,1,1"],
        # Every simulated remainder is 0: the true spread is zero.
        ["conservatism", "--M", "2", "--F-values", "0.99", "--nu", "1000", "--phi", "100"],
        # These wrote a bare NaN token into the JSON report.
        ["sigma-c", "--c-values", "nan"],
        ["nonstat", "--sigma-grid", "nan"],
        ["grid", "--grid-c", "nan"],
        # These wrote the config value as null.
        ["correct", "--c-true", "nan"],
        ["correct", "--c-true", "inf"],
        ["correct", "--sigma-delta", "inf"],
        ["correct", "--phi", "inf"],
        ["correct", "--inclusion-threshold", "nan"],
    ])
    def test_non_finite_parameters_are_an_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main(["simulate", "--study", *argv, "--seed", "2", "--out-dir", str(out)])
        assert code == 1
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("study,flag,value", [
        ("correct", "--divisor", "biased"),
        ("grid", "--dgp", "tweedie"),
        ("sigma-c", "--B", "7"),
        ("conservatism", "--threads", "2"),
        ("compare-odp", "--method", "odp"),
    ])
    def test_flag_the_study_does_not_take_is_an_error(self, tmp_path, capsys, study, flag,
                                                       value):
        out = tmp_path / "out"
        code = main(["simulate", "--study", study, flag, value, "--M", "2", "--seed", "1",
                     "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: study {study!r} does not take {flag}\n"
        assert not out.exists()

    def test_non_finite_grid_size_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--study", "grid", "--grid-i", "inf",
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2

    def test_sigma_c_study(self, tmp_path):
        code = main(["simulate", "--study", "sigma-c", "--c-values", "50",
                     "--I", "30", "--M", "40", "--seed", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_json(tmp_path / "runoff_sigma-c.json")["rows"]
        assert rows[0]["c"] == 50.0 and rows[0]["ratio"] > 0.0

    def test_conservatism_study(self, tmp_path):
        code = main(["simulate", "--study", "conservatism", "--F-values", "0.5",
                     "--M", "50", "--seed", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_json(tmp_path / "runoff_conservatism.json")["rows"]
        assert rows[0]["target"] == pytest.approx(2.0**0.5)

    def test_grid_study(self, tmp_path):
        code = main(["simulate", "--study", "grid", "--grid-c", "50",
                     "--grid-i", "7", "--grid-j", "5", "--M", "2", "--B", "20",
                     "--seed", "4", "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_json(tmp_path / "runoff_grid.json")["rows"]
        assert rows[0]["J"] == 5 and rows[0]["I"] == 7

    def test_compare_odp_study(self, tmp_path):
        code = main(["simulate", "--study", "compare-odp", "--J", "5",
                     "--M", "2", "--B", "20", "--seed", "4",
                     "--out-dir", str(tmp_path)])
        assert code == 0
        rows = read_json(tmp_path / "runoff_compare-odp.json")["rows"]
        assert len(rows) == 10

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("I = 10\nJ = 5\nc_true = 40\nM = 2\nB = 10\n")
        code = main(["simulate", "--study", "correct", "--config", str(cfg),
                     "--seed", "9", "--out-dir", str(tmp_path)])
        assert code == 0
        manifest = read_json(tmp_path / "runoff_correct_manifest.json")
        assert str(cfg) in manifest["inputs"]
        assert manifest["parameters"]["c_true"] == 40.0

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("volatility = 3\n")
        code = main(["simulate", "--study", "correct", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_rejected_for_verification_studies(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("I = 10\n")
        code = main(["simulate", "--study", "grid", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "coverage studies" in capsys.readouterr().err


class TestTopLevel:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "runoff" in capsys.readouterr().out

    def test_subcommand_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2
