"""End-to-end command-line checks, run in process through main(argv).

Exit-code contract: 0 for a completed run (soft per-replication
failures included), 1 for domain errors reported as "error: ...", and
argparse's own 2 for malformed invocations.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import re
import tempfile
from contextlib import redirect_stderr
from importlib import resources
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runoff import cli, predictive
from runoff.cli import _write_bootstrap_csv, main
from runoff.patterns import chain_ladder_pattern
from runoff.predictive import (
    PredictiveError,
    ReserveDistribution,
    bf_bootstrap,
    multinomial_bootstrap,
)
from runoff.simlab import _DGPS, ReportError, SimulationReport, _write_json
from runoff.triangle import bundled_triangle

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
        cc = read_json(tmp_path / "runoff_fit.json")["reserves"]["cc"]
        assert cc["prior_q"] > 0.0
        # Year 1 is fully developed, so the credibility blend reserves 0 for it.
        assert cc["per_year"][0] == 0.0
        assert cc["total"] == pytest.approx(18_101_631.6, abs=0.1)
        assert "floored_rows" not in cc
        manifest = read_json(tmp_path / "runoff_fit_manifest.json")
        assert str(epath) in manifest["inputs"]

    @pytest.mark.parametrize("reserves, message", [
        ("cl,xx", "unknown reserve method 'xx'; expected cl, bf or cc"),
        ("bf", "bf reserves need --exposures and --q-bf"),
    ])
    def test_bad_reserve_request_is_a_named_error(self, tmp_path, capsys, reserves, message):
        out = tmp_path / "out"
        assert main(["fit", "taylor-ashe", "--reserves", reserves, "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, message)
        assert not (out / "runoff_fit.json").exists()

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
        # Each year's fields bar its draws, in declaration order, then its summary.
        for entry in report["per_year"]:
            assert list(entry) == ["accident", "F", "c_times_F", "point_reserve", "excluded",
                                   "exclusion_reason", "mean_suppressed", "mean", "se",
                                   "q5", "q25", "q50", "q75", "q95"]
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

    def test_bf_anchor_with_an_exposure_file(self, tmp_path):
        epath, dump = tmp_path / "exposures.csv", tmp_path / "draws.csv"
        epath.write_text(TA_EXPOSURES)
        assert main(["bootstrap", "taylor-ashe", "--anchor", "bf", "--q-bf", "1.2",
                     "--exposures", str(epath), "--B", "100", "--seed", "2",
                     "--dump-draws", str(dump), "--out-dir", str(tmp_path)]) == 0
        report = read_json(tmp_path / "runoff_bootstrap.json")
        manifest = read_json(tmp_path / "runoff_bootstrap_manifest.json")
        assert report["exposures_source"] == "provided"
        assert manifest["parameters"]["exposures_source"] == "provided"
        t = bundled_triangle("taylor-ashe")
        E = np.array([1000.0 + 10 * i for i in range(1, 11)])
        dist = bf_bootstrap(E, 1.2, chain_ladder_pattern(t), report["c_hat"]["value"], 100,
                            seed=2)
        want = np.column_stack([y.draws for y in dist.per_year] + [dist.total])
        assert np.loadtxt(dump, delimiter=",", skiprows=1).tobytes() == want.tobytes()

    def test_bf_fallback_to_non_positive_first_lag_claims_is_an_error(self, tmp_path, capsys):
        path, out = tmp_path / "wide.csv", tmp_path / "out"
        path.write_text("accident,lag0,lag1,lag2\n1,10,5,2\n2,0,6,\n3,7,,\n")
        assert main(["bootstrap", str(path), "--format", "wide", "--anchor", "bf",
                     "--q-bf", "1", "--c-hat", "10", "--out-dir", str(out)]) == 1
        assert_one_error_line(capsys, "bf anchor fell back to lag-0 claims as exposures, "
                                      "but some first-lag values are non-positive")
        assert not out.exists()

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

    def test_a_dump_into_a_missing_directory_leaves_no_report(self, tmp_path, capsys):
        # The dump is opened before the report and the manifest are written.
        out = tmp_path / "out"
        out.mkdir()
        assert main(["bootstrap", "raa", "--seed", "1", "--B", "100", "--out-dir", str(out),
                     "--dump-draws", str(out / "missing" / "x.csv")]) == 1
        assert_one_error_line(capsys, "No such file or directory")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("blocked", ["report", "manifest"])
    def test_a_report_or_manifest_that_cannot_be_written_leaves_no_dump(self, tmp_path, capsys,
                                                                        fmt, blocked):
        # A directory stands at the report's or the manifest's name: the
        # dump, written first outside the out-dir, and the report are
        # removed again.
        name = {"report": f"runoff_bootstrap.{fmt}",
                "manifest": "runoff_bootstrap_manifest.json"}[blocked]
        out, dump = tmp_path / "out", tmp_path / "draws.csv"
        (out / name).mkdir(parents=True)
        assert main(["bootstrap", "raa", "--seed", "1", "--B", "100", "--out-dir", str(out),
                     f"--output-format={fmt}", "--dump-draws", str(dump)]) == 1
        assert_one_error_line(capsys, "Is a directory")
        assert not dump.exists()
        assert [p.name for p in out.iterdir()] == [name]

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


SMALL_CORRECT = ["simulate", "--study", "correct", "--M", "3", "--B", "20", "--seed", "1"]


@pytest.mark.parametrize("argv,blocked", [
    (["fit", "raa"], "runoff_fit_manifest.json"),
    (SMALL_CORRECT, "runoff_correct_manifest.json"),
    (SMALL_CORRECT, "runoff_correct.csv"),
], ids=["fit-manifest", "simulate-manifest", "simulate-csv"])
def test_a_file_that_cannot_be_written_leaves_none_of_the_others(tmp_path, capsys, argv,
                                                                 blocked):
    # A directory stands at one file's name: the files written before it
    # are removed again.
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([*argv, "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, "Is a directory")
    assert [p.name for p in out.iterdir()] == [blocked]


@pytest.mark.parametrize("command,clash,message", [
    (["bootstrap", "IN", "--dump-draws", "OUT/runoff_bootstrap.json"],
     "OUT/runoff_bootstrap.json", "is the path of two artifacts"),
    (["bootstrap", "IN", "--output-format", "csv", "--dump-draws", "OUT/runoff_bootstrap.csv"],
     "OUT/runoff_bootstrap.csv", "is the path of two artifacts"),
    (["bootstrap", "IN", "--dump-draws", "OUT/../out/runoff_bootstrap_manifest.json"],
     "OUT/runoff_bootstrap_manifest.json", "is the path of two artifacts"),
    (["bootstrap", "IN", "--dump-draws", "IN"], "IN", "is an input of this command"),
    (["simulate", "--study", "correct", "--config", "OUT/runoff_correct.json"],
     "OUT/runoff_correct.json", "is an input of this command"),
], ids=["dump-at-json-report", "dump-at-csv-report", "dump-at-manifest", "dump-at-triangle",
        "config-at-report"])
def test_colliding_artifact_paths_are_an_error_before_any_file_opens(tmp_path, capsys, command,
                                                                     clash, message):
    # The input is the triangle, or for simulate the config file; an
    # artifact at its path or at another artifact's would lose one of them.
    out = tmp_path / "out"
    out.mkdir()
    is_config = command[0] == "simulate"
    source = (out / "runoff_correct.json") if is_config else (tmp_path / "raa.csv")
    source.write_text("M = 1\nB = 10\n" if is_config else bundled_csv("raa.csv"))
    before = source.read_bytes()

    def place(arg: str) -> str:
        return str(source) if arg == "IN" else arg.replace("OUT", str(out))

    assert main([*map(place, command), "--seed", "1", "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, f"{place(clash)} {message}: each artifact needs a file of "
                                  "its own")
    assert source.read_bytes() == before
    assert list(out.iterdir()) == ([source] if is_config else [])


@pytest.mark.parametrize("argv", [
    ["simulate", "--study", "correct", "--M", "1"],
    ["simulate", "--study", "compare-odp", "--M", "1"],
    ["bootstrap", "raa", "--seed", "1"],
])
@pytest.mark.parametrize("B", [10**30, 2**62, 2**59])
def test_a_b_numpy_cannot_size_is_one_error_line(tmp_path, capsys, argv, B):
    # numpy rejects these sizes before it allocates anything; 2**59 only at
    # a (rows, B) array of ten rows or more.
    out = tmp_path / "out"
    assert main([*argv, "--B", str(B), "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, f"B = {B} is too large")
    assert not out.exists()


@pytest.mark.parametrize("anchor", [[], ["--anchor", "bf", "--q-bf", "2"]], ids=["cl", "bf"])
@pytest.mark.parametrize("value,message", [
    ("nan", "inclusion_threshold must be finite, got nan"),
    ("inf", "inclusion_threshold must be finite, got inf"),
    ("-1", "inclusion_threshold cannot be negative"),
])
def test_bad_inclusion_threshold_is_an_error_before_any_draw(tmp_path, capsys, monkeypatch,
                                                             anchor, value, message):
    def no_draws(*args, **kwargs):
        raise AssertionError("the bootstrap drew before checking its threshold")

    monkeypatch.setattr(predictive, "_anchored_draws", no_draws)
    out = tmp_path / "out"
    assert main(["bootstrap", "raa", "--seed", "1", *anchor, "--inclusion-threshold", value,
                 "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, message)
    assert not out.exists()


# At the default phi = 100: nu/phi <= 1 leaves no positive concentration
# nu/phi - 1, and nu/phi above 4.6e18 a claim rate 2 nu/phi that numpy's
# Poisson sampler rejects.
@pytest.mark.parametrize("nu", ["3", "0.5", "1e-300", "1e21", "1e300"])
def test_conservatism_outside_its_domain_is_one_error_line(tmp_path, capsys, nu):
    out = tmp_path / "out"
    assert main(["simulate", "--study", "conservatism", "--nu", nu, "--M", "2", "--seed", "1",
                 "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, "nu and phi must be positive and finite with nu/phi in "
                                  f"(1, 4.61169e+18], got nu/phi = {float(nu) / 100:g}")
    assert not out.exists()


@pytest.mark.parametrize("phi", ["0", "-0.0"])
def test_conservatism_at_zero_phi_is_one_error_line(tmp_path, capsys, phi):
    # The message names phi instead of dividing by it.
    out = tmp_path / "out"
    assert main(["simulate", "--study", "conservatism", "--phi", phi, "--M", "2", "--seed", "1",
                 "--out-dir", str(out)]) == 1
    assert_one_error_line(capsys, "nu and phi must be positive and finite with nu/phi in "
                                  f"(1, 4.61169e+18], got phi = {float(phi):g}")
    assert not out.exists()


@pytest.mark.parametrize("study,flags", [("correct", ["--c-true", "1e-300"]),
                                         ("nonstat", ["--sigma-grid", "1e300"])])
def test_a_non_finite_square_fails_its_replication_without_a_warning(tmp_path, study, flags):
    # Every warning is an error in this suite: generation stays silent and
    # the row names the cell.
    assert main(["simulate", "--study", study, *flags, "--M", "3", "--B", "20", "--seed", "1",
                 "--out-dir", str(tmp_path)]) == 0
    (row,) = read_json(tmp_path / f"runoff_{study}.json")["rows"]
    assert (row["n_reps"], row["n_effective"], row["failures"]) == (3, 0, 3)
    assert row["failure_reasons"] == "generation: non-finite value at cell (1, 0)"


# numpy's Poisson sampler rejects a rate above 9.22337e+18 or a NaN one;
# each such replication fails by name and the study goes on.
@pytest.mark.parametrize("flags", [
    ["--study", "tweedie", "--p-grid", "1.5", "--phi-grid", "1e-300"],
    ["--study", "tweedie", "--p-grid", "1.5", "--phi-grid", "1e-320"],
    *(["--study", "correct", "--dgp", "tweedie", "--phi", phi, *method]
      for phi in ("1e-20", "1e-300", "1e-320") for method in ([], ["--method", "odp"])),
    ["--study", "correct", "--dgp", "count-hierarchy", "--mu", "1e300"],
    ["--study", "correct", "--dgp", "count-hierarchy", "--kappa", "1e-320"],
], ids=lambda flags: " ".join(flags[1:]))
def test_a_poisson_rate_numpy_rejects_fails_its_replication(tmp_path, capsys, flags):
    assert main(["simulate", *flags, "--seed", "1", "--M", "2", "--B", "20",
                 "--out-dir", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    (row,) = read_json(tmp_path / f"runoff_{flags[1]}.json")["rows"]
    assert (row["n_reps"], row["n_effective"], row["failures"]) == (2, 0, 2)
    for reason in row["failure_reasons"].split("; "):
        assert re.fullmatch(r"generation: Poisson rate (\S+) is not finite or exceeds "
                            r"numpy's limit 9\.22337e\+18", reason), reason


EDGE_FLOATS = st.sampled_from(["0", "-1", "inf", "-inf", "nan", "1e-300", "1e300", "1e-320",
                                "0.5", "3"])


def _reject_constant(token: str):
    raise ValueError(f"non-strict JSON constant {token}")


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(["taylor-ashe", "raa", "mortgage"]), bf=st.booleans(),
       fmt=st.sampled_from(["json", "csv"]), c_hat=EDGE_FLOATS, threshold=EDGE_FLOATS,
       q_bf=EDGE_FLOATS, B=st.integers(1, 50),
       dump=st.sampled_from([None, "draws.csv", "missing/draws.csv"]))
def test_bootstrap_flags_end_in_a_report_or_one_error_line(name, bf, fmt, c_hat, threshold,
                                                           q_bf, B, dump):
    # Each flag value is passed as --flag=value, so argparse reads "-inf"
    # as a value, not an option.
    argv = ["bootstrap", name, f"--B={B}", "--seed=1", f"--c-hat={c_hat}",
            f"--inclusion-threshold={threshold}", f"--output-format={fmt}"]
    argv += ["--anchor=bf", f"--q-bf={q_bf}"] if bf else []
    with tempfile.TemporaryDirectory() as out, redirect_stderr(StringIO()) as err:
        draws = None if dump is None else Path(out) / dump
        argv += [] if draws is None else [f"--dump-draws={draws}"]
        code = main(argv + ["--out-dir", out])
        report = Path(out) / f"runoff_bootstrap.{fmt}"
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert not report.exists()
            assert draws is None or not draws.exists()
            return
        assert code == 0 and err.getvalue() == ""
        manifest = (Path(out) / "runoff_bootstrap_manifest.json").read_text()
        json.loads(manifest, parse_constant=_reject_constant)
        if fmt == "json":
            json.loads(report.read_text(), parse_constant=_reject_constant)
        else:
            cells = report.read_text().replace("\n", ",").split(",")
            assert not {"nan", "inf", "-inf"} & {c.strip().lower() for c in cells}
        if draws is not None:
            header, *rows = draws.read_text().splitlines()
            assert header.endswith("total") and len(rows) == B


@settings(max_examples=100, deadline=None, derandomize=True)
@given(name=st.sampled_from(["taylor-ashe", "raa", "mortgage"]), exposures=st.booleans(),
       reserves=st.sampled_from(["cl", "bf", "cc", "cl,bf,cc", "chain"]),
       divisor=st.sampled_from(["unbiased", "biased"]), q_bf=st.none() | EDGE_FLOATS)
def test_fit_flags_end_in_a_report_or_one_error_line(name, exposures, reserves, divisor,
                                                     q_bf):
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        out = Path(tmp) / "out"
        out.mkdir()
        argv = ["fit", name, f"--reserves={reserves}", f"--divisor={divisor}",
                "--out-dir", str(out)]
        argv += [] if q_bf is None else [f"--q-bf={q_bf}"]
        if exposures:
            sidecar = Path(tmp) / "exposures.csv"
            sidecar.write_text("accident,exposure\n" + "".join(
                f"{i},{1000 + 10 * i}\n" for i in range(1, bundled_triangle(name).I + 1)))
            argv += ["--exposures", str(sidecar)]
        code = main(argv)
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert list(out.iterdir()) == []
            return
        assert code == 0 and err.getvalue() == ""
        for artifact in ("runoff_fit.json", "runoff_fit_manifest.json"):
            json.loads((out / artifact).read_text(), parse_constant=_reject_constant)


def assert_same_at_the_other_thread_count(argv: list[str], out: Path, stem: str) -> None:
    """Run an exit-0 simulate argv again, with the seed its manifest records,
    at the other --threads value, 1 or 2: its CSV must be byte-identical to
    the one in out, and its JSON equal but for config.threads."""
    first = json.loads((out / f"{stem}.json").read_text())
    other = 3 - first["config"].pop("threads")
    seed = json.loads((out / f"{stem}_manifest.json").read_text())["seed"]
    with tempfile.TemporaryDirectory() as again:
        assert main([*argv, f"--seed={seed}", f"--threads={other}", "--out-dir", again]) == 0
        csv_again = (Path(again) / f"{stem}.csv").read_bytes()
        second = json.loads((Path(again) / f"{stem}.json").read_text())
    assert csv_again == (out / f"{stem}.csv").read_bytes()
    assert second["config"].pop("threads") == other and second == first


SIMULATE_FLOATS = ("c-true", "sigma-delta", "p", "phi", "kappa", "mu", "inclusion-threshold")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(study=st.sampled_from([*(["correct", f"--dgp={dgp}"] for dgp in _DGPS),
                              ["nonstat"], ["tweedie"], ["compare-odp"]]),
       values=st.dictionaries(st.sampled_from(SIMULATE_FLOATS), EDGE_FLOATS, max_size=3),
       M=st.integers(1, 3), B=st.integers(1, 50), threads=st.integers(1, 2))
def test_simulate_flags_end_in_reports_or_one_error_line(study, values, M, B, threads):
    # Up to three float flags at edge values: every study file's values are
    # finite, or the run is one error line and leaves no file.
    argv = ["simulate", "--study", *study, f"--M={M}", f"--B={B}", f"--threads={threads}",
            "--seed=1"]
    argv += [f"--{flag}={value}" for flag, value in values.items()]
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        out = Path(tmp) / "out"
        out.mkdir()
        code = main(argv + ["--out-dir", str(out)])
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert list(out.iterdir()) == []
            return
        assert code == 0 and err.getvalue() == ""
        stem = f"runoff_{study[0]}"
        for name in (f"{stem}.json", f"{stem}_manifest.json"):
            json.loads((out / name).read_text(), parse_constant=_reject_constant)
        cells = (out / f"{stem}.csv").read_text().replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & {c.strip().lower() for c in cells}
        assert_same_at_the_other_thread_count(argv, out, stem)


# Per integer flag of the coverage studies: values that run within M <= 3,
# B <= 50 and at most M pool threads, values the study rejects, and huge
# values (a huge M stays above numpy's int64 range under every spelling).
INTEGER_FLAGS = {
    "--I": ([3, 7, 10], [2, 0], [10**30]),
    "--J": ([5, 10], [2, 7], [10**30]),
    "--M": ([1, 3], [0], [10**19, 10**30]),
    "--B": ([1, 50], [0], [2**62, 10**30]),
    "--threads": ([1, 2], [0], [10**30]),
    "--seed": ([0, 1, -1], [], [2**64, 10**30]),
}
NON_INTEGRAL = ["2.5", "1e-3", "-0.5", "nan", "inf", "-inf"]


@st.composite
def integer_flag(draw, flag: str):
    """(value or None, spelling) of flag: six times in ten a value that
    runs, else a rejected or huge value or a non-integral spelling (value
    None). A value is spelled as a decimal integer, read exactly, or as an
    integral float, read as the float's integer."""
    runs, rejected, huge = INTEGER_FLAGS[flag]
    kind = draw(st.integers(0, 9))
    if kind == 9:
        return None, draw(st.sampled_from(NON_INTEGRAL))
    v = draw(st.sampled_from(huge if kind > 6 else rejected if kind == 6 and rejected else runs))
    spelling = draw(st.sampled_from([str(v), f"{v}.0", f"{v:e}"]))
    return (v if spelling == str(v) else int(float(spelling))), spelling


@settings(max_examples=100, deadline=None, derandomize=True)
@given(study=st.sampled_from(["correct", "compare-odp"]),
       flags=st.fixed_dictionaries(
           {flag: integer_flag(flag) for flag in ("--M", "--B", "--seed")},
           optional={flag: integer_flag(flag) for flag in ("--I", "--J", "--threads")}))
def test_integer_flags_end_in_reports_one_error_line_or_a_usage_error(study, flags):
    # A spelling that is not an integer, or a --threads below 1, is argparse's
    # usage error naming the first such flag; every other example ends in
    # the study's files, which record each value as its spelling reads, or
    # in one error line and no file.
    argv = ["simulate", "--study", study, *(f"{f}={text}" for f, (_, text) in flags.items())]
    usage = [f for f, (v, _) in flags.items() if v is None or (f == "--threads" and v < 1)]
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        out = Path(tmp) / "out"
        out.mkdir()
        try:
            code = main(argv + ["--out-dir", str(out)])
        except SystemExit as exc:
            assert exc.code == 2 and usage, err.getvalue()
            last = err.getvalue().splitlines()[-1]
            assert last.startswith(f"runoff simulate: error: argument {usage[0]}: "), last
            assert last.endswith(f", got {flags[usage[0]][1]}"), last
            assert list(out.iterdir()) == []
            return
        assert not usage
        if code == 1:
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert list(out.iterdir()) == []
            return
        assert code == 0 and err.getvalue() == ""
        stem = f"runoff_{study}"
        manifest = json.loads((out / f"{stem}_manifest.json").read_text(),
                              parse_constant=_reject_constant)
        config = json.loads((out / f"{stem}.json").read_text(),
                            parse_constant=_reject_constant)["config"]
        assert (out / f"{stem}.csv").exists()
        for flag, (value, _) in flags.items():
            got = manifest["seed"] if flag == "--seed" else config[flag[2:]]
            assert got == value, flag
        assert_same_at_the_other_thread_count(argv, out, stem)


# Per config key: (spellings that run, within M <= 3, B <= 50 and two
# threads; spellings SimConfig rejects; spellings the key's parser rejects),
# each spelling with the value it reads as.
CONFIG_VALUES = {
    "I": ([("5", 5), ("7.0", 7), ("1e1", 10)], [("2", 2)], ["2.5", "x", ""]),
    "J": ([("5", 5), ("1e1", 10)], [("7", 7), ("1", 1)], ["5.5", "nan"]),
    "M": ([("1", 1), ("3", 3), ("2e0", 2)], [("0", 0)], ["1e-3", "inf", "three"]),
    "B": ([("1", 1), ("50", 50), ("2e1", 20)], [("0", 0)], ["0.5", "-inf"]),
    "seed": ([("0", 0), ("-1", -1), ("1e3", 1000)], [], ["1.5", "seed"]),
    "threads": ([("1", 1), ("2.0", 2)], [("0", 0)], ["1.5"]),
    "c_true": ([("50", 50.0), ("1e2", 100.0), ("20.5", 20.5)],
               [("0", 0.0), ("-5", -5.0), ("nan", math.nan), ("inf", math.inf)], ["x", ""]),
    "sigma_delta": ([("0", 0.0), ("0.05", 0.05)], [("-1", -1.0)], ["1.2.3"]),
    "p": ([("1.3", 1.3), ("1.5", 1.5)], [("2", 2.0)], ["x"]),
    "dgp": ([(d, d) for d in _DGPS], [("gamma", "gamma")], []),
    "inclusion_threshold": ([("0", 0.0), ("5", 5.0)], [("-1", -1.0)], ["x"]),
}
# The flags that set a config key; they are drawn with spellings that run.
CONFIG_FLAGS = {"M": "--M", "B": "--B", "seed": "--seed", "c_true": "--c-true", "I": "--I"}


@st.composite
def config_file(draw):
    """(lines, entries, fault): the lines of a config file, the key = value
    entries it sets (key -> value; None for a rejected value), and the
    first line the parser rejects as (line number, message part) or None.
    M and B are always among the keys drawn, so no example runs a study at
    its default size: a line of theirs that the parser or SimConfig rejects
    ends the run first."""
    lines, entries, fault = [], {}, None
    others = sorted(set(CONFIG_VALUES) - {"M", "B"})
    keys = draw(st.permutations(["M", "B", *draw(st.lists(st.sampled_from(others), max_size=4,
                                                          unique=True))]))
    for key in keys:
        lines += draw(st.lists(st.sampled_from(["# a comment", "", "   "]), max_size=2))
        kind = draw(st.integers(0, 19))
        runs, rejected, bad = CONFIG_VALUES[key]
        if kind >= 18:
            line, found = draw(st.sampled_from([
                ("volatility = 3", "unknown key 'volatility'"),
                (f"{key} 1", "expected key = value"),
                *((f"{k} = 1", f"duplicate key {k!r}") for k in sorted(entries))]))
        elif kind == 17 and bad:
            line = f"{key} = {draw(st.sampled_from(bad))}"
            found = f"duplicate key {key!r}" if key in entries else f"bad value for {key!r}"
        else:
            spelling, value = draw(st.sampled_from(rejected if kind == 16 and rejected
                                                   else runs or rejected))
            line = draw(st.sampled_from(["{} = {}", "{}={}", "  {} =  {}  # set"]))
            line = line.format(key, spelling)
            found = f"duplicate key {key!r}" if key in entries else None
            entries.setdefault(key, value if (spelling, value) in runs else None)
        lines.append(line)
        if found and fault is None:
            fault = (len(lines), found)
    return lines, entries, fault


@settings(max_examples=100, deadline=None, derandomize=True)
@given(study=st.sampled_from(["correct", "nonstat", "tweedie", "compare-odp"]),
       config=config_file(),
       flags=st.fixed_dictionaries({}, optional={
           key: st.sampled_from(CONFIG_VALUES[key][0]) for key in CONFIG_FLAGS}))
def test_config_files_end_in_reports_or_one_error_line(study, config, flags):
    # A generated --config file, at times with flags for some of its keys:
    # exit 0 with both reports and a manifest that records the file's digest
    # and every value as the flag, else the file, sets it; or exit 1 with
    # one error line, naming the file's first bad line if it has one, and
    # no file written. A file every value of which runs always runs.
    lines, entries, fault = config
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        path, out = Path(tmp) / "scenario.cfg", Path(tmp) / "out"
        path.write_text("\n".join(lines) + "\n")
        out.mkdir()
        argv = ["simulate", "--study", study, "--config", str(path), "--out-dir", str(out),
                *(f"{CONFIG_FLAGS[k]}={spelling}" for k, (spelling, _) in flags.items())]
        code = main(argv)
        if code == 1:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, text
            assert list(out.iterdir()) == []
            if fault is not None:
                assert text.startswith(f"error: config line {fault[0]}: {fault[1]}"), text
            else:
                assert not text.startswith("error: config line"), text
                assert None in [entries.get(k) for k in entries if k not in flags], text
            return
        assert code == 0 and err.getvalue() == "" and fault is None
        stem = f"runoff_{study}"
        assert (out / f"{stem}.csv").exists()
        manifest = json.loads((out / f"{stem}_manifest.json").read_text(),
                              parse_constant=_reject_constant)
        config = json.loads((out / f"{stem}.json").read_text(),
                            parse_constant=_reject_constant)["config"]
        assert manifest["inputs"] == {str(path): hashlib.sha256(path.read_bytes()).hexdigest()}
        for key, value in {**entries, **{k: v for k, (_, v) in flags.items()}}.items():
            got = [manifest["seed"]] if key == "seed" else [manifest["parameters"][key],
                                                           config[key]]
            assert got == [value] * len(got), key
        assert_same_at_the_other_thread_count(argv, out, stem)


# Edge values of the sweep lists: the calibrated powers, powers at and just
# inside the ends of (1, 2), zero, negative, tiny, huge and non-finite.
GRID_VALUES = {
    "--sigma-grid": ["0", "0.05", "-1", "1e-320", "1e300", "nan", "inf"],
    "--p-grid": ["1.3", "1.5", "1.8", "1", "2", "1.0000001", "1.9999999", "nan", "-inf"],
    "--phi-grid": ["43", "0.5", "0", "-1", "1e-320", "1e300", "nan", "inf"],
}
GRID_FLAGS = {"nonstat": ("--sigma-grid",), "tweedie": ("--p-grid", "--phi-grid")}
GRID_HEADS = {"--sigma-grid": "sigma_delta", "--p-grid": "p", "--phi-grid": "phi"}


@st.composite
def grid_list(draw, flag: str):
    """The entries of a list flag: none, one, or up to four edge values, at
    times with one of them repeated."""
    entries = draw(st.lists(st.sampled_from(GRID_VALUES[flag]), max_size=3))
    if entries and draw(st.booleans()):
        entries.insert(draw(st.integers(0, len(entries))), draw(st.sampled_from(entries)))
    return entries


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data(), study=st.sampled_from(sorted(GRID_FLAGS)), M=st.integers(1, 3),
       B=st.integers(1, 50), threads=st.integers(1, 2))
def test_list_flags_end_in_reports_one_error_line_or_a_usage_error(data, study, M, B,
                                                                   threads):
    # An empty list is argparse's usage error naming its flag; a --phi-grid
    # whose length differs from the powers' (three by default) is one error
    # line naming both lengths; every other example ends in one error line
    # and no file, or in study files of finite values with one row per list
    # entry, in order, whose CSV and JSON do not depend on --threads.
    lists = data.draw(st.fixed_dictionaries({}, optional={
        flag: grid_list(flag) for flag in GRID_FLAGS[study]}))
    argv = ["simulate", "--study", study, f"--M={M}", f"--B={B}", f"--threads={threads}",
            "--seed=1", *(f"{flag}={','.join(entries)}" for flag, entries in lists.items())]
    empty = [flag for flag, entries in lists.items() if not entries]
    phi, powers = lists.get("--phi-grid"), lists.get("--p-grid", ["1.3", "1.5", "1.8"])
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        out = Path(tmp) / "out"
        out.mkdir()
        try:
            code = main(argv + ["--out-dir", str(out)])
        except SystemExit as exc:
            last = err.getvalue().splitlines()[-1]
            assert exc.code == 2 and empty, last
            assert last == (f"runoff simulate: error: argument {empty[0]}: "
                            "expected a comma-separated list of numbers")
            assert list(out.iterdir()) == []
            return
        assert not empty
        if code == 1:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, text
            assert list(out.iterdir()) == []
            if phi is not None and len(phi) != len(powers):
                assert text == (f"error: phi_values has {len(phi)} entries for "
                                f"{len(powers)} powers\n")
            return
        assert code == 0 and err.getvalue() == ""
        assert phi is None or len(phi) == len(powers)
        stem = f"runoff_{study}"
        rows = json.loads((out / f"{stem}.json").read_text(),
                          parse_constant=_reject_constant)["rows"]
        for flag, entries in lists.items():
            assert [row[GRID_HEADS[flag]] for row in rows] == [float(v) for v in entries]
        cells = (out / f"{stem}.csv").read_text().replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & {c.strip().lower() for c in cells}
        assert_same_at_the_other_thread_count(argv, out, stem)


# Per flag of the sigma-c and conservatism studies: values that run, and
# values the study rejects or that sit at an edge (tiny, huge, non-finite).
# --M is always set, at most 3 where the study runs; a huge --M or --I is an
# error before the first draw.
HUGE = [str(2**60), str(10**30)]
VERIFY_FLAGS = {
    "sigma-c": {
        "--c-values": (["20", "50", "0.5"], ["0", "-1", "1e-320", "1e300", "nan", "inf"]),
        "--I": (["20", "30"], ["19", "0", *HUGE]),
        "--M": (["2", "3"], ["1", "0", *HUGE]),
        "--divisor": (["unbiased", "biased"], []),
    },
    "conservatism": {
        "--F-values": (["0.1", "0.5", "0.99"], ["0", "1", "-0.5", "1e-320", "nan", "inf"]),
        "--nu": (["1e6", "1e4", "150"], ["100", "0", "-1", "1e-320", "1e300", "nan", "inf"]),
        "--phi": (["100", "1"], ["0", "-1", "1e-320", "1e300", "nan", "inf"]),
        "--M": (["2", "3"], ["1", "0", *HUGE]),
    },
}
VERIFY_LISTS = {"--c-values": "c", "--F-values": "F"}  # list flag -> the rows' column


@st.composite
def verify_flag(draw, study: str, flag: str):
    """The text of one flag: four times in five a value that runs, else an
    edge value; a list flag joins one to three such values by commas."""
    runs, edges = VERIFY_FLAGS[study][flag]
    value = st.integers(0, 4).flatmap(
        lambda kind: st.sampled_from(edges if kind == 4 and edges else runs))
    if flag not in VERIFY_LISTS:
        return draw(value)
    return ",".join(draw(st.lists(value, min_size=1, max_size=3)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), study=st.sampled_from(sorted(VERIFY_FLAGS)))
def test_verification_flags_end_in_reports_or_one_error_line(data, study):
    # Every example ends in one error line and no file, or in study files of
    # finite values with one row per list entry, in order, and a config that
    # records each flag as it reads.
    flags = data.draw(st.fixed_dictionaries({"--M": verify_flag(study, "--M")}, optional={
        flag: verify_flag(study, flag) for flag in VERIFY_FLAGS[study] if flag != "--M"}))
    argv = ["simulate", "--study", study, "--seed=1", *(f"{f}={v}" for f, v in flags.items())]
    with tempfile.TemporaryDirectory() as tmp, redirect_stderr(StringIO()) as err:
        out = Path(tmp) / "out"
        out.mkdir()
        code = main(argv + ["--out-dir", str(out)])
        if code == 1:
            text = err.getvalue()
            assert text.startswith("error: ") and text.count("\n") == 1, text
            assert list(out.iterdir()) == []
            return
        assert code == 0 and err.getvalue() == ""
        stem = f"runoff_{study}"
        json.loads((out / f"{stem}_manifest.json").read_text(), parse_constant=_reject_constant)
        report = json.loads((out / f"{stem}.json").read_text(), parse_constant=_reject_constant)
        cells = (out / f"{stem}.csv").read_text().replace("\n", ",").split(",")
        assert not {"nan", "inf", "-inf"} & {c.strip().lower() for c in cells}
        for flag, text in flags.items():
            if flag in VERIFY_LISTS:
                column = [row[VERIFY_LISTS[flag]] for row in report["rows"]]
                assert column == [float(v) for v in text.split(",")], flag
            else:
                value = report["config"][flag[2:]]
                assert value == (text if flag == "--divisor" else float(text)), flag


@pytest.mark.parametrize("argv, message", [
    (["--study", "sigma-c", "--I=20", "--M=1152921504606846976"],
     "error: M = 1152921504606846976 and I = 20 are too large: an (M, I, 5) array of floats "
     "exceeds numpy's limit\n"),
    (["--study", "conservatism", "--M=1152921504606846976"],
     "error: M = 1152921504606846976 is too large: an array of M floats exceeds numpy's "
     "limit\n"),
], ids=["sigma-c", "conservatism"])
def test_a_verification_study_numpy_cannot_allocate_is_one_error_line(tmp_path, capsys, argv,
                                                                      message):
    # numpy cannot describe the study's draws, so no draw is made.
    out = tmp_path / "out"
    out.mkdir()
    assert main(["simulate", *argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("raised,message", [
    (MemoryError("Unable to allocate 745. GiB for an array with shape (10000000000, 5)"),
     "error: Unable to allocate 745. GiB for an array with shape (10000000000, 5)\n"),
    (MemoryError(), "error: MemoryError\n"),
], ids=["numpy", "bare"])
def test_a_refused_allocation_is_one_error_line(tmp_path, capsys, monkeypatch, raised,
                                                message):
    def refused(**kwargs):
        raise raised

    monkeypatch.setattr(cli, "verify_sigma_c", refused)
    out = tmp_path / "out"
    assert main(["simulate", "--study", "sigma-c", "--I", "10000000000", "--M", "2",
                 "--c-values", "50", "--seed", "1", "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err == message
    assert not out.exists()


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

    @pytest.mark.parametrize("flag,grid,bad", [
        ("--grid-i", "7.5", "7.5"),
        ("--grid-i", "nan", "nan"),
        ("--grid-j", "5,2.25", "2.25"),
    ], ids=["fraction", "nan", "second-entry"])
    def test_non_integer_grid_size_is_a_usage_error(self, tmp_path, capsys, flag, grid, bad):
        # int() would run 7.5 as I = 7 and fail on nan with argparse's own
        # message, which names no value.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--study", "grid", flag, grid, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: expected integers, got {bad}\n")
        assert not out.exists()

    @pytest.mark.parametrize("spelling", ["7", "7.0", "0.7e1"])
    def test_integral_grid_sizes_parse(self, spelling):
        assert cli._int_list(f"{spelling},1e1") == (7, 10)

    @pytest.mark.parametrize("text,value", [
        ("7", 7), ("-3", -3), ("9007199254740993", 9007199254740993), (str(10**30), 10**30),
        ("7.0", 7), ("1e6", 10**6), ("0.7e1", 7), ("-2e0", -2), ("1e30", int(1e30)),
    ])
    def test_integers_are_read_exactly_and_integral_spellings_as_their_float(self, text,
                                                                              value):
        # float() would read 9007199254740993 as 9007199254740992.
        assert cli._integer(text) == value
        assert cli._int_list(f"{text},{text}") == (value, value)
        if value >= 1:
            assert cli._positive_int(text) == value

    @pytest.mark.parametrize("text", ["2.5", "1e-3", "nan", "inf", "-inf", "x", "7,8"])
    def test_a_non_integer_is_an_error_naming_it(self, text):
        for parse in (cli._integer, cli._positive_int):
            with pytest.raises(argparse.ArgumentTypeError,
                               match=f"^expected an integer, got {re.escape(text)}$"):
                parse(text)

    @pytest.mark.parametrize("argv,flag,text", [
        (["bootstrap", "raa", "--B=1e6x"], "--B", "1e6x"),
        (["bootstrap", "raa", "--seed=0.5"], "--seed", "0.5"),
        (["simulate", "--study", "correct", "--M=2.5"], "--M", "2.5"),
        (["simulate", "--study", "correct", "--threads=1.5"], "--threads", "1.5"),
        (["simulate", "--study", "sigma-c", "--I=nan"], "--I", "nan"),
    ])
    def test_every_integer_flag_names_a_non_integer(self, tmp_path, capsys, argv, flag, text):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out-dir", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(
            f"error: argument {flag}: expected an integer, got {text}\n")
        assert not (tmp_path / "out").exists()

    def test_an_integral_spelling_of_b_runs_as_its_integer(self, tmp_path):
        assert main(["bootstrap", "raa", "--B", "2e2", "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        assert read_json(tmp_path / "runoff_bootstrap.json")["B"] == 200

    @pytest.mark.parametrize("study,flag,grid,message", [
        ("nonstat", "--sigma-grid", "x", "could not convert string to float: 'x'"),
        ("nonstat", "--sigma-grid", ",", "expected a comma-separated list of numbers"),
        ("grid", "--grid-i", "5,x", "expected integers, got x"),
        ("grid", "--grid-j", ",", "expected a comma-separated list of numbers"),
    ], ids=["word", "comma", "int-word", "int-comma"])
    def test_unreadable_grid_is_a_usage_error(self, tmp_path, capsys, study, flag, grid,
                                              message):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--study", study, flag, grid, "--out-dir", str(out)])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv,message", [
        (["correct", "--phi", "0"], "phi, kappa and mu must be positive"),
        (["conservatism", "--M", "1"], "need at least two replications"),
    ], ids=["phi-0", "conservatism-M-1"])
    def test_out_of_range_parameter_is_one_error_line(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code = main(["simulate", "--study", *argv, "--seed", "2", "--out-dir", str(out)])
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

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

    def test_flags_win_over_the_config_file(self, tmp_path):
        # A flag set replaces the file's value; a flag left out keeps it. The
        # seed is --seed's, else the file's, else a random one.
        seeded, unseeded = tmp_path / "seeded.cfg", tmp_path / "unseeded.cfg"
        seeded.write_text("I = 7\nc_true = 80\nM = 2\nB = 10\nseed = 5\n")
        unseeded.write_text("M = 2\nB = 10\n")
        runs = {"a": (seeded, []), "b": (seeded, []),
                "c": (seeded, ["--seed", "9", "--c-true", "90"]), "d": (unseeded, [])}
        for run, (cfg, flags) in runs.items():
            assert main(["simulate", "--study", "correct", "--config", str(cfg), *flags,
                         "--out-dir", str(tmp_path / run)]) == 0
        config = {run: read_json(tmp_path / run / "runoff_correct.json")["config"]
                  for run in runs}
        manifest = {run: read_json(tmp_path / run / "runoff_correct_manifest.json")
                    for run in runs}
        for run, want in (("a", (7, 80.0, 2, 5)), ("b", (7, 80.0, 2, 5)), ("c", (7, 90.0, 2, 9))):
            assert (config[run]["I"], config[run]["c_true"], config[run]["M"],
                    manifest[run]["seed"]) == want
            assert manifest[run]["seed_generated"] is False
        assert manifest["d"]["seed_generated"] is True
        assert ((tmp_path / "a" / "runoff_correct.csv").read_bytes()
                == (tmp_path / "b" / "runoff_correct.csv").read_bytes())

    def test_config_file_is_laid_over_the_study_base(self, tmp_path):
        # compare-odp's base sets J = 10; a file without J keeps it.
        cfg = tmp_path / "odp.cfg"
        cfg.write_text("M = 1\nB = 10\n")
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        assert main(["simulate", "--study", "compare-odp", "--config", str(cfg), "--seed", "3",
                     "--out-dir", str(by_file)]) == 0
        assert main(["simulate", "--study", "compare-odp", "--M", "1", "--B", "10", "--seed", "3",
                     "--out-dir", str(by_flags)]) == 0
        file_report, flags_report = (read_json(d / "runoff_compare-odp.json")
                                     for d in (by_file, by_flags))
        assert file_report["config"]["J"] == flags_report["config"]["J"] == 10
        assert file_report["rows"] == flags_report["rows"]

    def test_a_pattern_f_cannot_hold_fails_every_replication(self, tmp_path):
        # F = cumsum(pi) rounds 0.5 + 1e-17 to 0.5: not strictly increasing.
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("pi_true = 0.5, 1e-17, 0.3, 0.1, 0.1\nM = 2\nB = 10\n")
        assert main(["simulate", "--study", "correct", "--config", str(cfg), "--seed", "1",
                     "--out-dir", str(tmp_path)]) == 0
        (row,) = read_json(tmp_path / "runoff_correct.json")["rows"]
        assert (row["n_reps"], row["n_effective"], row["failures"]) == (2, 0, 2)
        assert row["failure_reasons"] == ("PatternError: F must be strictly increasing "
                                          "with F[J-1] = 1")

    def test_bad_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("volatility = 3\n")
        code = main(["simulate", "--study", "correct", "--config", str(cfg),
                     "--out-dir", str(tmp_path)])
        assert code == 1
        assert "unknown key" in capsys.readouterr().err

    def test_config_integers_follow_the_flags_rule(self, tmp_path):
        # M = 1e3 runs 1,000 replications, as --M 1e3 does, with the same bytes.
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text("M = 1e3\nB = 1e1\nI = 7.0\nseed = 1e3\n")
        assert main(["simulate", "--study", "correct", "--config", str(cfg),
                     "--out-dir", str(tmp_path / "file")]) == 0
        assert main(["simulate", "--study", "correct", "--M", "1e3", "--B", "1e1", "--I", "7.0",
                     "--seed", "1e3", "--out-dir", str(tmp_path / "flags")]) == 0
        report = read_json(tmp_path / "file" / "runoff_correct.json")
        assert [report["config"][k] for k in ("M", "B", "I", "seed")] == [1000, 10, 7, 1000]
        assert report["rows"][0]["n_reps"] == 1000
        for name in ("runoff_correct.json", "runoff_correct.csv"):
            assert ((tmp_path / "file" / name).read_bytes()
                    == (tmp_path / "flags" / name).read_bytes())

    @pytest.mark.parametrize("text", ["2.5", "1e-3", "nan", "x"])
    def test_a_non_integer_config_value_is_one_error_line(self, tmp_path, capsys, text):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(f"M = {text}\n")
        out = tmp_path / "out"
        assert main(["simulate", "--study", "correct", "--config", str(cfg),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: config line 1: bad value for 'M': expected an integer, got {text}\n")
        assert not out.exists()

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


NAN_ROWS = [{"a": 1.0}, {"a": 2.0, "ratio": math.nan}]
SUMMARY = {"mean": 1.0, "se": 0.5, "q5": 0.1, "q25": 0.5, "q50": 1.0, "q75": 1.5,
           "q95": -math.inf}
# Each writer with a payload holding a non-finite value, and the error it raises.
LIBRARY_WRITERS = {
    "study-json": (lambda p: SimulationReport("x", NAN_ROWS, {"M": 2}).write_json(p),
                   "rows[1].ratio is not a finite number (nan)"),
    "study-csv": (lambda p: SimulationReport("x", NAN_ROWS).write_csv(p),
                  "rows[1].ratio is not a finite number (nan)"),
    "bootstrap-csv": (lambda p: _write_bootstrap_csv(p, {"per_year": [], "summary": SUMMARY}),
                      "report.summary.q95 is not a finite number (-inf)"),
    "fit-json": (lambda p: _write_json(p, {"reserves": {"cl": {"total": math.inf}}}),
                 "report.reserves.cl.total is not a finite number (inf)"),
}


def _infinite_q95(*args, **kwargs) -> ReserveDistribution:
    """multinomial_bootstrap with -inf for its summary's q95."""
    dist = multinomial_bootstrap(*args, **kwargs)
    return dataclasses.replace(dist, summary={**dist.summary, "q95": -math.inf})


# Each command with a report holding a non-finite value, its artifacts, the
# error it prints, and for a study the report the patched study returns. The
# bootstrap's value comes from _infinite_q95, patched in for
# multinomial_bootstrap.
CLI_WRITERS = {
    "study-rows": (["simulate", "--study", "correct", "--M", "1", "--seed", "1"],
                   ["runoff_correct.json", "runoff_correct.csv"],
                   "rows[1].ratio is not a finite number (nan)",
                   SimulationReport("coverage", NAN_ROWS, {"M": 1})),
    # The config is only in the JSON report, which is written first.
    "study-config": (["simulate", "--study", "correct", "--M", "1", "--seed", "1"],
                     ["runoff_correct.json", "runoff_correct.csv"],
                     "config.c_true is not a finite number (inf)",
                     SimulationReport("coverage", NAN_ROWS[:1], {"c_true": math.inf})),
    "bootstrap-csv": (["bootstrap", "raa", "--seed", "1", "--output-format", "csv"],
                      ["runoff_bootstrap.csv"],
                      "report.summary.q95 is not a finite number (-inf)", None),
    "fit-json": (["fit", "taylor-ashe", "--reserves", "bf", "--q-bf", "10", "--exposures",
                  "exposures.csv"], ["runoff_fit.json"],
                 "report.reserves.bf.total is not a finite number (inf)", None),
}


class TestStrictWriters:
    """Every report writer checks its values before it opens its file: a
    non-finite value is a ReportError naming it, and the path is left as it
    was, absent or holding an earlier file."""

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    @pytest.mark.parametrize("writer", sorted(LIBRARY_WRITERS))
    def test_library_writer(self, tmp_path, writer, existing):
        write, message = LIBRARY_WRITERS[writer]
        path = tmp_path / "report"
        if existing:
            path.write_text("earlier\n")
        with pytest.raises(ReportError, match=f"^{re.escape(message)}$"):
            write(path)
        assert path.read_text() == "earlier\n" if existing else not path.exists()

    @pytest.mark.parametrize("existing", [False, True], ids=["absent", "existing"])
    @pytest.mark.parametrize("case", sorted(CLI_WRITERS))
    def test_cli_writer(self, tmp_path, capsys, monkeypatch, case, existing):
        argv, artifacts, message, report = CLI_WRITERS[case]
        monkeypatch.setattr(cli, "run_coverage_study", lambda *args, **kwargs: report)
        monkeypatch.setattr(cli, "multinomial_bootstrap", _infinite_q95)
        monkeypatch.chdir(tmp_path)
        Path("exposures.csv").write_text(
            "accident,exposure\n" + "".join(f"{i},1e307\n" for i in range(1, 11)))
        out = tmp_path / "out"
        out.mkdir()
        if existing:
            for name in artifacts:
                (out / name).write_text("earlier\n")
        assert main([*argv, "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        expected = {name: "earlier\n" for name in artifacts} if existing else {}
        assert {p.name: p.read_text() for p in out.iterdir()} == expected
