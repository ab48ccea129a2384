"""What each command's manifest records as its parameters.

A manifest is compared with `wall_clock_s` dropped and `inputs` reduced
to its digests (its keys are absolute paths). `fit` records every parsed
flag in parser order; `bootstrap` adds the exposure source it used;
`simulate` records the resolved scenario config plus every argument the
study ran with, its defaults included.
"""
from __future__ import annotations

import json

import pytest

from runoff.cli import main

TAYLOR_ASHE = "5d7c9e9e587ee94260c66f0a732321822c46c3cbd39758eb5fadec6759602be0"
RAA = "807f0995469fae0cc95b596220833ff2a079025293dd7e4e0e0aa28d3949bad7"
WIDE = "accident,lag0,lag1,lag2,lag3\n1,100,60,30,10\n2,110,70,35,\n3,120,65,,\n4,130,,,\n"
EXPOSURES = "accident,exposure\n1,400\n2,420\n3,450\n4,480\n"

BASE_CONFIG = {
    "I": 10, "J": 5, "pi_true": [0.45, 0.25, 0.15, 0.1, 0.05], "c_true": 50.0, "M": 2,
    "B": 10, "seed": 7, "dgp": "dirichlet-gamma", "sigma_delta": 0.0, "p": 1.5,
    "phi": 43.0, "kappa": 40.0, "mu": 400.0, "exposure_shape": 10.0,
    "exposure_rate": 0.01, "ultimate_shape_factor": 2.0, "ultimate_rate": 0.001,
    "inclusion_threshold": 0.0, "threads": 1,
}


def manifest(path) -> dict:
    with open(path) as fh:
        m = json.load(fh)
    del m["wall_clock_s"]
    m["inputs"] = list(m["inputs"].values())
    return m


def run(tmp_path, argv, stem) -> dict:
    assert main([*argv, "--stem", stem, "--out-dir", str(tmp_path)]) == 0
    return manifest(tmp_path / f"{stem}_manifest.json")


def fit_manifest(parameters, inputs) -> dict:
    return {"command": "fit", "parameters": parameters, "seed": None,
            "seed_generated": False, "version": "0.1.0", "inputs": inputs}


class TestFit:
    def test_bundled_triangle(self, tmp_path):
        got = run(tmp_path, ["fit", "taylor-ashe"], "f")
        expected = fit_manifest(
            {"triangle": "taylor-ashe", "format": "long", "kind": "amounts", "exposures": None,
             "divisor": "unbiased", "reserves": "cl", "q_bf": None},
            [TAYLOR_ASHE],
        )
        assert json.dumps(got) == json.dumps(expected)  # key order included

    def test_wide_csv_with_exposures(self, tmp_path):
        wide, exposures = tmp_path / "wide.csv", tmp_path / "exposures.csv"
        wide.write_text(WIDE)
        exposures.write_text(EXPOSURES)
        got = run(tmp_path, ["fit", str(wide), "--format", "wide", "--exposures",
                             str(exposures), "--reserves", "cl,bf,cc", "--q-bf", "0.6"], "f")
        expected = fit_manifest(
            {"triangle": str(wide), "format": "wide", "kind": "amounts",
             "exposures": str(exposures), "divisor": "unbiased", "reserves": "cl,bf,cc",
             "q_bf": 0.6},
            ["16cbd61e82a6d6c0adb22b78de90dc3af0b6e41b85f098618526164b67e4d82b",
             "d28ebcb611b24ca1b4ad5d1396ebeee8bbc9c8d20743e57369ee4349f66e6b4a"],
        )
        assert json.dumps(got) == json.dumps(expected)


# The bootstrap parser's flags in order, then the exposure source it used.
BOOTSTRAP_KEYS = ["triangle", "format", "kind", "exposures", "anchor", "B", "q_bf", "c_hat",
                  "divisor", "inclusion_threshold", "dump_draws", "output_format",
                  "exposures_source"]


class TestBootstrap:
    def test_cl_anchor(self, tmp_path):
        got = run(tmp_path, ["bootstrap", "raa", "--B", "40", "--seed", "5"], "b")
        assert got == {
            "command": "bootstrap",
            "parameters": {"triangle": "raa", "format": "long", "kind": "amounts",
                           "anchor": "cl", "B": 40, "q_bf": None, "exposures": None,
                           "exposures_source": None, "c_hat": None, "divisor": "unbiased",
                           "inclusion_threshold": 5.0, "output_format": "json",
                           "dump_draws": None},
            "seed": 5, "seed_generated": False, "version": "0.1.0", "inputs": [RAA],
        }
        assert list(got["parameters"]) == BOOTSTRAP_KEYS

    def test_bf_anchor_with_draw_dump(self, tmp_path):
        draws = str(tmp_path / "draws.csv")
        got = run(tmp_path, ["bootstrap", "taylor-ashe", "--anchor", "bf", "--q-bf", "2.5",
                             "--B", "30", "--seed", "6", "--dump-draws", draws], "b")
        assert got == {
            "command": "bootstrap",
            "parameters": {"triangle": "taylor-ashe", "format": "long", "kind": "amounts",
                           "anchor": "bf", "B": 30, "q_bf": 2.5, "exposures": None,
                           "exposures_source": "lag0-claims", "c_hat": None,
                           "divisor": "unbiased", "inclusion_threshold": 5.0,
                           "output_format": "json", "dump_draws": draws},
            "seed": 6, "seed_generated": False, "version": "0.1.0", "inputs": [TAYLOR_ASHE],
        }
        assert list(got["parameters"]) == BOOTSTRAP_KEYS


def simulate_manifest(study, seed, parameters) -> dict:
    return {"command": f"simulate --study {study}", "parameters": parameters, "seed": seed,
            "seed_generated": False, "version": "0.1.0", "inputs": []}


class TestSimulate:
    @pytest.mark.parametrize("flags,method", [([], "multinomial"), (["--method", "odp"], "odp")])
    def test_correct(self, tmp_path, flags, method):
        got = run(tmp_path, ["simulate", "--study", "correct", *flags, "--M", "2", "--B", "10",
                             "--seed", "7"], "s")
        assert got == simulate_manifest(
            "correct", 7, {**BASE_CONFIG, "method": method, "study": "correct"})

    def test_tweedie_records_its_grids(self, tmp_path):
        got = run(tmp_path, ["simulate", "--study", "tweedie", "--p-grid", "1.4", "--phi-grid",
                             "30", "--M", "2", "--B", "10", "--seed", "8"], "s")
        # The base config keeps p 1.5 and phi 43; the grids say what ran.
        assert got == simulate_manifest("tweedie", 8, {
            **BASE_CONFIG, "seed": 8, "dgp": "tweedie",
            "p_values": [1.4], "phi_values": [30.0], "study": "tweedie"})

    def test_grid_records_the_threads_it_used(self, tmp_path):
        got = run(tmp_path, ["simulate", "--study", "grid", "--grid-c", "50", "--grid-i", "7",
                             "--grid-j", "5", "--M", "2", "--B", "10", "--seed", "9"], "s")
        assert got == simulate_manifest("grid", 9, {
            "c_list": [50.0], "I_list": [7], "J_list": [5], "M": 2, "B": 10, "seed": 9,
            "threads": 1, "study": "grid"})

    def test_threads_flag_is_recorded(self, tmp_path):
        got = run(tmp_path, ["simulate", "--study", "correct", "--M", "2", "--B", "10",
                             "--threads", "2", "--seed", "7"], "s")
        assert got["parameters"]["threads"] == 2
