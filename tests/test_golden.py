"""Golden digests: SHA-256 of the bytes `runoff bootstrap` and `runoff
simulate` write for fixed seeds.

A change that moves a digest changes behaviour, not speed, and must say
why. The digests were taken with numpy 2.4.6 on Python 3.11.7; numpy's
Beta sampler is not guaranteed stable across numpy versions, so on
another numpy a mismatch may come from numpy rather than from runoff.
B = 1000 draws the accident years one after another; B = 50 000 and
above draws them on a thread pool, whose output must not differ. The
`simulate` digests pin the interval scoring of the coverage studies,
and the `odp_bootstrap` digests pin the ODP residual bootstrap's draws
bit for bit, redraws included.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from runoff.cli import main
from runoff.odp import odp_bootstrap, odp_fit
from runoff.triangle import bundled_triangle

REPORTS = {
    "cl-b1000": (["taylor-ashe", "--B", "1000", "--seed", "11"],
                 "f5306e8437c7873d67c1881e31e334c1a79b064fad5f5b0525c2c0b3e1abfc88"),
    "cl-b50000": (["taylor-ashe", "--B", "50000", "--seed", "11"],
                  "22ec06cd612e863403bf777a24feff7dddf7905b609a0389d8908d36f1044c7f"),
    "bf-b1000": (["taylor-ashe", "--anchor", "bf", "--q-bf", "2.5", "--B", "1000",
                  "--seed", "12"],
                 "3017422e9f52949c189d6e60d2f72a705b7251297329fa79ec26d5b6296aad25"),
    "bf-b50000": (["taylor-ashe", "--anchor", "bf", "--q-bf", "2.5", "--B", "50000",
                   "--seed", "12"],
                  "09c6310990e8173f5f0c55b1cc1ee115cf1c5168711946f0f171018803758391"),
}


CSV_REPORTS = {
    "cl-csv": (["taylor-ashe", "--B", "1000", "--seed", "11"],
               "f7f9f18133041e841146f0a5123e4d7921f33cdbbb6d1efcde95f7c40b703afa"),
    "bf-raa-csv": (["raa", "--anchor", "bf", "--q-bf", "2.5", "--B", "1000",
                    "--seed", "14"],
                   "bca00818db8f47c5d87e3896ea366a56e463475c6a7c79f5622e598d2c08ebc0"),
    # Years 9 and 10 have c*F <= 2: mean and se empty, quantiles written.
    "cl-suppressed-csv": (["raa", "--c-hat", "5", "--inclusion-threshold", "0",
                           "--B", "1001", "--seed", "15"],
                          "d15d9367e715c1e980d742b1e7c87c6ca2c2410f066034826cce597b9653abda"),
}

STUDIES = {
    "correct": ("correct", ["--M", "20", "--seed", "21"], {
        "csv": "a892469b18b3f80d19c6de6a804d9a7b694c11d40c6f3f6265d0a88bb9f2a093",
        "json": "0aa97e2560ae4f89d827f77a1890629c2c7335793ca96c19d095254bdb5a8189",
    }),
    "compare-odp": ("compare-odp", ["--M", "2", "--seed", "22"], {
        "csv": "01271a32e853e85ebdbb4cc9d36274eed93b8d2f0f2b130593e308c9172d2b9c",
        "json": "6c8166c076db4a674b0989e3a2d80fc258152ec7b95f3fc3508cd2d77839ca4a",
    }),
    "compare-odp-threads2": ("compare-odp", ["--M", "4", "--threads", "2", "--seed", "24"], {
        "csv": "5b4ffb7b1e5ea8b2064cde8917b86b00565d5314f6c101bf74d0aacb8f61c1fd",
        "json": "e113640b007c0c8da152b1a760753204d3f84ff87db41d306e4961ab5de529b0",
    }),
}

# case -> (triangle, B, seed, redraws, SHA-256 of every year's draws, the
# total and the redraw count). The redraw counts are asserted exactly, so
# the mortgage cases keep covering the redraw branch: at B = 20 000 it
# redraws hundreds of replications, and at B = 20, seed 14, one redraw
# round refits a single replication, as does every fit at B = 1.
ODP_DRAWS = {
    "taylor-ashe": ("taylor-ashe", 2000, 1, 0,
                    "f6aa1454c055d24bd98570e56fda9f010b9e68b5d9a930f4aebc6edc2cd03c61"),
    "mortgage": ("mortgage", 20_000, 1, 568,
                 "4ee1ead650bd398f9e8d6e4e8b1283d3e062267df5c28fe7d209d28bf8f4e431"),
    "mortgage-lone-redraw": ("mortgage", 20, 14, 1,
                             "1121a1c66a5a390f3461408c5a9323f2898b70e6e77a3aaef6f2177dbaefbde8"),
    "raa-b1": ("raa", 1, 3, 0,
               "b5f2425b923c8ef547524336daf7a319ed2d4e9de096738eda75fcae4fac409b"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("case", sorted(REPORTS))
def test_bootstrap_report_digest(tmp_path, case):
    argv, digest = REPORTS[case]
    assert main(["bootstrap", *argv, "--out-dir", str(tmp_path)]) == 0
    assert sha256(tmp_path / "runoff_bootstrap.json") == digest


def test_draw_dump_digest(tmp_path):
    # raa excludes years 9 and 10 at its estimated c, and B is not a
    # multiple of the draw chunk.
    dump = tmp_path / "draws.csv"
    assert main(["bootstrap", "raa", "--B", "50001", "--seed", "13",
                 "--dump-draws", str(dump), "--out-dir", str(tmp_path)]) == 0
    assert sha256(dump) == "16e759f30d7083e33b1a4c833570d03be80ed8b96221b902131addeb386c9572"
    assert sha256(tmp_path / "runoff_bootstrap.json") == (
        "ed3f39a1ff283e910523ef64cb05393cbe81cb46d787b64be346f92a4d1a1d7a")


@pytest.mark.parametrize("case", sorted(CSV_REPORTS))
def test_bootstrap_csv_report_digest(tmp_path, case):
    argv, digest = CSV_REPORTS[case]
    assert main(["bootstrap", *argv, "--output-format", "csv",
                 "--out-dir", str(tmp_path)]) == 0
    assert sha256(tmp_path / "runoff_bootstrap.csv") == digest


@pytest.mark.parametrize("case", sorted(STUDIES))
def test_simulate_report_digests(tmp_path, case):
    study, argv, digests = STUDIES[case]
    assert main(["simulate", "--study", study, *argv, "--out-dir", str(tmp_path)]) == 0
    for ext, digest in digests.items():
        assert sha256(tmp_path / f"runoff_{study}.{ext}") == digest, ext


@pytest.mark.parametrize("case", sorted(ODP_DRAWS))
def test_odp_bootstrap_digest(case):
    name, B, seed, redraws, digest = ODP_DRAWS[case]
    dist = odp_bootstrap(odp_fit(bundled_triangle(name)), B, seed=seed)
    h = hashlib.sha256()
    for y in dist.per_year:
        h.update(np.ascontiguousarray(y.draws).tobytes())
    h.update(dist.total.tobytes())
    h.update(str(dist.meta["rejected_replications"]).encode())
    assert dist.meta["rejected_replications"] == redraws
    assert h.hexdigest() == digest
