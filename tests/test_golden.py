"""Golden digests: SHA-256 of the bytes `runoff fit`, `runoff bootstrap`
and `runoff simulate` write for fixed seeds.

A change that moves a digest changes behaviour, not speed, and must say
why. The digests were taken with numpy 2.4.6 on Python 3.11.7; numpy's
Beta sampler is not guaranteed stable across numpy versions, so on
another numpy a mismatch may come from numpy rather than from runoff.
B = 1000 draws the accident years one after another; B = 50 000 and
above draws them on a thread pool, whose output must not differ. The
`fit` digests pin every concentration cell (c_hat, pi_hat, n_k) and
every dropped-cell reason, the `simulate` digests pin every study's
report and the interval scoring of the coverage studies (the
count-hierarchy case is the only counts-kind path), and the `odp_bootstrap` digests pin the ODP residual bootstrap's draws
bit for bit, redraws included.
"""
from __future__ import annotations

import hashlib

import numpy as np
import pytest

from runoff.cli import main
from runoff.odp import odp_bootstrap, odp_fit
from runoff.triangle import bundled_triangle

# (triangle, divisor) -> SHA-256 of the `fit` JSON report.
FIT_REPORTS = {
    ("taylor-ashe", "unbiased"): "918537993db63040f53cb5ae39829143765236cc2e8912eddcc8866609a46b98",
    ("taylor-ashe", "biased"): "c00c29f7c5beb27fb4d641d4a50f822b5b549717eb029a01a580d34b5924a713",
    ("raa", "unbiased"): "e72bbef9adffc29346daa7eab2af874538d6a366bc18255c8af73f134bf7af42",
    ("raa", "biased"): "50c9265740240e28f9294cf238e78bad2fc6b629599af3fd12f1500a5e94150b",
    ("mortgage", "unbiased"): "2c00c4247f23f929e8d65dbc1546a0feeab3d98c6fd7c8d3fe759dc742d09971",
    ("mortgage", "biased"): "7547347d09b2f6c3f38c0a1c355f726f5fb56c295bf3868e972e2b3fd069d56b",
}

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
    "count-hierarchy": ("correct", ["--dgp", "count-hierarchy", "--M", "20", "--seed", "25"], {
        "csv": "d743a6a46a2b71b779530a43df962a00014faacd3103bbd7e882f8d3d56258a1",
        "json": "65ee591817522d8425b70d0e406886fae2b66280c36cd3503a98aecb0bdc1426",
    }),
    "compare-odp-threads2": ("compare-odp", ["--M", "4", "--threads", "2", "--seed", "24"], {
        "csv": "5b4ffb7b1e5ea8b2064cde8917b86b00565d5314f6c101bf74d0aacb8f61c1fd",
        "json": "e113640b007c0c8da152b1a760753204d3f84ff87db41d306e4961ab5de529b0",
    }),
    "nonstat": ("nonstat", ["--M", "6", "--B", "200", "--seed", "31"], {
        "csv": "fcc5eec4f7d9b29bdbf6b3c47c46eb08f428ed4261edf2c409c2b72846169069",
        "json": "6feccc15c07d92a984664c4f54eb67615ff2a6239267c3f2e9e5cb83f7d6edeb",
    }),
    "tweedie": ("tweedie", ["--M", "6", "--B", "200", "--seed", "32"], {
        "csv": "5735f41babfd13966c326ab725706cbf77fed8349637d963f2b0c84b551c1f81",
        "json": "c2d64448f9568ab1ff2ddeb8bee6d4dd17133fd772598a128968363b45f8caab",
    }),
    # J = 3 has no default pattern: those four cells are impossible rows.
    "grid": ("grid", ["--M", "4", "--B", "100", "--grid-c", "20,50", "--grid-i", "7,10",
                      "--grid-j", "3,5", "--seed", "33"], {
        "csv": "1c40136d4df28f9967dc604693e44cc99aa83dffe57cf27466393a7f5f15eaf6",
        "json": "4e1db2e211e632aae9dc61b9f7bc4234f81e1fe07c7dc03d34d489114b400856",
    }),
    "sigma-c": ("sigma-c", ["--M", "50", "--I", "30", "--seed", "34"], {
        "csv": "8954320035fcf9e16ed0630bd75a51601e1b35ee5830316ee1b4e1c7f2d1c146",
        "json": "e7aef06a812ddfe2f3fffcacc0eb9b941d71ecb6b515f37586a418907149c01d",
    }),
    "conservatism": ("conservatism", ["--M", "100", "--seed", "35"], {
        "csv": "65272e4ad232997a9195492d936c0abe0a1a9c20236506bd8af304e1594e7099",
        "json": "734f1bbf8ab8582a99810ec1b6456b13fe2bbd5d0cb83b987e293a88af5387ba",
    }),
    "correct-odp-threads2": ("correct", ["--method", "odp", "--M", "5", "--B", "100",
                                         "--threads", "2", "--seed", "36"], {
        "csv": "08265b8eb0583e6779d4f0e0a433eb1200ee82004ac960db771882cbb5c90112",
        "json": "103f0075f94ed3025a9c6d469b1b14112a5dafc38bf611a9c3a33cb44db013c7",
    }),
}

# study -> (size flags, CSV and JSON digests) with every list and scalar
# study flag left at its default, which the study's signature sets.
STUDY_DEFAULTS = {
    "correct": (["--M", "2", "--B", "10", "--seed", "41"], (
        "3531e8d578031df6cd5da97bb0a8d837bea567e261c2178598f53bc2bbbfb3d6",
        "745c1e6aeb4f03e944e599a01607c6ebdfc7ef0640f1b8ff26ea4fa7091d7794")),
    "nonstat": (["--M", "2", "--B", "10", "--seed", "42"], (
        "588e5c2e3fb1462ed9e18ff5ee372f1d5ec030474bdcc5e39104f0416d0277d4",
        "6d82a971b699386daa446bc71aadd7614b1308962d138cd0054d24da8d449431")),
    "tweedie": (["--M", "2", "--B", "10", "--seed", "43"], (
        "61ecb0fcaa01a9b694ed3d031b8cec25ebb996e0a5616f12e8e5466f6af5adb4",
        "0dad9f0429b2c7ca5d8395f8b40158bcbfaa36ea8393dafeb49be2d3083a6a1f")),
    "compare-odp": (["--M", "1", "--B", "10", "--seed", "44"], (
        "0d13625c3483e04d95e78959ec5b40ae2ddbd527921ff803580cadd9715748c9",
        "8d52662bcfb1fe514cd616f2fca6b919d72532604257dee1a0ec96d5e7b1576f")),
    "grid": (["--M", "1", "--B", "10", "--seed", "45"], (
        "c6dd183f38ffbc63ded9f6f0856b8240eb4fcb5fc15a28d5439663b7e3d9b214",
        "650fdf436a962b1f4a15f9bc3c98b2f331614da474492a8609b9c45a7ccb0a87")),
    "sigma-c": (["--M", "3", "--seed", "46"], (
        "533be596ef20d68dfa90072ba8fc41b0e0f8b9159a65e8bfdaef721d73d9ab2d",
        "ba3fb439685ca76c3597175810ad13c4833e19ecffa5f076727703b274741c1a")),
    "conservatism": (["--M", "10", "--seed", "47"], (
        "8ef0a6a7ddf4f9cc28873f689f2765dafcb22284f279730361f5e1e0a600644c",
        "14e9ae203a397c48557924f677bf0a89ba904bc4156226ab77640f14222366d9")),
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


@pytest.mark.parametrize("name,divisor", sorted(FIT_REPORTS))
def test_fit_report_digest(tmp_path, name, divisor):
    assert main(["fit", name, "--divisor", divisor, "--out-dir", str(tmp_path)]) == 0
    assert sha256(tmp_path / "runoff_fit.json") == FIT_REPORTS[(name, divisor)]


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


@pytest.mark.parametrize("study", sorted(STUDY_DEFAULTS))
def test_simulate_default_study_arguments_digests(tmp_path, study):
    argv, digests = STUDY_DEFAULTS[study]
    assert main(["simulate", "--study", study, *argv, "--out-dir", str(tmp_path)]) == 0
    for ext, digest in zip(("csv", "json"), digests):
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
