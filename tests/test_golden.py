"""Golden digests: SHA-256 of the bytes `runoff bootstrap` writes for fixed
seeds.

A change that moves a digest changes behaviour, not speed, and must say
why. The digests were taken with numpy 2.4.6 on Python 3.11.7; numpy's
Beta sampler is not guaranteed stable across numpy versions, so on
another numpy a mismatch may come from numpy rather than from runoff.
B = 1000 draws the accident years one after another; B = 50 000 and
above draws them on a thread pool, whose output must not differ.
"""
from __future__ import annotations

import hashlib

import pytest

from runoff.cli import main

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
