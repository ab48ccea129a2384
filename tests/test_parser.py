"""The argument parser main builds once per process and reuses.

A reused parser must leave nothing behind from one call to the next: each
report and manifest equals what a freshly built parser gives. Help and
usage text are pinned byte for byte at COLUMNS=80; they were taken with
Python 3.11's argparse, whose layout other Python versions may change.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from runoff import cli

HELP = Path(__file__).parent / "help"
SEED_BYTES = (12345).to_bytes(4, "big")  # what os.urandom gives a seedless run here

# (stem, argv, exit code), run in order in one process.
SEQUENCE = [
    ("seeded", ["bootstrap", "taylor-ashe", "--B", "200", "--seed", "1"], 0),
    ("seedless", ["bootstrap", "taylor-ashe", "--B", "200"], 0),
    ("cl-cc", ["fit", "taylor-ashe", "--reserves", "cl,cc", "--exposures", "{exposures}"], 0),
    ("plain", ["fit", "taylor-ashe"], 0),
    ("rejected", ["bootstrap", "taylor-ashe", "--B", "0"], 2),
    ("after-error", ["bootstrap", "raa", "--anchor", "bf", "--q-bf", "2", "--B", "200"], 0),
]


@pytest.fixture
def build_calls(monkeypatch):
    """Counts build_parser calls, starting from an empty parser cache."""
    calls = []
    real = cli.build_parser

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    yield calls
    cli._parser.cache_clear()


def run_sequence(out: Path, exposures: Path) -> dict[str, object]:
    """Each stem's exit code, report bytes and manifest less its clock."""
    got = {}
    for stem, argv, code in SEQUENCE:
        argv = [a.format(exposures=exposures) for a in argv]
        argv += ["--out-dir", str(out), "--stem", stem]
        if code == 2:
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            got[stem] = exc.value.code
            continue
        got[stem] = cli.main(argv)
        manifest = json.loads((out / f"{stem}_manifest.json").read_text())
        del manifest["wall_clock_s"]
        got[f"{stem} report"] = (out / f"{stem}.json").read_bytes()
        got[f"{stem} manifest"] = manifest
    return got


def test_reused_parser_leaks_nothing_between_calls(tmp_path, monkeypatch, capsys, build_calls):
    monkeypatch.setattr(os, "urandom", lambda n: SEED_BYTES[:n])
    exposures = tmp_path / "exposures.csv"
    exposures.write_text("accident,exposure\n" + "".join(f"{i},{1000 + 10 * i}\n"
                                                         for i in range(1, 11)))
    reused = run_sequence(tmp_path / "reused", exposures)
    assert len(build_calls) == 1
    with monkeypatch.context() as m:
        m.setattr(cli, "_parser", lambda: cli.build_parser())
        fresh = run_sequence(tmp_path / "fresh", exposures)
    assert len(build_calls) == 1 + len(SEQUENCE)  # a fresh parser per call
    assert reused == fresh
    assert [reused[stem] for stem, _, _ in SEQUENCE] == [code for _, _, code in SEQUENCE]
    assert reused["seeded manifest"]["seed_generated"] is False
    assert reused["seedless manifest"]["seed_generated"] is True
    assert reused["seedless manifest"]["seed"] == 12345
    assert reused["plain manifest"]["parameters"]["reserves"] == "cl"
    assert reused["plain manifest"]["parameters"]["exposures"] is None
    assert list(json.loads(reused["plain report"])["reserves"]) == ["cl"]
    assert reused["after-error manifest"]["parameters"]["B"] == 200


def test_parser_is_not_built_at_import():
    code = ("import runoff.cli as c; "
            "assert c._parser.cache_info().currsize == 0; c.build_parser(); "
            "assert c._parser.cache_info().currsize == 0")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)


@pytest.mark.parametrize("name,argv", [
    ("runoff", ["--help"]),
    ("fit", ["fit", "--help"]),
    ("bootstrap", ["bootstrap", "--help"]),
    ("simulate", ["simulate", "--help"]),
])
def test_help_text_is_unchanged(monkeypatch, capsys, build_calls, name, argv):
    # The parser is built at another width first: the text follows the
    # width when it is printed, not when the parser was built.
    monkeypatch.setenv("COLUMNS", "200")
    cli._parser()
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    assert build_calls == [1]
    assert capsys.readouterr().out == (HELP / f"{name}.txt").read_text()


def test_usage_error_text_is_unchanged(monkeypatch, capsys, build_calls):
    monkeypatch.setenv("COLUMNS", "200")
    cli._parser()
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit", "--divisor", "median"])
    assert exc.value.code == 2
    assert build_calls == [1]
    assert capsys.readouterr().err == (HELP / "fit-error.txt").read_text()
