"""The draw dump's number formatter against Python's repr, byte for byte.

cli._repr_rows must write exactly what csv.writer wrote from Python floats:
each value as repr, ',' between values and CRLF after each row.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from runoff import cli
from runoff.cli import _repr_rows, main


def reference(block: np.ndarray) -> bytes:
    return "".join(",".join(map(repr, row)) + "\r\n" for row in block.tolist()).encode()


def assert_matches_repr(values, cols: int = 8) -> None:
    """Lays the values out in rows of cols, padded with zeros, and checks
    them a dump block at a time."""
    values = np.asarray(values, dtype=np.float64).ravel()
    values = np.concatenate([values, np.zeros(-values.size % cols)])
    rows = values.reshape(-1, cols)
    for k in range(0, len(rows), cli._DUMP_ROWS):
        block = rows[k : k + cli._DUMP_ROWS]
        assert _repr_rows(block) == reference(block)


def neighbours(values: np.ndarray) -> np.ndarray:
    """Each value with its two floats on either side."""
    down = np.nextafter(values, -np.inf)
    up = np.nextafter(values, np.inf)
    return np.concatenate([values, down, up, np.nextafter(down, -np.inf),
                           np.nextafter(up, np.inf)])


def test_random_bit_patterns():
    rng = np.random.default_rng(20261018)
    bits = rng.integers(0, 2**64, size=1_000_000, dtype=np.uint64)
    # Half of them keep a uniform exponent field, which lands in the fixed
    # notation range about one time in thirty; the other half get an
    # exponent from that range, 2**-14 to 2**53.
    exponent = rng.integers(1023 - 14, 1023 + 54, size=500_000).astype(np.uint64)
    bits[:500_000] = (bits[:500_000] & ~np.uint64(0x7FF << 52)) | (exponent << np.uint64(52))
    values = bits.view(np.float64)
    assert_matches_repr(values[np.isfinite(values)], cols=10)


def test_neighbours_of_short_decimals_at_every_exponent():
    rng = np.random.default_rng(7)
    values = []
    for exponent in range(-4, 16):
        for digits in range(1, 8):
            mantissa = rng.integers(10 ** (digits - 1), 10**digits, size=60)
            shift = exponent - digits + 1
            values += [float(f"{m}e{shift}") for m in mantissa]
    assert_matches_repr(neighbours(np.array(values)))


def test_powers_of_two_and_of_ten():
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    values = neighbours(np.concatenate([twos, tens]))
    assert_matches_repr(np.concatenate([values, -values]))


def test_edges_zeros_subnormals_and_the_largest_floats():
    tiny = np.finfo(np.float64).smallest_normal
    big = np.finfo(np.float64).max
    edges = neighbours(np.array([1e-4, 1e16, tiny, big / 4]))
    rng = np.random.default_rng(3)
    subnormals = rng.integers(1, 2**52, size=1000, dtype=np.uint64).view(np.float64)
    values = np.concatenate([edges, subnormals,
                             [0.0, 5e-324, big, np.nextafter(big, 0.0), np.inf, np.nan]])
    assert_matches_repr(np.concatenate([values, -values]))


def test_ties_between_two_shortest_candidates():
    # In [2**50, 2**51) an odd mantissa gives x = n + 0.25 or n + 0.75,
    # halfway between two 17-digit decimals that both read back as x.
    rng = np.random.default_rng(11)
    n = rng.integers(2**50, 2**51, size=100_000).astype(np.float64)
    values = n + rng.choice([0.25, 0.75], size=n.size)
    assert_matches_repr(np.concatenate([values, -values]))


def test_integers_and_negative_values():
    rng = np.random.default_rng(5)
    whole = rng.integers(-(2**53), 2**53, size=50_000).astype(np.float64)
    small = rng.integers(-10_000, 10_000, size=20_000).astype(np.float64)
    scaled = rng.uniform(-1.0, 1.0, size=50_000) * 10.0 ** rng.integers(-6, 18, size=50_000)
    assert_matches_repr(np.concatenate([whole, small, scaled]))


@pytest.mark.parametrize("cols", range(1, 13))
def test_every_row_width(cols):
    rng = np.random.default_rng(cols)
    values = np.concatenate([rng.gamma(2.0, 1e6, size=600), [0.0, -0.0, np.inf, 1e-5, 0.25]])
    assert_matches_repr(rng.permutation(values), cols=cols)


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(st.integers(1, 20), st.integers(1, 12)),
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_generated_blocks_match_repr(block):
    assert _repr_rows(block) == reference(block)


def test_dump_is_formatted_in_fixed_row_blocks(tmp_path, monkeypatch):
    shapes = []

    def recording(block):
        shapes.append(block.shape)
        return _repr_rows(block)

    monkeypatch.setattr(cli, "_repr_rows", recording)
    dump = tmp_path / "draws.csv"
    B = 2 * cli._DUMP_ROWS + 3
    assert main(["bootstrap", "taylor-ashe", "--B", str(B), "--seed", "4",
                 "--dump-draws", str(dump), "--out-dir", str(tmp_path)]) == 0
    assert shapes == [(cli._DUMP_ROWS, 11), (cli._DUMP_ROWS, 11), (3, 11)]
    lines = dump.read_bytes().split(b"\r\n")
    assert len(lines) == B + 2 and lines[-1] == b""
