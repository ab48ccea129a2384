"""Triangle construction, cumulate/decumulate, and CSV ingestion."""
from __future__ import annotations

import importlib
import io
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import runoff
from runoff.patterns import DevelopmentPattern, cl_ultimates
from runoff.predictive import bf_bootstrap
from runoff.simlab import SimConfig, _true_F, generate_triangle
from runoff.triangle import (
    DiagonalSummary,
    Triangle,
    TriangleError,
    _diagonal_totals,
    _observed_mask,
    bundled_triangle,
    cumulate,
    decumulate,
    latest_diagonal,
    load_exposures,
    load_triangle,
)


def small_triangle(kind="amounts"):
    """3 accident years, 3 lags, fully observed diagonal mask."""
    cells = {
        (1, 0): 10.0, (1, 1): 6.0, (1, 2): 4.0,
        (2, 0): 20.0, (2, 1): 12.0,
        (3, 0): 30.0,
    }
    return Triangle.from_cells(3, 3, kind, cells)


class TestConstruction:
    def test_valid(self):
        t = small_triangle()
        assert t.I == 3 and t.J == 3
        assert t.cells[(2, 1)] == 12.0

    def test_cells_are_read_only(self):
        t = small_triangle()
        with pytest.raises(TypeError):
            t.cells[(1, 0)] = 99.0

    def test_missing_observed_cell(self):
        cells = {(1, 0): 1.0, (2, 0): 2.0}
        with pytest.raises(TriangleError, match="missing observed cell"):
            Triangle.from_cells(3, 3, "amounts", cells)

    def test_future_cell_rejected(self):
        cells = dict(small_triangle().cells)
        cells[(3, 1)] = 5.0
        with pytest.raises(TriangleError, match="future cell"):
            Triangle.from_cells(3, 3, "amounts", cells)
        values = small_triangle().values.copy()
        values[2, 1] = 5.0
        with pytest.raises(TriangleError, match=r"^future cell \(3, 1\): i \+ j exceeds I = 3$"):
            Triangle(values)

    def test_values_must_be_2d(self):
        with pytest.raises(TriangleError, match="must be a 2-D array, got 1 dimensions"):
            Triangle(np.ones(3))

    def test_index_outside_grid(self):
        cells = dict(small_triangle().cells)
        cells[(0, 0)] = 1.0
        with pytest.raises(TriangleError, match="outside the triangle grid"):
            Triangle.from_cells(3, 3, "amounts", cells)

    def test_non_finite_value(self):
        cells = dict(small_triangle().cells)
        cells[(1, 0)] = float("nan")
        with pytest.raises(TriangleError, match="non-finite"):
            Triangle.from_cells(3, 3, "amounts", cells)

    def test_minimum_dimensions(self):
        with pytest.raises(TriangleError):
            Triangle.from_cells(1, 3, "amounts", {})
        with pytest.raises(TriangleError):
            Triangle.from_cells(3, 1, "amounts", {})

    def test_kind_checked(self):
        with pytest.raises(TriangleError, match="kind"):
            Triangle.from_cells(3, 3, "losses", dict(small_triangle().cells))

    def test_counts_must_be_non_negative_integers(self):
        cells = dict(small_triangle().cells)
        cells[(1, 1)] = 6.5
        with pytest.raises(TriangleError, match="non-negative integers"):
            Triangle.from_cells(3, 3, "counts", cells)
        cells[(1, 1)] = -2.0
        with pytest.raises(TriangleError):
            Triangle.from_cells(3, 3, "counts", cells)

    def test_negative_amounts_are_stored(self):
        cells = dict(small_triangle().cells)
        cells[(1, 1)] = -6.0
        t = Triangle.from_cells(3, 3, "amounts", cells)
        assert t.cells[(1, 1)] == -6.0

    def test_exposures_length_checked(self):
        with pytest.raises(TriangleError, match="exposures"):
            Triangle.from_cells(3, 3, "amounts", dict(small_triangle().cells), (1.0, 2.0))
        with pytest.raises(TriangleError, match="^non-finite exposure value$"):
            Triangle.from_cells(3, 3, "amounts", dict(small_triangle().cells),
                                (1.0, float("nan"), 2.0))

    def test_with_exposures(self):
        t = small_triangle().with_exposures([1, 2, 3])
        assert t.exposures == (1.0, 2.0, 3.0)


class TestAccessors:
    def test_values_rows_in_lag_order(self):
        t = small_triangle()
        np.testing.assert_array_equal(t.values[0], [10.0, 6.0, 4.0])
        np.testing.assert_array_equal(t.values[2, :1], [30.0])

    def test_values_future_is_nan(self):
        m = small_triangle().values
        assert m.shape == (3, 3)
        assert np.isnan(m[2, 1]) and np.isnan(m[1, 2])
        assert m[0, 2] == 4.0

    def test_latest_diagonal(self):
        d = latest_diagonal(small_triangle())
        assert isinstance(d, DiagonalSummary)
        assert d.observed == (20.0, 32.0, 30.0)
        assert d.dev_lag == (2, 1, 0)

    def test_latest_diagonal_sums_each_row_as_one_vector(self):
        # Rows of 8 or more cells reach numpy's pairwise blocks, so the
        # summation order shows in the last bits.
        pi = tuple(np.full(20, 0.05))
        for rep in range(3):
            t, _ = generate_triangle(SimConfig(I=20, J=20, pi_true=pi, seed=41), rep)
            want = tuple(float(t.values[r, : t.I - r].sum()) for r in range(t.I))
            assert latest_diagonal(t).observed == want

    def test_observed_region_closure(self):
        # Every stored cell satisfies i + j <= I; nothing else exists.
        for rep in range(3):
            t, _ = generate_triangle(SimConfig(I=8, J=5, M=1, B=1, seed=31), rep)
            for (i, j) in t.cells:
                assert i + j <= t.I and 0 <= j < t.J


class TestCumulateDecumulate:
    def test_cumulate_values(self):
        c = cumulate(small_triangle())
        assert c.cells[(1, 2)] == 20.0
        assert c.cells[(2, 1)] == 32.0

    def test_round_trip_identity(self):
        for rep in range(5):
            t, _ = generate_triangle(SimConfig(I=9, J=5, M=1, B=1, seed=17), rep)
            back = decumulate(cumulate(t))
            for key, v in t.cells.items():
                assert back.cells[key] == pytest.approx(v, rel=1e-12, abs=1e-9)

    def test_decumulate_warns_on_decreasing_amounts(self):
        cells = {(1, 0): 10.0, (1, 1): 8.0, (2, 0): 5.0}
        cum = Triangle.from_cells(2, 2, "amounts", cells)
        with pytest.warns(UserWarning, match="negative increments"):
            inc = decumulate(cum)
        assert inc.cells[(1, 1)] == -2.0

    def test_decumulate_rejects_decreasing_counts(self):
        cells = {(1, 0): 10.0, (1, 1): 8.0, (2, 0): 5.0}
        cum = Triangle.from_cells(2, 2, "counts", cells)
        with pytest.raises(TriangleError, match="non-decreasing"):
            decumulate(cum)


LONG_CSV = """accident,lag,value,exposure
1,0,10,100
1,1,6,100
1,2,4,100
2,0,20,200
2,1,12,200
3,0,30,300
"""

WIDE_CSV = """accident,lag0,lag1,lag2
1,10,6,4
2,20,12,
3,30,,
"""


class TestLongFormat:
    def test_parse_with_exposures(self):
        t = load_triangle(io.StringIO(LONG_CSV))
        assert (t.I, t.J) == (3, 3)
        assert t.cells[(2, 1)] == 12.0
        assert t.exposures == (100.0, 200.0, 300.0)

    def test_bytes_source(self):
        t = load_triangle(io.BytesIO(LONG_CSV.encode()))
        assert dict(t.cells) == dict(load_triangle(io.StringIO(LONG_CSV)).cells)

    def test_explicit_exposures_win_over_column(self):
        t = load_triangle(io.StringIO(LONG_CSV), exposures=(7, 8, 9))
        assert t.exposures == (7.0, 8.0, 9.0)

    def test_blank_lines_skipped(self):
        text = LONG_CSV.replace("2,0,20,200\n", "2,0,20,200\n\n ,,\n")
        t = load_triangle(io.StringIO(text))
        assert len(t.cells) == 6

    def test_duplicate_cell(self):
        text = LONG_CSV + "1,0,99,100\n"
        with pytest.raises(TriangleError, match="duplicate cell"):
            load_triangle(io.StringIO(text))

    def test_conflicting_exposure(self):
        text = LONG_CSV.replace("1,2,4,100", "1,2,4,150")
        with pytest.raises(TriangleError, match="conflicting exposures"):
            load_triangle(io.StringIO(text))

    def test_bad_header(self):
        with pytest.raises(TriangleError, match="long format needs header"):
            load_triangle(io.StringIO("origin,dev,paid\n1,0,10\n"))

    def test_non_numeric_value(self):
        with pytest.raises(TriangleError, match="non-numeric"):
            load_triangle(io.StringIO("accident,lag,value\n1,0,abc\n"))

    def test_fractional_lag(self):
        with pytest.raises(TriangleError, match="integers"):
            load_triangle(io.StringIO("accident,lag,value\n1,0.5,10\n"))

    def test_empty_input(self):
        with pytest.raises(TriangleError, match="empty input"):
            load_triangle(io.StringIO(""))

    def test_partial_exposure_column(self):
        text = "accident,lag,value,exposure\n1,0,10,100\n1,1,5,100\n2,0,20,\n"
        with pytest.raises(TriangleError, match="lack one"):
            load_triangle(io.StringIO(text))


class TestWideFormat:
    def test_parse(self):
        t = load_triangle(io.StringIO(WIDE_CSV), format="wide")
        assert (t.I, t.J) == (3, 3)
        assert t.cells[(3, 0)] == 30.0
        assert (3, 1) not in t.cells

    def test_explicit_zero_is_data(self):
        text = WIDE_CSV.replace("2,20,12,", "2,20,0,")
        t = load_triangle(io.StringIO(text), format="wide")
        assert t.cells[(2, 1)] == 0.0

    def test_ragged_row(self):
        text = WIDE_CSV.replace("1,10,6,4", "1,10,6,4,9")
        with pytest.raises(TriangleError, match="ragged"):
            load_triangle(io.StringIO(text), format="wide")

    def test_header_columns_checked(self):
        with pytest.raises(TriangleError, match="lag0"):
            load_triangle(io.StringIO("accident,dev0,dev1\n1,1,2\n"), format="wide")

    def test_unknown_format(self):
        with pytest.raises(TriangleError, match="unknown format"):
            load_triangle(io.StringIO(LONG_CSV), format="square")


@pytest.mark.parametrize("format,text,message", [
    ("long", "accident,lag,value,notes\n1,0,10,x\n", "unexpected columns in long header"),
    ("long", "accident,lag,value\n1,0\n", "line 2: expected at least 3 fields"),
    ("long", "accident,lag,value\n", "no data rows"),
    ("wide", "", "empty input"),
    ("wide", "year,lag0,lag1\n1,10,6\n", "wide format needs header accident,lag0"),
    ("wide", WIDE_CSV + "1,10,6,4\n", r"duplicate cell \(1, 0\) at line 5"),
])
def test_malformed_file_is_named(format, text, message):
    with pytest.raises(TriangleError, match=message):
        load_triangle(io.StringIO(text), format=format)


class TestLoaderDeterminism:
    def test_identical_bytes_identical_triangle(self, tmp_path: Path):
        p = tmp_path / "t.csv"
        p.write_text(LONG_CSV)
        a = load_triangle(p)
        b = load_triangle(p)
        assert a.I == b.I and a.J == b.J and a.kind == b.kind
        assert dict(a.cells) == dict(b.cells)
        assert a.exposures == b.exposures


class TestExposureFile:
    def test_load(self, tmp_path: Path):
        p = tmp_path / "e.csv"
        p.write_text("accident,exposure\n1,10\n2,20\n3,30\n")
        assert load_exposures(p) == (10.0, 20.0, 30.0)

    def test_header_required(self):
        with pytest.raises(TriangleError, match="header"):
            load_exposures(io.StringIO("year,exp\n1,10\n"))

    def test_gap_rejected(self):
        with pytest.raises(TriangleError, match="cover accident years"):
            load_exposures(io.StringIO("accident,exposure\n1,10\n3,30\n"))

    def test_duplicate_rejected(self):
        with pytest.raises(TriangleError, match="duplicate"):
            load_exposures(io.StringIO("accident,exposure\n1,10\n1,11\n"))


class TestBundled:
    @pytest.mark.parametrize(
        "name,I,J,n",
        [("taylor-ashe", 10, 10, 55), ("raa", 10, 10, 55), ("mortgage", 9, 9, 45)],
    )
    def test_dimensions(self, name, I, J, n):
        t = bundled_triangle(name)
        assert (t.I, t.J, len(t.cells)) == (I, J, n)
        assert t.kind == "amounts"

    def test_name_normalisation(self):
        a = bundled_triangle("taylor_ashe")
        b = bundled_triangle("Taylor-Ashe")
        assert dict(a.cells) == dict(b.cells)

    def test_unknown_name(self):
        with pytest.raises(TriangleError, match="unknown bundled triangle"):
            bundled_triangle("nope")

    def test_raa_contains_negative_increment(self):
        # The RAA paid triangle is the canonical example of a real
        # triangle with decreases; downstream estimators must tolerate it.
        t = bundled_triangle("raa")
        assert min(t.cells.values()) < 0.0

    def test_a_copy_under_another_name_reads_its_own_data(self, tmp_path, monkeypatch):
        # Two checkouts can be loaded side by side in one interpreter only
        # if each package finds the bundled triangles beside its own code.
        copy = tmp_path / "runoff_copy"
        shutil.copytree(Path(runoff.__file__).parent, copy,
                        ignore=shutil.ignore_patterns("__pycache__"))
        monkeypatch.syspath_prepend(str(tmp_path))
        try:
            triangle = importlib.import_module("runoff_copy.triangle")
            assert Path(str(triangle._bundled_file("raa"))).is_relative_to(copy)
            assert np.array_equal(triangle.bundled_triangle("raa").values,
                                  bundled_triangle("raa").values, equal_nan=True)
        finally:
            for name in [m for m in sys.modules if m.split(".")[0] == "runoff_copy"]:
                del sys.modules[name]


@st.composite
def triangles(draw, kind="amounts"):
    """Triangles with I in 2..12 and J in 2..I (a loader infers J from the
    largest lag, so J <= I); amounts are any floats of magnitude below
    1e300, zeros and negatives included, and counts are below 1e6."""
    I = draw(st.integers(2, 12))
    J = draw(st.integers(2, I))
    if kind == "counts":
        values = st.integers(0, 10**6).map(float)
    else:
        values = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    X = np.full((I, J), np.nan)
    for i in range(I):
        for j in range(min(J, I - i)):
            X[i, j] = draw(values)
    return Triangle(X, kind)


class TestArrayProperties:
    @settings(max_examples=50, deadline=None)
    @given(t=triangles())
    def test_long_and_wide_loaders_round_trip_values(self, t):
        long = "accident,lag,value\n" + "".join(
            f"{i},{j},{v!r}\n" for (i, j), v in t.cells.items())
        wide = "accident," + ",".join(f"lag{j}" for j in range(t.J)) + "\n" + "".join(
            f"{i}," + ",".join(repr(v) for v in t.values[i - 1, : t.I - i + 1].tolist()) + "\n"
            for i in range(1, t.I + 1))
        for text, fmt in ((long, "long"), (wide, "wide")):
            back = load_triangle(io.StringIO(text), format=fmt)
            assert np.array_equal(back.values, t.values, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(t=triangles("counts"))
    def test_decumulate_inverts_cumulate_exactly_on_counts(self, t):
        back = decumulate(cumulate(t))
        assert back.kind == "counts"
        assert np.array_equal(back.values, t.values, equal_nan=True)

    @settings(max_examples=100, deadline=None)
    @given(t=triangles())
    def test_decumulate_inverts_cumulate_within_rounding_on_amounts(self, t):
        # Not bit-exact: (0.1 + 0.2) - 0.1 != 0.2.
        cum = cumulate(t)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # negative increments
            back = decumulate(cum)
        tol = 4 * np.finfo(float).eps * np.nanmax(np.abs(cum.values), axis=1, keepdims=True)
        observed = ~np.isnan(t.values)
        assert np.array_equal(np.isnan(back.values), ~observed)
        assert np.all(np.abs(back.values - t.values)[observed] <= np.broadcast_to(tol, t.values.shape)[observed])

    def test_values_are_read_only_and_copied(self):
        X = small_triangle().values.copy()
        t = Triangle(X)
        X[0, 0] = 99.0
        assert t.values[0, 0] == 10.0
        with pytest.raises(ValueError):
            t.values[0, 0] = 1.0
        with pytest.raises(TypeError):
            t.cells[(1, 0)] = 1.0


def future_nan(X: np.ndarray) -> np.ndarray:
    """X with every cell of year i past lag I - i (1-based i) set to NaN."""
    I, J = X.shape[-2:]
    return np.where(np.add.outer(np.arange(1, I + 1), np.arange(J)) <= I, X, np.nan)


def random_pattern(J: int, rng: np.random.Generator) -> DevelopmentPattern:
    pi = rng.uniform(0.5, 1.5, J)
    pi /= pi.sum()
    F = np.cumsum(pi)
    F[-1] = 1.0
    return DevelopmentPattern(pi=pi, F=F, method="x")


shapes = st.tuples(st.integers(2, 12), st.integers(2, 12))


class TestNonSquareDiagonal:
    """The valuation diagonal on I > J and I < J shapes. Triangle(values)
    and simlab reach I < J; CSV parsing infers J <= I. Year i's latest lag
    is min(J - 1, I - i) and every anchor reads F_at_lag(I - i) there."""

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(shape=shapes, M=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
    @example(shape=(12, 3), M=2, seed=1)
    @example(shape=(3, 12), M=2, seed=2)
    def test_diagonal_totals_sum_each_observed_prefix_alone(self, shape, M, seed):
        # Rows of 8 or more cells reach numpy's pairwise blocks, so the
        # summation order shows in the last bits.
        I, J = shape
        X = future_nan(np.random.default_rng(seed).lognormal(0.0, 2.0, (M, I, J)))
        want = [[X[m, r, : I - r].sum() for r in range(I)] for m in range(M)]
        assert _diagonal_totals(X).tobytes() == np.array(want).tobytes()

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(shape=shapes, seed=st.integers(0, 2**32 - 1))
    @example(shape=(12, 3), seed=3)
    @example(shape=(3, 12), seed=4)
    def test_every_anchor_reads_f_at_the_latest_lag(self, shape, seed):
        I, J = shape
        rng = np.random.default_rng(seed)
        t = Triangle(future_nan(rng.uniform(1.0, 100.0, (I, J))))
        p = random_pattern(J, rng)
        F = [p.F_at_lag(I - i) for i in range(1, I + 1)]
        obs = np.array(latest_diagonal(t).observed)
        assert cl_ultimates(t, p).ultimates.tobytes() == (obs / np.array(F)).tobytes()
        dist = bf_bootstrap(np.full(I, 1000.0), 0.8, p, 50.0, 2, seed)
        assert [y.F for y in dist.per_year] == F
        if I >= 3:  # SimConfig's smallest I
            # _true_F builds p again from pi_true, as random_pattern does.
            assert _true_F(SimConfig(I=I, J=J, pi_true=tuple(p.pi))).tolist() == F

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(shape=shapes)
    @example(shape=(12, 3))
    @example(shape=(3, 12))
    def test_the_observed_mask_ends_at_the_latest_lag(self, shape):
        from runoff.triangle import _latest_lags

        I, J = shape
        lags = _latest_lags(I, J)
        assert lags.tolist() == [min(J - 1, I - i) for i in range(1, I + 1)]
        assert (_observed_mask(I, J) == (np.arange(J) <= lags[:, None])).all()
