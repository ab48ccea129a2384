"""Run-off triangle data model, validation, and CSV ingestion.

A triangle stores incremental amounts or counts for accident years
i = 1..I and development lags j = 0..J-1. Cells with i + j <= I are
observed; future cells hold NaN, never zero. A triangle is one read-only
(I, J) array, so it is immutable after construction and safe to share
across threads.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import lru_cache
from importlib import resources
from pathlib import Path
from types import MappingProxyType

import numpy as np


class RunoffError(ValueError):
    """The base of every error class the package defines; the CLI reports
    any of them as one error line."""


class TriangleError(RunoffError):
    """Input data cannot form a valid run-off triangle."""


_BUNDLED = {
    "taylor-ashe": "taylor_ashe.csv",
    "raa": "raa.csv",
    "mortgage": "mortgage.csv",
}


def _n_observed(I: int, J: int) -> int:
    """Observed cells, min(J, I - i + 1) in year i, in closed form: a huge I allocates nothing."""
    m = min(I, J)
    return m * (m + 1) // 2 + (I - m) * J


def _observed_cells(I: int, J: int):
    """(i, j) of every observed cell, in accident-year then lag order;
    year i observes lags 0..min(J - 1, I - i). Lazy, as _n_observed is."""
    for i in range(1, I + 1):
        for j in range(min(J, I - i + 1)):
            yield (i, j)


def _latest_lags(I: int, J: int) -> np.ndarray:
    """The (I,) lags min(J - 1, I - i) at which accident years i = 1..I
    meet the valuation diagonal; every anchor's F_{I-i} is read there."""
    return np.minimum(J - 1, np.arange(I - 1, -1, -1))


@lru_cache(maxsize=64)
def _observed_mask(I: int, J: int) -> np.ndarray:
    """Read-only (I, J) mask of the observed lags j <= _latest_lags, i + j <= I."""
    mask = np.arange(J) <= _latest_lags(I, J)[:, None]
    mask.flags.writeable = False
    return mask


def _check_dims(I: int, J: int) -> None:
    if I < 2 or J < 2:
        raise TriangleError(f"need I >= 2 and J >= 2, got I={I}, J={J}")


_NON_FINITE_EXPOSURE = "non-finite exposure value"


def _value_errors(values: np.ndarray, kind: str) -> list[str | None]:
    """Per (I, J) slice of an (M, I, J) block: the TriangleError message its
    values raise, or None. The first cell in row-major order that is a
    non-finite observed value or a future cell other than NaN is named;
    then, for counts, the first observed cell that is not a non-negative
    integer."""
    _, I, J = values.shape
    observed = _observed_mask(I, J)
    errors: list[str | None] = [None] * values.shape[0]
    ok = np.where(observed, np.isfinite(values), np.isnan(values))
    for m in np.flatnonzero(~ok.all(axis=(1, 2))):
        r, j = np.argwhere(~ok[m])[0]
        if observed[r, j]:
            errors[m] = f"non-finite value at cell ({r + 1}, {j})"
        else:
            errors[m] = f"future cell ({r + 1}, {j}): i + j exceeds I = {I}"
    if kind == "counts":
        bad = observed & ((values < 0.0) | (values != np.floor(values)))
        for m in np.flatnonzero(bad.any(axis=(1, 2))):
            if errors[m] is None:
                r, j = np.argwhere(bad[m])[0]
                errors[m] = (f"count triangles need non-negative integers, "
                             f"got {values[m, r, j]} at ({r + 1}, {j})")
    return errors


@dataclass(frozen=True, eq=False)
class Triangle:
    """Complete run-off triangle of incremental values.

    Attributes:
        values: read-only (I, J) float array; row i - 1 holds accident
            year i, column j lag j. The observed region i + j <= I holds
            finite values and every future cell is NaN.
        kind: "amounts" or "counts".
        exposures: optional per-accident-year exposure vector.

    The constructor copies values, so a triangle never aliases its input.
    """

    values: np.ndarray
    kind: str = "amounts"
    exposures: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        X = np.array(self.values, dtype=float)
        if X.ndim != 2:
            raise TriangleError(f"triangle values must be a 2-D array, got {X.ndim} dimensions")
        I, J = X.shape
        _check_dims(I, J)
        if self.kind not in ("amounts", "counts"):
            raise TriangleError(f"kind must be 'amounts' or 'counts', got {self.kind!r}")
        error = _value_errors(X[None], self.kind)[0]
        if error is not None:
            raise TriangleError(error)
        X.flags.writeable = False
        object.__setattr__(self, "values", X)
        if self.exposures is not None:
            exp = tuple(float(e) for e in self.exposures)
            if len(exp) != I:
                raise TriangleError(
                    f"exposures must have length I = {I}, got {len(exp)}"
                )
            if any(not np.isfinite(e) for e in exp):
                raise TriangleError(_NON_FINITE_EXPOSURE)
            object.__setattr__(self, "exposures", exp)

    @classmethod
    def from_cells(
        cls,
        I: int,
        J: int,
        kind: str,
        cells: Mapping[tuple[int, int], float],
        exposures=None,
    ) -> Triangle:
        """Build a triangle from a mapping (i, j) -> value that covers
        exactly the observed cells i + j <= I, j <= J - 1."""
        _check_dims(I, J)
        for i, j in cells:
            if not (1 <= i <= I) or not (0 <= j <= J - 1):
                raise TriangleError(f"cell index ({i}, {j}) outside the triangle grid")
            if i + j > I:
                raise TriangleError(f"future cell ({i}, {j}): i + j exceeds I = {I}")
        if len(cells) != _n_observed(I, J):
            # The first missing cell lies within the first len(cells) + 1
            # observed cells, so this scan stays short for any I.
            missing = next(key for key in _observed_cells(I, J) if key not in cells)
            raise TriangleError(f"missing observed cell {missing}")
        values = np.full((I, J), np.nan)
        for (i, j), v in cells.items():
            values[i - 1, j] = v
        return cls(values, kind, exposures)

    @property
    def I(self) -> int:
        return self.values.shape[0]

    @property
    def J(self) -> int:
        return self.values.shape[1]

    @property
    def cells(self) -> Mapping[tuple[int, int], float]:
        """Read-only (i, j) -> value mapping of the observed cells, in
        accident-year then lag order."""
        I, J = self.values.shape
        return MappingProxyType(dict(zip(_observed_cells(I, J),
                                         self.values[_observed_mask(I, J)].tolist())))

    def with_exposures(self, exposures) -> Triangle:
        return replace(self, exposures=tuple(float(e) for e in exposures))


@dataclass(frozen=True)
class DiagonalSummary:
    """Row totals at the valuation date plus each row's development lag."""

    observed: tuple[float, ...]
    dev_lag: tuple[int, ...]


def _diagonal_totals(X: np.ndarray) -> np.ndarray:
    """Each row's observed total over an (..., I, J) block of increments:
    one loop sums each row's prefix up to its _latest_lags entry as one
    contiguous vector, so numpy's pairwise grouping, and every bit, is that
    of a lone row. Later cells are never read; summing the NaN-padded row
    would regroup the sum."""
    I, J = X.shape[-2:]
    out = np.empty(X.shape[:-1])
    for r, lag in enumerate(_latest_lags(I, J).tolist()):
        out[..., r] = X[..., r, : lag + 1].sum(axis=-1)
    return out


def latest_diagonal(t: Triangle) -> DiagonalSummary:
    # dev_lag is the public, unclipped development age; F_at_lag clips it.
    observed = tuple(_diagonal_totals(t.values).tolist())
    dev_lag = tuple(t.I - i for i in range(1, t.I + 1))
    return DiagonalSummary(observed=observed, dev_lag=dev_lag)


def cumulate(t: Triangle) -> Triangle:
    # cumsum adds lag by lag; NaN carries through the future region.
    return Triangle(np.cumsum(t.values, axis=1), t.kind, t.exposures)


def decumulate(t: Triangle) -> Triangle:
    """Inverse of cumulate. Decreasing cumulative amounts produce negative
    increments, which are preserved under a warning; decreasing cumulative
    counts are rejected."""
    inc = np.diff(t.values, axis=1, prepend=0.0)
    negatives = [(int(r) + 1, int(j) + 1) for r, j in np.argwhere(inc[:, 1:] < 0.0)]
    if negatives:
        if t.kind == "counts":
            raise TriangleError(
                f"cumulative count rows must be non-decreasing; decreases at {negatives}"
            )
        warnings.warn(
            f"negative increments produced at cells {negatives}", stacklevel=2
        )
    return Triangle(inc, t.kind, t.exposures)


def _read_text(source) -> str:
    if isinstance(source, (str, Path)):
        return Path(source).read_text(encoding="utf-8")
    data = source.read()
    if isinstance(data, bytes):
        return data.decode("utf-8")
    return data


def _parse_number(token: str, where: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise TriangleError(f"non-numeric value {token!r} in {where}") from None


def _parse_index(token: str, where: str, lowest: int) -> int | None:
    """token as an integer >= lowest, or None if it is fractional,
    non-finite or smaller."""
    x = _parse_number(token, where)
    if not math.isfinite(x) or x != int(x) or x < lowest:
        return None
    return int(x)


def _records(text: str):
    """The lower-cased header and the (line number, fields) of every row
    that is not blank."""
    reader = csv.reader(io.StringIO(text))
    header = [h.strip().lower() for h in next(reader, [])]
    rows = ((n, rec) for n, rec in enumerate(reader, start=2) if any(f.strip() for f in rec))
    return header, rows


def _parse_long(text: str):
    header, rows = _records(text)
    if not header:
        raise TriangleError("empty input")
    if header[:3] != ["accident", "lag", "value"]:
        raise TriangleError(
            f"long format needs header accident,lag,value[,exposure], got {header}"
        )
    has_exposure = len(header) == 4 and header[3] == "exposure"
    if len(header) > 3 and not has_exposure:
        raise TriangleError(f"unexpected columns in long header: {header[3:]}")
    cells: dict[tuple[int, int], float] = {}
    exposures: dict[int, float] = {}
    for lineno, rec in rows:
        if len(rec) < 3:
            raise TriangleError(f"line {lineno}: expected at least 3 fields")
        where = f"line {lineno}"
        i = _parse_index(rec[0], where, 1)
        j = _parse_index(rec[1], where, 0)
        if i is None or j is None:
            raise TriangleError(f"{where}: accident/lag must be integers with accident >= 1")
        if (i, j) in cells:
            raise TriangleError(f"duplicate cell ({i}, {j}) at {where}")
        cells[(i, j)] = _parse_number(rec[2], where)
        if has_exposure and len(rec) > 3 and rec[3].strip():
            e = _parse_number(rec[3], where)
            if i in exposures and exposures[i] != e:
                raise TriangleError(f"conflicting exposures for accident year {i}")
            exposures[i] = e
    return cells, exposures


def _parse_wide(text: str):
    header, rows = _records(text)
    if not header:
        raise TriangleError("empty input")
    if header[0] != "accident":
        raise TriangleError("wide format needs header accident,lag0,...")
    expected = [f"lag{k}" for k in range(len(header) - 1)]
    if header[1:] != expected:
        raise TriangleError(f"wide header columns must be {expected}, got {header[1:]}")
    width = len(header)
    cells: dict[tuple[int, int], float] = {}
    for lineno, rec in rows:
        if len(rec) > width:
            raise TriangleError(f"line {lineno}: ragged row, {len(rec)} fields for {width} columns")
        where = f"line {lineno}"
        i = _parse_index(rec[0], where, 1)
        if i is None:
            raise TriangleError(f"{where}: accident must be an integer >= 1")
        for j, token in enumerate(rec[1:]):
            if not token.strip():
                continue  # blank means future cell; explicit zeros are data
            if (i, j) in cells:
                raise TriangleError(f"duplicate cell ({i}, {j}) at {where}")
            cells[(i, j)] = _parse_number(token, where)
    return cells, {}


def load_triangle(
    source,
    format: str = "long",
    kind: str = "amounts",
    exposures=None,
) -> Triangle:
    """Parse a triangle from a path, file object, or byte stream.

    Long format: header ``accident,lag,value[,exposure]``. Wide format:
    header ``accident,lag0,...,lag{J-1}`` with future cells left blank.
    Dimensions are inferred: I is the largest accident index and J is one
    past the largest lag. An exposure column (long format) or the
    ``exposures`` argument attaches exposures; the argument wins.
    """
    text = _read_text(source)
    if format == "long":
        cells, exp_map = _parse_long(text)
    elif format == "wide":
        cells, exp_map = _parse_wide(text)
    else:
        raise TriangleError(f"unknown format {format!r}; use 'long' or 'wide'")
    if not cells:
        raise TriangleError("no data rows")
    I = max(i for i, _ in cells)
    J = max(j for _, j in cells) + 1
    # The cells are validated before the exposure column, so a huge
    # accident index fails fast as a missing cell.
    t = Triangle.from_cells(I, max(J, 2), kind, cells, exposures)
    if exposures is None and exp_map:
        missing = [i for i in range(1, I + 1) if i not in exp_map]
        if missing:
            raise TriangleError(f"exposure column present but accident years {missing} lack one")
        t = t.with_exposures(exp_map[i] for i in range(1, I + 1))
    return t


def load_exposures(source) -> tuple[float, ...]:
    """Parse a sidecar exposure file with header ``accident,exposure``."""
    header, rows = _records(_read_text(source))
    if header != ["accident", "exposure"]:
        raise TriangleError("exposure file needs header accident,exposure")
    vals: dict[int, float] = {}
    for lineno, rec in rows:
        if len(rec) != 2:
            raise TriangleError(f"line {lineno}: expected 2 fields, got {len(rec)}")
        i = _parse_index(rec[0], f"line {lineno}", 1)
        if i is None or i in vals:
            raise TriangleError(f"bad or duplicate accident index at line {lineno}")
        vals[i] = _parse_number(rec[1], f"line {lineno}")
    # Distinct indices >= 1 cover 1..I exactly when the largest is their count.
    if not vals or max(vals) != len(vals):
        raise TriangleError("exposure file must cover accident years 1..I")
    return tuple(vals[i] for i in range(1, max(vals) + 1))


def _bundled_file(name: str):
    """The packaged CSV of a bundled triangle name, or None. Case, leading
    directories, a .csv suffix and "_" for "-" are ignored."""
    key = Path(name.strip()).name.lower().removesuffix(".csv").replace("_", "-")
    if key not in _BUNDLED:
        return None
    return resources.files(__package__).joinpath("data", _BUNDLED[key])


def bundled_triangle(name: str) -> Triangle:
    """Load one of the bundled benchmark triangles by name.

    Names: "taylor-ashe", "raa", "mortgage". All three ship as long-format
    incremental amount triangles.
    """
    path = _bundled_file(name)
    if path is None:
        raise TriangleError(f"unknown bundled triangle {name!r}; options: {sorted(_BUNDLED)}")
    return load_triangle(io.StringIO(path.read_text(encoding="utf-8")), format="long")
