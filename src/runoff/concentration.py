"""Concentration-parameter inference from partial-column proportions.

Each development horizon k turns the first k+1 increments of a row into
proportions W_ij = X_ij / sum_{l<=k} X_il. Across the accident years
fully observed beyond lag k these proportions are Beta-distributed
column by column, and moment matching per column yields a concentration
estimate; the reported c_hat is the median over all retained (j, k)
cells. Horizons start at k = 2: the two-support-point proportions at
k = 1 carry the least stable variance estimates and are left out of the
aggregate. One moment kernel serves a stack of M triangles at once
(estimate_c_batch); a single triangle is its M = 1 case.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .triangle import RunoffError, Triangle

_MIN_ROWS = 3
_HETEROGENEOUS_BELOW = 30.0
_DELTA_AT_OR_ABOVE = 100.0
_AGGREGATE_KMIN = 2


class ConcentrationError(RunoffError):
    """Concentration estimation cannot proceed on the given input."""


# What estimate_c raises where estimate_c_batch gives NaN.
_NO_USABLE_CELLS = (
    "no usable (j, k) cells: the triangle is too small or too irregular "
    "for moment estimation of the concentration parameter"
)


class CellEstimate(NamedTuple):
    j: int
    k: int
    c_hat: float
    n_k: int
    pi_hat: float


class DroppedCell(NamedTuple):
    j: int
    k: int
    reason: str


@dataclass(frozen=True)
class ConcentrationEstimate:
    """Median-aggregated concentration estimate with its cell table.

    Attributes:
        c_hat: median of the retained per-cell estimates.
        cells: retained (j, k, c_hat_jk, n_k, pi_hat_jk) tuples sorted by
            (k, j); n_k counts the rows that entered the cell after
            positivity screening.
        diagnostic: "heterogeneous" (c_hat < 30), "stable", or
            "delta-recommended" (c_hat >= 100).
        dropped_cells: cells excluded before the median, with reasons.
        divisor: variance convention used, "unbiased" (n-1) or "biased" (n).
    """

    c_hat: float
    cells: tuple[CellEstimate, ...]
    diagnostic: str
    dropped_cells: tuple[DroppedCell, ...]
    divisor: str


def _ddof(divisor: str) -> int:
    if divisor == "unbiased":
        return 1
    if divisor == "biased":
        return 0
    raise ConcentrationError(f"divisor must be 'unbiased' or 'biased', got {divisor!r}")


def sigma_c_squared(c: float, pi: float) -> float:
    """Asymptotic per-cell variance of the moment estimator of c.

    Strictly positive on c > 0, pi in (0, 1); grows like 2 c^2 for
    large c. The ratios are taken before the products, so the value is
    finite up to c of about 9.4e153 and only then overflows to inf.
    """
    if c <= 0.0:
        raise ConcentrationError(f"c must be positive, got {c}")
    if not 0.0 < pi < 1.0:
        raise ConcentrationError(f"pi must lie in (0, 1), got {pi}")
    u = pi * (1.0 - pi)
    return (c / (c + 2.0)) * ((c + 1.0) / (c + 3.0)) * (
        (2.0 * c * (c - 3.0) * u + 3.0 * c + 1.0) / u
    )


class _Horizon(NamedTuple):
    """Moment estimates of one horizon k over a stack of M triangles."""

    k: int
    used: np.ndarray  # (M,) rows positive in every lag 0..k
    mean: np.ndarray  # (M, k) mean proportion per column j < k
    var: np.ndarray  # (M, k) sample variance per column
    c: np.ndarray  # (M, k) m(1 - m)/v - 1
    keep: np.ndarray  # (M, k) cells that enter the median


def _horizons(X: np.ndarray, ddof: int) -> list[_Horizon]:
    """The moment kernel over an (M, I, J) block of increments.

    Rows are ordered by accident year; entries beyond a row's observed
    lags may be NaN since horizons only read the qualifying rows.
    Horizons run k = 2..J-2 subject to I - k - 1 >= 3. A row enters
    horizon k only if its increments at lags 0..k are all positive; the
    others are zeroed out of the sums, so every stack member's column
    sums add its usable rows in accident-year order.
    """
    _, I, J = X.shape
    out = []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(_AGGREGATE_KMIN, J - 1):
            n_k = I - k - 1  # the years observing past lag k: a row count, not a lag
            if n_k < _MIN_ROWS:
                continue
            block = X[:, :n_k, : k + 1]
            good = (block > 0.0).all(axis=2)
            rows = good[:, :, None]
            W = np.where(rows, block[:, :, :k] / block.sum(axis=2, keepdims=True), 0.0)
            used = good.sum(axis=1)
            mean = W.sum(axis=1) / used[:, None]
            dev = np.where(rows, W - mean[:, None, :], 0.0)
            var = (dev * dev).sum(axis=1) / (used - ddof)[:, None]
            c = mean * (1.0 - mean) / var - 1.0
            # c < inf also rules out NaN, and a zero or negative variance
            # gives c = +-inf or NaN.
            keep = (c > 0.0) & (c < np.inf) & (used >= _MIN_ROWS)[:, None]
            out.append(_Horizon(k, used, mean, var, c, keep))
    return out


def _median(horizons: list[_Horizon]) -> np.ndarray:
    """Per stack member, the median of its kept cells (NaN if none), with
    np.median's arithmetic: the middle value, or half the sum of the two."""
    c = np.concatenate([np.where(h.keep, h.c, np.nan) for h in horizons], axis=1)
    s = np.sort(c, axis=1)  # NaN sorts last, so a row with none kept reads NaN
    n = np.count_nonzero(~np.isnan(c), axis=1)
    rows = np.arange(c.shape[0])
    lo = s[rows, (n - 1) // 2]
    hi = s[rows, n // 2]
    with np.errstate(over="ignore"):
        return np.where(n % 2 == 1, lo, (lo + hi) / 2.0)


def estimate_c_batch(X: np.ndarray, divisor: str = "unbiased") -> np.ndarray:
    """c_hat of every triangle in an (M, I, J) block of increments.

    Each slice gives the bits estimate_c gives on it; a slice with no
    usable cell gets NaN instead of an error. Raises if no horizon
    qualifies at this I and J.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 3:
        raise ConcentrationError("expected an (M, I, J) array of increments")
    horizons = _horizons(X, _ddof(divisor))
    if not horizons:
        raise ConcentrationError(f"no estimable horizon at I={X.shape[1]}, J={X.shape[2]}")
    return _median(horizons)


def estimate_c_from_matrix(X: np.ndarray, divisor: str = "unbiased") -> ConcentrationEstimate:
    """The M = 1 case of estimate_c_batch, with its cell tables, for
    increments already shaped as an (I, J) array.

    Rows must be ordered so that row index 0 has the longest observation
    horizon, matching triangle accident-year order.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ConcentrationError("expected a 2-D array of increments")
    horizons = _horizons(X[None], _ddof(divisor))
    cells: list[CellEstimate] = []
    dropped: list[DroppedCell] = []
    for h in horizons:
        used = int(h.used[0])
        columns = zip(h.mean[0].tolist(), h.var[0].tolist(), h.c[0].tolist(), h.keep[0].tolist())
        for j, (m, v, c_jk, keep) in enumerate(columns):
            if used < _MIN_ROWS:
                dropped.append(DroppedCell(j, h.k, f"only {used} usable rows"))
            elif v <= 0.0:
                dropped.append(DroppedCell(j, h.k, "zero sample variance"))
            elif not keep:
                dropped.append(DroppedCell(j, h.k, f"non-positive estimate {c_jk:.4g}"))
            else:
                cells.append(CellEstimate(j=j, k=h.k, c_hat=c_jk, n_k=used, pi_hat=m))
    if not cells:
        raise ConcentrationError(_NO_USABLE_CELLS)
    c_hat = float(_median(horizons)[0])
    if c_hat >= _DELTA_AT_OR_ABOVE:
        diagnostic = "delta-recommended"
    elif c_hat < _HETEROGENEOUS_BELOW:
        diagnostic = "heterogeneous"
    else:
        diagnostic = "stable"
    return ConcentrationEstimate(
        c_hat=c_hat,
        cells=tuple(cells),
        diagnostic=diagnostic,
        dropped_cells=tuple(dropped),
        divisor=divisor,
    )


def estimate_c(t: Triangle, divisor: str = "unbiased") -> ConcentrationEstimate:
    """Estimate the concentration parameter from a triangle.

    Proportions are scale-free per row, so the estimate is invariant
    under rescaling any accident year. The median is taken as the
    midpoint when the retained cell count is even.
    """
    return estimate_c_from_matrix(t.values, divisor)
