"""Overdispersed-Poisson residual bootstrap, the comparison baseline.

Unlike the conditional engine in predictive.py, this procedure reads the
triangle inside its loop: Pearson residuals are resampled onto the
fitted surface, development factors are re-estimated from each pseudo
triangle, and future cells receive Gamma process error. The structural
contrast is the point: the observed data are treated as one more sample
rather than as fixed conditioning information.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import RngStream
from .patterns import PatternError, _cumulative_pattern, _link_ratio_block
from .predictive import (PredictiveError, ReserveDistribution, _b_fault, _check_totals,
                         _distribution, _fold, _summarise)
from .triangle import (RunoffError, Triangle, _diagonal_totals, _latest_lags, _n_observed,
                       _observed_mask)

_ODP_DOMAIN = 2  # stream tag for the residual bootstrap
_POOL_FLOOR = 1e-9  # fitted means at or below this leave the residual pool
_MEAN_FLOOR = 1e-12
_MAX_REDRAWS = 100


class OdpError(RunoffError):
    """The ODP fit or bootstrap cannot proceed on the given input."""


@dataclass(frozen=True)
class OdpFit:
    """Cross-classified ODP fit of an incremental triangle.

    fitted_incrementals and residuals are (I, J) arrays with NaN outside
    the observed region (residuals are also NaN where the fitted mean is
    too small to standardise). The fit reproduces the row and column
    margins of the data, dof = observed cells - (I + J - 1), and
    projected_future holds the chain-ladder means of the unobserved
    cells.
    """

    I: int
    J: int
    fitted_incrementals: np.ndarray
    dispersion: float
    residuals: np.ndarray
    dof: int
    n_cells: int
    link_ratios: np.ndarray
    projected_future: np.ndarray

    def pattern_F(self) -> np.ndarray:
        return _cumulative_pattern(self.link_ratios)


def _odp_fits(X: np.ndarray) -> list[OdpFit | OdpError | PatternError]:
    """odp_fit of each (I, J) slice of an (n, I, J) increments block: its
    OdpFit, or the error odp_fit raises for it.

    The arithmetic runs over the whole block, element by element as for a
    lone triangle; the sums keep a lone triangle's order: each row's
    latest total is its observed prefix summed as one vector, the link
    ratios' column sums add the accident years one after another, and each
    slice's Pearson sum runs over its own finite residuals alone.
    """
    n, I, J = X.shape
    n_cells = _n_observed(I, J)
    n_params = I + J - 1
    dof = n_cells - n_params
    if dof < 1:
        return [OdpError(f"saturated triangle: {n_cells} cells for {n_params} "
                         f"parameters leaves dof = {dof}")] * n
    f, errors = _link_ratio_block(X)
    observed = _observed_mask(I, J)
    last = _latest_lags(I, J)
    latest = _diagonal_totals(X)
    # Fitted cumulatives: each row's latest total divided backward through
    # the link ratios, then walked forward into the future; differencing
    # gives the fitted increments and the projected future cells. A faulty
    # slice's ratios hold anything, so its arithmetic may not be finite.
    cum = np.empty((n, I, J))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        for j in range(J - 1, -1, -1):
            cum[:, last == j, j] = latest[:, last == j]
            if j < J - 1:
                back = last > j
                cum[:, back, j] = cum[:, back, j + 1] / f[:, j, None]
        for j in range(1, J):
            ahead = last < j
            cum[:, ahead, j] = cum[:, ahead, j - 1] * f[:, j - 1, None]
        increments = np.diff(cum, axis=-1, prepend=0.0)
        fitted = np.where(observed, increments, np.nan)
        residuals = np.where(fitted > _POOL_FLOOR, (X - fitted) / np.sqrt(fitted), np.nan)
    future = np.where(observed, np.nan, increments)
    negative = (fitted < 0.0).any(axis=(1, 2))
    fits: list[OdpFit | OdpError | PatternError] = []
    for k in range(n):
        if errors[k] is not None:
            fits.append(PatternError(errors[k]))
        elif negative[k]:
            fits.append(OdpError("negative fitted incrementals: data are too non-monotone for ODP"))
        else:
            r2 = residuals[k][np.isfinite(residuals[k])]
            fits.append(OdpFit(
                I=I,
                J=J,
                fitted_incrementals=fitted[k],
                dispersion=float(np.sum(r2 * r2) / dof),
                residuals=residuals[k],
                dof=dof,
                n_cells=n_cells,
                link_ratios=f[k],
                projected_future=future[k],
            ))
    return fits


def odp_fit(t: Triangle) -> OdpFit:
    """Fit the ODP surface by the chain-ladder margin identity.

    Fitted cumulatives are obtained by dividing each row's latest
    observed cumulative backward through the volume-weighted link
    ratios; differencing gives fitted incrementals whose row and column
    sums match the data. Dispersion is the Pearson chi-square over
    degrees of freedom. The one-triangle case of _odp_fits.
    """
    fit = _odp_fits(t.values[None])[0]
    if isinstance(fit, Exception):
        raise fit
    return fit


def _work_array(work: dict, name: str, shape: tuple, dtype=float) -> np.ndarray:
    """An array of shape and dtype over the bytes work keeps under name,
    which are made anew when too few. Arrays taken under one name share
    their memory."""
    size = math.prod(shape) * np.dtype(dtype).itemsize
    buf = work.get(name)
    if buf is None or buf.size < size:
        buf = work[name] = np.empty(size, np.uint8)
    return buf[:size].view(dtype).reshape(shape)


def _odp_draws(fit: OdpFit, B: int, g: np.random.Generator, work: dict) -> tuple[np.ndarray, int]:
    """The draw kernel of odp_bootstrap: the B process-error totals of each
    accident year with future cells, in year order, as an (open years, B)
    array, and the number of redrawn replications, all drawn from g as
    odp_bootstrap's docstring fixes. With dispersion <= 0 each of those
    years holds its point reserve instead.

    work holds the kernel's large arrays between calls, the returned one
    among them, so a caller that keeps work for many fits of one shape
    allocates them once; it must not be shared between threads. The
    resampled indices and the process error share one array's memory,
    and the pseudo cumulatives and the future means another's.
    """
    fault = _b_fault(B, fit.I * fit.J)  # no array here has more rows than cells
    if fault is not None:
        raise OdpError(fault)
    B, I, J = int(B), fit.I, fit.J
    last = _latest_lags(I, J).tolist()
    open_years = [i for i in range(I) if last[i] < J - 1]
    sums = _work_array(work, "sums", (len(open_years), B))
    phi = fit.dispersion
    if phi <= 0.0:
        sums[:] = np.nansum(fit.projected_future, axis=1)[open_years, None]
        return sums, 0

    # Flat layout: one row of B replications per observed cell, in
    # row-major cell order, so year i's cells are rows first[i]:first[i + 1].
    first = np.cumsum([0, *(L + 1 for L in last)])
    m_obs = fit.fitted_incrementals[_observed_mask(I, J)]
    n_obs = m_obs.size
    sqrt_m = np.sqrt(m_obs)[:, None]
    m_obs = m_obs[:, None]
    pool = fit.residuals[np.isfinite(fit.residuals)]
    if pool.size == 0:
        raise OdpError("empty residual pool: every fitted mean is degenerate")
    pool = pool * np.sqrt(fit.n_cells / fit.dof)
    diagonal = [first[i] + last[i] for i in open_years]

    def build(idx: np.ndarray, arrays: dict):
        """Latest pseudo cumulatives of the open years, refitted factors
        (J - 1, nb) and a validity flag per replication."""
        # C order: a cell's replications are one row.
        it = _work_array(arrays, "a", idx.shape[::-1], idx.dtype)
        np.copyto(it, idx.T)
        cum = _work_array(arrays, "b", it.shape)
        np.take(pool, it, out=cum, mode="clip")  # every index is in range
        cum *= sqrt_m
        cum += m_obs
        for a, b in zip(first[:-1], first[1:]):
            for k in range(a + 1, b):
                cum[k] += cum[k - 1]
        # Column sums added one year after another; year 1 observes every lag.
        num, den = cum[1 : first[1]].copy(), cum[: first[1] - 1].copy()
        for a, L in zip(first[1:], last[1:]):
            num[:L] += cum[a + 1 : a + L + 1]
            den[:L] += cum[a : a + L]
        with np.errstate(invalid="ignore", divide="ignore"):
            factors = num / den
        valid = np.all((num > 0.0) & (den > 0.0), axis=0)
        return cum[diagonal], factors, valid

    latest, factors, valid = build(g.integers(0, pool.size, size=(B, n_obs)), work)
    rejected = 0
    rounds = 0
    while not np.all(valid):
        rounds += 1
        if rounds > _MAX_REDRAWS:
            raise OdpError(
                f"{int((~valid).sum())} replications still degenerate after "
                f"{_MAX_REDRAWS} redraw rounds"
            )
        bad = np.nonzero(~valid)[0]
        rejected += bad.size
        re_idx = g.integers(0, pool.size, size=(bad.size, n_obs))
        latest[:, bad], factors[:, bad], valid[bad] = build(re_idx, {})

    # Future means, one row per future cell in year-then-lag order: each
    # open year walks its latest pseudo cumulative forward through the
    # running product of its factors, and differences the walk.
    widths = [J - 1 - last[i] for i in open_years]
    lags = [j for i in open_years for j in range(last[i], J - 1)]
    means = _work_array(work, "b", (len(lags), B))
    np.take(factors, lags, axis=0, out=means, mode="clip")
    offset = 0
    for k, width in enumerate(widths):
        walk = means[offset : offset + width]
        for j in range(1, width):
            walk[j] *= walk[j - 1]
        walk *= latest[k]
        for j in range(width - 1, 0, -1):
            walk[j] -= walk[j - 1]
        walk[0] -= latest[k]
        offset += width
    np.maximum(means, _MEAN_FLOOR, out=means)
    means /= phi
    process = _work_array(work, "a", (B, len(lags)))
    g.standard_gamma(means.T, out=process)
    # Overflow is numpy's gamma's inf, which the callers' checks report.
    with np.errstate(over="ignore"):
        process *= phi
    offset = 0
    for k, width in enumerate(widths):
        np.sum(process[:, offset : offset + width], axis=1, out=sums[k])
        offset += width
    return sums, rejected


def odp_bootstrap(fit: OdpFit, B: int, seed: int) -> ReserveDistribution:
    """Residual-resampling bootstrap over the fitted ODP surface.

    Per replication: dof-adjusted Pearson residuals are resampled with
    replacement, pseudo increments m + r sqrt(m) are refitted by chain
    ladder, future means are projected from the pseudo diagonal, and
    each future cell draws Gamma process error with variance dispersion
    times mean. Replications whose refit degenerates (non-positive
    column sums) are redrawn, up to 100 rounds, and counted.

    The draws are fixed bit for bit by seed, and two things fix them.
    First, RngStream(seed).derive(_ODP_DOMAIN) is drawn from only thus:
      1. integers(0, pool size, size=(B, n_obs)), one residual per
         observed cell in row-major cell order;
      2. per redraw round, integers(0, pool size, size=(n_bad, n_obs))
         for the still degenerate replications in increasing order;
      3. standard_gamma(shape=means / dispersion) over the (B, n_future)
         means, future cells in year-then-lag order, times dispersion:
         the bits of gamma(shape, scale=dispersion), which numpy computes
         as scale * standard_gamma(shape).
    Second, the summation order. Pseudo cumulatives add lag by lag. Each
    refitted factor's column sums add the accident years one after
    another, in every round and at any B. Future means multiply the
    factors lag by lag, then scale by the latest pseudo cumulative. Each
    year's process-error total is numpy's pairwise sum over its future
    cells (8-way blocks from 8 cells on).

    The draws come from _odp_draws; the years are folded into the total by
    predictive._fold, in year order, and the total is checked by
    predictive._check_totals, as the Beta bootstraps' are and as the
    coverage studies do directly. Each year's summary, or its fault's
    message, is predictive._summarise's on a sorted copy, its draws kept in
    order; the per-year view is predictive._distribution.
    """
    sums, rejected = _odp_draws(fit, B, RngStream(seed).derive(_ODP_DOMAIN).generator(), {})
    total, faults = np.zeros((1, sums.shape[1])), [None]
    _fold(total[0], sums)
    moments = _check_totals(total, faults)
    if faults[0] is not None:
        raise PredictiveError(faults[0])
    last = _latest_lags(fit.I, fit.J)
    none = np.zeros(fit.I, dtype=bool)
    rules = (np.full(fit.I, np.nan), none, last < fit.J - 1, none)
    meta = {"rejected_replications": rejected, "dispersion": fit.dispersion, "dof": fit.dof}
    return _distribution(total[0], moments, fit.pattern_F()[last],
                         np.nansum(fit.projected_future, axis=1), rules, sums,
                         [_summarise(year, False) for year in sums], "ODP", meta=meta)
