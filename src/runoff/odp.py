"""Overdispersed-Poisson residual bootstrap, the comparison baseline.

Unlike the conditional engine in predictive.py, this procedure reads the
triangle inside its loop: Pearson residuals are resampled onto the
fitted surface, development factors are re-estimated from each pseudo
triangle, and future cells receive Gamma process error. The structural
contrast is the point: the observed data are treated as one more sample
rather than as fixed conditioning information.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import RngStream
from .patterns import _cumulative_pattern, link_ratios
from .predictive import ReserveDistribution, YearPredictive, _assemble
from .triangle import Triangle

_ODP_DOMAIN = 2  # stream tag for the residual bootstrap
_POOL_FLOOR = 1e-9  # fitted means at or below this leave the residual pool
_MEAN_FLOOR = 1e-12
_MAX_REDRAWS = 100


class OdpError(ValueError):
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


def odp_fit(t: Triangle) -> OdpFit:
    """Fit the ODP surface by the chain-ladder margin identity.

    Fitted cumulatives are obtained by dividing each row's latest
    observed cumulative backward through the volume-weighted link
    ratios; differencing gives fitted incrementals whose row and column
    sums match the data. Dispersion is the Pearson chi-square over
    degrees of freedom.
    """
    I, J = t.I, t.J
    n_cells = len(t.cells)
    n_params = I + J - 1
    dof = n_cells - n_params
    if dof < 1:
        raise OdpError(
            f"saturated triangle: {n_cells} cells for {n_params} parameters leaves dof = {dof}"
        )
    f = link_ratios(t)
    X = t.values
    fitted = np.full((I, J), np.nan)
    future = np.full((I, J), np.nan)
    for i in range(1, I + 1):
        last = t.last_lag(i)
        cum_fit = np.empty(last + 1)
        cum_fit[last] = X[i - 1, : last + 1].sum()
        for j in range(last, 0, -1):
            cum_fit[j - 1] = cum_fit[j] / f[j - 1]
        fitted[i - 1, : last + 1] = np.diff(np.concatenate([[0.0], cum_fit]))
        run = cum_fit[last]
        for j in range(last + 1, J):
            nxt = run * f[j - 1]
            future[i - 1, j] = nxt - run
            run = nxt
    if np.nanmin(fitted) < 0.0:
        raise OdpError("negative fitted incrementals: data are too non-monotone for ODP")
    with np.errstate(invalid="ignore", divide="ignore"):
        residuals = np.where(fitted > _POOL_FLOOR, (X - fitted) / np.sqrt(fitted), np.nan)
    r2 = residuals[np.isfinite(residuals)]
    dispersion = float(np.sum(r2 * r2) / dof)
    return OdpFit(
        I=I,
        J=J,
        fitted_incrementals=fitted,
        dispersion=dispersion,
        residuals=residuals,
        dof=dof,
        n_cells=n_cells,
        link_ratios=f,
        projected_future=future,
    )


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
      3. gamma(shape=means / dispersion, scale=dispersion) over the
         (B, n_future) means, future cells in year-then-lag order.
    Second, the summation order. Pseudo cumulatives add lag by lag. Each
    refitted factor's column sums add the accident years one after
    another, except in a round that refits a single replication, where
    the column is summed as one vector by numpy's pairwise sum. Future
    means multiply the factors lag by lag, then scale by the latest
    pseudo cumulative. Each year's process-error total is numpy's
    pairwise sum over its future cells (8-way blocks from 8 cells on).
    """
    if int(B) != B or B < 1:
        raise OdpError(f"B must be a positive integer, got {B}")
    I, J = fit.I, fit.J
    last = [min(J - 1, I - i) for i in range(1, I + 1)]
    F = fit.pattern_F()
    points = np.nansum(fit.projected_future, axis=1)
    phi = fit.dispersion

    def year(i, draws):
        return YearPredictive(
            accident=i,
            F=float(F[min(last[i - 1], J - 1)]),
            c_times_F=float("nan"),
            point_reserve=float(points[i - 1]),
            draws=draws,
        )

    if phi <= 0.0:
        years = [year(i, np.full(B, points[i - 1])) for i in range(1, I + 1)]
        meta = {"rejected_replications": 0, "dispersion": phi, "dof": fit.dof}
        return _assemble(years, B, anchor="ODP", meta=meta)

    # Flat layout: one row of B replications per observed cell, in
    # row-major cell order, so year i's cells are rows first[i]:first[i + 1].
    first = np.cumsum([0, *(L + 1 for L in last)])
    m_obs = np.concatenate([fit.fitted_incrementals[i, : L + 1] for i, L in enumerate(last)])
    n_obs = m_obs.size
    sqrt_m = np.sqrt(m_obs)[:, None]
    m_obs = m_obs[:, None]
    pool = fit.residuals[np.isfinite(fit.residuals)]
    if pool.size == 0:
        raise OdpError("empty residual pool: every fitted mean is degenerate")
    pool = pool * np.sqrt(fit.n_cells / fit.dof)
    open_years = [i for i in range(I) if last[i] < J - 1]
    diagonal = [first[i] + last[i] for i in open_years]
    # Lag j is refitted from the first reach[j] years, those observing lag j + 1.
    reach = [sum(L > j for L in last) for j in range(J - 1)]

    g = RngStream(seed).derive(_ODP_DOMAIN).generator()

    def build(idx: np.ndarray):
        """Latest pseudo cumulatives of the open years, refitted factors
        (J - 1, nb) and a validity flag per replication."""
        cum = pool[idx.T.copy()]  # C order: a cell's replications are one row
        cum *= sqrt_m
        cum += m_obs
        for a, b in zip(first[:-1], first[1:]):
            for k in range(a + 1, b):
                cum[k] += cum[k - 1]
        if idx.shape[0] > 1:
            # Column sums added one year after another; year 1 observes
            # every lag.
            num, den = cum[1 : first[1]].copy(), cum[: first[1] - 1].copy()
            for a, L in zip(first[1:], last[1:]):
                num[:L] += cum[a + 1 : a + L + 1]
                den[:L] += cum[a : a + L]
        else:
            # A lone replication's column is one contiguous vector, which
            # numpy sums pairwise.
            col = cum[:, 0]
            num = np.array([[col[first[:n] + j + 1].sum()] for j, n in enumerate(reach)])
            den = np.array([[col[first[:n] + j].sum()] for j, n in enumerate(reach)])
        with np.errstate(invalid="ignore", divide="ignore"):
            factors = num / den
        valid = np.all((num > 0.0) & (den > 0.0), axis=0)
        return cum[diagonal], factors, valid

    idx = g.integers(0, pool.size, size=(B, n_obs))
    latest, factors, valid = build(idx)
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
        latest[:, bad], factors[:, bad], valid[bad] = build(re_idx)

    # Future means, one row per future cell in year-then-lag order: each
    # open year walks its latest pseudo cumulative forward through the
    # running product of its factors, and differences the walk.
    widths = [J - 1 - last[i] for i in open_years]
    lags = [j for i in open_years for j in range(last[i], J - 1)]
    means = factors[lags]
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
    process = g.gamma(shape=means.T, scale=phi)

    per_year_draws: dict[int, np.ndarray] = {}
    offset = 0
    for i, width in zip(open_years, widths):
        per_year_draws[i + 1] = process[:, offset : offset + width].sum(axis=1)
        offset += width
    years = [year(i, per_year_draws.get(i, np.zeros(B))) for i in range(1, I + 1)]
    meta = {"rejected_replications": rejected, "dispersion": phi, "dof": fit.dof}
    return _assemble(years, B, anchor="ODP", meta=meta)
