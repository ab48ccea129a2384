"""Over-dispersed Poisson residual bootstrap (the baseline method).

Its defining contrast with the conditional bootstrap: the ODP fit reads
the whole incremental triangle, not just the latest diagonal, so
reshuffling interior cells moves its answers.
"""
from __future__ import annotations

import dataclasses
import math
import re

import numpy as np
import pytest

from runoff.distributions import RngStream
from runoff.odp import _ODP_DOMAIN, OdpError, OdpFit, _odp_draws, odp_bootstrap, odp_fit
from runoff.patterns import (
    _cumulative_pattern,
    chain_ladder_pattern,
    cl_ultimates,
    link_ratios,
)
from runoff.predictive import YearPredictive, _summarise, multinomial_bootstrap
from runoff.triangle import Triangle, bundled_triangle, latest_diagonal

TA_CL_TOTAL = 18_680_855.6


def proportional_triangle():
    """Rows are exact multiples of one base row, so residuals vanish."""
    base = (10.0, 6.0, 4.0)
    cells = {}
    for i, scale in enumerate((1.0, 2.0, 3.0, 4.0), start=1):
        for j in range(3):
            if i + j <= 4:
                cells[(i, j)] = scale * base[j]
    return Triangle.from_cells(4, 3, "amounts", cells)


class TestFit:
    def test_taylor_ashe_reference_numbers(self):
        fit = odp_fit(bundled_triangle("taylor-ashe"))
        assert fit.n_cells == 55
        assert fit.dof == 36
        assert fit.dispersion == pytest.approx(52_601.36, abs=0.05)

    def test_margins_reproduced(self):
        t = bundled_triangle("taylor-ashe")
        fit = odp_fit(t)
        X = t.values
        obs = np.isfinite(X)
        # Row and column sums of the fitted surface match the data.
        np.testing.assert_allclose(
            np.nansum(fit.fitted_incrementals, axis=1), np.nansum(X, axis=1),
            rtol=1e-9)
        np.testing.assert_allclose(
            np.nansum(fit.fitted_incrementals, axis=0), np.nansum(X, axis=0),
            rtol=1e-9)
        # Fitted and residual masks coincide with the observed region.
        assert np.array_equal(np.isfinite(fit.fitted_incrementals), obs)
        assert np.all(np.isnan(fit.projected_future[obs]))

    def test_agrees_with_chain_ladder(self):
        t = bundled_triangle("mortgage")
        fit = odp_fit(t)
        np.testing.assert_allclose(fit.link_ratios, link_ratios(t), rtol=1e-12)
        np.testing.assert_allclose(
            _cumulative_pattern(fit.link_ratios), chain_ladder_pattern(t).F, rtol=1e-12)
        # Projected future cells per row sum to the CL reserve.
        est = cl_ultimates(t, chain_ladder_pattern(t))
        np.testing.assert_allclose(
            np.nansum(fit.projected_future, axis=1), est.reserves, rtol=1e-9)

    @pytest.mark.parametrize("name", ["taylor-ashe", "raa", "mortgage"])
    def test_pattern_is_the_chain_ladder_pattern_bit_for_bit(self, name):
        t = bundled_triangle(name)
        F = _cumulative_pattern(odp_fit(t).link_ratios)
        assert np.array_equal(F, chain_ladder_pattern(t).F)

    def test_saturated_triangle_rejected(self):
        t = Triangle.from_cells(2, 2, "amounts", {(1, 0): 4.0, (1, 1): 2.0, (2, 0): 8.0})
        with pytest.raises(OdpError, match="saturated"):
            odp_fit(t)

    def test_negative_fitted_rejected(self):
        t = Triangle.from_cells(3, 2, "amounts", {
            (1, 0): 100.0, (1, 1): -90.0,
            (2, 0): 100.0, (2, 1): -90.0,
            (3, 0): 100.0,
        })
        with pytest.raises(OdpError, match="negative fitted"):
            odp_fit(t)


def reference_years(fit: OdpFit, B: int, seed: int) -> list[YearPredictive]:
    """Each accident year as odp_bootstrap built it in a loop of its own:
    F at the year's last lag, no c*F, the projected future summed as the
    point, the kernel's draws (B zeros for a fully developed year) and
    their summary."""
    sums, _ = _odp_draws(fit, B, RngStream(seed).derive(_ODP_DOMAIN).generator(), {})
    F, drawn = _cumulative_pattern(fit.link_ratios), iter(sums)
    points = np.nansum(fit.projected_future, axis=1)
    years = []
    for i in range(fit.I):
        last = min(fit.J - 1, fit.I - 1 - i)
        draws = next(drawn) if last < fit.J - 1 else np.zeros(B)
        years.append(YearPredictive(accident=i + 1, F=float(F[last]), c_times_F=float("nan"),
                                    point_reserve=float(points[i]), draws=draws,
                                    summary=_summarise(draws, False)))
    return years


class TestBootstrap:
    def test_reproducible_by_seed(self):
        fit = odp_fit(bundled_triangle("raa"))
        d1 = odp_bootstrap(fit, 300, seed=8)
        d2 = odp_bootstrap(fit, 300, seed=8)
        d3 = odp_bootstrap(fit, 300, seed=9)
        assert np.array_equal(d1.total, d2.total)
        assert not np.array_equal(d1.total, d3.total)
        # The shared per-year view reproduces the years field by field.
        for name, B in (("taylor-ashe", 200), ("raa", 1)):
            fit = odp_fit(bundled_triangle(name))
            dist = odp_bootstrap(fit, B, seed=8)
            ref = reference_years(fit, B, seed=8)
            assert len(dist.per_year) == len(ref) == fit.I
            for y, r in zip(dist.per_year, ref):
                assert math.isnan(y.c_times_F) and math.isnan(r.c_times_F)
                assert y.draws.tobytes() == r.draws.tobytes()
                assert {**vars(y), "c_times_F": 0, "draws": 0} == {**vars(r), "c_times_F": 0,
                                                                     "draws": 0}

    def test_taylor_ashe_bands(self):
        fit = odp_fit(bundled_triangle("taylor-ashe"))
        dist = odp_bootstrap(fit, 2000, seed=2026)
        s = dist.summary
        assert s["q5"] <= s["q25"] <= s["q50"] <= s["q75"] <= s["q95"]
        assert abs(s["mean"] - TA_CL_TOTAL) / TA_CL_TOTAL < 0.05
        assert 0.10 < s["se"] / s["mean"] < 0.25
        assert dist.anchor == "ODP"
        assert set(dist.meta) == {"rejected_replications", "dispersion", "dof"}
        assert dist.meta["rejected_replications"] == 0

    def test_zero_dispersion_collapses_to_point(self):
        fit = odp_fit(proportional_triangle())
        assert fit.dispersion == 0.0
        dist = odp_bootstrap(fit, 50, seed=1)
        for year in dist.per_year:
            assert np.all(year.draws == year.point_reserve)
        assert dist.meta["rejected_replications"] == 0

    def test_redraws_give_up_after_100_rounds(self):
        # Every fitted mean is zero, so every pseudo increment is zero and
        # no column sum of any replication can turn positive.
        nan = np.nan
        fitted = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, nan], [0.0, nan, nan]])
        fit = OdpFit(
            I=3, J=3, fitted_incrementals=fitted, dispersion=1.0,
            residuals=np.where(np.isnan(fitted), nan, 1.0), dof=1, n_cells=6,
            link_ratios=np.ones(2),
            projected_future=np.array([[nan] * 3, [nan, nan, 0.0], [nan, 0.0, 0.0]]),
        )
        with pytest.raises(OdpError,
                           match="^5 replications still degenerate after 100 redraw rounds$"):
            odp_bootstrap(fit, 5, seed=1)

    def test_an_empty_residual_pool_is_a_named_error(self):
        # odp_fit never builds such a fit (no finite residual means zero
        # dispersion, which returns the point); a caller's own fit can.
        fit = odp_fit(bundled_triangle("raa"))
        bad = dataclasses.replace(fit, residuals=np.full_like(fit.residuals, np.nan))
        assert bad.dispersion > 0.0
        with pytest.raises(OdpError, match="^empty residual pool: every fitted mean is "
                                           "degenerate$"):
            odp_bootstrap(bad, 10, seed=1)

    def test_b_validated(self):
        fit = odp_fit(proportional_triangle())
        with pytest.raises(OdpError, match="B must be"):
            odp_bootstrap(fit, 0, seed=1)
        with pytest.raises(OdpError, match="B must be"):
            odp_bootstrap(fit, 2.5, seed=1)
        # Non-finite B is named too, not a bare OverflowError or ValueError.
        for B in (float("inf"), float("nan")):
            with pytest.raises(OdpError, match=f"^B must be a positive integer, got {B}$"):
                odp_bootstrap(fit, B, seed=1)
        # An integral float passes the check and draws as that integer.
        assert np.array_equal(odp_bootstrap(fit, 5.0, seed=1).total,
                              odp_bootstrap(fit, 5, seed=1).total)

    @pytest.mark.parametrize("B", [10**30, 2**62])
    def test_a_b_numpy_cannot_size_is_a_named_error(self, B):
        # numpy rejects these sizes before it allocates anything; the check
        # sizes the (cells, B) arrays of the kernel.
        with pytest.raises(OdpError, match=re.escape(f"B = {B} is too large: a (100, B)")):
            odp_bootstrap(odp_fit(bundled_triangle("raa")), B, seed=1)


class TestContrastWithConditionalBootstrap:
    def test_interior_cells_move_odp_but_not_conditional(self):
        t = bundled_triangle("taylor-ashe")
        # Swap two interior increments of the first row: row totals and
        # the latest diagonal are untouched, column sums are not.
        cells = dict(t.cells)
        cells[(1, 3)], cells[(1, 4)] = cells[(1, 4)], cells[(1, 3)]
        assert cells[(1, 3)] != t.cells[(1, 3)]
        t2 = Triangle.from_cells(t.I, t.J, "amounts", cells)

        odp_a = odp_bootstrap(odp_fit(t), 200, seed=4)
        odp_b = odp_bootstrap(odp_fit(t2), 200, seed=4)
        assert not np.array_equal(odp_a.total, odp_b.total)

        pa = chain_ladder_pattern(t)
        cond_a = multinomial_bootstrap(latest_diagonal(t), pa, 107.7, 200, seed=4)
        cond_b = multinomial_bootstrap(latest_diagonal(t2), pa, 107.7, 200, seed=4)
        assert np.array_equal(cond_a.total, cond_b.total)
