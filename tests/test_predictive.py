"""Predictive reserve distributions: Beta-resampling bootstrap, exact
moments, delta-method shortcut, and claim-count laws."""
from __future__ import annotations

import warnings

import numpy as np
import pytest

from runoff import predictive
from runoff.distributions import RngStream, beta_prime_moments
from runoff.patterns import DevelopmentPattern, chain_ladder_pattern, cl_ultimates
from runoff.predictive import (
    DEFAULT_INCLUSION_THRESHOLD,
    PredictiveError,
    bf_bootstrap,
    delta_method_variance,
    ibnp_exact_moments,
    multinomial_bootstrap,
    negbin_ibnr,
)
from runoff.triangle import DiagonalSummary, Triangle, bundled_triangle, latest_diagonal


def fixed_pattern():
    return DevelopmentPattern(
        pi=np.array([0.5, 0.3, 0.2]), F=np.array([0.5, 0.8, 1.0]), method="fixed"
    )


def four_year_diag():
    # Development lags (3, 2, 1, 0): two fully developed years, one at
    # F = 0.8, one at F = 0.5.
    return DiagonalSummary(observed=(20.0, 32.0, 40.0, 50.0), dev_lag=(3, 2, 1, 0))


class TestConditioning:
    def test_only_the_diagonal_matters(self):
        # Two triangles with different interiors but the same row totals
        # and lags produce bit-identical predictive distributions.
        a = Triangle(I=4, J=3, kind="amounts", cells={
            (1, 0): 10.0, (1, 1): 6.0, (1, 2): 4.0,
            (2, 0): 18.0, (2, 1): 8.0, (2, 2): 6.0,
            (3, 0): 25.0, (3, 1): 15.0,
            (4, 0): 50.0,
        })
        b = Triangle(I=4, J=3, kind="amounts", cells={
            (1, 0): 12.0, (1, 1): 5.0, (1, 2): 3.0,
            (2, 0): 20.0, (2, 1): 7.0, (2, 2): 5.0,
            (3, 0): 30.0, (3, 1): 10.0,
            (4, 0): 50.0,
        })
        p = fixed_pattern()
        da = multinomial_bootstrap(latest_diagonal(a), p, 40.0, 400, seed=7)
        db = multinomial_bootstrap(latest_diagonal(b), p, 40.0, 400, seed=7)
        assert np.array_equal(da.total, db.total)
        for ya, yb in zip(da.per_year, db.per_year):
            assert np.array_equal(ya.draws, yb.draws)


class TestMultinomialBootstrap:
    def test_quantiles_monotone_and_summary_shape(self):
        t = bundled_triangle("taylor-ashe")
        p = chain_ladder_pattern(t)
        dist = multinomial_bootstrap(latest_diagonal(t), p, 107.7, 2000, seed=5)
        s = dist.summary
        assert s["q5"] <= s["q25"] <= s["q50"] <= s["q75"] <= s["q95"]
        assert s["se"] > 0.0
        assert s["mean"] is not None
        assert dist.anchor == "CL"
        assert dist.total.shape == (2000,)

    def test_fully_developed_years_draw_exact_zeros(self):
        dist = multinomial_bootstrap(four_year_diag(), fixed_pattern(), 40.0, 200, seed=1)
        for year in dist.per_year[:2]:
            assert year.point_reserve == 0.0
            assert np.all(year.draws == 0.0)
            assert not year.excluded

    def test_exclusion_rule(self):
        # c = 8: the greenest year has c*F = 4, under the default
        # threshold of 5; the year at F = 0.8 has 6.4 and stays.
        dist = multinomial_bootstrap(four_year_diag(), fixed_pattern(), 8.0, 300, seed=2)
        assert dist.excluded_years == (4,)
        y4 = dist.per_year[3]
        assert y4.draws is None
        assert "below inclusion threshold" in y4.exclusion_reason
        # Point reserve still reported: 50 * (1 - 0.5) / 0.5.
        assert y4.point_reserve == pytest.approx(50.0)
        assert dist.excluded_point_total() == pytest.approx(50.0)
        assert any("excluded" in n for n in dist.flags[4])
        # The total aggregates included years only.
        assert dist.total.shape == (300,)

    def test_exclusion_never_shifts_other_years(self):
        # Per-year streams are keyed by accident year, so relaxing the
        # threshold adds year 4 without altering year 3's draws.
        strict = multinomial_bootstrap(
            four_year_diag(), fixed_pattern(), 8.0, 300, seed=2)
        relaxed = multinomial_bootstrap(
            four_year_diag(), fixed_pattern(), 8.0, 300, seed=2,
            inclusion_threshold=0.0)
        assert relaxed.excluded_years == ()
        assert np.array_equal(strict.per_year[2].draws, relaxed.per_year[2].draws)

    def test_all_years_excluded_is_an_error(self):
        diag = DiagonalSummary(observed=(50.0,), dev_lag=(0,))
        pat = DevelopmentPattern(
            pi=np.array([0.5, 0.5]), F=np.array([0.5, 1.0]), method="fixed")
        with pytest.raises(PredictiveError, match="all accident years excluded"):
            multinomial_bootstrap(diag, pat, 8.0, 100, seed=0)

    def test_mean_suppression_keeps_draws(self):
        # c = 4 puts the greenest year at c*F = 2: draws are produced
        # but the total mean is withheld as unstable.
        dist = multinomial_bootstrap(
            four_year_diag(), fixed_pattern(), 4.0, 300, seed=3,
            inclusion_threshold=0.0)
        y4 = dist.per_year[3]
        assert y4.mean_suppressed and not y4.excluded
        assert y4.draws is not None
        assert dist.summary["mean"] is None
        # The ratio's variance exists only for c*F > 2, so se goes too.
        assert dist.summary["se"] is None
        assert dist.summary["q95"] > dist.summary["q5"]
        assert any("mean-suppressed" in n for n in dist.flags[4])

    def test_reproducible_by_seed(self):
        t = bundled_triangle("raa")
        p = chain_ladder_pattern(t)
        d1 = multinomial_bootstrap(latest_diagonal(t), p, 13.4, 500, seed=42)
        d2 = multinomial_bootstrap(latest_diagonal(t), p, 13.4, 500, seed=42)
        d3 = multinomial_bootstrap(latest_diagonal(t), p, 13.4, 500, seed=43)
        assert np.array_equal(d1.total, d2.total)
        assert not np.array_equal(d1.total, d3.total)

    def test_anchor_consistency_at_huge_concentration(self):
        # As c grows the Beta draws pin to F and the bootstrap mean
        # collapses onto the chain-ladder point reserve.
        t = bundled_triangle("taylor-ashe")
        p = chain_ladder_pattern(t)
        cl_total = float(np.sum(cl_ultimates(t, p).reserves))
        dist = multinomial_bootstrap(latest_diagonal(t), p, 1e6, 100_000, seed=3)
        assert dist.summary["mean"] == pytest.approx(cl_total, rel=0.01)

    def test_matches_analytic_ratio_moments(self):
        # Single year, F = 0.5, c = 50: draws follow a scaled ratio law
        # whose mean and variance are available in closed form.
        pat = DevelopmentPattern(
            pi=np.array([0.5, 0.5]), F=np.array([0.5, 1.0]), method="fixed")
        diag = DiagonalSummary(observed=(1000.0,), dev_lag=(0,))
        dist = multinomial_bootstrap(diag, pat, 50.0, 200_000, seed=21)
        bp = beta_prime_moments(50.0, 0.5)
        assert dist.summary["mean"] == pytest.approx(1000.0 * bp.mean, rel=0.005)
        assert dist.summary["se"] == pytest.approx(
            1000.0 * np.sqrt(bp.variance), rel=0.02)

    def test_validation(self):
        diag, pat = four_year_diag(), fixed_pattern()
        with pytest.raises(PredictiveError, match="concentration"):
            multinomial_bootstrap(diag, pat, 0.0, 100, seed=0)
        with pytest.raises(PredictiveError, match="concentration"):
            multinomial_bootstrap(diag, pat, float("nan"), 100, seed=0)
        with pytest.raises(PredictiveError, match="B must be"):
            multinomial_bootstrap(diag, pat, 40.0, 0, seed=0)
        with pytest.raises(PredictiveError, match="B must be"):
            multinomial_bootstrap(diag, pat, 40.0, 1.5, seed=0)
        bad = DiagonalSummary(observed=(20.0, -1.0, 40.0, 50.0), dev_lag=(3, 2, 1, 0))
        with pytest.raises(PredictiveError, match="non-negative"):
            multinomial_bootstrap(bad, pat, 40.0, 100, seed=0)


class TestConservatism:
    @pytest.mark.parametrize("F", [0.2, 0.5, 0.8])
    def test_bootstrap_sd_exceeds_true_predictive_sd(self, F):
        # The resampling law treats the observed share as random again,
        # so its sd overshoots the exact conditional sd by about
        # 1/sqrt(F); at c = 200 the match is within three percent.
        c = 200.0
        bp = beta_prime_moments(c, F)
        mom = ibnp_exact_moments(1.0, F, c)
        ratio = (np.sqrt(bp.variance) / bp.mean) / np.sqrt(mom.cv2)
        assert ratio > 1.0
        assert 1.0 <= ratio * np.sqrt(F) < 1.03


class TestBfBootstrap:
    def test_draws_bounded_and_no_exclusions(self):
        E = np.array([100.0, 200.0, 300.0, 400.0])
        q = 0.9
        dist = bf_bootstrap(E, q, fixed_pattern(), 1.0, 400, seed=6)
        # Even at c*F far below the inclusion threshold every year stays.
        assert dist.excluded_years == ()
        assert dist.flags == {}
        assert dist.summary["mean"] is not None
        assert dist.anchor == "BF"
        for idx, year in enumerate(dist.per_year):
            if year.F >= 1.0 - 1e-12:
                assert np.all(year.draws == 0.0)
            else:
                assert np.all(year.draws >= 0.0)
                assert np.all(year.draws <= E[idx] * q)
                assert year.point_reserve == pytest.approx(
                    E[idx] * q * (1.0 - year.F))

    def test_reproducible_by_seed(self):
        E = np.array([100.0, 200.0, 300.0])
        pat = DevelopmentPattern(
            pi=np.array([0.5, 0.3, 0.2]), F=np.array([0.5, 0.8, 1.0]), method="fixed")
        d1 = bf_bootstrap(E, 0.8, pat, 30.0, 250, seed=11)
        d2 = bf_bootstrap(E, 0.8, pat, 30.0, 250, seed=11)
        assert np.array_equal(d1.total, d2.total)

    def test_validation(self):
        pat = fixed_pattern()
        with pytest.raises(PredictiveError, match="positive"):
            bf_bootstrap(np.array([100.0, 0.0]), 0.9, pat, 30.0, 100, seed=0)
        with pytest.raises(PredictiveError, match="loss ratio"):
            bf_bootstrap(np.array([100.0, 200.0]), 0.0, pat, 30.0, 100, seed=0)
        with pytest.raises(PredictiveError, match="vector"):
            bf_bootstrap(np.ones((2, 2)), 0.9, pat, 30.0, 100, seed=0)


def raa_inputs():
    t = bundled_triangle("raa")
    E = np.array([t.cells[(i, 0)] for i in range(1, t.I + 1)])
    return latest_diagonal(t), chain_ladder_pattern(t), E


class TestParallelDraws:
    """Years drawn on the thread pool, in chunks, match the serial draws bit
    for bit. raa at c = 13.4 has a fully developed year 1 and excludes
    years 9 and 10 under the CL anchor."""

    @pytest.fixture
    def pool_calls(self, monkeypatch):
        calls = []

        class RecordingPool(predictive.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                calls.append(kwargs["max_workers"])
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(predictive, "ThreadPoolExecutor", RecordingPool)
        return calls

    @staticmethod
    def run_both(B):
        diag, pattern, E = raa_inputs()
        return (multinomial_bootstrap(diag, pattern, 13.4, B, seed=5),
                bf_bootstrap(E, 1.3, pattern, 13.4, B, seed=6))

    @pytest.mark.parametrize("B, chunk", [(2000, 1 << 15), (2000, 300), (2001, 512)])
    def test_pool_matches_serial(self, monkeypatch, pool_calls, B, chunk):
        serial = self.run_both(B)
        assert pool_calls == []
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_CHUNK", chunk)
        monkeypatch.setattr(predictive, "_usable_cores", lambda: 4)
        pooled = self.run_both(B)
        assert pool_calls == [4, 4]
        cl = pooled[0]
        assert cl.excluded_years == (9, 10)
        assert np.all(cl.per_year[0].draws == 0.0)
        for a, b in zip(serial, pooled):
            assert a.anchor == b.anchor
            assert np.array_equal(a.total, b.total)
            assert a.summary == b.summary
            for ya, yb in zip(a.per_year, b.per_year):
                assert ya == yb if ya.draws is None else np.array_equal(ya.draws, yb.draws)

    def test_pool_is_capped_at_drawn_years(self, monkeypatch, pool_calls):
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_usable_cores", lambda: 64)
        self.run_both(100)
        # CL draws years 2-8, BF years 2-10; year 1 is fully developed.
        assert pool_calls == [7, 9]

    @pytest.mark.parametrize("threshold", [10**9, 1])
    def test_overflow_is_an_error_not_a_warning(self, monkeypatch, threshold):
        # RAA scaled by 1e300 at c = 3: the ratio of draws exceeds the
        # float range. No numpy warning may escape; the error names the year.
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", threshold)
        diag, pattern, _ = raa_inputs()
        huge = DiagonalSummary(
            observed=tuple(x * 1e300 for x in diag.observed), dev_lag=diag.dev_lag)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictiveError, match=r"accident year \d+: .*overflow"):
                multinomial_bootstrap(huge, pattern, 3.0, 1000, seed=1,
                                      inclusion_threshold=0.0)

    def test_total_overflow_is_an_error(self):
        # Each year stays finite, but their sum exceeds the float range.
        pat = DevelopmentPattern(
            pi=np.array([0.1, 0.1, 0.1, 0.1, 0.6]),
            F=np.array([0.1, 0.2, 0.3, 0.4, 1.0]), method="fixed")
        with pytest.raises(PredictiveError, match="total .* overflows"):
            bf_bootstrap(np.full(5, 1.7e308), 1.0, pat, 50.0, 1000, seed=2)


class TestDeltaMethod:
    def test_hand_value(self):
        # 1000^2 * 0.5 / (0.5^3 * 51)
        assert delta_method_variance(1000.0, 0.5, 50.0) == pytest.approx(
            500_000.0 / 6.375)

    def test_domain(self):
        with pytest.raises(PredictiveError):
            delta_method_variance(1000.0, 1.0, 50.0)
        with pytest.raises(PredictiveError):
            delta_method_variance(1000.0, 0.0, 50.0)
        with pytest.raises(PredictiveError):
            delta_method_variance(1000.0, 0.5, -1.0)


class TestIbnpExactMoments:
    def test_closed_forms(self):
        mom = ibnp_exact_moments(1000.0, 0.5, 50.0)
        assert mom.mean == pytest.approx(1000.0 * 0.5 / 0.48)
        assert mom.cv2 == pytest.approx(0.04)
        assert mom.cv2_large_c == pytest.approx(1.0 / 25.0)
        # The mean agrees with the scaled ratio-law mean.
        bp = beta_prime_moments(50.0, 0.5)
        assert mom.mean == pytest.approx(1000.0 * bp.mean)

    def test_mean_requires_cf_above_one(self):
        mom = ibnp_exact_moments(1000.0, 0.4, 2.0)
        assert mom.mean is None
        assert mom.cv2 > 0.0

    def test_domain(self):
        with pytest.raises(PredictiveError):
            ibnp_exact_moments(1000.0, 1.0, 50.0)
        with pytest.raises(PredictiveError):
            ibnp_exact_moments(1000.0, 0.5, 0.0)


class TestNegbinIbnr:
    def test_frailty_free_limit_preserves_point_estimate(self):
        d = negbin_ibnr(80, 0.5, float("inf"))
        assert (d.r, d.p) == (80.0, 0.5)
        assert d.mean == pytest.approx(80.0)  # N (1 - F) / F
        assert d.variance == pytest.approx(80.0 / 0.5**2 * 0.5)

    def test_finite_frailty_formulas(self):
        d = negbin_ibnr(80, 0.8, 40.0, mu=100.0)
        assert d.r == pytest.approx(120.0)
        assert d.p == pytest.approx(6.0 / 7.0)
        assert d.mean == pytest.approx(20.0)
        assert d.variance == pytest.approx(120.0 * (1.0 / 7.0) / (6.0 / 7.0) ** 2)
        assert d.kappa_used == 40.0

    def test_degenerate_cases(self):
        fully = negbin_ibnr(80, 1.0, float("inf"))
        assert fully.mean == 0.0 and fully.variance == 0.0
        none_seen = negbin_ibnr(0, 0.5, float("inf"))
        assert none_seen.mean == 0.0 and none_seen.variance == 0.0
        g = RngStream(1).generator()
        assert np.all(fully.sample(g, 50) == 0)

    def test_validation(self):
        with pytest.raises(PredictiveError):
            negbin_ibnr(-1, 0.5, float("inf"))
        with pytest.raises(PredictiveError):
            negbin_ibnr(80, 0.0, float("inf"))
        with pytest.raises(PredictiveError):
            negbin_ibnr(80, 1.5, float("inf"))
        with pytest.raises(PredictiveError):
            negbin_ibnr(80, 0.5, 0.0)
        with pytest.raises(PredictiveError, match="expected ultimate"):
            negbin_ibnr(80, 0.5, 40.0)  # finite frailty without mu

    def test_sampling_moments_and_reproducibility(self):
        d = negbin_ibnr(80, 0.8, float("inf"))
        x1 = d.sample(RngStream(9, 4), 100_000)
        x2 = d.sample(RngStream(9, 4), 100_000)
        assert np.array_equal(x1, x2)
        se_mean = np.sqrt(d.variance / x1.size)
        assert abs(x1.mean() - d.mean) < 4.0 * se_mean
        assert x1.var(ddof=1) == pytest.approx(d.variance, rel=0.05)
        assert np.isscalar(d.sample(RngStream(9, 5)) * 1.0) or np.ndim(
            d.sample(RngStream(9, 5))) == 0
