"""Predictive reserve distributions: Beta-resampling bootstrap, exact
moments and claim-count laws."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from runoff import predictive
from runoff.distributions import RngStream, beta_prime_moments
from runoff.patterns import DevelopmentPattern, chain_ladder_pattern, cl_ultimates
from runoff.predictive import (
    DEFAULT_INCLUSION_THRESHOLD,
    PredictiveError,
    _quantiles,
    _summarise,
    bf_bootstrap,
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


@st.composite
def interior_moves(draw):
    """Two triangles of whole-number cells that differ inside the rows
    but share every row total, their exposures, and a fixed pattern of
    J lags. The second moves whole units between two cells of each row
    observed at two lags or more, so both row totals are exact sums."""
    J = draw(st.integers(2, 8))
    I = draw(st.integers(max(J, 3), 12))
    observed = np.add.outer(np.arange(1, I + 1), np.arange(J)) <= I
    a = draw(hnp.arrays(np.float64, (I, J), elements=st.integers(0, 10**6).map(float)))
    a[~observed] = np.nan
    b = a.copy()
    for r in range(I):
        n = int(observed[r].sum())
        if n < 2:
            continue
        j1, j2 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        moved = draw(st.integers(0, int(a[r, j1])))
        b[r, j1] -= moved
        b[r, j2] += moved
    assume(not np.array_equal(a, b, equal_nan=True))
    weights = np.array(draw(st.lists(st.integers(1, 100), min_size=J, max_size=J)), float)
    pi = weights / weights.sum()
    F = np.cumsum(pi)
    F[-1] = 1.0
    E = draw(st.lists(st.floats(1.0, 1e6), min_size=I, max_size=I))
    return (Triangle(a, exposures=E), Triangle(b, exposures=E),
            DevelopmentPattern(pi=pi, F=F, method="fixed"))


def same_distribution(x, y) -> bool:
    """Bit-identical draws, totals, summaries and flags."""
    years = all(
        (u.draws is None and v.draws is None) or np.array_equal(u.draws, v.draws)
        for u, v in zip(x.per_year, y.per_year))
    return (years and np.array_equal(x.total, y.total) and x.summary == y.summary
            and x.flags == y.flags)


class TestConditioning:
    def test_only_the_diagonal_matters(self):
        # Two triangles with different interiors but the same row totals
        # and lags produce bit-identical predictive distributions.
        a = Triangle.from_cells(4, 3, "amounts", {
            (1, 0): 10.0, (1, 1): 6.0, (1, 2): 4.0,
            (2, 0): 18.0, (2, 1): 8.0, (2, 2): 6.0,
            (3, 0): 25.0, (3, 1): 15.0,
            (4, 0): 50.0,
        })
        b = Triangle.from_cells(4, 3, "amounts", {
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

    @settings(max_examples=60, deadline=None)
    @given(pair=interior_moves(), c_hat=st.floats(0.5, 500.0), q=st.floats(0.1, 2.0),
           B=st.sampled_from([1, 37, 400]), seed=st.integers(0, 2**63))
    def test_interior_cells_never_move_the_draws(self, pair, c_hat, q, B, seed):
        # The conditioning principle on generated triangles: with the
        # pattern and c-hat held fixed, only the latest diagonal (and, for
        # BF, the exposures) reaches the draws.
        a, b, pattern = pair
        assert latest_diagonal(a) == latest_diagonal(b)
        assert same_distribution(
            multinomial_bootstrap(latest_diagonal(a), pattern, c_hat, B, seed),
            multinomial_bootstrap(latest_diagonal(b), pattern, c_hat, B, seed))
        assert same_distribution(
            bf_bootstrap(np.array(a.exposures), q, pattern, c_hat, B, seed),
            bf_bootstrap(np.array(b.exposures), q, pattern, c_hat, B, seed))


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


def float_vectors():
    """Float vectors of length 1 to 5000: any finite floats, with many ties
    and zeros, constant vectors (the fill value), and dense random vectors."""
    elements = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.sampled_from([0.0, 1.0, -2.5, 1e-300, 7.25e5]),
    )
    dense = st.builds(
        lambda n, seed, ties: (np.random.default_rng(seed).integers(-3, 4, n).astype(float)
                               if ties else np.random.default_rng(seed).lognormal(0, 5, n)),
        st.integers(1, 5000), st.integers(0, 2**32), st.booleans(),
    )
    return st.one_of(hnp.arrays(np.float64, st.integers(1, 5000), elements=elements,
                                fill=elements), dense)


def probabilities():
    return st.lists(st.floats(0.0, 1.0), max_size=6).map(lambda p: np.array([0.0, 1.0, *p]))


class TestQuantileKernel:
    # -0.0 is mapped to +0.0 (x + 0.0) where bits are compared: the two tie,
    # and the sort and numpy's partition may order them differently.
    # Bootstrap draws are never -0.0.

    @settings(max_examples=200, deadline=None)
    @given(x=float_vectors(), probs=probabilities())
    def test_matches_np_quantile_bit_for_bit(self, x, probs):
        x = x + 0.0
        before = x.copy()
        with np.errstate(all="ignore"):
            want = np.quantile(x, probs)
        if not np.isfinite(want).all():
            # Differences of opposite-sign extremes overflow; np.quantile
            # returns inf where the kernel raises.
            with pytest.raises(PredictiveError, match="overflows"):
                _quantiles(x, probs)
            return
        got = _quantiles(x, probs)
        assert got.tobytes() == want.tobytes()
        assert x.tobytes() == before.tobytes()  # the draws keep their order

    @settings(max_examples=100, deadline=None)
    @given(x=float_vectors())
    def test_matches_np_percentile_of_the_summary(self, x):
        x = x + 0.0
        with np.errstate(all="ignore"):
            want = np.percentile(x, [5, 25, 50, 75, 95])
        if not np.isfinite(want).all():
            with pytest.raises(PredictiveError, match="overflows"):
                _quantiles(x, predictive._SUMMARY_PROBS)
            return
        got = _quantiles(x, predictive._SUMMARY_PROBS)
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 2000),
                        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0])),
           probs=probabilities())
    def test_signed_zeros_agree_in_value(self, x, probs):
        assert np.array_equal(_quantiles(x, probs), np.quantile(x, probs))

    @settings(max_examples=50, deadline=None)
    @given(x=float_vectors(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           where=st.integers(0, 5000))
    def test_non_finite_input_is_an_error(self, x, bad, where):
        x = np.insert(x, where % (x.size + 1), bad)
        with pytest.raises(PredictiveError, match="non-finite"):
            _quantiles(x, predictive._SUMMARY_PROBS)

    def test_quantile_overflow_is_an_error_not_a_warning(self):
        # Finite draws whose extremes have opposite signs near the float
        # limit: b - a overflows, and np.quantile's median would be -inf.
        x = np.array([-1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictiveError, match="quantile .* overflows"):
                _quantiles(x, np.array([0.5]))
            # Extremes whose difference stays finite keep np.quantile's bits.
            y = np.array([-1.0e308, 0.5e308])
            probs = predictive._SUMMARY_PROBS
            assert _quantiles(y, probs).tobytes() == np.quantile(y, probs).tobytes()

    def test_summary_overflow_is_an_error_not_a_warning(self):
        # Every draw and the total stay finite (about 5e307), but the mean's
        # sum does not.
        pat = DevelopmentPattern(pi=(0.5, 0.5), F=(0.5, 1.0), method="x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictiveError, match="mean or standard error .* overflows"):
                bf_bootstrap(np.array([1e308, 1e308]), 1.0, pat, 50.0, 1000, 1)

    def test_suppressed_summary_skips_the_overflow_check(self):
        summary = _summarise(np.full(1000, 1e308), mean_suppressed=True)
        assert summary["mean"] is None and summary["se"] is None
        assert summary["q5"] == summary["q95"] == 1e308


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
        assert np.all(g.negative_binomial(fully.r, fully.p, 50) == 0)

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
        # numpy's negative_binomial(r, p) draws the law negbin_ibnr names,
        # with its mean and variance; a frailty gives a real-valued r.
        for d in (negbin_ibnr(80, 0.8, float("inf")), negbin_ibnr(80, 0.8, 40.5, mu=100.0)):
            x1 = RngStream(9, 4).generator().negative_binomial(d.r, d.p, 100_000)
            x2 = RngStream(9, 4).generator().negative_binomial(d.r, d.p, 100_000)
            assert np.array_equal(x1, x2)
            se_mean = np.sqrt(d.variance / x1.size)
            assert abs(x1.mean() - d.mean) < 4.0 * se_mean
            assert x1.var(ddof=1) == pytest.approx(d.variance, rel=0.05)
