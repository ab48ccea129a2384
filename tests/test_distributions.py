"""Stream, sampler and closed-form moment checks for the distributions module.

Monte Carlo comparisons run at fixed seeds so every assertion is
deterministic; tolerances were sized from the sampling error at the
chosen draw counts and then widened for safety margin.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy import stats

from runoff.distributions import (
    RngStream,
    beta_prime_moments,
    sample_tweedie,
)


class TestRngStream:
    def test_derive_folds_sequentially(self):
        s = RngStream(123)
        assert s.derive(4, 9) == s.derive(4).derive(9)
        assert s.derive(4, 9, 2) == s.derive(4).derive(9).derive(2)

    def test_derive_separates_indices(self):
        s = RngStream(123)
        ids = {s.derive(i).stream_id for i in range(1000)}
        assert len(ids) == 1000
        # Order matters: (a, b) and (b, a) are different children.
        assert s.derive(1, 2) != s.derive(2, 1)

    def test_same_key_same_draws(self):
        a = RngStream(7, 55).generator().random(16)
        b = RngStream(7, 55).generator().random(16)
        np.testing.assert_array_equal(a, b)

    def test_seed_and_stream_both_enter(self):
        base = RngStream(7, 55).generator().random(4)
        assert not np.array_equal(base, RngStream(8, 55).generator().random(4))
        assert not np.array_equal(base, RngStream(7, 56).generator().random(4))

    def test_thread_schedule_cannot_change_draws(self):
        root = RngStream(99)
        serial = [root.derive(i).generator().random(8) for i in range(32)]
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(
                pool.map(lambda i: root.derive(i).generator().random(8), range(32))
            )
        for a, b in zip(serial, threaded):
            np.testing.assert_array_equal(a, b)


class TestBetaAndDirichlet:
    def test_dirichlet_partial_sum_is_beta(self):
        """Aggregation: the head sum of a Dirichlet(c pi) draw is
        Beta(c F, c (1 - F)); two-sample KS at 1e5 draws."""
        c = 50.0
        pi = np.array([0.45, 0.25, 0.15, 0.10, 0.05])
        F = pi[:3].sum()
        draws = RngStream(11).generator().dirichlet(c * pi, size=100_000)
        partial = draws[:, :3].sum(axis=1)
        ref = RngStream(12).generator().beta(c * F, c * (1.0 - F), size=100_000)
        assert stats.ks_2samp(partial, ref).pvalue > 1e-3

    def test_normalised_gammas_are_dirichlet_and_sum_independent(self):
        # Factorisation: iid Gamma(phi) normalised by their sum is
        # Dirichlet(phi, ..., phi), independent of the sum.
        G = RngStream(13).generator().gamma(2.0, size=(100_000, 5))
        S = G.sum(axis=1)
        W = G / S[:, None]
        ref = RngStream(14).generator().dirichlet(np.full(5, 2.0), size=100_000)
        assert stats.ks_2samp(W[:, 0], ref[:, 0]).pvalue > 1e-3
        assert abs(np.corrcoef(S, W[:, 0])[0, 1]) < 0.015


class TestTweedie:
    def test_mean_and_power_variance(self):
        nu = np.full(200_000, 2000.0)
        phi, p = 43.0, 1.5
        x = sample_tweedie(nu, phi, p, RngStream(9))
        assert x.mean() == pytest.approx(2000.0, rel=0.01)
        assert x.var(ddof=1) == pytest.approx(phi * 2000.0**p, rel=0.05)

    def test_zero_mass(self):
        # Compound Poisson puts an atom at zero: P(X=0) = exp(-lambda).
        nu = np.full(100_000, 2000.0)
        phi, p = 43.0, 1.5
        lam = 2000.0 ** (2.0 - p) / (phi * (2.0 - p))
        x = sample_tweedie(nu, phi, p, RngStream(10))
        assert np.mean(x == 0.0) == pytest.approx(np.exp(-lam), abs=0.01)
        assert np.all(x >= 0.0)

    def test_zero_mean_is_exact_zero(self):
        x = sample_tweedie(np.array([0.0, 5.0]), 1.0, 1.5, RngStream(0))
        assert x[0] == 0.0

    def test_validation(self):
        nu = np.array([1.0])
        with pytest.raises(ValueError):
            sample_tweedie(nu, 1.0, 1.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_tweedie(nu, 1.0, 2.0, RngStream(0))
        with pytest.raises(ValueError):
            sample_tweedie(nu, 0.0, 1.5, RngStream(0))
        with pytest.raises(ValueError):
            sample_tweedie(np.array([-1.0]), 1.0, 1.5, RngStream(0))


class TestBetaPrimeMoments:
    def test_existence_regions(self):
        # Mean needs cF > 1, variance needs cF > 2.
        assert beta_prime_moments(10.0, 0.05).mean is None
        assert beta_prime_moments(10.0, 0.15).mean is not None
        assert beta_prime_moments(10.0, 0.15).variance is None
        assert beta_prime_moments(10.0, 0.25).variance is not None

    def test_closed_forms(self):
        c, F = 50.0, 0.5
        m = beta_prime_moments(c, F)
        a = c * F
        assert m.mean == pytest.approx(c * (1 - F) / (a - 1))
        assert m.variance == pytest.approx(c * (1 - F) * (c - 1) / ((a - 1) ** 2 * (a - 2)))

    def test_against_monte_carlo(self):
        c, F, n = 50.0, 0.5, 1_000_000
        m = beta_prime_moments(c, F)
        w = RngStream(15).generator().beta(c * F, c * (1 - F), size=n)
        r = (1.0 - w) / w
        se_mean = r.std(ddof=1) / np.sqrt(n)
        assert abs(r.mean() - m.mean) < 4 * se_mean
        s2 = r.var(ddof=1)
        mu4 = np.mean((r - r.mean()) ** 4)
        se_var = np.sqrt((mu4 - s2**2) / n)
        assert abs(s2 - m.variance) < 4 * se_var

    def test_validation(self):
        with pytest.raises(ValueError):
            beta_prime_moments(0.0, 0.5)
        with pytest.raises(ValueError):
            beta_prime_moments(10.0, 1.0)
