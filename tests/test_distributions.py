"""Stream, sampler and closed-form moment checks for the distributions module.

Monte Carlo comparisons run at fixed seeds so every assertion is
deterministic; tolerances were sized from the sampling error at the
chosen draw counts and then widened for safety margin.
"""
from __future__ import annotations

import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats

from runoff.distributions import (
    RngStream,
    _derive_ids,
    _stream_generators,
    beta_prime_moments,
    sample_tweedie,
)

# 64-bit values from each class the seed hashing tells apart: 0, one
# 32-bit word, two words, and the largest.
WORDS64 = st.one_of(
    st.just(0), st.integers(1, 2**32 - 1), st.integers(2**32, 2**64 - 1), st.just(2**64 - 1))
EDGES64 = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


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


class TestBatchedStreams:
    """The batched seeding kernel against RngStream's single-stream path."""

    @settings(max_examples=200, deadline=None)
    @given(pairs=st.lists(st.tuples(WORDS64, WORDS64), min_size=1, max_size=40))
    @example(pairs=[(s, i) for s in EDGES64 for i in EDGES64])
    def test_generators_equal_the_single_stream_path(self, pairs):
        seeds, ids = zip(*pairs)
        batched = _stream_generators(np.array(seeds, dtype=np.uint64),
                                     np.array(ids, dtype=np.uint64))
        assert len(batched) == len(pairs)
        for (seed, sid), g in zip(pairs, batched):
            ref = RngStream(seed, sid).generator()
            assert g.bit_generator.state == ref.bit_generator.state
            np.testing.assert_array_equal(g.random(3), ref.random(3))
            np.testing.assert_array_equal(g.beta(2.0, 3.0, size=3), ref.beta(2.0, 3.0, size=3))

    def test_numpy_random_loads_on_first_use(self):
        # Importing the CLI leaves numpy.random unloaded (a fit never
        # draws); the first batched call then registers its seed sequence.
        code = ("import sys, numpy as np, runoff.cli; "
                "from runoff.distributions import RngStream, _stream_generators; "
                "assert 'numpy.random' not in sys.modules; "
                "g, = _stream_generators(np.array([7], np.uint64), np.array([55], np.uint64)); "
                "assert g.random() == RngStream(7, 55).generator().random()")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)

    def test_no_streams(self):
        assert _stream_generators(np.zeros(0, np.uint64), np.zeros(0, np.uint64)) == []

    @settings(max_examples=200, deadline=None)
    @given(streams=st.lists(st.tuples(WORDS64, WORDS64), min_size=1, max_size=20),
           shared=WORDS64)
    @example(streams=list(zip(EDGES64, reversed(EDGES64))), shared=2**64 - 1)
    def test_derive_ids_equals_derive(self, streams, shared):
        ids, indices = (np.array(v, dtype=np.uint64) for v in zip(*streams))
        want = [RngStream(0, sid).derive(shared, ix, 3).stream_id for sid, ix in streams]
        assert _derive_ids(ids, shared, indices, 3).tolist() == want
        # A lone stream id and int indices, as generate_triangle derives.
        sid = streams[0][0]
        assert _derive_ids(sid, shared).tolist() == [RngStream(0, sid).derive(shared).stream_id]


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
