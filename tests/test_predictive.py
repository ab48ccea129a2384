"""Predictive reserve distributions: Beta-resampling bootstrap, exact
moments and claim-count laws."""
from __future__ import annotations

import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from runoff import predictive
from runoff.cli import _per_year_block
from runoff.distributions import RngStream, beta_prime_moments
from runoff.odp import OdpError, odp_bootstrap, odp_fit
from runoff.patterns import DevelopmentPattern, PatternError, chain_ladder_pattern, cl_ultimates
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
    """Two triangles of whole-number increments, amounts or counts, with I
    and J in 3..12, that differ inside their rows but share every row's
    latest cumulative, their exposures, and a fixed pattern of J lags. The
    second moves whole units between observed cells of each row observed at
    two lags or more, so both rows' totals are exact sums."""
    I, J = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    observed = np.add.outer(np.arange(1, I + 1), np.arange(J)) <= I
    a = draw(hnp.arrays(np.float64, (I, J), elements=st.integers(0, 10**6).map(float)))
    a[~observed] = np.nan
    b = a.copy()
    for r in range(I):
        n = int(observed[r].sum())
        for _ in range(draw(st.integers(0, 3)) if n > 1 else 0):
            j1, j2 = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            moved = draw(st.integers(0, int(b[r, j1])))
            b[r, j1] -= moved
            b[r, j2] += moved
    assume(not np.array_equal(a, b, equal_nan=True))
    weights = np.array(draw(st.lists(st.integers(1, 100), min_size=J, max_size=J)), float)
    pi = weights / weights.sum()
    F = np.cumsum(pi)
    F[-1] = 1.0
    E = draw(st.lists(st.floats(1.0, 1e6), min_size=I, max_size=I))
    kind = draw(st.sampled_from(["amounts", "counts"]))
    return (Triangle(a, kind, E), Triangle(b, kind, E),
            DevelopmentPattern(pi=pi, F=F, method="fixed"))


def outcome(bootstrap, *args):
    """The distribution bootstrap(*args) returns, or the message of the
    PredictiveError it raises."""
    try:
        return bootstrap(*args)
    except PredictiveError as exc:
        return str(exc)


def same_distribution(x, y) -> bool:
    """Bit-identical draws, totals, summaries and flags, or the same error."""
    if isinstance(x, str) or isinstance(y, str):
        return x == y
    years = all(
        (u.draws is None and v.draws is None) or u.draws.tobytes() == v.draws.tobytes()
        for u, v in zip(x.per_year, y.per_year))
    return (years and x.total.tobytes() == y.total.tobytes() and x.summary == y.summary
            and x.flags == y.flags
            and [u.summary for u in x.per_year] == [v.summary for v in y.per_year])


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
        # BF, the exposures) reaches the draws, kept or not. The full
        # pipeline estimates c-hat and F-hat from the whole triangle, so it
        # is conditional on those estimates and may move with the interior.
        a, b, pattern = pair
        for keep in (True, False):
            # A diagonal whose open years are all excluded fails on both sides.
            assert same_distribution(*(
                outcome(multinomial_bootstrap, latest_diagonal(t), pattern, c_hat, B, seed,
                        DEFAULT_INCLUSION_THRESHOLD, keep) for t in (a, b)))
            assert same_distribution(*(
                bf_bootstrap(np.array(t.exposures), q, pattern, c_hat, B, seed, keep)
                for t in (a, b)))
        assert latest_diagonal(a) == latest_diagonal(b)
        # The ODP bootstrap resamples the interior's residuals: where those
        # differ, so do its draws, unless both fail. At B >= 37 some draw
        # resamples a residual that differs.
        try:
            fits = [odp_fit(t) for t in (a, b)]
        except (OdpError, PatternError):
            return
        if np.array_equal(fits[0].residuals, fits[1].residuals, equal_nan=True):
            return
        runs = []
        for fit in fits:
            try:
                runs.append(odp_bootstrap(fit, max(B, 37), seed))
            except (OdpError, PredictiveError) as exc:
                runs.append(str(exc))
        if not all(isinstance(run, str) for run in runs):
            assert not same_distribution(*runs)


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
        with pytest.raises(PredictiveError, match="every open accident year is excluded"):
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
        # Non-finite B is named too, not a bare OverflowError or ValueError.
        for B in (float("inf"), float("nan")):
            with pytest.raises(PredictiveError, match=f"^B must be a positive integer, got {B}$"):
                multinomial_bootstrap(diag, pat, 40.0, B, seed=0)
        # An integral float passes the check and draws as that integer.
        assert np.array_equal(multinomial_bootstrap(diag, pat, 40.0, 100.0, seed=0).total,
                              multinomial_bootstrap(diag, pat, 40.0, 100, seed=0).total)
        # The inclusion threshold follows SimConfig's rule: finite and >= 0.
        for threshold, message in ((float("nan"), "must be finite, got nan"),
                                   (float("inf"), "must be finite, got inf"),
                                   (-1.0, "cannot be negative")):
            with pytest.raises(PredictiveError, match=f"^inclusion_threshold {message}$"):
                multinomial_bootstrap(diag, pat, 40.0, 100, seed=0,
                                      inclusion_threshold=threshold)
        bad = DiagonalSummary(observed=(20.0, -1.0, 40.0, 50.0), dev_lag=(3, 2, 1, 0))
        with pytest.raises(PredictiveError, match="non-negative"):
            multinomial_bootstrap(bad, pat, 40.0, 100, seed=0)

    def test_a_point_that_overflows_is_named_by_the_kernel(self):
        # obs (1 - F) / F overflows; under the suite's warnings-as-errors
        # filter a numpy warning would surface here instead of the error.
        pattern = DevelopmentPattern(pi=(0.001, 0.999), F=(0.001, 1.0), method="x")
        with pytest.raises(PredictiveError, match="^accident year 1: bootstrap draws overflow"):
            multinomial_bootstrap(DiagonalSummary((1e306,), (0,)), pattern, 1e5, 10, 1)


@pytest.mark.parametrize("B", [10**30, 2**62, 2**59])
def test_a_b_numpy_cannot_size_is_a_named_error(B):
    # numpy rejects these sizes before it allocates anything. 2**59 passes
    # the one-row check of B and fails only the kernel's (n * I, B) one.
    t = bundled_triangle("raa")
    pattern = chain_ladder_pattern(t)
    message = f"^B = {B} is too large"
    with pytest.raises(PredictiveError, match=message):
        multinomial_bootstrap(latest_diagonal(t), pattern, 50.0, B, 1)
    with pytest.raises(PredictiveError, match=message):
        bf_bootstrap(np.full(t.I, 1000.0), 1.0, pattern, 50.0, B, 1)
    # The check sizes the (rows, B) arrays, not B alone.
    assert predictive._b_fault(2**59) is None
    assert predictive._b_fault(2**59, 9).startswith(f"B = {2**59} is too large: a (9, B)")


def test_the_cl_bootstrap_meets_doubly_invalid_input_in_the_kernels_order():
    # multinomial_bootstrap leaves the observed totals to the kernel, whose
    # ladder names the (I, B) size before them; F_at_lag checks the
    # caller's lags before the kernel runs.
    pattern = DevelopmentPattern(pi=(0.5, 0.3, 0.2), F=(0.5, 0.8, 1.0), method="x")
    bad = DiagonalSummary(observed=(float("nan"), 1.0, 2.0), dev_lag=(2, 1, 0))
    with pytest.raises(PredictiveError, match=rf"^B = {2**59} is too large: a \(3, B\)"):
        multinomial_bootstrap(bad, pattern, 10.0, 2**59, 1)
    with pytest.raises(PatternError, match="^development lag must be non-negative, got -1$"):
        multinomial_bootstrap(DiagonalSummary((-1.0, 1.0, 2.0), (2, 1, -1)), pattern, 10.0, 10, 1)
    # An inf total at F = 1 gives an inf * 0 point, which warns nothing.
    for observed in ((float("inf"), 1.0, 2.0), (-float("inf"), 1.0, 2.0), (1.0, -1.0, 2.0)):
        with pytest.raises(PredictiveError, match="^observed row totals must be finite and "
                                                  "non-negative$"):
            multinomial_bootstrap(DiagonalSummary(observed, (2, 1, 0)), pattern, 10.0, 10, 1)


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
        for B in (0, 2.5, float("inf"), float("nan")):
            with pytest.raises(PredictiveError, match=f"^B must be a positive integer, got {B}$"):
                bf_bootstrap(np.array([100.0, 200.0]), 0.9, pat, 30.0, B, seed=0)

    def test_a_prior_that_overflows_is_named_by_the_kernel(self):
        # E * q_bf overflows; under the suite's warnings-as-errors filter a
        # numpy warning would surface here instead of the error.
        pattern = DevelopmentPattern(pi=(0.5, 0.5), F=(0.5, 1.0), method="x")
        with pytest.raises(PredictiveError, match=r"^accident year 2: bootstrap draws overflow"
                                                  r" the float range \(prior ultimate inf\)$"):
            bf_bootstrap(np.array([1e300, 1e300]), 1e10, pattern, 50.0, 10, 1)


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
    def run_both(B, keep_draws=True):
        diag, pattern, E = raa_inputs()
        return (multinomial_bootstrap(diag, pattern, 13.4, B, seed=5, keep_draws=keep_draws),
                bf_bootstrap(E, 1.3, pattern, 13.4, B, seed=6, keep_draws=keep_draws))

    @pytest.mark.parametrize("keep_draws", [True, False])
    @pytest.mark.parametrize("B, chunk", [(2000, 1 << 15), (2000, 300), (2001, 512), (1, 512),
                                          (2, 512), (3, 1)])
    def test_pool_matches_serial(self, monkeypatch, pool_calls, B, chunk, keep_draws):
        # Each year is summarised on the pool and folded into the total in
        # year order, through rows the workers pass around; a row two
        # workers shared, or a fold out of order, would show here. The
        # interpreter switches threads often, and 4 workers may exceed the
        # cores.
        serial = self.run_both(B)
        assert pool_calls == []
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_CHUNK", chunk)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 4):
                monkeypatch.setattr(predictive, "_usable_cores", lambda: workers)
                self.assert_same(serial, self.run_both(B, keep_draws), keep_draws)
        finally:
            sys.setswitchinterval(interval)
        assert pool_calls == [2, 2, 4, 4]

    @staticmethod
    def assert_same(serial, pooled, keep_draws):
        # serial kept its draws; pooled kept them exactly when keep_draws.
        assert pooled[0].excluded_years == (9, 10)
        for a, b in zip(serial, pooled):
            assert a.anchor == b.anchor
            assert a.total.tobytes() == b.total.tobytes()
            assert a.summary == b.summary and a.flags == b.flags
            # Year 1 is fully developed: B zeros, summarised as B zeros are.
            zeros = np.zeros(a.total.size)
            assert np.array_equal(a.per_year[0].draws, zeros)
            assert a.per_year[0].summary == _summarise(zeros, False)
            if keep_draws:
                assert np.array_equal(b.per_year[0].draws, zeros)
            for ya, yb in zip(a.per_year, b.per_year):
                assert ya.summary == yb.summary
                if ya.draws is None:
                    assert ya == yb and ya.summary is None
                    continue
                assert ya.summary == _summarise(ya.draws, ya.mean_suppressed)
                if keep_draws:
                    assert np.array_equal(ya.draws, yb.draws)
                else:  # no draws kept: the year keeps only its summary
                    assert not yb.draws.flags.writeable and yb.draws.shape == (0,)

    @pytest.mark.parametrize("keep_draws", [True, False])
    def test_a_year_that_finishes_first_is_folded_in_turn(self, monkeypatch, keep_draws):
        # Year 2, the first drawn, cannot draw until year 3 waits for its
        # turn to fold, so year 3 is done first on two workers. The total
        # still adds year 2 before year 3, bit for bit as off the pool.
        serial = self.run_both(2000)
        waiting = threading.Event()

        class Turn(predictive.Condition):
            def wait_for(self, predicate, timeout=None):
                if not predicate():  # a row done before an earlier one is folded
                    waiting.set()
                return super().wait_for(predicate, timeout)

        class HeldGenerator:
            def __init__(self, generator):
                self.generator = generator

            def beta(self, *args, **kwargs):
                assert waiting.wait(timeout=10)
                return self.generator.beta(*args, **kwargs)

        streams = predictive._stream_generators

        def hold_year_2(*args):
            waiting.clear()
            first, *rest = streams(*args)
            return [HeldGenerator(first), *rest]

        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_usable_cores", lambda: 2)
        monkeypatch.setattr(predictive, "Condition", Turn)
        monkeypatch.setattr(predictive, "_stream_generators", hold_year_2)
        self.assert_same(serial, self.run_both(2000, keep_draws), keep_draws)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_unkept_rows_hold_no_block(self, monkeypatch, workers):
        # numpy reports its data buffers to tracemalloc. An unkept run
        # holds the total and one row per worker, which the worker draws
        # into and sorts in place, and per worker a chunk of Beta variates
        # while it draws and a work buffer of squared deviations while it
        # summarises, each a sixth of a row or less here; the total's own
        # summary adds one row once the workers' are gone. A second row per
        # worker would break the bound. A kept run holds the block of its
        # seven drawn years as well.
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_usable_cores", lambda: workers)
        diag, pattern, _ = raa_inputs()
        B, rows = 200_000, {}
        for keep_draws in (False, True):
            tracemalloc.start()
            try:
                multinomial_bootstrap(diag, pattern, 13.4, B, seed=5, keep_draws=keep_draws)
                rows[keep_draws] = tracemalloc.get_traced_memory()[1] / (8 * B)
            finally:
                tracemalloc.stop()
        assert rows[False] < workers + 2.5 and rows[True] > 9, rows

    @pytest.mark.parametrize("keep_draws", [True, False])
    def test_pooled_moments_are_numpys_beyond_the_work_buffer(self, monkeypatch, keep_draws):
        # At B above the work buffer a worker sums the squared deviations
        # node by node; each drawn year's mean and se are still numpy's own.
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_usable_cores", lambda: 2)
        B = 2 * predictive._WORK + 9
        kept = self.run_both(B)
        pooled = self.run_both(B, keep_draws)
        for a, b in zip(kept, pooled):
            for ya, yb in zip(a.per_year[1:], b.per_year[1:]):  # year 1: fully developed
                assert ya.summary == yb.summary
                if ya.draws is not None and not ya.mean_suppressed:
                    assert yb.summary["mean"] == float(np.mean(ya.draws))
                    assert yb.summary["se"] == float(np.std(ya.draws, ddof=1))

    def test_pool_is_capped_at_drawn_years(self, monkeypatch, pool_calls):
        monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", 1)
        monkeypatch.setattr(predictive, "_usable_cores", lambda: 64)
        self.run_both(100)
        # CL draws years 2-8, BF years 2-10; year 1 is fully developed.
        assert pool_calls == [7, 9]

    @pytest.mark.parametrize("cpus", [3, None])
    def test_cores_without_affinity_are_the_cpu_count(self, monkeypatch, cpus):
        # Platforms without CPU affinity have no os.sched_getaffinity, and
        # os.cpu_count() may not know the count.
        monkeypatch.delattr(predictive.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(predictive.os, "cpu_count", lambda: cpus)
        assert predictive._usable_cores() == (cpus or 1)

    @pytest.mark.parametrize("keep_draws", [True, False])
    @pytest.mark.parametrize("threshold", [10**9, 1])
    def test_overflow_is_an_error_not_a_warning(self, monkeypatch, threshold, keep_draws):
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
                                      inclusion_threshold=0.0, keep_draws=keep_draws)

    @pytest.mark.parametrize("keep_draws", [True, False])
    def test_total_overflow_is_an_error(self, keep_draws):
        # Each year stays finite, but their sum exceeds the float range.
        pat = DevelopmentPattern(
            pi=np.array([0.1, 0.1, 0.1, 0.1, 0.6]),
            F=np.array([0.1, 0.2, 0.3, 0.4, 1.0]), method="fixed")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictiveError, match="total .* overflows"):
                bf_bootstrap(np.full(5, 1.7e308), 1.0, pat, 50.0, 1000, seed=2,
                             keep_draws=keep_draws)


_TOTAL_OVERFLOW = "the total of the bootstrap draws overflows the float range"
_MOMENTS_OVERFLOW = "the mean or standard error of the bootstrap draws overflows the float range"


def reference_row(scales, F, c, B, seed, threshold, ratio):
    """A slow, plain reference for one row of the anchored draw kernel: one
    beta(size=B) call per drawn accident year on its own stream, with the
    six checks in order. Returns the draws by accident year (empty when a
    check before the draws fails), the total of the drawn years, and None
    or the first fault's message."""
    if not np.isfinite(c) or c <= 0.0:
        return {}, None, f"concentration must be positive and finite, got {c}"
    if not (np.isfinite(B) and B >= 1 and int(B) == B):
        return {}, None, f"B must be a positive integer, got {B}"
    if ratio and not all(np.isfinite(x) and x >= 0.0 for x in scales):
        return {}, None, "observed row totals must be finite and non-negative"
    open_ = [f < 1.0 - 1e-12 for f in F]
    drawn = [o and not c * f < threshold for o, f in zip(open_, F)]
    if any(open_) and not any(drawn):
        return {}, None, "every open accident year is excluded by the inclusion rule"
    draws, total, fault = {}, np.zeros(B), None
    with np.errstate(all="ignore"):
        for year, (f, x, d) in enumerate(zip(F, scales, drawn), start=1):
            if not d:
                continue
            g = RngStream(seed).derive(predictive._ROW_DOMAIN, year).generator()
            w = g.beta(c * f, c * (1.0 - f), size=B)
            if ratio:
                w = np.maximum(w, 1e-15)
                draws[year] = x * (1.0 - w) / w
            else:
                draws[year] = x * (1.0 - w)
            if fault is None and not np.isfinite(draws[year]).all():
                name = "observed total" if ratio else "prior ultimate"
                fault = (f"accident year {year}: bootstrap draws overflow the float range "
                         f"({name} {x:.6g})")
            total += draws[year]
        suppressed = ratio and any(d and c * f <= 2.0 for d, f in zip(drawn, F))
        if fault is None and not np.isfinite(total).all():
            fault = _TOTAL_OVERFLOW
        elif fault is None and not suppressed:
            se = total.std(ddof=1) if B > 1 else 0.0
            if not (np.isfinite(total.mean()) and np.isfinite(se)):
                fault = _MOMENTS_OVERFLOW
    return draws, total, fault


def same_as_reference(dist, ref, B) -> None:
    """dist (a ReserveDistribution, or the message of the PredictiveError
    raised instead) equals the reference_row result ref bit for bit."""
    draws, total, fault = ref
    if fault is not None:
        assert dist == fault
        return
    assert not isinstance(dist, str), dist
    for y in dist.per_year:
        if y.accident in draws:
            assert y.draws.tobytes() == draws[y.accident].tobytes()
        elif not y.excluded:  # fully developed
            assert y.F >= 1.0 - 1e-12 and y.draws.tobytes() == np.zeros(B).tobytes()
        # Every year's summary, a fully developed year's included, is the
        # summary of its own draws (or the message of one that fails).
        assert y.summary == (None if y.excluded
                             else _summarise(y.draws, y.mean_suppressed))
    assert dist.total.tobytes() == total.tobytes()
    if dist.summary["mean"] is not None:
        assert dist.summary["mean"] == float(total.mean())
        assert dist.summary["se"] == (float(total.std(ddof=1)) if B > 1 else None)


def kernel_rows(refs) -> list[tuple[int, int]]:
    """The (accident year, row) of each row of the kernel's block of draws:
    year by year, the drawn years of every row past checks 1-3."""
    return sorted((year, k) for k, (draws, _, _) in enumerate(refs) for year in draws)


def fixed_pattern_of(weights) -> DevelopmentPattern:
    pi = np.array(weights, dtype=float) / sum(weights)
    F = np.cumsum(pi)
    F[-1] = 1.0
    return DevelopmentPattern(pi=pi, F=F, method="fixed")


@st.composite
def kernel_inputs(draw, n_min=2):
    """A pattern of 2-6 lags; I accident years' development lags (J and
    above are fully developed) and the F there; n rows of scales from 0 to
    1e300, now and then spoiled by a negative or non-finite one, with
    concentrations from 0.5 up (and now and then 0 or NaN) and seeds over
    the whole uint64 range; a threshold, 1e300 excluding every open year;
    and B from 1."""
    pattern = fixed_pattern_of(draw(st.lists(st.integers(1, 100), min_size=2, max_size=6)))
    I = draw(st.integers(1, 7))
    lags = draw(st.lists(st.integers(0, pattern.J), min_size=I, max_size=I))
    n = draw(st.integers(n_min, 4))
    scale = st.one_of(st.floats(0.0, 1e6), st.floats(0.0, 1e300), st.sampled_from([0.0, 1e300]))
    scales = np.array(draw(st.lists(st.lists(scale, min_size=I, max_size=I),
                                    min_size=n, max_size=n)), dtype=float)
    for k in range(n):
        spoil = draw(st.sampled_from([None] * 5 + [-1.0, np.inf, np.nan]))
        if spoil is not None:
            scales[k, draw(st.integers(0, I - 1))] = spoil
    c = draw(st.lists(st.one_of(st.floats(0.5, 1e4),
                                st.sampled_from([0.5, 0.5, 1.0, 2.0, 0.0, np.nan])),
                      min_size=n, max_size=n))
    seeds = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n, max_size=n))
    threshold = draw(st.sampled_from([0.0, 0.0, 1.0, 5.0, 50.0, 1e300]))
    B = draw(st.sampled_from([1, 2, 3, 37, 300]))
    F = np.array([pattern.F_at_lag(lag) for lag in lags])
    return pattern, lags, F, scales, c, seeds, threshold, B


def run_kernel(scales, F, c, seeds, B, threshold, ratio, keep=True):
    return predictive._anchored_draws(scales, F, np.array(c, dtype=float),
                                      np.array(seeds, dtype=np.uint64), B, threshold, ratio,
                                      keep=keep)


# One row per check of the ladder, and one that passes with its mean
# suppressed: (anchor, scales, c, inclusion threshold, the fault's start).
# CL rows sit at F = (0.5, 0.5, 1), BF rows at F = (1, 0.4, 0.3, 0.2, 0.1).
LADDER = [
    ("CL", [10.0, 20.0, 5.0], 0.0, 0.0, "concentration must be positive and finite"),
    ("CL", [10.0, -1.0, 5.0], 40.0, 0.0, "observed row totals"),
    ("CL", [10.0, 20.0, 5.0], 40.0, 1e4, "every open accident year is excluded"),
    ("CL", [1e307, 1e307, 1.0], 0.5, 0.0, "accident year 1: bootstrap draws overflow"),
    ("BF", [1.7e308] * 5, 50.0, -np.inf, "the total of the bootstrap draws overflows"),
    ("BF", [1.0, 1e308, 1.0, 1.0, 1.0], 50.0, -np.inf, "the mean or standard error"),
    ("CL", [10.0, 20.0, 5.0], 3.0, 0.0, None),
]


class TestAnchoredKernel:
    """The one anchored draw kernel against reference_row, bit for bit: at
    n = 1 through multinomial_bootstrap and bf_bootstrap, and at n > 1."""

    @pytest.mark.parametrize("anchor, scales, c, threshold, fault", LADDER)
    def test_every_check_of_the_ladder_is_reached(self, anchor, scales, c, threshold, fault):
        B, seed, ratio = 50, 2**63 + 5, anchor == "CL"
        if ratio:
            pattern, lags = fixed_pattern_of([1, 1]), (0, 0, 1)
            F = [pattern.F_at_lag(lag) for lag in lags]
            got = outcome(multinomial_bootstrap, DiagonalSummary(tuple(scales), lags), pattern,
                          c, B, seed, threshold)
        else:
            pattern, I = fixed_pattern_of([1, 1, 1, 1, 6]), len(scales)
            F = [pattern.F_at_lag(I - 1 - i) for i in range(I)]
            got = outcome(bf_bootstrap, np.array(scales), 1.0, pattern, c, B, seed)
        ref = reference_row(scales, F, c, B, seed, threshold, ratio)
        assert ref[2] is None if fault is None else ref[2].startswith(fault)
        same_as_reference(got, ref, B)
        if fault is None:
            assert got.summary["mean"] is None and got.per_year[0].mean_suppressed
        _, faults, _, _ = run_kernel(np.array([scales, scales]), np.array(F), [c, 40.0],
                                     [seed, 1], B, threshold, ratio)
        assert faults[0] == ref[2]

    @settings(max_examples=80, deadline=None)
    @given(inputs=kernel_inputs(n_min=1), q=st.sampled_from([0.5, 1.0, 1.7]))
    def test_single_triangle_functions_match_the_reference(self, inputs, q):
        pattern, lags, F, scales, c, seeds, threshold, B = inputs
        diag = DiagonalSummary(observed=tuple(scales[0]), dev_lag=tuple(lags))
        ref = reference_row(scales[0].tolist(), F.tolist(), c[0], B, seeds[0], threshold, True)
        same_as_reference(outcome(multinomial_bootstrap, diag, pattern, c[0], B, seeds[0],
                                  threshold), ref, B)
        I = len(lags)
        E = np.where(np.isfinite(scales[0]) & (scales[0] > 0.0), scales[0], 1.0)
        F_bf = np.array([pattern.F_at_lag(I - 1 - i) for i in range(I)])
        ref = reference_row((E * q).tolist(), F_bf.tolist(), c[0], B, seeds[0], -np.inf, False)
        same_as_reference(outcome(bf_bootstrap, E, q, pattern, c[0], B, seeds[0]), ref, B)

    @settings(max_examples=80, deadline=None)
    @given(inputs=kernel_inputs(), ratio=st.booleans())
    # CL rows that fail at a year's draws, fail at their total, and pass.
    @example(inputs=(None, None, np.array([0.5, 0.5, 1.0]),
                     np.array([[1e307, 1e307, 1.0], [1e308, 1e308, 1.0], [10.0, 20.0, 5.0]]),
                     [0.5, 400.0, 40.0], [1, 2**64 - 1, 3], 0.0, 37), ratio=True)
    def test_kernel_over_many_rows_matches_the_reference(self, inputs, ratio):
        _, _, F, scales, c, seeds, threshold, B = inputs
        totals, faults, block, _ = run_kernel(scales, F, c, seeds, B, threshold, ratio)
        refs = [reference_row(scales[k].tolist(), F.tolist(), c[k], B, seeds[k], threshold, ratio)
                for k in range(len(c))]
        assert faults == [fault for _, _, fault in refs]
        order = kernel_rows(refs)
        assert block.shape == (len(order), B)
        for (year, k), row in zip(order, block):
            assert row.tobytes() == refs[k][0][year].tobytes()
        for k, (_, total, fault) in enumerate(refs):
            if fault is None:
                assert totals[k].tobytes() == total.tobytes()
        # Without a kept block the years fold into the same totals.
        lean, lean_faults, no_block, _ = run_kernel(scales, F, c, seeds, B, threshold, ratio,
                                                    keep=False)
        assert no_block is None and lean_faults == faults
        for k, fault in enumerate(faults):
            if fault is None:
                assert lean[k].tobytes() == totals[k].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(inputs=kernel_inputs(),
           thresholds=st.lists(st.sampled_from([0.0, 1.0, 2.5, 5.0, 20.0, 100.0, 1e4]),
                               min_size=2, max_size=2))
    def test_exclusions_never_shift_other_years(self, inputs, thresholds):
        # Per-year streams are keyed by accident year: a year drawn under
        # both thresholds draws the same bits, whichever years the other
        # threshold adds or drops, at n = 1 and at n > 1.
        pattern, lags, F, scales, c, seeds, _, B = inputs
        diag = DiagonalSummary(observed=tuple(scales[0]), dev_lag=tuple(lags))
        single = [outcome(multinomial_bootstrap, diag, pattern, c[0], B, seeds[0], t)
                  for t in thresholds]
        if not any(isinstance(d, str) for d in single):
            for a, b in zip(*(d.per_year for d in single)):
                if a.draws is not None and b.draws is not None:
                    assert a.draws.tobytes() == b.draws.tobytes()
        drawn = []
        for t in thresholds:
            _, _, block, _ = run_kernel(scales, F, c, seeds, B, t, True)
            refs = [reference_row(scales[k].tolist(), F.tolist(), c[k], B, seeds[k], t, True)
                    for k in range(len(c))]
            drawn.append(dict(zip(kernel_rows(refs), block)))
        for key in drawn[0].keys() & drawn[1].keys():
            assert drawn[0][key].tobytes() == drawn[1][key].tobytes()


class TestAnchorProperties:
    """The paper's anchors as properties: a bootstrap mean lies within 4
    Monte Carlo standard errors (se / sqrt(B)) of the anchor's mean. The
    examples are derandomized, so a 4-SE bound cannot flake, and every
    open year has c*F >= 10, so the variance exists."""

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(weights=st.lists(st.integers(1, 100), min_size=2, max_size=6),
           E=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=8), q=st.floats(0.1, 2.0),
           stretch=st.floats(1.0, 100.0), seed=st.integers(0, 2**64 - 1))
    def test_bf_mean_is_the_bf_point_reserve(self, weights, E, q, stretch, seed):
        # The mean of prior * (1 - W) is prior * (1 - F), per year and in total.
        pattern, I, B = fixed_pattern_of(weights), len(E), 4000
        F = np.array([pattern.F_at_lag(I - 1 - i) for i in range(I)])
        c = 10.0 / F.min() * stretch
        dist = bf_bootstrap(np.array(E), q, pattern, c, B, seed)
        points = [e * q * (1.0 - f) for e, f in zip(E, F) if f < 1.0 - 1e-12]
        draws = [y.draws for y in dist.per_year if y.F < 1.0 - 1e-12]
        for d, point in zip(draws, points, strict=True):
            assert abs(d.mean() - point) <= 4.0 * d.std(ddof=1) / np.sqrt(B)
        s = dist.summary
        assert abs(s["mean"] - sum(points)) <= 4.0 * s["se"] / np.sqrt(B)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(weights=st.lists(st.integers(1, 100), min_size=2, max_size=6),
           obs=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=8),
           stretch=st.floats(1.0, 100.0), seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_cl_year_means_are_the_exact_predictive_mean(self, weights, obs, stretch, seed,
                                                         data):
        # The mean of X (1 - W) / W is X (1 - F) / (F - 1/c), the exact
        # predictive mean ibnp_exact_moments gives.
        pattern, B = fixed_pattern_of(weights), 4000
        lags = data.draw(st.lists(st.integers(0, pattern.J - 1), min_size=len(obs),
                                  max_size=len(obs)))
        F = np.array([pattern.F_at_lag(lag) for lag in lags])
        c = 10.0 / F.min() * stretch
        dist = multinomial_bootstrap(DiagonalSummary(tuple(obs), tuple(lags)), pattern, c, B,
                                     seed, inclusion_threshold=0.0)
        for y, x in zip(dist.per_year, obs):
            if y.F < 1.0 - 1e-12:
                exact = ibnp_exact_moments(x, y.F, c).mean
                assert abs(y.draws.mean() - exact) <= 4.0 * y.draws.std(ddof=1) / np.sqrt(B)


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
        got, faults = _quantiles(x, probs)
        assert x.tobytes() == before.tobytes()  # the draws keep their order
        if not np.isfinite(want).all():
            # Differences of opposite-sign extremes overflow; np.quantile
            # returns inf where the kernel returns the fault.
            assert faults == [predictive._QUANTILE_OVERFLOW]
            return
        assert faults == [None]
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(x=float_vectors())
    def test_matches_np_percentile_of_the_summary(self, x):
        x = x + 0.0
        with np.errstate(all="ignore"):
            want = np.percentile(x, [5, 25, 50, 75, 95])
        got, faults = _quantiles(x, predictive._SUMMARY_PROBS)
        if not np.isfinite(want).all():
            assert faults == [predictive._QUANTILE_OVERFLOW]
            return
        assert faults == [None]
        assert got.tobytes() == want.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(x=hnp.arrays(np.float64, st.integers(1, 2000),
                        elements=st.sampled_from([0.0, -0.0, 1.0, -1.0])),
           probs=probabilities())
    def test_signed_zeros_agree_in_value(self, x, probs):
        assert np.array_equal(_quantiles(x, probs)[0], np.quantile(x, probs))

    @settings(max_examples=50, deadline=None)
    @given(x=float_vectors(), bad=st.sampled_from([np.nan, np.inf, -np.inf]),
           where=st.integers(0, 5000))
    def test_non_finite_input_is_an_error(self, x, bad, where):
        x = np.insert(x, where % (x.size + 1), bad)
        faults = _quantiles(x, predictive._SUMMARY_PROBS)[1]
        assert faults == ["quantiles of non-finite draws are undefined"]

    def test_quantile_overflow_is_an_error_not_a_warning(self):
        # Finite draws whose extremes have opposite signs near the float
        # limit: b - a overflows, and np.quantile's median would be -inf.
        x = np.array([-1.7e308, 1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _quantiles(x, np.array([0.5]))[1] == [
                "a quantile of the bootstrap draws overflows the float range"]
            # Extremes whose difference stays finite keep np.quantile's bits.
            y = np.array([-1.0e308, 0.5e308])
            probs = predictive._SUMMARY_PROBS
            got, faults = _quantiles(y, probs)
            assert faults == [None] and got.tobytes() == np.quantile(y, probs).tobytes()

    def test_a_block_gives_each_row_its_own_quantiles_and_fault(self):
        # A (2, 3, 50) block: finite rows, rows with a NaN or an inf, and a
        # row whose 99% quantile overflows; faults come in C order.
        x = np.random.default_rng(3).lognormal(0.0, 2.0, (2, 3, 50))
        x[0, 1, 7] = np.nan
        x[1, 0] = -1.7e308
        x[1, 0, -1] = 1.7e308
        x[1, 2, 0] = -np.inf
        probs = np.array([0.05, 0.5, 0.99])
        before = x.tobytes()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, faults = _quantiles(x, probs)
            sorted_x = x.copy()
            assert _quantiles(sorted_x, probs, in_place=True)[1] == faults
        assert x.tobytes() == before
        assert sorted_x.tobytes() == np.sort(x).tobytes()
        non_finite, overflow = predictive._NON_FINITE_DRAWS, predictive._QUANTILE_OVERFLOW
        assert faults == [None, non_finite, None, overflow, None, non_finite]
        for row, q, fault in zip(x.reshape(6, 50), got.reshape(6, 3), faults):
            if fault is None:
                assert q.tobytes() == np.quantile(row, probs).tobytes()

    def test_summary_overflow_is_an_error_not_a_warning(self):
        # Every draw and the total stay finite (about 5e307), but the mean's
        # sum does not.
        pat = DevelopmentPattern(pi=(0.5, 0.5), F=(0.5, 1.0), method="x")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PredictiveError, match="mean or standard error .* overflows"):
                bf_bootstrap(np.array([1e308, 1e308]), 1.0, pat, 50.0, 1000, 1)

    def test_per_year_mean_overflow_is_an_error(self, monkeypatch):
        # Year 2's draws (about 1e307) and the total are finite, and year
        # 3's suppressed mean (c*F = 2) spares the total's moments; year
        # 2's mean's sum overflows, off the draw pool and on it. The year
        # carries the error, and its report raises it.
        pat = DevelopmentPattern(pi=(0.04, 0.46, 0.5), F=(0.04, 0.5, 1.0), method="x")
        diag = DiagonalSummary(observed=(1.0, 1e307, 1.0), dev_lag=(2, 1, 0))
        for threshold in (10**9, 1):
            monkeypatch.setattr(predictive, "_PARALLEL_MIN_B", threshold)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dist = multinomial_bootstrap(diag, pat, 50.0, 1000, seed=1,
                                             inclusion_threshold=0.0)
                assert dist.summary["q95"] < np.inf
                assert dist.per_year[1].summary == predictive._MOMENTS_OVERFLOW
                assert isinstance(dist.per_year[2].summary, dict)
                with pytest.raises(PredictiveError, match="mean or standard error .* overflows"):
                    _per_year_block(dist)

    def test_a_total_whose_summary_fails_is_an_error(self):
        # The bootstraps check their totals before the per-year view, so a
        # total reaches it with a fault only when handed in unchecked: the
        # view raises the total's fault, where a year keeps its own.
        F = np.array([1.0, 0.5])
        rules = predictive._year_rules(50.0, F, 0.0, True)
        moments = (np.array([1.0]), np.array([1.0]))
        with pytest.raises(PredictiveError, match="^quantiles of non-finite draws are undefined$"):
            predictive._distribution(np.array([1.0, np.nan, 2.0]), moments, F, np.zeros(2),
                                     rules, None, ["a year's fault"], "CL")
        dist = predictive._distribution(np.array([1.0, 3.0, 2.0]), moments, F, np.zeros(2),
                                        rules, None, ["a year's fault"], "CL")
        assert dist.per_year[1].summary == "a year's fault"

    def test_suppressed_summary_skips_the_overflow_check(self):
        summary = _summarise(np.full(1000, 1e308), mean_suppressed=True)
        assert summary["mean"] is None and summary["se"] is None
        assert summary["q5"] == summary["q95"] == 1e308


SUMMARY_SIZES = [1, 2, 3, 7, 49_999, 50_000, 65_537]
EDGE_VALUES = [0.0, -0.0, 1e308, -1e308, 1.0, 5e-324, 7.25e5]


@st.composite
def summary_rows(draw):
    """Rows at the summary's edge sizes: constant rows, rows mixing the
    edge values ±0.0 and ±1e308, and dense random rows, each of either
    sign, with or without their mean suppressed."""
    n = draw(st.sampled_from(SUMMARY_SIZES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["constant", "edges", "dense"]))
    if kind == "constant":
        x = np.full(n, draw(st.one_of(st.sampled_from(EDGE_VALUES),
                                      st.floats(allow_nan=False, allow_infinity=False))))
    elif kind == "edges":
        x = rng.choice(np.array(draw(st.lists(st.sampled_from(EDGE_VALUES), min_size=1,
                                              max_size=4))), n)
    else:
        x = rng.lognormal(0, draw(st.sampled_from([1.0, 5.0, 300.0])), n)
    if draw(st.booleans()):
        x = -x
    return x, draw(st.booleans())


def copying_summary(x: np.ndarray, mean_suppressed: bool):
    """The summary from numpy's own copies: _quantiles' sorted copy, then
    ndarray.mean and std(ddof=1), whose overflow is _MOMENTS_OVERFLOW; or
    the first fault's message."""
    q, (fault,) = _quantiles(x, predictive._SUMMARY_PROBS)
    if fault is not None:
        return fault
    if mean_suppressed:
        return q, None, None
    with np.errstate(over="ignore", invalid="ignore"):
        mean, se = x.mean(), None if x.size == 1 else x.std(ddof=1)
    if not (np.isfinite(mean) and (se is None or np.isfinite(se))):
        return predictive._MOMENTS_OVERFLOW
    return q, mean, se


class TestInPlaceSummary:
    """_summarise, sorting the draws in place or a copy of them, gives the
    bits of np.quantile, ndarray.mean and std(ddof=1), and the copying
    path's errors."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(case=summary_rows())
    def test_in_place_summary_is_the_copying_summary(self, case):
        x, suppressed = case
        before = x.tobytes()
        want = copying_summary(x, suppressed)
        if isinstance(want, str):
            for in_place in (False, True):
                assert _summarise(x.copy(), suppressed, in_place=in_place) == want
            return
        q, mean, se = want

        def bits(v):
            return None if v is None else np.float64(v).tobytes()

        names = ["q5", "q25", "q50", "q75", "q95"]
        sorted_x = x.copy()
        for got in (_summarise(x, suppressed), _summarise(sorted_x, suppressed, in_place=True)):
            assert [bits(got[k]) for k in names] == [bits(v) for v in q]
            # +0.0 and -0.0 tie; np.quantile's partition may pick either.
            assert [bits(got[k] + 0.0) for k in names] == [
                bits(v + 0.0) for v in np.quantile(x, predictive._SUMMARY_PROBS)]
            assert (bits(got["mean"]), bits(got["se"])) == (bits(mean), bits(se))
        assert x.tobytes() == before
        assert sorted_x.tobytes() == np.sort(x).tobytes()


CHECK_SIZES = [1, 2, 1000, 2 * predictive._WORK + 9]


class TestCheckTotals:
    """_check_totals' mean and se are numpy's along the last axis of an
    (n, B) block, and its faults follow from them and from each row's
    finiteness."""

    @pytest.mark.parametrize("B", CHECK_SIZES)
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_moments_and_faults_are_numpys(self, n, B):
        rng = np.random.default_rng(1000 * n + B)
        for _ in range(8):
            # Per row: dense draws, draws of about 1e307 whose moments may
            # overflow, a total at inf or NaN, or a row already at fault.
            totals = rng.lognormal(0, rng.choice([1.0, 300.0]), (n, B))
            kinds = rng.integers(0, 5, n)
            totals[kinds == 1] = rng.uniform(0.5, 1.0, B) * 1e307
            totals[kinds == 2, -1] = np.inf
            totals[kinds == 3, 0] = np.nan
            faults = ["earlier" if k == 4 else None for k in kinds]
            suppressed = rng.random(n) < 0.3
            with np.errstate(over="ignore", invalid="ignore"):
                want_mean = totals.mean(axis=-1)
                want_se = totals.std(axis=-1, ddof=1) if B > 1 else None
            moments_ok = np.isfinite(want_mean) & (True if B == 1 else np.isfinite(want_se))
            want_faults = [
                f if f is not None
                else _TOTAL_OVERFLOW if not np.isfinite(totals[k]).all()
                else None if moments_ok[k] or suppressed[k]
                else _MOMENTS_OVERFLOW
                for k, f in enumerate(faults)]
            before = totals.tobytes()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                mean, se = predictive._check_totals(totals, faults, suppressed)
            assert totals.tobytes() == before
            assert faults == want_faults
            assert mean.tobytes() == want_mean.tobytes()
            assert (se is None) if B == 1 else (se.tobytes() == want_se.tobytes())

    def test_fold_adds_rows_in_order_without_a_warning(self):
        # In order, 1 + 2**-53 rounds back to 1 twice; adding the two small
        # rows first would give 1 + 2**-52. The second column overflows to
        # inf and then to NaN, which _check_totals reports, not numpy.
        total = np.array([1.0, 1e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            predictive._fold(total, np.array([[2.0**-53, 1e308], [2.0**-53, -np.inf]]))
        assert total[0] == 1.0 and np.isnan(total[1])

    def test_moments_hold_no_row_of_deviations(self):
        # numpy reports its data buffers to tracemalloc. The moments of a
        # (1, B) block take a work buffer of 16,384 floats, 0.082 rows here;
        # a finite check over the block would add a row of B booleans (0.125
        # rows) and numpy's std a row of B floats.
        B = 200_000
        totals = np.random.default_rng(3).lognormal(0, 1, (1, B))
        tracemalloc.start()
        try:
            predictive._check_totals(totals, [None])
            peak = tracemalloc.get_traced_memory()[1] / (8 * B)
        finally:
            tracemalloc.stop()
        assert peak < 0.1, peak


SQUARES_WORK = [128, 1000]
SQUARES_EDGES = [0.0, 1e-300, 1e300, -1e300, 1.0, 7.25e5]


@st.composite
def squares_rows(draw):
    """A work buffer of 128 or 1000 floats per row; a lone row or a stack
    of 1 to 3 rows of 1 to 300,000 values, their size now and then a
    multiple of 8 or the buffer's size, one either side of it, or the
    summary's own buffer size; values that mix the edge values 0, 1e-300
    and ±1e300 into dense random ones; and per row a mean that is the row's
    own, 0 or an edge value, shaped to broadcast along the last axis."""
    m = draw(st.sampled_from(SQUARES_WORK))
    n = draw(st.one_of(
        st.integers(1, 300_000),
        st.integers(1, 37_500).map(lambda k: 8 * k),
        st.sampled_from([m, predictive._WORK, 300_000])))
    n = max(1, n + draw(st.sampled_from([-1, 0, 1])))
    rows = draw(st.sampled_from([(), (1,), (2,), (3,)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.lognormal(0, draw(st.sampled_from([1.0, 5.0, 300.0])), (*rows, n))
    if draw(st.booleans()):
        spots = rng.random(x.shape) < draw(st.sampled_from([0.001, 0.1, 1.0]))
        x[spots] = rng.choice(np.array(draw(st.lists(st.sampled_from(SQUARES_EDGES),
                                                     min_size=1, max_size=3))), spots.sum())
    with np.errstate(over="ignore"):
        own = np.add.reduce(x, axis=-1) / n
    mean = [o if v is None else v for o, v in zip(np.atleast_1d(own), draw(st.lists(
        st.sampled_from([None, 0.0, 1e-300, 1e300]), min_size=x.size // n, max_size=x.size // n)))]
    return x, np.reshape(mean, (*rows, 1)), m


class TestSquaresSum:
    """The squared deviations summed node by node in a small work buffer
    give the bits of np.add.reduce over the full deviation rows. This pins
    numpy's pairwise summation rule: if a numpy release changes it, this
    fails before a golden digest does."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(case=squares_rows())
    @example(case=(np.linspace(0.0, 1.0, 129), 0.5, 128))
    @example(case=(np.arange(1001.0), 500.0, 1000))
    @example(case=(np.arange(2002.0).reshape(2, 1001), np.array([[500.0], [1501.0]]), 128))
    def test_node_by_node_sum_is_numpys(self, case):
        x, mean, m = case
        before = x.tobytes()
        rows = x.size // x.shape[-1]
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.atleast_1d(np.add.reduce((x - mean) * (x - mean), axis=-1))
            got = np.atleast_1d(predictive._squares_sum(
                x, mean, np.full(rows * min(m, x.shape[-1]), np.nan)))
        assert x.tobytes() == before
        assert got.shape == want.shape
        assert ((got.view(np.uint64) == want.view(np.uint64))
                | (np.isnan(got) & np.isnan(want))).all()


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

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(X=st.floats(1.0, 1e9), F=st.floats(0.01, 0.99), cf=st.floats(1.001, 10.0),
           steps=st.lists(st.floats(1.5, 100.0), min_size=1, max_size=5))
    def test_mean_tends_to_the_cl_point_as_c_grows(self, X, F, cf, steps):
        # Over the CL point X (1 - F) / F the exact mean is 1 + 1 / (cF - 1):
        # above 1, falling as c grows, and within about 1e-4 of 1 from
        # cF = 1e4 on.
        point = X * (1.0 - F) / F
        cfs = np.cumprod([cf, *steps])
        ratios = [ibnp_exact_moments(X, F, v / F).mean / point for v in cfs]
        for v, r in zip(cfs, ratios):
            assert r == pytest.approx(1.0 + 1.0 / (v - 1.0), rel=1e-9)
            assert v < 1e4 or r - 1.0 <= 1.0001e-4
        assert all(a > b > 1.0 for a, b in zip(ratios, ratios[1:]))

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(obs=st.lists(st.floats(1.0, 1e6), min_size=1, max_size=5),
           cf=st.floats(1e4, 1e7), seed=st.integers(0, 2**64 - 1), data=st.data())
    def test_bootstrap_mean_is_the_cl_point_at_large_c(self, obs, cf, seed, data):
        # At c*F >= 1e4 on every open year the exact mean exceeds the CL
        # point by a share 1 / (cF - 1), at most sqrt((1 - F) B / (F cF)),
        # under 0.7, MC SE at F >= 0.2 and B = 1000: each year's bootstrap
        # mean lies within 4 MC SE of the CL point.
        pattern, B = fixed_pattern_of([2, 1, 1, 1, 5]), 1000
        lags = data.draw(st.lists(st.integers(0, pattern.J - 2), min_size=len(obs),
                                  max_size=len(obs)))
        F = np.array([pattern.F_at_lag(lag) for lag in lags])
        dist = multinomial_bootstrap(DiagonalSummary(tuple(obs), tuple(lags)), pattern,
                                     cf / F.min(), B, seed, inclusion_threshold=0.0)
        for y, x in zip(dist.per_year, obs, strict=True):
            assert abs(y.draws.mean() - x * (1.0 - y.F) / y.F) <= (
                4.0 * y.draws.std(ddof=1) / np.sqrt(B))

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
