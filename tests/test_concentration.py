"""Concentration-parameter estimation.

Reference estimates on the bundled triangles were produced once with an
independent script (moment matching per partial-proportion column, then
the median) and are frozen here under both variance conventions.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runoff.concentration import (
    ConcentrationError,
    estimate_c,
    estimate_c_batch,
    estimate_c_from_matrix,
    sigma_c_squared,
)
from runoff.distributions import RngStream
from runoff.simlab import SimConfig, generate_triangle
from runoff.triangle import Triangle, bundled_triangle

PATTERN_J5 = (0.45, 0.25, 0.15, 0.10, 0.05)


def step_triangle():
    """7x4 triangle with one zero increment planted in row 2."""
    cells = {
        (1, 0): 10.0, (1, 1): 6.0, (1, 2): 4.0, (1, 3): 2.0,
        (2, 0): 20.0, (2, 1): 0.0, (2, 2): 8.0, (2, 3): 4.0,
        (3, 0): 20.0, (3, 1): 10.0, (3, 2): 10.0, (3, 3): 5.0,
        (4, 0): 12.0, (4, 1): 6.0, (4, 2): 2.0, (4, 3): 1.0,
        (5, 0): 40.0, (5, 1): 20.0, (5, 2): 10.0,
        (6, 0): 50.0, (6, 1): 25.0,
        (7, 0): 60.0,
    }
    return Triangle.from_cells(7, 4, "amounts", cells)


def screening_matrix():
    """7x5 increments: rows 1-3 are identical through lag 3, with row sums
    that are powers of two, so horizon 3 has exactly zero variance; at
    horizon 2 row 4 differs in column 0 only (4/14 == 4/14 in column 1)."""
    X = np.full((7, 5), np.nan)
    X[:3] = [8.0, 4.0, 2.0, 2.0, 1.0]
    X[3, :4] = [9.0, 4.0, 1.0, 1.0]
    X[4, :3] = [40.0, 20.0, 10.0]
    X[5, :2] = [50.0, 25.0]
    X[6, 0] = 60.0
    return X


class TestSigmaCSquared:
    @pytest.mark.parametrize("c", [1.0, 5.0, 20.0, 50.0, 100.0, 500.0])
    @pytest.mark.parametrize("pi", [0.05, 0.30, 0.45, 0.90])
    def test_positive_on_domain(self, c, pi):
        assert sigma_c_squared(c, pi) > 0.0

    def test_grows_like_two_c_squared(self):
        # sigma_c^2 ~ 2 c^2 for large c, so doubling c quadruples it.
        ratio = sigma_c_squared(2000.0, 0.45) / sigma_c_squared(1000.0, 0.45)
        assert ratio == pytest.approx(4.0, rel=0.05)
        assert sigma_c_squared(1000.0, 0.45) == pytest.approx(2e6, rel=0.05)

    def test_domain_errors(self):
        with pytest.raises(ConcentrationError):
            sigma_c_squared(0.0, 0.45)
        with pytest.raises(ConcentrationError):
            sigma_c_squared(-3.0, 0.45)
        with pytest.raises(ConcentrationError):
            sigma_c_squared(50.0, 0.0)
        with pytest.raises(ConcentrationError):
            sigma_c_squared(50.0, 1.0)


class TestPartialProportions:
    def test_hand_values_and_skips(self):
        # Horizon 2 reads years 1-4; year 2 has a zero increment and is
        # skipped, leaving proportions (0.5, 0.3), (0.5, 0.25), (0.6, 0.3).
        est = estimate_c(step_triangle())
        assert [(c.j, c.k, c.n_k) for c in est.cells] == [(0, 2, 3), (1, 2, 3)]
        np.testing.assert_allclose([c.pi_hat for c in est.cells], [1.6 / 3, 0.85 / 3])
        np.testing.assert_allclose([c.c_hat for c in est.cells], [221.0 / 3, 728.0 / 3])
        assert est.dropped_cells == ()

    def test_rows_observe_beyond_lag_k(self):
        # Horizon k reads years 1..I-k-1 only. Year 6 of taylor-ashe
        # observes lags 0..4, so changing it moves horizons k <= 3 alone.
        t = bundled_triangle("taylor-ashe")
        X = t.values.copy()
        X[5, 0] *= 1.5
        before = {(c.j, c.k): c.c_hat for c in estimate_c(t).cells}
        after = {(c.j, c.k): c.c_hat for c in estimate_c(Triangle(X)).cells}
        assert before.keys() == after.keys()
        assert all((after[key] == before[key]) == (key[1] >= 4) for key in before)


class TestCellEstimate:
    def test_hand_value_both_divisors(self):
        # Column 0 of horizon 2 holds the proportions 0.2, 0.3, 0.4.
        X = np.full((6, 4), np.nan)
        X[:3, :3] = [[2.0, 5.0, 3.0], [3.0, 4.0, 3.0], [4.0, 3.0, 3.0]]
        unbiased = estimate_c_from_matrix(X, "unbiased").cells[0]
        biased = estimate_c_from_matrix(X, "biased").cells[0]
        assert (unbiased.j, unbiased.k) == (biased.j, biased.k) == (0, 2)
        assert unbiased.c_hat == pytest.approx(20.0)
        assert biased.c_hat == pytest.approx(30.5)

    def test_needs_three_samples(self):
        X = screening_matrix()
        X[:3, :4] = [[10.0, 6.0, 4.0, 2.0], [11.0, 5.0, 4.0, 3.0], [9.0, 7.0, 3.0, 0.0]]
        est = estimate_c_from_matrix(X)
        assert est.dropped_cells[-3:] == tuple(
            (j, 3, "only 2 usable rows") for j in range(3))
        assert [(c.j, c.k, c.n_k) for c in est.cells] == [(0, 2, 4), (1, 2, 4)]

    def test_zero_variance_rejected(self):
        est = estimate_c_from_matrix(screening_matrix())
        assert [(c.j, c.k) for c in est.cells] == [(0, 2)]
        assert est.dropped_cells == (
            (1, 2, "zero sample variance"),
            (0, 3, "zero sample variance"),
            (1, 3, "zero sample variance"),
            (2, 3, "zero sample variance"),
        )
        assert est.c_hat == est.cells[0].c_hat == pytest.approx(188.75)

    def test_non_positive_estimate_dropped(self):
        # Column 0 of horizon 2 holds the proportions 0.01, 0.98, 0.01: their
        # sample variance exceeds m(1 - m), so m(1 - m)/v - 1 < 0.
        X = np.full((6, 4), np.nan)
        X[:3, :3] = [[1.0, 50.0, 49.0], [98.0, 1.5, 0.5], [1.0, 48.0, 51.0]]
        est = estimate_c_from_matrix(X)
        assert est.dropped_cells == ((0, 2, "non-positive estimate -0.2915"),)
        assert [(c.j, c.k) for c in est.cells] == [(1, 2)]

    def test_divisor_validated(self):
        with pytest.raises(ConcentrationError, match="divisor"):
            estimate_c_batch(screening_matrix()[None], "ml")
        with pytest.raises(ConcentrationError, match="divisor"):
            estimate_c_from_matrix(screening_matrix(), "ml")


class TestEstimateOnBundledTriangles:
    # (name, unbiased c_hat, biased c_hat, diagnostic under unbiased)
    CASES = [
        ("taylor-ashe", 125.3001, 156.8751, "delta-recommended"),
        ("raa", 13.4468, 16.6123, "heterogeneous"),
        ("mortgage", 91.0181, 117.7649, "stable"),
    ]

    @pytest.mark.parametrize("name,unbiased,biased,diag", CASES)
    def test_frozen_estimates(self, name, unbiased, biased, diag):
        t = bundled_triangle(name)
        est_u = estimate_c(t)
        est_b = estimate_c(t, divisor="biased")
        assert est_u.c_hat == pytest.approx(unbiased, abs=5e-4)
        assert est_b.c_hat == pytest.approx(biased, abs=5e-4)
        assert est_u.diagnostic == diag
        assert est_u.divisor == "unbiased"
        # A smaller variance divisor inflates every cell estimate.
        assert est_b.c_hat > est_u.c_hat

    def test_taylor_ashe_cell_table(self):
        est = estimate_c(bundled_triangle("taylor-ashe"))
        # I = J = 10: horizons 2..6 qualify, contributing k cells each.
        assert len(est.cells) == 20
        assert est.dropped_cells == ()
        ks = sorted({cell.k for cell in est.cells})
        assert ks == [2, 3, 4, 5, 6]
        assert all(cell.j < cell.k for cell in est.cells)
        assert all(cell.c_hat > 0.0 for cell in est.cells)
        assert all(cell.n_k == 10 - cell.k - 1 for cell in est.cells)
        # Median of the 20 retained cells is the reported estimate.
        assert est.c_hat == pytest.approx(
            float(np.median([cell.c_hat for cell in est.cells])))

    def test_row_scale_invariance(self):
        t = bundled_triangle("taylor-ashe")
        scaled = t.values.copy()
        scaled[2] *= 17.0
        assert estimate_c(Triangle(scaled)).c_hat == estimate_c(t).c_hat

    def test_matrix_entrypoint_matches(self):
        t = bundled_triangle("mortgage")
        est_m = estimate_c_from_matrix(t.values)
        assert est_m.c_hat == estimate_c(t).c_hat

    def test_matrix_must_be_two_dimensional(self):
        with pytest.raises(ConcentrationError):
            estimate_c_from_matrix(np.ones(12))
        with pytest.raises(ConcentrationError):
            estimate_c_batch(np.ones((4, 4)))

    @pytest.mark.parametrize("divisor", ["unbiased", "biased"])
    def test_batch_is_bit_equal_per_slice(self, divisor):
        # taylor-ashe and raa share I = J = 10; mortgage is 9 x 9.
        for names in (("taylor-ashe", "raa"), ("mortgage",)):
            ts = [bundled_triangle(name) for name in names]
            batch = estimate_c_batch(np.stack([t.values for t in ts]), divisor)
            single = [estimate_c(t, divisor).c_hat for t in ts]
            assert batch.tobytes() == np.array(single).tobytes()

    def test_batch_marks_unestimable_slices_nan(self):
        X = np.stack([screening_matrix(), np.full((7, 5), 10.0)])
        c_hat = estimate_c_batch(X)
        assert c_hat[0] == estimate_c_from_matrix(X[0]).c_hat
        assert np.isnan(c_hat[1])
        with pytest.raises(ConcentrationError, match="no usable"):
            estimate_c_from_matrix(X[1])
        with pytest.raises(ConcentrationError, match="no estimable horizon"):
            estimate_c_batch(np.ones((2, 5, 5)))

    def test_too_small_triangle(self):
        # I = J = 5 leaves every horizon with fewer than three rows.
        cells = {(i, j): 10.0 for i in range(1, 6) for j in range(5) if i + j <= 5}
        t = Triangle.from_cells(5, 5, "amounts", cells)
        with pytest.raises(ConcentrationError, match="no usable"):
            estimate_c(t)


class TestSamplingBehaviour:
    def test_per_cell_variance_matches_asymptotic_formula(self):
        # One (j, k) cell at I = 100: the moment estimator's variance
        # should track sigma_c^2(c, pi') / n_k. pi' = 0.45 / 0.85 is the
        # first proportion at horizon 2 under the five-lag pattern.
        c_true, n_k, M = 50.0, 97, 10_000
        pi_p = 0.45 / 0.85
        g = RngStream(777).generator()
        W = g.beta(c_true * pi_p, c_true * (1.0 - pi_p), size=(M, n_k))
        m = W.mean(axis=1)
        v = W.var(axis=1, ddof=1)
        cells = m * (1.0 - m) / v - 1.0
        ratio = float(np.var(cells, ddof=1)) / (sigma_c_squared(c_true, pi_p) / n_k)
        assert 0.9 < ratio < 1.1

    @pytest.mark.parametrize("c_true,median_bound", [(20.0, 0.10), (50.0, 0.10)])
    def test_consistency_at_two_hundred_rows(self, c_true, median_bound):
        # 200 independent 200-row proportion matrices: the median
        # relative error of the estimator stays under ten percent.
        g = RngStream(2026).derive(int(c_true)).generator()
        errs = []
        for _ in range(200):
            P = g.dirichlet(c_true * np.asarray(PATTERN_J5), size=200)
            errs.append(abs(estimate_c_from_matrix(P).c_hat - c_true) / c_true)
        assert float(np.median(errs)) < median_bound

    def test_median_cuts_cell_spread(self):
        # The per-cell estimates on a simulated triangle vary a lot; the
        # median lands well inside their range.
        g = RngStream(4040).generator()
        P = g.dirichlet(50.0 * np.asarray(PATTERN_J5), size=40)
        est = estimate_c_from_matrix(P)
        lo = min(cell.c_hat for cell in est.cells)
        hi = max(cell.c_hat for cell in est.cells)
        assert lo < est.c_hat < hi

    def test_divisor_validated(self):
        with pytest.raises(ConcentrationError, match="divisor"):
            estimate_c(bundled_triangle("raa"), divisor="mle")


@st.composite
def sim_configs(draw):
    """Generating scenarios whose triangles exercise the screening: Tweedie
    cells at high dispersion are often exactly zero, and small expected
    counts leave zero counts in the count hierarchy."""
    dgp = draw(st.sampled_from(["dirichlet-gamma", "nonstationary", "tweedie",
                                "count-hierarchy"]))
    J = draw(st.sampled_from([5, 10]))
    kw = {"I": draw(st.integers(J if J == 10 else 7, 15)), "J": J, "dgp": dgp,
          "seed": draw(st.integers(0, 2**31)), "c_true": draw(st.sampled_from([5.0, 50.0, 400.0]))}
    if dgp == "nonstationary":
        kw["sigma_delta"] = draw(st.sampled_from([0.01, 0.1]))
    elif dgp == "tweedie":
        kw["p"] = draw(st.sampled_from([1.2, 1.5, 1.8]))
        kw["phi"] = draw(st.sampled_from([2.75, 43.0, 500.0]))
    elif dgp == "count-hierarchy":
        kw["mu"] = draw(st.sampled_from([5.0, 40.0, 400.0]))
    return SimConfig(**kw)


def c_hat_or_nan(t, divisor="unbiased"):
    try:
        return estimate_c(t, divisor).c_hat
    except ConcentrationError:
        return float("nan")


class TestEstimatorProperties:
    @settings(max_examples=60, deadline=None)
    @given(cfg=sim_configs(), M=st.integers(1, 6), divisor=st.sampled_from(["unbiased", "biased"]))
    def test_batch_equals_estimate_c_per_slice(self, cfg, M, divisor):
        ts = [generate_triangle(cfg, rep)[0] for rep in range(M)]
        batch = estimate_c_batch(np.stack([t.values for t in ts]), divisor)
        single = np.array([c_hat_or_nan(t, divisor) for t in ts])
        assert np.array_equal(batch, single, equal_nan=True)

    @settings(max_examples=60, deadline=None)
    @given(cfg=sim_configs(), rep=st.integers(0, 50), divisor=st.sampled_from(["unbiased", "biased"]))
    def test_c_hat_is_np_median_of_the_kept_cells(self, cfg, rep, divisor):
        t, _ = generate_triangle(cfg, rep)
        try:
            est = estimate_c(t, divisor)
        except ConcentrationError:
            return
        assert est.c_hat == float(np.median([cell.c_hat for cell in est.cells]))

    @settings(max_examples=60, deadline=None)
    @given(cfg=sim_configs(), rep=st.integers(0, 50), row=st.integers(0, 14),
           k=st.integers(-40, 40))
    def test_scaling_a_row_by_a_power_of_two_keeps_every_bit(self, cfg, rep, row, k):
        def outcome(t):
            try:
                est = estimate_c(t)
            except ConcentrationError as exc:
                return str(exc)
            return est.c_hat, est.cells, est.dropped_cells

        t, _ = generate_triangle(cfg, rep)
        X = t.values.copy()
        X[row % t.I] *= 2.0**k
        assert outcome(Triangle(X)) == outcome(t)

    @settings(max_examples=100, deadline=None)
    @given(cfg=sim_configs(), rep=st.integers(0, 50), row=st.integers(0, 14),
           factor=st.floats(1e-30, 1e30))
    def test_scaling_a_row_by_any_factor_keeps_c_hat_within_1e_12(self, cfg, rep, row, factor):
        # Proportions are scale-free per row; a factor that is not a power
        # of two may move each proportion by rounding, and no more.
        t, _ = generate_triangle(cfg, rep)
        X = t.values.copy()
        X[row % t.I] *= factor
        scaled, c_hat = c_hat_or_nan(Triangle(X)), c_hat_or_nan(t)
        if np.isnan(c_hat):
            assert np.isnan(scaled)
        else:
            assert scaled == pytest.approx(c_hat, rel=1e-12, abs=0.0)
