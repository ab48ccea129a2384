"""Development-pattern estimation and point reserves.

The chain-ladder results are cross-checked against a separate
plain-loop implementation written here from the textbook recipe, so a
bug in the library's vectorised path cannot hide.
"""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from runoff.patterns import (
    DevelopmentPattern,
    PatternError,
    bf_ultimates,
    cape_cod_ultimates,
    chain_ladder_pattern,
    cl_ultimates,
    link_ratios,
)
from runoff.predictive import bf_bootstrap, multinomial_bootstrap
from runoff.triangle import DiagonalSummary, Triangle, bundled_triangle, cumulate


def hand_triangle():
    cells = {
        (1, 0): 10.0, (1, 1): 6.0, (1, 2): 4.0,
        (2, 0): 20.0, (2, 1): 12.0,
        (3, 0): 30.0,
    }
    return Triangle.from_cells(3, 3, "amounts", cells)


def classical_chain_ladder(t: Triangle) -> np.ndarray:
    """Straightforward reference implementation: cumulative matrix,
    volume-weighted factors, forward projection of each row."""
    cum = cumulate(t)
    C = cum.values
    I, J = t.I, t.J
    f = []
    for j in range(J - 1):
        rows = [i for i in range(I) if not np.isnan(C[i, j + 1])]
        f.append(sum(C[i, j + 1] for i in rows) / sum(C[i, j] for i in rows))
    ult = np.empty(I)
    for i in range(I):
        last = min(J - 1, I - 1 - i)  # row i's latest observed lag
        v = C[i, last]
        for j in range(last, J - 1):
            v *= f[j]
        ult[i] = v
    return ult


class TestLinkRatios:
    def test_hand_values(self):
        f = link_ratios(hand_triangle())
        np.testing.assert_allclose(f, [1.6, 1.25])

    def test_two_by_two(self):
        t = Triangle.from_cells(2, 2, "amounts", {(1, 0): 4.0, (1, 1): 2.0, (2, 0): 8.0})
        np.testing.assert_allclose(link_ratios(t), [1.5])

    def test_non_positive_column_sum(self):
        t = Triangle.from_cells(2, 2, "amounts", {(1, 0): 4.0, (1, 1): -4.0, (2, 0): 8.0})
        with pytest.raises(PatternError, match="non-positive cumulative"):
            link_ratios(t)


class TestChainLadderPattern:
    def test_hand_values(self):
        p = chain_ladder_pattern(hand_triangle())
        np.testing.assert_allclose(p.F, [0.5, 0.8, 1.0])
        np.testing.assert_allclose(p.pi, [0.5, 0.3, 0.2])
        assert p.method == "CL"

    @pytest.mark.parametrize("name", ["taylor-ashe", "raa", "mortgage"])
    def test_simplex_invariants_on_real_data(self, name):
        p = chain_ladder_pattern(bundled_triangle(name))
        assert p.floored_lags == ()
        assert abs(p.pi.sum() - 1.0) < 1e-12
        assert np.all(p.pi > 0.0)
        assert np.all(np.diff(p.F) > 0.0)
        assert p.F[-1] == pytest.approx(1.0, abs=1e-12)

    def test_floors_non_positive_proportions(self):
        # A link ratio below one yields F[0] > F[1]; the pattern must be
        # floored back onto the simplex and say which lags were floored,
        # not rejected and not warned about.
        cells = {
            (1, 0): 10.0, (1, 1): -5.0, (1, 2): 1.0,
            (2, 0): 20.0, (2, 1): -10.0,
            (3, 0): 30.0,
        }
        t = Triangle.from_cells(3, 3, "amounts", cells)
        p = chain_ladder_pattern(t)
        assert p.floored_lags == (1,)
        assert abs(p.pi.sum() - 1.0) < 1e-12
        assert np.all(p.pi > 0.0)
        assert np.all(np.diff(p.F) > 0.0)


class TestDevelopmentPattern:
    def test_validation(self):
        with pytest.raises(PatternError):
            DevelopmentPattern(pi=np.array([0.5, 0.4]), F=np.array([0.5, 0.9]),
                               method="x")  # sum != 1
        with pytest.raises(PatternError):
            DevelopmentPattern(pi=np.array([1.0, 0.0]), F=np.array([1.0, 1.0]),
                               method="x")  # zero proportion
        with pytest.raises(PatternError):
            DevelopmentPattern(pi=np.array([0.6, 0.4]), F=np.array([0.5, 1.0]),
                               method="x")  # F is not cumsum(pi)
        with pytest.raises(PatternError):
            DevelopmentPattern(pi=np.array([1.0]), F=np.array([1.0]), method="x")

    # F matches cumsum(pi) to within 1e-9 here, so only the F[0] check stops
    # these patterns; past it, the Beta draws failed inside numpy.
    @pytest.mark.parametrize("F0", [0.0, -1e-10])
    @pytest.mark.parametrize("bootstrap", [
        lambda p: multinomial_bootstrap(DiagonalSummary((100.0, 50.0), (1, 0)), p, 50.0, 10, 1,
                                        inclusion_threshold=0.0),
        lambda p: bf_bootstrap(np.array([100.0, 50.0]), 1.0, p, 50.0, 10, 1),
    ], ids=["multinomial", "bf"])
    def test_non_positive_first_F_never_reaches_a_bootstrap(self, F0, bootstrap):
        with pytest.raises(PatternError, match=r"F\[0\] must be positive"):
            bootstrap(DevelopmentPattern(pi=(1e-12, 1 - 1e-12), F=(F0, 1.0), method="x"))

    def test_F_at_lag(self):
        p = chain_ladder_pattern(hand_triangle())
        assert p.F_at_lag(0) == pytest.approx(0.5)
        assert p.F_at_lag(2) == 1.0
        assert p.F_at_lag(9) == 1.0  # past the last lag: fully developed
        with pytest.raises(PatternError):
            p.F_at_lag(-1)
        assert p.J == 3


class TestClUltimates:
    def test_hand_values(self):
        t = hand_triangle()
        est = cl_ultimates(t, chain_ladder_pattern(t))
        np.testing.assert_allclose(est.ultimates, [20.0, 40.0, 60.0])
        np.testing.assert_allclose(est.reserves, [0.0, 8.0, 30.0])
        assert est.method == "CL"

    @pytest.mark.parametrize("name", ["taylor-ashe", "raa", "mortgage"])
    def test_matches_classical_implementation(self, name):
        t = bundled_triangle(name)
        est = cl_ultimates(t, chain_ladder_pattern(t))
        np.testing.assert_allclose(est.ultimates, classical_chain_ladder(t), rtol=1e-10)

    def test_reserves_are_ultimate_minus_observed(self):
        t = bundled_triangle("taylor-ashe")
        est = cl_ultimates(t, chain_ladder_pattern(t))
        obs = np.nansum(t.values, axis=1)
        np.testing.assert_allclose(est.ultimates - est.reserves, obs)


class TestBfUltimates:
    def test_blend_formula_and_convexity(self):
        t = hand_triangle()
        p = chain_ladder_pattern(t)
        prior = np.array([25.0, 50.0, 70.0])
        est = bf_ultimates(t, p, prior)
        np.testing.assert_allclose(est.ultimates, [20.0, 42.0, 65.0])
        np.testing.assert_allclose(est.reserves, [0.0, 10.0, 35.0])
        cl = cl_ultimates(t, p).ultimates
        F = np.array([p.F_at_lag(d) for d in (2, 1, 0)])
        np.testing.assert_allclose(est.ultimates, F * cl + (1 - F) * prior)
        # Credibility blend: each BF ultimate lies between CL and prior.
        lo = np.minimum(cl, prior)
        hi = np.maximum(cl, prior)
        assert np.all(est.ultimates >= lo - 1e-9)
        assert np.all(est.ultimates <= hi + 1e-9)

    def test_prior_length_checked(self):
        t = hand_triangle()
        with pytest.raises(PatternError, match="length"):
            bf_ultimates(t, chain_ladder_pattern(t), np.array([1.0, 2.0]))


class TestCapeCod:
    def test_pooled_ratio(self):
        t = hand_triangle().with_exposures([10.0, 20.0, 30.0])
        est = cape_cod_ultimates(t, chain_ladder_pattern(t))
        # q = (20 + 32 + 30) / (10 * 1 + 20 * 0.8 + 30 * 0.5) = 2
        assert est.prior_q == pytest.approx(2.0)
        np.testing.assert_allclose(est.ultimates, [20.0, 40.0, 60.0])
        np.testing.assert_allclose(est.reserves, [0.0, 8.0, 30.0])

    def test_fully_developed_year_reserves_zero(self):
        # Year 1 observes more than E * q here; its reserve is still
        # (1 - F) * E * q = 0.
        t = hand_triangle().with_exposures([5.0, 20.0, 30.0])
        est = cape_cod_ultimates(t, chain_ladder_pattern(t))
        # q = (20 + 32 + 30) / (5 * 1 + 20 * 0.8 + 30 * 0.5) = 82 / 36
        assert est.prior_q == pytest.approx(82.0 / 36.0)
        assert est.reserves[0] == 0.0
        expected = np.array([0.0, 0.2 * 20.0, 0.5 * 30.0]) * est.prior_q
        np.testing.assert_allclose(est.reserves, expected)
        assert np.all(est.reserves >= 0.0)

    @pytest.mark.parametrize("values, exposures, got", [
        # Nothing observed: q = 0.
        ([[0.0, 0.0, np.nan], [0.0, np.nan, np.nan]], (1.0, 2.0), "0.0"),
        # Each E * F rounds to 0 (F < 1 in every row, as I < J): q = inf.
        ([[1.0, 2.0, np.nan], [3.0, np.nan, np.nan]], (5e-324, 5e-324), "inf"),
    ], ids=["no-claims", "underflow"])
    def test_pooled_ratio_must_be_finite_and_positive(self, values, exposures, got):
        t = Triangle(np.array(values), "amounts", exposures)
        p = DevelopmentPattern(pi=np.array([0.25, 0.25, 0.5]), F=np.array([0.25, 0.5, 1.0]),
                               method="CL")
        with pytest.raises(PatternError) as exc:
            cape_cod_ultimates(t, p)
        assert str(exc.value) == ("Cape Cod's pooled ratio sum(observed) / sum(exposure * F) "
                                  f"must be finite and positive, got {got}")

    def test_requires_exposures(self):
        with pytest.raises(PatternError, match="exposures"):
            cape_cod_ultimates(hand_triangle(), chain_ladder_pattern(hand_triangle()))

    def test_rejects_non_positive_exposures(self):
        t = hand_triangle().with_exposures([0.0, 20.0, 30.0])
        with pytest.raises(PatternError, match="positive"):
            cape_cod_ultimates(t, chain_ladder_pattern(t))


@st.composite
def blend_case(draw):
    """A triangle with positive increments (amounts or counts), so that it
    has a chain-ladder pattern, with positive exposures, and a positive
    q_bf."""
    I = draw(st.integers(2, 8))
    J = draw(st.integers(2, I))
    kind = draw(st.sampled_from(["amounts", "counts"]))
    cell = (st.floats(1e-3, 1e6) if kind == "amounts"
            else st.integers(1, 10**6).map(float))
    values = np.full((I, J), np.nan)
    for i in range(I):
        for j in range(min(J, I - i)):
            values[i, j] = draw(cell)
    exposures = draw(st.lists(st.floats(1e-3, 1e6), min_size=I, max_size=I))
    return Triangle(values, kind, exposures), draw(st.floats(1e-3, 1e3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=blend_case())
def test_bf_and_cape_cod_are_the_credibility_blend(case):
    # ultimate = F * CL + (1 - F) * prior for BF's prior E * q_bf and Cape
    # Cod's E * q; every reserve is (1 - F) * prior, so never negative, and
    # exactly 0 where F = 1.
    t, q_bf = case
    p = chain_ladder_pattern(t)
    cl = cl_ultimates(t, p).ultimates
    F = p.F[np.minimum(np.arange(t.I)[::-1], t.J - 1)]
    E = np.asarray(t.exposures)
    for est in (bf_ultimates(t, p, E * q_bf), cape_cod_ultimates(t, p)):
        prior = E * (q_bf if est.method == "BF" else est.prior_q)
        np.testing.assert_allclose(est.ultimates, F * cl + (1.0 - F) * prior, rtol=1e-12)
        assert np.all(est.reserves >= 0.0)
        assert np.all(est.reserves[F == 1.0] == 0.0)
