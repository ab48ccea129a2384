"""Development patterns and point-estimate ultimates.

Chain-ladder link ratios are volume-weighted. The cumulative pattern F
is recovered from the link ratios by the backward product F_j = 1 /
(f_j ... f_{J-2}) with F_{J-1} = 1, and the incremental pattern pi by
differencing. Bornhuetter-Ferguson and Cape Cod reuse the same pattern
and blend in prior information.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .triangle import Triangle, _observed_mask, latest_diagonal

_SIMPLEX_TOL = 1e-12
_PI_FLOOR = 1e-10


class PatternError(ValueError):
    """A development pattern cannot be produced from the given input."""


@dataclass(frozen=True)
class DevelopmentPattern:
    """Incremental proportions pi on the simplex with cumulative F.

    Invariants: pi_j > 0, sum(pi) = 1 within 1e-12, F strictly
    increasing with terminal value 1.
    """

    pi: np.ndarray
    F: np.ndarray
    method: str

    def __post_init__(self) -> None:
        pi = np.asarray(self.pi, dtype=float)
        F = np.asarray(self.F, dtype=float)
        if pi.ndim != 1 or F.shape != pi.shape or pi.size < 2:
            raise PatternError("pi and F must be equal-length vectors, length >= 2")
        if np.any(pi <= 0.0):
            raise PatternError("pattern proportions must be strictly positive")
        if abs(pi.sum() - 1.0) > _SIMPLEX_TOL:
            raise PatternError(f"pattern proportions must sum to 1, got {pi.sum()!r}")
        if np.any(np.diff(F) <= 0.0) or abs(F[-1] - 1.0) > _SIMPLEX_TOL:
            raise PatternError("F must be strictly increasing with F[J-1] = 1")
        if np.max(np.abs(np.cumsum(pi) - F)) > 1e-9:
            raise PatternError("F must be the cumulative sum of pi")
        object.__setattr__(self, "pi", pi)
        object.__setattr__(self, "F", F)

    @property
    def J(self) -> int:
        return self.pi.size

    def F_at_lag(self, dev_lag: int) -> float:
        """Observed cumulative proportion for a row at the given development
        lag; lags at or past J-1 are fully developed."""
        if dev_lag < 0:
            raise PatternError(f"development lag must be non-negative, got {dev_lag}")
        return float(self.F[min(dev_lag, self.J - 1)])


@dataclass(frozen=True)
class UltimateEstimates:
    ultimates: np.ndarray
    reserves: np.ndarray
    method: str
    prior_q: float | None = None
    floored_rows: tuple[int, ...] = ()


def link_ratios(t: Triangle) -> np.ndarray:
    """Volume-weighted link ratios f_j for j = 0..J-2."""
    C = np.cumsum(t.values, axis=1)
    # pair[:, j]: the accident years observing both lags j and j + 1.
    pair = _observed_mask(t.I, t.J)[:, 1:]
    # Column sums add the accident years one after another: cumsum along
    # axis 0 is sequential, where a 1-D np.sum would be pairwise.
    num = np.cumsum(np.where(pair, C[:, 1:], 0.0), axis=0)[-1]
    den = np.cumsum(np.where(pair, C[:, :-1], 0.0), axis=0)[-1]
    bad = np.nonzero(~(pair.any(axis=0) & (num > 0.0) & (den > 0.0)))[0]
    if bad.size:
        j = int(bad[0])
        if not pair[:, j].any():
            raise PatternError(f"no accident year observes both lags {j} and {j + 1}")
        raise PatternError(f"non-positive cumulative column sum at lag {j}")
    return num / den


def _cumulative_pattern(f: np.ndarray) -> np.ndarray:
    """F from link ratios by the backward product F_j = F_{j+1} / f_j,
    F_{J-1} = 1."""
    F = np.ones(len(f) + 1)
    for j in range(len(f) - 1, -1, -1):
        F[j] = F[j + 1] / f[j]
    return F


def chain_ladder_pattern(t: Triangle) -> DevelopmentPattern:
    F = _cumulative_pattern(link_ratios(t))
    pi = np.diff(np.concatenate([[0.0], F]))
    if np.any(pi <= 0.0):
        # Link ratios below one produce non-positive proportions, which the
        # Beta machinery cannot accept; floor and renormalise.
        warnings.warn(
            "non-positive development proportions floored and renormalised",
            stacklevel=2,
        )
        pi = np.maximum(pi, _PI_FLOOR)
        pi = pi / pi.sum()
        F = np.cumsum(pi)
        F[-1] = 1.0
    return DevelopmentPattern(pi=pi, F=F, method="CL")


def _diagonal_and_F(t: Triangle, p: DevelopmentPattern) -> tuple[np.ndarray, np.ndarray]:
    """Each row's observed total and the pattern's F at its lag."""
    diag = latest_diagonal(t)
    return np.asarray(diag.observed), np.array([p.F_at_lag(d) for d in diag.dev_lag])


def cl_ultimates(t: Triangle, p: DevelopmentPattern) -> UltimateEstimates:
    obs, F = _diagonal_and_F(t, p)
    if np.any(F <= 0.0):
        raise PatternError("cannot gross up a row with zero cumulative proportion")
    ultimates = obs / F
    return UltimateEstimates(ultimates=ultimates, reserves=ultimates - obs, method="CL")


def bf_ultimates(t: Triangle, p: DevelopmentPattern, prior: np.ndarray) -> UltimateEstimates:
    """Credibility blend: observed plus the prior's unobserved share,
    equal to F * CL ultimate + (1 - F) * prior for every row with F > 0."""
    prior = np.asarray(prior, dtype=float)
    if prior.shape != (t.I,):
        raise PatternError(f"prior must have length I = {t.I}")
    bad = np.flatnonzero(~(np.isfinite(prior) & (prior > 0.0)))
    if bad.size:
        raise PatternError(f"the prior ultimate of accident year {bad[0] + 1} must be "
                           f"finite and positive, got {prior[bad[0]]}")
    obs, F = _diagonal_and_F(t, p)
    reserves = (1.0 - F) * prior
    return UltimateEstimates(ultimates=obs + reserves, reserves=reserves, method="BF")


def cape_cod_ultimates(t: Triangle, p: DevelopmentPattern) -> UltimateEstimates:
    if t.exposures is None:
        raise PatternError("Cape Cod needs exposures attached to the triangle")
    E = np.asarray(t.exposures)
    if np.any(E <= 0.0):
        raise PatternError("Cape Cod needs strictly positive exposures")
    obs, F = _diagonal_and_F(t, p)
    denom = float(np.sum(E * F))
    if denom <= 0.0:
        raise PatternError("sum of exposure-weighted proportions is zero")
    q_hat = float(np.sum(obs)) / denom
    ultimates = E * q_hat
    reserves = ultimates - obs
    floored = tuple(int(i + 1) for i in np.nonzero(reserves < 0.0)[0])
    if floored:
        reserves = np.maximum(reserves, 0.0)
    return UltimateEstimates(
        ultimates=ultimates,
        reserves=reserves,
        method="CC",
        prior_q=q_hat,
        floored_rows=floored,
    )
