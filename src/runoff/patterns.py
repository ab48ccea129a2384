"""Development patterns and point-estimate ultimates.

Chain-ladder link ratios are volume-weighted. The cumulative pattern F
is recovered from the link ratios by the backward product F_j = 1 /
(f_j ... f_{J-2}) with F_{J-1} = 1, and the incremental pattern pi by
differencing. Chain-ladder, Bornhuetter-Ferguson and Cape Cod are one
credibility blend, ultimate = F * CL ultimate + (1 - F) * prior, under a
diffuse prior, a given prior and the pooled prior E * q with
q = sum(observed) / sum(E * F) respectively.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .triangle import RunoffError, Triangle, _diagonal_totals, _latest_lags, _observed_mask

_SIMPLEX_TOL = 1e-12
_PI_FLOOR = 1e-10


class PatternError(RunoffError):
    """A development pattern cannot be produced from the given input."""


@dataclass(frozen=True)
class DevelopmentPattern:
    """Incremental proportions pi on the simplex with cumulative F.

    Invariants: pi_j > 0, sum(pi) = 1 within 1e-12, F strictly
    increasing from F[0] > 0 to terminal value 1. floored_lags: the lags
    floored at 1e-10.
    """

    pi: np.ndarray
    F: np.ndarray
    method: str
    floored_lags: tuple[int, ...] = ()

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
        if F[0] <= 0.0:
            raise PatternError(f"F[0] must be positive, got {F[0]}")
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
    """Per accident year ultimates and reserves of one method ("CL", "BF"
    or "CC"); prior_q is Cape Cod's pooled loss ratio, else None."""

    ultimates: np.ndarray
    reserves: np.ndarray
    method: str
    prior_q: float | None = None


def _link_ratio_block(X: np.ndarray) -> tuple[np.ndarray, list[str | None]]:
    """Volume-weighted link ratios f_j, j = 0..J-2, of each (I, J) slice of
    an (n, I, J) increments block, shaped (n, J - 1), and per slice None or
    the PatternError message link_ratios raises for it (a faulty slice's
    ratios hold anything)."""
    I, J = X.shape[-2:]
    C = np.cumsum(X, axis=-1)
    # pair[:, j]: the accident years observing both lags j and j + 1.
    pair = _observed_mask(I, J)[:, 1:]
    # Column sums add the accident years one after another: cumsum along
    # the year axis is sequential, where a 1-D np.sum would be pairwise.
    num = np.cumsum(np.where(pair, C[..., 1:], 0.0), axis=-2)[..., -1, :]
    den = np.cumsum(np.where(pair, C[..., :-1], 0.0), axis=-2)[..., -1, :]
    ok = pair.any(axis=0) & (num > 0.0) & (den > 0.0)
    errors: list[str | None] = [None] * len(X)
    for m in np.flatnonzero(~ok.all(axis=-1)):
        j = int(np.flatnonzero(~ok[m])[0])
        errors[m] = (f"no accident year observes both lags {j} and {j + 1}"
                     if not pair[:, j].any() else f"non-positive cumulative column sum at lag {j}")
    with np.errstate(divide="ignore", invalid="ignore"):
        return num / den, errors


def link_ratios(t: Triangle) -> np.ndarray:
    """Volume-weighted link ratios f_j for j = 0..J-2."""
    f, errors = _link_ratio_block(t.values[None])
    if errors[0] is not None:
        raise PatternError(errors[0])
    return f[0]


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
    floored = tuple(int(j) for j in np.flatnonzero(pi <= 0.0))
    if floored:
        # Link ratios of one or below produce non-positive proportions,
        # which the Beta machinery cannot accept; floor and renormalise.
        pi = np.maximum(pi, _PI_FLOOR)
        pi = pi / pi.sum()
        F = np.cumsum(pi)
        F[-1] = 1.0
    return DevelopmentPattern(pi=pi, F=F, method="CL", floored_lags=floored)


def _diagonal_and_F(t: Triangle, p: DevelopmentPattern) -> tuple[np.ndarray, np.ndarray]:
    """Each row's observed total and the pattern's F at its latest lag."""
    return _diagonal_totals(t.values), p.F[_latest_lags(t.I, p.J)]


def _cl_reserves(obs: np.ndarray, F: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Chain-ladder ultimates and reserves of observed totals obs (..., I)
    at cumulative proportions F (I,), each positive as a pattern's are."""
    ultimates = obs / F
    return ultimates, ultimates - obs


def cl_ultimates(t: Triangle, p: DevelopmentPattern) -> UltimateEstimates:
    ultimates, reserves = _cl_reserves(*_diagonal_and_F(t, p))
    return UltimateEstimates(ultimates=ultimates, reserves=reserves, method="CL")


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
    """Bornhuetter-Ferguson at the pooled prior E * q, q = sum(obs) / sum(E * F)."""
    if t.exposures is None:
        raise PatternError("Cape Cod needs exposures attached to the triangle")
    E = np.asarray(t.exposures)
    if np.any(E <= 0.0):
        raise PatternError("Cape Cod needs strictly positive exposures")
    obs, F = _diagonal_and_F(t, p)
    with np.errstate(divide="ignore", invalid="ignore"):
        q_hat = float(np.sum(obs) / np.sum(E * F))
    if not (np.isfinite(q_hat) and q_hat > 0.0):
        raise PatternError(f"Cape Cod's pooled ratio sum(observed) / sum(exposure * F) "
                           f"must be finite and positive, got {q_hat}")
    return replace(bf_ultimates(t, p, E * q_hat), method="CC", prior_q=q_hat)
