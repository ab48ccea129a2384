"""Conditional predictive distributions for outstanding amounts and counts.

The bootstrap here never touches triangle cells: its inputs are the
diagonal summary (row totals plus development lags), a development
pattern, and a concentration estimate. The observed data act purely as
fixed conditioning information, and for every accident year only the
observed proportion W is resampled, from Beta(c F, c (1 - F)).
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .distributions import RngStream, sample_negbin
from .patterns import DevelopmentPattern
from .triangle import DiagonalSummary

_ROW_DOMAIN = 1  # stream tag for per-accident-year draws
_SUPPRESS_AT_OR_BELOW = 2.0  # c*F at or below this keeps draws but hides the mean
_W_FLOOR = 1e-15
_FULLY_DEVELOPED = 1.0 - 1e-12
_CHUNK = 1 << 15  # Beta variates drawn per generator call
_PARALLEL_MIN_B = 50_000  # from this B on, accident years are drawn on a thread pool

DEFAULT_INCLUSION_THRESHOLD = 5.0


class PredictiveError(ValueError):
    """The predictive distribution cannot be formed from the given input."""


@dataclass(frozen=True)
class YearPredictive:
    """One accident year's slice of a reserve distribution.

    draws is None exactly when the year was excluded by the inclusion
    rule; the deterministic point reserve is reported either way so
    totals stay interpretable.
    """

    accident: int
    F: float
    c_times_F: float
    point_reserve: float
    draws: np.ndarray | None
    excluded: bool = False
    exclusion_reason: str | None = None
    mean_suppressed: bool = False


@dataclass(frozen=True)
class ReserveDistribution:
    """Bootstrap draws of outstanding amounts, per year and in total.

    total[b] is the sum of draws[b] over included years. The summary
    holds mean (None while any included year has its mean suppressed),
    standard error, and the 5/25/50/75/95 percent quantiles.
    """

    per_year: tuple[YearPredictive, ...]
    total: np.ndarray
    summary: dict[str, float | None]
    flags: dict[int, tuple[str, ...]]
    anchor: str
    meta: dict[str, float | int] | None = None

    @property
    def excluded_years(self) -> tuple[int, ...]:
        return tuple(y.accident for y in self.per_year if y.excluded)

    def excluded_point_total(self) -> float:
        return float(sum(y.point_reserve for y in self.per_year if y.excluded))


def _summarise(total: np.ndarray, mean_suppressed: bool) -> dict[str, float | None]:
    """Mean, se and quantiles of total. A suppressed mean withholds se too:
    the mean is suppressed at c*F <= 2, where the ratio has no variance."""
    q5, q25, q50, q75, q95 = np.percentile(total, [5, 25, 50, 75, 95])
    return {
        "mean": None if mean_suppressed else float(total.mean()),
        "se": float(total.std(ddof=1)) if total.size > 1 and not mean_suppressed else None,
        "q5": float(q5),
        "q25": float(q25),
        "q50": float(q50),
        "q75": float(q75),
        "q95": float(q95),
    }


def _assemble(
    years: list[YearPredictive], B: int, anchor: str, meta=None
) -> ReserveDistribution:
    included = [y for y in years if not y.excluded]
    if not included:
        raise PredictiveError("all accident years excluded by the inclusion rule")
    total = np.zeros(B)
    with np.errstate(over="ignore"):
        for y in included:
            total += y.draws
    if not np.isfinite(total).all():
        raise PredictiveError("the total of the bootstrap draws overflows the float range")
    flags: dict[int, tuple[str, ...]] = {}
    for y in years:
        notes = []
        if y.excluded:
            notes.append(f"excluded: {y.exclusion_reason}")
        if y.mean_suppressed:
            notes.append(f"mean-suppressed: c*F = {y.c_times_F:.3g} <= {_SUPPRESS_AT_OR_BELOW}")
        if notes:
            flags[y.accident] = tuple(notes)
    suppress_total = any(y.mean_suppressed for y in included)
    return ReserveDistribution(
        per_year=tuple(years),
        total=total,
        summary=_summarise(total, suppress_total),
        flags=flags,
        anchor=anchor,
        meta=meta,
    )


def _validate_bootstrap_args(c_hat: float, B: int) -> None:
    if not np.isfinite(c_hat) or c_hat <= 0.0:
        raise PredictiveError(f"concentration must be positive and finite, got {c_hat}")
    if int(B) != B or B < 1:
        raise PredictiveError(f"B must be a positive integer, got {B}")


class _Draw(NamedTuple):
    """One accident year to resample: its stream, Beta parameters and scale."""

    accident: int
    generator: np.random.Generator
    a: float
    b: float
    scale: float  # observed total (CL) or prior ultimate (BF)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _draw_years(block: np.ndarray, draws: list[_Draw], ratio: bool) -> None:
    """Fill block[k] with the outstanding-amount draws of draws[k].

    With ratio the row is scale * (1 - W) / W, W floored at 1e-15 (CL);
    without it, scale * (1 - W) (BF). Each row is drawn in chunks of
    _CHUNK variates, which consume the year's stream exactly as one
    beta(size=B) call does, so a row depends neither on the chunk size nor
    on the thread that fills it. From B = _PARALLEL_MIN_B on, the years
    are spread over a thread pool: numpy releases the GIL inside the draws
    and ufuncs, and a worker touches only numpy and its own row. A row
    that overflows the float range is an error, not a silent inf or NaN.
    """
    B = block.shape[1]
    scale_name = "observed total" if ratio else "prior ultimate"

    def fill(k: int) -> None:
        d = draws[k]
        row = block[k]
        # Overflow is reported by the check below, not by a numpy warning.
        with np.errstate(over="ignore"):
            for start in range(0, B, _CHUNK):
                seg = row[start : start + _CHUNK]
                w = d.generator.beta(d.a, d.b, size=seg.size)
                if ratio:
                    np.maximum(w, _W_FLOOR, out=w)
                np.subtract(1.0, w, out=seg)
                np.multiply(d.scale, seg, out=seg)
                if ratio:
                    np.divide(seg, w, out=seg)
                if not np.isfinite(seg).all():
                    raise PredictiveError(
                        f"accident year {d.accident}: bootstrap draws overflow the "
                        f"float range ({scale_name} {d.scale:.6g})"
                    )

    workers = min(_usable_cores(), len(draws)) if B >= _PARALLEL_MIN_B else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, range(len(draws))))
    else:
        list(map(fill, range(len(draws))))


def _anchored_bootstrap(
    rows: list[tuple[int, float, float, float, str | None]],
    c_hat: float,
    B: int,
    seed: int,
    anchor: str,
) -> ReserveDistribution:
    """Draw and assemble the years given as (accident, F, point reserve,
    scale, exclusion reason or None); anchor "CL" selects the ratio
    transform and its mean suppression, "BF" the linear one."""
    ratio = anchor == "CL"
    root = RngStream(seed)
    draws = [
        _Draw(i, root.derive(_ROW_DOMAIN, i).generator(), c_hat * F, c_hat * (1.0 - F), scale)
        for i, F, _, scale, reason in rows
        if F < _FULLY_DEVELOPED and reason is None
    ]
    block = np.empty((len(draws), B))
    _draw_years(block, draws, ratio)
    drawn = iter(block)
    years: list[YearPredictive] = []
    for i, F, point, _, reason in rows:
        cf = c_hat * F
        if F >= _FULLY_DEVELOPED:
            years.append(YearPredictive(i, F, cf, point_reserve=0.0, draws=np.zeros(B)))
        elif reason is not None:
            years.append(
                YearPredictive(
                    i, F, cf, point_reserve=point, draws=None, excluded=True,
                    exclusion_reason=reason,
                )
            )
        else:
            years.append(
                YearPredictive(
                    i, F, cf, point_reserve=point, draws=next(drawn),
                    mean_suppressed=ratio and cf <= _SUPPRESS_AT_OR_BELOW,
                )
            )
    return _assemble(years, B, anchor=anchor)


def multinomial_bootstrap(
    diag: DiagonalSummary,
    pattern: DevelopmentPattern,
    c_hat: float,
    B: int,
    seed: int,
    inclusion_threshold: float = DEFAULT_INCLUSION_THRESHOLD,
) -> ReserveDistribution:
    """Chain-ladder-anchored predictive bootstrap.

    Per included accident year, draw W* ~ Beta(c F, c (1 - F)) and set
    the outstanding amount to observed * (1 - W*) / W*. Fully developed
    years contribute an exact zero. Years with c * F below
    inclusion_threshold are excluded (reported with their deterministic
    point reserve); years with c * F at or below 2 keep their draws but
    have means suppressed, since the ratio's mean is unstable there.

    Draw streams are keyed (seed, accident year), so excluding a year
    never shifts any other year's draws.
    """
    _validate_bootstrap_args(c_hat, B)
    obs = np.asarray(diag.observed, dtype=float)
    if not np.all(np.isfinite(obs)) or np.any(obs < 0.0):
        raise PredictiveError("observed row totals must be finite and non-negative")
    rows = []
    for idx, (x_obs, dev) in enumerate(zip(obs, diag.dev_lag)):
        F = pattern.F_at_lag(dev)
        cf = c_hat * F
        point = x_obs * (1.0 - F) / F
        reason = None
        if F < _FULLY_DEVELOPED and cf < inclusion_threshold:
            reason = f"c*F = {cf:.3g} below inclusion threshold {inclusion_threshold:g}"
        rows.append((idx + 1, F, point, x_obs, reason))
    return _anchored_bootstrap(rows, c_hat, B, seed, anchor="CL")


def bf_bootstrap(
    exposures: np.ndarray,
    q_bf: float,
    pattern: DevelopmentPattern,
    c_hat: float,
    B: int,
    seed: int,
) -> ReserveDistribution:
    """Bornhuetter-Ferguson-anchored predictive bootstrap.

    The outstanding draw is exposure * q * (1 - W*): no ratio of draws
    appears, so every year with F < 1 participates and no mean
    suppression is needed.
    """
    _validate_bootstrap_args(c_hat, B)
    E = np.asarray(exposures, dtype=float)
    if E.ndim != 1 or E.size < 1:
        raise PredictiveError("exposures must be a non-empty vector")
    if not np.all(np.isfinite(E)) or np.any(E <= 0.0):
        raise PredictiveError("exposures must be finite and positive")
    if not np.isfinite(q_bf) or q_bf <= 0.0:
        raise PredictiveError(f"prior loss ratio must be positive, got {q_bf}")
    I = E.size
    rows = []
    for idx in range(I):
        F = pattern.F_at_lag(I - idx - 1)
        prior = E[idx] * q_bf
        rows.append((idx + 1, F, prior * (1.0 - F), prior, None))
    return _anchored_bootstrap(rows, c_hat, B, seed, anchor="BF")


def delta_method_variance(X_obs: float, F: float, c: float) -> float:
    """First-order reserve variance (X_obs)^2 (1 - F) / (F^3 (c + 1)),
    the recommended shortcut once concentration estimates are large."""
    if not 0.0 < F < 1.0:
        raise PredictiveError(f"F must lie in (0, 1), got {F}")
    if c <= 0.0:
        raise PredictiveError(f"c must be positive, got {c}")
    return X_obs * X_obs * (1.0 - F) / (F**3 * (c + 1.0))


class IbnpMoments(NamedTuple):
    mean: float | None
    cv2: float
    cv2_large_c: float


def ibnp_exact_moments(X_obs: float, F: float, c: float) -> IbnpMoments:
    """Exact predictive mean and squared coefficient of variation.

    The mean X_obs (1 - F) / (F - 1/c) exists only for c F > 1 and is
    returned as None otherwise. cv2_large_c = 1 / (c (1 - F)) is the
    large-c simplification reported alongside.
    """
    if not 0.0 < F < 1.0:
        raise PredictiveError(f"F must lie in (0, 1), got {F}")
    if c <= 0.0:
        raise PredictiveError(f"c must be positive, got {c}")
    cf = c * F
    mean = X_obs * (1.0 - F) / (F - 1.0 / c) if cf > 1.0 else None
    cv2 = (cf + 1.0) / (cf * (1.0 - F) * (c + 2.0))
    return IbnpMoments(mean=mean, cv2=cv2, cv2_large_c=1.0 / (c * (1.0 - F)))


@dataclass(frozen=True)
class CountPredictive:
    """Negative Binomial predictive law for an accident year's unreported
    claim count; p = 1 marks the fully reported degenerate case."""

    r: float
    p: float
    mean: float
    variance: float
    kappa_used: float

    def sample(self, rng: RngStream | np.random.Generator, n: int | None = None):
        return sample_negbin(self.r, self.p, rng, n=n)


def negbin_ibnr(
    N_obs: int,
    F: float,
    kappa: float,
    mu: float | None = None,
) -> CountPredictive:
    """Predictive claim-count distribution NegBin(N_obs + kappa, p) with
    p = (kappa + mu F) / (kappa + mu); kappa = inf gives the frailty-free
    limit NegBin(N_obs, F), whose mean is the chain-ladder count estimate."""
    if N_obs < 0 or N_obs != int(N_obs):
        raise PredictiveError(f"observed count must be a non-negative integer, got {N_obs}")
    if not 0.0 < F <= 1.0:
        raise PredictiveError(f"F must lie in (0, 1], got {F}")
    if kappa <= 0.0:
        raise PredictiveError(f"frailty must be positive (or inf), got {kappa}")
    if np.isinf(kappa):
        r, p = float(N_obs), float(F)
    else:
        if mu is None or mu <= 0.0:
            raise PredictiveError("finite frailty needs a positive expected ultimate count")
        r = float(N_obs) + kappa
        p = (kappa + mu * F) / (kappa + mu)
    if p >= 1.0 or r == 0.0:
        mean, variance = 0.0, 0.0
        p = min(p, 1.0)
    else:
        mean = r * (1.0 - p) / p
        variance = r * (1.0 - p) / (p * p)
    return CountPredictive(r=r, p=p, mean=mean, variance=variance, kappa_used=kappa)
