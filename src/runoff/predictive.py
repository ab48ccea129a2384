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

from .distributions import RngStream
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


_SUMMARY_PROBS = np.array([0.05, 0.25, 0.50, 0.75, 0.95])  # == [5, 25, 50, 75, 95] / 100


def _quantiles(x: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Quantiles of x at probs by Hyndman & Fan's method 7, the same bits
    np.quantile(x, probs) returns (numpy's "linear" method). x may be a
    (..., B) block: each row along the last axis gives its own quantiles,
    shaped (..., len(probs)), with the bits the row alone would give.

    A sorted copy replaces numpy's multi-kth partition, which is about
    three times slower on 1e6 draws; x keeps its order, on which mean, std
    and the draw dump depend. The index and interpolation arithmetic is
    that of numpy's _get_indexes and _lerp. The one difference: +0.0 and
    -0.0 tie, and the sort and the partition may break that tie apart, so
    a zero quantile of a vector holding both may differ in sign. Non-finite
    input is an error, where np.quantile would return NaN, and so is a
    quantile that overflows (finite extremes of opposite sign near the
    float limit), where np.quantile would return inf.
    """
    s = np.sort(x, axis=-1)
    # NaN and inf sort to the ends.
    if not (np.isfinite(s[..., 0]).all() and np.isfinite(s[..., -1]).all()):
        raise PredictiveError("quantiles of non-finite draws are undefined")
    n = s.shape[-1]
    v = (n - 1) * probs
    lo = np.floor(v)
    hi = lo + 1
    top = v >= n - 1  # both neighbours become the maximum
    lo[top] = -1
    hi[top] = -1
    g = v - lo
    a = s[..., lo.astype(np.intp)]
    b = s[..., hi.astype(np.intp)]
    # Overflow is reported by the check below, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        d = b - a
        out = a + d * g
        np.subtract(b, d * (1 - g), out=out, where=g >= 0.5)
    if not np.isfinite(out).all():
        raise PredictiveError("a quantile of the bootstrap draws overflows the float range")
    return out


_MOMENTS_OVERFLOW = "the mean or standard error of the bootstrap draws overflows the float range"
_TOTAL_OVERFLOW = "the total of the bootstrap draws overflows the float range"
_ALL_EXCLUDED = "all accident years excluded by the inclusion rule"
_BAD_OBSERVED = "observed row totals must be finite and non-negative"


def _mean_se(draws: np.ndarray):
    """Mean and standard error along the last axis (se is None for a single
    draw), and whether both are finite."""
    # Overflow is reported by the callers' checks, not by a numpy warning.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = draws.mean(axis=-1)
        se = draws.std(axis=-1, ddof=1) if draws.shape[-1] > 1 else None
    finite = np.isfinite(mean)
    if se is not None:
        finite &= np.isfinite(se)
    return mean, se, finite


def _summarise(draws: np.ndarray, mean_suppressed: bool) -> dict[str, float | None]:
    """Mean, se and quantiles of draws. A suppressed mean withholds se too:
    the mean is suppressed at c*F <= 2, where the ratio has no variance.
    A mean or se that overflows the float range is an error."""
    q5, q25, q50, q75, q95 = _quantiles(draws, _SUMMARY_PROBS)
    mean = se = None
    if not mean_suppressed:
        mean, se, finite = _mean_se(draws)
        if not finite:
            raise PredictiveError(_MOMENTS_OVERFLOW)
        mean, se = float(mean), None if se is None else float(se)
    return {
        "mean": mean,
        "se": se,
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
        raise PredictiveError(_ALL_EXCLUDED)
    total = np.zeros(B)
    with np.errstate(over="ignore"):
        for y in included:
            total += y.draws
    if not np.isfinite(total).all():
        raise PredictiveError(_TOTAL_OVERFLOW)
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


def _draw_years(block: np.ndarray, draws: list[_Draw], ratio: bool) -> list[str | None]:
    """Fill block[k] with the outstanding-amount draws of draws[k]; return
    per row None, or the PredictiveError message of a row that overflows.

    With ratio the row is scale * (1 - W) / W, W floored at 1e-15 (CL);
    without it, scale * (1 - W) (BF). Each row is drawn in chunks of
    _CHUNK variates, which consume the year's stream exactly as one
    beta(size=B) call does, so a row depends neither on the chunk size nor
    on the thread that fills it. From B = _PARALLEL_MIN_B on, the years
    are spread over a thread pool: numpy releases the GIL inside the draws
    and ufuncs, and a worker touches only numpy and its own row. A row
    that overflows the float range is left part drawn and named, never
    passed on as a silent inf or NaN.
    """
    B = block.shape[1]
    scale_name = "observed total" if ratio else "prior ultimate"

    def fill(k: int) -> str | None:
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
                    return (f"accident year {d.accident}: bootstrap draws overflow the "
                            f"float range ({scale_name} {d.scale:.6g})")
        return None

    workers = min(_usable_cores(), len(draws)) if B >= _PARALLEL_MIN_B else 1
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fill, range(len(draws))))
    return list(map(fill, range(len(draws))))


def _cl_years(c_hat, F: np.ndarray, inclusion_threshold: float):
    """The CL anchor's year rules at concentrations c_hat (a float or an
    (M,) vector) and cumulative proportions F (I,), each (I,) or (M, I):
    c*F; the years excluded, where c*F lies below inclusion_threshold (a
    fully developed year never is); the years drawn, those neither
    excluded nor fully developed; and the drawn years whose mean is
    suppressed, where c*F <= 2 and the ratio's mean is unstable."""
    cf = np.multiply.outer(c_hat, F)
    open_ = F < _FULLY_DEVELOPED
    excluded = open_ & (cf < inclusion_threshold)
    drawn = open_ & ~excluded
    return cf, excluded, drawn, drawn & (cf <= _SUPPRESS_AT_OR_BELOW)


def _anchored_bootstrap(
    rows: list[tuple[int, float, float, float, str | None, bool]],
    c_hat: float,
    B: int,
    seed: int,
    anchor: str,
) -> ReserveDistribution:
    """Draw and assemble the years given as (accident, F, point reserve,
    scale, exclusion reason or None, mean suppressed); anchor "CL" selects
    the ratio transform, "BF" the linear one."""
    ratio = anchor == "CL"
    root = RngStream(seed)
    draws = [
        _Draw(i, root.derive(_ROW_DOMAIN, i).generator(), c_hat * F, c_hat * (1.0 - F), scale)
        for i, F, _, scale, reason, _ in rows
        if F < _FULLY_DEVELOPED and reason is None
    ]
    block = np.empty((len(draws), B))
    fault = next((f for f in _draw_years(block, draws, ratio) if f is not None), None)
    if fault is not None:
        raise PredictiveError(fault)
    drawn = iter(block)
    years: list[YearPredictive] = []
    for i, F, point, _, reason, suppressed in rows:
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
                    mean_suppressed=suppressed,
                )
            )
    return _assemble(years, B, anchor=anchor)


def _cl_totals(
    obs: np.ndarray,
    F: np.ndarray,
    c_hat: np.ndarray,
    B: int,
    seeds: list[int],
    inclusion_threshold: float,
) -> tuple[np.ndarray, list[str | None]]:
    """The totals multinomial_bootstrap draws for n diagonals at once.

    obs (n, I) holds each diagonal's row totals, F (I,) the cumulative
    proportion at each row's lag, c_hat (n,) and seeds (n,) each
    diagonal's concentration and seed. Year by year, the draws of every
    diagonal that draws the year come from the streams
    multinomial_bootstrap keys by (seed, accident year), through
    _draw_years, and fold into an (n, B) block of totals, so each total
    adds its years in year order. Returns the totals and, per diagonal,
    None or the message of the PredictiveError multinomial_bootstrap would
    raise, found in the order it checks; a failed diagonal's total holds
    anything.
    """
    n, I = obs.shape
    faults: list[str | None] = [None] * n
    obs_ok = np.isfinite(obs).all(axis=1) & (obs >= 0.0).all(axis=1)
    _, excluded, drawn, suppressed = _cl_years(c_hat, F, inclusion_threshold)
    c = c_hat.tolist()
    for k in range(n):
        try:
            _validate_bootstrap_args(c[k], B)
        except PredictiveError as exc:
            faults[k] = str(exc)
            continue
        if not obs_ok[k]:
            faults[k] = _BAD_OBSERVED
        elif excluded[k].all():
            faults[k] = _ALL_EXCLUDED
    live = [k for k in range(n) if faults[k] is None]
    roots = {k: RngStream(seeds[k]) for k in live}
    Fs = F.tolist()
    x = obs.tolist()
    totals = np.zeros((n, B))
    for i in range(I):
        rows = [k for k in live if drawn[k, i]]
        if not rows:
            continue
        draws = [_Draw(i + 1, roots[k].derive(_ROW_DOMAIN, i + 1).generator(),
                       c[k] * Fs[i], c[k] * (1.0 - Fs[i]), x[k][i]) for k in rows]
        block = np.empty((len(rows), B))
        for k, fault in zip(rows, _draw_years(block, draws, ratio=True)):
            if fault is not None and faults[k] is None:  # its first year at fault
                faults[k] = fault
        # A failed diagonal's row may hold anything; its total is not used.
        with np.errstate(over="ignore", invalid="ignore"):
            totals[rows] += block
    finite = np.isfinite(totals).all(axis=1)
    _, _, moments_ok = _mean_se(totals)
    for k in live:
        if faults[k] is None:
            if not finite[k]:
                faults[k] = _TOTAL_OVERFLOW
            elif not (moments_ok[k] or suppressed[k].any()):
                faults[k] = _MOMENTS_OVERFLOW
    return totals, faults


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
        raise PredictiveError(_BAD_OBSERVED)
    F = [pattern.F_at_lag(dev) for dev in diag.dev_lag]
    cf, excluded, _, suppressed = _cl_years(c_hat, np.array(F), inclusion_threshold)
    rows = []
    for idx, x_obs in enumerate(obs):
        reason = None
        if excluded[idx]:
            reason = f"c*F = {cf[idx]:.3g} below inclusion threshold {inclusion_threshold:g}"
        point = x_obs * (1.0 - F[idx]) / F[idx]
        rows.append((idx + 1, F[idx], point, x_obs, reason, bool(suppressed[idx])))
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
        rows.append((idx + 1, F, prior * (1.0 - F), prior, None, False))
    return _anchored_bootstrap(rows, c_hat, B, seed, anchor="BF")


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
    claim count; p = 1 marks the fully reported degenerate case. numpy's
    Generator.negative_binomial(r, p) draws from it."""

    r: float
    p: float
    mean: float
    variance: float
    kappa_used: float


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
