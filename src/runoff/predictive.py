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
from itertools import repeat
from threading import Condition
from typing import NamedTuple

import numpy as np

from .distributions import _derive_ids, _stream_generators, _words64, beta_prime_moments
from .patterns import DevelopmentPattern
from .triangle import DiagonalSummary, RunoffError, _latest_lags

_ROW_DOMAIN = 1  # stream tag for per-accident-year draws
_SUPPRESS_AT_OR_BELOW = 2.0  # c*F at or below this keeps draws but hides the mean
_W_FLOOR = 1e-15
_FULLY_DEVELOPED = 1.0 - 1e-12
_CHUNK = 1 << 15  # Beta variates drawn per generator call
_PARALLEL_MIN_B = 50_000  # from this B on, accident years are drawn on a thread pool

DEFAULT_INCLUSION_THRESHOLD = 5.0


class PredictiveError(RunoffError):
    """The predictive distribution cannot be formed from the given input."""


@dataclass(frozen=True)
class YearPredictive:
    """One accident year's slice of a reserve distribution.

    draws is None exactly when the year was excluded by the inclusion
    rule; the deterministic point reserve is reported either way so
    totals stay interpretable. A bootstrap run with keep_draws False
    keeps no draws: every other year's draws, a fully developed year's
    included, is then a zero-length read-only array. summary is
    _summarise's dict or fault message (a per-year report raises the
    message as a PredictiveError), or None (excluded).
    """

    accident: int
    F: float
    c_times_F: float
    point_reserve: float
    draws: np.ndarray | None
    excluded: bool = False
    exclusion_reason: str | None = None
    mean_suppressed: bool = False
    summary: dict[str, float | None] | str | None = None


@dataclass(frozen=True)
class ReserveDistribution:
    """Bootstrap draws of outstanding amounts, per year and in total.

    total[b] is the sum of draws[b] over included years, whether or not
    the draws were kept. The summary
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
_NON_FINITE_DRAWS = "quantiles of non-finite draws are undefined"
_QUANTILE_OVERFLOW = "a quantile of the bootstrap draws overflows the float range"
_MOMENTS_OVERFLOW = "the mean or standard error of the bootstrap draws overflows the float range"
_TOTAL_OVERFLOW = "the total of the bootstrap draws overflows the float range"
_ALL_EXCLUDED = "every open accident year is excluded by the inclusion rule"
_BAD_OBSERVED = "observed row totals must be finite and non-negative"


def _quantiles(x: np.ndarray, probs: np.ndarray,
               in_place: bool = False) -> tuple[np.ndarray, list[str | None]]:
    """Quantiles of x at probs by Hyndman & Fan's method 7, the same bits
    np.quantile(x, probs) returns (numpy's "linear" method), and one fault
    per row, None or a message; nothing is raised. x may be a (..., B)
    block: each row along the last axis gives its own quantiles, shaped
    (..., len(probs)), with the bits the row alone would give, and its own
    fault, listed in C order (one for a vector).

    A sorted copy replaces numpy's multi-kth partition, which is about
    three times slower on 1e6 draws, so x keeps its order, on which mean,
    std and the draw dump depend; with in_place x itself is sorted. The
    index and interpolation arithmetic is that of numpy's _get_indexes and
    _lerp. The one difference: +0.0 and -0.0 tie, and the sort and the
    partition may break that tie apart, so a zero quantile of a vector
    holding both may differ in sign. A row's fault is _NON_FINITE_DRAWS if
    it holds a NaN or inf (np.quantile would give NaN), else
    _QUANTILE_OVERFLOW if a quantile overflows, from finite extremes of
    opposite sign near the float limit (np.quantile would give inf). The
    quantiles of a row at fault hold anything.
    """
    s = x if in_place else x.copy()
    s.sort(axis=-1)
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
    # Non-finite input and overflow are the rows' faults, not numpy warnings.
    with np.errstate(over="ignore", invalid="ignore"):
        d = b - a
        out = a + d * g
        np.subtract(b, d * (1 - g), out=out, where=g >= 0.5)
    # NaN and inf sort to the ends.
    finite = np.ravel(np.isfinite(s[..., 0]) & np.isfinite(s[..., -1])).tolist()
    fits = np.ravel(np.isfinite(out).all(axis=-1)).tolist()
    return out, [_NON_FINITE_DRAWS if not ok else None if fit else _QUANTILE_OVERFLOW
                 for ok, fit in zip(finite, fits)]


def _fold(total: np.ndarray, rows) -> None:
    """Add each row of rows into total, in the order given: the one fold of a
    year's draws into its bootstrap total. Overflow is reported by
    _check_totals, not by a numpy warning."""
    with np.errstate(over="ignore", invalid="ignore"):
        for row in rows:
            total += row


def _check_totals(totals: np.ndarray, faults: list[str | None], suppressed=None):
    """Checks 5 and 6 of the fault ladder on folded (n, B) totals: a row
    still without a fault in faults (one entry per row, set in place,
    never raised) gets _TOTAL_OVERFLOW if its total is not finite, else
    _MOMENTS_OVERFLOW if its mean or se is not, unless suppressed[row] (a
    drawn year's mean is suppressed). Returns each row's mean and se
    (_row_moments; se None at B = 1), meaningless for a failed row. A
    finite mean needs every value finite, so a row's values are read again
    only when its mean is not finite.
    """
    mean, se = _row_moments(totals, np.empty(len(totals) * min(totals.shape[1], _WORK)))
    mean_ok = np.isfinite(mean)
    moments_ok = mean_ok if se is None else mean_ok & np.isfinite(se)
    for k, fault in enumerate(faults):
        if fault is None and not (mean_ok[k] or np.isfinite(totals[k]).all()):
            faults[k] = _TOTAL_OVERFLOW
        elif fault is None and not (moments_ok[k] or (suppressed is not None and suppressed[k])):
            faults[k] = _MOMENTS_OVERFLOW
    return mean, se


_WORK = 1 << 14  # floats per row of squared deviations a summary holds at once


def _squares(x: np.ndarray, mean, work: np.ndarray) -> np.ndarray:
    """(x - mean) * (x - mean), shaped like x in the first x.size floats
    of work."""
    w = work[: x.size].reshape(x.shape)
    np.subtract(x, mean, out=w)
    return np.multiply(w, w, out=w)


def _squares_sum(x: np.ndarray, mean, work: np.ndarray):
    """_squares(x, mean) summed along its last axis by np.add.reduce, bit
    for bit, x a row or an (n, B) block and mean a scalar or (n, 1), with
    the squared deviations taken into work one node of numpy's pairwise
    summation tree at a time. A node that fits in work is one
    np.add.reduce, which builds the same tree; one that does not adds its
    halves, split at B // 2 rounded down to a multiple of 8. work holds at
    least min(B, 128) floats per row, so a split node holds more than 128
    values, as numpy's do."""
    if x.size <= work.size:
        return np.add.reduce(_squares(x, mean, work), axis=-1)
    half = x.shape[-1] // 2 - x.shape[-1] // 2 % 8
    return _squares_sum(x[..., :half], mean, work) + _squares_sum(x[..., half:], mean, work)


def _row_moments(x: np.ndarray, work: np.ndarray):
    """The mean and se (None for one value) along the last axis of x, a row
    or an (n, B) block: the bits of ndarray.mean and std(ddof=1) on that
    axis, numpy's _mean and _var step by step but with the squared
    deviations in work (_squares_sum). An overflow gives a non-finite
    value, not a warning."""
    size = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        mean = np.add.reduce(x, axis=-1) / size
        if size == 1:
            return mean, None
        return mean, np.sqrt(_squares_sum(x, mean[..., None], work) / (size - 1))


def _summarise(draws: np.ndarray, mean_suppressed: bool, moments=None,
               in_place: bool = False) -> dict[str, float | None] | str:
    """Mean, se and quantiles of draws, or the message of the first fault,
    which is returned, not raised: _quantiles' fault, then _MOMENTS_OVERFLOW
    for a mean or se that overflows the float range. A suppressed mean (at
    c*F <= 2, where the ratio has no variance) withholds se too, and neither
    is checked. moments, draws' (mean, se) as _row_moments gives them,
    spares computing them again. With in_place the draws are sorted in place
    for the quantiles, after their moments are taken; without, a sorted copy
    is. The bits are those of np.quantile, ndarray.mean and std(ddof=1)."""
    if not mean_suppressed and moments is None:
        moments = _row_moments(draws, np.empty(min(draws.size, _WORK)))
    (q5, q25, q50, q75, q95), (fault,) = _quantiles(draws, _SUMMARY_PROBS, in_place)
    if fault is not None:
        return fault
    mean = se = None
    if not mean_suppressed:
        mean, se = moments
        if not (np.isfinite(mean) and (se is None or np.isfinite(se))):
            return _MOMENTS_OVERFLOW
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


def _b_fault(B, rows: int = 1) -> str | None:
    """The message of a B that is not a positive integer, NaN and inf
    included, or whose (rows, B) float64 array numpy cannot describe, or None."""
    if not (B >= 1 and B != np.inf and int(B) == B):  # NaN fails the first test
        return f"B must be a positive integer, got {B}"
    if max(rows, 1) * int(B) * 8 > np.iinfo(np.intp).max:  # B alone sizes a vector
        return f"B = {int(B)} is too large: a ({rows}, B) array of floats exceeds numpy's limit"
    return None


def _args_fault(c_hat: float, B) -> str | None:
    """Check 1 of the fault ladder: the message of a concentration, then
    of a B, that cannot be used, or None."""
    if not np.isfinite(c_hat) or c_hat <= 0.0:
        return f"concentration must be positive and finite, got {c_hat}"
    return _b_fault(B)


def _threshold_fault(threshold: float) -> str | None:
    """The inclusion-threshold rule: the message of a threshold that is
    not finite and non-negative, or None."""
    if not np.isfinite(threshold):
        return f"inclusion_threshold must be finite, got {threshold}"
    return "inclusion_threshold cannot be negative" if threshold < 0.0 else None


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _draw_years(totals: np.ndarray, rows: list[int], draws: list[tuple], ratio: bool,
                suppressed=None, block: np.ndarray | None = None) -> list:
    """Draw each draws[k], an (accident year, generator, a, b, scale) tuple
    with W ~ Beta(a, b), and fold it into totals[rows[k]] (_fold, the one
    fold odp_bootstrap and the ODP studies use too); return per draw a
    (fault, summary) pair, fault None or the PredictiveError message of a
    draw that overflows.

    With ratio a draw is scale * (1 - W) / W, W floored at 1e-15 (CL);
    without it, scale * (1 - W) (BF). Each draw is made in chunks of
    _CHUNK variates, which consume the year's stream exactly as one
    beta(size=B) call does, so a row depends neither on the chunk size nor
    on the thread that fills it. From B = _PARALLEL_MIN_B on, the draws
    are spread over a thread pool: numpy releases the GIL inside the draws
    and ufuncs, and a worker touches only numpy and its own row. A row
    that overflows the float range is named, never passed on as a silent
    inf or NaN, and is not folded: its total is at fault too.

    The rows are folded in the order of draws, so each total adds its
    years in one order, on the pool or off it, and keeps every bit: a row
    is folded as soon as it is drawn and every earlier row is folded, so on
    the pool a worker whose row is done first waits for its turn.
    Each worker (off the pool, the calling thread) takes the next draw from
    one shared iterator into its own row, allocated by the calling thread so
    that no worker's allocator arena keeps B floats, with block copied into
    block[k] right after it (a row at fault left part drawn). With
    suppressed (each draw's mean-suppression flag) the worker summarises
    its row after the fold, sorting it in place: summary is _summarise's
    dict or fault message, else None. The totals are checked by the caller
    (_check_totals), once all rows are folded.
    """
    B = totals.shape[1]
    scale_name = "observed total" if ratio else "prior ultimate"
    workers = min(_usable_cores() if B >= _PARALLEL_MIN_B else 1, len(draws))
    turn, folded = Condition(), 0
    todo = iter(range(len(draws)))  # shared by the workers: a C iterator's next holds the GIL
    out: list = [None] * len(draws)

    def fold_in_turn(k: int, drawn: tuple) -> None:
        nonlocal folded
        with turn:
            turn.wait_for(lambda: folded == k)
            _fold(totals[rows[k]], drawn)
            folded += 1
            turn.notify_all()

    def draw(k: int, row: np.ndarray) -> str | None:
        accident, generator, a, b, scale = draws[k]
        for start in range(0, B, _CHUNK):
            seg = row[start : start + _CHUNK]
            w = generator.beta(a, b, size=seg.size)
            if ratio:
                np.maximum(w, _W_FLOOR, out=w)
            np.subtract(1.0, w, out=seg)
            np.multiply(scale, seg, out=seg)
            if ratio:
                np.divide(seg, w, out=seg)
            if not np.isfinite(seg).all():
                return (f"accident year {accident}: bootstrap draws overflow the "
                        f"float range ({scale_name} {scale:.6g})")
        return None

    def work(row: np.ndarray) -> None:
        # Overflow is reported by draw's check, not by a numpy warning.
        with np.errstate(over="ignore", invalid="ignore"):
            for k in todo:
                drawn = ()  # the rows to fold: the row, once drawn without fault
                try:
                    fault = draw(k, row)
                    if block is not None:
                        block[k] = row
                    drawn = () if fault else (row,)
                finally:  # every row takes its turn, or a later one would wait for ever
                    fold_in_turn(k, drawn)
                out[k] = (fault, None if fault is not None or suppressed is None
                          else _summarise(row, suppressed[k], in_place=True))

    worker_rows = [np.empty(B) for _ in range(workers)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(work, worker_rows))
    else:
        list(map(work, worker_rows))
    return out


def _year_rules(c_hat, F: np.ndarray, inclusion_threshold: float, ratio: bool):
    """The year rules at concentrations c_hat (a float or an (n,) vector)
    and cumulative proportions F (I,), each (I,) or (n, I): c*F; the years
    excluded, where c*F lies below inclusion_threshold (a fully developed
    year never is); the years drawn, those neither excluded nor fully
    developed; and, with ratio (the CL anchor), the drawn years whose mean
    is suppressed, where c*F <= 2 and the ratio's mean is unstable."""
    cf = np.multiply.outer(c_hat, F)
    open_ = F < _FULLY_DEVELOPED
    excluded = open_ & (cf < inclusion_threshold)
    drawn = open_ & ~excluded
    return cf, excluded, drawn, drawn & (cf <= _SUPPRESS_AT_OR_BELOW) & ratio


def _anchored_draws(scales: np.ndarray, F: np.ndarray, c_hat: np.ndarray, seeds: np.ndarray,
                    B: int, inclusion_threshold: float, ratio: bool, summaries=None,
                    keep: bool = True):
    """The one draw kernel of the Beta bootstraps, over n rows at once;
    multinomial_bootstrap and bf_bootstrap are its n = 1 case.

    scales (n, I) holds each row's observed totals with ratio (the CL
    anchor) or its prior ultimates without (BF), F (I,) the cumulative
    proportion at each accident year's lag, c_hat (n,) and seeds (n,)
    each row's concentration and seed (uint64). Row k's accident year i
    draws from RngStream(seeds[k]).derive(_ROW_DOMAIN, i), so excluding a
    year never shifts another's draws. All streams open in one
    _stream_generators call and all rows' years are drawn in one
    _draw_years call, so a lone row's years share its thread pool, and
    each drawn year is folded into its row's total (_fold), in year order,
    as soon as it is drawn; the folded totals are checked in one
    _check_totals call, as the ODP bootstrap's are.

    Per row the checks run in order: concentration and B; observed totals
    (CL only); every open year excluded; each drawn year's overflow, in
    year order; the total and its moments (_check_totals). Returns the
    (n, B) totals, per row None or the first fault's PredictiveError
    message (a failed row's total holds anything), the block of draws, a
    row per drawn (row, year) year by year, or None without keep, and the
    totals' mean and se. A summaries list receives each drawn year's
    summary, in the block's order.
    """
    n, I = scales.shape
    b_fault = _b_fault(B, n * I)  # no array here has more than n * I rows of B draws
    faults = [_args_fault(c, B) or b_fault for c in c_hat.tolist()]
    if b_fault is not None:  # every row is at fault, and B sizes nothing
        return np.empty((n, 0)), faults, np.empty((0, 0)), (None, None)
    _, excluded, drawn, suppressed = _year_rules(c_hat, F, inclusion_threshold, ratio)
    scales_ok = np.isfinite(scales).all(axis=1) & (scales >= 0.0).all(axis=1)
    for k in range(n):
        if faults[k] is None and ratio and not scales_ok[k]:
            faults[k] = _BAD_OBSERVED
        elif faults[k] is None and excluded[k].any() and not drawn[k].any():
            faults[k] = _ALL_EXCLUDED
    live = np.array([f is None for f in faults], dtype=bool)
    years, rows = np.nonzero((drawn & live[:, None]).T)  # year by year
    year_ids = _derive_ids(0, _ROW_DOMAIN, np.arange(1, I + 1))
    a, b = c_hat[rows] * F[years], c_hat[rows] * (1.0 - F[years])
    draws = list(zip((years + 1).tolist(), _stream_generators(seeds[rows], year_ids[years]),
                     a.tolist(), b.tolist(), scales[rows, years].tolist()))
    totals = np.zeros((n, int(B)))
    block = np.empty((rows.size, int(B))) if keep else None
    drawn = _draw_years(totals, rows.tolist(), draws, ratio,
                        None if summaries is None else suppressed[rows, years], block)
    for k, (fault, _) in zip(rows.tolist(), drawn):
        if fault is not None and faults[k] is None:  # its first year at fault
            faults[k] = fault
    if summaries is not None:
        summaries.extend(summary for _, summary in drawn)
    moments = _check_totals(totals, faults, suppressed.any(axis=1))
    return totals, faults, block, moments


def _year_view(scales: np.ndarray, F: np.ndarray, points: np.ndarray, c_hat: float, B: int,
               seed: int, inclusion_threshold: float, anchor: str,
               keep_draws: bool) -> ReserveDistribution:
    """_anchored_draws at n = 1 through the per-year view: one row of scales
    with point reserves points, anchor "CL" (ratio) or "BF"; a fault raises.
    Without keep_draws no year's draws are kept."""
    ratio = anchor == "CL"
    summaries: list = []
    totals, faults, block, moments = _anchored_draws(
        scales[None], F, np.array([c_hat], dtype=float),
        _words64(seed), B, inclusion_threshold, ratio, summaries, keep_draws)
    if faults[0] is not None:
        raise PredictiveError(faults[0])
    rules = _year_rules(c_hat, F, inclusion_threshold, ratio)
    return _distribution(totals[0], moments, F, points, rules, block, summaries, anchor,
                         inclusion_threshold)


_NO_DRAWS = np.empty(0)  # the draws of a year that kept none
_NO_DRAWS.flags.writeable = False


def _distribution(total, moments, F, points, rules, block, summaries, anchor: str,
                  inclusion_threshold: float = -np.inf, meta=None) -> ReserveDistribution:
    """The one per-year view: each year's YearPredictive, the flags and the
    ReserveDistribution. rules is _year_rules' (c*F, excluded, drawn,
    suppressed); block and summaries (_summarise's, one per drawn year) are
    the drawn years'. With block None no year keeps its draws: each that is
    not excluded gets _NO_DRAWS. A year keeps its summary's fault message;
    the total's is raised, before any fully developed year gets its zero
    row, whose summary is that of min(B, 2) zeros."""
    cf, excluded, drawn, suppressed = rules
    (mean,), se = moments
    summary = _summarise(total, bool(suppressed.any()), (mean, se if se is None else se[0]))
    if isinstance(summary, str):
        raise PredictiveError(summary)
    drawn_years = zip(repeat(_NO_DRAWS) if block is None else block, summaries)
    years, flags = [], {}
    for i, (f, c_f, point) in enumerate(zip(F.tolist(), cf.tolist(), points.tolist())):
        row = reason = year_summary = None
        if excluded[i]:
            reason = f"c*F = {c_f:.3g} below inclusion threshold {inclusion_threshold:g}"
            flags[i + 1] = (f"excluded: {reason}",)
        elif drawn[i]:
            row, year_summary = next(drawn_years)
            if suppressed[i]:
                flags[i + 1] = (f"mean-suppressed: c*F = {c_f:.3g} <= {_SUPPRESS_AT_OR_BELOW}",)
        else:  # fully developed: exact zeros
            row, point = _NO_DRAWS if block is None else np.zeros(total.size), 0.0
            year_summary = _summarise(np.zeros(min(total.size, 2)), False)
        years.append(YearPredictive(i + 1, f, c_f, point, row, bool(excluded[i]), reason,
                                    bool(suppressed[i]), year_summary))
    return ReserveDistribution(tuple(years), total, summary, flags, anchor, meta)


def multinomial_bootstrap(
    diag: DiagonalSummary,
    pattern: DevelopmentPattern,
    c_hat: float,
    B: int,
    seed: int,
    inclusion_threshold: float = DEFAULT_INCLUSION_THRESHOLD,
    keep_draws: bool = True,
) -> ReserveDistribution:
    """Chain-ladder-anchored predictive bootstrap.

    Per included accident year, draw W* ~ Beta(c F, c (1 - F)) and set
    the outstanding amount to observed * (1 - W*) / W*. Fully developed
    years contribute an exact zero. Years with c * F below
    inclusion_threshold are excluded (reported with their deterministic
    point reserve); years with c * F at or below 2 keep their draws but
    have means suppressed, since the ratio's mean is unstable there.

    Draw streams are keyed (seed, accident year), so excluding a year
    never shifts any other year's draws. Each year is folded into the
    total as soon as it is drawn and summarised; with keep_draws False its
    draws are not kept, and every year that is not excluded carries a
    zero-length draws array, which saves B floats per year and changes no
    other bit of the result.
    """
    fault = _args_fault(c_hat, B) or _threshold_fault(inclusion_threshold)
    if fault is not None:
        raise PredictiveError(fault)
    obs = np.asarray(diag.observed, dtype=float)
    # The lags are the caller's input, not the triangle's shape: F_at_lag checks each.
    F = np.array([pattern.F_at_lag(dev) for dev in diag.dev_lag])
    # The kernel names bad totals and a year that overflows; inf * 0 points are unread.
    with np.errstate(over="ignore", invalid="ignore"):
        points = obs * (1.0 - F) / F
    return _year_view(obs, F, points, c_hat, B, seed, inclusion_threshold, "CL", keep_draws)


def bf_bootstrap(
    exposures: np.ndarray,
    q_bf: float,
    pattern: DevelopmentPattern,
    c_hat: float,
    B: int,
    seed: int,
    keep_draws: bool = True,
) -> ReserveDistribution:
    """Bornhuetter-Ferguson-anchored predictive bootstrap.

    The outstanding draw is exposure * q * (1 - W*): no ratio of draws
    appears, so every year with F < 1 participates and no mean
    suppression is needed. keep_draws is multinomial_bootstrap's.
    """
    fault = _args_fault(c_hat, B)
    if fault is not None:
        raise PredictiveError(fault)
    E = np.asarray(exposures, dtype=float)
    if E.ndim != 1 or E.size < 1:
        raise PredictiveError("exposures must be a non-empty vector")
    if not np.all(np.isfinite(E)) or np.any(E <= 0.0):
        raise PredictiveError("exposures must be finite and positive")
    if not np.isfinite(q_bf) or q_bf <= 0.0:
        raise PredictiveError(f"prior loss ratio must be positive, got {q_bf}")
    F = pattern.F[_latest_lags(E.size, pattern.J)]
    # The kernel names a year that overflows; an inf prior's point at F = 1 is unread.
    with np.errstate(over="ignore", invalid="ignore"):
        prior = E * q_bf
        points = prior * (1.0 - F)
    return _year_view(prior, F, points, c_hat, B, seed, -np.inf, "BF", keep_draws)


class IbnpMoments(NamedTuple):
    mean: float | None
    cv2: float
    cv2_large_c: float


def ibnp_exact_moments(X_obs: float, F: float, c: float) -> IbnpMoments:
    """Exact predictive mean and squared coefficient of variation.

    The mean is X_obs times the ratio law's mean (beta_prime_moments); it
    exists only for c F > 1 and is None otherwise. cv2_large_c =
    1 / (c (1 - F)) is the large-c simplification reported alongside.
    """
    if not 0.0 < F < 1.0:
        raise PredictiveError(f"F must lie in (0, 1), got {F}")
    if c <= 0.0:
        raise PredictiveError(f"c must be positive, got {c}")
    mean = beta_prime_moments(c, F).mean
    cf = c * F
    cv2 = (cf + 1.0) / (cf * (1.0 - F) * (c + 2.0))
    return IbnpMoments(mean=None if mean is None else X_obs * mean, cv2=cv2,
                       cv2_large_c=1.0 / (c * (1.0 - F)))


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
