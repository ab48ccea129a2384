"""Command-line surface: fit, bootstrap, simulate.

Every run writes a manifest (command, parameters, seed, version, input
digests, wall clock) next to its report so results can be reproduced
from the artifact alone. Report files themselves carry no timing
information; given the same inputs, flags and seed they are written
byte for byte identically, regardless of --threads. main builds the
argument parser once per process, on its first call, and then reuses it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import math
import os
import sys
import time
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import ConcentrationError, estimate_c
from .odp import OdpError
from .patterns import (
    PatternError,
    bf_ultimates,
    cape_cod_ultimates,
    chain_ladder_pattern,
    cl_ultimates,
    link_ratios,
)
from .predictive import (
    DEFAULT_INCLUSION_THRESHOLD,
    PredictiveError,
    ReserveDistribution,
    _summarise,
    bf_bootstrap,
    multinomial_bootstrap,
)
from .simlab import (
    SimConfig,
    SimulationError,
    SimulationReport,
    compare_odp,
    load_sim_config,
    nonstationarity_sweep,
    run_coverage_study,
    sensitivity_grid,
    tweedie_sweep,
    verify_conservatism,
    verify_sigma_c,
)
from .triangle import (
    _BUNDLED,
    Triangle,
    TriangleError,
    _bundled_file,
    latest_diagonal,
    load_exposures,
    load_triangle,
)


class ReportError(ValueError):
    """A value bound for a report or manifest is not a finite number."""


_ERRORS = (
    ReportError,
    TriangleError,
    PatternError,
    ConcentrationError,
    PredictiveError,
    OdpError,
    SimulationError,
    OSError,
)


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _resolve_triangle_source(name: str) -> Path:
    """A real path wins; otherwise fall back to a bundled dataset name."""
    p = Path(name)
    if p.exists():
        return p
    packaged = _bundled_file(name)
    if packaged is not None:
        return Path(str(packaged))
    raise TriangleError(
        f"no such file {name!r} and no bundled triangle of that name "
        f"(bundled: {sorted(_BUNDLED)})"
    )


def _load_triangle_args(args) -> tuple[Triangle, dict[str, str]]:
    path = _resolve_triangle_source(args.triangle)
    digests = {str(path): _sha256(path)}
    exposures = None
    if getattr(args, "exposures", None):
        epath = Path(args.exposures)
        exposures = load_exposures(epath)
        digests[str(epath)] = _sha256(epath)
    t = load_triangle(path, format=args.format, kind=args.kind, exposures=exposures)
    return t, digests


def _jsonable(v, where: str = "report"):
    """Recursively coerce report values into strict-JSON types; where
    names the value in the error a non-finite float raises."""
    if isinstance(v, dict):
        return {str(k): _jsonable(x, f"{where}.{k}") for k, x in v.items()}
    if isinstance(v, np.ndarray):
        v = v.tolist()
    if isinstance(v, (list, tuple)):
        return [_jsonable(x, f"{where}[{i}]") for i, x in enumerate(v)]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        if not np.isfinite(f):
            raise ReportError(f"{where} is not a finite number ({f})")
        return f
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def _json_text(v, where: str = "report", pad: str = "\n") -> str:
    """json.dumps(_jsonable(v), indent=2, allow_nan=False) in one pass, with
    the same ReportError and TypeError; pad is the line break and indent
    that v's closing bracket goes after."""
    if isinstance(v, (float, np.floating)):
        f = float(v)
        if not math.isfinite(f):
            raise ReportError(f"{where} is not a finite number ({f})")
        return float.__repr__(f)
    if isinstance(v, str):
        return _ascii(v)
    if v is None or isinstance(v, (bool, np.bool_)):
        return "null" if v is None else "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return int.__repr__(int(v))
    if isinstance(v, np.ndarray):
        return _json_text(v.tolist(), where, pad)
    inner = pad + "  "
    if isinstance(v, dict):
        # As in _jsonable, keys that str() makes equal keep the last value.
        texts = {str(k): _json_text(x, f"{where}.{k}", inner) for k, x in v.items()}
        items = [f"{_ascii(k)}: {x}" for k, x in texts.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json_text(x, f"{where}[{i}]", inner) for i, x in enumerate(v)]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write_json(path: Path, payload: dict) -> None:
    # Built in full before the file is opened: a rejected value leaves no file.
    path.write_text(_json_text(payload) + "\n")


def _parameters(args) -> dict:
    """Every parsed flag in parser order, bar the dispatch keys and the
    seed and output location, which the manifest keeps elsewhere or not
    at all."""
    skip = ("command", "func", "seed", "out_dir", "stem")
    return {k: v for k, v in vars(args).items() if k not in skip}


def _artifact(args, suffix: str) -> Path:
    """<out-dir>/<stem><suffix>, creating out-dir. The default stem is
    runoff_<study> for simulate and runoff_<command> otherwise."""
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir / f"{args.stem or 'runoff_' + getattr(args, 'study', args.command)}{suffix}"


def _write_manifest(args, started: float, parameters: dict, inputs: dict[str, str],
                    seed: int | None = None, seed_generated: bool = False) -> None:
    command = args.command + (f" --study {args.study}" if args.command == "simulate" else "")
    _write_json(_artifact(args, "_manifest.json"), {
        "command": command,
        "parameters": parameters,
        "seed": seed,
        "seed_generated": seed_generated,
        "version": __version__,
        "inputs": inputs,
        "wall_clock_s": time.perf_counter() - started,
    })


def _resolve_seed(seed: int | None) -> tuple[int, bool]:
    if seed is not None:
        return seed, False
    return int.from_bytes(os.urandom(4), "big"), True


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _float_list(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(x) for x in text.replace(",", " ").split())
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return vals


def _int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in _float_list(text))
    except OverflowError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _amount(v: float) -> str:
    """An amount as printed to stdout: one decimal below 1e15 in
    magnitude, seven significant digits from there up."""
    return f"{v:.1f}" if abs(v) < 1e15 else f"{v:.6e}"


# ---------------------------------------------------------------- fit


def _per_year_block(dist: ReserveDistribution) -> list[dict]:
    out = []
    for y in dist.per_year:
        entry = {
            "accident": y.accident,
            "F": y.F,
            "c_times_F": y.c_times_F,
            "point_reserve": y.point_reserve,
            "excluded": y.excluded,
            "exclusion_reason": y.exclusion_reason,
            "mean_suppressed": y.mean_suppressed,
        }
        if y.draws is None:
            entry.update({"mean": None, "se": None})
        else:
            entry.update(_summarise(y.draws, y.mean_suppressed))
        out.append(entry)
    return out


def cmd_fit(args) -> int:
    started = time.perf_counter()
    t, digests = _load_triangle_args(args)
    f = link_ratios(t)
    pattern = chain_ladder_pattern(t)
    report: dict = {
        "triangle": {"source": args.triangle, "I": t.I, "J": t.J, "kind": t.kind},
        "link_ratios": list(f),
        "pattern": {"pi": list(pattern.pi), "F": list(pattern.F), "method": pattern.method},
    }
    if pattern.floored_lags:
        report["pattern"]["floored_lags"] = list(pattern.floored_lags)
    try:
        est = estimate_c(t, divisor=args.divisor)
        report["concentration"] = {
            "c_hat": est.c_hat,
            "divisor": est.divisor,
            "diagnostic": est.diagnostic,
            "cells": [c._asdict() for c in est.cells],
            "dropped_cells": [d._asdict() for d in est.dropped_cells],
        }
    except ConcentrationError as exc:
        report["concentration"] = {"error": str(exc)}
    reserves: dict = {}
    wanted = [m.strip().lower() for m in args.reserves.split(",") if m.strip()]
    # An overflow here leaves inf, which bf_ultimates or the report writer
    # names as an error; numpy's warning would only precede it.
    with np.errstate(over="ignore"):
        for method in wanted:
            if method == "cl":
                est_r = cl_ultimates(t, pattern)
            elif method == "bf":
                if t.exposures is None or args.q_bf is None:
                    raise PatternError("bf reserves need --exposures and --q-bf")
                prior = np.asarray(t.exposures) * args.q_bf
                est_r = bf_ultimates(t, pattern, prior)
            elif method == "cc":
                est_r = cape_cod_ultimates(t, pattern)
            else:
                raise PatternError(f"unknown reserve method {method!r}; expected cl, bf or cc")
            block = {
                "per_year": list(est_r.reserves),
                "total": float(np.sum(est_r.reserves)),
                "ultimates": list(est_r.ultimates),
            }
            if est_r.prior_q is not None:
                block["prior_q"] = est_r.prior_q
            if est_r.floored_rows:
                block["floored_rows"] = list(est_r.floored_rows)
            reserves[method] = block
    report["reserves"] = reserves

    report_path = _artifact(args, ".json")
    _write_json(report_path, report)
    _write_manifest(args, started, _parameters(args), digests)

    conc = report["concentration"]
    if "error" in conc:
        print(f"concentration: failed ({conc['error']})")
    else:
        print(
            f"c_hat = {conc['c_hat']:.4f}  ({len(conc['cells'])} cells, "
            f"divisor {conc['divisor']}, diagnostic: {conc['diagnostic']})"
        )
    if pattern.floored_lags:
        print(f"pattern: lags {list(pattern.floored_lags)} floored and renormalised")
    for method, block in reserves.items():
        print(f"{method} total reserve = {_amount(block['total'])}")
    print(f"report: {report_path}")
    return 0


# ---------------------------------------------------------- bootstrap


def cmd_bootstrap(args) -> int:
    started = time.perf_counter()
    t, digests = _load_triangle_args(args)
    seed, seed_generated = _resolve_seed(args.seed)
    pattern = chain_ladder_pattern(t)
    if args.c_hat is not None:
        if args.c_hat <= 0.0 or not np.isfinite(args.c_hat):
            raise PredictiveError(f"--c-hat must be positive and finite, got {args.c_hat}")
        c_hat, c_source = float(args.c_hat), "flag"
    else:
        c_hat, c_source = estimate_c(t, divisor=args.divisor).c_hat, "estimated"

    exposures_source = None
    if args.anchor == "cl":
        dist = multinomial_bootstrap(
            latest_diagonal(t),
            pattern,
            c_hat,
            args.B,
            seed=seed,
            inclusion_threshold=args.inclusion_threshold,
        )
    else:
        if args.q_bf is None:
            raise PredictiveError("bf anchor needs --q-bf")
        if t.exposures is not None:
            E, exposures_source = np.asarray(t.exposures), "provided"
        else:
            # No exposures supplied: use each accident year's first-lag
            # claims as the exposure measure.
            E = t.values[:, 0]
            exposures_source = "lag0-claims"
            if np.any(E <= 0.0):
                raise PredictiveError(
                    "bf anchor fell back to lag-0 claims as exposures, "
                    "but some first-lag values are non-positive"
                )
        dist = bf_bootstrap(E, args.q_bf, pattern, c_hat, args.B, seed=seed)

    report = {
        "anchor": dist.anchor,
        "B": args.B,
        "seed": seed,
        "c_hat": {"value": c_hat, "source": c_source, "divisor": args.divisor},
        "inclusion_threshold": args.inclusion_threshold,
        "q_bf": args.q_bf,
        "exposures_source": exposures_source,
        "summary": dist.summary,
        "per_year": _per_year_block(dist),
        "flags": {str(k): list(v) for k, v in dist.flags.items()},
        "excluded_point_total": dist.excluded_point_total(),
        "meta": dist.meta,
    }
    if pattern.floored_lags:
        report["floored_lags"] = list(pattern.floored_lags)

    report_path = _artifact(args, f".{args.output_format}")
    if args.output_format == "json":
        _write_json(report_path, report)
    else:
        _write_bootstrap_csv(report_path, report)
    if args.dump_draws:
        _dump_draws(Path(args.dump_draws), dist)
    _write_manifest(args, started, {**_parameters(args), "exposures_source": exposures_source},
                    digests, seed, seed_generated)

    s = dist.summary
    mean_txt = "suppressed" if s["mean"] is None else _amount(s["mean"])
    se_txt = "n/a" if s["se"] is None else _amount(s["se"])
    print(f"{dist.anchor} bootstrap, B = {args.B}, seed = {seed}, c_hat = {c_hat:.4f}")
    print(f"total reserve: mean = {mean_txt}, se = {se_txt}, "
          f"q5 = {_amount(s['q5'])}, q50 = {_amount(s['q50'])}, q95 = {_amount(s['q95'])}")
    if pattern.floored_lags:
        print(f"pattern: lags {list(pattern.floored_lags)} floored and renormalised")
    excluded = [y.accident for y in dist.per_year if y.excluded]
    if excluded:
        print(f"excluded accident years {excluded}; "
              f"their point reserves total {_amount(dist.excluded_point_total())}")
    print(f"report: {report_path}")
    return 0


def _write_bootstrap_csv(path: Path, report: dict) -> None:
    import csv as _csv

    report = _jsonable(report)
    rows = report["per_year"]
    cols = ["accident", "F", "c_times_F", "point_reserve", "mean", "se",
            "q5", "q25", "q50", "q75", "q95", "excluded", "exclusion_reason",
            "mean_suppressed"]
    with open(path, "w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(cols)
        for r in rows:
            w.writerow([r.get(c, "") if r.get(c) is not None else "" for c in cols])
        s = report["summary"]
        w.writerow([])
        w.writerow(["total", "", "", "", s["mean"] if s["mean"] is not None else "",
                    s["se"] if s["se"] is not None else "",
                    s["q5"], s["q25"], s["q50"], s["q75"], s["q95"], "", "", ""])
        if "floored_lags" in report:
            w.writerow(["floored_lags", *report["floored_lags"]])


_DUMP_ROWS = 2048  # draws formatted at a time


def _dump_draws(path: Path, dist: ReserveDistribution) -> None:
    """Write every draw to a CSV file, as csv.writer would.

    The header names the included accident years (accident_<year>) and
    then total. Each draw is one row: the included years' values, then
    the total, joined by ',' and ended by CRLF. Each value is written as
    Python's repr writes it. The rows are formatted and written a block
    of _DUMP_ROWS at a time, so a large B never holds all the draws as
    text or as Python floats. _repr_rows computes the digits itself for
    values with 1e-4 <= |x| < 1e16 and calls repr for the rest.
    """
    included = [y for y in dist.per_year if y.draws is not None]
    columns = [y.draws for y in included] + [dist.total]
    header = ",".join([f"accident_{y.accident}" for y in included] + ["total"])
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\r\n")
        for k in range(0, dist.total.size, _DUMP_ROWS):
            fh.write(_repr_rows(np.column_stack([c[k : k + _DUMP_ROWS] for c in columns])))


def _digit_words() -> tuple[np.ndarray, np.ndarray]:
    """The ASCII digits of 0000..9999 as one uint32 word each, and of
    '.000'..'.999'; written through a uint32 view of a byte array, a word
    lays its four bytes down in order."""
    d = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    t = np.empty((10, 10, 10, 10, 4), np.uint8)
    t[..., 0] = d[:, None, None, None]
    t[..., 1] = d[:, None, None]
    t[..., 2] = d[:, None]
    t[..., 3] = d
    four = t.reshape(10_000, 4)
    dot = four[:1000].copy()
    dot[:, 0] = ord(".")
    return four.view(np.uint32).ravel(), dot.view(np.uint32).ravel()


_POW10 = np.array([float(10**k) for k in range(23)])  # exact in binary64 up to 10**22
_IPOW10 = np.array([10**k for k in range(19)], dtype=np.int64)
_DIGITS4, _DOT_DIGITS3 = _digit_words()
# _repr_rows lays each value out in a row of _WIDTH bytes: the integer
# digits in bytes 4-19, '.' at 20, the fraction digits in 21-40, the
# separator at 41 and, after a row's last value, the LF of its CRLF at 42;
# text from repr goes in bytes 17-40. A value's bytes are start..end - 1 and
# the separator, and _SHOWN[start * 42 + end] marks them.
_WIDTH = 44
_SHOWN = ((np.arange(_WIDTH) >= np.arange(20)[:, None, None])
          & (np.arange(_WIDTH) < np.arange(42)[:, None])
          | (np.arange(_WIDTH) == 41)).reshape(-1, _WIDTH)


def _repr_rows(block: np.ndarray) -> bytes:
    """The bytes ",".join(map(repr, row)) + "\\r\\n" gives, for every row
    of a 2-D float64 block.

    repr writes the shortest decimal that reads back as x and, of two that
    short, the one nearer x; it uses fixed notation when 1e-4 <= |x| < 1e16.
    There the digits are computed here, exactly. y = |x| 10**s, with 17
    digits before the point, is held as hi + lo with no error (Dekker's
    TwoProduct; 10**s is exact). The integers n for which n / 10**s reads
    back as x are first..last; k counts the trailing zeros of the roundest
    of them, and the value written is the multiple of 10**k in that range
    nearest y. Each comparison is of exact floats or of integers.

    Two finer points of repr's rule never change a value here. The ends of
    x's rounding range read back as x only when its mantissa is even, but
    an end is an integer at y's scale only for |x| >= 2**52. There y is a
    multiple of 10 and the end is y -+ 5 or y -+ 10, no rounder than y and
    farther from it. The range of a power of two is narrower below it, but
    every power of two in the range is a short exact decimal, its own repr.

    +-0.0 is written directly. The other values go through repr one at a
    time: non-finite or outside that range (subnormals included), a value
    for which log10 puts y outside [1e16, 1e17), and a tie between the two
    multiples of 10**k nearest y.
    """
    x = np.ascontiguousarray(block, dtype=np.float64).ravel()
    n, cols = x.size, block.shape[1]
    ax = np.abs(x)
    ok = (ax >= 1e-4) & (ax < 1e16)
    a = np.where(ok, ax, 1.5)
    s = 16 - np.floor(np.log10(a)).astype(np.int64)
    p = _POW10[s]
    hi = a * p
    ok &= (hi >= 1e16) & (hi < 1e17)
    t = a * 134217729.0  # 2**27 + 1 splits a into two 26-bit halves
    a_hi = t - (t - a)
    a_lo = a - a_hi
    t = p * 134217729.0
    p_hi = t - (t - p)
    p_lo = p - p_hi
    lo = ((a_hi * p_hi - hi) + a_hi * p_lo + a_lo * p_hi) + a_lo * p_lo
    # x's rounding range, scaled like y, is y -+ h with h = ulp(x) 10**s / 2.
    # lo -+ h is exact: both terms are multiples of h / 5**s, under 2**52 of
    # them.
    h = np.spacing(a) * 0.5 * p
    base = hi.astype(np.int64)
    first = base + np.ceil(lo - h).astype(np.int64)
    last = base + np.floor(lo + h).astype(np.int64)
    # The range is wider than 1, so it holds an integer: k >= 0. The loop
    # stops by 10**18, which no range reaches.
    k = np.zeros(n, np.int64)
    step = 1
    while True:
        step *= 10
        hit = last // step * step >= first
        if not hit.any():
            break
        k += hit
    step = _IPOW10[k]
    c = (base + np.floor(lo).astype(np.int64)) // step * step
    down_in, up_in = c >= first, c + step <= last
    # y's distance above the midpoint of c and c + 10**k is lo - mid, exact
    # when both lie in the range, as they are then within 22 of y.
    mid = (c - base).astype(np.float64) + 0.5 * _POW10[k]
    c += (~down_in | (up_in & (lo > mid))) * step
    ok &= ~(down_in & up_in & (lo == mid))

    # The value is c / 10**s; c has exactly k trailing zeros and 16 to 18
    # digits. Values going through repr are laid out as 0 here.
    c[~ok] = 0
    s[~ok] = 16
    k[~ok] = 16
    int_len = np.maximum(16 + (c >= 10**16) + (c >= 10**17) - s, 1)
    frac_len = np.maximum(s - k, 1)
    scale = _IPOW10[np.minimum(s, 18)]
    whole = c // scale
    frac = c - whole * scale
    # The 20 fraction digits as 3 and 17.
    cut = _IPOW10[np.maximum(s - 3, 0)]
    frac3 = np.where(s >= 3, frac // cut, frac * _IPOW10[np.maximum(3 - s, 0)])
    frac17 = np.where(s > 3, (frac - frac3 * cut) * _IPOW10[np.minimum(20 - s, 18)], 0)

    grid = np.empty((n, _WIDTH), np.uint8)
    words = grid.view(np.uint32)
    q, r = np.divmod(whole, 10**8)
    words[:, 1], words[:, 2] = _DIGITS4[q // 10**4], _DIGITS4[q % 10**4]
    words[:, 3], words[:, 4] = _DIGITS4[r // 10**4], _DIGITS4[r % 10**4]
    words[:, 5] = _DOT_DIGITS3[frac3]
    q, r = np.divmod(frac17, 10**9)
    words[:, 6], words[:, 7] = _DIGITS4[q // 10**4], _DIGITS4[q % 10**4]
    q, r = np.divmod(r, 10**5)
    words[:, 8], words[:, 9] = _DIGITS4[q], _DIGITS4[r // 10]
    grid[:, 40] = r % 10 + ord("0")
    start, end = 20 - int_len, 21 + frac_len
    neg = np.flatnonzero(np.signbit(x))
    grid[neg, start[neg] - 1] = ord("-")
    start[neg] -= 1
    other = np.flatnonzero(~ok & (ax != 0.0))
    if other.size:
        text = [repr(v) for v in x[other].tolist()]
        grid[other, 17:41] = np.array(text, dtype="S24").view(np.uint8).reshape(-1, 24)
        start[other] = 17
        end[other] = 17 + np.array([len(t) for t in text])
    rows = grid.reshape(-1, cols, _WIDTH)
    rows[:, :, 41] = ord(",")
    rows[:, -1, 41:43] = (ord("\r"), ord("\n"))
    shown = _SHOWN.take(start * 42 + end, axis=0)
    shown.reshape(rows.shape)[:, -1, 42] = True
    return grid[shown].tobytes()


# ----------------------------------------------------------- simulate


# study -> (the simlab function that runs it, the flags it takes as keyword
# arguments, and for a coverage study the SimConfig fields it sets on top
# of the defaults). A flag is passed only when set, so every default lives
# in the function's signature; a coverage study also reads every SimConfig
# field flag, and any other flag set is an error. The function is looked
# up in this module when the study runs, so a wrapper patched onto
# runoff.cli.<name> is the one called.
_STUDIES: dict[str, tuple[str, tuple[str, ...], dict | None]] = {
    "correct": ("run_coverage_study", ("method",), {}),
    "nonstat": ("nonstationarity_sweep", ("sigma_values",), {"dgp": "nonstationary"}),
    "tweedie": ("tweedie_sweep", ("p_values", "phi_values"), {"dgp": "tweedie"}),
    "grid": ("sensitivity_grid", ("c_list", "I_list", "J_list", "M", "B", "threads"), None),
    "sigma-c": ("verify_sigma_c", ("c_values", "I", "M", "divisor"), None),
    "conservatism": ("verify_conservatism", ("F_values", "nu", "phi", "M"), None),
    "compare-odp": ("compare_odp", (), {"J": 10}),
}


def cmd_simulate(args, options: dict[str, str]) -> int:
    """options maps each simulate flag's dest to its option string."""
    started = time.perf_counter()
    name, flags, base = _STUDIES[args.study]
    given = {k: v for k, v in _parameters(args).items()
             if v is not None and k not in ("study", "config")}
    read = {*flags, *(f.name for f in fields(SimConfig) if base is not None)}
    unread = [options[k] for k in given if k not in read]
    if unread:
        raise SimulationError(f"study {args.study!r} does not take {', '.join(unread)}")
    seed, seed_generated = _resolve_seed(args.seed)
    kwargs = {k: v for k, v in given.items() if k in flags}
    digests: dict[str, str] = {}
    study = globals()[name]
    if base is None:
        if args.config:
            raise SimulationError(f"--config applies to coverage studies, not {args.study!r}")
        kwargs["seed"] = seed
        report = study(**kwargs)
    else:
        # The remaining flags are SimConfig fields, set over the config file
        # or the study's base.
        overrides = {**{k: v for k, v in given.items() if k not in flags}, "seed": seed}
        if args.config:
            digests[str(args.config)] = _sha256(Path(args.config))
            cfg = load_sim_config(args.config, **overrides)
        else:
            cfg = SimConfig(**{**base, **overrides})
        report = study(cfg, **kwargs)
    # The manifest records every argument the study ran with, defaults and
    # the values the study resolved itself included.
    call = inspect.signature(study).bind_partial(**kwargs)
    call.apply_defaults()
    call.arguments.update(report.resolved)

    # The artifacts carry no timing: runtime_s stays at 0.0.
    rows = [{k: v for k, v in row.items() if k != "runtime_s"} for row in report.rows]
    artifact = SimulationReport(report.study, _jsonable(rows, "rows"),
                                _jsonable(report.config, "config"))
    csv_path, json_path = _artifact(args, ".csv"), _artifact(args, ".json")
    artifact.write_csv(csv_path)
    artifact.write_json(json_path)
    _write_manifest(args, started, {**report.config, **call.arguments, "study": args.study},
                    digests, seed, seed_generated)

    print(report.format_text())
    soft = sum(int(r.get("failures") or 0) for r in report.rows)
    if soft:
        print(f"replication failures: {soft} (see the failures column)")
    print(f"report: {json_path}")
    print(f"        {csv_path}")
    return 0


# ------------------------------------------------------------- parser


def _add_triangle_io(p: argparse.ArgumentParser) -> None:
    p.add_argument("triangle", help="triangle CSV path or bundled name "
                                    "(taylor-ashe, raa, mortgage)")
    p.add_argument("--format", choices=("long", "wide"), default="long")
    p.add_argument("--kind", choices=("amounts", "counts"), default="amounts")
    p.add_argument("--exposures", help="sidecar CSV with header accident,exposure")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="runoff",
        description="Run-off reserving: development patterns, concentration "
                    "estimation, conditional predictive bootstrap, ODP baseline, "
                    "and simulation studies.",
    )
    parser.add_argument("--version", action="version", version=f"runoff {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="development pattern, concentration and point reserves")
    _add_triangle_io(fit)
    fit.add_argument("--divisor", choices=("unbiased", "biased"), default="unbiased")
    fit.add_argument("--reserves", default="cl",
                     help="comma list of point-reserve methods: cl, bf, cc")
    fit.add_argument("--q-bf", type=float, default=None, dest="q_bf",
                     help="prior ultimate-to-exposure ratio for bf reserves")
    fit.add_argument("--out-dir", default=".", dest="out_dir")
    fit.add_argument("--stem", default=None, help="artifact basename (default runoff_fit)")
    fit.set_defaults(func=cmd_fit)

    boot = sub.add_parser("bootstrap", help="predictive reserve distribution")
    _add_triangle_io(boot)
    boot.add_argument("--anchor", choices=("cl", "bf"), default="cl")
    boot.add_argument("--B", type=_positive_int, default=1000, dest="B",
                      help="bootstrap draws (positive)")
    boot.add_argument("--seed", type=int, default=None)
    boot.add_argument("--q-bf", type=float, default=None, dest="q_bf")
    boot.add_argument("--c-hat", type=float, default=None, dest="c_hat",
                      help="override the estimated concentration")
    boot.add_argument("--divisor", choices=("unbiased", "biased"), default="unbiased")
    boot.add_argument("--inclusion-threshold", type=float,
                      default=DEFAULT_INCLUSION_THRESHOLD, dest="inclusion_threshold")
    boot.add_argument("--dump-draws", default=None, dest="dump_draws",
                      help="also write every bootstrap draw to this CSV")
    boot.add_argument("--output-format", choices=("json", "csv"), default="json",
                      dest="output_format")
    boot.add_argument("--out-dir", default=".", dest="out_dir")
    boot.add_argument("--stem", default=None)
    boot.set_defaults(func=cmd_bootstrap)

    sim = sub.add_parser("simulate", help="Monte Carlo studies and verifications")
    sim.add_argument("--study", choices=tuple(_STUDIES), required=True)
    sim.add_argument("--config", default=None,
                     help="key=value file mirroring simulation config fields")
    sim.add_argument("--method", choices=("multinomial", "odp"), default=None,
                     help="bootstrap used by the correct-specification study")
    sim.add_argument("--I", type=int, default=None, dest="I")
    sim.add_argument("--J", type=int, default=None, dest="J")
    sim.add_argument("--M", type=int, default=None, dest="M")
    sim.add_argument("--B", type=int, default=None, dest="B")
    sim.add_argument("--seed", type=int, default=None)
    sim.add_argument("--c-true", type=float, default=None, dest="c_true")
    sim.add_argument("--dgp", choices=("dirichlet-gamma", "nonstationary", "tweedie",
                                       "count-hierarchy"), default=None)
    sim.add_argument("--sigma-delta", type=float, default=None, dest="sigma_delta")
    sim.add_argument("--p", type=float, default=None)
    sim.add_argument("--phi", type=float, default=None)
    sim.add_argument("--kappa", type=float, default=None)
    sim.add_argument("--mu", type=float, default=None)
    sim.add_argument("--inclusion-threshold", type=float, default=None,
                     dest="inclusion_threshold")
    sim.add_argument("--threads", type=_positive_int, default=None)
    # Each list flag's dest is the name of the study argument it sets.
    sim.add_argument("--sigma-grid", type=_float_list, dest="sigma_values",
                     metavar="SIGMA_GRID", help="nonstat study: perturbation variances")
    sim.add_argument("--p-grid", type=_float_list, dest="p_values", metavar="P_GRID")
    sim.add_argument("--phi-grid", type=_float_list, dest="phi_values", metavar="PHI_GRID",
                     help="tweedie study: per-power dispersions aligned with "
                          "--p-grid (default: calibrated table)")
    sim.add_argument("--grid-c", type=_float_list, dest="c_list", metavar="GRID_C")
    sim.add_argument("--grid-i", type=_int_list, dest="I_list", metavar="GRID_I")
    sim.add_argument("--grid-j", type=_int_list, dest="J_list", metavar="GRID_J")
    sim.add_argument("--c-values", type=_float_list, dest="c_values",
                     help="sigma-c study: concentrations to verify")
    sim.add_argument("--F-values", type=_float_list, dest="F_values",
                     help="conservatism study: development fractions")
    sim.add_argument("--nu", type=float, default=None,
                     help="conservatism study: cell mean")
    sim.add_argument("--divisor", choices=("unbiased", "biased"), default=None)
    sim.add_argument("--out-dir", default=".", dest="out_dir")
    sim.add_argument("--stem", default=None)
    options = {a.dest: a.option_strings[0] for a in sim._actions}
    sim.set_defaults(func=functools.partial(cmd_simulate, options=options))

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # argparse lays out help and usage text when it prints them, not here.
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
