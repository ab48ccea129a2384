"""Command-line surface: fit, bootstrap, simulate.

Every run writes its report, then its other file (bootstrap's draw dump,
simulate's CSV), then a manifest (command, parameters, seed, version, input
digests, wall clock) that reproduces them, all or none: each writer checks
its values before opening its file, and a failed write removes the files
already written. Given the same inputs, flags and seed, a report is written
byte for byte identically; across --threads a study's CSV is identical and
its JSON differs only in the config's "threads" field; no study file holds
a time (SimulationReport's writers). Integer flags and --config lines
follow simlab._parse_integer. main builds the argument parser on its first
call and then reuses it.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import os
import shutil
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .concentration import ConcentrationError, estimate_c
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
    _threshold_fault,
    bf_bootstrap,
    multinomial_bootstrap,
)
from .simlab import (
    _DGPS,
    _METHODS,
    SimConfig,
    SimulationError,
    _json_text,
    _parse_integer,
    _parse_pattern,
    _write_csv,
    _write_json,
    compare_odp,
    nonstationarity_sweep,
    parse_config_text,
    run_coverage_study,
    sensitivity_grid,
    tweedie_sweep,
    verify_conservatism,
    verify_sigma_c,
)
from .triangle import (
    _BUNDLED,
    RunoffError,
    Triangle,
    TriangleError,
    _bundled_file,
    latest_diagonal,
    load_exposures,
    load_triangle,
)


_ERRORS = (RunoffError, OSError, MemoryError)


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


def _parameters(args) -> dict:
    """Every parsed flag in parser order, bar the dispatch keys and the
    seed and output location, which the manifest keeps elsewhere or not
    at all."""
    skip = ("command", "func", "seed", "out_dir", "stem")
    return {k: v for k, v in vars(args).items() if k not in skip}


def _artifact(args, suffix: str) -> Path:
    """<out-dir>/<stem><suffix>. The default stem is runoff_<study> for
    simulate and runoff_<command> otherwise."""
    stem = args.stem or "runoff_" + getattr(args, "study", args.command)
    return Path(args.out_dir) / f"{stem}{suffix}"


def _write_artifacts(args, started: float, files: list, parameters: dict, inputs: dict[str, str],
                     seed: int | None = None, seed_generated: bool = False) -> None:
    """Write files, (path, write) pairs, in order, then the manifest: all
    or none. Before the first file opens, the parameters are checked, each
    artifact and its sibling <path>.part are checked to resolve to paths
    that are none of the inputs' (the keys of inputs) or another's, and
    out-dir is made. Each file is written to its sibling and moved to its
    path once complete, taking the mode of a file it replaces, except at a
    symbolic link, a directory or a device, opened as it is and never
    removed. A failed file or manifest takes its sibling and the files
    already moved with it, and the error goes on."""
    _json_text(parameters, "manifest.parameters")
    manifest = _artifact(args, "_manifest.json")
    claimed = {Path(p).resolve(): "is an input of this command" for p in inputs}
    for path in [*(path for path, _ in files), manifest]:
        key = path.resolve()  # key.part: the sibling's key without a second resolve
        for p, k in ((path, key), (f"{path}.part", Path(f"{key}.part"))):
            if k in claimed:
                raise RunoffError(f"{p} {claimed[k]}: each artifact needs a file of its own")
            claimed[k] = "is the path of two artifacts"
    Path(args.out_dir).mkdir(parents=True, exist_ok=True)

    def write_manifest(path: Path) -> None:
        command = args.command + (f" --study {args.study}" if args.command == "simulate" else "")
        _write_json(path, {
            "command": command,
            "parameters": parameters,
            "seed": seed,
            "seed_generated": seed_generated,
            "version": __version__,
            "inputs": inputs,
            "wall_clock_s": time.perf_counter() - started,
        }, where="manifest")

    written: list[Path] = []  # a sibling while it is written, then the path it moved to
    try:
        for path, write in [*files, (manifest, write_manifest)]:
            if path.is_symlink() or path.exists() and not path.is_file():
                write(path)
                continue
            written.append(Path(f"{path}.part"))
            write(written[-1])
            if path.is_file():  # the file it replaces keeps its mode
                shutil.copymode(path, written[-1])
            os.replace(written[-1], path)
            written[-1] = path
    except BaseException:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def _resolve_seed(seed: int | None) -> tuple[int, bool]:
    if seed is not None:
        return seed, False
    return int.from_bytes(os.urandom(4), "big"), True


def _integer(text: str) -> int:
    """An integer flag's value, read by simlab._parse_integer."""
    try:
        return _parse_integer(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text}")
    return value


def _number_list(text: str, parse=float) -> tuple:
    try:
        vals = _parse_pattern(text, parse)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc
    if not vals:
        raise argparse.ArgumentTypeError("expected a comma-separated list of numbers")
    return vals


def _int_list(text: str) -> tuple[int, ...]:
    return _number_list(text, functools.partial(_parse_integer, expected="integers"))


def _amount(v: float) -> str:
    """An amount as printed to stdout: one decimal below 1e15 in
    magnitude, seven significant digits from there up."""
    return f"{v:.1f}" if abs(v) < 1e15 else f"{v:.6e}"


# ---------------------------------------------------------------- fit


def _per_year_block(dist: ReserveDistribution) -> list[dict]:
    out = []
    for y in dist.per_year:
        if isinstance(y.summary, str):  # the year's summary failed
            raise PredictiveError(y.summary)
        # Every field but the draws and the summary, in declaration order, then the summary.
        out.append({**{k: v for k, v in vars(y).items() if k not in ("draws", "summary")},
                    **({"mean": None, "se": None} if y.summary is None else y.summary)})
    return out


def cmd_fit(args) -> int:
    started = time.perf_counter()
    t, digests = _load_triangle_args(args)
    pattern = chain_ladder_pattern(t)
    report: dict = {
        "triangle": {"source": args.triangle, "I": t.I, "J": t.J, "kind": t.kind},
        "link_ratios": list(link_ratios(t)),
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
            reserves[method] = block
    report["reserves"] = reserves

    report_path = _artifact(args, ".json")
    _write_artifacts(args, started, [(report_path, functools.partial(_write_json, payload=report))],
                     _parameters(args), digests)

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
    # Checked under either anchor before any draw: the report records it.
    fault = _threshold_fault(args.inclusion_threshold)
    if fault is not None:
        raise PredictiveError(fault)
    pattern = chain_ladder_pattern(t)
    if args.c_hat is not None:
        if args.c_hat <= 0.0 or not np.isfinite(args.c_hat):
            raise PredictiveError(f"--c-hat must be positive and finite, got {args.c_hat}")
        c_hat, c_source = float(args.c_hat), "flag"
    else:
        c_hat, c_source = estimate_c(t, divisor=args.divisor).c_hat, "estimated"

    # Only the dump reads a year's draws.
    dump = Path(args.dump_draws) if args.dump_draws else None
    exposures_source = None
    if args.anchor == "cl":
        dist = multinomial_bootstrap(
            latest_diagonal(t),
            pattern,
            c_hat,
            args.B,
            seed=seed,
            inclusion_threshold=args.inclusion_threshold,
            keep_draws=dump is not None,
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
        dist = bf_bootstrap(E, args.q_bf, pattern, c_hat, args.B, seed=seed,
                            keep_draws=dump is not None)

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
    writer = _write_json if args.output_format == "json" else _write_bootstrap_csv
    files = [(report_path, lambda path: writer(path, report))]
    if dump is not None:
        files.append((dump, functools.partial(_dump_draws, dist=dist)))
    _write_artifacts(args, started, files,
                     {**_parameters(args), "exposures_source": exposures_source},
                     digests, seed, seed_generated)

    s = dist.summary
    mean_txt = "suppressed" if s["mean"] is None else _amount(s["mean"])
    se_txt = "n/a" if s["se"] is None else _amount(s["se"])
    print(f"{dist.anchor} bootstrap, B = {args.B}, seed = {seed}, c_hat = {c_hat:.4f}")
    print(f"total reserve: mean = {mean_txt}, se = {se_txt}, "
          f"q5 = {_amount(s['q5'])}, q50 = {_amount(s['q50'])}, q95 = {_amount(s['q95'])}")
    if pattern.floored_lags:
        print(f"pattern: lags {list(pattern.floored_lags)} floored and renormalised")
    if dist.excluded_years:
        print(f"excluded accident years {list(dist.excluded_years)}; "
              f"their point reserves total {_amount(dist.excluded_point_total())}")
    print(f"report: {report_path}")
    return 0


def _write_bootstrap_csv(path: Path, report: dict) -> None:
    """The report as CSV, once its values have passed _json_text."""
    cols = ["accident", "F", "c_times_F", "point_reserve", "mean", "se",
            "q5", "q25", "q50", "q75", "q95", "excluded", "exclusion_reason",
            "mean_suppressed"]
    # Each year's row, then the total's, None and absent values left blank.
    *years, total = [[r.get(c) for c in cols]
                     for r in (*report["per_year"], {"accident": "total", **report["summary"]})]
    floored = [["floored_lags", *report["floored_lags"]]] if "floored_lags" in report else []
    _write_csv(path, [cols, *years, [], total, *floored], report)


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
    kwargs = {k: v for k, v in given.items() if k in flags}
    digests: dict[str, str] = {}
    study = globals()[name]
    if base is None:
        if args.config:
            raise SimulationError(f"--config applies to coverage studies, not {args.study!r}")
        seed, seed_generated = _resolve_seed(args.seed)
        kwargs["seed"] = seed
        report = study(**kwargs)
    else:
        # The remaining flags are SimConfig fields, set over the config file laid
        # over the study's base; the seed is --seed's, else the file's, else random.
        if args.config:
            digests[str(args.config)] = _sha256(Path(args.config))
            base = {**base, **parse_config_text(Path(args.config).read_text())}
        seed, seed_generated = _resolve_seed(base.get("seed") if args.seed is None else args.seed)
        overrides = {k: v for k, v in given.items() if k not in flags}
        cfg = SimConfig(**{**base, **overrides, "seed": seed})
        report = study(cfg, **kwargs)
    # The manifest records every argument the study ran with, defaults and
    # the values the study resolved itself included.
    call = inspect.signature(study).bind_partial(**kwargs)
    call.apply_defaults()
    call.arguments.update(report.resolved)

    # Named as in the JSON report (config.<key>), before the manifest's copy is checked.
    _json_text(report.config, "config")
    csv_path, json_path = _artifact(args, ".csv"), _artifact(args, ".json")
    _write_artifacts(args, started, [(json_path, report.write_json),
                                     (csv_path, report.write_csv)],
                     {**report.config, **call.arguments, "study": args.study},
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
    boot.add_argument("--seed", type=_integer, default=None)
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
    sim.add_argument("--method", choices=_METHODS, default=None,
                     help="bootstrap used by the correct-specification study")
    sim.add_argument("--I", type=_integer, default=None, dest="I")
    sim.add_argument("--J", type=_integer, default=None, dest="J")
    sim.add_argument("--M", type=_integer, default=None, dest="M")
    sim.add_argument("--B", type=_integer, default=None, dest="B")
    sim.add_argument("--seed", type=_integer, default=None)
    sim.add_argument("--c-true", type=float, default=None, dest="c_true")
    sim.add_argument("--dgp", choices=_DGPS, default=None)
    sim.add_argument("--sigma-delta", type=float, default=None, dest="sigma_delta")
    sim.add_argument("--p", type=float, default=None)
    sim.add_argument("--phi", type=float, default=None)
    sim.add_argument("--kappa", type=float, default=None)
    sim.add_argument("--mu", type=float, default=None)
    sim.add_argument("--inclusion-threshold", type=float, default=None,
                     dest="inclusion_threshold")
    sim.add_argument("--threads", type=_positive_int, default=None)
    # Each list flag's dest is the name of the study argument it sets.
    sim.add_argument("--sigma-grid", type=_number_list, dest="sigma_values",
                     metavar="SIGMA_GRID", help="nonstat study: perturbation variances")
    sim.add_argument("--p-grid", type=_number_list, dest="p_values", metavar="P_GRID")
    sim.add_argument("--phi-grid", type=_number_list, dest="phi_values", metavar="PHI_GRID",
                     help="tweedie study: per-power dispersions aligned with "
                          "--p-grid (default: calibrated table)")
    sim.add_argument("--grid-c", type=_number_list, dest="c_list", metavar="GRID_C")
    sim.add_argument("--grid-i", type=_int_list, dest="I_list", metavar="GRID_I")
    sim.add_argument("--grid-j", type=_int_list, dest="J_list", metavar="GRID_J")
    sim.add_argument("--c-values", type=_number_list, dest="c_values",
                     help="sigma-c study: concentrations to verify")
    sim.add_argument("--F-values", type=_number_list, dest="F_values",
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
        # A bare MemoryError carries no message: its name stands in.
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
