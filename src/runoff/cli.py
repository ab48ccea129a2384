"""Command-line surface: fit, bootstrap, simulate.

Every run writes a manifest (command, parameters, seed, version, input
digests, wall clock) next to its report so results can be reproduced
from the artifact alone. Report files themselves carry no timing
information; given the same inputs, flags and seed they are written
byte for byte identically, regardless of --threads.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import inspect
import json
import os
import sys
import time
from dataclasses import fields
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


def _write_json(path: Path, payload: dict) -> None:
    # Converted in full before the file is opened, so a rejected value
    # leaves no partly written file behind.
    text = json.dumps(_jsonable(payload), indent=2, allow_nan=False)
    path.write_text(text + "\n")


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
    for method, block in reserves.items():
        print(f"{method} total reserve = {block['total']:.1f}")
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
    mean_txt = "suppressed" if s["mean"] is None else f"{s['mean']:.1f}"
    se_txt = "n/a" if s["se"] is None else f"{s['se']:.1f}"
    print(f"{dist.anchor} bootstrap, B = {args.B}, seed = {seed}, c_hat = {c_hat:.4f}")
    print(f"total reserve: mean = {mean_txt}, se = {se_txt}, "
          f"q5 = {s['q5']:.1f}, q50 = {s['q50']:.1f}, q95 = {s['q95']:.1f}")
    excluded = [y.accident for y in dist.per_year if y.excluded]
    if excluded:
        print(f"excluded accident years {excluded}; "
              f"their point reserves total {dist.excluded_point_total():.1f}")
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


_DUMP_ROWS = 4096  # draws converted to Python floats at a time


def _dump_draws(path: Path, dist: ReserveDistribution) -> None:
    """One CSV row per draw: the included years, then the total, each
    float written with repr and every row ended by CRLF, as csv.writer
    writes them. Rows are converted a block at a time, so a large B never
    holds all draws as Python floats."""
    included = [y for y in dist.per_year if y.draws is not None]
    columns = [y.draws for y in included] + [dist.total]
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"accident_{y.accident}" for y in included] + ["total"]) + "\r\n")
        for k in range(0, dist.total.size, _DUMP_ROWS):
            rows = np.column_stack([c[k : k + _DUMP_ROWS] for c in columns]).tolist()
            fh.write("".join([",".join(map(repr, row)) + "\r\n" for row in rows]))


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
    # The manifest records every argument the study ran with, defaults included.
    call = inspect.signature(study).bind_partial(**kwargs)
    call.apply_defaults()

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


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
