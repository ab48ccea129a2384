"""Command-line surface: fit, bootstrap, simulate.

Every run writes a manifest (command, parameters, seed, version, input
digests, wall clock) next to its report so results can be reproduced
from the artifact alone. Report files themselves carry no timing
information; given the same inputs, flags and seed they are written
byte for byte identically, regardless of --threads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import asdict
from importlib import resources
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
    latest_diagonal,
    load_exposures,
    load_triangle,
)

_STUDIES = ("correct", "nonstat", "tweedie", "grid", "sigma-c", "conservatism", "compare-odp")
_ERRORS = (
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


def _resolve_triangle_source(name: str) -> tuple[Path, str | None]:
    """A real path wins; otherwise fall back to a bundled dataset name."""
    p = Path(name)
    if p.exists():
        return p, None
    key = p.name.lower()
    if key.endswith(".csv"):
        key = key[:-4]
    key = key.replace("_", "-")
    if key in _BUNDLED:
        packaged = resources.files("runoff").joinpath("data", _BUNDLED[key])
        return Path(str(packaged)), key
    raise TriangleError(
        f"no such file {name!r} and no bundled triangle of that name "
        f"(bundled: {sorted(_BUNDLED)})"
    )


def _load_triangle_args(args) -> tuple[Triangle, dict[str, str]]:
    path, _ = _resolve_triangle_source(args.triangle)
    digests = {str(path): _sha256(path)}
    exposures = None
    if getattr(args, "exposures", None):
        epath = Path(args.exposures)
        exposures = load_exposures(epath)
        digests[str(epath)] = _sha256(epath)
    t = load_triangle(path, format=args.format, kind=args.kind, exposures=exposures)
    return t, digests


def _jsonable(v):
    """Recursively coerce report values into strict-JSON types."""
    if isinstance(v, dict):
        return {str(k): _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if isinstance(v, np.ndarray):
        return [_jsonable(x) for x in v.tolist()]
    if isinstance(v, (np.floating, float)):
        f = float(v)
        return f if np.isfinite(f) else None
    if isinstance(v, (np.integer,)):
        return int(v)
    if isinstance(v, (np.bool_,)):
        return bool(v)
    return v


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, allow_nan=False)
        fh.write("\n")


def _manifest(
    command: str,
    parameters: dict,
    seed: int | None,
    seed_generated: bool,
    inputs: dict[str, str],
    wall_clock_s: float,
) -> dict:
    return {
        "command": command,
        "parameters": _jsonable(parameters),
        "seed": seed,
        "seed_generated": seed_generated,
        "version": __version__,
        "inputs": inputs,
        "wall_clock_s": wall_clock_s,
    }


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
    return tuple(int(x) for x in _float_list(text))


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
            # A suppressed mean (c*F <= 2) suppresses se too: the ratio's
            # variance exists only for c*F > 2.
            shown = not y.mean_suppressed
            entry["mean"] = float(y.draws.mean()) if shown else None
            entry["se"] = float(y.draws.std(ddof=1)) if shown and y.draws.size > 1 else None
            qs = np.quantile(y.draws, [0.05, 0.25, 0.50, 0.75, 0.95])
            entry.update(
                {"q5": qs[0], "q25": qs[1], "q50": qs[2], "q75": qs[3], "q95": qs[4]}
            )
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
            "cells": [
                {"j": c.j, "k": c.k, "c_hat": c.c_hat, "n_k": c.n_k, "pi_hat": c.pi_hat}
                for c in est.cells
            ],
            "dropped_cells": [
                {"j": d.j, "k": d.k, "reason": d.reason} for d in est.dropped_cells
            ],
        }
    except ConcentrationError as exc:
        report["concentration"] = {"error": str(exc)}
    reserves: dict = {}
    wanted = [m.strip().lower() for m in args.reserves.split(",") if m.strip()]
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

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.stem or "runoff_fit"
    report_path = out_dir / f"{stem}.json"
    _write_json(report_path, report)
    manifest = _manifest(
        "fit",
        {
            "triangle": args.triangle,
            "format": args.format,
            "kind": args.kind,
            "exposures": args.exposures,
            "divisor": args.divisor,
            "reserves": args.reserves,
            "q_bf": args.q_bf,
        },
        seed=None,
        seed_generated=False,
        inputs=digests,
        wall_clock_s=time.perf_counter() - started,
    )
    _write_json(out_dir / f"{stem}_manifest.json", manifest)

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
            E = np.array([t.cells[(i, 0)] for i in range(1, t.I + 1)])
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

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.stem or "runoff_bootstrap"
    if args.output_format == "json":
        report_path = out_dir / f"{stem}.json"
        _write_json(report_path, report)
    else:
        report_path = out_dir / f"{stem}.csv"
        _write_bootstrap_csv(report_path, report)
    if args.dump_draws:
        _dump_draws(Path(args.dump_draws), dist)
        digests_note = str(args.dump_draws)
    else:
        digests_note = None
    manifest = _manifest(
        "bootstrap",
        {
            "triangle": args.triangle,
            "format": args.format,
            "kind": args.kind,
            "anchor": args.anchor,
            "B": args.B,
            "q_bf": args.q_bf,
            "exposures": args.exposures,
            "exposures_source": exposures_source,
            "c_hat": args.c_hat,
            "divisor": args.divisor,
            "inclusion_threshold": args.inclusion_threshold,
            "output_format": args.output_format,
            "dump_draws": digests_note,
        },
        seed=seed,
        seed_generated=seed_generated,
        inputs=digests,
        wall_clock_s=time.perf_counter() - started,
    )
    _write_json(out_dir / f"{stem}_manifest.json", manifest)

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


_STUDY_BASE: dict[str, dict] = {
    "correct": {"I": 10, "J": 5, "c_true": 50.0, "M": 500, "B": 1000,
                "dgp": "dirichlet-gamma"},
    "nonstat": {"I": 10, "J": 5, "c_true": 50.0, "M": 500, "B": 1000,
                "dgp": "nonstationary"},
    "tweedie": {"I": 10, "J": 5, "c_true": 50.0, "M": 500, "B": 1000,
                "dgp": "tweedie"},
    "compare-odp": {"I": 10, "J": 10, "c_true": 50.0, "M": 500, "B": 1000,
                    "dgp": "dirichlet-gamma"},
}

_SIM_OVERRIDE_FLAGS = (
    "I", "J", "c_true", "M", "B", "dgp", "sigma_delta", "p", "phi",
    "kappa", "mu", "inclusion_threshold", "threads",
)


def _build_sim_config(args, seed: int) -> SimConfig:
    overrides = {k: getattr(args, k) for k in _SIM_OVERRIDE_FLAGS
                 if getattr(args, k, None) is not None}
    overrides["seed"] = seed
    if args.config:
        return load_sim_config(args.config, **overrides)
    base = dict(_STUDY_BASE[args.study])
    base.update(overrides)
    return SimConfig(**base)


def _strip_timing(report: SimulationReport) -> SimulationReport:
    rows = [{k: v for k, v in row.items() if k != "runtime_s"} for row in report.rows]
    return SimulationReport(study=report.study, rows=rows, config=_jsonable(report.config),
                            runtime_s=0.0)


def cmd_simulate(args) -> int:
    started = time.perf_counter()
    seed, seed_generated = _resolve_seed(args.seed)
    digests: dict[str, str] = {}
    if args.config:
        if args.study not in _STUDY_BASE:
            raise SimulationError(f"--config applies to coverage studies, not {args.study!r}")
        digests[str(args.config)] = _sha256(Path(args.config))

    if args.study in _STUDY_BASE:
        cfg = _build_sim_config(args, seed)
        if args.study == "correct":
            report = run_coverage_study(cfg, method=args.method)
        elif args.study == "nonstat":
            report = nonstationarity_sweep(cfg, args.sigma_grid)
        elif args.study == "tweedie":
            report = tweedie_sweep(cfg, args.p_grid, phi_values=args.phi_grid)
        else:
            report = compare_odp(cfg)
        params = asdict(cfg)
    elif args.study == "grid":
        M = args.M if args.M is not None else 500
        B = args.B if args.B is not None else 500
        report = sensitivity_grid(
            args.grid_c, args.grid_i, args.grid_j, M=M, B=B, seed=seed,
            threads=args.threads or 1,
        )
        params = dict(report.config)
    elif args.study == "sigma-c":
        report = verify_sigma_c(
            args.c_values,
            I=args.I if args.I is not None else 100,
            M=args.M if args.M is not None else 10_000,
            seed=seed,
            divisor=args.divisor,
        )
        params = dict(report.config)
    else:
        report = verify_conservatism(
            args.F_values,
            nu=args.nu,
            phi=args.phi if args.phi is not None else 100.0,
            M=args.M if args.M is not None else 2000,
            seed=seed,
        )
        params = dict(report.config)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = args.stem or f"runoff_{args.study}"
    artifact = _strip_timing(report)
    csv_path = out_dir / f"{stem}.csv"
    json_path = out_dir / f"{stem}.json"
    artifact.write_csv(csv_path)
    artifact.write_json(json_path)
    manifest = _manifest(
        f"simulate --study {args.study}",
        {**params, "study": args.study, "threads": args.threads},
        seed=seed,
        seed_generated=seed_generated,
        inputs=digests,
        wall_clock_s=time.perf_counter() - started,
    )
    _write_json(out_dir / f"{stem}_manifest.json", manifest)

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
    sim.add_argument("--study", choices=_STUDIES, required=True)
    sim.add_argument("--config", default=None,
                     help="key=value file mirroring simulation config fields")
    sim.add_argument("--method", choices=("multinomial", "odp"), default="multinomial",
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
    sim.add_argument("--sigma-grid", type=_float_list, default=(0.0, 0.02, 0.05, 0.10),
                     dest="sigma_grid", help="nonstat study: perturbation variances")
    sim.add_argument("--p-grid", type=_float_list, default=(1.3, 1.5, 1.8), dest="p_grid")
    sim.add_argument("--phi-grid", type=_float_list, default=None, dest="phi_grid",
                     help="tweedie study: per-power dispersions aligned with "
                          "--p-grid (default: calibrated table)")
    sim.add_argument("--grid-c", type=_float_list, default=(10, 20, 30, 50, 100, 200),
                     dest="grid_c")
    sim.add_argument("--grid-i", type=_int_list, default=(7, 10, 15), dest="grid_i")
    sim.add_argument("--grid-j", type=_int_list, default=(5, 10), dest="grid_j")
    sim.add_argument("--c-values", type=_float_list, default=(20.0, 50.0, 100.0),
                     dest="c_values", help="sigma-c study: concentrations to verify")
    sim.add_argument("--F-values", type=_float_list, default=(0.1, 0.5, 0.8),
                     dest="F_values", help="conservatism study: development fractions")
    sim.add_argument("--nu", type=float, default=1e6,
                     help="conservatism study: cell mean")
    sim.add_argument("--divisor", choices=("unbiased", "biased"), default="unbiased")
    sim.add_argument("--out-dir", default=".", dest="out_dir")
    sim.add_argument("--stem", default=None)
    sim.set_defaults(func=cmd_simulate)

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
