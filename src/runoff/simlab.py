"""Synthetic run-off laboratory: data generators and Monte Carlo studies.

Four data-generating processes share one exposure law (Gamma shape 10,
rate 0.01) and, where applicable, one ultimate-severity law (Gamma shape
2 E_i, rate 0.001):

  dirichlet-gamma   increments are the row ultimate times a
                    Dirichlet(c pi) weight vector; the model the
                    conditional bootstrap assumes.
  nonstationary     as above, but each row's pattern is log-normally
                    perturbed cell by cell before allocation.
                    sigma_delta is the VARIANCE of the mean-zero
                    Gaussian log perturbation.
  tweedie           independent compound Poisson-Gamma cells with mean
                    nu_ij = 2000 E_i pi_j and variance phi nu_ij^p;
                    breaks the fixed-ultimate structure entirely.
  count-hierarchy   Gamma frailty, Poisson count, multinomial spread
                    across lags; produces a counts triangle.

Coverage studies mask each simulated triangle on the usual diagonal,
run a bootstrap on the observed part, and score the realised future sum
against the interval. A study takes each contiguous block of
replications through all five stages at once (_run_block):

  1. generate   each replication's square from its own substreams into
                an (M, I, J) block; the truth is the sum of its future
                cells in row-major order, and the triangle checks run
                once over the block
  2. CL point   each row's latest-diagonal total, taken once, grossed up
                by the generating pattern, built once per scenario
  3. estimate   c-hat of every triangle by estimate_c_batch
  4. draw       the multinomial totals from one predictive._anchored_draws
                call, the kernel whose n = 1 case is multinomial_bootstrap,
                which folds each year into its total as it is drawn and
                keeps no year's draws; the ODP method instead fits every
                triangle of the block at once (odp._odp_fits), runs
                odp_bootstrap's draw kernel per replication on arrays the
                block keeps and folds each replication's years into its
                total by predictive._fold, as the Beta draws are folded.
                Both check the block's totals in one
                predictive._check_totals call
  5. score      the realised future amount against the 95% and 75%
                intervals of each row of totals, from one sort

A replication that fails a stage records the message the single-triangle
functions would raise and drops out of the later stages; the rest of the
block moves on. Every draw is keyed by (seed, study domain, replication
index) and then by a per-replication tag: _SUB_* for the square,
_BOOT_MULTINOMIAL and the accident year (predictive._ROW_DOMAIN) for the
Beta draws, _BOOT_ODP for the residual bootstrap. So any replication can
be regenerated in isolation, and the block size never changes results.
Stream ids come from distributions._derive_ids. A block's squares, its
Beta draws and its ODP draws each open their generators in one
_stream_generators call (RngStream's, bit for bit).
With threads > 1 the blocks also hold at most M / threads replications
each (rounded up) and run on a thread pool, `threads` at a time in block
order: numpy releases the GIL in the draws and the sorts, so they overlap.
"""

from __future__ import annotations

import csv
import functools
import math
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import islice
from json.encoder import encode_basestring_ascii as _ascii
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .concentration import (
    _NO_USABLE_CELLS,
    ConcentrationError,
    estimate_c_batch,
    sigma_c_squared,
)
from .distributions import (
    _POISSON_LAM_MAX,
    RngStream,
    _derive_ids,
    _rate_fault,
    _stream_generators,
    beta_prime_moments,
    sample_tweedie,
)
from .odp import _ODP_DOMAIN, OdpError, _odp_draws, _odp_fits
from .patterns import DevelopmentPattern, PatternError, _cl_reserves
from .predictive import (
    _anchored_draws,
    _b_fault,
    _check_totals,
    _fold,
    _quantiles,
    _threshold_fault,
)
from .triangle import (
    _NON_FINITE_EXPOSURE,
    RunoffError,
    Triangle,
    _diagonal_totals,
    _latest_lags,
    _observed_mask,
    _value_errors,
)

PATTERN_J5 = (0.45, 0.25, 0.15, 0.10, 0.05)
# Ten-lag pattern: a slowly decaying body, then razor-thin final lags.
# The thin lags matter: they put late cells near zero, which is the regime
# where residual-resampling bootstraps are known to misbehave while the
# row-level Beta draws stay well defined.
PATTERN_J10 = (0.19, 0.16, 0.14, 0.12, 0.11, 0.10, 0.09, 0.087, 0.002, 0.001)

# Dispersion for single Tweedie runs, calibrated so the default power
# p = 1.5 yields a mean concentration estimate near 70.
TWEEDIE_PHI_DEFAULT = 43.0

# Per-power dispersions for the sweep studies. A common phi cannot serve
# all powers: the concentration limit scales like nu^(2-p)/phi, so holding
# phi fixed while p moves pushes the estimate through orders of magnitude
# and starves heavy-tailed cells into zeros. Each value is calibrated so
# the mean concentration estimate lands near its reference (about 460 /
# 70 / 21 for p = 1.3 / 1.5 / 1.8 at the default scale).
TWEEDIE_PHI_BY_POWER = {1.3: 90.0, 1.5: TWEEDIE_PHI_DEFAULT, 1.8: 2.75}

_NU_PHI_MAX = _POISSON_LAM_MAX / 2  # half the largest rate numpy's Poisson sampler takes

_SIM_DOMAIN = 3
_TAG_SIGMA = 1
_TAG_CONSERVATISM = 2
# Derivation tags on a replication's root stream.
_SUB_EXPOSURE = 0
_SUB_ULTIMATE = 1
_SUB_ALLOCATION = 2
_SUB_PERTURBATION = 3
_SUB_TWEEDIE = 6
_SUB_COUNTS = 7
_BOOT_MULTINOMIAL = 4
_BOOT_ODP = 5

_DGPS = ("dirichlet-gamma", "nonstationary", "tweedie", "count-hierarchy")
_METHODS = ("multinomial", "odp")
_SCORE_PROBS = np.array([0.025, 0.125, 0.875, 0.975])  # 95% and 75% interval ends
# A block holds at most _BLOCK_REPS replications, enough to spread each
# stage's numpy calls thin, and at most max(1, _BLOCK_DRAWS // B): its (n, B)
# totals then hold at most _BLOCK_DRAWS floats, or one replication's B.
_BLOCK_REPS = 64
_BLOCK_DRAWS = 1 << 16  # 512 KiB of float64 totals


class SimulationError(RunoffError):
    """A study configuration is invalid or a study cannot proceed."""


class ReportError(RunoffError):
    """A value bound for a report or manifest is not a finite number."""


def _json_text(v, where: str = "report", pad: str = "\n") -> str:
    """v as strict JSON in json.dumps's indent=2 layout: numpy values as the
    Python ones they hold, tuples as lists, keys as str(k), the last of equal
    keys winning. A non-finite float raises ReportError naming its path, where
    then .key and [index] steps (an empty where starts at the first key); an
    unknown type raises json's TypeError. pad is the line break and indent
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
        texts = {str(k): _json_text(x, f"{where}.{k}" if where else str(k), inner)
                 for k, x in v.items()}
        items = [f"{_ascii(k)}: {x}" for k, x in texts.items()]
        return "{" + inner + ("," + inner).join(items) + pad + "}" if items else "{}"
    if isinstance(v, (list, tuple)):
        items = [_json_text(x, f"{where}[{i}]", inner) for i, x in enumerate(v)]
        return "[" + inner + ("," + inner).join(items) + pad + "]" if items else "[]"
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write_json(path, payload, where: str = "report") -> None:
    """payload as strict JSON, built in full before the file is opened: a
    rejected value leaves no file."""
    Path(path).write_text(_json_text(payload, where) + "\n")


def _write_csv(path, rows, payload, where: str = "report") -> None:
    """rows written by csv.writer, None as an empty cell, once payload has
    passed _json_text: a rejected value leaves no file."""
    _json_text(payload, where)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


@dataclass(frozen=True)
class SimConfig:
    """One simulation scenario.

    pi_true defaults by J: the five-lag pattern used throughout the
    coverage studies, or its ten-lag analogue. Other J require an
    explicit pattern. inclusion_threshold defaults to 0 here (unlike the
    CLI's data-facing default of 5) so that coverage is scored on every
    accident year; exclusions would change what the interval covers.
    """

    I: int = 10
    J: int = 5
    pi_true: tuple[float, ...] | None = None
    c_true: float = 50.0
    M: int = 500
    B: int = 1000
    seed: int = 2026
    dgp: str = "dirichlet-gamma"
    sigma_delta: float = 0.0
    p: float = 1.5
    phi: float = TWEEDIE_PHI_DEFAULT
    kappa: float = 40.0
    mu: float = 400.0
    exposure_shape: float = 10.0
    exposure_rate: float = 0.01
    ultimate_shape_factor: float = 2.0
    ultimate_rate: float = 0.001
    inclusion_threshold: float = 0.0
    threads: int = 1

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "float" and not math.isfinite(value):
                raise SimulationError(f"{f.name} must be finite, got {value}")
        if self.I < 3 or self.J < 2:
            raise SimulationError(f"triangle dimensions too small: I={self.I}, J={self.J}")
        if self.pi_true is None:
            if self.J == 5:
                object.__setattr__(self, "pi_true", PATTERN_J5)
            elif self.J == 10:
                object.__setattr__(self, "pi_true", PATTERN_J10)
            else:
                raise SimulationError(f"no default pattern for J={self.J}; set pi_true")
        pi = tuple(float(x) for x in self.pi_true)
        object.__setattr__(self, "pi_true", pi)
        if len(pi) != self.J:
            raise SimulationError(f"pi_true has {len(pi)} entries for J={self.J}")
        if min(pi) <= 0.0 or not abs(sum(pi) - 1.0) <= 1e-12:
            raise SimulationError("pi_true must be strictly positive and sum to one")
        if self.c_true <= 0.0:
            raise SimulationError(f"c_true must be positive, got {self.c_true}")
        if self.M < 1 or self.B < 1:
            raise SimulationError("M and B must be at least 1")
        if self.M > 2**63 - 1:  # _run_block reads replication indices as int64
            raise SimulationError(f"M = {self.M} is too large: a replication index "
                                  "exceeds numpy's int64 range")
        fault = _b_fault(self.B, self.I * self.J)  # ODP draws take a row per cell
        if fault is not None:
            raise SimulationError(fault)
        if self.dgp not in _DGPS:
            raise SimulationError(f"unknown dgp {self.dgp!r}; expected one of {_DGPS}")
        if self.sigma_delta < 0.0:
            raise SimulationError("sigma_delta is a variance and cannot be negative")
        if not 1.0 < self.p < 2.0:
            raise SimulationError(f"tweedie power must lie in (1, 2), got {self.p}")
        if self.phi <= 0.0 or self.kappa <= 0.0 or self.mu <= 0.0:
            raise SimulationError("phi, kappa and mu must be positive")
        for name in ("exposure_shape", "exposure_rate", "ultimate_shape_factor", "ultimate_rate"):
            if getattr(self, name) <= 0.0:
                raise SimulationError(f"{name} must be positive")
        fault = _threshold_fault(self.inclusion_threshold)
        if fault is not None:
            raise SimulationError(fault)
        if self.threads < 1:
            raise SimulationError("threads must be at least 1")


@dataclass
class SimulationReport:
    """Rows of study results plus the config that produced them.

    rows is a list of plain dicts so that differently shaped studies
    (coverage tables, the variance verification, the conservatism
    check) share one report type and one pair of writers. Values are
    Python scalars or None; None renders as an absent cell. format_text
    shows a coverage row's runtime_s, its scenario's wall time; the files
    leave it out, and the JSON holds "runtime_s": 0.0. resolved holds the
    study arguments a study works out itself when they are not given
    (tweedie_sweep's dispersions); the CLI's manifest records them, the
    report files do not.
    """

    study: str
    rows: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    resolved: dict = field(default_factory=dict)

    def columns(self) -> list[str]:
        return list(dict.fromkeys(key for row in self.rows for key in row))

    def write_csv(self, path) -> None:
        cols = [k for k in self.columns() if k != "runtime_s"]
        _write_csv(path, [cols, *([row.get(k) for k in cols] for row in self.rows)],
                   self.rows, "rows")

    def write_json(self, path) -> None:
        rows = [{k: v for k, v in row.items() if k != "runtime_s"} for row in self.rows]
        _write_json(path, {"study": self.study, "config": self.config,
                           "runtime_s": 0.0, "rows": rows}, where="")

    def format_text(self) -> str:
        cols = self.columns()

        def fmt(v):
            if v is None:
                return "---"
            if isinstance(v, float):
                return f"{v:.4g}"
            return str(v)

        table = [[fmt(row.get(k)) for k in cols] for row in self.rows]
        widths = [max(len(c), *(len(r[i]) for r in table)) if table else len(c)
                  for i, c in enumerate(cols)]
        return "\n".join("  ".join(map(str.ljust, r, widths)) for r in [cols, *table])


class _Squares(NamedTuple):
    """Stage 1 output for a block of M replications."""

    values: np.ndarray  # (M, I, J) increments, NaN in the future cells
    exposures: np.ndarray  # (M, I)
    truth: np.ndarray  # (M,) realised future amounts
    kind: str
    faults: list[str | None]  # per replication, a Poisson rate numpy rejects (values NaN)


def _substreams(cfg: SimConfig, roots: np.ndarray) -> dict[int, list[np.random.Generator]]:
    """Per _SUB_* tag cfg.dgp draws from, the generator of that substream
    of each replication root (uint64 stream ids under cfg.seed), all
    opened by one _stream_generators call."""
    tags = [_SUB_EXPOSURE]
    if cfg.dgp in ("dirichlet-gamma", "nonstationary"):
        tags += [_SUB_ULTIMATE, _SUB_ALLOCATION]
        if cfg.dgp == "nonstationary" and cfg.sigma_delta > 0.0:
            tags.append(_SUB_PERTURBATION)
    else:
        tags.append(_SUB_TWEEDIE if cfg.dgp == "tweedie" else _SUB_COUNTS)
    ids = np.concatenate([_derive_ids(roots, tag) for tag in tags])
    streams = _stream_generators(cfg.seed, ids)
    M = len(roots)
    return {tag: streams[k * M:(k + 1) * M] for k, tag in enumerate(tags)}


def _generate(cfg: SimConfig, roots: np.ndarray) -> _Squares:
    """Draw the complete run-off square of each replication root, mask it,
    and sum the truth. roots holds the replications' root stream ids
    (uint64) under cfg.seed.

    Each replication draws from substreams of its root, one per model
    component, so the nonstationary process at sigma_delta = 0 consumes
    exactly the same allocation draws as dirichlet-gamma and reproduces it
    bit for bit. The arithmetic between draws runs over the whole block,
    element by element as for a lone square.
    """
    I, J, M = cfg.I, cfg.J, len(roots)
    pi = np.asarray(cfg.pi_true)
    sub = _substreams(cfg, roots)
    faults: list[str | None] = [None] * M
    E = np.empty((M, I))
    for m, g in enumerate(sub[_SUB_EXPOSURE]):
        E[m] = g.gamma(cfg.exposure_shape, 1.0 / cfg.exposure_rate, size=I)
    # A square made non-finite (c_true near 0, a huge sigma_delta) fails its
    # replication by _value_errors, which names the cell: no warning first.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        kind = "amounts"
        if cfg.dgp in ("dirichlet-gamma", "nonstationary"):
            S = np.empty((M, I))
            for m, g in enumerate(sub[_SUB_ULTIMATE]):
                S[m] = g.gamma(cfg.ultimate_shape_factor * E[m], 1.0 / cfg.ultimate_rate)
            alphas = np.broadcast_to(np.tile(cfg.c_true * pi, (I, 1)), (M, I, J))
            if _SUB_PERTURBATION in sub:
                z = np.empty((M, I, J))
                for m, g in enumerate(sub[_SUB_PERTURBATION]):
                    z[m] = g.standard_normal((I, J))
                row_pi = np.exp(np.log(pi) + np.sqrt(cfg.sigma_delta) * z)
                row_pi /= row_pi.sum(axis=2, keepdims=True)
                alphas = cfg.c_true * row_pi
            G = np.empty((M, I, J))
            for m, g in enumerate(sub[_SUB_ALLOCATION]):
                G[m] = g.gamma(alphas[m], 1.0)
            X = S[:, :, None] * (G / G.sum(axis=2, keepdims=True))
        elif cfg.dgp == "tweedie":
            mean_scale = cfg.ultimate_shape_factor / cfg.ultimate_rate
            nu = (mean_scale * E)[:, :, None] * pi
            X = np.empty((M, I, J))
            for m, g in enumerate(sub[_SUB_TWEEDIE]):
                try:
                    X[m] = sample_tweedie(nu[m], cfg.phi, cfg.p, g)
                except ValueError as exc:  # a validated cfg leaves only a rate numpy rejects
                    X[m], faults[m] = np.nan, str(exc)
        else:
            X = np.empty((M, I, J))
            for m, g in enumerate(sub[_SUB_COUNTS]):
                mu_i = cfg.mu * E[m] * (cfg.exposure_rate / cfg.exposure_shape)
                faults[m] = _rate_fault(rate := g.gamma(cfg.kappa, mu_i / cfg.kappa))
                # Row by row, as I single-row calls.
                X[m] = np.nan if faults[m] else g.multinomial(g.poisson(rate), pi)
            kind = "counts"

    observed = _observed_mask(I, J)
    # The future cells add one at a time in row-major order.
    truth = np.cumsum(X[:, ~observed], axis=1)[:, -1]
    return _Squares(np.where(observed, X, np.nan), E, truth, kind, faults)


def generate_triangle(cfg: SimConfig, replication: int) -> tuple[Triangle, float]:
    """Draw one complete run-off square, mask it, and report the truth.

    Returns the observed triangle (exposures attached) and the realised
    future amount the masked cells sum to: stage 1 of the coverage
    studies for a block of one replication (see _generate).
    """
    if replication < 0 or int(replication) != replication:
        raise SimulationError(f"replication must be a non-negative integer, got {replication}")
    sq = _generate(cfg, _derive_ids(0, _SIM_DOMAIN, replication))
    if sq.faults[0] is not None:
        raise SimulationError(f"generation: {sq.faults[0]}")
    return Triangle(sq.values[0], sq.kind, exposures=sq.exposures[0]), float(sq.truth[0])


def _true_F(cfg: SimConfig) -> np.ndarray | str:
    """The generating pattern's F at each accident year's lag, or the
    failure its pattern raises.

    Coverage studies hold the pattern at its generating value and let only
    the concentration estimate vary per triangle: the interval's coverage
    deficit is driven by c-hat noise, and anchoring on an estimated pattern
    would confound that with link-ratio noise that grows with J.
    """
    pi = np.asarray(cfg.pi_true, dtype=float)
    F = np.cumsum(pi)
    F[-1] = 1.0
    try:
        pattern = DevelopmentPattern(pi=tuple(pi), F=tuple(F), method="true")
    except PatternError as exc:
        return f"PatternError: {exc}"
    return pattern.F[_latest_lags(cfg.I, pattern.J)]


def _multinomial_totals(
    cfg: SimConfig, roots: np.ndarray, obs: np.ndarray, F: np.ndarray, c_hat: np.ndarray
) -> tuple[np.ndarray, list[str | None]]:
    """Stage 4 of the multinomial method: the (n, B) bootstrap totals of
    the replications' diagonals, each drawn from its _BOOT_MULTINOMIAL
    stream, and per replication None or the failure. A failed estimate
    fails first."""
    seeds = _derive_ids(roots, _BOOT_MULTINOMIAL)
    totals, faults, _, _ = _anchored_draws(obs, F, c_hat, seeds, cfg.B,
                                           cfg.inclusion_threshold, ratio=True, keep=False)
    return totals, [
        f"ConcentrationError: {_NO_USABLE_CELLS}" if np.isnan(c)
        else None if fault is None else f"PredictiveError: {fault}"
        for c, fault in zip(c_hat.tolist(), faults)
    ]


def _odp_totals(
    cfg: SimConfig, roots: np.ndarray, fits: list
) -> tuple[np.ndarray, list[str | None]]:
    """Stage 4 of the ODP method: per fit (_BOOT_ODP tag), odp_bootstrap's
    total and None or the failure: a failed fit, the draw kernel's error,
    then predictive._check_totals' (an earlier failure leaves a zero
    total, which passes). Each replication's years are folded before the
    next is drawn into the kernel's arrays, which this call alone keeps;
    the block's totals are checked once, after the last fold."""
    errors: list[str | None] = [None] * len(roots)
    work: dict = {}
    streams = _stream_generators(_derive_ids(roots, _BOOT_ODP), _derive_ids(0, _ODP_DOMAIN))
    totals, checks = np.zeros((len(roots), cfg.B)), [None] * len(roots)
    for k, (g, fit) in enumerate(zip(streams, fits)):
        if isinstance(fit, Exception):
            errors[k] = f"{type(fit).__name__}: {fit}"
            continue
        try:
            sums, _ = _odp_draws(fit, cfg.B, g, work)
        except OdpError as exc:
            errors[k] = f"OdpError: {exc}"
            continue
        _fold(totals[k], sums)
    _check_totals(totals, checks)
    return totals, [e or (c and f"PredictiveError: {c}") for e, c in zip(errors, checks)]


def _score(
    totals: np.ndarray,
    faults: list[str | None],
    truth: np.ndarray,
    points: np.ndarray,
    c_hat: np.ndarray,
) -> list[dict]:
    """Stage 5: each replication's realised future amount against the
    central 95% and 75% intervals of its row of totals, all rows from one
    sort. A replication already failed keeps its failure; a row whose
    quantiles fail fails its replication alone, with _quantiles' fault."""
    out: list[dict] = [{"failure": f} for f in faults]
    live = [k for k, f in enumerate(faults) if f is None]
    q, q_faults = _quantiles(totals[live], _SCORE_PROBS)
    t = truth[live]
    # The realised amount may be inf or NaN; the scores then read as the
    # scalar arithmetic gives them.
    with np.errstate(over="ignore", invalid="ignore"):
        covered95 = (q[:, 0] <= t) & (t <= q[:, 3])
        covered75 = (q[:, 1] <= t) & (t <= q[:, 2])
        rel_bias = (points[live] - t) / t
        rel_width = (q[:, 3] - q[:, 0]) / t
    rows = zip(live, q_faults, covered95.tolist(), covered75.tolist(), rel_bias.tolist(),
               rel_width.tolist())
    for k, fault, c95, c75, bias, width in rows:
        out[k] = ({"failure": f"PredictiveError: {fault}"} if fault is not None else
                  {"covered95": c95, "covered75": c75, "rel_bias": bias, "rel_width": width,
                   "c_hat": float(c_hat[k])})
    return out


def _run_block(
    cfg: SimConfig, reps: range, methods: tuple[str, ...], F: np.ndarray | str
) -> dict[str, list[dict]]:
    """Per method: the results of the contiguous replications reps, all
    taken through the five stages at once (module docstring); F is _true_F(cfg).

    The triangle, the CL point and c-hat are computed once for all
    methods. If the concentration estimator fails, the multinomial result
    is that failure and the ODP result carries c_hat = NaN.
    """
    roots = _derive_ids(0, _SIM_DOMAIN, np.array(reps))
    sq = _generate(cfg, roots)
    # A Poisson rate numpy rejected, the triangle's checks, then the truth and
    # the pattern, in the order a single replication meets them.
    faults = [None if f is None and e is None else f"generation: {f or e}"
              for f, e in zip(sq.faults, _value_errors(sq.values, sq.kind))]
    exposures_ok = np.isfinite(sq.exposures).all(axis=1)
    for m, fault in enumerate(faults):
        if fault is not None:
            continue
        if not exposures_ok[m]:
            faults[m] = f"generation: {_NON_FINITE_EXPOSURE}"
        elif sq.truth[m] <= 0.0:
            faults[m] = "non-positive realised future reserve"
        elif isinstance(F, str):
            faults[m] = F
    results = {method: [{"failure": f} for f in faults] for method in methods}
    live = [m for m, f in enumerate(faults) if f is None]
    if not live:
        return results
    values, truth = sq.values[live], sq.truth[live]
    live_roots = roots[live]
    # Pattern validation keeps every F positive, so grossing up cannot fail.
    obs = _diagonal_totals(values)
    points = _cl_reserves(obs, F)[1].sum(axis=1)
    try:
        c_hat = estimate_c_batch(values)
    except ConcentrationError:  # no horizon qualifies at this I and J
        c_hat = np.full(len(live), np.nan)
    for method in methods:
        if method == "multinomial":
            totals, method_faults = _multinomial_totals(cfg, live_roots, obs, F, c_hat)
        else:
            totals, method_faults = _odp_totals(cfg, live_roots, _odp_fits(values))
        for m, result in zip(live, _score(totals, method_faults, truth, points, c_hat)):
            results[method][m] = result
    return results


def _run_reps(
    cfg: SimConfig, methods: tuple[str, ...] = ("multinomial",)
) -> dict[str, list[dict]]:
    """Per method: the M replication results, run in contiguous blocks of at
    most _BLOCK_REPS, max(1, _BLOCK_DRAWS // B) and ceil(M / threads)
    replications, made one by one as they are taken, the pool holding at
    most `threads`: a huge M builds nothing ahead. Results and errors come
    in block order."""
    for method in methods:
        if method not in _METHODS:
            raise SimulationError(f"unknown method {method!r}; expected one of {_METHODS}")
    size = max(1, min(-(-cfg.M // cfg.threads), _BLOCK_REPS, _BLOCK_DRAWS // cfg.B))
    blocks = (range(a, min(a + size, cfg.M)) for a in range(0, cfg.M, size))
    run = functools.partial(_run_block, cfg, methods=methods, F=_true_F(cfg))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            running = deque(pool.submit(run, block) for block in islice(blocks, cfg.threads))
            done = []
            while running:  # the oldest block is collected, then the next one taken
                done.append(running.popleft().result())
                running.extend(pool.submit(run, block) for block in islice(blocks, 1))
    else:
        done = list(map(run, blocks))
    return {method: [r for block in done for r in block[method]] for method in methods}


def _aggregate(results: list[dict], runtime: float, head: dict) -> dict:
    """One study row: the head, the replication counts, and the means over
    the scored replications, each None when none was scored, in which case
    up to three distinct failures are named."""
    failures = [r["failure"] for r in results if "failure" in r]
    ok = [r for r in results if "failure" not in r]
    n = len(ok)

    def mean(key: str) -> float | None:
        return float(np.mean([r[key] for r in ok])) if n else None

    def mc_se(p: float | None) -> float | None:
        return None if p is None else float(np.sqrt(p * (1.0 - p) / n))

    cov95, cov75 = mean("covered95"), mean("covered75")
    chats = np.array([r["c_hat"] for r in ok])
    finite = np.isfinite(chats)
    row = {
        **head,
        "n_reps": len(results),
        "n_effective": n,
        "failures": len(failures),
        "coverage95": cov95,
        "mc_se95": mc_se(cov95),
        "coverage75": cov75,
        "mc_se75": mc_se(cov75),
        "rel_bias": mean("rel_bias"),
        "rel_width": mean("rel_width"),
        "mean_c_hat": float(chats[finite].mean()) if finite.any() else None,
        "runtime_s": runtime,
    }
    if n == 0 and failures:
        row["failure_reasons"] = "; ".join(sorted(set(failures))[:3])
    return row


def _run_scenarios(
    study: str,
    config: dict,
    scenarios: list[tuple[dict, SimConfig | SimulationError]],
    methods: tuple[str, ...] | None = None,
) -> SimulationReport:
    """Run every (row head, SimConfig) scenario of a coverage study.

    Each scenario gives one row per method, and its rows share one
    runtime_s: the scenario's wall time. methods names the bootstraps to
    score and puts a method column after the head; when omitted, the
    multinomial bootstrap runs alone with no method column. When both
    methods run, the multinomial row also carries the paired counts (see
    _paired_counts). A SimulationError in place of a config gives a row
    of no replications that names it.
    """
    rows = []
    for head, sub in scenarios:
        if isinstance(sub, SimulationError):
            rows.append({**head, "n_reps": 0, "n_effective": 0, "failures": 0,
                         "coverage95": None, "mc_se95": None, "failure_reasons": str(sub)})
            continue
        start = time.perf_counter()
        runs = _run_reps(sub, methods or ("multinomial",))
        runtime = time.perf_counter() - start
        for method, results in runs.items():
            row_head = {**head, "method": method} if methods else head
            rows.append(_aggregate(results, runtime, row_head))
        if methods == _METHODS:
            rows[-2].update(_paired_counts(runs["multinomial"], runs["odp"]))
    return SimulationReport(study=study, rows=rows, config=config)


def run_coverage_study(cfg: SimConfig, method: str = "multinomial") -> SimulationReport:
    """Coverage, bias and width of one method under one scenario.

    Per replication: generate, take the CL point at the true pattern,
    estimate c, bootstrap (the odp method first fits the ODP surface),
    and score the realised future reserve against the central 95% and
    75% intervals. Replication-level failures are counted, not fatal.
    """
    scenarios = [({"dgp": _dgp_label(cfg)}, cfg)]
    return _run_scenarios("coverage", asdict(cfg), scenarios, (method,))


def _dgp_label(cfg: SimConfig) -> str:
    if cfg.dgp == "nonstationary":
        return f"nonstationary(var={cfg.sigma_delta:g})"
    if cfg.dgp == "tweedie":
        return f"tweedie(p={cfg.p:g})"
    return cfg.dgp


def nonstationarity_sweep(
    cfg: SimConfig, sigma_values: tuple[float, ...] = (0.0, 0.02, 0.05, 0.10)
) -> SimulationReport:
    """Coverage degradation as the pattern perturbation grows."""
    heads = [{"sigma_delta": float(s)} for s in sigma_values]
    scenarios = [(head, replace(cfg, dgp="nonstationary", **head)) for head in heads]
    return _run_scenarios("nonstat", asdict(cfg), scenarios)


def _phi_for_power(p: float, fallback: float) -> float:
    for key, phi in TWEEDIE_PHI_BY_POWER.items():
        if abs(p - key) < 1e-9:
            return phi
    return fallback


def tweedie_sweep(
    cfg: SimConfig,
    p_values: tuple[float, ...] = (1.3, 1.5, 1.8),
    phi_values: tuple[float, ...] | None = None,
) -> SimulationReport:
    """Coverage under compound Poisson-Gamma cells across the power range.

    phi_values: per-power dispersions, aligned with p_values. When omitted,
    each power takes its calibrated entry from TWEEDIE_PHI_BY_POWER and
    powers outside the table fall back to cfg.phi.
    """
    if phi_values is not None and len(phi_values) != len(p_values):
        raise SimulationError(
            f"phi_values has {len(phi_values)} entries for {len(p_values)} powers"
        )
    resolved = {}
    if phi_values is None:
        phi_values = [_phi_for_power(p, cfg.phi) for p in p_values]
        resolved["phi_values"] = phi_values
    heads = [{"p": float(p), "phi": float(phi)} for p, phi in zip(p_values, phi_values)]
    scenarios = [(head, replace(cfg, dgp="tweedie", **head)) for head in heads]
    report = _run_scenarios("tweedie", asdict(cfg), scenarios)
    report.resolved = resolved
    return report


def _paired_counts(multi: list[dict], odp: list[dict]) -> dict:
    """Discordant 95% coverage counts of two methods on the same replications.

    Only replications that both methods scored enter. multi_only95 counts
    those covered by the multinomial interval alone, odp_only95 those
    covered by the ODP interval alone, so the paired coverage difference
    is (multi_only95 - odp_only95) / paired_n and its McNemar-style Monte
    Carlo standard error is sqrt(n10 + n01 - (n10 - n01)^2 / n) / n.
    """
    pairs = [(a["covered95"], b["covered95"]) for a, b in zip(multi, odp)
             if "failure" not in a and "failure" not in b]
    n = len(pairs)
    n10 = sum(1 for a, b in pairs if a and not b)
    n01 = sum(1 for a, b in pairs if b and not a)
    se = math.sqrt(n10 + n01 - (n10 - n01) ** 2 / n) / n if n else None
    return {"multi_only95": n10, "odp_only95": n01, "paired_n": n, "paired_se95": se}


def compare_odp(cfg: SimConfig) -> SimulationReport:
    """Both bootstraps on identical triangles, five scenarios.

    Each replication's triangle is generated once and scored by both
    procedures (see _run_block). Each multinomial row also carries its
    paired counts against the ODP row that follows it (see
    _paired_counts).
    """
    configs = [
        replace(cfg, dgp="dirichlet-gamma"),
        replace(cfg, dgp="nonstationary", sigma_delta=0.05),
        replace(cfg, dgp="tweedie", p=1.3, phi=_phi_for_power(1.3, cfg.phi)),
        replace(cfg, dgp="tweedie", p=1.5, phi=_phi_for_power(1.5, cfg.phi)),
        replace(cfg, dgp="tweedie", p=1.8, phi=_phi_for_power(1.8, cfg.phi)),
    ]
    scenarios = [({"dgp": _dgp_label(sub)}, sub) for sub in configs]
    return _run_scenarios("compare-odp", asdict(cfg), scenarios, _METHODS)


def sensitivity_grid(
    c_list=(10, 20, 30, 50, 100, 200),
    I_list=(7, 10, 15),
    J_list=(5, 10),
    M: int = 500,
    B: int = 500,
    seed: int = 2026,
    threads: int = 1,
) -> SimulationReport:
    """95% coverage over a (c, I, J) grid under the well-specified model.

    Grid cells where every replication fails (the chain ladder needs a
    complete pair of columns at each lag, so J cannot exceed I's reach)
    report absent coverage rather than raising.
    """
    for c in c_list:
        if not math.isfinite(c):
            raise SimulationError(f"grid concentrations must be finite, got {c}")
    scenarios = []
    for J in J_list:
        for I in I_list:
            for c in c_list:
                head = {"J": int(J), "I": int(I), "c_true": float(c)}
                try:
                    sub = SimConfig(**head, M=M, B=B, seed=seed, threads=threads)
                except SimulationError as exc:
                    sub = exc
                scenarios.append((head, sub))
    config = {"c_list": list(c_list), "I_list": list(I_list), "J_list": list(J_list),
              "M": M, "B": B, "seed": seed}
    report = _run_scenarios("grid", config, scenarios)
    for row in report.rows:
        for k in ("coverage75", "mc_se75", "rel_bias", "rel_width"):
            row.pop(k, None)
    return report


def verify_sigma_c(
    c_values=(20.0, 50.0, 100.0),
    I: int = 100,
    M: int = 10_000,
    seed: int = 2026,
    divisor: str = "unbiased",
) -> SimulationReport:
    """Monte Carlo check of the per-cell asymptotic variance formula.

    For each c, M proportion squares of I Dirichlet(c pi) rows are
    simulated on the five-lag pattern; the report compares I times the
    empirical variance of the median-aggregated estimate against the
    single-cell formula at pi = 0.45. Ratios well below one show how
    much the median across cells tightens the estimate.
    """
    if I < 20:
        raise SimulationError(f"need I >= 20 for stable horizon coverage, got {I}")
    if M < 2:
        raise SimulationError("need at least two replications to estimate a variance")
    pi = np.asarray(PATTERN_J5)
    if M * I * pi.size * 8 > np.iinfo(np.intp).max:  # the bytes of each c's draws
        raise SimulationError(f"M = {M} and I = {I} are too large: an (M, I, {pi.size}) "
                              "array of floats exceeds numpy's limit")
    formulas = []  # every c is checked before the first draw
    for c in c_values:
        if not 0.0 < c < math.inf:
            raise SimulationError(f"c must be positive and finite, got {c}")
        formulas.append(sigma_c_squared(float(c), 0.45))
        if not math.isfinite(formulas[-1]):
            raise SimulationError(f"c = {c} is too large: sigma_c_squared overflows")
    rows = []
    for idx, (c, formula) in enumerate(zip(c_values, formulas)):
        g = RngStream(seed).derive(_SIM_DOMAIN, _TAG_SIGMA, idx).generator()
        P = g.dirichlet(float(c) * pi, size=(M, I))
        chats = estimate_c_batch(P, divisor)
        valid = np.isfinite(chats)
        n = int(valid.sum())
        emp = float(I * np.var(chats[valid], ddof=1)) if n >= 2 else None
        rows.append(
            {
                "c": float(c),
                "formula": formula,
                "empirical_I_var": emp,
                "ratio": None if emp is None else emp / formula,
                "mean_c_hat": float(chats[valid].mean()) if n >= 2 else None,
                "n_effective": n,
            }
        )
    return SimulationReport(
        study="sigma-c",
        rows=rows,
        config={"c_values": [float(c) for c in c_values], "I": I, "M": M,
                "seed": seed, "divisor": divisor},
    )


def verify_conservatism(
    F_values=(0.1, 0.5, 0.8),
    nu: float = 1e6,
    phi: float = 100.0,
    M: int = 2000,
    seed: int = 2026,
) -> SimulationReport:
    """Directional check of the bootstrap's width under thin-tailed cells.

    Single accident years are simulated as compound Poisson with
    exponential severities (mean nu, variance phi nu), split into an
    observed part at development F and an unobserved remainder. The
    bootstrap's limiting standard deviation, evaluated in closed form at
    the concentration the estimator converges to (nu/phi - 1), is
    compared with the true standard deviation of the remainder; the
    ratio approaches 1/sqrt(F) as nu grows.
    """
    # The concentration nu/phi - 1 must be positive, and the claim rate
    # 2 nu/phi one numpy's Poisson sampler takes.
    if not (0.0 < nu < math.inf and 0.0 < phi < math.inf and 1.0 < nu / phi <= _NU_PHI_MAX):
        got = f"phi = {phi:g}" if phi == 0.0 else f"nu/phi = {nu / phi:g}"
        raise SimulationError(f"nu and phi must be positive and finite with nu/phi in "
                              f"(1, {_NU_PHI_MAX:.6g}], got {got}")
    lam = 2.0 * (nu / phi)  # claim rate making the cell variance phi * nu
    if M < 2:
        raise SimulationError("need at least two replications")
    if M * 8 > np.iinfo(np.intp).max:  # the bytes of each F's draws
        raise SimulationError(f"M = {M} is too large: an array of M floats exceeds numpy's limit")
    c_used = nu / phi - 1.0
    rows = []
    for idx, F in enumerate(F_values):
        if not 0.0 < F < 1.0:
            raise SimulationError(f"F must lie strictly between 0 and 1, got {F}")
        moments = beta_prime_moments(c_used, float(F))
        if moments.variance is None:
            raise SimulationError(
                f"bootstrap variance does not exist at c={c_used:g}, F={F:g}; increase nu/phi"
            )
        g = RngStream(seed).derive(_SIM_DOMAIN, _TAG_CONSERVATISM, idx).generator()
        scale = phi / 2.0  # exponential severity mean
        n_obs = g.poisson(lam * F, size=M)
        n_fut = g.poisson(lam * (1.0 - F), size=M)
        # Gamma at shape 0 draws exactly 0, covering empty claim counts.
        x_obs = g.gamma(n_obs, scale)
        x_fut = g.gamma(n_fut, scale)
        sd_true = float(np.std(x_fut, ddof=1))
        if sd_true == 0.0:
            raise SimulationError(
                f"every simulated remainder at F={F:g} is equal, so its spread is zero; "
                "increase M or nu/phi"
            )
        sd_boot = float(np.mean(x_obs) * np.sqrt(moments.variance))
        target = 1.0 / np.sqrt(F)
        rows.append(
            {
                "F": float(F),
                "sd_boot": sd_boot,
                "sd_true": sd_true,
                "ratio": sd_boot / sd_true,
                "target": float(target),
                "rel_error": float(sd_boot / sd_true / target - 1.0),
            }
        )
    return SimulationReport(
        study="conservatism",
        rows=rows,
        config={"F_values": [float(F) for F in F_values], "nu": nu, "phi": phi,
                "M": M, "seed": seed},
    )


def _parse_pattern(text: str, parse=float) -> tuple:
    return tuple(parse(x) for x in text.replace(",", " ").split())


def _parse_integer(text: str, expected: str = "an integer") -> int:
    """The one integer rule of config lines and CLI flags: a decimal
    integer is read exactly, and an integral float spelling such as 1e6 or
    7.0 as the integer it spells; a fraction, nan, inf or a word is a
    ValueError that names text."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        value = float(text)
    except ValueError:
        value = math.nan  # a word fails as nan does
    if not value.is_integer():  # nan and inf included
        raise ValueError(f"expected {expected}, got {text}")
    return int(value)


# One parser per SimConfig field, chosen by its annotation; pi_true is a
# comma- or space-separated list.
_SCALAR_CASTS = {"int": _parse_integer, "float": float, "str": str}
_CONFIG_CASTS = {
    f.name: _parse_pattern if f.name == "pi_true" else _SCALAR_CASTS[f.type]
    for f in fields(SimConfig)
}


def parse_config_text(text: str) -> dict:
    """key = value lines, # comments, blank lines ignored."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise SimulationError(f"config line {lineno}: expected key = value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        if key not in _CONFIG_CASTS:
            raise SimulationError(f"config line {lineno}: unknown key {key!r}")
        if key in values:
            raise SimulationError(f"config line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _CONFIG_CASTS[key](val.strip())
        except ValueError as exc:
            raise SimulationError(f"config line {lineno}: bad value for {key!r}: {exc}") from exc
    return values
