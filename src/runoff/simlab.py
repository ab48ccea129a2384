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
against the interval. A study runs a contiguous block of replications
through five stages at a time (_run_block):

  1. generate   each replication's square from its own substreams into
                an (M, I, J) block; the truth is the sum of its future
                cells in row-major order, and the triangle checks run
                once over the block
  2. CL point   each row's latest-diagonal total, taken once, grossed up
                by the generating pattern, built once per scenario
  3. estimate   c-hat of every triangle by estimate_c_batch
  4. draw       per replication and accident year, the Beta variates of
                that year's stream, folded in year order into a block of
                totals, one row per replication; the ODP method instead
                fits every triangle of the block at once (odp._odp_fits)
                and runs odp_bootstrap's draw kernel per replication on
                arrays the block keeps, folding its years into the totals
  5. score      the realised future amount against the 95% and 75%
                intervals of each row of totals, from one sort

Stages 4 and 5 take a block's replications in slices of at most
_SLICE_DRAWS // B of them (at least one): a slice holds its (n, B) totals
and one (n, B) block of draws at a time, which bounds the memory a block
holds at any B.

A replication that fails a stage records the message the single-triangle
functions would raise and drops out of the later stages; the rest of the
block moves on. Every draw is keyed by (seed, study domain, replication
index) and then by a per-replication tag: _SUB_* for the square,
_BOOT_MULTINOMIAL and the accident year (predictive._ROW_DOMAIN) for the
Beta draws, _BOOT_ODP for the residual bootstrap. So any replication can
be regenerated in isolation, and the block size never changes results.
A block derives its stream ids with distributions._derive_ids and opens
each stage's generators in one distributions._stream_generators call,
which gives the generators RngStream would, bit for bit.
With threads > 1 the blocks hold at most M / threads replications each
(rounded up) and run on a thread pool: numpy releases the GIL in the
draws and the sorts, so the blocks overlap.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace
from typing import NamedTuple

import numpy as np

from .concentration import (
    _NO_USABLE_CELLS,
    ConcentrationError,
    estimate_c_batch,
    sigma_c_squared,
)
from .distributions import (
    _MASK64,
    RngStream,
    _derive_ids,
    _stream_generators,
    beta_prime_moments,
    sample_tweedie,
)
from .odp import OdpError, _odp_draws, _odp_fits
from .patterns import DevelopmentPattern, PatternError, _cl_reserves
from .predictive import (
    _MOMENTS_OVERFLOW,
    _TOTAL_OVERFLOW,
    PredictiveError,
    _cl_totals,
    _mean_se,
    _quantiles,
)
from .triangle import (
    _NON_FINITE_EXPOSURE,
    Triangle,
    _diagonal_totals,
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
# Replications a block takes through the generate, CL point and estimate
# stages at once: enough to spread those stages' numpy calls thin.
_BLOCK_REPS = 64
# Bootstrap totals held at once (128 KiB of float64): the draw and score
# stages take a block's replications in slices of max(1, _SLICE_DRAWS // B),
# each holding its totals and one block of that many rows of draws, so a
# block's transient arrays stay about as small as one replication's.
_SLICE_DRAWS = 1 << 14


class SimulationError(ValueError):
    """A study configuration is invalid or a study cannot proceed."""


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
        if self.inclusion_threshold < 0.0:
            raise SimulationError("inclusion_threshold cannot be negative")
        if self.threads < 1:
            raise SimulationError("threads must be at least 1")


@dataclass
class SimulationReport:
    """Rows of study results plus the config that produced them.

    rows is a list of plain dicts so that differently shaped studies
    (coverage tables, the variance verification, the conservatism
    check) share one report type and one pair of writers. Values are
    Python scalars or None; None renders as an absent cell. resolved
    holds the study arguments a study works out itself when they are not
    given (tweedie_sweep's dispersions); the CLI's manifest records them,
    the report files do not.
    """

    study: str
    rows: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    runtime_s: float = 0.0
    resolved: dict = field(default_factory=dict)

    def columns(self) -> list[str]:
        cols: list[str] = []
        for row in self.rows:
            for key in row:
                if key not in cols:
                    cols.append(key)
        return cols

    def write_csv(self, path) -> None:
        cols = self.columns()
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(cols)
            for row in self.rows:
                w.writerow(["" if row.get(k) is None else row.get(k) for k in cols])

    def write_json(self, path) -> None:
        payload = {
            "study": self.study,
            "config": self.config,
            "runtime_s": self.runtime_s,
            "rows": self.rows,
        }
        with open(path, "w") as fh:
            json.dump(payload, fh, indent=2, allow_nan=False)
            fh.write("\n")

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
        lines = ["  ".join(c.ljust(w) for c, w in zip(cols, widths))]
        for r in table:
            lines.append("  ".join(v.ljust(w) for v, w in zip(r, widths)))
        return "\n".join(lines)


class _Squares(NamedTuple):
    """Stage 1 output for a block of M replications."""

    values: np.ndarray  # (M, I, J) increments, NaN in the future cells
    exposures: np.ndarray  # (M, I)
    truth: np.ndarray  # (M,) realised future amounts
    kind: str


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
    streams = _stream_generators(np.full(ids.size, cfg.seed & _MASK64, dtype=np.uint64), ids)
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
    E = np.empty((M, I))
    for m, g in enumerate(sub[_SUB_EXPOSURE]):
        E[m] = g.gamma(cfg.exposure_shape, 1.0 / cfg.exposure_rate, size=I)
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
            X[m] = sample_tweedie(nu[m], cfg.phi, cfg.p, g)
    else:
        X = np.empty((M, I, J))
        for m, g in enumerate(sub[_SUB_COUNTS]):
            mu_i = cfg.mu * E[m] * (cfg.exposure_rate / cfg.exposure_shape)
            N = g.poisson(g.gamma(cfg.kappa, mu_i / cfg.kappa))
            X[m] = g.multinomial(N, pi)  # row by row, as I single-row calls
        kind = "counts"

    observed = _observed_mask(I, J)
    # The future cells add one at a time in row-major order.
    truth = np.cumsum(X[:, ~observed], axis=1)[:, -1]
    return _Squares(np.where(observed, X, np.nan), E, truth, kind)


def generate_triangle(cfg: SimConfig, replication: int) -> tuple[Triangle, float]:
    """Draw one complete run-off square, mask it, and report the truth.

    Returns the observed triangle (exposures attached) and the realised
    future amount the masked cells sum to: stage 1 of the coverage
    studies for a block of one replication (see _generate).
    """
    if replication < 0 or int(replication) != replication:
        raise SimulationError(f"replication must be a non-negative integer, got {replication}")
    sq = _generate(cfg, _derive_ids(0, _SIM_DOMAIN, replication))
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
    return np.array([pattern.F_at_lag(cfg.I - i) for i in range(1, cfg.I + 1)])


def _multinomial_totals(
    cfg: SimConfig, roots: np.ndarray, obs: np.ndarray, F: np.ndarray, c_hat: np.ndarray
) -> tuple[np.ndarray, list[str | None]]:
    """Stage 4 of the multinomial method: the (n, B) bootstrap totals of
    the replications' diagonals, each drawn from its _BOOT_MULTINOMIAL
    stream, and per replication None or the failure. A failed estimate
    fails first."""
    seeds = _derive_ids(roots, _BOOT_MULTINOMIAL)
    totals, faults = _cl_totals(obs, F, c_hat, cfg.B, seeds, cfg.inclusion_threshold)
    return totals, [
        f"ConcentrationError: {_NO_USABLE_CELLS}" if np.isnan(c)
        else None if fault is None else f"PredictiveError: {fault}"
        for c, fault in zip(c_hat.tolist(), faults)
    ]


def _odp_totals(
    cfg: SimConfig, roots: np.ndarray, fits: list, work: dict
) -> tuple[np.ndarray, list[str | None]]:
    """Stage 4 of the ODP method: the (n, B) totals odp_bootstrap draws for
    each fit (_BOOT_ODP tag), from its draw kernel with years added in year
    order, and per replication None or the failure: a failed fit, the
    kernel's error, then odp_bootstrap's total and mean/se checks in its
    order. work holds the kernel's arrays for the calling block."""
    totals = np.zeros((len(roots), cfg.B))
    faults: list[str | None] = [None] * len(roots)
    seeds = _derive_ids(roots, _BOOT_ODP).tolist()
    for k, (seed, fit) in enumerate(zip(seeds, fits)):
        if isinstance(fit, Exception):
            faults[k] = f"{type(fit).__name__}: {fit}"
            continue
        try:
            years, _ = _odp_draws(fit, cfg.B, seed, work)
        except OdpError as exc:
            faults[k] = f"OdpError: {exc}"
            continue
        with np.errstate(over="ignore"):
            for year in years:
                totals[k] += year
    finite = np.isfinite(totals).all(axis=1)
    _, _, moments_ok = _mean_se(totals)
    for k, fault in enumerate(faults):
        if fault is None and not finite[k]:
            faults[k] = f"PredictiveError: {_TOTAL_OVERFLOW}"
        elif fault is None and not moments_ok[k]:
            faults[k] = f"PredictiveError: {_MOMENTS_OVERFLOW}"
    return totals, faults


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
    quantiles cannot be taken fails its replication alone."""
    out: list[dict] = [{"failure": f} for f in faults]
    live = [k for k, f in enumerate(faults) if f is None]
    try:
        q = _quantiles(totals[live], _SCORE_PROBS)
    except PredictiveError:
        q = []
        for k in list(live):
            try:
                q.append(_quantiles(totals[k], _SCORE_PROBS))
            except PredictiveError as exc:
                out[k] = {"failure": f"PredictiveError: {exc}"}
                live.remove(k)
        q = np.array(q).reshape(len(live), _SCORE_PROBS.size)
    t = truth[live]
    # The realised amount may be inf or NaN; the scores then read as the
    # scalar arithmetic gives them.
    with np.errstate(over="ignore", invalid="ignore"):
        covered95 = (q[:, 0] <= t) & (t <= q[:, 3])
        covered75 = (q[:, 1] <= t) & (t <= q[:, 2])
        rel_bias = (points[live] - t) / t
        rel_width = (q[:, 3] - q[:, 0]) / t
    rows = zip(live, covered95.tolist(), covered75.tolist(), rel_bias.tolist(),
               rel_width.tolist())
    for k, c95, c75, bias, width in rows:
        out[k] = {"covered95": c95, "covered75": c75, "rel_bias": bias, "rel_width": width,
                  "c_hat": float(c_hat[k])}
    return out


def _run_block(
    cfg: SimConfig, reps: range, methods: tuple[str, ...], F: np.ndarray | str
) -> dict[str, list[dict]]:
    """Per method: the results of the contiguous replications reps, taken
    through the five stages (see the module docstring), the last two in
    slices of max(1, _SLICE_DRAWS // B) replications. F is _true_F(cfg).

    The triangle, the CL point and c-hat are computed once for all
    methods. If the concentration estimator fails, the multinomial result
    is that failure and the ODP result carries c_hat = NaN.
    """
    roots = _derive_ids(np.zeros(len(reps), dtype=np.uint64), _SIM_DOMAIN, np.array(reps))
    sq = _generate(cfg, roots)
    # The triangle's checks, then the truth and the pattern, in the order a
    # single replication meets them.
    faults = [None if e is None else f"generation: {e}" for e in _value_errors(sq.values, sq.kind)]
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
    fits = _odp_fits(values) if "odp" in methods else []
    work: dict = {}  # the ODP kernel's arrays, this block's alone
    step = max(1, _SLICE_DRAWS // cfg.B)
    for a in range(0, len(live), step):
        part = slice(a, a + step)
        for method in methods:
            if method == "multinomial":
                totals, method_faults = _multinomial_totals(
                    cfg, live_roots[part], obs[part], F, c_hat[part])
            else:
                totals, method_faults = _odp_totals(cfg, live_roots[part], fits[part], work)
            scored = _score(totals, method_faults, truth[part], points[part], c_hat[part])
            for m, result in zip(live[part], scored):
                results[method][m] = result
    return results


def _run_reps(
    cfg: SimConfig, methods: tuple[str, ...] = ("multinomial",)
) -> dict[str, list[dict]]:
    """Per method: the M replication results, run in contiguous blocks of
    at most _BLOCK_REPS replications, and at least one block per thread."""
    for method in methods:
        if method not in _METHODS:
            raise SimulationError(f"unknown method {method!r}; expected one of {_METHODS}")
    size = min(-(-cfg.M // cfg.threads), _BLOCK_REPS)
    blocks = [range(a, min(a + size, cfg.M)) for a in range(0, cfg.M, size)]
    run = functools.partial(_run_block, cfg, methods=methods, F=_true_F(cfg))
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            done = list(pool.map(run, blocks))
    else:
        done = list(map(run, blocks))
    return {method: [r for block in done for r in block[method]] for method in methods}


def _aggregate(results: list[dict], runtime: float, head: dict) -> dict:
    failures = [r["failure"] for r in results if "failure" in r]
    ok = [r for r in results if "failure" not in r]
    n = len(ok)
    row = dict(head)
    row.update({"n_reps": len(results), "n_effective": n, "failures": len(failures)})
    if n == 0:
        row.update(
            {
                "coverage95": None,
                "mc_se95": None,
                "coverage75": None,
                "mc_se75": None,
                "rel_bias": None,
                "rel_width": None,
                "mean_c_hat": None,
                "runtime_s": runtime,
            }
        )
        if failures:
            row["failure_reasons"] = "; ".join(sorted(set(failures))[:3])
        return row
    cov95 = float(np.mean([r["covered95"] for r in ok]))
    cov75 = float(np.mean([r["covered75"] for r in ok]))
    chats = np.array([r["c_hat"] for r in ok])
    finite = np.isfinite(chats)
    row.update(
        {
            "coverage95": cov95,
            "mc_se95": float(np.sqrt(cov95 * (1.0 - cov95) / n)),
            "coverage75": cov75,
            "mc_se75": float(np.sqrt(cov75 * (1.0 - cov75) / n)),
            "rel_bias": float(np.mean([r["rel_bias"] for r in ok])),
            "rel_width": float(np.mean([r["rel_width"] for r in ok])),
            "mean_c_hat": float(chats[finite].mean()) if finite.any() else None,
            "runtime_s": runtime,
        }
    )
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
    start = time.perf_counter()
    rows = []
    for head, sub in scenarios:
        if isinstance(sub, SimulationError):
            rows.append({**head, "n_reps": 0, "n_effective": 0, "failures": 0,
                         "coverage95": None, "mc_se95": None, "failure_reasons": str(sub)})
            continue
        scenario_start = time.perf_counter()
        runs = _run_reps(sub, methods or ("multinomial",))
        runtime = time.perf_counter() - scenario_start
        for method, results in runs.items():
            row_head = {**head, "method": method} if methods else head
            rows.append(_aggregate(results, runtime, row_head))
        if methods == _METHODS:
            rows[-2].update(_paired_counts(runs["multinomial"], runs["odp"]))
    return SimulationReport(study=study, rows=rows, config=config,
                            runtime_s=time.perf_counter() - start)


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
    start = time.perf_counter()
    rows = []
    for idx, c in enumerate(c_values):
        if not 0.0 < c < math.inf:
            raise SimulationError(f"c must be positive and finite, got {c}")
        g = RngStream(seed).derive(_SIM_DOMAIN, _TAG_SIGMA, idx).generator()
        P = g.dirichlet(float(c) * pi, size=(M, I))
        chats = estimate_c_batch(P, divisor)
        valid = np.isfinite(chats)
        n = int(valid.sum())
        formula = sigma_c_squared(float(c), 0.45)
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
        runtime_s=time.perf_counter() - start,
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
    if not (0.0 < nu < math.inf and 0.0 < phi < math.inf):
        raise SimulationError("nu and phi must be positive and finite")
    if M < 2:
        raise SimulationError("need at least two replications")
    c_used = nu / phi - 1.0
    start = time.perf_counter()
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
        lam = 2.0 * nu / phi  # claim rate making the cell variance phi * nu
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
        runtime_s=time.perf_counter() - start,
    )


def _parse_pattern(text: str) -> tuple[float, ...]:
    return tuple(float(x) for x in text.replace(",", " ").split())


# One parser per SimConfig field, chosen by its annotation; pi_true is a
# comma- or space-separated list.
_SCALAR_CASTS = {"int": int, "float": float, "str": str}
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


def load_sim_config(path, **overrides) -> SimConfig:
    """Build a SimConfig from a key-value file plus keyword overrides."""
    with open(path) as fh:
        values = parse_config_text(fh.read())
    values.update({k: v for k, v in overrides.items() if v is not None})
    unknown = set(values) - set(_CONFIG_CASTS)
    if unknown:
        raise SimulationError(f"unknown config fields: {sorted(unknown)}")
    return SimConfig(**values)
