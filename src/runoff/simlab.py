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
against the interval. Replication draws are keyed by (seed, study
domain, replication index) so any replication can be regenerated in
isolation and thread counts never change results.
"""

from __future__ import annotations

import csv
import json
import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .concentration import ConcentrationError, estimate_c, estimate_c_batch, sigma_c_squared
from .distributions import RngStream, beta_prime_moments, sample_tweedie
from .odp import OdpError, odp_bootstrap, odp_fit
from .patterns import DevelopmentPattern, PatternError, cl_ultimates
from .predictive import PredictiveError, _quantiles, multinomial_bootstrap
from .triangle import Triangle, TriangleError, _observed_mask, latest_diagonal

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
    Python scalars or None; None renders as an absent cell.
    """

    study: str
    rows: list[dict] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    runtime_s: float = 0.0

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


def generate_triangle(cfg: SimConfig, replication: int) -> tuple[Triangle, float]:
    """Draw one complete run-off square, mask it, and report the truth.

    Returns the observed triangle (exposures attached) and the realised
    future amount the masked cells sum to. Draws come from substreams of
    (seed, study domain, replication), one per model component, so the
    nonstationary process at sigma_delta = 0 consumes exactly the same
    allocation draws as dirichlet-gamma and reproduces it bit for bit.
    """
    if replication < 0 or int(replication) != replication:
        raise SimulationError(f"replication must be a non-negative integer, got {replication}")
    I, J = cfg.I, cfg.J
    pi = np.asarray(cfg.pi_true)
    root = RngStream(cfg.seed).derive(_SIM_DOMAIN, replication)
    E = root.derive(_SUB_EXPOSURE).generator().gamma(
        cfg.exposure_shape, 1.0 / cfg.exposure_rate, size=I
    )
    kind = "amounts"
    if cfg.dgp in ("dirichlet-gamma", "nonstationary"):
        S = root.derive(_SUB_ULTIMATE).generator().gamma(
            cfg.ultimate_shape_factor * E, 1.0 / cfg.ultimate_rate
        )
        alphas = np.tile(cfg.c_true * pi, (I, 1))
        if cfg.dgp == "nonstationary" and cfg.sigma_delta > 0.0:
            z = root.derive(_SUB_PERTURBATION).generator().standard_normal((I, J))
            row_pi = np.exp(np.log(pi)[None, :] + np.sqrt(cfg.sigma_delta) * z)
            row_pi /= row_pi.sum(axis=1, keepdims=True)
            alphas = cfg.c_true * row_pi
        G = root.derive(_SUB_ALLOCATION).generator().gamma(alphas, 1.0)
        W = G / G.sum(axis=1, keepdims=True)
        X = S[:, None] * W
    elif cfg.dgp == "tweedie":
        mean_scale = cfg.ultimate_shape_factor / cfg.ultimate_rate
        nu = (mean_scale * E)[:, None] * pi[None, :]
        X = sample_tweedie(nu, cfg.phi, cfg.p, root.derive(_SUB_TWEEDIE))
    else:
        g = root.derive(_SUB_COUNTS).generator()
        mu_i = cfg.mu * E * (cfg.exposure_rate / cfg.exposure_shape)
        lam = g.gamma(cfg.kappa, mu_i / cfg.kappa)
        N = g.poisson(lam)
        X = np.empty((I, J))
        for i in range(I):
            X[i] = g.multinomial(N[i], pi)
        kind = "counts"

    observed = _observed_mask(I, J)
    # The future cells add one at a time in row-major order.
    truth = np.cumsum(X[~observed])[-1]
    t = Triangle(np.where(observed, X, np.nan), kind, exposures=E)
    return t, float(truth)


def _true_pattern(cfg: SimConfig) -> DevelopmentPattern:
    """Generating development pattern as conditioning information.

    Coverage studies hold the pattern at its generating value and let only
    the concentration estimate vary per triangle: the interval's coverage
    deficit is driven by c-hat noise, and anchoring on an estimated pattern
    would confound that with link-ratio noise that grows with J.
    """
    pi = np.asarray(cfg.pi_true, dtype=float)
    F = np.cumsum(pi)
    F[-1] = 1.0
    return DevelopmentPattern(pi=tuple(pi), F=tuple(F), method="true")


_REP_ERRORS = (PatternError, ConcentrationError, PredictiveError, OdpError, TriangleError)


def _replicate(cfg: SimConfig, rep: int, methods: tuple[str, ...]) -> dict[str, dict]:
    """Score one replication's triangle under each of methods.

    The triangle is generated, and the CL point and c-hat estimated, once
    for all methods. If the concentration estimator fails, the
    multinomial result is that failure and the ODP result carries
    c_hat = NaN.
    """

    def fail(reason: str) -> dict[str, dict]:
        return {method: {"failure": reason} for method in methods}

    try:
        t, truth = generate_triangle(cfg, rep)
    except (TriangleError, SimulationError) as exc:
        return fail(f"generation: {exc}")
    if truth <= 0.0:
        return fail("non-positive realised future reserve")
    try:
        pattern = _true_pattern(cfg)
        point = float(np.sum(cl_ultimates(t, pattern).reserves))
    except _REP_ERRORS as exc:
        return fail(f"{type(exc).__name__}: {exc}")
    try:
        c_hat, c_error = estimate_c(t).c_hat, None
    except ConcentrationError as exc:
        c_hat, c_error = float("nan"), exc
    root = RngStream(cfg.seed).derive(_SIM_DOMAIN, rep)
    results = {}
    for method in methods:
        try:
            if method == "multinomial":
                if c_error is not None:
                    raise c_error
                dist = multinomial_bootstrap(
                    latest_diagonal(t),
                    pattern,
                    c_hat,
                    cfg.B,
                    seed=root.derive(_BOOT_MULTINOMIAL).stream_id,
                    inclusion_threshold=cfg.inclusion_threshold,
                )
            else:
                fit = odp_fit(t)
                dist = odp_bootstrap(fit, cfg.B, seed=root.derive(_BOOT_ODP).stream_id)
            q025, q125, q875, q975 = _quantiles(dist.total, _SCORE_PROBS)
            results[method] = {
                "covered95": bool(q025 <= truth <= q975),
                "covered75": bool(q125 <= truth <= q875),
                "rel_bias": (point - truth) / truth,
                "rel_width": (q975 - q025) / truth,
                "c_hat": c_hat,
            }
        except _REP_ERRORS as exc:
            results[method] = {"failure": f"{type(exc).__name__}: {exc}"}
    return results


def _run_reps(
    cfg: SimConfig, methods: tuple[str, ...] = ("multinomial",)
) -> dict[str, list[dict]]:
    """Per method: the M replication results."""
    for method in methods:
        if method not in _METHODS:
            raise SimulationError(f"unknown method {method!r}; expected one of {_METHODS}")
    if cfg.threads > 1:
        with ThreadPoolExecutor(max_workers=cfg.threads) as pool:
            reps = list(pool.map(lambda r: _replicate(cfg, r, methods), range(cfg.M)))
    else:
        reps = [_replicate(cfg, r, methods) for r in range(cfg.M)]
    return {method: [rep[method] for rep in reps] for method in methods}


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
    if phi_values is None:
        phi_values = [_phi_for_power(p, cfg.phi) for p in p_values]
    heads = [{"p": float(p), "phi": float(phi)} for p, phi in zip(p_values, phi_values)]
    scenarios = [(head, replace(cfg, dgp="tweedie", **head)) for head in heads]
    return _run_scenarios("tweedie", asdict(cfg), scenarios)


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
    procedures (see _replicate). Each multinomial row also carries its
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
    c_list,
    I_list,
    J_list,
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
    c_values,
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
    F_values,
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
