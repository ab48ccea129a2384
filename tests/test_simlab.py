"""Simulation laboratory: scenario configs, data generation, coverage
studies, verification reports, and the config-file loader.

Coverage numbers here use deliberately tiny M and B; the full-scale
frozen results live in the acceptance tests.
"""
from __future__ import annotations

import dataclasses
import json
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import runoff
from runoff import simlab
from runoff.concentration import ConcentrationError, estimate_c
from runoff.distributions import RngStream
from runoff.odp import OdpError, odp_bootstrap, odp_fit
from runoff.patterns import DevelopmentPattern, PatternError, cl_ultimates
from runoff.predictive import (
    _MOMENTS_OVERFLOW,
    _TOTAL_OVERFLOW,
    PredictiveError,
    _quantiles,
    multinomial_bootstrap,
)
from runoff.simlab import (
    PATTERN_J5,
    PATTERN_J10,
    TWEEDIE_PHI_BY_POWER,
    TWEEDIE_PHI_DEFAULT,
    SimConfig,
    SimulationError,
    compare_odp,
    generate_triangle,
    load_sim_config,
    nonstationarity_sweep,
    parse_config_text,
    run_coverage_study,
    sensitivity_grid,
    tweedie_sweep,
    verify_conservatism,
    verify_sigma_c,
    _METHODS,
    _paired_counts,
    _run_reps,
)
from runoff.triangle import Triangle, TriangleError, latest_diagonal


class TestSimConfig:
    def test_default_patterns_by_J(self):
        assert SimConfig().pi_true == PATTERN_J5
        assert SimConfig(I=12, J=10).pi_true == PATTERN_J10
        with pytest.raises(SimulationError, match="no default pattern"):
            SimConfig(J=7)

    def test_pattern_constants_are_simplices(self):
        for pat in (PATTERN_J5, PATTERN_J10):
            assert abs(sum(pat) - 1.0) < 1e-12
            assert min(pat) > 0.0
        assert all(a > b for a, b in zip(PATTERN_J10, PATTERN_J10[1:]))
        assert TWEEDIE_PHI_BY_POWER[1.5] == TWEEDIE_PHI_DEFAULT

    def test_validation(self):
        with pytest.raises(SimulationError, match="dimensions"):
            SimConfig(I=2)
        with pytest.raises(SimulationError, match="entries"):
            SimConfig(J=5, pi_true=(0.5, 0.5))
        with pytest.raises(SimulationError, match="sum to one"):
            SimConfig(J=5, pi_true=(0.4, 0.2, 0.2, 0.1, 0.2))
        with pytest.raises(SimulationError, match="c_true"):
            SimConfig(c_true=0.0)
        with pytest.raises(SimulationError, match="at least 1"):
            SimConfig(M=0)
        with pytest.raises(SimulationError, match="at least 1"):
            SimConfig(B=0)
        with pytest.raises(SimulationError, match="unknown dgp"):
            SimConfig(dgp="lognormal")
        with pytest.raises(SimulationError, match="variance"):
            SimConfig(sigma_delta=-0.01)
        with pytest.raises(SimulationError, match="power"):
            SimConfig(p=2.0)
        with pytest.raises(SimulationError, match="threads"):
            SimConfig(threads=0)
        with pytest.raises(SimulationError, match="inclusion_threshold"):
            SimConfig(inclusion_threshold=-1.0)
        with pytest.raises(SimulationError, match="sum to one"):
            SimConfig(J=5, pi_true=(float("nan"), 0.25, 0.25, 0.25, 0.25))
        for name in ("c_true", "kappa", "exposure_rate", "inclusion_threshold"):
            with pytest.raises(SimulationError, match=f"{name} must be finite"):
                SimConfig(**{name: float("inf")})


class TestGenerateTriangle:
    def test_deterministic_per_replication(self):
        cfg = SimConfig(M=1, B=1, seed=12)
        t1, truth1 = generate_triangle(cfg, 4)
        t2, truth2 = generate_triangle(cfg, 4)
        t3, _ = generate_triangle(cfg, 5)
        assert dict(t1.cells) == dict(t2.cells)
        assert truth1 == truth2
        assert t1.exposures == t2.exposures
        assert dict(t1.cells) != dict(t3.cells)

    def test_replication_validated(self):
        cfg = SimConfig()
        with pytest.raises(SimulationError, match="replication"):
            generate_triangle(cfg, -1)
        with pytest.raises(SimulationError, match="replication"):
            generate_triangle(cfg, 1.5)

    def test_shape_exposures_and_truth(self):
        cfg = SimConfig(I=8, J=5, pi_true=PATTERN_J5, seed=3)
        t, truth = generate_triangle(cfg, 0)
        assert (t.I, t.J, t.kind) == (8, 5, "amounts")
        assert len(t.cells) == sum(min(5, 8 - i + 1) for i in range(1, 9))
        assert len(t.exposures) == 8
        assert all(e > 0.0 for e in t.exposures)
        assert truth > 0.0

    def test_count_hierarchy_yields_integer_counts(self):
        cfg = SimConfig(dgp="count-hierarchy", seed=9)
        t, truth = generate_triangle(cfg, 2)
        assert t.kind == "counts"
        assert all(float(v).is_integer() for v in t.cells.values())
        assert truth >= 0.0

    def test_nonstationary_at_zero_variance_reproduces_base_model(self):
        base = SimConfig(dgp="dirichlet-gamma", seed=21)
        pert = SimConfig(dgp="nonstationary", sigma_delta=0.0, seed=21)
        for rep in range(3):
            tb, truth_b = generate_triangle(base, rep)
            tp, truth_p = generate_triangle(pert, rep)
            assert dict(tb.cells) == dict(tp.cells)
            assert truth_b == truth_p

    def test_fully_developed_rows_scale_with_exposure(self):
        # Over 200 replications, a fully developed row's total over
        # (mean-ultimate scale * exposure) should average to one: the
        # ultimate draw has mean 2000 E_i under the default parameters.
        cfg = SimConfig(I=10, J=5, M=1, B=1, seed=55)
        scale = cfg.ultimate_shape_factor / cfg.ultimate_rate
        ratios = []
        for rep in range(200):
            t, _ = generate_triangle(cfg, rep)
            for i in range(1, t.I - t.J + 2):
                ratios.append(t.row(i).sum() / (scale * t.exposures[i - 1]))
        assert abs(np.mean(ratios) - 1.0) < 0.005


class TestRunCoverageStudy:
    def test_row_schema_and_mc_se(self):
        cfg = SimConfig(M=8, B=50, seed=3)
        report = run_coverage_study(cfg)
        assert report.study == "coverage"
        assert len(report.rows) == 1
        row = report.rows[0]
        assert row["dgp"] == "dirichlet-gamma"
        assert row["method"] == "multinomial"
        assert row["n_reps"] == 8
        assert row["n_effective"] + row["failures"] == 8
        cov, n = row["coverage95"], row["n_effective"]
        assert row["mc_se95"] == pytest.approx(np.sqrt(cov * (1 - cov) / n))
        assert 0.0 <= cov <= 1.0
        assert row["rel_width"] > 0.0
        assert row["mean_c_hat"] > 0.0
        assert report.config["I"] == 10

    def test_odp_method(self):
        report = run_coverage_study(SimConfig(M=4, B=30, seed=5), method="odp")
        assert report.rows[0]["method"] == "odp"
        assert report.rows[0]["n_effective"] > 0

    def test_unknown_method(self):
        with pytest.raises(SimulationError, match="unknown method"):
            run_coverage_study(SimConfig(M=2, B=10), method="wild")

    def test_all_replications_failing_is_reported_not_raised(self):
        # I = J = 5 leaves no estimable concentration cell anywhere.
        report = run_coverage_study(SimConfig(I=5, J=5, M=3, B=10, seed=1))
        row = report.rows[0]
        assert row["n_effective"] == 0
        assert row["failures"] == 3
        assert row["coverage95"] is None
        assert "failure_reasons" in row

    def test_non_finite_draws_are_a_replication_failure(self, monkeypatch):
        # The last draw of every replication's total turns NaN between the
        # draw stage and the scoring stage.
        draw = simlab._multinomial_totals

        def nan_totals(*args, **kwargs):
            totals, faults = draw(*args, **kwargs)
            totals[:, -1] = np.nan
            return totals, faults

        monkeypatch.setattr(simlab, "_multinomial_totals", nan_totals)
        row = run_coverage_study(SimConfig(M=3, B=20, seed=4)).rows[0]
        assert row["failures"] == 3
        assert "non-finite" in row["failure_reasons"]

    def test_thread_count_does_not_change_results(self):
        r1 = run_coverage_study(SimConfig(M=6, B=40, seed=14, threads=1))
        r3 = run_coverage_study(SimConfig(M=6, B=40, seed=14, threads=3))
        a, b = dict(r1.rows[0]), dict(r3.rows[0])
        a.pop("runtime_s"), b.pop("runtime_s")
        assert a == b

    def test_runtime_s_is_the_scenario_wall_time(self):
        # Each row times its scenario once, so rows cannot add up to more
        # than the call: per-replication times summed over three threads did.
        start = time.perf_counter()
        row = run_coverage_study(SimConfig(M=60, B=200, seed=3, threads=3)).rows[0]
        assert 0.0 < row["runtime_s"] <= time.perf_counter() - start
        start = time.perf_counter()
        rows = compare_odp(SimConfig(M=6, B=100, seed=3, threads=3)).rows
        wall = time.perf_counter() - start
        for method in _METHODS:
            assert sum(r["runtime_s"] for r in rows if r["method"] == method) <= wall


class TestReportWriters:
    def test_csv_json_and_text(self, tmp_path):
        report = run_coverage_study(SimConfig(I=5, J=5, M=2, B=10, seed=1))
        csv_path = tmp_path / "r.csv"
        json_path = tmp_path / "r.json"
        report.write_csv(csv_path)
        report.write_json(json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].split(",")[:2] == ["dgp", "method"]
        # None cells render empty in CSV and as --- in text.
        assert ",," in lines[1]
        assert "---" in report.format_text()
        payload = json.loads(json_path.read_text())
        assert payload["study"] == "coverage"
        assert payload["rows"] == report.rows
        assert payload["config"]["M"] == 2

    def test_json_is_strict(self, tmp_path):
        report = simlab.SimulationReport("x", rows=[{"ratio": float("nan")}])
        with pytest.raises(ValueError, match="JSON compliant"):
            report.write_json(tmp_path / "r.json")


class TestSweeps:
    def test_nonstationarity_sweep_heads(self):
        cfg = SimConfig(M=2, B=10, seed=8)
        report = nonstationarity_sweep(cfg, sigma_values=(0.0, 0.05))
        assert report.study == "nonstat"
        assert [row["sigma_delta"] for row in report.rows] == [0.0, 0.05]
        assert all("coverage95" in row for row in report.rows)

    def test_tweedie_sweep_uses_per_power_dispersion(self):
        cfg = SimConfig(M=2, B=10, seed=8, dgp="tweedie")
        report = tweedie_sweep(cfg)
        assert report.study == "tweedie"
        assert [row["p"] for row in report.rows] == [1.3, 1.5, 1.8]
        assert [row["phi"] for row in report.rows] == [90.0, 43.0, 2.75]

    def test_tweedie_sweep_off_table_power_falls_back(self):
        cfg = SimConfig(M=2, B=10, seed=8, phi=61.0)
        report = tweedie_sweep(cfg, p_values=(1.4,))
        assert report.rows[0]["phi"] == 61.0

    def test_tweedie_sweep_explicit_phis(self):
        cfg = SimConfig(M=2, B=10, seed=8)
        report = tweedie_sweep(cfg, p_values=(1.5,), phi_values=(7.0,))
        assert report.rows[0]["phi"] == 7.0
        with pytest.raises(SimulationError, match="entries"):
            tweedie_sweep(cfg, p_values=(1.3, 1.5), phi_values=(7.0,))

    def test_compare_odp_pairs_methods_on_five_scenarios(self):
        report = compare_odp(SimConfig(M=2, B=20, seed=8))
        assert report.study == "compare-odp"
        assert len(report.rows) == 10
        labels = [row["dgp"] for row in report.rows]
        assert labels[0] == labels[1] == "dirichlet-gamma"
        assert "nonstationary(var=0.05)" in labels
        assert "tweedie(p=1.3)" in labels
        assert [row["method"] for row in report.rows] == \
            ["multinomial", "odp"] * 5

    def test_compare_odp_paired_counts_give_the_coverage_gap(self):
        paired = ("multi_only95", "odp_only95", "paired_n", "paired_se95")
        one = compare_odp(SimConfig(M=20, B=60, seed=8))
        two = compare_odp(SimConfig(M=20, B=60, seed=8, threads=2))
        assert any(row["odp_only95"] for row in one.rows[::2])
        assert any(row["multi_only95"] for row in one.rows[::2])
        for multi, odp, multi2 in zip(one.rows[::2], one.rows[1::2], two.rows[::2]):
            assert multi["failures"] == odp["failures"] == 0
            assert multi["paired_n"] == 20
            gap = (multi["multi_only95"] - multi["odp_only95"]) / multi["paired_n"]
            assert gap == pytest.approx(multi["coverage95"] - odp["coverage95"], abs=1e-12)
            assert not any(key in odp for key in paired)
            assert [multi2[key] for key in paired] == [multi[key] for key in paired]

    def test_paired_counts_keep_only_replications_both_methods_scored(self):
        multi = [{"covered95": True}, {"covered95": True}, {"failure": "x"},
                 {"covered95": False}]
        odp = [{"covered95": False}, {"failure": "y"}, {"covered95": False},
               {"covered95": True}]
        # Differences +1 and -1: population variance 1 over two pairs.
        assert _paired_counts(multi, odp) == {
            "multi_only95": 1, "odp_only95": 1, "paired_n": 2,
            "paired_se95": pytest.approx(0.5**0.5)}
        assert _paired_counts(multi[2:3], odp[2:3])["paired_se95"] is None

    def test_compare_odp_generates_each_triangle_once(self, monkeypatch):
        calls = []
        generate = simlab._generate

        def counting(cfg, roots):
            calls.extend((cfg.dgp, cfg.sigma_delta, cfg.p, int(root)) for root in roots)
            return generate(cfg, roots)

        monkeypatch.setattr(simlab, "_generate", counting)
        compare_odp(SimConfig(M=3, B=20, seed=8, threads=2))
        assert len(calls) == len(set(calls)) == 5 * 3

    def test_failed_estimate_fails_multinomial_and_leaves_odp_c_hat_nan(self, monkeypatch):
        # The second replication's estimate fails: the batched estimator
        # gives NaN where estimate_c raises.
        estimate = simlab.estimate_c_batch
        calls = []

        def failing_second(X):
            calls.append(len(X))
            c_hat = estimate(X).copy()
            c_hat[1] = np.nan
            return c_hat

        monkeypatch.setattr(simlab, "estimate_c_batch", failing_second)
        runs = _run_reps(SimConfig(M=3, B=30, seed=5), _METHODS)
        assert sum(calls) == 3  # each triangle estimated once for both methods
        with pytest.raises(ConcentrationError) as raised:
            estimate_c(generate_triangle(SimConfig(I=5, J=5), 0)[0])
        multi, odp = runs["multinomial"], runs["odp"]
        assert multi[1] == {"failure": f"ConcentrationError: {raised.value}"}
        assert "failure" not in odp[1] and np.isnan(odp[1]["c_hat"])
        for r in (0, 2):
            assert multi[r]["c_hat"] == odp[r]["c_hat"] == estimate_c(
                generate_triangle(SimConfig(M=3, B=30, seed=5), r)[0]).c_hat

    def test_sensitivity_grid_reports_impossible_cells(self):
        report = sensitivity_grid((50.0,), (7,), (3, 5), M=3, B=30, seed=4)
        assert report.study == "grid"
        assert len(report.rows) == 2
        bad, good = report.rows
        assert bad["J"] == 3 and bad["n_reps"] == 0
        assert "no default pattern" in bad["failure_reasons"]
        assert good["J"] == 5 and good["n_effective"] > 0
        assert "coverage75" not in good


def reference_replication(cfg: SimConfig, rep: int, method: str = "multinomial") -> dict:
    """One replication of a study scored by the public single-triangle
    functions, in the order the block runner checks: the multinomial
    bootstrap, or the ODP fit and bootstrap, whose c_hat is NaN where
    estimate_c fails."""
    try:
        t, truth = generate_triangle(cfg, rep)
    except TriangleError as exc:
        return {"failure": f"generation: {exc}"}
    if truth <= 0.0:
        return {"failure": "non-positive realised future reserve"}
    pi = np.asarray(cfg.pi_true)
    F = np.cumsum(pi)
    F[-1] = 1.0
    try:
        pattern = DevelopmentPattern(pi=tuple(pi), F=tuple(F), method="true")
        point = float(np.sum(cl_ultimates(t, pattern).reserves))
    except PatternError as exc:
        return {"failure": f"PatternError: {exc}"}
    root = RngStream(cfg.seed).derive(simlab._SIM_DOMAIN, rep)
    try:
        if method == "odp":
            try:
                c_hat = estimate_c(t).c_hat
            except ConcentrationError:
                c_hat = float("nan")
            fit = odp_fit(Triangle(t.values, t.kind))
            total = odp_bootstrap(fit, cfg.B, seed=root.derive(simlab._BOOT_ODP).stream_id).total
        else:
            c_hat = estimate_c(t).c_hat
            total = multinomial_bootstrap(
                latest_diagonal(t), pattern, c_hat, cfg.B,
                seed=root.derive(simlab._BOOT_MULTINOMIAL).stream_id,
                inclusion_threshold=cfg.inclusion_threshold).total
        q025, q125, q875, q975 = _quantiles(total, simlab._SCORE_PROBS)
    except (ConcentrationError, PredictiveError, PatternError, OdpError) as exc:
        return {"failure": f"{type(exc).__name__}: {exc}"}
    return {"covered95": bool(q025 <= truth <= q975), "covered75": bool(q125 <= truth <= q875),
            "rel_bias": (point - truth) / truth, "rel_width": (q975 - q025) / truth,
            "c_hat": c_hat}


def bits(result: dict) -> dict:
    """A result with every float as its exact hex form, NaN included."""
    return {k: float(v).hex() if isinstance(v, (float, np.floating)) else v
            for k, v in result.items()}


def assert_matches_reference(cfg: SimConfig, *method_sets: tuple[str, ...]) -> None:
    """Run each set of methods through the block runner and compare every
    result with reference_replication."""
    want: dict[str, list[dict]] = {}
    # Extreme scales overflow numpy arithmetic on both paths alike, on the
    # runner's worker threads too; the warnings are beside the point here,
    # the results are compared.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for methods in method_sets:
            runs = _run_reps(cfg, methods)
            for method in methods:
                if method not in want:
                    want[method] = [bits(reference_replication(cfg, rep, method))
                                    for rep in range(cfg.M)]
                assert [bits(r) for r in runs[method]] == want[method], (methods, method)


@st.composite
def study_configs(draw, rates=(1e-299, 1e-304, 1e-305)):
    """Small studies that reach every failure: I = 5 leaves no estimable
    cell, I < J = 10 leaves no fully developed year for the inclusion
    threshold to spare and no link ratio for ODP, c_true = 2 suppresses
    means, zeros in Tweedie and count cells give non-positive truths and
    ODP redraws, and the ultimate scales in rates drive draws, totals and
    their moments past the float range or make cells infinite."""
    dgp = draw(st.sampled_from(["dirichlet-gamma", "nonstationary", "tweedie",
                                "count-hierarchy"]))
    kw = {"J": draw(st.sampled_from([5, 10])), "I": draw(st.integers(5, 13)), "dgp": dgp,
          "c_true": draw(st.sampled_from([2.0, 50.0, 400.0])),
          "inclusion_threshold": draw(st.sampled_from([0.0, 5.0, 1e4])),
          "M": draw(st.integers(1, 6)), "B": draw(st.sampled_from([1, 2, 37, 400])),
          "seed": draw(st.integers(0, 2**63)), "threads": draw(st.integers(1, 3))}
    if dgp in ("dirichlet-gamma", "nonstationary"):
        kw["ultimate_rate"] = draw(st.sampled_from([1e-3] * 3 + list(rates)))
    if dgp == "nonstationary":
        kw["sigma_delta"] = draw(st.sampled_from([0.0, 0.05, 1.0]))
    elif dgp == "tweedie":
        kw["p"] = draw(st.sampled_from([1.2, 1.8]))
        kw["phi"] = draw(st.sampled_from([2.75, 5000.0]))
    elif dgp == "count-hierarchy":
        kw["mu"] = draw(st.sampled_from([3.0, 400.0]))
    return SimConfig(**kw)


# Studies whose ODP replications reach one branch each, checked by
# TestBlockRunner.test_odp_examples_reach_their_branch.
ODP_BRANCHES = {
    # Count cells at mu = 3: a redraw round refits one replication alone.
    "lone redraw": SimConfig(I=5, J=5, dgp="count-hierarchy", mu=3.0, M=4, B=37, seed=0,
                             threads=2),
    # Proportional count rows: a fit with zero dispersion.
    "zero dispersion": SimConfig(I=3, J=2, pi_true=(0.5, 0.5), dgp="count-hierarchy",
                                 mu=3.0, M=4, B=37, seed=0),
    # Cumulatives near the float limit: pseudo triangles that stay
    # degenerate, then totals and moments that overflow.
    "redraws exhausted": SimConfig(I=10, J=10, M=6, B=37, seed=0, ultimate_rate=2e-305,
                                   threads=3),
    "total overflow": SimConfig(I=10, J=10, M=6, B=37, seed=0, ultimate_rate=5e-305),
    "moments overflow": SimConfig(I=7, J=5, M=4, B=37, seed=0, ultimate_rate=1e-304,
                                  threads=2),
}


def examples(configs):
    """Hypothesis @example for each config."""
    def decorate(test):
        for cfg in configs:
            test = example(cfg=cfg)(test)
        return test
    return decorate


def odp_branches(cfg: SimConfig, monkeypatch) -> set[str]:
    """The ODP_BRANCHES keys that cfg's replications reach through odp_fit
    and odp_bootstrap."""
    draws: list[int] = []
    generator = RngStream.generator

    class Recorder:  # notes how many replications each index draw covers
        def __init__(self, g):
            self._g = g

        def __getattr__(self, name):
            return getattr(self._g, name)

        def integers(self, low, high, size):
            draws.append(size[0])
            return self._g.integers(low, high, size=size)

    seen = set()
    messages = {"total overflow": _TOTAL_OVERFLOW, "moments overflow": _MOMENTS_OVERFLOW}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for rep in range(cfg.M):
            try:
                fit = odp_fit(generate_triangle(cfg, rep)[0])
            except (TriangleError, PatternError, OdpError):
                continue
            seed = RngStream(cfg.seed).derive(simlab._SIM_DOMAIN, rep).derive(
                simlab._BOOT_ODP).stream_id
            draws.clear()
            with monkeypatch.context() as patch:
                patch.setattr(RngStream, "generator", lambda self: Recorder(generator(self)))
                try:
                    odp_bootstrap(fit, cfg.B, seed)
                except (OdpError, PredictiveError) as exc:
                    seen.update(k for k, m in messages.items() if str(exc) == m)
                    if "still degenerate after 100 redraw rounds" in str(exc):
                        seen.add("redraws exhausted")
            if fit.dispersion <= 0.0:
                seen.add("zero dispersion")
            if 1 in draws[1:]:
                seen.add("lone redraw")
    return seen


class TestBlockRunner:
    @settings(max_examples=150, deadline=None)
    @given(cfg=study_configs())
    # One replication's total overflows while each year stays finite, and
    # every year falls under the inclusion threshold.
    @example(cfg=SimConfig(M=40, B=37, c_true=2.0, ultimate_rate=1e-304, seed=3))
    @example(cfg=SimConfig(I=8, J=10, M=6, B=37, inclusion_threshold=1e4, seed=5))
    # Every open year excluded while the first year is fully developed.
    @example(cfg=SimConfig(I=10, J=5, M=6, B=37, inclusion_threshold=1e4, seed=5))
    def test_matches_the_single_triangle_functions_bit_for_bit(self, cfg):
        assert_matches_reference(cfg, ("multinomial",))

    @settings(max_examples=100, deadline=None)
    @given(cfg=study_configs(rates=(1e-304, 5e-305, 2e-305)))
    @examples(ODP_BRANCHES.values())
    def test_odp_matches_the_single_triangle_functions_bit_for_bit(self, cfg):
        # The ODP method alone, and both methods as compare-odp runs them.
        assert_matches_reference(cfg, ("odp",), _METHODS)

    @pytest.mark.parametrize("branch", sorted(ODP_BRANCHES))
    def test_odp_examples_reach_their_branch(self, monkeypatch, branch):
        cfg = ODP_BRANCHES[branch]
        assert branch in odp_branches(cfg, monkeypatch)

    def test_odp_fit_errors_match_odp_fit(self, monkeypatch):
        # Every other replication's lag 1 becomes -0.9 times its lag 0: the
        # first link ratio falls to 0.1 and the fitted increments turn
        # negative, which odp_fit rejects.
        generate = simlab._generate

        def negative_lag_one(cfg, roots):
            sq = generate(cfg, roots)
            for m, root in enumerate(roots):
                if int(root) % 2:
                    lag1 = sq.values[m, :, 1]
                    sq.values[m, :, 1] = np.where(np.isnan(lag1), np.nan,
                                                  -0.9 * sq.values[m, :, 0])
            return sq

        monkeypatch.setattr(simlab, "_generate", negative_lag_one)
        cfg = SimConfig(M=6, B=37, seed=9, threads=2)
        assert_matches_reference(cfg, ("odp",))
        failures = [reference_replication(cfg, rep, "odp").get("failure", "")
                    for rep in range(cfg.M)]
        assert sum("negative fitted" in f for f in failures) >= 2


class TestVerifySigmaC:
    def test_validation(self):
        with pytest.raises(SimulationError, match="I >= 20"):
            verify_sigma_c((50.0,), I=10)
        with pytest.raises(SimulationError, match="two replications"):
            verify_sigma_c((50.0,), I=30, M=1)
        with pytest.raises(SimulationError, match="positive"):
            verify_sigma_c((0.0,), I=30, M=10)

    def test_small_run_schema(self):
        report = verify_sigma_c((50.0,), I=30, M=60, seed=1)
        row = report.rows[0]
        assert report.study == "sigma-c"
        assert row["c"] == 50.0
        assert row["formula"] > 0.0
        assert row["ratio"] > 0.0
        assert 0 < row["n_effective"] <= 60


class TestVerifyConservatism:
    def test_validation(self):
        with pytest.raises(SimulationError, match="between 0 and 1"):
            verify_conservatism((1.0,), M=10)
        with pytest.raises(SimulationError, match="positive"):
            verify_conservatism((0.5,), nu=0.0, M=10)
        with pytest.raises(SimulationError, match="does not exist"):
            verify_conservatism((0.5,), nu=150.0, phi=100.0, M=10)

    def test_ratio_tracks_target(self):
        report = verify_conservatism((0.5,), nu=1e6, phi=100.0, M=500, seed=7)
        row = report.rows[0]
        assert row["target"] == pytest.approx(2.0**0.5)
        assert abs(row["rel_error"]) < 0.10
        assert row["sd_boot"] > row["sd_true"] * 1.2


class TestConfigFiles:
    def test_parse_config_text(self):
        text = """
        # scenario
        I = 12
        J = 5
        c_true = 80  # concentration
        pi_true = 0.4, 0.3, 0.15, 0.1, 0.05
        """
        values = parse_config_text(text)
        assert values == {
            "I": 12, "J": 5, "c_true": 80.0,
            "pi_true": (0.4, 0.3, 0.15, 0.1, 0.05),
        }

    def test_every_field_round_trips_through_the_parser(self):
        cfg = SimConfig(
            I=12, J=4, pi_true=(0.4, 0.3, 0.2, 0.1), c_true=80.5, M=7, B=11, seed=3,
            dgp="tweedie", sigma_delta=0.01, p=1.3, phi=12.5, kappa=30.0, mu=300.0,
            exposure_shape=9.0, exposure_rate=0.02, ultimate_shape_factor=3.0,
            ultimate_rate=0.002, inclusion_threshold=1.5, threads=2,
        )
        default = SimConfig()
        text = []
        for f in dataclasses.fields(SimConfig):
            value = getattr(cfg, f.name)
            assert value != getattr(default, f.name), f"{f.name} keeps its default"
            text.append(f"{f.name} = "
                        + (", ".join(map(repr, value)) if f.name == "pi_true" else str(value)))
        values = parse_config_text("\n".join(text))
        assert SimConfig(**values) == cfg
        assert {k: type(v) for k, v in values.items()} == {
            k: type(v) for k, v in dataclasses.asdict(cfg).items()}

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(SimulationError, match="line 1: unknown key"):
            parse_config_text("volatility = 3")
        with pytest.raises(SimulationError, match="line 2: duplicate"):
            parse_config_text("I = 10\nI = 11")
        with pytest.raises(SimulationError, match="line 1: bad value"):
            parse_config_text("I = ten")
        with pytest.raises(SimulationError, match="expected key = value"):
            parse_config_text("just words")

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "s.cfg"
        path.write_text("I = 12\nc_true = 80\nseed = 5\n")
        cfg = load_sim_config(path, M=None, c_true=90.0)
        # None overrides are "not given" and must not clobber the file.
        assert (cfg.I, cfg.c_true, cfg.seed, cfg.M) == (12, 90.0, 5, 500)

    def test_bundled_scenario_files_load(self):
        cfg_dir = Path(runoff.__file__).parent / "configs"
        names = sorted(p.name for p in cfg_dir.glob("*.cfg"))
        assert names == ["compare_odp.cfg", "correct.cfg", "nonstat.cfg",
                         "tweedie.cfg"]
        for name in names:
            cfg = load_sim_config(cfg_dir / name)
            assert cfg.M >= 1 and cfg.B >= 1
        assert load_sim_config(cfg_dir / "compare_odp.cfg").J == 10
