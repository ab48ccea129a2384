"""Simulation laboratory: scenario configs, data generation, coverage
studies, verification reports, and the config-file loader.

Coverage numbers here use deliberately tiny M and B; the full-scale
frozen results live in the acceptance tests.
"""
from __future__ import annotations

import dataclasses
import json
import re
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
        # An M whose replication indices int64 cannot hold: its list of
        # blocks alone would grow until memory ran out.
        for M in (2**63, 10**30):
            with pytest.raises(SimulationError, match=re.escape(f"M = {M} is too large")):
                SimConfig(M=M)
        assert SimConfig(M=2**63 - 1).M == 2**63 - 1
        # A B whose (cells, B) draws numpy cannot size.
        for B in (10**30, 2**62):
            message = f"B = {B} is too large: a (50, B)"
            with pytest.raises(SimulationError, match=re.escape(message)):
                SimConfig(B=B)
        with pytest.raises(SimulationError, match="unknown dgp"):
            SimConfig(dgp="lognormal")
        with pytest.raises(SimulationError, match="variance"):
            SimConfig(sigma_delta=-0.01)
        with pytest.raises(SimulationError, match="power"):
            SimConfig(p=2.0)
        with pytest.raises(SimulationError, match="threads"):
            SimConfig(threads=0)
        with pytest.raises(SimulationError, match="^phi, kappa and mu must be positive$"):
            SimConfig(phi=0.0)
        with pytest.raises(SimulationError, match="^exposure_rate must be positive$"):
            SimConfig(exposure_rate=0.0)
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

    @pytest.mark.parametrize("cfg", [SimConfig(dgp="tweedie", phi=2.4e-16, seed=1),
                                     SimConfig(dgp="count-hierarchy", mu=6.4e18, seed=1)],
                             ids=["tweedie", "count-hierarchy"])
    def test_a_poisson_rate_numpy_rejects_fails_its_replication_alone(self, cfg):
        # Replications 0 and 1 draw Poisson rates just under numpy's limit
        # (9.22337e18), 2 and 3 just over it. The two over it fail by name
        # with NaN values; the two under it draw what they draw alone.
        roots = simlab._derive_ids(np.zeros(4, dtype=np.uint64), simlab._SIM_DOMAIN,
                                   np.arange(4))
        sq = simlab._generate(cfg, roots)
        message = r"Poisson rate \S+ is not finite or exceeds numpy's limit 9\.22337e\+18"
        for rep in (0, 1):
            assert sq.faults[rep] is None
            t, truth = generate_triangle(cfg, rep)
            assert t.values.tobytes() == sq.values[rep].tobytes()
            assert truth == sq.truth[rep]
        for rep in (2, 3):
            assert re.fullmatch(message, sq.faults[rep])
            assert np.isnan(sq.values[rep]).all()
            with pytest.raises(SimulationError, match=f"^generation: {message}$"):
                generate_triangle(cfg, rep)

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
                ratios.append(t.values[i - 1].sum() / (scale * t.exposures[i - 1]))
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

    def test_a_row_whose_quantiles_fail_fails_its_replication_alone(self, monkeypatch):
        # Between the draw stage and the scoring stage replication 0's total
        # gets a NaN, and replication 1's extremes of opposite sign near the
        # float limit, so that its 97.5% quantile overflows; replication 2
        # scores as it does untouched.
        cfg = SimConfig(M=3, B=20, seed=4)
        want = simlab._run_reps(cfg)["multinomial"]
        draw = simlab._multinomial_totals

        def faulty_totals(*args, **kwargs):
            totals, faults = draw(*args, **kwargs)
            totals[0, 5] = np.nan
            totals[1] = -1.7e308
            totals[1, -1] = 1.7e308
            return totals, faults

        monkeypatch.setattr(simlab, "_multinomial_totals", faulty_totals)
        assert "failure" not in want[2]
        assert simlab._run_reps(cfg)["multinomial"] == [
            {"failure": "PredictiveError: quantiles of non-finite draws are undefined"},
            {"failure": "PredictiveError: a quantile of the bootstrap draws overflows the float "
                        "range"},
            want[2]]

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
        assert payload["rows"] == [{k: v for k, v in row.items() if k != "runtime_s"}
                                   for row in report.rows]
        assert payload["config"]["M"] == 2

    def test_study_files_carry_no_measured_time(self, tmp_path):
        # A coverage row holds its scenario's wall time, and format_text shows
        # it; the files leave it out, and the JSON holds the 0.0 placeholder.
        # The verification studies build their reports outside _run_scenarios.
        assert "runtime_s" not in {f.name for f in dataclasses.fields(simlab.SimulationReport)}
        coverage = run_coverage_study(SimConfig(M=3, B=20, seed=2))
        assert coverage.rows[0]["runtime_s"] > 0.0
        assert "runtime_s" in coverage.format_text().splitlines()[0].split()
        for report in (coverage, verify_sigma_c(c_values=(50.0,), I=20, M=4, seed=2),
                       verify_conservatism(F_values=(0.5,), M=20, seed=2)):
            json_path, csv_path = tmp_path / f"{report.study}.json", tmp_path / f"{report.study}.csv"
            report.write_json(json_path)
            report.write_csv(csv_path)
            payload = json.loads(json_path.read_text())
            assert list(payload) == ["study", "config", "runtime_s", "rows"]
            assert payload["runtime_s"] == 0.0
            assert payload["rows"] == [{k: v for k, v in row.items() if k != "runtime_s"}
                                       for row in report.rows]
            header = csv_path.read_text().splitlines()[0].split(",")
            assert header == [k for k in report.columns() if k != "runtime_s"]

    def test_aggregate_of_no_scored_replication(self):
        # Every value is None, in the key order of a scored row, and up to
        # three distinct failures are named.
        results = [{"failure": f} for f in ("d", "a", "c", "b", "a")]
        row = simlab._aggregate(results, 0.5, {"dgp": "x"})
        scored = simlab._aggregate([{"covered95": True, "covered75": False, "rel_bias": 0.1,
                                     "rel_width": 2.0, "c_hat": 40.0}], 0.5, {"dgp": "x"})
        assert list(row) == [*scored, "failure_reasons"]
        assert row == {"dgp": "x", "n_reps": 5, "n_effective": 0, "failures": 5,
                       **{k: None for k in list(scored)[4:-1]}, "runtime_s": 0.5,
                       "failure_reasons": "a; b; c"}
        assert scored["coverage95"] == 1.0 and scored["mc_se95"] == 0.0

    def test_json_is_strict(self, tmp_path):
        report = simlab.SimulationReport("x", rows=[{"ratio": float("nan")}])
        with pytest.raises(simlab.ReportError,
                           match=re.escape("rows[0].ratio is not a finite number (nan)")):
            report.write_json(tmp_path / "r.json")
        assert not (tmp_path / "r.json").exists()


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
        (q025, q125, q875, q975), (fault,) = _quantiles(total, simlab._SCORE_PROBS)
    except (ConcentrationError, PredictiveError, PatternError, OdpError) as exc:
        return {"failure": f"{type(exc).__name__}: {exc}"}
    if fault is not None:
        return {"failure": f"PredictiveError: {fault}"}
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


def recorded_blocks(monkeypatch) -> list[int]:
    """The size of every block _run_reps hands to _run_block, in the order
    the blocks start."""
    sizes: list[int] = []
    run_block = simlab._run_block

    def recording(cfg, reps, methods, F):
        sizes.append(len(reps))
        return run_block(cfg, reps, methods, F)

    monkeypatch.setattr(simlab, "_run_block", recording)
    return sizes


def study_rows(report) -> str:
    """A report's rows, runtime_s aside, as exact text (repr keeps every bit)."""
    return repr([{k: v for k, v in row.items() if k != "runtime_s"} for row in report.rows])


class TestBlockSize:
    """A block holds at most _BLOCK_REPS and at most max(1, _BLOCK_DRAWS // B)
    replications, a study has a block per thread, and no block size moves a
    bit."""

    # B on both sides of 1024 (where _BLOCK_DRAWS // B falls below
    # _BLOCK_REPS) and of 2**16 (where a block is one replication).
    @pytest.mark.parametrize("M,B,threads,method", [
        (130, 1000, 1, "multinomial"),
        (130, 1100, 1, "multinomial"),
        (7, 1000, 3, "multinomial"),
        (2, 1000, 3, "multinomial"),
        (5, 65536, 2, "multinomial"),
        (5, 70000, 3, "odp"),
    ])
    def test_blocks_stay_within_their_bounds(self, monkeypatch, M, B, threads, method):
        sizes = recorded_blocks(monkeypatch)
        run_coverage_study(SimConfig(M=M, B=B, seed=1, threads=threads), method)
        assert sum(sizes) == M
        assert max(sizes) <= min(simlab._BLOCK_REPS, max(1, simlab._BLOCK_DRAWS // B))
        assert len(sizes) >= min(M, threads)

    @pytest.mark.parametrize("limit", [1, 10**9], ids=["one", "huge"])
    def test_block_size_never_changes_results(self, monkeypatch, limit):
        studies = [lambda: run_coverage_study(SimConfig(M=130, B=1100, seed=3)),
                   lambda: compare_odp(SimConfig(M=22, B=6000, seed=4, threads=2))]
        sizes = recorded_blocks(monkeypatch)
        want = [study_rows(study()) for study in studies]
        assert set(sizes) == {59, 12, 10, 2}  # the draw bound binds in both studies
        sizes.clear()
        monkeypatch.setattr(simlab, "_BLOCK_REPS", limit)
        monkeypatch.setattr(simlab, "_BLOCK_DRAWS", limit)
        assert [study_rows(study()) for study in studies] == want
        # One replication a block, or one block per thread and scenario.
        assert set(sizes) == ({1} if limit == 1 else {130, 11})

    @pytest.mark.parametrize("threads", [1, 2])
    def test_a_huge_m_hands_out_its_blocks_lazily(self, monkeypatch, threads):
        # 2**62 replications make 2**56 blocks of 64: a list of them, or a
        # pool given every one, grew memory at about 200 MB/s. The third
        # block raises, and the study ends in that error with little traced.
        starts: list[int] = []
        lock = threading.Lock()
        run_block = simlab._run_block

        def third_raises(cfg, reps, methods, F):
            with lock:
                starts.append(reps.start)
                calls = len(starts)
            if calls == 3:
                raise RuntimeError("the third block")
            return run_block(cfg, reps, methods, F)

        monkeypatch.setattr(simlab, "_run_block", third_raises)
        tracemalloc.start()
        try:
            with pytest.raises(RuntimeError, match="^the third block$"):
                run_coverage_study(SimConfig(M=2**62, B=10, seed=1, threads=threads))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        # One block at a time; or at most two on the pool, whose fourth block
        # is handed out when the second is collected, before the third's
        # error is.
        assert sorted(starts) == [0, 64, 128, 192][: 3 if threads == 1 else 4]


class TestVerifySigmaC:
    def test_validation(self):
        with pytest.raises(SimulationError, match="I >= 20"):
            verify_sigma_c((50.0,), I=10)
        with pytest.raises(SimulationError, match="two replications"):
            verify_sigma_c((50.0,), I=30, M=1)
        with pytest.raises(SimulationError, match="positive"):
            verify_sigma_c((0.0,), I=30, M=10)

    def test_a_c_whose_formula_overflows_is_an_error_before_any_draw(self, monkeypatch):
        def no_stream(seed):
            raise AssertionError("a random stream was opened")

        monkeypatch.setattr(simlab, "RngStream", no_stream)
        with pytest.raises(SimulationError) as exc:
            verify_sigma_c((20.0, 1e300), I=20, M=3)
        assert str(exc.value) == "c = 1e+300 is too large: sigma_c_squared overflows"

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


@pytest.mark.parametrize("study, kwargs, message", [
    (verify_sigma_c, {"I": 20, "M": 2**60}, f"M = {2**60} and I = 20 are too large: "
                                            "an (M, I, 5) array of floats exceeds numpy's limit"),
    (verify_sigma_c, {"I": 2**60, "M": 3}, f"M = 3 and I = {2**60} are too large: "
                                           "an (M, I, 5) array of floats exceeds numpy's limit"),
    (verify_conservatism, {"M": 2**60},
     f"M = {2**60} is too large: an array of M floats exceeds numpy's limit"),
], ids=["sigma-c-M", "sigma-c-I", "conservatism-M"])
def test_a_study_size_numpy_cannot_allocate_is_an_error_before_any_draw(monkeypatch, study,
                                                                         kwargs, message):
    # numpy cannot describe the draws: the study says so before opening a stream.
    def no_stream(seed):
        raise AssertionError("a random stream was opened")

    monkeypatch.setattr(simlab, "RngStream", no_stream)
    tracemalloc.start()
    try:
        with pytest.raises(SimulationError) as exc:
            study(**kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(exc.value) == message
    assert peak < 2**16, peak


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

    def test_integers_follow_the_flags_rule(self):
        # An integral float spelling reads as the integer it spells, as on
        # the command line; a fraction, nan or a word is a bad value.
        assert parse_config_text("M = 1e3\nI = 7.0\nseed = -2e0\nB = 9007199254740993") == {
            "M": 1000, "I": 7, "seed": -2, "B": 9007199254740993}
        for text in ("2.5", "1e-3", "nan", "inf", "ten"):
            with pytest.raises(SimulationError, match=re.escape(
                    f"config line 1: bad value for 'M': expected an integer, got {text}")):
                parse_config_text(f"M = {text}")
