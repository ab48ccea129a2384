"""Simulation laboratory: scenario configs, data generation, coverage
studies, verification reports, and the config-file loader.

Coverage numbers here use deliberately tiny M and B; the full-scale
frozen results live in the acceptance tests.
"""
from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import runoff
from runoff import simlab
from runoff.concentration import ConcentrationError
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
        bootstrap = simlab.multinomial_bootstrap

        def nan_total(*args, **kwargs):
            dist = bootstrap(*args, **kwargs)
            total = dist.total.copy()
            total[-1] = np.nan
            return dataclasses.replace(dist, total=total)

        monkeypatch.setattr(simlab, "multinomial_bootstrap", nan_total)
        row = run_coverage_study(SimConfig(M=3, B=20, seed=4)).rows[0]
        assert row["failures"] == 3
        assert "non-finite" in row["failure_reasons"]

    def test_thread_count_does_not_change_results(self):
        r1 = run_coverage_study(SimConfig(M=6, B=40, seed=14, threads=1))
        r3 = run_coverage_study(SimConfig(M=6, B=40, seed=14, threads=3))
        a, b = dict(r1.rows[0]), dict(r3.rows[0])
        a.pop("runtime_s"), b.pop("runtime_s")
        assert a == b


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
        generate = simlab.generate_triangle

        def counting(cfg, rep):
            calls.append((cfg.dgp, cfg.sigma_delta, cfg.p, rep))
            return generate(cfg, rep)

        monkeypatch.setattr(simlab, "generate_triangle", counting)
        compare_odp(SimConfig(M=3, B=20, seed=8, threads=2))
        assert len(calls) == len(set(calls)) == 5 * 3

    def test_failed_estimate_fails_multinomial_and_leaves_odp_c_hat_nan(self, monkeypatch):
        estimate = simlab.estimate_c
        message = "no usable (j, k) cells: forced for one replication"
        calls = []

        def failing_second(t):
            calls.append(t)
            if len(calls) == 2:
                raise ConcentrationError(message)
            return estimate(t)

        monkeypatch.setattr(simlab, "estimate_c", failing_second)
        runs = _run_reps(SimConfig(M=3, B=30, seed=5), _METHODS)
        assert len(calls) == 3
        multi, odp = runs["multinomial"][0], runs["odp"][0]
        assert multi[1] == {"failure": f"ConcentrationError: {message}"}
        assert "failure" not in odp[1] and np.isnan(odp[1]["c_hat"])
        for r in (0, 2):
            assert multi[r]["c_hat"] == odp[r]["c_hat"] == estimate(
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
