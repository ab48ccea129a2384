"""What the benchmark in perfbench/ needs from the package.

perfbench/ is frozen: it imports a fixed set of names (workloads.py) and
wraps each layer module's public functions and a few methods in place
(tracing.py). These tests import exactly those names and check the
tracer's assumptions, so a change that would break the benchmark fails
here first.
"""
from __future__ import annotations

import importlib
import importlib.util
import inspect
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from runoff import cli, simlab
from runoff.concentration import ConcentrationError, estimate_c_from_matrix
from runoff.odp import odp_bootstrap, odp_fit
from runoff.patterns import chain_ladder_pattern, cl_ultimates
from runoff.predictive import bf_bootstrap, multinomial_bootstrap
from runoff.triangle import bundled_triangle, latest_diagonal, load_exposures, load_triangle

LAYERS = ("cli", "triangle", "patterns", "concentration", "predictive",
          "distributions", "odp", "simlab")

# Methods the tracer wraps on their classes, by layer. Its list also names
# Triangle.row and Triangle.to_matrix, which the package no longer has:
# tracing.py skips a method its class does not define.
WRAPPED_METHODS = {
    "triangle": {"Triangle": ("__post_init__",)},
    "patterns": {"DevelopmentPattern": ("__post_init__",)},
    "distributions": {"RngStream": ("derive", "generator")},
    "simlab": {
        "SimConfig": ("__post_init__",),
        "SimulationReport": ("write_csv", "write_json", "format_text"),
    },
}


def test_all_eight_layer_modules_import():
    for layer in LAYERS:
        mod = importlib.import_module(f"runoff.{layer}")
        assert mod.__name__ == f"runoff.{layer}"
    assert callable(importlib.import_module("runoff.cli").main)


def _tracer_module():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# simulate --study <name> -> the study function the tracer counts it by,
# with flags that keep the run small.
STUDY_RUNS = {
    "correct": ("run_coverage_study", ["--M", "2", "--B", "20"]),
    "nonstat": ("nonstationarity_sweep", ["--M", "2", "--B", "20", "--sigma-grid", "0"]),
    "tweedie": ("tweedie_sweep", ["--M", "2", "--B", "20", "--p-grid", "1.5"]),
    "grid": ("sensitivity_grid", ["--M", "2", "--B", "20", "--grid-c", "50",
                                  "--grid-i", "7", "--grid-j", "5"]),
    "sigma-c": ("verify_sigma_c", ["--M", "2", "--I", "20", "--c-values", "50"]),
    "conservatism": ("verify_conservatism", ["--M", "2", "--F-values", "0.5"]),
    "compare-odp": ("compare_odp", ["--M", "1", "--B", "20"]),
}


def test_traced_studies_are_public_simlab_functions():
    # The tracer wraps public functions defined in their layer module and
    # counts simlab.reps and simlab.study_self_s through these names only.
    studies = _tracer_module()._STUDIES
    assert sorted(studies) == sorted(name for name, _ in STUDY_RUNS.values())
    for name in studies:
        fn = getattr(simlab, name)
        assert not name.startswith("_")
        assert inspect.isfunction(fn) and fn.__module__ == "runoff.simlab", name


@pytest.mark.parametrize("study", sorted(STUDY_RUNS))
def test_simulate_calls_the_study_patched_onto_cli(tmp_path, monkeypatch, study):
    # The tracer replaces runoff.cli.<name> in place; a dispatch table that
    # held the function objects would bypass the wrapper without an error.
    name, argv = STUDY_RUNS[study]
    original, calls = getattr(cli, name), []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, name, wrapper)
    assert cli.main(["simulate", "--study", study, *argv, "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
    assert calls == [name]


def test_simulate_writes_through_both_wrapped_report_writers(tmp_path, monkeypatch):
    # The tracer reads simlab.write_self_s from these two methods; a study
    # report written around either would leave that counter blind.
    calls = Counter()
    for meth in ("write_csv", "write_json"):
        original = getattr(simlab.SimulationReport, meth)

        def wrapper(self, path, meth=meth, original=original):
            calls[meth] += 1
            return original(self, path)

        monkeypatch.setattr(simlab.SimulationReport, meth, wrapper)
    assert cli.main(["simulate", "--study", "correct", "--M", "2", "--B", "20", "--seed", "3",
                     "--out-dir", str(tmp_path)]) == 0
    assert calls == {"write_csv": 1, "write_json": 1}
    assert sorted(p.name for p in tmp_path.glob("runoff_correct.*")) == [
        "runoff_correct.csv", "runoff_correct.json"]


def test_wrapped_methods_are_defined_on_their_classes():
    for layer, classes in WRAPPED_METHODS.items():
        mod = importlib.import_module(f"runoff.{layer}")
        for cls_name, methods in classes.items():
            cls = getattr(mod, cls_name)
            for meth in methods:
                assert inspect.isfunction(vars(cls).get(meth)), f"{cls_name}.{meth}"


def test_cells_is_an_index_keyed_mapping_of_the_observed_cells():
    t = bundled_triangle("mortgage")
    assert len(t.cells) == 45 == int(np.count_nonzero(~np.isnan(t.values)))
    assert list(t.cells) == [(i, j) for i in range(1, 10) for j in range(10 - i)]
    # workloads.py reads first-lag cells and sums every cell value.
    lag0 = sum(t.cells[(i, 0)] for i in range(1, t.I + 1))
    assert lag0 == pytest.approx(float(np.sum(t.values[:, 0])))
    assert all(isinstance(v, float) for v in t.cells.values())
    with pytest.raises(KeyError):
        t.cells[(9, 1)]  # a future cell
    total = float(np.sum(cl_ultimates(t, chain_ladder_pattern(t)).reserves))
    assert total > 0.0


def test_matrix_estimator_raises_on_an_unestimable_three_by_three():
    X = np.array([[1.0, 2.0, 3.0], [4.0, 5.0, np.nan], [6.0, np.nan, np.nan]])
    with pytest.raises(ConcentrationError):
        estimate_c_from_matrix(X)


def test_loaders_take_paths_and_a_sidecar(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("accident,lag0,lag1\n1,10,5\n2,20,\n")
    side = tmp_path / "e.csv"
    side.write_text("accident,exposure\n1,100\n2,200\n")
    t = load_triangle(path, format="wide", exposures=load_exposures(side))
    assert t.exposures == (100.0, 200.0)


def test_bootstrap_results_carry_what_the_tracer_counts():
    # The tracer's draw counters read per_year[].draws (None exactly for an
    # excluded year), total.size, excluded_years and an integer
    # meta["rejected_replications"]. A result that moved any of them would
    # leave the per-layer counters silently at 0.
    t = bundled_triangle("raa")
    pattern, B = chain_ladder_pattern(t), 50
    cl = multinomial_bootstrap(latest_diagonal(t), pattern, 13.4, B, seed=5)
    bf = bf_bootstrap(t.values[:, 0], 1.3, pattern, 13.4, B, seed=6)
    odp = odp_bootstrap(odp_fit(t), B, seed=7)
    for dist in (cl, bf, odp):
        assert [y.draws is None for y in dist.per_year] == [y.excluded for y in dist.per_year]
        assert dist.total.size == B
        assert dist.excluded_years == tuple(y.accident for y in dist.per_year if y.excluded)
    assert (cl.excluded_years, bf.excluded_years, odp.excluded_years) == ((9, 10), (), ())
    rejected = odp.meta["rejected_replications"]
    assert isinstance(rejected, int) and rejected >= 0
    hooks, counts = _tracer_module()._HOOKS, Counter()
    hooks["predictive.multinomial_bootstrap"](counts, (), cl)
    hooks["predictive.bf_bootstrap"](counts, (), bf)
    hooks["odp.odp_bootstrap"](counts, (), odp)
    # CL draws years 1-8 (year 1 as exact zeros), BF all ten years.
    assert counts == {"predictive.draws": 18 * B, "predictive.excluded_years": 2,
                      "odp.draws": B, "odp.redraws": rejected}
    # Without kept draws every year but an excluded one still carries an
    # array, of no draws, so the hooks count the same.
    lean_cl = multinomial_bootstrap(latest_diagonal(t), pattern, 13.4, B, seed=5,
                                    keep_draws=False)
    lean_bf = bf_bootstrap(t.values[:, 0], 1.3, pattern, 13.4, B, seed=6, keep_draws=False)
    lean = Counter()
    for dist, hook in ((lean_cl, "multinomial_bootstrap"), (lean_bf, "bf_bootstrap")):
        assert [y.draws is None for y in dist.per_year] == [y.excluded for y in dist.per_year]
        assert all(y.draws.size == 0 for y in dist.per_year if not y.excluded)
        hooks[f"predictive.{hook}"](lean, (), dist)
    hooks["odp.odp_bootstrap"](lean, (), odp)
    assert lean == counts
