"""What the benchmark in perfbench/ needs from the package.

perfbench/ is frozen: it imports a fixed set of names (workloads.py) and
wraps each layer module's public functions and a few methods in place
(tracing.py). These tests import exactly those names and check the
tracer's assumptions, so a change that would break the benchmark fails
here first.
"""
from __future__ import annotations

import importlib
import inspect

import numpy as np
import pytest

from runoff.concentration import ConcentrationError, estimate_c_from_matrix
from runoff.patterns import chain_ladder_pattern, cl_ultimates
from runoff.triangle import bundled_triangle, load_exposures, load_triangle

LAYERS = ("cli", "triangle", "patterns", "concentration", "predictive",
          "distributions", "odp", "simlab")

# Methods the tracer wraps on their classes, by layer.
WRAPPED_METHODS = {
    "triangle": {"Triangle": ("__post_init__", "row", "to_matrix")},
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
