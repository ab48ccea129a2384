"""tools/bench_pairs.py: the pair summary behind the BENCH_<n>.json files."""
from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest


def _bench_pairs():
    path = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
    spec = importlib.util.spec_from_file_location("bench_pairs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _bench_pairs()
BETTER = {"draws_per_s": "higher", "cmd_p50_ms": "lower"}


def record(draws: float, ms: float, digest: str = "d", failed: int = 0) -> dict:
    return {"digest": digest, "failed": failed,
            "metrics": {"draws_per_s": {"value": draws}, "cmd_p50_ms": {"value": ms}}}


def runs(pairs: list[tuple[dict, dict]], workload: str = "w") -> tuple[dict, dict]:
    """parent and change records keyed (workload, seed), one pair per seed."""
    parent = {(workload, seed): a for seed, (a, _) in enumerate(pairs, start=1)}
    change = {(workload, seed): b for seed, (_, b) in enumerate(pairs, start=1)}
    return parent, change


def test_wins_and_losses_follow_the_metric_direction_and_ties_count_for_neither():
    parent, change = runs([
        (record(100.0, 10.0), record(120.0, 9.0)),   # better on both
        (record(100.0, 10.0), record(100.0, 10.0)),  # tied on both
        (record(100.0, 10.0), record(90.0, 11.0)),   # worse on both
        (record(100.0, 10.0), record(130.0, 12.0)),  # more draws, slower
    ])
    w = bench_pairs.summarise(parent, change, BETTER)["w"]
    assert w["seeds"] == [1, 2, 3, 4]
    draws, ms = w["metrics"]["draws_per_s"], w["metrics"]["cmd_p50_ms"]
    assert (draws["change_won"], draws["change_lost"]) == (2, 1)
    assert (ms["change_won"], ms["change_lost"]) == (1, 2)
    assert draws["better"] == "higher" and ms["better"] == "lower"
    assert draws["runs"] == {"parent": [100.0] * 4, "change": [120.0, 100.0, 90.0, 130.0]}


def test_beyond_parent_iqr_compares_the_median_change_with_the_parent_spread():
    spread_parent = [record(d, 10.0) for d in (90.0, 100.0, 110.0, 120.0, 130.0)]
    near = [record(d + 10.0, 10.0) for d in (90.0, 100.0, 110.0, 120.0, 130.0)]
    far = [record(d + 30.0, 10.0) for d in (90.0, 100.0, 110.0, 120.0, 130.0)]
    # Parent quartiles 100 and 120: an IQR of 20.
    w = bench_pairs.summarise(*runs(list(zip(spread_parent, near))), BETTER)["w"]
    draws = w["metrics"]["draws_per_s"]
    assert draws["parent"] == {"median": 110.0, "q1": 100.0, "q3": 120.0, "iqr": 20.0}
    assert draws["median_change_frac"] == pytest.approx(10.0 / 110.0)
    assert draws["beyond_parent_iqr"] is False
    w = bench_pairs.summarise(*runs(list(zip(spread_parent, far))), BETTER)["w"]
    assert w["metrics"]["draws_per_s"]["beyond_parent_iqr"] is True
    # A constant parent has no spread: any move is beyond it, none is not.
    w = bench_pairs.summarise(*runs([(record(1.0, 5.0), record(1.0, 4.0))] * 3), BETTER)["w"]
    assert w["metrics"]["cmd_p50_ms"]["beyond_parent_iqr"] is True
    assert w["metrics"]["draws_per_s"]["beyond_parent_iqr"] is False


def test_digests_failures_and_unpaired_seeds():
    parent, change = runs([(record(1.0, 1.0), record(1.0, 1.0)),
                           (record(1.0, 1.0, failed=2), record(1.0, 1.0, digest="e"))])
    parent[("w", 9)] = record(1.0, 1.0)  # run on one side only
    w = bench_pairs.summarise(parent, change, BETTER)["w"]
    assert w["seeds"] == [1, 2]
    assert w["digests_equal"] is False
    assert w["failed"] == {"parent": 2, "change": 0}


def test_summary_lines_read_n_a_where_the_parent_median_is_zero():
    w = bench_pairs.summarise(*runs([(record(0.0, 2.0), record(5.0, 1.0))] * 2), BETTER)
    assert w["w"]["metrics"]["draws_per_s"]["median_change_frac"] is None
    draws, ms = bench_pairs.summary_lines(w)
    assert "0 -> 5 (n/a), won 2/2" in draws
    assert "2 -> 1 (-50.0%), won 2/2" in ms


def test_code_facts_count_lines_statements_and_exports(tmp_path):
    src = tmp_path / "src" / "runoff"
    src.mkdir(parents=True)
    (src / "__init__.py").write_text('"""Doc."""\n\n__all__ = ["f", "g"]\n')
    # Two statements over five lines: a def holding one return.
    (src / "m.py").write_text("def f(x):\n    return (\n        x\n        + 1)\n\n")
    assert bench_pairs.code_facts(tmp_path) == {
        "src_runoff_lines": 8, "src_runoff_statements": 4, "all_size": 2}


def test_steps_record_the_code_facts_of_each_intermediate_checkout(tmp_path):
    # Three checkouts of one, two and three statements, each with one run.
    roots = {}
    for n, name in enumerate(["parent", "midway", "change"], start=1):
        root = roots[name] = tmp_path / name
        (root / "src" / "runoff").mkdir(parents=True)
        (root / "src" / "runoff" / "__init__.py").write_text("__all__ = []\n" * n)
        (root / "BENCHMARK.json").write_text(
            '{"end_to_end": [{"name": "cmd_p50_ms", "better": "lower"}]}')
        (root / ".perfbench_out").mkdir()
        (root / ".perfbench_out" / "w-seed1-trace0.json").write_text(json.dumps({
            "workload": "w", "seed": 1, "digest": "d", "failed": 0,
            "facts": {"nproc": 2, "python": "3", "numpy": "2"},
            "metrics": {"cmd_p50_ms": {"value": float(n)}}}))
    assert bench_pairs.main(["--parent", str(roots["parent"]), "--change", str(roots["change"]),
                             "--tag", "t", "--step", f"tentpole={roots['midway']}"]) == 0
    code = json.loads((roots["change"] / "BENCH_t.json").read_text())["code"]
    assert list(code) == ["parent", "tentpole", "change"]
    assert [c["src_runoff_statements"] for c in code.values()] == [1, 2, 3]
