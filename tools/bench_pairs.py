"""Summarise paired perfbench runs of a parent and a changed checkout.

    python3 tools/bench_pairs.py --parent ../parent --change . --tag <n> \
        [--step LABEL=../midway ...]

perfbench/run.py writes one record per run under <checkout>/.perfbench_out/,
named <workload>-seed<seed>-trace<0|1>.json. A pair is one workload and
seed run with --trace 0 on both checkouts. Per workload the summary gives,
for each end-to-end metric in BENCHMARK.json, each side's median and
quartiles, how many pairs the change won and lost by the metric's
direction (ties count for neither), the change in the median, and whether
that change exceeds the parent's interquartile range; it also gives the
seeds and whether the two sides' report digests were equal in every pair.
A workload and seed run with --trace 1 on both sides adds its per-layer
metrics, parent and change side by side. Per checkout it records the
lines and the AST statements under src/runoff, the size of runoff.__all__
and how many of its modules have a matching bytecode cache; each --step
adds those of an intermediate checkout under its label, between the
parent's and the change's, so that a change made in parts can count each
part apart. The JSON goes to BENCH_<n>.json in the change checkout.
"""

from __future__ import annotations

import argparse
import ast
import importlib.util
import json
import statistics
import struct
import sys
from pathlib import Path


def records(root: Path, trace: int) -> dict[tuple[str, int], dict]:
    """(workload, seed) -> the record of that run in the given trace mode."""
    out = {}
    for path in sorted((root / ".perfbench_out").glob(f"*-trace{trace}.json")):
        rec = json.loads(path.read_text())
        out[(rec["workload"], rec["seed"])] = rec
    return out


def cached(module: Path) -> bool:
    """Whether module has a bytecode cache for the running interpreter,
    __pycache__/<module>.<cache_tag>.pyc, whose header matches the source:
    this interpreter's magic number and, as its flags say, the source's
    mtime and size or its hash."""
    try:
        head = Path(importlib.util.cache_from_source(module)).read_bytes()[:16]
    except OSError:
        return False
    stat = module.stat()
    source = (importlib.util.source_hash(module.read_bytes())
              if int.from_bytes(head[4:8], "little") & 1
              else struct.pack("<II", int(stat.st_mtime) & 0xFFFFFFFF, stat.st_size & 0xFFFFFFFF))
    return head[:4] == importlib.util.MAGIC_NUMBER and head[8:] == source


def code_facts(root: Path) -> dict:
    """The physical lines and the AST statements of the modules under
    src/runoff, the size of runoff.__all__, and how many of the modules
    have a matching bytecode cache, which makes a fresh import (perfbench's
    setup_s) faster."""
    src = root / "src" / "runoff"
    modules = sorted(src.glob("*.py"))
    texts = [p.read_text() for p in modules]
    statements = sum(isinstance(node, ast.stmt)
                     for text in texts for node in ast.walk(ast.parse(text)))
    tree = ast.parse((src / "__init__.py").read_text())
    exported = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return {"src_runoff_lines": sum(len(text.splitlines()) for text in texts),
            "src_runoff_statements": statements, "all_size": len(exported),
            "src_runoff_cached_modules": sum(map(cached, modules))}


def spread(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarise(parent: dict, change: dict, better: dict[str, str]) -> dict:
    workloads: dict[str, dict] = {}
    for workload, seed in sorted(set(parent) & set(change)):
        w = workloads.setdefault(workload, {"seeds": [], "digests_equal": True, "metrics": {}})
        a, b = parent[(workload, seed)], change[(workload, seed)]
        w["seeds"].append(seed)
        w["digests_equal"] &= a["digest"] == b["digest"]
        w.setdefault("failed", {"parent": 0, "change": 0})
        w["failed"]["parent"] += a["failed"]
        w["failed"]["change"] += b["failed"]
        for name in better:
            m = w["metrics"].setdefault(name, {"parent": [], "change": []})
            m["parent"].append(a["metrics"][name]["value"])
            m["change"].append(b["metrics"][name]["value"])
    for w in workloads.values():
        for name, m in w["metrics"].items():
            sign = 1.0 if better[name] == "higher" else -1.0
            diffs = [sign * (c - p) for p, c in zip(m["parent"], m["change"])]
            parent, change = spread(m["parent"]), spread(m["change"])
            delta = change["median"] - parent["median"]
            w["metrics"][name] = {
                "better": better[name],
                "parent": parent,
                "change": change,
                "median_change_frac": delta / parent["median"] if parent["median"] else None,
                "change_won": sum(d > 0 for d in diffs),
                "change_lost": sum(d < 0 for d in diffs),
                "beyond_parent_iqr": abs(delta) > parent["iqr"],
                "runs": {"parent": m["parent"], "change": m["change"]},
            }
    return workloads


def summary_lines(workloads: dict) -> list[str]:
    """One line per workload and end-to-end metric; the change in the
    median reads n/a where the parent's median is 0."""
    lines = []
    for name, w in workloads.items():
        for metric, m in w.get("metrics", {}).items():
            frac = m["median_change_frac"]
            lines.append(f"{name:12s} {metric:12s} {m['parent']['median']:.6g} -> "
                         f"{m['change']['median']:.6g} "
                         f"({'n/a' if frac is None else format(frac, '+.1%')}), "
                         f"won {m['change_won']}/{len(w['seeds'])}, "
                         f"beyond parent IQR {m['beyond_parent_iqr']}")
    return lines


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="changed checkout")
    ap.add_argument("--tag", required=True, help="names the output BENCH_<tag>.json")
    ap.add_argument("--step", action="append", default=[], metavar="LABEL=DIR",
                    help="an intermediate checkout whose code facts go under LABEL")
    args = ap.parse_args(argv)
    steps = dict(step.split("=", 1) for step in args.step)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    parent, change = records(args.parent, 0), records(args.change, 0)
    if not set(parent) & set(change):
        print("no (workload, seed) run on both sides", file=sys.stderr)
        return 1
    first = next(iter(change.values()))["facts"]
    out = {
        "tag": args.tag,
        "source": "perfbench/run.py --seconds 20, alternating parent/change pairs",
        "machine": {k: first[k] for k in ("nproc", "python", "numpy")},
        "code": {"parent": code_facts(args.parent),
                 **{label: code_facts(Path(root)) for label, root in steps.items()},
                 "change": code_facts(args.change)},
        "workloads": summarise(parent, change, better),
    }
    traced_parent, traced_change = records(args.parent, 1), records(args.change, 1)
    for workload, seed in sorted(set(traced_parent) & set(traced_change)):
        a = traced_parent[(workload, seed)]["metrics"]
        b = traced_change[(workload, seed)]["metrics"]
        out["workloads"].setdefault(workload, {}).setdefault("traced", {})[str(seed)] = {
            name: {"parent": a[name]["value"], "change": b[name]["value"],
                   "unit": a[name]["unit"]} for name in a}
    path = args.change / f"BENCH_{args.tag}.json"
    path.write_text(json.dumps(out, indent=2) + "\n")
    for line in summary_lines(out["workloads"]):
        print(line)
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
