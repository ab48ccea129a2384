"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads desk,large-b --seeds 1-10 --seconds 15

For every workload and end-to-end metric this prints the median of the
runs, the quartiles from ``statistics.quantiles(values, n=4)``, and the
spread (third minus first quartile, over the median) next to the metric's
bound from BENCHMARK.json. ``--out`` also writes that summary, with every
run's value, as JSON. Seeds run one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="desk,large-b,coverage,compare-odp")
    parser.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--out", default=None,
                        help="write the summary, with every run's value, as JSON here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results: dict[str, list[dict]] = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            done = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=600)
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
                return done.returncode
            line = json.loads(done.stdout.strip().splitlines()[-1])
            line["seed"] = seed
            results.setdefault(workload, []).append(line)
            status = "ok" if line["correct"] and not line["failed"] else "FAILED"
            print(f"{workload} seed {seed}: {status}", file=sys.stderr)
        print(f"\n{workload} ({len(args.seeds)} seeds, {seconds} s each)")
        print(f"  {'metric':<34}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>8}")
        for name, m in summarise(results[workload]).items():
            print(f"  {name:<34}{m['median']:>14.6g}{m['q1']:>14.6g}{m['q3']:>14.6g}"
                  f"{m['spread']:>9.4f}{bounds[name]:>8.3f}")
    if args.out:
        summary = {w: {"seconds": seconds, "seeds": args.seeds, "metrics": summarise(runs)}
                   for w, runs in results.items()}
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


def summarise(runs: list[dict]) -> dict:
    """Median, quartiles, spread and the values of each metric over runs."""
    out = {}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": first["unit"], "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med, "values": values}
    return out


if __name__ == "__main__":
    sys.exit(main())
