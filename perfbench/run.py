"""Benchmark of the runoff CLI and simulation lab.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 15 --trace 0

Runs one workload (desk, large-b, coverage, compare-odp) as a closed loop:
one client in this process calls ``runoff.cli.main`` and issues the next
command only when the previous one has returned. All inputs are made from
--seed before timing starts. Every command's outputs are checked.

--trace 0 measures the end-to-end metrics. --trace 1 runs a fixed number
of rounds, set by --seconds, each twice: untraced and traced. It reports
the per-layer metrics of the traced pass together with the tracing
overhead (traced minus untraced time over the same commands).

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics. Spans and
the full result are also written under .perfbench_out/.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RESULTS = Path(".perfbench_out")
SETUP_STARTS = 20  # fresh interpreters per timed run; the median is reported
DIGEST_ROUNDS = 1  # rounds every run completes, so the digest is comparable

_SETUP_PROBE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import runoff.cli\n"
    "runoff.cli.build_parser()\n"
    "print(repr(time.perf_counter() - t0))\n"
)


def setup_start() -> float:
    """Time for a fresh interpreter to import runoff.cli and build the
    parser: the fixed cost of every CLI invocation."""
    done = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(SRC)],
                          capture_output=True, text=True, check=True, timeout=60)
    return float(done.stdout)


def machine_facts() -> dict:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "loadavg": list(os.getloadavg()),
        "code": code_size(),
    }


def code_size() -> dict:
    """Lines and public top-level names per module under src/runoff."""
    out = {}
    for path in sorted((SRC / "runoff").glob("*.py")):
        text = path.read_text()
        tree = ast.parse(text)
        names = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for t in targets:
                    if isinstance(t, ast.Name):
                        names.add(t.id)
                        if t.id == "__all__":  # a package's re-exports
                            names |= set(ast.literal_eval(node.value))
        public = [n for n in names if not n.startswith("_")]
        out[path.stem] = {"lines": len(text.splitlines()), "public_names": len(public)}
    return out


class Plan:
    """The seeded rounds of one workload, generated once and replayed."""

    def __init__(self, name: str, seed: int) -> None:
        self._make = workloads.ROUNDS[name](seed)
        self._rounds: list = []

    def round(self, r: int):
        while len(self._rounds) <= r:
            self._rounds.append(self._make(len(self._rounds)))
        return self._rounds[r]


class Pass:
    """Latencies, tallies and the report digest of one pass over rounds."""

    def __init__(self) -> None:
        self.latencies: list[float] = []
        self.draws = 0
        self.reps = 0
        self.failed_reps = 0
        self.failed_commands = 0
        self.bytes_written = 0
        self.problems: list[str] = []
        self.rounds = 0
        self.wall_s = 0.0
        self.sha = hashlib.sha256()  # over the first round's report files
        self.coverage: dict[str, list[int]] = {}  # study -> [covered, scored]
        self.failed_pooled = 0

    @property
    def digest(self) -> str:
        return self.sha.hexdigest()

    @property
    def attempted(self) -> int:
        return len(self.latencies) + self.reps + len(self.coverage)

    @property
    def failed(self) -> int:
        return self.failed_commands + self.failed_reps + self.failed_pooled

    def finish(self) -> None:
        """Test the coverage pooled over the whole pass, once."""
        found = workloads.check_pooled_coverage(self.coverage)
        self.failed_pooled = len(found)
        self.problems += found


def run_cli(cli, argv: list[str], tracer=None) -> tuple[int, float, str]:
    """One closed-loop command: (exit code, seconds, captured stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.span("cli.command", cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed command, not a failed benchmark
            rc = -1
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
    return rc, elapsed, err.getvalue()


def run_round(cli, plan: Plan, p: Pass, tracer=None) -> None:
    """Run round number p.rounds, check every command, and add to p."""
    start = time.perf_counter()
    for cmd in plan.round(p.rounds):
        if tracer is not None:
            tracer.op = len(p.latencies)
        rc, elapsed, err = run_cli(cli, cmd.argv, tracer)
        p.latencies.append(elapsed)
        problems = [f"exit {rc}: {err.strip()[-300:]}"] if rc != 0 else []
        if rc == 0:
            try:
                found, tally = workloads.check(cmd)
            except (OSError, ValueError, KeyError, TypeError) as exc:
                found, tally = [f"unreadable output: {exc!r}"], {}
            problems += found
            p.draws += tally.get("draws", 0)
            p.reps += tally.get("reps", 0)
            p.failed_reps += tally.get("failed_reps", 0)
            for study, (covered, n) in tally.get("coverage", {}).items():
                pool = p.coverage.setdefault(study, [0, 0])
                pool[0] += covered
                pool[1] += n
        if problems:
            p.failed_commands += 1
            p.problems += [f"{' '.join(cmd.argv)}: {x}" for x in problems]
        p.bytes_written += sum(f.stat().st_size for f in cmd.outputs() if f.exists())
        if p.rounds < DIGEST_ROUNDS:
            for f in cmd.reports:
                if f.exists():
                    p.sha.update(f.name.encode() + b"\0" + f.read_bytes())
    p.rounds += 1
    p.wall_s += time.perf_counter() - start


def timed_pass(cli, plan: Plan, seconds: float) -> tuple[Pass, list[float]]:
    """Run whole rounds until `seconds` of them have passed, with fresh
    interpreter starts spread evenly between them, so that drift in machine
    speed during the run falls on set-up time as it does on the commands.
    One extra start, not counted, compiles any missing bytecode first."""
    p = Pass()
    setup_start()
    starts: list[float] = []
    while p.wall_s < seconds:
        while len(starts) < SETUP_STARTS * p.wall_s / seconds:
            starts.append(setup_start())
        run_round(cli, plan, p)
    while len(starts) < SETUP_STARTS:
        starts.append(setup_start())
    p.finish()
    return p, starts


def _shrunk(argv: list[str]) -> list[str]:
    """The same command at B <= 1000 and M <= 2, for warming up."""
    out = list(argv)
    for flag, cap in (("--B", 1000), ("--M", 2)):
        if flag in out:
            k = out.index(flag) + 1
            out[k] = str(min(int(out[k]), cap))
    return out


def _with_out_dir(argv: list[str], out_dir: Path) -> list[str]:
    out = list(argv)
    out[out.index("--out-dir") + 1] = str(out_dir)
    return out


def threads_check(cli, cmd) -> list[str]:
    """Run cmd at the default thread count and at --threads 2 and compare.

    The CSV report must match byte for byte. The JSON report records the
    thread count in its config, so it must match once that one field is
    set aside.
    """
    reports = {}
    for label, extra in (("threads1", []), ("threads2", ["--threads", "2"])):
        out_dir = workloads.WORK / label
        out_dir.mkdir(parents=True, exist_ok=True)
        rc, _, err = run_cli(cli, _with_out_dir(cmd.argv, out_dir) + extra)
        if rc != 0:
            return [f"--threads check: exit {rc}: {err.strip()[-300:]}"]
        reports[label] = [out_dir / f.name for f in cmd.reports]
    one, two = reports["threads1"], reports["threads2"]
    problems = []
    if one[0].read_bytes() != two[0].read_bytes():
        problems.append("--threads 2 changed the CSV report")
    j1, j2 = json.loads(one[1].read_text()), json.loads(two[1].read_text())
    j1["config"].pop("threads")
    j2["config"].pop("threads")
    if j1 != j2:
        problems.append("--threads 2 changed the JSON report beyond config.threads")
    return problems


def percentile_line(latencies: list[float]) -> str:
    """p90 where at least ten samples lie beyond it, as the design asks."""
    n = len(latencies)
    if n >= 100:
        p90 = statistics.quantiles(latencies, n=10)[-1] * 1e3
        return f"cmd_p90_ms {p90:.4f} ms (n = {n})"
    return f"cmd_p90_ms not reported: {n} commands, fewer than 100"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=tuple(workloads.ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "runoff" / "cli.py").is_file():
        print(f"error: no program source at {SRC / 'runoff'}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path.insert(0, str(SRC))
    import runoff.cli as cli

    if Path(cli.__file__).resolve().parent != SRC / "runoff":
        print(f"error: imported runoff from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    shutil.rmtree(workloads.WORK, ignore_errors=True)
    workloads.OUT.mkdir(parents=True)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        facts = machine_facts()
        plan = Plan(args.workload, args.seed)
        for cmd in plan.round(0):  # warm up: lazy imports, first-call caches
            run_cli(cli, _shrunk(cmd.argv))
        if args.trace == 0:
            record = timed_run(cli, plan, args.seconds)
        else:
            # A fixed number of rounds for a given --seconds, so that the
            # per-layer counts repeat exactly for a given seed.
            rounds = max(1, round(args.seconds / 2 * workloads.ROUNDS_PER_S[args.workload]))
            record = traced_run(cli, plan, rounds, tag)
    finally:
        shutil.rmtree(workloads.WORK, ignore_errors=True)
    # Every metric BENCHMARK.json declares for this mode, with its unit there.
    values = record.pop("values")
    record["metrics"] = {name: {"value": values[name], "unit": unit}
                         for name, unit in units.items()}
    facts["loadavg_end"] = list(os.getloadavg())
    record["facts"] = facts
    record.update(workload=args.workload, seed=args.seed, trace=args.trace)
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"facts {json.dumps(facts)}")
    for name, m in record["metrics"].items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    for line in record["lines"]:
        print(line)
    for problem in record["problems"][:20]:
        print(f"FAILED {problem}")
    result = {k: record[k] for k in ("correct", "attempted", "failed")}
    result["metrics"] = record["metrics"]
    print(json.dumps(result))
    return 0


def timed_run(cli, plan: Plan, seconds: float) -> dict:
    p, starts = timed_pass(cli, plan, seconds)
    cmd_s = sum(p.latencies)
    values = {
        "setup_s": statistics.median(starts),
        "cmd_p50_ms": statistics.median(p.latencies) * 1e3,
        "draws_per_s": p.draws / cmd_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lines = [
        f"setup_s over {len(starts)} fresh starts spread through the run",
        percentile_line(p.latencies),
        f"reps_per_s {p.reps / cmd_s:.6g} reps/s" if p.reps else "reps_per_s n/a: no study ran",
        f"failed_frac {p.failed / p.attempted:.6g} ({p.failed} of {p.attempted})",
        f"commands {len(p.latencies)} in {p.rounds} rounds, command time {cmd_s:.4f} s, "
        f"wall {p.wall_s:.4f} s",
        f"digest {p.digest} (reports of the first {DIGEST_ROUNDS} round, manifests left out)",
    ] + [
        f"pooled coverage95 of {study} {covered / n:.4f} over {n} replications"
        for study, (covered, n) in sorted(p.coverage.items())
    ]
    return {"correct": p.failed == 0, "attempted": p.attempted, "failed": p.failed,
            "values": values, "lines": lines, "problems": p.problems, "digest": p.digest}


def traced_run(cli, plan: Plan, rounds: int, tag: str) -> dict:
    """Each round runs untraced and traced, alternating which goes first,
    so that drift in machine speed falls on both passes alike."""
    plain, traced = Pass(), Pass()
    tracer = tracing.Tracer()

    def plain_round():
        run_round(cli, plan, plain)

    def traced_round():
        tracer.install()
        try:
            run_round(cli, plan, traced, tracer)
        finally:
            tracer.restore()

    for r in range(rounds):
        steps = (plain_round, traced_round) if r % 2 == 0 else (traced_round, plain_round)
        for step in steps:
            step()
    plain.finish()
    traced.finish()
    tracer.counts["cli.bytes_written"] = traced.bytes_written
    tracer.write(RESULTS / f"{tag}-spans.csv.gz")

    problems = plain.problems + traced.problems
    attempted = plain.attempted + traced.attempted + 1
    failed = plain.failed + traced.failed
    if plain.digest != traced.digest:
        failed += 1
        problems.append(f"traced digest {traced.digest} != untraced {plain.digest}")
    threads_line = "--threads 2 check: not part of this workload"
    for cmd in plan.round(0):
        if cmd.threads_pair:
            attempted += 1
            found = threads_check(cli, cmd)
            failed += bool(found)
            problems += found
            threads_line = f"--threads 2 check: {'FAILED' if found else 'reports identical'}"

    values = tracing.layer_metrics(tracer)
    overhead = traced.wall_s - plain.wall_s
    values.update({
        "trace.wall_s": traced.wall_s,
        "trace.untraced_wall_s": plain.wall_s,
        "trace.overhead_s": overhead,
        "trace.overhead_ratio": overhead / plain.wall_s,
        "trace.unattributed_s": traced.wall_s - sum(traced.latencies),
    })
    lines = tracing.layer_table(tracer, traced.wall_s) + [
        f"tracing overhead {overhead:.4f} s over {len(traced.latencies)} commands "
        f"({overhead / plain.wall_s:.1%} of the untraced {plain.wall_s:.4f} s)",
        f"digest {traced.digest} traced, {plain.digest} untraced",
        threads_line,
    ]
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "values": values, "lines": lines, "problems": problems,
            "digest": traced.digest}


if __name__ == "__main__":
    sys.exit(main())
