"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side: every public function of
each layer module is replaced, at each attribute where a caller looks it
up, by a wrapper that records (name, start, end, parent span, operation
id). A handful of methods that do real work (triangle validation and
array building, RNG construction, report writing) are wrapped on their
classes. Nothing under ``src/`` changes; ``Tracer.restore`` puts the
original objects back.

The recorder keeps one span stack and is meant for single-threaded runs
only; the benchmark never traces a ``--threads`` > 1 command.
"""

from __future__ import annotations

import csv
import functools
import gzip
import inspect
import sys
import time
from collections import Counter

LAYERS = ("cli", "triangle", "patterns", "concentration", "predictive",
          "distributions", "odp", "simlab")

# Methods worth a span of their own: each does work ROADMAP plans to move
# (dict-to-array rebuilding, validation, generator construction, writers).
# Trivial accessors such as Triangle.last_lag stay unwrapped: they are
# called hundreds of times per command and the wrapper would dwarf them.
_METHODS = {
    "triangle": {"Triangle": ("__post_init__", "row", "to_matrix")},
    "patterns": {"DevelopmentPattern": ("__post_init__",)},
    "distributions": {"RngStream": ("derive", "generator")},
    "simlab": {
        "SimConfig": ("__post_init__",),
        "SimulationReport": ("write_csv", "write_json", "format_text"),
    },
}

_STUDIES = ("run_coverage_study", "nonstationarity_sweep", "tweedie_sweep",
            "compare_odp", "sensitivity_grid", "verify_sigma_c", "verify_conservatism")


def _count_cells(counts, args, result):
    counts["triangle.cells"] += len(args[0].cells)


def _count_concentration(counts, args, result):
    counts["concentration.cells_kept"] += len(result.cells)
    counts["concentration.cells_dropped"] += len(result.dropped_cells)


def _count_draws(counts, args, result):
    included = sum(1 for y in result.per_year if y.draws is not None)
    counts["predictive.draws"] += included * result.total.size
    counts["predictive.excluded_years"] += len(result.excluded_years)


def _count_odp(counts, args, result):
    counts["odp.draws"] += result.total.size
    counts["odp.redraws"] += int(result.meta["rejected_replications"])


def _count_reps(counts, args, result):
    for row in result.rows:
        counts["simlab.reps"] += int(row.get("n_reps") or 0)
        counts["simlab.failed_reps"] += int(row.get("failures") or 0)


_HOOKS = {
    "triangle.Triangle.__post_init__": _count_cells,
    "concentration.estimate_c": _count_concentration,
    "concentration.estimate_c_from_matrix": _count_concentration,
    "predictive.multinomial_bootstrap": _count_draws,
    "predictive.bf_bootstrap": _count_draws,
    "odp.odp_bootstrap": _count_odp,
    **{f"simlab.{name}": _count_reps for name in _STUDIES},
}


class Tracer:
    """In-memory span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: list = []  # (name, start, end, parent, op)
        self.counts: Counter = Counter()
        self.op = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span called name; return its result."""
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(idx)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, self.op)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = tracer.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every layer's public functions where callers find them."""
        modules = {m: sys.modules[f"runoff.{m}"] for m in LAYERS}
        for layer, mod in modules.items():
            if layer == "cli":
                continue  # the benchmark opens the cli span itself
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{layer}.{attr}", fn)
                for holder in modules.values():
                    if getattr(holder, attr, None) is fn:
                        self._patch(holder, attr, wrapper)
            for cls_name, methods in _METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name, None)
                for meth in methods:
                    # A method a later version drops is skipped: its time
                    # then counts toward whichever span calls it.
                    fn = vars(cls).get(meth) if cls is not None else None
                    if inspect.isfunction(fn):
                        self._patch(cls, meth, self._wrap(f"{layer}.{cls_name}.{meth}", fn))

    def _patch(self, holder, attr: str, value) -> None:
        self._patched.append((holder, attr, getattr(holder, attr)))
        setattr(holder, attr, value)

    def restore(self) -> None:
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path) -> None:
        with gzip.open(path, "wt", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start", "end", "parent", "op"])
            for idx, (name, start, end, parent, op) in enumerate(self.spans):
                w.writerow([idx, name, repr(start), repr(end), parent, op])


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics named in BENCHMARK.json, from one traced pass."""
    own = tracer.self_times()
    layer_of = [name.split(".", 1)[0] for name, *_ in tracer.spans]
    self_s = Counter()
    by_name = Counter()
    calls = Counter()
    entries = Counter()  # spans whose parent lies in another layer
    inclusive = Counter()
    for idx, (name, start, end, parent, _) in enumerate(tracer.spans):
        layer = layer_of[idx]
        self_s[layer] += own[idx]
        by_name[name] += own[idx]
        calls[name] += 1
        if parent < 0 or layer_of[parent] != layer:
            entries[layer] += 1
            inclusive[layer] += end - start
    c = tracer.counts
    kept, dropped = c["concentration.cells_kept"], c["concentration.cells_dropped"]
    draws = c["predictive.draws"]
    odp_draws = c["odp.draws"]
    write_s = by_name["simlab.SimulationReport.write_csv"] + by_name[
        "simlab.SimulationReport.write_json"]
    study_s = sum(by_name[f"simlab.{s}"] for s in _STUDIES)
    return {
        "cli.commands": calls["cli.command"],
        "cli.self_s": self_s["cli"],
        "cli.bytes_written": c["cli.bytes_written"],
        "triangle.loads": calls["triangle.load_triangle"],
        "triangle.cells": c["triangle.cells"],
        "triangle.self_s": self_s["triangle"],
        "patterns.calls": entries["patterns"],
        "patterns.self_s": self_s["patterns"],
        "concentration.calls": entries["concentration"],
        "concentration.self_s": self_s["concentration"],
        # 1.0 when nothing was estimated: no cell was dropped.
        "concentration.cell_keep_ratio": kept / (kept + dropped) if kept + dropped else 1.0,
        "predictive.calls": entries["predictive"],
        "predictive.draws": draws,
        "predictive.self_s": self_s["predictive"],
        "predictive.ns_per_draw": 1e9 * inclusive["predictive"] / draws if draws else 0.0,
        "predictive.excluded_years": c["predictive.excluded_years"],
        "distributions.generators": calls["distributions.RngStream.generator"],
        "distributions.self_s": self_s["distributions"],
        "odp.fit_calls": calls["odp.odp_fit"],
        "odp.fit_self_s": by_name["odp.odp_fit"],
        "odp.boot_calls": calls["odp.odp_bootstrap"],
        "odp.boot_self_s": by_name["odp.odp_bootstrap"],
        "odp.redraws": c["odp.redraws"],
        # 1.0 when no ODP bootstrap ran: nothing was rejected.
        "odp.accept_ratio": (odp_draws / (odp_draws + c["odp.redraws"])
                             if odp_draws else 1.0),
        "simlab.reps": c["simlab.reps"],
        "simlab.failed_reps": c["simlab.failed_reps"],
        "simlab.self_s": self_s["simlab"],
        "simlab.generate_self_s": by_name["simlab.generate_triangle"],
        "simlab.study_self_s": study_s,
        "simlab.write_self_s": write_s,
    }


def layer_table(tracer: Tracer, wall_s: float) -> list[str]:
    """Self time per layer plus unattributed time, as shares of wall_s."""
    own = tracer.self_times()
    self_s = Counter()
    for idx, (name, *_rest) in enumerate(tracer.spans):
        self_s[name.split(".", 1)[0]] += own[idx]
    attributed = sum(self_s.values())
    lines = [f"{'layer':<14}{'self_s':>10}{'share':>8}"]
    for layer in LAYERS:
        lines.append(f"{layer:<14}{self_s[layer]:>10.4f}{self_s[layer] / wall_s:>8.1%}")
    rest = wall_s - attributed
    lines.append(f"{'unattributed':<14}{rest:>10.4f}{rest / wall_s:>8.1%}")
    lines.append(f"{'wall':<14}{wall_s:>10.4f}{1:>8.1%}")
    return lines

