"""List the lines of a package that no test runs.

    python3 tools/untested_lines.py [--source src/runoff] [-- PYTEST_ARGS...]

The tests run in this process, under pytest, with a line collector
installed through sys.settrace and threading.settrace before the package
is imported, so module-level code and the worker threads of a pool are
seen too. Only frames whose code lies under --source are traced. A line
counts as executable when a code object of a module under --source names
it in co_lines(); the output gives, per module, the executable lines that
no test ran, as ranges. Tests that start a child process (a call into
subprocess) run code this process cannot see: the output names them. The
default pytest arguments are those of the tier-1 suite, on tests/ of this
checkout. The package's parent directory goes first on sys.path.
"""

from __future__ import annotations

import argparse
import ast
import sys
import threading
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(path: Path) -> set[int]:
    """The line numbers that the code objects compiled from path name."""
    lines: set[int] = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # 0: no source line
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(lines: list[int]) -> str:
    """Sorted line numbers as "3, 7-9, 12"."""
    spans: list[list[int]] = []
    for line in lines:
        if spans and line == spans[-1][1] + 1:
            spans[-1][1] = line
        else:
            spans.append([line, line])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def subprocess_tests(paths: list[Path]) -> list[str]:
    """file::[Class::]test of every test function that calls into subprocess."""
    found = []
    for path in paths:
        files = sorted(path.rglob("test_*.py")) if path.is_dir() else [path]
        for file in (f for f in files if f.suffix == ".py"):
            tree = ast.parse(file.read_text())
            scopes = [(node, "") for node in tree.body]
            for node, prefix in scopes:
                if isinstance(node, ast.ClassDef):
                    scopes.extend((n, f"{prefix}{node.name}::") for n in node.body)
                elif (isinstance(node, ast.FunctionDef) and node.name.startswith("test")
                      and any(isinstance(n, ast.Attribute)
                              and getattr(n.value, "id", None) == "subprocess"
                              for n in ast.walk(node))):
                    name = file.relative_to(ROOT) if file.is_relative_to(ROOT) else file
                    found.append(f"{name}::{prefix}{node.name}")
    return found


def trace_tests(source: Path, pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with pytest_args under the line collector; return its exit
    code and, per file under source, the lines that ran."""
    ran: dict[str, set[int]] = defaultdict(set)
    inside: dict[str, bool] = {}
    prefix = str(source) + "/"

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in inside:
            inside[name] = str(Path(name).resolve()).startswith(prefix)
        return local if inside[name] else None

    sys.path.insert(0, str(source.parent))
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), {str(Path(k).resolve()): v for k, v in ran.items()}


def report(source: Path, ran: dict[str, set[int]]) -> list[str]:
    """Per module under source, the executable lines not in ran; then the total."""
    out, total = [], 0
    for path in sorted(source.glob("*.py")):
        missed = sorted(executable_lines(path) - ran.get(str(path.resolve()), set()))
        total += len(missed)
        if missed:
            out.append(f"{path.name}: {len(missed)} lines: {ranges(missed)}")
    out.append(f"total: {total} lines no test ran")
    return out


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    cut = argv.index("--") if "--" in argv else len(argv)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--source", type=Path, default=ROOT / "src" / "runoff",
                    help="package directory whose lines are traced")
    args = ap.parse_args(argv[:cut])
    pytest_args = argv[cut + 1:] or ["-q", "-p", "no:cacheprovider",
                                     "--continue-on-collection-errors", str(ROOT / "tests")]
    source = args.source.resolve()
    if source.name in sys.modules:
        print(f"{source.name} is imported already; its import would go untraced",
              file=sys.stderr)
        return 2
    code, ran = trace_tests(source, pytest_args)
    print(f"untested lines under {source} (pytest exit code {code}):")
    for line in report(source, ran):
        print(line)
    tests = [Path(a) for a in pytest_args if not a.startswith("-") and Path(a).exists()]
    spawned = subprocess_tests(tests)
    if spawned:
        print(f"not traced, as they run the code in a child process ({len(spawned)} tests): "
              + ", ".join(spawned))
    return 0


if __name__ == "__main__":
    sys.exit(main())
