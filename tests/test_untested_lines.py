"""tools/untested_lines.py: the lines of a package that no test runs, on a
toy package and its one test (not on this suite)."""
from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

TOY = '''import threading

LIMIT = 3


def grade(x):
    if x > LIMIT:
        return "high"
    return "low"


def in_thread(x):
    out = []
    worker = threading.Thread(target=lambda: out.append(grade(x)))
    worker.start()
    worker.join()
    return out[0]


def never():
    return 1
'''

TOY_TEST = '''from toy_untested import in_thread


def test_high_in_a_thread():
    assert in_thread(5) == "high"
'''


def _tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "untested_lines.py"
    spec = importlib.util.spec_from_file_location("untested_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


untested_lines = _tool()


def test_lists_the_lines_no_test_ran_threads_included(tmp_path, capsys, monkeypatch):
    pkg = tmp_path / "toy_untested"
    pkg.mkdir()
    (pkg / "__init__.py").write_text(TOY)
    test = tmp_path / "test_toy_untested.py"
    test.write_text(TOY_TEST)
    monkeypatch.setattr(sys, "path", list(sys.path))
    try:
        assert untested_lines.main(["--source", str(pkg), "--", "-q", "-p", "no:cacheprovider",
                                    str(test)]) == 0
    finally:
        for name in ("toy_untested", "test_toy_untested"):
            sys.modules.pop(name, None)
    out = capsys.readouterr().out
    # grade runs only in a worker thread; its "low" branch and never's body
    # never run.
    lines = TOY.splitlines()
    low, never = lines.index('    return "low"') + 1, lines.index("    return 1") + 1
    assert "1 passed" in out
    assert f"__init__.py: 2 lines: {low}, {never}\n" in out
    assert out.endswith("total: 2 lines no test ran\n")


def test_names_the_tests_that_run_code_in_a_child_process(tmp_path):
    test = tmp_path / "test_spawn.py"
    test.write_text("import subprocess\nimport sys\n\n\n"
                    "def test_child():\n    subprocess.run([sys.executable, '-c', ''])\n\n\n"
                    "class TestGroup:\n    def test_child(self):\n"
                    "        subprocess.run([sys.executable, '-c', ''])\n\n"
                    "    def test_inline(self):\n        assert True\n")
    assert untested_lines.subprocess_tests([tmp_path]) == [
        f"{test}::test_child", f"{test}::TestGroup::test_child"]


def test_ranges():
    assert untested_lines.ranges([3, 7, 8, 9, 12]) == "3, 7-9, 12"
    assert untested_lines.ranges([]) == ""
