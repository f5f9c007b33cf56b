"""The pytest-benchmark cases and the A/B harness live outside
testpaths; run them once, untimed or for two pairs, so that a signature
change they depend on fails here."""

import importlib.util
import json
import os
import subprocess
import sys

from conftest import REPO_ROOT


def test_layer_benchmarks_run():
    env = dict(os.environ)
    src = str(REPO_ROOT / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks", "-q", "--benchmark-disable",
         "-p", "no:cacheprovider"],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_ab_harness_runs(tmp_path):
    # two pairs of the committed tree against the working tree, one day
    # each, every case: the harness keeps working
    out = tmp_path / "ab.json"
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "benchmarks" / "ab.py"), "HEAD", "--pairs", "2",
         "--days", "1", "--json", str(out)],
        cwd=REPO_ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    summary = json.loads(out.read_text(encoding="utf-8"))
    assert set(summary["cases"]) == {"steps", "steps_prebuilt", "write_run", "read_states",
                                     "validate", "import_cli", "grid_search", "drying_time"}
    for case in summary["cases"].values():
        assert case["pairs"] == 2 and 0 <= case["change_faster"] <= 2
        assert len(case["parent"]["ms"]) == len(case["change"]["ms"]) == 2
        assert 0.0 < case["sign_test_p"] <= 1.0


def test_sign_test():
    spec = importlib.util.spec_from_file_location("ab", REPO_ROOT / "benchmarks" / "ab.py")
    ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ab)
    assert ab.sign_test(10, 0) == ab.sign_test(0, 10) == 2.0 / 2**10
    assert ab.sign_test(9, 1) == 2.0 * 11 / 2**10
    assert ab.sign_test(3, 3) == ab.sign_test(0, 0) == 1.0


def test_code_lines(tmp_path):
    # the line count leaves out docstrings, comments and blank lines, and
    # counts each line of a statement over several; the token count leaves
    # out comments and the newlines of blank and continued lines, but counts
    # each docstring as one token, and NEWLINE, INDENT, DEDENT and ENDMARKER
    # as the parser reads them
    (tmp_path / "one.py").write_text(
        '"""Module\ndocstring."""\n\n# a comment\nimport math  # trailing\n\n\n'
        'def f(x):\n    """Docstring."""\n    return (x +\n            math.pi)\n',
        encoding="utf-8")
    (tmp_path / "two.py").write_text('TEXT = """not a\ndocstring"""\n', encoding="utf-8")
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "benchmarks" / "code_lines.py"),
                           str(tmp_path)], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert [line.split() for line in proc.stdout.splitlines()] == [
        ["one.py", "4", "26"], ["two.py", "2", "5"], ["total", "6", "31"]]
    # by default, every module of src/greendry
    proc = subprocess.run([sys.executable, str(REPO_ROOT / "benchmarks" / "code_lines.py")],
                          capture_output=True, text=True, timeout=60)
    names = [line.split()[0] for line in proc.stdout.splitlines()]
    assert names == sorted(p.name for p in (REPO_ROOT / "src" / "greendry").glob("*.py")) \
        + ["total"]
