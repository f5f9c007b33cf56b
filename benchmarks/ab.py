r"""Time a revision of greendry against the working tree, in alternated pairs.

    python benchmarks/ab.py REV [--pairs 20] [--days 4] [--json OUT]

REV is any git revision.  `git archive REV src/greendry` is unpacked into
a temporary directory, and that tree ("parent") and the working tree's
src/greendry ("change") are loaded in this one process under two module
names: every module of greendry imports its siblings relatively, so the
two trees do not see each other.  Each case is built once per side from
the same inputs (configs/baseline_copra.yaml under `days` synthetic
tropical days, as benchmarks/test_layers.py builds them) and run once
untimed; then each pair times one call on each side, the parent first in
even pairs and the change first in odd ones, so that a change in the
host's speed falls on both sides alike.  The cases:

- steps: the walk of `solver.steps`, the forcing streamed, every state
  of the run with its work, none kept (as `greendry run` takes it);
- steps_prebuilt: the same walk over a forcing built in advance, as a
  sweep builds it once per dt and shares it among its points;
- write_run: `cli._write_run` of the run's states and work, built in
  advance, into two files in a temporary directory;
- import_cli: a fresh interpreter that runs `import greendry.cli`, with
  the side's tree first on its path (the start-up every command pays).

For each case it prints, per side, the median and quartiles in
milliseconds, the pairs in which the change was faster and the two-sided
sign-test p-value of that count, and with --json writes them, with every
time, to OUT.  A figure from fewer than ~10 pairs says little.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "baseline_copra.yaml"
CASES = ("steps", "steps_prebuilt", "write_run", "import_cli")
SIDES = ("parent", "change")


def _archive(rev: str, into: Path) -> str:
    """Unpack src/greendry of rev under into; return rev's commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True, text=True,
                            check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit,
                          "src/greendry"], capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        if hasattr(tarfile, "data_filter"):
            archive.extractall(into, filter="data")
        else:
            archive.extractall(into)
    return commit


def _load(name: str, tree: Path) -> None:
    """Import the package in tree (a greendry directory) as name."""
    spec = importlib.util.spec_from_file_location(
        name, tree / "__init__.py", submodule_search_locations=[str(tree)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)


def _cases(name: str, tree: Path, days: int, scratch: Path) -> dict:
    """{case: the call that case times} for the package name loaded from
    tree, with its inputs built here."""
    _load(name, tree)
    solver = importlib.import_module(f"{name}.solver")
    cli = importlib.import_module(f"{name}.cli")
    cfg = importlib.import_module(f"{name}.config").load_config(CONFIG)
    weather = importlib.import_module(f"{name}.weather").synthetic_days(days)
    forcing = tuple(solver.weather_forcing(weather, cfg.numerics.dt))
    run = tuple(solver.steps(cfg, weather))
    states, diagnostics = scratch / f"{name}_states.csv", scratch / f"{name}_diag.csv"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(tree.parent), os.environ.get("PYTHONPATH"))))}

    def walk(forcing=None):
        for _ in solver.steps(cfg, weather, forcing=forcing):
            pass

    return {
        "steps": walk,
        "steps_prebuilt": lambda: walk(forcing),
        "write_run": lambda: cli._write_run(states, diagnostics, run, "ab"),
        "import_cli": lambda: subprocess.run(
            [sys.executable, "-c", "import greendry.cli"], env=env, check=True),
    }


def _timed(call) -> float:
    start = time.perf_counter()
    call()
    return time.perf_counter() - start


def sign_test(wins: int, losses: int) -> float:
    """Two-sided exact sign-test p-value of wins against losses (ties
    left out)."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1))
    return min(1.0, 2.0 * tail / 2.0**n)


def _stats(seconds) -> dict:
    ms = [s * 1e3 for s in seconds]
    q1, median, q3 = statistics.quantiles(ms, n=4, method="inclusive")
    return {"median_ms": median, "q1_ms": q1, "q3_ms": q3, "ms": ms}


def summarize(times: dict) -> dict:
    """Per case, each side's stats, the change's wins and the sign test,
    from {case: {side: [seconds of each pair]}}."""
    out = {}
    for case, sides in times.items():
        parent, change = sides["parent"], sides["change"]
        wins = sum(c < p for p, c in zip(parent, change))
        losses = sum(c > p for p, c in zip(parent, change))
        p_stats, c_stats = _stats(parent), _stats(change)
        out[case] = {
            "parent": p_stats, "change": c_stats,
            "change_faster": wins, "pairs": len(parent),
            "sign_test_p": sign_test(wins, losses),
            "parent_over_change_median": p_stats["median_ms"] / c_stats["median_ms"],
        }
    return out


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("rev", help="the git revision to time against the working tree")
    ap.add_argument("--pairs", type=int, default=20)
    ap.add_argument("--days", type=int, default=4,
                    help="synthetic tropical days of the run (default 4)")
    ap.add_argument("--json", help="write the summary and every time here")
    args = ap.parse_args(argv)
    if args.pairs < 2 or args.days < 1:
        ap.error("--pairs must be >= 2 and --days >= 1")

    with tempfile.TemporaryDirectory(prefix="greendry-ab-") as tmp:
        tmp = Path(tmp)
        commit = _archive(args.rev, tmp / "parent")
        trees = {"parent": tmp / "parent" / "src" / "greendry",
                 "change": ROOT / "src" / "greendry"}
        calls = {side: _cases(f"greendry_ab_{side}", trees[side], args.days, tmp)
                 for side in SIDES}
        times = {case: {side: [] for side in SIDES} for case in CASES}
        for case in CASES:
            for side in SIDES:  # untimed: warms the caches
                calls[side][case]()
        for pair in range(args.pairs):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for case in CASES:
                for side in order:
                    times[case][side].append(_timed(calls[side][case]))

    summary = {
        "parent": {"rev": args.rev, "commit": commit},
        "change": "working tree",
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "days": args.days,
        "pairs": args.pairs,
        "cases": summarize(times),
    }
    for case, s in summary["cases"].items():
        p, c = s["parent"], s["change"]
        print(f"{case:15s} parent {p['median_ms']:8.2f} ms [{p['q1_ms']:.2f}, "
              f"{p['q3_ms']:.2f}]  change {c['median_ms']:8.2f} ms [{c['q1_ms']:.2f}, "
              f"{c['q3_ms']:.2f}]  faster {s['change_faster']}/{s['pairs']}  "
              f"p={s['sign_test_p']:.3g}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return summary


if __name__ == "__main__":
    main()
