r"""Time a revision of greendry against the working tree, in alternated pairs.

    python benchmarks/ab.py REV [--pairs 20] [--days 4] [--json OUT]

REV is any git revision.  `git archive REV src/greendry
configs/baseline_copra.yaml` is unpacked into a temporary directory, and
that tree ("parent") and the working tree's src/greendry ("change") are
loaded in this one process under two module names: every module of
greendry imports its siblings relatively, so the two trees do not see
each other.  Each case is built once per side, from that side's
configs/baseline_copra.yaml (REV's, or the working tree's), which its
own config schema reads, under `days` synthetic tropical days, as
benchmarks/test_layers.py builds them, and run once untimed; then each
pair times one call on each side, the parent first in even pairs and
the change first in odd ones, so that a change in the host's speed falls
on both sides alike.  The cases:

- steps: the walk of `solver.steps`, the forcing streamed, every state
  of the run with its work, none kept (as `greendry run` takes it);
- steps_prebuilt: the same walk over a forcing built in advance, as a
  sweep builds it once per dt and shares it among its points;
- write_run: `cli._write_run` of the run's states and work, built in
  advance, into two files in a temporary directory;
- read_states: `weather.read_csv` of t_s and T_a_K from the states.csv
  that write_run writes (validate's read of the states file);
- validate: one in-process `greendry validate` of T_a_K of that
  states.csv against 2500 observations, built as
  benchmarks/test_layers.py::validate_argv builds them;
- import_cli: a fresh interpreter that runs `import greendry.cli`, with
  the side's tree first on its path (the start-up every command pays);
- grid_search: `sweep.grid_search`, in this process, of the bench's
  18-point drying-time grid (airflow.V_a {1, 3} x product.F_p {0.3, 0.5,
  0.7} x cover.tau_c {0.7, 0.85, 0.9}, target 0.08) with a 60 h horizon,
  or the whole weather when `days` is shorter, on as many worker
  processes as the side starts for it;
- drying_time: `sweep.drying_time_objective` of one point of that grid
  (airflow.V_a 1, product.F_p 0.3, cover.tau_c 0.7), in this process,
  over its forcing built in advance: the walk a sweep worker takes per
  point, without the forks of grid_search.

For each case it prints, per side, the median and quartiles in
milliseconds, the pairs in which the change was faster and the two-sided
sign-test p-value of that count, and with --json writes them, with every
time, to OUT.  A figure from fewer than ~10 pairs says little.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import importlib.util
import io
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = Path("configs") / "baseline_copra.yaml"
CASES = ("steps", "steps_prebuilt", "write_run", "read_states", "validate", "import_cli",
         "grid_search", "drying_time")
# the grid_search case's (dotted path, values), and the drying_time case's
# point of it
GRID = (("airflow.V_a", (1.0, 3.0)), ("product.F_p", (0.3, 0.5, 0.7)),
        ("cover.tau_c", (0.7, 0.85, 0.9)))
POINT = {"airflow.V_a": 1.0, "product.F_p": 0.3, "cover.tau_c": 0.7}
TARGET_MDB = 0.08
SIDES = ("parent", "change")


def _archive(rev: str, into: Path) -> str:
    """Unpack src/greendry and CONFIG of rev under into; return rev's
    commit id."""
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--verify",
                             f"{rev}^{{commit}}"], capture_output=True, text=True,
                            check=True).stdout.strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit,
                          "src/greendry", CONFIG.as_posix()],
                         capture_output=True, check=True).stdout
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


def _observe(states, path: Path) -> None:
    """Write to path 2500 seeded irregular observations of T_a_K, each the
    value of states (t_s and T_a_K) at the step before its time times
    (1 + 2 % gaussian noise), as benchmarks/test_layers.py::validate_argv
    writes them."""
    ts, T_a = states["t_s"], states["T_a_K"]
    rng = random.Random(2500)
    lines = ["t_s,T_a_K"]
    for t in sorted(rng.uniform(ts[0], ts[-1]) for _ in range(2500)):
        T = T_a[bisect.bisect_right(ts, t) - 1]
        lines.append(f"{t!r},{T * (1.0 + rng.gauss(0.0, 0.02))!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _validate(cli, argv) -> None:
    """`greendry validate` with argv in this process, its report line
    discarded; RuntimeError unless it exits 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out:
        try:
            cli.main(argv)
        except SystemExit as exc:
            if exc.code != 0:
                raise RuntimeError(f"validate exited {exc.code}: {out.getvalue()}") from None


def _cases(name: str, root: Path, days: int, scratch: Path) -> dict:
    """{case: the call that case times} for the package name loaded from
    root's src/greendry, with its inputs built here from root's CONFIG."""
    tree = root / "src" / "greendry"
    _load(name, tree)
    solver = importlib.import_module(f"{name}.solver")
    cli = importlib.import_module(f"{name}.cli")
    config = importlib.import_module(f"{name}.config")
    cfg = config.load_config(root / CONFIG)
    weather_module = importlib.import_module(f"{name}.weather")
    read_csv, weather = weather_module.read_csv, weather_module.synthetic_days(days)
    sweep = importlib.import_module(f"{name}.sweep")
    horizon_s = min(60 * 3600.0, weather.horizon())
    grid = sweep.SweepSpec(parameters=GRID, objective="drying_time", target_mdb=TARGET_MDB,
                           weather=weather, horizon_s=horizon_s)
    forcing = tuple(solver.weather_forcing(weather, cfg.numerics.dt))
    point_cfg = config.apply_overrides(cfg, POINT)
    point_forcing = tuple(solver.weather_forcing(weather, point_cfg.numerics.dt, horizon_s))
    run = tuple(solver.steps(cfg, weather))
    states, diagnostics = scratch / f"{name}_states.csv", scratch / f"{name}_diag.csv"
    observed = scratch / f"{name}_observed.csv"
    # read_states and validate read states, which write_run rewrites as it was
    cli._write_run(states, diagnostics, run, "ab")

    def two_columns(header):
        return "t_s", "T_a_K"

    _observe(read_csv(states, two_columns)[0], observed)
    argv = ["validate", "--states", str(states), "--observed", str(observed),
            "--variable", "T_a_K"]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(tree.parent), os.environ.get("PYTHONPATH"))))}

    def walk(forcing=None):
        for _ in solver.steps(cfg, weather, forcing=forcing):
            pass

    return {
        "steps": walk,
        "steps_prebuilt": lambda: walk(forcing),
        "write_run": lambda: cli._write_run(states, diagnostics, run, "ab"),
        "read_states": lambda: read_csv(states, two_columns),
        "validate": lambda: _validate(cli, argv),
        "import_cli": lambda: subprocess.run(
            [sys.executable, "-c", "import greendry.cli"], env=env, check=True),
        "grid_search": lambda: sweep.grid_search(cfg, grid),
        "drying_time": lambda: sweep.drying_time_objective(
            point_cfg, weather, TARGET_MDB, horizon_s, point_forcing),
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
        roots = {"parent": tmp / "parent", "change": ROOT}
        calls = {side: _cases(f"greendry_ab_{side}", roots[side], args.days, tmp)
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
