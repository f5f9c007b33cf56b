"""Run every benchmark workload for one seed, one after the other.

    python3 bench/run_all.py --seed 0 [--seconds 30] [--trace 0|1]

Prints each workload's report and a summary line per workload; exits 1
when any workload failed its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

import run


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=run.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=run.DEFAULT_SECONDS)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    summary, status = [], 0
    for name in run.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=run.ROOT, capture_output=True, text=True, timeout=600)
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if proc.returncode != 0 or result is None:
            status = 1
            summary.append(f"{name}: FAILED (exit {proc.returncode})")
            continue
        frac = result["failed"] / result["attempted"]
        metrics = ", ".join(f"{k}={v['value']:.6g} {v['unit']}"
                            for k, v in result["metrics"].items() if "." not in k or k.startswith("trace."))
        summary.append(f"{name}: correct={result['correct']} failed_frac={frac:g} "
                       f"({result['failed']}/{result['attempted']}); {metrics}")
    print("summary (seed %d):" % args.seed)
    for line in summary:
        print("  " + line)
    return status


if __name__ == "__main__":
    sys.exit(main())
