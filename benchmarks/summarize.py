r"""Merge pytest-benchmark JSON files of two commits into one BENCH_<n>.json.

    python benchmarks/summarize.py --parent p1.json p2.json p3.json \
        --change c1.json c2.json c3.json --out BENCH_2.json

Make each session with

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-max-time=3 \
        --benchmark-json=SESSION.json

and run the two commits' sessions alternately (parent, change, change,
parent, ...): the speed of a shared host can switch every few seconds, so
each case should span several switches and the drift should fall on both
sides alike.  For each case the summary gives, per side, the
median over sessions of each session's min and median (in microseconds),
and the ratio parent / change of those medians.  A case one side lacks is
listed with null for that side.
"""

from __future__ import annotations

import argparse
import json
import statistics


def _load(paths):
    """{case name: [stats of each session]} and the first file's header."""
    cases, header = {}, None
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        header = header or data
        for bench in data["benchmarks"]:
            cases.setdefault(bench["name"], []).append(bench["stats"])
    return cases, header


def _side(sessions):
    if not sessions:
        return None
    return {
        "min_us": statistics.median(s["min"] for s in sessions) * 1e6,
        "median_us": statistics.median(s["median"] for s in sessions) * 1e6,
        "rounds": [s["rounds"] for s in sessions],
    }


def summarize(parent_paths, change_paths) -> dict:
    parent, header = _load(parent_paths)
    change, _ = _load(change_paths)
    cases = {}
    for name in sorted(set(parent) | set(change)):
        p, c = _side(parent.get(name)), _side(change.get(name))
        cases[name] = {
            "parent": p,
            "change": c,
            "parent_over_change_median": (p["median_us"] / c["median_us"]
                                          if p and c else None),
            "parent_over_change_min": (p["min_us"] / c["min_us"]
                                       if p and c else None),
        }
    info = header["machine_info"]
    return {
        "tool": f"pytest-benchmark {header['version']}",
        "python": info["python_version"],
        "cpu": f"{info['cpu'].get('brand_raw', '?')}, "
               f"{info['cpu'].get('count', '?')} vCPU",
        "sessions": {"parent": len(parent_paths), "change": len(change_paths)},
        "cases": cases,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    summary = summarize(args.parent, args.change)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, case in summary["cases"].items():
        ratio = case["parent_over_change_median"]
        print(f"{name:32s} parent/change median: "
              f"{'n/a' if ratio is None else f'{ratio:.2f}x'}")


if __name__ == "__main__":
    main()
