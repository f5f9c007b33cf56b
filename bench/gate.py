"""Correctness gate: checks on the program's outputs for one benchmark run.

Every check returns a list of error strings; an empty list means the
output passed.  The reference checks compare against outputs stored for
the default seed, byte for byte or, failing that, within REL_TOL.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import math
import re

from inputs import interpolate

REL_TOL = 1e-12
STATE_COLUMNS = ["t_s", "T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db", "rh_pct"]
# Stored reference keeps every STATES_SAMPLE_EVERY-th row plus the last one.
STATES_SAMPLE_EVERY = 24

VALIDATE_LINE = re.compile(
    r"^(?P<var>\S+): mean \|diff\| = (?P<pct>\S+) % over (?P<n>\d+) points "
    r"\(max abs diff \S+\); limit \S+ % -> (?P<verdict>PASS|FAIL)$"
)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV written by the program; '#' lines skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    rows = list(csv.reader(lines))
    return (rows[0], rows[1:]) if rows else ([], [])


def close(a: float, b: float) -> bool:
    return a == b or math.isclose(a, b, rel_tol=REL_TOL, abs_tol=0.0)


def check_states(text: str, n_rows: int, dt: float) -> list[str]:
    """states.csv: header, row count, finite values, the time grid, and
    possible states (air within the 250-360 K property table, other
    temperatures within 200-400 K, non-rising moisture)."""
    if not text.startswith("# inputs_sha256="):
        return ["states.csv: missing inputs_sha256 header"]
    header, rows = parse_csv(text)
    if header != STATE_COLUMNS:
        return [f"states.csv: header {header}, expected {STATE_COLUMNS}"]
    if len(rows) != n_rows:
        return [f"states.csv: {len(rows)} rows, expected {n_rows}"]
    errors = []
    prev_m = math.inf
    for i, row in enumerate(rows):
        try:
            t, T_c, T_a, T_p, T_f, H, M, rh = (float(v) for v in row)
        except ValueError:
            errors.append(f"states.csv row {i}: not 8 numbers: {row}")
            continue
        values = (t, T_c, T_a, T_p, T_f, H, M, rh)
        if not all(math.isfinite(v) for v in values):
            errors.append(f"states.csv row {i}: non-finite value {row}")
        elif t != i * dt:
            errors.append(f"states.csv row {i}: t_s={t}, expected {i * dt}")
        elif not (250.0 <= T_a <= 360.0 and all(200.0 < T < 400.0 for T in (T_c, T_p, T_f))):
            errors.append(f"states.csv row {i}: temperature out of range: {row}")
        elif H < 0.0 or not 0.0 <= rh <= 100.0 or M > prev_m:
            errors.append(f"states.csv row {i}: H, rh or rising moisture out of range: {row}")
        prev_m = M
        if len(errors) >= 5:
            break
    return errors


def compare_rows(actual: list[list[float]], expected: list[list[float]],
                 label: str, row_numbers=None) -> list[str]:
    """First row that differs beyond REL_TOL; rows are numbered by
    position unless row_numbers is given."""
    if len(actual) != len(expected):
        return [f"{label}: {len(actual)} rows, expected {len(expected)}"]
    for i, (a_row, e_row) in enumerate(zip(actual, expected)):
        if len(a_row) != len(e_row) or not all(map(close, a_row, e_row)):
            row = i if row_numbers is None else row_numbers[i]
            return [f"{label} row {row}: {a_row} != expected {e_row}"]
    return []


def states_reference(text: str) -> dict:
    _, rows = parse_csv(text)
    keep = sorted(set(range(0, len(rows), STATES_SAMPLE_EVERY)) | {len(rows) - 1})
    return {
        "sha256": sha256(text.encode()),
        "rows": len(rows),
        "sample": {str(i): [float(v) for v in rows[i]] for i in keep},
    }


def check_states_reference(text: str, ref: dict) -> list[str]:
    """Byte-identical to the stored states.csv, or the stored sample of its
    rows within REL_TOL (the first line holds a hash of the input files,
    which changes when the config file's text does)."""
    if sha256(text.encode()) == ref["sha256"]:
        return []
    _, rows = parse_csv(text)
    if len(rows) != ref["rows"]:
        return [f"states.csv: {len(rows)} rows, reference has {ref['rows']}"]
    rows_kept = [int(k) for k in ref["sample"]]
    actual = [[float(v) for v in rows[i]] for i in rows_kept]
    return compare_rows(actual, list(ref["sample"].values()), "states.csv vs reference",
                        rows_kept)


def sweep_table(text: str) -> list[tuple[int, tuple[float, ...], float, int]]:
    """(rank, point, objective, reached) per sweep.csv row."""
    _, rows = parse_csv(text)
    return [(int(r[0]), tuple(float(v) for v in r[1:-2]), float(r[-2]), int(r[-1]))
            for r in rows]


def check_sweep(text: str, grid, horizon_h: float) -> list[str]:
    """sweep.csv: every grid point once, ranks 1..N, sorted by objective
    with ties broken by the point, and reached iff the objective is finite
    and within the horizon."""
    header, _ = parse_csv(text)
    paths = [p for p, _ in grid]
    if header[1:-2] != paths:
        return [f"sweep.csv: parameter columns {header[1:-2]}, expected {paths}"]
    table = sweep_table(text)
    expected_points = sorted(itertools.product(*(vals for _, vals in grid)))
    errors = []
    if sorted(point for _, point, _, _ in table) != expected_points:
        errors.append("sweep.csv: grid points missing or repeated")
    if [rank for rank, _, _, _ in table] != list(range(1, len(table) + 1)):
        errors.append("sweep.csv: ranks are not 1..N")
    keys = [(obj, list(point)) for _, point, obj, _ in table]
    if keys != sorted(keys):
        errors.append("sweep.csv: ranking is not sorted by objective, then point")
    for rank, point, obj, reached in table:
        if reached != (0.0 < obj <= horizon_h):
            errors.append(f"sweep.csv rank {rank}: reached={reached} with objective {obj}")
    return errors


def sweep_reference(text: str) -> list[list]:
    return [[rank, list(point), repr(obj), reached]
            for rank, point, obj, reached in sweep_table(text)]


def check_sweep_reference(text: str, ref: list[list]) -> list[str]:
    table = sweep_table(text)
    if len(table) != len(ref):
        return [f"sweep.csv: {len(table)} rows, reference has {len(ref)}"]
    for (rank, point, obj, reached), (r_rank, r_point, r_obj, r_reached) in zip(table, ref):
        if (rank, list(point), reached) != (r_rank, r_point, r_reached) or not close(obj, float(r_obj)):
            return [f"sweep.csv rank {rank}: {list(point)} {obj!r} reached={reached}, "
                    f"reference {r_point} {r_obj} reached={r_reached}"]
    return []


def parse_validate_line(line: str) -> dict | None:
    m = VALIDATE_LINE.match(line.strip())
    if m is None:
        return None
    return {"var": m["var"], "pct": float(m["pct"]), "n": int(m["n"]),
            "passed": m["verdict"] == "PASS"}


def mean_abs_pct(states: dict[str, list[float]], observed: list[tuple[float, float]],
                 column: str) -> float:
    """Independent recomputation of the validate metric."""
    total = 0.0
    for t, y in observed:
        total += 100.0 * abs(interpolate(states["t_s"], states[column], t) - y) / abs(y)
    return total / len(observed)


def check_validate_line(line: str, column: str, expected_pct: float, n: int) -> list[str]:
    """The printed report names the column, counts every observed point,
    passes, and agrees with the independent metric to its 4 printed
    decimals."""
    parsed = parse_validate_line(line)
    if parsed is None:
        return [f"validate {column}: unexpected output {line!r}"]
    errors = []
    if parsed["var"] != column or parsed["n"] != n or not parsed["passed"]:
        errors.append(f"validate {column}: {line!r}, expected {n} points and PASS")
    if abs(parsed["pct"] - expected_pct) > 0.5e-4 * (1.0 + 1e-9):
        errors.append(f"validate {column}: printed {parsed['pct']} %, recomputed {expected_pct} %")
    return errors


def check_validate_reference(lines: dict[str, str], ref: dict[str, str]) -> list[str]:
    if sorted(lines) != sorted(ref):
        return [f"validate: checks {sorted(lines)}, reference has {sorted(ref)}"]
    return [f"validate {key}: {lines[key]!r} != reference {ref[key]!r}"
            for key in sorted(ref) if lines[key] != ref[key]]
