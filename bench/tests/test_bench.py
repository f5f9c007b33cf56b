"""Tests of the benchmark's own machinery: span arithmetic, seeded inputs,
the correctness gate and the speed calibration.  Run with: python3 -m pytest bench/tests"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import calib  # noqa: E402
import gate  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # root [0,100] > a [10,40] > a1 [20,30]; root > b [50,60], c [55,70]
    # (b and c overlap: the root loses their union, 20, not 25)
    parent = [-1, 0, 1, 0, 0]
    start = [0, 10, 20, 50, 55]
    end = [100, 40, 30, 60, 70]
    assert spans.self_times(parent, start, end) == [100 - 30 - 20, 30 - 10, 10, 10, 15]


def test_self_time_clips_child_to_parent():
    assert spans.self_times([-1, 0], [0, 5], [10, 20]) == [5, 15]


def test_tracer_records_parents_and_layer_stats():
    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda: None)

    def body():
        leaf()
        leaf()

    outer = tracer.wrap("outer", body)
    outer()
    outer()
    assert list(tracer.parent) == [-1, 0, 0, -1, 3, 3]
    stats = spans.layer_stats(tracer)
    assert (stats["outer"].calls, stats["leaf"].calls) == (2, 4)
    total = sum(e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0)
    assert stats["outer"].self_ns + stats["leaf"].self_ns == total
    dump = tracer.to_json("run-1")
    assert dump["run_id"] == "run-1" and len(dump["spans"]["name"]) == 6


def test_patched_restores_and_skips_missing_sites():
    import json as target

    original = target.dumps
    tracer = spans.Tracer()
    with spans.patched(tracer, {("json", "dumps"): "json", ("json", "no_such"): "x"}):
        target.dumps([1])
    assert target.dumps is original
    assert tracer.missing == ["json.no_such"]
    assert spans.layer_stats(tracer)["json"].calls == 1


def test_tail_needs_ten_samples_beyond():
    assert run.tail(list(range(19))) is None
    assert run.tail(list(range(20)))[0] == "p50"
    assert run.tail([float(i) for i in range(5760)])[0] == "p99"


def test_inputs_repeat_for_a_seed_and_differ_between_seeds():
    assert inputs.weather_csv(7) == inputs.weather_csv(7)
    assert inputs.weather_csv(7) != inputs.weather_csv(8)
    header, rows = gate.parse_csv(inputs.weather_csv(7))
    assert header == inputs.WEATHER_HEADER.split(",") and len(rows) == 577
    states = {"t_s": [0.0, 100.0, 200.0], "H": [1.0, 2.0, 3.0], "M_db": [3.0, 2.0, 1.0],
              **{c: [300.0, 310.0, 305.0] for c in ("T_c_K", "T_a_K", "T_p_K", "T_f_K")}}
    first = inputs.observation_csvs(3, states)
    assert first == inputs.observation_csvs(3, states)
    assert first != inputs.observation_csvs(4, states)
    times = inputs.campaign_times(3, 0, 0.0, 200.0)
    assert len(times) == inputs.CAMPAIGN_POINTS
    assert all(0.0 < a < b < 200.0 for a, b in zip(times, times[1:]))


def states_text(rows):
    lines = ["# inputs_sha256=0", ",".join(gate.STATE_COLUMNS)]
    lines += [",".join(repr(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


ROWS = [[i * 60.0, 300.0 + i, 301.0, 302.0, 303.0, 0.015, 0.5 - 0.01 * i, 60.0]
        for i in range(30)]


def test_states_checks_catch_bad_rows():
    assert gate.check_states(states_text(ROWS), 30, 60.0) == []
    rising = [row[:] for row in ROWS]
    rising[5][6] = 0.9
    assert gate.check_states(states_text(rising), 30, 60.0)
    nan = [row[:] for row in ROWS]
    nan[3][2] = float("nan")
    assert gate.check_states(states_text(nan), 30, 60.0)
    assert gate.check_states(states_text(ROWS[:-1]), 30, 60.0)


def test_states_reference_accepts_tolerance_and_rejects_tampering():
    ref = gate.states_reference(states_text(ROWS))
    assert gate.check_states_reference(states_text(ROWS), ref) == []
    within = [row[:] for row in ROWS]
    within[24][2] *= 1.0 + 1e-14
    assert gate.check_states_reference(states_text(within), ref) == []
    tampered = json.loads(json.dumps(ref))
    tampered["sha256"] = "0" * 64
    assert gate.check_states_reference(states_text(ROWS), tampered) == []
    tampered["sample"]["24"][2] *= 1.0 + 1e-9
    assert gate.check_states_reference(states_text(ROWS), tampered)


def sweep_text(ref_rows):
    paths = [p for p, _ in inputs.SWEEP_GRID]
    lines = ["# inputs_sha256=0", ",".join(["rank", *paths, "objective_hours", "reached"])]
    for rank, point, obj, reached in ref_rows:
        lines.append(",".join([str(rank), *(repr(v) for v in point), obj, str(reached)]))
    return "\n".join(lines) + "\n"


def test_stored_reference_passes_its_own_sweep_and_fails_when_tampered():
    ref = json.loads(run.REFERENCE.read_text())
    text = sweep_text(ref["sweep"])
    assert gate.check_sweep(text, inputs.SWEEP_GRID, inputs.SWEEP_HORIZON_H) == []
    assert gate.check_sweep_reference(text, ref["sweep"]) == []
    tampered = json.loads(json.dumps(ref["sweep"]))
    tampered[0][2] = repr(float(tampered[0][2]) * (1.0 + 1e-9))
    assert gate.check_sweep_reference(text, tampered)
    swapped = json.loads(json.dumps(ref["sweep"]))
    swapped[0][2], swapped[1][2] = swapped[1][2], swapped[0][2]
    assert gate.check_sweep(sweep_text(swapped), inputs.SWEEP_GRID, inputs.SWEEP_HORIZON_H)


def test_validate_gate_parses_and_compares():
    line = "T_a_K: mean |diff| = 1.5732 % over 2500 points (max abs diff 23.64); limit 10.0 % -> PASS"
    assert gate.check_validate_line(line, "T_a_K", 1.57323, 2500) == []
    assert gate.check_validate_line(line, "T_a_K", 1.5740, 2500)
    assert gate.check_validate_line(line.replace("PASS", "FAIL"), "T_a_K", 1.5732, 2500)
    ref = json.loads(run.REFERENCE.read_text())["validate"]
    assert gate.check_validate_reference(dict(ref), ref) == []
    tampered = dict(ref)
    key = sorted(tampered)[0]
    tampered[key] = tampered[key].replace("%", "% ", 1)
    assert gate.check_validate_reference(tampered, ref)


def test_benchmark_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "run_4day", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_calibration_kernel_is_deterministic():
    assert [calib.rep(k) for k in (0, 7)] == [calib.rep(k) for k in (0, 7)]


def test_speed_probe_samples_while_armed_and_is_disarmed_after():
    probe = calib.SpeedProbe(interval=0.01)
    with probe:
        t_end = time.perf_counter() + 0.2
        while time.perf_counter() < t_end:
            pass
    n = len(probe.speeds)
    assert n >= 5 and all(v > 0 for v in probe.speeds)
    assert 0 < probe.spent < 0.2
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    time.sleep(0.05)
    assert len(probe.speeds) == n
    with probe:
        pass
    assert len(probe.speeds) == 1  # too short for the timer: one sample on exit
    assert probe.spent == 0.0
