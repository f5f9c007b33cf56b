"""pytest-benchmark cases for the per-step layers, the weather forcing of
4 days and the bracket walk under it, the 4-day stepping without recording, a 4-day simulate, a 4-day
`greendry run` with its CSV write, that run's streamed CSV writer on its
own, the read of two columns of its states.csv, a `greendry validate`
of one column of that run against 2500 observations, a 60 h drying-time
objective, a 6-point sweep (on one CPU, in one process, and with a
worker process per available CPU) and the set-up of validate (the import
of the CLI) and of run (the import, the config and the weather file read)
in a fresh interpreter, the start-up each command pays.

Each name is imported from a module that binds it at this revision and
at older ones (`cli._write_run` and `weather.read_csv`, though the writer
and the reader are defined in `writers` and `tables`), so that this file
can also time an older revision's tree.

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=OUT.json

Every case runs on the baseline config (configs/baseline_copra.yaml) under
the synthetic tropical weather, from the state the baseline run reaches
after SPINUP_STEPS steps (late morning of day 1: drying, sun on the cover),
so each layer sees the inputs a real step gives it.  Not part of the
test suite: pyproject's testpaths is tests/ (tests/test_benchmarks.py runs
these cases once, untimed, so that they keep working).
"""

from __future__ import annotations

import bisect
import hashlib
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import greendry.sweep
from greendry import load_config, simulate, synthetic_days
from greendry.cli import _write_run, main
from greendry.core import air_properties
from greendry.solver import (
    _kinetics_update,
    eliminate,
    energy_system,
    solve_energy_system,
    step,
    stepper,
    steps,
    weather_forcing,
)
from greendry.sweep import SweepSpec, drying_time_objective, grid_search
from greendry.weather import brackets, read_csv, sample, save_csv

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "baseline_copra.yaml"
SPINUP_STEPS = 660  # 11 h at dt = 60 s


@pytest.fixture(scope="module")
def cfg():
    return load_config(CONFIG)


@pytest.fixture(scope="module")
def weather():
    return synthetic_days(4)


@pytest.fixture(scope="module")
def advance(cfg):
    """The step function of the baseline run."""
    return stepper(cfg)


@pytest.fixture(scope="module")
def case(cfg, weather):
    """(state, weather record at the end of the next step)"""
    dt = cfg.numerics.dt
    state = simulate(cfg, weather, horizon_s=SPINUP_STEPS * dt).states[-1]
    return state, sample(weather, state.t + dt)


@pytest.fixture(scope="module")
def forcing(cfg, weather):
    """The weather forcing of the next step."""
    return tuple(weather_forcing(weather, cfg.numerics.dt,
                                 (SPINUP_STEPS + 1) * cfg.numerics.dt))[-1]


@pytest.fixture(scope="module")
def system(advance, case, forcing):
    """The energy system of the next step: advance's work, which
    solve_energy_system takes."""
    state, _ = case
    return advance(state, forcing)[1]


def test_step(benchmark, cfg, case):
    # one step recorded, its step function built for it
    state, w = case
    new, _ = benchmark(step, state, w, cfg)
    assert new.t == state.t + cfg.numerics.dt


def test_advance(benchmark, advance, cfg, case, forcing):
    # the step as solver.steps takes it, without the recording
    state, w = case
    new, _ = benchmark(advance, state, forcing)
    assert new == step(state, w, cfg)[0]


def test_stepper(benchmark, advance, cfg, case, forcing):
    # the run's constants worked out and its step function built, once
    # per run or sweep point
    state, _ = case
    assert benchmark(stepper, cfg)(state, forcing) == advance(state, forcing)


def test_kinetics_update(benchmark, cfg, case):
    # with the run constants stepper hoists
    state, _ = case
    kin = cfg.kinetics
    M_new = benchmark(_kinetics_update, state.T_a, state.M_p, state.rh, cfg.M_0, kin.b0,
                      kin.b1, 1.0 / kin.b2, cfg.numerics.dt / 3600.0, kin)[0]
    assert M_new < state.M_p  # drying


def test_eliminate(benchmark, system):
    A, b = energy_system(system)
    assert benchmark(eliminate, A, b) == solve_energy_system(system)


def test_solve_energy_system(benchmark, system):
    assert benchmark(solve_energy_system, system) == eliminate(*energy_system(system))


def test_air_properties(benchmark, case):
    state, _ = case
    assert benchmark(air_properties, state.T_a).rho > 0


def test_sample(benchmark, weather, case):
    state, _ = case
    t = state.t + 30.0  # between two 600 s records: interpolates
    assert benchmark(sample, weather, t).t == t


def test_simulate_4day(benchmark, cfg, weather):
    series = benchmark.pedantic(simulate, args=(cfg, weather), rounds=5,
                                iterations=1, warmup_rounds=1)
    assert len(series.states) == 5761


def test_weather_forcing_4day(benchmark, cfg, weather):
    # the tuple of Forcing a sweep worker builds once per dt and shares
    # among its points, here over the 4 days of the series
    forcing = benchmark.pedantic(
        lambda: tuple(weather_forcing(weather, cfg.numerics.dt)),
        rounds=20, iterations=1, warmup_rounds=1)
    assert len(forcing) == 5760


def test_brackets_4day(benchmark, cfg, weather):
    # the bracket walk alone, over the 5760 step end times of the 4-day
    # run: the search that the weather forcing and validate build on
    dt = cfg.numerics.dt
    ts = [weather.t_start + i * dt for i in range(1, 5761)]
    walk = benchmark.pedantic(lambda: list(brackets(weather.times, ts)),
                              rounds=20, iterations=1, warmup_rounds=1)
    assert len(walk) == 5760 and walk[9] == (1, None)


def test_steps_4day(benchmark, cfg, weather):
    # the walk that greendry run and a sweep point take, every state of
    # the 4-day baseline with its work, none kept and no step recorded;
    # 30 rounds (~3 s), so that a session spans the host's speed switches
    def walk():
        n = 0
        for n, _ in enumerate(steps(cfg, weather), start=1):
            pass
        return n

    assert benchmark.pedantic(walk, rounds=30, iterations=1, warmup_rounds=1) == 5761


def test_drying_time_objective_60h(benchmark, cfg, weather):
    # one sweep point: drying to 0.08 db over solver.steps, keeping only
    # the state before and recording no step
    hours = benchmark.pedantic(drying_time_objective,
                               args=(cfg, weather, 0.08, 60 * 3600.0),
                               rounds=5, iterations=1, warmup_rounds=1)
    assert 40.0 < hours < 60.0


def _main(argv):
    try:
        main(args=argv, prog_name="greendry")
    except SystemExit as exc:
        return exc.code


def test_cli_run_4day(benchmark, tmp_path):
    # the run_4day op: step the run, writing states.csv and diagnostics.csv
    # as it goes, then the manifest
    argv = ["run", "--config", str(CONFIG), "--preset", "tropical", "--days", "4",
            "--out", str(tmp_path)]
    # 20 rounds, as test_cli_validate: a run stepped in a worker process
    # takes as long as the second CPU lets it, which 5 rounds do not
    # average out
    assert benchmark.pedantic(_main, args=(argv,), rounds=20, iterations=1,
                              warmup_rounds=1) == 0
    assert len((tmp_path / "states.csv").read_text().splitlines()) == 5763


@pytest.fixture(scope="module")
def run_4day(cfg, weather):
    """Every (state, work) of the 4-day baseline run, as solver.steps
    yields them."""
    return tuple(steps(cfg, weather))


def test_write_run_4day(benchmark, run_4day, tmp_path):
    # run's streamed writer without the stepping: each state row and step
    # row formatted and written
    n_states = benchmark.pedantic(
        _write_run, args=(tmp_path / "states.csv", tmp_path / "diagnostics.csv",
                          run_4day, "inputs_sha256=" + "0" * 64),
        rounds=5, iterations=1, warmup_rounds=1)
    assert n_states == 5761
    # the bytes, pinned: a faster writer must write the same files
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in ("states.csv", "diagnostics.csv")} == {
        "states.csv": "e9277868a2c73caec3516ee4d5310ecd23b4c1726acf59a7b7b738f4cce0e041",
        "diagnostics.csv":
            "7cbc920795641a41f9d58e9fde97956f9d7b91ea9e3e414dfb5f3b9f63508664",
    }


@pytest.fixture(scope="module")
def states_4day(tmp_path_factory):
    """The states.csv that greendry run writes for the 4-day baseline."""
    out = tmp_path_factory.mktemp("validate")
    assert _main(["run", "--config", str(CONFIG), "--preset", "tropical",
                  "--days", "4", "--out", str(out)]) == 0
    return out / "states.csv"


def test_read_csv_states_4day(benchmark, states_4day):
    # validate's read of the states file: t_s and T_a_K of 5761 rows
    data, lines = benchmark.pedantic(
        read_csv, args=(states_4day, lambda header: ("t_s", "T_a_K")),
        rounds=20, iterations=1, warmup_rounds=1)
    assert len(data["t_s"]) == len(data["T_a_K"]) == len(lines) == 5761


@pytest.fixture(scope="module")
def validate_argv(states_4day):
    """validate argv for T_a_K of the 4-day baseline run against 2500
    seeded irregular observation times, each value the simulated one at
    the step before times (1 + 2 % gaussian noise)."""
    out = states_4day.parent
    states, _ = read_csv(states_4day)
    ts, T_a = states["t_s"], states["T_a_K"]
    rng = random.Random(2500)
    lines = ["t_s,T_a_K"]
    for t in sorted(rng.uniform(ts[0], ts[-1]) for _ in range(2500)):
        T = T_a[bisect.bisect_right(ts, t) - 1]
        lines.append(f"{t!r},{T * (1.0 + rng.gauss(0.0, 0.02))!r}")
    (out / "observed.csv").write_text("\n".join(lines) + "\n")
    return ["validate", "--states", str(states_4day),
            "--observed", str(out / "observed.csv"), "--variable", "T_a_K"]


def test_cli_validate(benchmark, validate_argv):
    # one of validate_traces' 12 validations: read t_s and T_a_K of a
    # 4-day states.csv and the observed file, interpolate, report
    assert benchmark.pedantic(_main, args=(validate_argv,), rounds=20,
                              iterations=1, warmup_rounds=1) == 0


@pytest.mark.parametrize("cpus", [1, None], ids=["serial", "default"])
def test_grid_search_6(benchmark, cfg, weather, cpus, monkeypatch):
    # drying time to 0.08 db within 60 h, as the greendry sweep command runs
    # it: on one CPU, in one process, and with a worker per available CPU
    if cpus is not None:
        monkeypatch.setattr(greendry.sweep, "available_cpus", lambda: cpus)
    spec = SweepSpec(parameters=(("airflow.V_a", (1.0, 3.0)),
                                 ("product.F_p", (0.3, 0.5, 0.7))),
                     objective="drying_time", target_mdb=0.08,
                     weather=weather, horizon_s=60 * 3600.0)
    results = benchmark.pedantic(grid_search, args=(cfg, spec),
                                 rounds=3, iterations=1, warmup_rounds=1)
    assert len(results) == 6 and results[0].reached


# the set-up of a command, as bench/run.py's set-up probe runs it in a
# fresh interpreter: validate's is the import of the CLI; run's (and
# sweep's, but for the spec) adds the config and the weather file read
# through the CLI's names, which load every module run uses
SETUP = {
    "validate": "import greendry.cli",
    "run": ("import sys, greendry.cli as cli; cli.load_config(sys.argv[1]); "
            "cli.load_csv(sys.argv[2])"),
}


@pytest.fixture(scope="module")
def weather_csv(weather, tmp_path_factory):
    """The 4-day tropical weather as a CSV file."""
    path = tmp_path_factory.mktemp("weather") / "tropical.csv"
    save_csv(weather, path)
    return path


@pytest.mark.parametrize("command", SETUP)
def test_import_cli(benchmark, weather_csv, command):
    # a fresh interpreter that runs command's set-up and exits: interpreter
    # start-up plus every module the command loads before it parses its
    # arguments, and for run its inputs read
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(ROOT / "src"), os.environ.get("PYTHONPATH"))))}
    argv = [sys.executable, "-c", SETUP[command], str(CONFIG), str(weather_csv)]
    benchmark.pedantic(subprocess.run, args=(argv,), kwargs={"env": env, "check": True},
                       rounds=20, iterations=1, warmup_rounds=1)
