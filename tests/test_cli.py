import bisect
import contextlib
import csv
import errno
import hashlib
import io
import importlib.util
import itertools
import json
import math
import os
import pickle
import random
import re
import signal
import struct
import subprocess
import sys
import tracemalloc
from typing import NamedTuple

import pytest
import yaml

import greendry
import greendry.cli
import greendry.sweep

from greendry import (
    apply_overrides,
    percent_difference,
    simulate,
    synthetic_days,
)
from greendry.cli import (
    DIAG_COLUMNS,
    RESIDUAL_MEMO_CAP,
    STATE_COLUMNS,
    _sweep_line,
    _write_run,
    main,
)
from greendry.core import SimState, relative_humidity
from greendry.errors import ComparisonError
from greendry.solver import step_diagnostics, steps
from greendry.sweep import SPEC_KEYS, EconomicModel, SweepResult, forked_steps
from greendry.weather import read_csv, write_csv

from conftest import REPO_ROOT, in_workers, records_of


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str
    output: str  # stdout and stderr in the order they were written


class _Captured(io.StringIO):
    """A captured stream that also logs each write to a list it shares with
    the other stream, so that the two can be read in the order written."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def write(self, text):
        self.log.append(text)
        return super().write(text)


class CliRunner:
    """Runs the CLI in this process, as a shell would run the command, and
    captures its streams; an exception that escapes the command propagates."""

    def invoke(self, cli, args):
        log = []
        out, err = _Captured(log), _Captured(log)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
                pytest.raises(SystemExit) as exit_:  # the CLI always exits
            cli(args=args, prog_name="greendry")
        return CliResult(exit_.value.code, out.getvalue(), err.getvalue(), "".join(log))


@pytest.fixture()
def runner():
    return CliRunner()


def run_cli(runner, *args):
    return runner.invoke(main, list(args))


def _cli_process(*args):
    """The greendry CLI in its own interpreter, as a shell runs it: an escaping
    exception shows as a traceback on stderr and exit status 1."""
    src = str(REPO_ROOT / "src")
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    return subprocess.run([sys.executable, "-m", "greendry.cli", *args], env=env,
                          capture_output=True, text=True, timeout=120)


def _assert_cannot_write(result, out, blocker, before):
    # exit 2 with one error line, and the blocking file as it was
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr
    assert re.fullmatch(f"error: cannot write {re.escape(str(out))}: .+\n",
                        result.stderr), result.stderr
    assert blocker.read_bytes() == before


def _contents(directory):
    """What directory holds: a file's bytes, None for a directory."""
    return {p.name: p.read_bytes() if p.is_file() else None for p in directory.iterdir()}


def _out_with_a_manifest_directory(tmp_path, csv_name):
    """An --out holding csv_name and manifest.json as a directory, which a
    rename cannot replace; and what it holds."""
    out = tmp_path / "out"
    (out / "manifest.json").mkdir(parents=True)
    (out / csv_name).write_bytes(b"kept\n")
    return out, _contents(out)


def _run_baseline(runner, baseline_config_path, out_dir, *extra):
    return run_cli(
        runner, "run", "--config", str(baseline_config_path),
        "--preset", "tropical", "--days", "1", "--horizon-h", "2",
        "--out", str(out_dir), *extra,
    )


def test_function_bound_before_the_command_loads_is_kept(baseline_config_path, tmp_path):
    # a wrapper bound on the CLI before run loads config, solver and sweep,
    # as a tracer binds one, is the function the command calls
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import greendry.cli as cli\n"
            "calls = []\n"
            "def load_config(path):\n"
            "    calls.append(path)\n"
            "    return sys.modules['greendry.config'].load_config(path)\n"
            "cli.load_config = load_config\n"
            "print('greendry.config' in sys.modules)\n"
            "try:\n"
            "    cli.main(sys.argv[2:])\n"
            "except SystemExit as exc:\n"
            "    print(exc.code, calls)\n")
    config = str(baseline_config_path)
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO_ROOT / "src"), "run", "--config", config,
         "--preset", "tropical", "--days", "1", "--horizon-h", "1",
         "--out", str(tmp_path / "out")], capture_output=True, text=True, timeout=120)
    lines = proc.stdout.splitlines()
    assert (lines[0], lines[-1]) == ("False", f"0 [{config!r}]"), proc.stderr


class TestRun:
    def test_row_count(self, runner, baseline_config_path, tmp_path):
        result = _run_baseline(runner, baseline_config_path, tmp_path / "out")
        assert result.exit_code == 0, result.output
        states = read_csv(tmp_path / "out" / "states.csv")[0]
        # horizon / dt + 1 rows
        assert len(states["t_s"]) == 2 * 3600 // 60 + 1

    def test_missing_weather_file_exit_2(self, runner, baseline_config_path, tmp_path):
        result = run_cli(
            runner, "run", "--config", str(baseline_config_path),
            "--weather", str(tmp_path / "missing.csv"), "--out", str(tmp_path / "o"),
        )
        assert result.exit_code == 2

    def test_bad_config_exit_1(self, runner, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("geometry: {W: -1}\n")
        result = run_cli(runner, "run", "--config", str(bad),
                         "--preset", "tropical", "--out", str(tmp_path / "o"))
        assert result.exit_code == 1

    @pytest.mark.parametrize("block", ["the config", "floor"])
    def test_non_string_key_beside_unknown_key_exit_1(self, runner, baseline_config_path,
                                                      tmp_path, block):
        data = yaml.safe_load(baseline_config_path.read_text(encoding="utf-8"))
        target = data if block == "the config" else data[block]
        target.update({1: 2.0, "bogus": 1.0})
        bad = tmp_path / "bad.yaml"
        bad.write_text(yaml.safe_dump(data), encoding="utf-8")
        result = run_cli(runner, "run", "--config", str(bad),
                         "--preset", "tropical", "--out", str(tmp_path / "o"))
        assert result.exit_code == 1
        assert result.stderr == f"error: unknown keys in {block}: ['1', 'bogus']\n"

    def test_bad_override_exit_1(self, runner, baseline_config_path, tmp_path):
        result = _run_baseline(runner, baseline_config_path, tmp_path / "o",
                               "--set", "geometry.A_c=-3")
        assert result.exit_code == 1

    def test_rerun_byte_identical(self, runner, baseline_config_path, tmp_path):
        _run_baseline(runner, baseline_config_path, tmp_path / "a")
        _run_baseline(runner, baseline_config_path, tmp_path / "b")
        for name in ("states.csv", "diagnostics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == \
                   (tmp_path / "b" / name).read_bytes()

    def test_outputs_embed_input_hash(self, runner, baseline_config_path, tmp_path):
        _run_baseline(runner, baseline_config_path, tmp_path / "out")
        first = (tmp_path / "out" / "states.csv").read_text().splitlines()[0]
        assert first.startswith("# inputs_sha256=")
        manifest = (tmp_path / "out" / "manifest.json").read_text()
        assert first.split("=", 1)[1] in manifest

    def test_dt_option_is_gone(self, runner, baseline_config_path, tmp_path):
        # the time step has one spelling, --set numerics.dt=
        result = _run_baseline(runner, baseline_config_path, tmp_path / "o",
                               "--dt", "30")
        assert result.exit_code == 2
        assert "error: unrecognized arguments: --dt 30" in result.stderr
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override", [
        "product.C_pp=1e308",  # infinite heat capacity: non-finite product row
        "airflow.T_in=100",    # 100 K inlet air drives T_a below the air table
    ])
    def test_numerical_failure_names_step_and_time(
            self, runner, baseline_config_path, tmp_path, override):
        result = _run_baseline(runner, baseline_config_path, tmp_path / "o",
                               "--set", override)
        assert result.exit_code == 3, result.output
        assert "error: step 1 (t=60.0 s): " in result.stderr

    @pytest.mark.parametrize("override, code, message", [
        ("numerics.dt=nan", 1, "numerics.dt must be finite, got nan"),
        ("numerics.dt=inf", 1, "numerics.dt must be finite, got inf"),
        ("floor.h_dfg=abc", 1, "floor.h_dfg must be numeric, got 'abc'"),
        ("kinetics.c_sky=0", 1, "kinetics.c_sky must be > 0"),
        ("airflow.V_in=0.3", 1, "unknown config field 'airflow.V_in'"),
        ("floor.k_f=1.7", 1, "unknown config field 'floor.k_f'"),
        ("product.m_p=54", 1, "unknown config field 'product.m_p'"),
        ("numerics.pressure=5000", 3, "step 461 (t=27660.0 s): vapour pressure"),
        ("kinetics.b2=3e-06", 3, "step 0 (t=0.0 s): equilibrium moisture overflows"),
        ("kinetics.b0=0.012", 3, "step 0 (t=0.0 s): isotherm coefficient"),
        # a step count past a float, past the cap, and no step at all
        ("numerics.dt=5e-324", 2, "dt = 5e-324 s over a horizon of 86400.0 s makes "
                                  "inf steps; a run takes 1 to 1000000"),
        ("numerics.dt=1e-300", 2, "dt = 1e-300 s over a horizon of 86400.0 s makes "
                                  "8.64e+304 steps; a run takes 1 to 1000000"),
        ("numerics.dt=1e6", 2, "dt = 1000000.0 s over a horizon of 86400.0 s makes "
                               "0 steps; a run takes 1 to 1000000"),
    ])
    def test_bad_input_exits_with_its_code(self, runner, baseline_config_path,
                                           tmp_path, override, code, message):
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1",
                         "--out", str(tmp_path / "o"), "--set", override)
        assert result.exit_code == code, result.output
        assert result.stderr.startswith(f"error: {message}")
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("args, code, message", [
        (["--preset", "tropical", "--set", "floor.h_dfg"], 1,
         "--set expects dotted.path=value, got 'floor.h_dfg'"),
        ([], 2, "need --weather FILE or --preset NAME"),
        (["--preset", "nowhere"], 2, "unknown preset 'nowhere'; known: ['tropical']"),
        (["--preset", "tropical", "--days", str(10**12)], 2,
         "1000000000000 days at 600.0 s intervals make 1.44e+14 records, "
         "more than the 600000 a series may have"),
        (["--preset", "tropical", "--days", str(10**400)], 2,
         f"{10**400} days at 600.0 s intervals make inf records, "
         "more than the 600000 a series may have"),
    ], ids=["set-without-value", "no-weather", "unknown-preset", "too-many-days",
            "days-past-a-float"])
    def test_bad_option_exits_with_its_code(self, runner, baseline_config_path,
                                            tmp_path, args, code, message):
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--out", str(tmp_path / "o"), *args)
        assert result.exit_code == code, result.output
        assert result.stderr == f"error: {message}\n"
        assert not (tmp_path / "o").exists()

    def test_non_finite_weather_cell_exit_2(self, runner, baseline_config_path,
                                            tmp_path):
        weather = tmp_path / "w.csv"
        weather.write_text("t_s,I_t_wm2,T_am_K,V_w_ms,rh_am_pct\n"
                           "0,0,298,1,70\n600,nan,300,2,60\n")
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--weather", str(weather), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {weather}:3: I_t must be finite, got nan\n"

    def test_huge_ambient_temperature_exit_2(self, runner, baseline_config_path,
                                             tmp_path):
        weather = tmp_path / "w.csv"
        weather.write_text("t_s,I_t_wm2,T_am_K,V_w_ms,rh_am_pct\n"
                           "0,0,298,1,70\n600,0,1e300,2,60\n3600,0,300,2,60\n")
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--weather", str(weather), "--out", str(tmp_path / "o"))
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: {weather}:3: ambient temperature must "
                                 f"be in (0, 373.15] K, got 1e+300\n")

    def test_tropical_4_day_bytes(self, runner, baseline_config_path, tmp_path, cpus):
        # the bytes of the baseline run, pinned, stepped in this process and
        # in a worker: the inputs_sha256 line hashes the config's bytes, not
        # its path (manifest.json holds paths and is left out)
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"cpus{n}"
            result = run_cli(runner, "run", "--config", str(baseline_config_path),
                             "--preset", "tropical", "--days", "4", "--out", str(out))
            assert result.exit_code == 0, result.output
            assert {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("states.csv", "diagnostics.csv")} == {
                "states.csv":
                    "6681355b7f1af609da6a1cadbf15faf589172e036237d76db44d279bacf68b56",
                "diagnostics.csv":
                    "15f2fa313e91ae833ad5803aed240df58e09c891bb2efb98c44ce97e478a9097",
            }, n

    def test_rh_column_is_relative_humidity_of_each_state(
            self, runner, baseline_cfg, baseline_config_path, tmp_path):
        _run_baseline(runner, baseline_config_path, tmp_path / "out")
        states = read_csv(tmp_path / "out" / "states.csv")[0]
        P = baseline_cfg.numerics.pressure
        expected = [relative_humidity(H, T_a, P)[0]
                    for H, T_a in zip(states["H"], states["T_a_K"])]
        assert states["rh_pct"] == expected  # the last row included

    def test_failed_rerun_leaves_the_outputs_as_they_were(
            self, runner, baseline_config_path, tmp_path):
        out = tmp_path / "out"
        assert _run_baseline(runner, baseline_config_path, out).exit_code == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["diagnostics.csv", "manifest.json", "states.csv"]
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1", "--out", str(out),
                         "--set", "numerics.pressure=5000")
        assert result.exit_code == 3, result.output
        assert result.stderr.startswith("error: step 461 (t=27660.0 s): vapour pressure")
        # no temporary file is left, and the earlier run's files are unchanged
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    @pytest.mark.parametrize("made", [("o",), ("a", "b", "o")],
                             ids=["out", "out-and-parents"])
    def test_failed_run_removes_the_directories_it_made(
            self, runner, baseline_config_path, tmp_path, made):
        base = tmp_path / "kept"
        base.mkdir()
        out = base.joinpath(*made)
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1", "--horizon-h", "25",
                         "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == ("error: weather series ends at 86400.0 s but "
                                 "the run needs 90000.0 s\n")
        assert list(base.iterdir()) == []

    def test_failed_run_into_an_empty_directory_keeps_it(
            self, runner, baseline_config_path, tmp_path):
        out = tmp_path / "o"
        out.mkdir()
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1", "--out", str(out),
                         "--set", "numerics.pressure=5000")
        assert result.exit_code == 3, result.output
        assert out.is_dir() and list(out.iterdir()) == []

    def test_target_mdb_bench_weather_bytes(self, runner, baseline_config_path,
                                            tmp_path, cpus):
        # the benchmark's seed-0 weather, made by its own generator: the run
        # stops after its first step, whose moisture is below 0.6 db, in
        # this process and in a worker
        spec = importlib.util.spec_from_file_location(
            "bench_inputs", REPO_ROOT / "bench" / "inputs.py")
        inputs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(inputs)
        weather = tmp_path / "weather.csv"
        weather.write_text(inputs.weather_csv(0))
        for n in (1, 2):
            cpus(n)
            out = tmp_path / f"cpus{n}"
            result = run_cli(runner, "run", "--config", str(baseline_config_path),
                             "--weather", str(weather), "--out", str(out),
                             "--target-mdb", "0.6")
            assert result.exit_code == 0, result.output
            states = (out / "states.csv").read_bytes()
            assert hashlib.sha256(states).hexdigest() == \
                "de00a74c40dcb54626b7899e7c53e3f8dcd70b22b48a201340c5a85cda837e08", n
            assert len(read_csv(out / "states.csv")[0]["t_s"]) == 2
            assert json.loads((out / "manifest.json").read_text())["n_states"] == 2
            assert sorted(p.name for p in out.iterdir()) == \
                ["diagnostics.csv", "manifest.json", "states.csv"]

    def test_memory_flat_in_run_length(self, runner, baseline_config_path, tmp_path,
                                       cpus):
        # a run streams its rows to disk: a 48 h run peaks no higher than a
        # 12 h one on the same 2-day weather (measured: within 1 KiB; a run
        # that kept its states and records grew ~1.1 MiB per simulated day).
        # tracemalloc sees this process alone: with one CPU it steps the run
        # and writes it; with two it only writes what a worker sends
        def peak(*extra):
            tracemalloc.start()
            try:
                result = run_cli(runner, "run", "--config", str(baseline_config_path),
                                 "--preset", "tropical", "--days", "2",
                                 "--out", str(tmp_path / "o"), *extra)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert result.exit_code == 0, result.output
            return peak

        for n in (1, 2):
            cpus(n)
            peak("--horizon-h", "1")  # first-call caches
            assert peak() - peak("--horizon-h", "12") < 100 * 1024, n

    def test_readme_names_the_csv_columns(self, runner, baseline_config_path,
                                          tmp_path):
        # README's run section, the column constants and a run's headers agree
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### `run`"):readme.index("### `validate`")]
        out = tmp_path / "out"
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1", "--horizon-h", "1",
                         "--out", str(out))
        assert result.exit_code == 0, result.output
        for name, columns in (("states.csv", STATE_COLUMNS),
                              ("diagnostics.csv", DIAG_COLUMNS)):
            listed = re.search(f"`{re.escape(name)}` \\(`([^`]*)`", section).group(1)
            assert [c.strip() for c in listed.split(",")] == columns, name
            header = (out / name).read_text().splitlines()[1]
            assert header.split(",") == columns, name

    def test_out_is_a_file_exit_2(self, baseline_config_path, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        result = _cli_process("run", "--config", str(baseline_config_path),
                              "--preset", "tropical", "--days", "1",
                              "--horizon-h", "1", "--out", str(blocker))
        _assert_cannot_write(result, blocker, blocker, b"kept\n")
        assert list(tmp_path.iterdir()) == [blocker]

    @pytest.mark.parametrize("option, message", [
        ("--horizon-h", "horizon must be >= 0 s, got nan s"),
        ("--target-mdb", "--target-mdb must be finite, got nan"),
    ])
    def test_nan_horizon_or_target_exit_2(self, baseline_config_path, tmp_path,
                                          option, message):
        out = tmp_path / "a" / "out"
        result = _cli_process("run", "--config", str(baseline_config_path),
                              "--preset", "tropical", "--days", "1",
                              option, "nan", "--out", str(out))
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_unmakeable_out_removes_the_directories_it_made(
            self, runner, baseline_config_path, tmp_path):
        # new/ is made before the over-long name under it fails
        out = tmp_path / "new" / ("x" * 300)
        result = runner.invoke(main, ["run", "--config", str(baseline_config_path),
                                      "--preset", "tropical", "--days", "1",
                                      "--horizon-h", "1", "--out", str(out)])
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_manifest_leaves_the_outputs_as_they_were(
            self, runner, baseline_config_path, tmp_path):
        out, before = _out_with_a_manifest_directory(tmp_path, "states.csv")
        result = _run_baseline(runner, baseline_config_path, out)
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert "manifest.json" in result.stderr
        assert _contents(out) == before

    def test_manifest_written(self, runner, baseline_config_path, tmp_path):
        out = tmp_path / "out"
        _run_baseline(runner, baseline_config_path, out, "--target-mdb", "0.6",
                      "--set", "airflow.V_a=1.5")
        assert (out / "diagnostics.csv").exists()
        first_line = (out / "states.csv").read_text().splitlines()[0]
        # the preset label is the string the inputs hash covers, as in sweep's
        assert json.loads((out / "manifest.json").read_text()) == {
            "engine_version": greendry.__version__,
            "config": str(baseline_config_path),
            "weather": "preset:tropical:1", "out": str(out),
            "inputs_sha256": first_line.removeprefix("# inputs_sha256="),
            "parameters": {"horizon_h": 2.0, "target_mdb": 0.6,
                           "overrides": ["airflow.V_a=1.5"], "days": 1},
            "n_states": 2,
        }

    def test_overrides_do_not_carry_into_the_next_call(
            self, runner, baseline_config_path, tmp_path):
        # the parser is built once; each call's --set list starts empty
        for name, extra in (("a", ["--set", "airflow.V_a=1.5"]), ("b", [])):
            assert _run_baseline(runner, baseline_config_path, tmp_path / name,
                                 *extra).exit_code == 0
        overrides = [json.loads((tmp_path / name / "manifest.json").read_text())
                     ["parameters"]["overrides"] for name in "ab"]
        assert overrides == [["airflow.V_a=1.5"], []]


class TestUsage:
    """The command line itself: a usage error prints the usage and one
    error line on stderr and exits 2, creating nothing."""

    def test_version(self, runner):
        result = run_cli(runner, "--version")
        assert result.exit_code == 0
        assert result.stdout == f"greendry, version {greendry.__version__}\n"

    def test_no_command_exit_2(self, runner):
        result = run_cli(runner)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("usage: greendry ")
        assert result.stderr.endswith(
            "greendry: error: the following arguments are required: COMMAND\n")

    def test_unknown_command_exit_2(self, runner):
        result = run_cli(runner, "simulate")
        assert result.exit_code == 2
        assert "greendry: error: argument COMMAND: invalid choice: 'simulate'" \
            in result.stderr

    @pytest.mark.parametrize("args, prog, message", [
        (["--conf", "{config}"], "greendry run",
         "the following arguments are required: --config"),
        # an argument no command took is reported with the command's usage
        (["--config", "{config}", "--conf", "{config}"], "greendry run",
         "unrecognized arguments: --conf {config}"),
        (["--config", "{config}", "--dt", "30"], "greendry run",
         "unrecognized arguments: --dt 30"),
        (["--config", "{config}", "--days", "1.5"], "greendry run",
         "argument --days: invalid int value: '1.5'"),
        (["--config", "{config}", "--horizon-h", "two"], "greendry run",
         "argument --horizon-h: invalid float value: 'two'"),
        # "-1e3" is not a plain negative number, so it reads as an option
        (["--config", "{config}", "--horizon-h", "-1e3"], "greendry run",
         "argument --horizon-h: expected one argument"),
    ], ids=["abbreviated", "abbreviated-extra", "unknown", "int", "float",
            "dash-value"])
    def test_usage_error_exit_2(self, runner, baseline_config_path, tmp_path,
                                args, prog, message):
        args = [arg.format(config=baseline_config_path) for arg in args]
        result = run_cli(runner, "run", *args, "--preset", "tropical",
                         "--out", str(tmp_path / "o"))
        assert result.exit_code == 2
        assert result.stderr.startswith(f"usage: {prog} ")
        assert result.stderr.endswith(
            f"\n{prog}: error: {message.format(config=baseline_config_path)}\n")
        assert list(tmp_path.iterdir()) == []

    def test_help_exit_0(self, runner):
        result = run_cli(runner, "validate", "--help")
        assert result.exit_code == 0
        assert "--limit LIMIT" in result.stdout and "[default: 10.0]" in result.stdout


def _csv_writer_file(path, columns, rows, inputs_hash):
    """The file csv.writer makes of rows of cells: the reference for
    write_csv."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        fh.write(f"# inputs_sha256={inputs_hash}\n")
        writer = csv.writer(fh)
        writer.writerow(columns)
        writer.writerows(rows)
    return path.read_bytes()


def _state_cells(s):
    return [repr(s.t), repr(s.T_c), repr(s.T_a), repr(s.T_p), repr(s.T_f),
            repr(s.H), repr(s.M_p), repr(s.rh)]


def _diag_cells(d):
    return [repr(d.t), *map(repr, d.residuals), repr(d.dM), repr(d.rh),
            ";".join(d.flags)]


HASH = "ab" * 32


def _written_run(tmp_path, run):
    """The states.csv and diagnostics.csv bytes _write_run makes of run."""
    states_path, diag_path = tmp_path / "states.csv", tmp_path / "diagnostics.csv"
    n_states = _write_run(states_path, diag_path, run, f"inputs_sha256={HASH}")
    states = states_path.read_bytes()
    assert n_states == states.count(b"\r\n") - 1  # less the header
    return states, diag_path.read_bytes()


def _reference_run(tmp_path, run):
    """The reference for _written_run: csv.writer's files of the cells of
    each state and of each step's StepDiagnostics, each cell a repr."""
    return (_csv_writer_file(tmp_path / "ref_states.csv", STATE_COLUMNS,
                             [_state_cells(s) for s, _ in run], HASH),
            _csv_writer_file(tmp_path / "ref_diagnostics.csv", DIAG_COLUMNS,
                             [_diag_cells(step_diagnostics(s, w))
                              for s, w in run if w is not None], HASH))


def _any_float(rng):
    """A float with uniformly random bits: any sign, exponent, subnormal,
    infinity or NaN."""
    return struct.unpack("<d", rng.getrandbits(64).to_bytes(8, "little"))[0]


class TestWriteCsv:
    def _written(self, path, columns, lines):
        write_csv(path, columns, lines, f"inputs_sha256={HASH}")
        return path.read_bytes()

    def test_state_rows_of_arbitrary_floats(self, tmp_path):
        rng = random.Random(5)
        special = [0.0, -0.0, 5e-324, -1.7976931348623157e308, 1e16, 1e-05,
                   0.1, float("inf"), float("-inf"), float("nan")]
        states = [SimState(*rng.sample(special, 8)) for _ in range(50)]
        states += [SimState(*(_any_float(rng) for _ in range(8)))
                   for _ in range(500)]
        run = [(s, None) for s in states]  # no step rows
        got, diagnostics = _written_run(tmp_path, run)
        assert (got, diagnostics) == _reference_run(tmp_path, run)
        assert diagnostics.count(b"\r\n") == 1  # the header alone

    def test_diagnostics_rows_with_empty_flags(self, tmp_path):
        rng = random.Random(6)
        flags = [(), ("still_air",), ("kinetics_stalled", "still_air"), ()]
        run = [(SimState(60.0 * i, *(_any_float(rng) for _ in range(7))),
                None if i == 0 else
                (*(_any_float(rng) for _ in range(15)), flags[i % 4]))
               for i in range(201)]
        got = _written_run(tmp_path, run)
        assert got == _reference_run(tmp_path, run)
        assert b",\r\n" in got[1]  # an empty flags cell, unquoted

    def test_sweep_rows_with_integer_rank_and_reached(self, tmp_path):
        columns = ["rank", "airflow.V_a", "cover.tau_c", "objective_hours", "reached"]
        results = [SweepResult(point=(("airflow.V_a", 0.5 * i), ("cover.tau_c", 0.9)),
                               objective=36.0 + i / 7 if i % 3 else float("inf"))
                   for i in range(12)]
        got = self._written(tmp_path / "new.csv", columns,
                            map(_sweep_line, range(1, 13), results))
        rows = [[rank] + [repr(v) for _, v in r.point]
                + [repr(r.objective), int(r.reached)]
                for rank, r in enumerate(results, start=1)]
        assert got == _csv_writer_file(tmp_path / "ref.csv", columns, rows, HASH)

    def test_still_air_run_same_as_csv_writer(self, runner, baseline_cfg,
                                              baseline_config_path, tmp_path):
        out = tmp_path / "out"
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1", "--horizon-h", "6",
                         "--set", "airflow.V_a=0", "--out", str(out))
        assert result.exit_code == 0, result.output
        cfg = apply_overrides(baseline_cfg, {"airflow.V_a": "0"})
        series = simulate(cfg, synthetic_days(1), horizon_s=6 * 3600.0)
        inputs_hash = (out / "states.csv").read_text().splitlines()[0].split("=")[1]
        assert (out / "diagnostics.csv").read_bytes() == _csv_writer_file(
            tmp_path / "diagnostics.csv", DIAG_COLUMNS,
            list(map(_diag_cells, series.diagnostics)), inputs_hash)
        assert (out / "states.csv").read_bytes() == _csv_writer_file(
            tmp_path / "states.csv", STATE_COLUMNS,
            list(map(_state_cells, series.states)), inputs_hash)
        assert all("still_air" in d.flags for d in series.diagnostics)


def _copy(x):
    """x's value in a new float object."""
    return struct.unpack("<d", struct.pack("<d", x))[0]


def _adversarial_run():
    """A run of 601 pairs whose floats and flags test a writer or a
    transport: any bits, signed zeros, subnormals, the extremes, infinities
    and NaNs, values and objects that repeat and flags of every kind."""
    rng = random.Random(7)
    shared = rng.uniform(1.0, 2.0)  # one float object in many cells
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, float("inf"), float("-inf"),
               float("nan"), 0.1, shared]
    flags = [[], ["still_air"], ["kinetics_stalled", "still_air",
                                 "humidity_floor_clamped"], []]

    def value(i):  # any bits, a special value, or one of ordinary size
        if i % 3 == 0:
            return _any_float(rng)
        return rng.choice(special) if i % 3 == 1 else rng.uniform(-1e4, 1e4)

    run = [(SimState(0.0, shared, shared, shared, shared, 0.01, 0.5, shared), None)]
    for i in range(600):
        # the nine entries that vary, then the right-hand sides
        entries = [value(i) for _ in range(9)]
        b = [value(i) for _ in range(4)]
        state = SimState(*(value(i) for _ in range(8)))
        if i % 2:
            # residual 0 is 0.0 and -0.0 by turns, its structural zero's
            # term 0.0 * T_f being -0.0; residual 1 repeats one of three
            # nonzero values
            state = state._replace(T_c=shared, T_a=1.5, T_p=5e-324, T_f=-1e300)
            entries[:6] = [0.0 if i % 4 == 1 else -0.0] * 3 + [1.0, 0.0, 0.0]
            b[0], b[1] = 0.0, rng.choice([0.1, 1.5 - 2**-52, -7.25])
        previous = run[-1][0].rh
        # the kinetics rh: the previous state's very object; an equal
        # one, with the same repr or (0.0 then -0.0) another; or not equal
        rh = (previous, _copy(previous), -0.0, value(i))[i % 4]
        if i % 4 == 1:
            state = state._replace(rh=0.0)
        # M_p: the previous state's very object, as a stalled step
        # returns it; an equal one in another object; 0.0, then -0.0
        # (equal, another repr); or the state's own value
        previous = run[-1][0].M_p
        state = state._replace(
            M_p=(previous, _copy(previous), 0.0, -0.0, state.M_p)[i % 5])
        run.append((state, (*entries, *b, value(i), rh, flags[i % 4])))
    return run


class TestWriteRun:
    """_write_run, which formats each value once, writes csv.writer's rows
    of each state and of its step's StepDiagnostics, byte for byte."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"airflow.V_a": "0"},  # still air: two flags on every step
        # flags on most steps, none on the 93 inside the fitted envelope
        {"airflow.V_vent": "0.02", "airflow.V_a": "0.05"},
    ], ids=["baseline", "still-air", "mostly-flagged"])
    def test_rows_of_a_run(self, baseline_cfg, overrides, tropical_weather, tmp_path):
        cfg = apply_overrides(baseline_cfg, overrides) if overrides else baseline_cfg
        run = list(steps(cfg, tropical_weather, 86400.0))
        assert len(run) == 1441
        assert _written_run(tmp_path, run) == _reference_run(tmp_path, run)

    def test_rows_of_an_adversarial_stream(self, tmp_path):
        run = _adversarial_run()
        got = _written_run(tmp_path, run)
        assert got == _reference_run(tmp_path, run)
        for cell in (b",0.0,", b",-0.0,", b",nan,", b",inf,", b",-inf,", b",5e-324,",
                     b",8.75,", b",2.220446049250313e-16,", b",kinetics_stalled;still_air;"):
            assert cell in got[1], cell
        assert b",\r\n" in got[1]

    def test_step_rows_come_from_step_record(self, baseline_cfg, tropical_weather,
                                             tmp_path, monkeypatch):
        # solver.step_record is the one copy of the residual arithmetic:
        # _write_run calls it once per step, with the work and the new
        # state's temperatures, and writes the residuals and dM it returns
        run = list(steps(baseline_cfg, tropical_weather, 3600.0))
        record, calls = greendry.solver.step_record, []

        def spy(work, T_c, T_a, T_p, T_f):
            calls.append((work, T_c, T_a, T_p, T_f))
            k = len(calls)
            _, _, _, _, _, rh, flags = record(work, T_c, T_a, T_p, T_f)
            return k + 0.125, k + 0.25, -k - 0.375, -0.0, k * 1e-9, rh, flags

        monkeypatch.setattr(greendry.solver, "step_record", spy)
        _, diagnostics = _written_run(tmp_path, run)
        assert len(calls) == len(run) - 1 == 60
        for (work, *temperatures), (state, expected) in zip(calls, run[1:]):
            assert work is expected
            assert temperatures == [state.T_c, state.T_a, state.T_p, state.T_f]
        rows = [line.split(",") for line in diagnostics.decode().split("\r\n")[1:-1]]
        assert [row[1:6] for row in rows] == [
            [repr(k + 0.125), repr(k + 0.25), repr(-k - 0.375), "-0.0", repr(k * 1e-9)]
            for k in range(1, 61)]

    def test_residual_memo_stays_bounded(self, tmp_path):
        # every residual of this stream differs: 24000 of them peak within
        # 100 KiB of 8000, as the memo keeps at most RESIDUAL_MEMO_CAP
        def run(n):
            # the identity system: each residual is a temperature less its b
            work = (1.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0, 0.1, 0.2, 0.3, 0.4,
                    -1e-6, 50.0, ())
            yield SimState(0.0, 2.0, 3.0, 4.0, 5.0, 0.01, 0.5, 50.0), None
            for i in range(1, n + 1):
                d = i * 1e-6
                yield (SimState(60.0 * i, 2.0 + d, 3.0 + d, 4.0 + d, 5.0 + d, 0.01, 0.5, 50.0),
                       work)

        def peak(n):
            tracemalloc.start()
            try:
                assert _write_run(tmp_path / "s.csv", tmp_path / "d.csv", run(n),
                                  "c") == n + 1
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert RESIDUAL_MEMO_CAP <= 1000
        peak(10)  # first-call caches
        assert peak(6000) - peak(2000) < 100 * 1024


def _bits(values):
    """The bytes of the doubles values: equal only for the same bits."""
    return struct.pack(f"<{len(values)}d", *values)


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestRunWorker:
    """`greendry run` steps in a forked worker process when more than one
    CPU is available (sweep.forked_steps); its outputs, errors and exit
    codes are those of a run in one process, and no worker outlives it."""

    def test_pairs_cross_bit_for_bit(self, tmp_path, cpus):
        nan_payload = struct.unpack("<d", struct.pack("<Q", 0xFFF8_0000_DEAD_BEEF))[0]
        extremes = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308,
                    float("nan"), nan_payload, float("-inf"), -5e-324)
        run = _adversarial_run() + [(SimState(*extremes),
                                     (*extremes, *extremes[:7], ["still_air"]))]
        cpus(2)
        # 601 steps: two full messages and a part; then one full message
        for sent in (run, run[:1 + greendry.sweep.RUN_BATCH]):
            with forked_steps(iter(sent)) as received:
                got = list(received)
            _no_child_left()
            assert len(got) == len(sent)
            for (state, work), (sent_state, sent_work) in zip(got, sent):
                assert state is not sent_state  # it crossed
                assert _bits(state) == _bits(sent_state)
                if sent_work is None:
                    assert work is None
                else:
                    assert _bits(work[:15]) == _bits(sent_work[:15])
                    assert work[15] == tuple(sent_work[15])
            # equal values in new objects make the same cells
            assert _written_run(tmp_path, got) == _reference_run(tmp_path, sent)

    def test_step_failure_is_reported_as_in_one_process(self, runner, baseline_config_path,
                                                        tmp_path, cpus):
        results = []
        for n in (1, 2):
            cpus(n)
            results.append(run_cli(runner, "run", "--config", str(baseline_config_path),
                                   "--preset", "tropical", "--days", "1",
                                   "--out", str(tmp_path / "o"),
                                   "--set", "numerics.pressure=5000"))
            _no_child_left()
        assert results[0] == results[1]
        assert results[1].exit_code == 3
        assert results[1].stderr.startswith("error: step 461 (t=27660.0 s): vapour pressure")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("how", ["raises", "is killed between messages",
                                     "is killed inside a message"])
    def test_failed_worker_leaves_the_outputs_as_they_were(
            self, runner, baseline_config_path, tmp_path, cpus, monkeypatch, how):
        # the worker sends the first state and a batch or more of steps, then
        # fails; a program error is raised with its own type, as in this process
        send = greendry.sweep._send

        def failing(run, out):
            send(itertools.islice(run, 300), out)
            if how == "raises":
                raise ZeroDivisionError("in a worker")
            if how == "is killed inside a message":
                out.write(pickle.dumps((bytes(184), ""))[:50])
            out.flush()
            os.kill(os.getpid(), signal.SIGKILL)

        monkeypatch.setattr(greendry.sweep, "_send", failing)
        out = tmp_path / "out"
        out.mkdir()
        (out / "states.csv").write_bytes(b"kept\n")
        cpus(2)
        args = ("run", "--config", str(baseline_config_path), "--preset", "tropical",
                "--days", "1", "--out", str(out))
        if how == "raises":
            with pytest.raises(ZeroDivisionError, match="^in a worker$"):
                run_cli(runner, *args)
        else:
            result = run_cli(runner, *args)
            assert result.exit_code == 3, result.output
            assert re.fullmatch(r"error: run worker \d+ ended by signal 9 before it "
                                r"sent its results\n", result.stderr), result.stderr
        assert _contents(out) == {"states.csv": b"kept\n"}
        _no_child_left()

    @pytest.mark.parametrize("call, code", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)])
    def test_worker_that_cannot_start_exits_3(self, runner, baseline_config_path, tmp_path,
                                              cpus, monkeypatch, call, code):
        def failing():
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, call, failing)
        out = tmp_path / "out"
        out.mkdir()
        (out / "states.csv").write_bytes(b"kept\n")
        cpus(2)
        result = _run_baseline(runner, baseline_config_path, out)
        assert result.exit_code == 3, result.output
        assert result.stderr == (f"error: cannot start run worker: [Errno {code}] "
                                 f"{os.strerror(code)}\n")
        assert _contents(out) == {"states.csv": b"kept\n"}
        _no_child_left()

    def test_write_error_mid_run_exits_2(self, runner, baseline_config_path, tmp_path,
                                         cpus, monkeypatch):
        # the disk fills after 500 rows of a file, while the worker still
        # steps: the worker is killed, and --out left as it was
        class FullDisk:
            def __init__(self, fh):
                self.fh, self.rows = fh, 500

            def write(self, text):
                self.rows -= 1
                if self.rows < 0:
                    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
                return self.fh.write(text)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.fh.close()

        open_csv = greendry.cli.open_csv
        monkeypatch.setattr(greendry.cli, "open_csv", lambda *args: FullDisk(open_csv(*args)))
        out = tmp_path / "out"
        out.mkdir()
        (out / "states.csv").write_bytes(b"kept\n")
        cpus(2)
        result = run_cli(runner, "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "1", "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == (f"error: cannot write {out}: [Errno {errno.ENOSPC}] "
                                 f"{os.strerror(errno.ENOSPC)}\n")
        assert _contents(out) == {"states.csv": b"kept\n"}
        _no_child_left()


def _write_observed(path, times, values, variable_header):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t_s", variable_header])
        for t, v in zip(times, values):
            writer.writerow([repr(t), repr(v)])


class TestValidate:
    @pytest.fixture()
    def states_path(self, runner, baseline_config_path, tmp_path):
        _run_baseline(runner, baseline_config_path, tmp_path / "out")
        return tmp_path / "out" / "states.csv"

    def test_identical_passes(self, runner, states_path, tmp_path):
        states = read_csv(states_path)[0]
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10], states["T_a_K"][::10], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "T_a_K")
        assert result.exit_code == 0
        assert "0.0000 %" in result.output

    def test_12_percent_disagreement_fails(self, runner, states_path, tmp_path):
        states = read_csv(states_path)[0]
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10],
                        [v / 1.12 for v in states["T_a_K"][::10]], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "T_a_K")
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_unknown_variable_exit_2(self, runner, states_path, tmp_path):
        states = read_csv(states_path)[0]
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][:3], states["T_a_K"][:3], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "nope")
        assert result.exit_code == 2

    def test_observed_outside_span_exit_2(self, runner, states_path, tmp_path):
        obs = tmp_path / "obs.csv"
        _write_observed(obs, [1e9], [300.0], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "T_a_K")
        assert result.exit_code == 2

    @pytest.mark.parametrize("option, limit", [
        ("--limit", "nan"), ("--limit", "inf"), ("--limit", "-1"),
        # a value that starts with "-" and is not a plain number follows "="
        ("--limit=", "-inf"),
    ])
    def test_bad_limit_exit_2(self, runner, tmp_path, option, limit):
        # checked before either file is read: no comparison can pass it
        result = run_cli(runner, "validate", "--states", str(tmp_path / "states.csv"),
                         "--observed", str(tmp_path / "obs.csv"), "--variable", "T_a_K",
                         *([option + limit] if option.endswith("=") else [option, limit]))
        assert result.exit_code == 2
        assert result.stderr == (f"error: --limit must be finite and >= 0, "
                                 f"got {float(limit)}\n")

    def test_zero_limit_is_a_limit(self, runner, states_path, tmp_path):
        states = read_csv(states_path)[0]
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10], states["T_a_K"][::10], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "T_a_K", "--limit", "0")
        assert result.exit_code == 0
        assert result.stdout.endswith("; limit 0.0 % -> PASS\n")


def _read_all_columns(path):
    """The all-columns reader validate used before it streamed two
    columns, kept as the reference for its reports."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    reader = csv.reader(lines)
    header = next(reader)
    data = {col: [] for col in header}
    for row in reader:
        for col, cell in zip(header, row):
            data[col].append(float(cell))
    return data


def _interpolate_at(times, columns, t):
    """The per-point interpolation validate made before it walked the
    observation times once."""
    i = bisect.bisect_left(times, t)
    if times[i] == t:
        return [col[i] for col in columns]
    t0 = times[i - 1]
    f = (t - t0) / (times[i] - t0)
    return [col[i - 1] + f * (col[i] - col[i - 1]) for col in columns]


def _percent_difference_at(predicted, observed):
    """(mean, max) of the per-point loop percent_difference ran before it
    took one pass over the pairs."""
    total = 0.0
    max_abs = 0.0
    for i, (p, o) in enumerate(zip(predicted, observed)):
        if o == 0:
            raise ComparisonError(f"observed value is zero at index {i}")
        diff = abs(p - o)
        total += 100.0 * diff / abs(o)
        max_abs = max(max_abs, diff)
    return total / len(observed), max_abs


def _reference_report(states_path, observed_path, variable, limit=10.0):
    """validate's report line, and its (mean, max) packed as two doubles."""
    states = _read_all_columns(states_path)
    observed = _read_all_columns(observed_path)
    t_pred, columns = states["t_s"], (states[variable],)
    predicted = [_interpolate_at(t_pred, columns, t)[0] for t in observed["t_s"]]
    obs_col = next(c for c in observed if c != "t_s")
    mean, max_abs = _percent_difference_at(predicted, observed[obs_col])
    passed = mean <= limit
    return (f"{variable}: mean |diff| = {mean:.4f} % over "
            f"{len(predicted)} points (max abs diff {max_abs:.4g}); "
            f"limit {limit} % -> {'PASS' if passed else 'FAIL'}",
            struct.pack("<dd", mean, max_abs))


VALIDATE_COLUMNS = ("T_c_K", "T_a_K", "T_p_K", "T_f_K", "H", "M_db")


def _campaign(states, variable, seed, n=2500):
    """n seeded irregular times inside the simulated span, with the trace
    there times (1 + 2 % gaussian noise)."""
    rng = random.Random(f"{seed}:{variable}")
    ts = states["t_s"]
    times = sorted(rng.uniform(ts[0], ts[-1]) for _ in range(n))
    values = [_interpolate_at(ts, (states[variable],), t)[0] * (1.0 + rng.gauss(0.0, 0.02))
              for t in times]
    return times, values


class TestValidateStreamed:
    """validate reads only t_s and the compared column and walks the
    observation times once; its reports equal those of the all-columns
    reader with one bisect per observed point."""

    @pytest.fixture(scope="class")
    def baseline(self, baseline_config_path, tmp_path_factory):
        out = tmp_path_factory.mktemp("validate4day")
        result = run_cli(CliRunner(), "run", "--config", str(baseline_config_path),
                         "--preset", "tropical", "--days", "4", "--out", str(out))
        assert result.exit_code == 0, result.output
        path = out / "states.csv"
        return path, _read_all_columns(path)

    def _validate(self, runner, states_path, observed_path, variable):
        return run_cli(runner, "validate", "--states", str(states_path),
                       "--observed", str(observed_path), "--variable", variable)

    @pytest.fixture()
    def reports(self, monkeypatch):
        """Each ErrorReport that validate's percent_difference returns."""
        seen = []

        def spy(*args):
            seen.append(percent_difference(*args))
            return seen[-1]

        monkeypatch.setattr(greendry.cli, "percent_difference", spy)
        return seen

    def _assert_reference(self, result, reports, states_path, obs, variable):
        """validate's line equals the reference's, and its report's mean
        and maximum are the reference's bit for bit."""
        line, bits = _reference_report(states_path, obs, variable)
        assert result.output.strip() == line
        report = reports.pop()
        assert struct.pack("<dd", report.mean_abs_pct, report.max_abs_diff) == bits

    @pytest.mark.parametrize("seed", [11, 12])
    def test_reports_equal_all_columns_reader(self, runner, baseline, tmp_path, seed,
                                              reports):
        states_path, states = baseline
        for variable in VALIDATE_COLUMNS:
            obs = tmp_path / f"obs_{variable}.csv"
            _write_observed(obs, *_campaign(states, variable, seed), variable)
            result = self._validate(runner, states_path, obs, variable)
            assert result.exit_code == 0, result.output
            self._assert_reference(result, reports, states_path, obs, variable)
            assert "over 2500 points" in result.output

    def test_nan_observation_report_equals_reference(self, runner, baseline, tmp_path,
                                                     reports):
        # a NaN observed value makes the mean NaN (FAIL, exit 1) and is
        # skipped by the maximum, as max(max_abs, nan) skips it
        states_path, states = baseline
        times, values = _campaign(states, "T_c_K", 14, n=300)
        for i in (0, 137):
            values[i] = math.nan
        obs = tmp_path / "obs.csv"
        _write_observed(obs, times, values, "T_c_K")
        result = self._validate(runner, states_path, obs, "T_c_K")
        assert result.exit_code == 1, result.output
        assert "mean |diff| = nan %" in result.output
        self._assert_reference(result, reports, states_path, obs, "T_c_K")
        assert "(max abs diff nan)" not in result.output

    def test_span_error_before_zero_observation(self, runner, baseline, tmp_path):
        # each error names the first offender in file order; an observed
        # time outside the span (NaN counts) is reported before a zero
        # value (-0.0 counts)
        states_path, states = baseline
        t_last = states["t_s"][-1]
        cases = [
            ([0.0, 60.0, t_last + 1.0, 120.0, 1e9], [1.0, 0.0, 1.0, 1.0, 1.0],
             f"observed time {t_last + 1.0} s outside simulated span"),
            ([0.0, math.nan, -1.0, 60.0], [-0.0, 1.0, 1.0, 1.0],
             "observed time nan s outside simulated span"),
            ([0.0, 60.0, 120.0, 180.0], [1.0, -0.0, 0.0, 1.0],
             "observed value is zero at index 1"),
        ]
        for times, values, error in cases:
            obs = tmp_path / "obs.csv"
            _write_observed(obs, times, values, "T_a_K")
            result = self._validate(runner, states_path, obs, "T_a_K")
            assert result.exit_code == 2
            assert result.stderr == f"error: {error}\n"

    def test_unsorted_and_repeated_times_same_report(self, runner, baseline, tmp_path):
        states_path, states = baseline
        times, values = _campaign(states, "T_p_K", 13, n=400)
        pairs = list(zip(times, values)) + list(zip(times[::7], values[::7]))
        shuffled = random.Random(5).sample(pairs, len(pairs))
        outputs = []
        for name, rows in (("sorted", sorted(pairs)), ("shuffled", shuffled)):
            obs = tmp_path / f"{name}.csv"
            _write_observed(obs, *zip(*rows), "T_p_K")
            result = self._validate(runner, states_path, obs, "T_p_K")
            assert result.exit_code == 0, result.output
            assert result.output.strip() == _reference_report(states_path, obs, "T_p_K")[0]
            outputs.append(result.output)
        assert outputs[0] == outputs[1]
        assert f"over {len(pairs)} points" in outputs[0]

    def test_span_ends_and_grid_times_are_exact(self, runner, baseline, tmp_path):
        states_path, states = baseline
        ts, col = states["t_s"], states["M_db"]
        picks = [len(ts) - 1, 0, *range(1, len(ts), 97), 0, len(ts) - 1]
        obs = tmp_path / "grid.csv"
        _write_observed(obs, [ts[i] for i in picks], [col[i] for i in picks], "M_db")
        result = self._validate(runner, states_path, obs, "M_db")
        assert result.exit_code == 0, result.output
        assert "mean |diff| = 0.0000 %" in result.output
        assert "(max abs diff 0)" in result.output

    @staticmethod
    def _edit_line(src, dst, lineno, edit):
        lines = src.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[lineno - 1] = edit(lines[lineno - 1])
        dst.write_text("".join(lines), encoding="utf-8")

    @pytest.mark.parametrize("lineno", [5, 5760])
    def test_ragged_states_row_exit_2(self, runner, baseline, tmp_path, lineno):
        # line 1 is the inputs-hash comment, line 2 the header
        states_path, states = baseline
        short = tmp_path / "states.csv"
        self._edit_line(states_path, short, lineno,
                        lambda line: line.rsplit(",", 1)[0] + "\r\n")
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::50], states["rh_pct"][::50], "rh_pct")
        result = self._validate(runner, short, obs, "rh_pct")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read states file: {short}:{lineno}: "
                                 "expected 8 cells, got 7\n")

    def test_ragged_observed_row_exit_2(self, runner, baseline, tmp_path):
        states_path, states = baseline
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][:4], states["H"][:4], "H")
        self._edit_line(obs, obs, 3, lambda line: line.rstrip("\r\n") + ",1.0\r\n")
        result = self._validate(runner, states_path, obs, "H")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read observed file: {obs}:3: "
                                 "expected 2 cells, got 3\n")

    @pytest.mark.parametrize("bad", ["states", "observed"])
    def test_byte_not_utf8_exit_2(self, runner, baseline, tmp_path, monkeypatch, bad):
        # line 300 comes after many ASCII blocks of 256 bytes: a byte that
        # is not UTF-8 on it, or, after a quoted cell on line 299, a cell
        # past csv's field size limit
        states_path, states = baseline
        paths = {"states": states_path, "observed": tmp_path / "obs.csv"}
        _write_observed(paths["observed"], states["t_s"][::10], states["T_a_K"][::10],
                        "T_a_K")
        lines = paths[bad].read_bytes().splitlines(keepends=True)
        bad_byte, too_long = list(lines), list(lines)
        bad_byte[299] = lines[299][:3] + b"\xff" + lines[299][3:]
        too_long[298] = b'"' + lines[298].replace(b",", b'",', 1)
        too_long[299] = lines[299][:3] + b"0" * 140_000 + lines[299][3:]
        paths[bad] = tmp_path / f"bad_{bad}.csv"
        monkeypatch.setattr(greendry.weather, "READ_BLOCK", 256)
        for edited, error in [(bad_byte, "byte 0xff at column 4 is not UTF-8 (invalid start byte)"),
                              (too_long, "field larger than field limit (131072)")]:
            paths[bad].write_bytes(b"".join(edited))
            result = self._validate(runner, paths["states"], paths["observed"], "T_a_K")
            assert result.exit_code == 2
            assert result.stderr == (f"error: cannot read {bad} file: {paths[bad]}:300: "
                                     f"{error}\n")

    def test_column_named_twice_exit_2(self, runner, baseline, tmp_path):
        states_path, states = baseline
        twice = tmp_path / "states.csv"
        self._edit_line(states_path, twice, 2,
                        lambda line: line.replace("T_c_K", "T_a_K"))
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][:4], states["T_a_K"][:4], "T_a_K")
        result = self._validate(runner, twice, obs, "T_a_K")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read states file: {twice}:2: "
                                 "column 'T_a_K' named twice\n")
        obs.write_text("t_s,t_s\n0.0,0.0\n")
        result = self._validate(runner, states_path, obs, "T_a_K")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read observed file: {obs}:1: "
                                 "column 't_s' named twice\n")

    def test_no_header_exit_2(self, runner, baseline, tmp_path):
        states_path, states = baseline
        bare = tmp_path / "states.csv"
        bare.write_text("# comment\n")
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][:4], states["H"][:4], "H")
        result = self._validate(runner, bare, obs, "H")
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot read states file: {bare}: no header row\n"
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        result = self._validate(runner, states_path, empty, "H")
        assert result.exit_code == 2
        assert result.stderr == f"error: cannot read observed file: {empty}: no header row\n"

    def test_header_without_rows_exit_2(self, runner, baseline, tmp_path):
        states_path, states = baseline
        header_only = tmp_path / "states.csv"
        header_only.write_text(",".join(STATE_COLUMNS) + "\n")
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][:4], states["H"][:4], "H")
        result = self._validate(runner, header_only, obs, "H")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read states file: {header_only}: "
                                 "no data rows\n")

    def test_observed_column_must_be_the_variable(self, runner, baseline, tmp_path):
        # T_p observations compared against T_a would pass: they are close
        states_path, states = baseline
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10], states["T_p_K"][::10], "T_p_K")
        result = self._validate(runner, states_path, obs, "T_a_K")
        assert result.exit_code == 2
        assert result.stderr == ("error: observed CSV must have exactly columns "
                                 "t_s,<variable>\n")
        result = self._validate(runner, states_path, obs, "T_p_K")
        assert result.exit_code == 0, result.output

    def test_non_numeric_cell_in_an_unread_column_accepted(self, runner, baseline,
                                                           tmp_path):
        states_path, states = baseline
        odd = tmp_path / "states.csv"
        self._edit_line(states_path, odd, 40,
                        lambda line: ",".join([line.split(",")[0], "n/a",
                                               *line.split(",")[2:]]))
        for variable in ("T_a_K", "T_c_K"):
            _write_observed(tmp_path / f"{variable}.csv", states["t_s"][::10],
                            states[variable][::10], variable)
        result = self._validate(runner, odd, tmp_path / "T_a_K.csv", "T_a_K")
        assert result.exit_code == 0, result.output
        result = self._validate(runner, odd, tmp_path / "T_c_K.csv", "T_c_K")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read states file: {odd}:40: "
                                 "non-numeric value 'n/a' in column T_c_K\n")


    @pytest.mark.parametrize("t_s, shown", [("0.0", "0.0"), ("2160", "2160.0")])
    def test_states_time_must_increase(self, runner, baseline, tmp_path, t_s, shown):
        # line 40 is the row at 2220 s: set back to the start, or to the
        # time of the row before it
        states_path, states = baseline
        odd = tmp_path / "states.csv"
        self._edit_line(states_path, odd, 40,
                        lambda line: ",".join([t_s, *line.split(",")[1:]]))
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10], states["T_a_K"][::10], "T_a_K")
        result = self._validate(runner, odd, obs, "T_a_K")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read states file: {odd}:40: t_s "
                                 f"{shown} not increasing (previous 2160.0)\n")

    def test_row_spanning_lines_named_by_its_last_line(self, runner, tmp_path):
        # line 3 opens a quoted t_s that line 4 closes; the repeat is on line 5
        odd = tmp_path / "states.csv"
        odd.write_text('t_s,T_a_K\n0,300\n"60\n",301\n60,302\n')
        obs = tmp_path / "obs.csv"
        _write_observed(obs, [0.0], [300.0], "T_a_K")
        result = self._validate(runner, odd, obs, "T_a_K")
        assert result.exit_code == 2
        assert result.stderr == (f"error: cannot read states file: {odd}:5: t_s "
                                 "60.0 not increasing (previous 60.0)\n")

    def test_read_memory_stays_small(self, baseline):
        # the two columns of the 4-day states.csv (760 KB) are read a block
        # of lines at a time (measured: a 0.9 MiB peak; 8.4 MiB with the
        # whole file as one block)
        states_path, states = baseline
        tracemalloc.start()
        try:
            data, _ = read_csv(states_path, lambda header: ("t_s", "T_a_K"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert data == {"t_s": states["t_s"], "T_a_K": states["T_a_K"]}
        assert peak < 3 * 2**20


class TestSweep:
    def _spec(self, tmp_path, values="[1.2, 1.5]", extra=""):
        spec = tmp_path / "spec.yaml"
        spec.write_text(
            f"parameters:\n  airflow.V_a: {values}\n"
            "objective: drying_time\ntarget_mdb: 0.35\nhorizon_h: 24\n" + extra
        )
        return spec

    def test_singleton_one_row(self, runner, baseline_config_path, tmp_path):
        spec = self._spec(tmp_path, "[0.9]")
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--days", "2", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "out" / "sweep.csv")[0]
        assert len(rows["rank"]) == 1

    def test_rows_sorted(self, runner, baseline_config_path, tmp_path):
        spec = self._spec(tmp_path)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--days", "2", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        rows = read_csv(tmp_path / "out" / "sweep.csv")[0]
        objectives = rows["objective_hours"]
        assert objectives == sorted(objectives)
        assert len(objectives) == 2

    def _sweep_C_pp(self, runner, config_path, tmp_path, values):
        # C_pp = 1e308 makes the step-1 product row non-finite
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"parameters:\n  product.C_pp: {values}\n"
                        "objective: drying_time\ntarget_mdb: 0.35\nhorizon_h: 24\n")
        return run_cli(runner, "sweep", "--config", str(config_path),
                       "--spec", str(spec), "--preset", "tropical",
                       "--days", "2", "--out", str(tmp_path / "out"))

    def test_failed_point_warned_and_ranked_last(self, runner, baseline_config_path,
                                                 tmp_path):
        result = self._sweep_C_pp(runner, baseline_config_path, tmp_path, "[1e308, 1700.0]")
        assert result.exit_code == 0, result.output
        warnings = [line for line in result.stderr.splitlines()
                    if line.startswith("warning: ")]
        assert len(warnings) == 1
        assert "{'product.C_pp': 1e+308} failed: step 1 (t=60.0 s)" in warnings[0]
        rows = read_csv(tmp_path / "out" / "sweep.csv")[0]
        assert rows["product.C_pp"] == [1700.0, 1e308]
        assert rows["reached"] == [1.0, 0.0]

    @pytest.mark.parametrize("n", [1, 2])
    def test_grid_dt_that_makes_no_step_exit_2(self, runner, baseline_config_path,
                                               tmp_path, cpus, n):
        # an input error, as in `run`: named by the spec before any point runs
        spec = tmp_path / "spec.yaml"
        spec.write_text("parameters:\n  numerics.dt: [60.0, 1e6]\n"
                        "objective: drying_time\ntarget_mdb: 0.35\nhorizon_h: 24\n")
        out = tmp_path / "out"
        out.mkdir()
        (out / "sweep.csv").write_bytes(b"kept\n")
        cpus(n)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--days", "2", "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == (
            f"error: {spec}: numerics.dt: dt = 1000000.0 s over a horizon of "
            "86400.0 s makes 0 steps; a run takes 1 to 1000000\n")
        assert _contents(out) == {"sweep.csv": b"kept\n"}

    def test_manifest_records_the_sweep(self, runner, baseline_config_path, tmp_path,
                                        cpus):
        spec = tmp_path / "spec.yaml"
        spec.write_text("parameters:\n  product.C_pp: [1e308, 1700.0]\n"
                        "objective: drying_time\ntarget_mdb: 0.35\nhorizon_h: 24\n")
        out = tmp_path / "out"
        for n in (1, 2):
            cpus(n)
            result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                             "--spec", str(spec), "--preset", "tropical",
                             "--days", "2", "--out", str(out))
            assert result.exit_code == 0, result.output
            manifest = json.loads((out / "manifest.json").read_text())
            [(point, error)] = [(f["point"], f["error"]) for f in manifest.pop("failed")]
            assert point == {"product.C_pp": 1e308}
            assert error.startswith("step 1 (t=60.0 s): non-finite product balance")
            first_line = (out / "sweep.csv").read_text().splitlines()[0]
            assert manifest == {
                "engine_version": greendry.__version__,
                "config": str(baseline_config_path), "spec": str(spec),
                "weather": "preset:tropical:2", "out": str(out),
                "inputs_sha256": first_line.removeprefix("# inputs_sha256="),
                "n_points": 2, "n_reached": 1,
            }

    def test_every_point_failed_exit_3(self, runner, baseline_config_path, tmp_path):
        result = self._sweep_C_pp(runner, baseline_config_path, tmp_path, "[1e308]")
        assert result.exit_code == 3
        assert "all 1 points failed" in result.stderr
        assert not (tmp_path / "out").exists()

    def test_unwritable_manifest_leaves_the_outputs_as_they_were(
            self, runner, baseline_config_path, tmp_path, cpus):
        spec = self._spec(tmp_path, "[1.2]")
        out, before = _out_with_a_manifest_directory(tmp_path, "sweep.csv")
        cpus(1)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical", "--days", "2",
                         "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert "manifest.json" in result.stderr
        assert _contents(out) == before

    @pytest.mark.parametrize("how", ["raises", "is killed"])
    def test_failed_worker_leaves_the_outputs_as_they_were(
            self, runner, baseline_config_path, tmp_path, cpus, monkeypatch, how):
        def fail(point):
            if dict(point)["airflow.V_a"] == 1.5:
                if how == "raises":
                    raise ZeroDivisionError("in a worker")
                os.kill(os.getpid(), signal.SIGKILL)

        in_workers(monkeypatch, fail)
        out = tmp_path / "out"
        out.mkdir()
        (out / "sweep.csv").write_bytes(b"kept\n")
        cpus(2)
        args = ("sweep", "--config", str(baseline_config_path), "--spec",
                str(self._spec(tmp_path, "[1.2, 1.5, 0.9]")), "--preset", "tropical",
                "--days", "2", "--out", str(out))
        if how == "raises":  # a program error: its traceback, as in this process
            with pytest.raises(ZeroDivisionError, match="^in a worker$"):
                run_cli(runner, *args)
        else:
            result = run_cli(runner, *args)
            assert result.exit_code == 3, result.output
            assert re.fullmatch(r"error: sweep worker \d+ ended by signal 9 before it "
                                r"sent its results\n", result.stderr), result.stderr
        assert _contents(out) == {"sweep.csv": b"kept\n"}

    @pytest.mark.parametrize("call, nth, code", [
        ("fork", 1, errno.EAGAIN), ("fork", 2, errno.EAGAIN),
        ("pipe", 1, errno.EMFILE), ("pipe", 2, errno.EMFILE), ("pipe", 3, errno.EMFILE),
    ], ids=["fork-worker1", "fork-worker2", "pipe-indices", "pipe-worker1",
            "pipe-worker2"])
    def test_worker_that_cannot_start_exits_3(self, runner, baseline_config_path, tmp_path,
                                              cpus, monkeypatch, call, nth, code):
        # os.pipe's first call makes the index pipe, then one results pipe
        # per worker; the worker forked before the failure is killed and reaped
        original, calls = getattr(os, call), []

        def failing():
            calls.append(call)
            if len(calls) == nth:
                raise OSError(code, os.strerror(code))
            return original()

        monkeypatch.setattr(os, call, failing)
        out = tmp_path / "out"
        out.mkdir()
        (out / "sweep.csv").write_bytes(b"kept\n")
        cpus(2)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path), "--spec",
                         str(self._spec(tmp_path, "[1.2, 1.5, 0.9]")), "--preset",
                         "tropical", "--days", "2", "--out", str(out))
        assert result.exit_code == 3, result.output
        assert result.stderr == (f"error: cannot start sweep worker: [Errno {code}] "
                                 f"{os.strerror(code)}\n")
        assert len(calls) == nth
        assert _contents(out) == {"sweep.csv": b"kept\n"}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_workers_do_not_change_sweep_csv(self, runner, baseline_config_path,
                                            tmp_path, cpus):
        spec = self._spec(tmp_path, "[1.2, 1.5, 0.9]")
        outputs = []
        for n in (1, 2, 8):
            cpus(n)
            out = tmp_path / f"cpus{n}"
            result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                             "--spec", str(spec), "--preset", "tropical",
                             "--days", "2", "--out", str(out))
            assert result.exit_code == 0, result.output
            outputs.append((out / "sweep.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_workers_option_is_gone(self, runner, baseline_config_path, tmp_path):
        # the worker count is the CPUs the process may run on
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(self._spec(tmp_path)), "--preset", "tropical",
                         "--out", str(tmp_path / "out"), "--workers", "1")
        assert result.exit_code == 2
        assert "error: unrecognized arguments: --workers 1" in result.stderr
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("values, extra", [
        ("[abc]", ""), ("[~]", ""), ("[1.2]", "objectve: payback\n"),
        ("[1.2]", "target_mdb: abc\n"), ("[1.2]", "max_points: 2.5\n")])
    def test_bad_spec_exit_2(self, runner, baseline_config_path, tmp_path, values,
                             extra):
        spec = self._spec(tmp_path, values, extra)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: {spec}: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("value, shown", [("~", "None"), ("3", "3")])
    def test_objective_not_a_string_exit_2(self, runner, baseline_config_path,
                                           tmp_path, value, shown):
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"parameters:\n  airflow.V_a: [1.2]\nobjective: {value}\n")
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert result.stderr == f"error: {spec}: unknown objective {shown}\n"
        assert not (tmp_path / "out").exists()

    def test_out_is_a_file_exit_2(self, baseline_config_path, tmp_path):
        spec = self._spec(tmp_path, "[1.2]")
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        result = _cli_process("sweep", "--config", str(baseline_config_path),
                              "--spec", str(spec), "--preset", "tropical",
                              "--days", "2", "--out", str(blocker))
        _assert_cannot_write(result, blocker, blocker, b"kept\n")
        assert sorted(tmp_path.iterdir()) == [blocker, spec]

    def test_unwritable_out_exits_before_any_point_is_simulated(
            self, runner, baseline_config_path, tmp_path, monkeypatch, cpus):
        simulated = []

        def counted(*args, **kwargs):
            simulated.append(args)
            return steps(*args, **kwargs)

        monkeypatch.setattr(greendry.sweep, "steps", counted)
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        cpus(1)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(self._spec(tmp_path)), "--preset", "tropical",
                         "--days", "2", "--out", str(blocker))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: cannot write {blocker}: ")
        assert simulated == []
        assert blocker.read_bytes() == b"kept\n"

    @pytest.mark.parametrize("grid, message", [
        ("cover.tau_c: [0.85, 1.5]", "cover.tau_c must be in [0, 1], got 1.5"),
        ("product.bogus: [1]", "unknown config field 'product.bogus'"),
        ("product.m_p: [54.0]", "unknown config field 'product.m_p'"),
    ], ids=["out-of-bounds", "unknown-field", "removed-field"])
    def test_grid_value_the_config_rejects_exit_2(
            self, runner, baseline_config_path, tmp_path, cpus, grid, message):
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"parameters:\n  {grid}\n")
        out = tmp_path / "a" / "out"
        cpus(1)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical", "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {spec}: {message}\n"
        assert sorted(tmp_path.iterdir()) == [spec]

    def test_unknown_preset_exit_2(self, runner, baseline_config_path, tmp_path):
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(self._spec(tmp_path)), "--preset", "nowhere",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert result.stderr == "error: unknown preset 'nowhere'; known: ['tropical']\n"
        assert not (tmp_path / "out").exists()

    def test_too_many_days_exit_2(self, runner, baseline_config_path, tmp_path):
        # the weather's record count is checked before any record is built
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(self._spec(tmp_path)), "--preset", "tropical",
                         "--days", str(10**12), "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert result.stderr.startswith("error: 1000000000000 days at 600.0 s ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, message", [
        (None, "config file not found: {config}"),
        ("{}\n", "missing keys in the config: ['geometry', 'cover', 'floor', "
                 "'product', 'airflow', 'kinetics']"),
    ], ids=["missing", "no-sections"])
    def test_bad_config_exit_1(self, runner, tmp_path, text, message):
        config = tmp_path / "config.yaml"
        if text is not None:
            config.write_text(text)
        result = run_cli(runner, "sweep", "--config", str(config),
                         "--spec", str(self._spec(tmp_path)), "--preset", "tropical",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 1
        assert result.stderr == f"error: {message.format(config=config)}\n"
        assert not (tmp_path / "out").exists()

    def test_oversized_grid_exit_2(self, runner, baseline_config_path, tmp_path):
        # 101 x 100 points: rejected as the spec is loaded
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"parameters:\n  airflow.V_a: {[1 + i / 100 for i in range(101)]}\n"
                        f"  product.F_p: {[0.3 + i / 1000 for i in range(100)]}\n")
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 2
        assert result.stderr == (f"error: {spec}: parameters make 10100 points, "
                                 "more than 10000\n")
        assert sorted(tmp_path.iterdir()) == [spec]

    @pytest.mark.parametrize("extra, message", [
        ("economics:\n  capital: -1.0\n  operating_cost: 1000.0\n  batch_kg_dry: 25.0\n"
         "  annual_operating_hours: 4000.0\n  unit_premium: 24.0\n",
         "economics.capital must be > 0, got -1.0"),
        ("horizon_h: .nan\n", "horizon_h must be finite, got nan"),
        ("horizon_h: -1\n", "horizon_h: horizon must be >= 0 s, got -3600.0 s"),
        ("horizon_h: 100\n",
         "horizon_h: weather series ends at 172800.0 s but the run needs 360000.0 s"),
        ("target_mdb: .nan\n", "target_mdb must be finite, got nan"),
        ("target_mdb: .inf\n", "target_mdb must be finite, got inf"),
        ("max_points: 100\n", "unknown keys in the sweep spec: ['max_points']"),
    ], ids=["capital", "horizon-nan", "horizon-negative", "horizon-past-weather",
            "target-nan", "target-inf", "max_points"])
    def test_spec_error_exit_2_before_any_point(self, runner, baseline_config_path,
                                                tmp_path, monkeypatch, cpus, extra,
                                                message):
        simulated = []
        monkeypatch.setattr(greendry.sweep, "steps", lambda *a, **k: simulated.append(a))
        spec = tmp_path / "spec.yaml"
        spec.write_text("parameters:\n  airflow.V_a: [1.2]\n" + extra)
        cpus(1)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical", "--days", "2",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 2, result.output
        assert result.stderr == f"error: {spec}: {message}\n"
        assert simulated == []
        assert sorted(tmp_path.iterdir()) == [spec]

    def _sweep_payback(self, runner, config_path, tmp_path, operating_cost,
                       target_mdb="0.08",
                       parameters="airflow.V_vent: [0.5, 0.9]\n  product.F_p: [0.4, 0.5]"):
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"parameters:\n  {parameters}\n"
                        f"objective: payback\ntarget_mdb: {target_mdb}\nhorizon_h: 96\n"
                        f"economics:\n  capital: 11500.0\n  operating_cost: {operating_cost}\n"
                        "  batch_kg_dry: 25.0\n  annual_operating_hours: 4000.0\n"
                        "  unit_premium: 24.0\n")
        return run_cli(runner, "sweep", "--config", str(config_path),
                       "--spec", str(spec), "--preset", "tropical",
                       "--days", "4", "--out", str(tmp_path / "out"))

    def test_no_payback_points_warned_and_ranked_last(self, runner, baseline_config_path,
                                                      tmp_path):
        # the V_vent 0.9 points dry too slowly to cover the operating cost
        result = self._sweep_payback(runner, baseline_config_path, tmp_path, "60000.0")
        assert result.exit_code == 0, result.output
        warnings = result.stderr.splitlines()
        assert len(warnings) == 2
        for line, F_p in zip(warnings, (0.4, 0.5)):
            assert line.startswith(f"warning: point {{'airflow.V_vent': 0.9, "
                                   f"'product.F_p': {F_p}}} failed: no payback: ")
        rows = read_csv(tmp_path / "out" / "sweep.csv")[0]
        assert rows["airflow.V_vent"] == [0.5, 0.5, 0.9, 0.9]
        assert rows["objective_years"][2:] == [float("inf")] * 2
        assert rows["reached"] == [1.0, 1.0, 0.0, 0.0]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert [f["point"] for f in manifest["failed"]] == [
            {"airflow.V_vent": 0.9, "product.F_p": 0.4},
            {"airflow.V_vent": 0.9, "product.F_p": 0.5}]
        assert manifest["n_reached"] == 2

    def test_no_point_pays_back_exit_3(self, runner, baseline_config_path, tmp_path):
        result = self._sweep_payback(runner, baseline_config_path, tmp_path, "1e9")
        assert result.exit_code == 3
        assert result.stderr.splitlines()[-1] == "error: all 4 points failed"
        assert not (tmp_path / "out").exists()

    def test_dry_already_payback_grid_exit_3(self, runner, baseline_config_path,
                                             tmp_path):
        # every point starts at M_0 0.522, below the target: none pays back
        result = self._sweep_payback(runner, baseline_config_path, tmp_path,
                                     "1000.0", target_mdb="0.9")
        assert result.exit_code == 3
        lines = result.stderr.splitlines()
        assert len(lines) == 5 and lines[-1] == "error: all 4 points failed"
        for line in lines[:4]:
            assert line.endswith(" failed: no payback: target_mdb 0.9 is at or "
                                 "above the initial moisture 0.522"), line
        assert not (tmp_path / "out").exists()

    def test_dry_already_payback_point_warned_and_listed(self, runner,
                                                         baseline_config_path, tmp_path):
        result = self._sweep_payback(runner, baseline_config_path, tmp_path, "1000.0",
                                     parameters="product.M_0_pct: [8.0, 52.2]")
        assert result.exit_code == 0, result.output
        error = "no payback: target_mdb 0.08 is at or above the initial moisture 0.08"
        assert result.stderr == (f"warning: point {{'product.M_0_pct': 8.0}} "
                                 f"failed: {error}\n")
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["failed"] == [{"point": {"product.M_0_pct": 8.0}, "error": error}]
        assert read_csv(tmp_path / "out" / "sweep.csv")[0]["reached"] == [1.0, 0.0]

    def test_readme_names_the_spec_keys(self):
        # README's sweep section lists the keys load_sweep_spec accepts
        readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        section = readme[readme.index("### `sweep`"):readme.index("### `gen-weather`")]
        assert re.findall(r"^- `(\w+)`:", section, re.M) == list(SPEC_KEYS)
        economics = re.search(r"^- `economics`:.*?(?=^- |^$)", section,
                              re.M | re.S).group(0)
        assert re.findall(r"`(\w+)`", economics)[1:] == list(EconomicModel._fields)


class TestGenWeather:
    def test_round_trip(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        result = run_cli(runner, "gen-weather", "--preset", "tropical",
                         "--days", "3", "--interval", "600", "--out", str(out))
        assert result.exit_code == 0
        from greendry.weather import load_csv, synthetic_days
        series = load_csv(out)
        assert records_of(series) == records_of(synthetic_days(3, interval_s=600.0))

    def test_shape_options_reach_the_series(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        result = run_cli(runner, "gen-weather", "--days", "1", "--peak-irradiance",
                         "500", "--sunset-h", "17", "--out", str(out))
        assert result.exit_code == 0, result.output
        from greendry.weather import load_csv, synthetic_days
        assert records_of(load_csv(out)) == records_of(synthetic_days(
            1, interval_s=600.0, peak_irradiance=500.0, sunset_h=17.0))

    def test_noon_rows_at_peak(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        run_cli(runner, "gen-weather", "--days", "1", "--interval", "3600",
                "--out", str(out))
        from greendry.weather import load_csv
        series = load_csv(out)
        noon = [r for r in records_of(series) if r.t == 12 * 3600.0][0]
        assert noon.I_t == pytest.approx(900.0, rel=1e-9)

    def test_one_day_hourly_bytes(self, runner, tmp_path):
        # the bytes gen-weather writes, pinned: a change to the CSV writer
        # must keep them
        out = tmp_path / "w.csv"
        result = run_cli(runner, "gen-weather", "--days", "1", "--interval", "3600",
                         "--out", str(out))
        assert result.exit_code == 0, result.output
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "833cad08ff1b6ad753d9658d33ea9b53da6e4917e39c4509cb824866323d8d9f")

    @pytest.mark.parametrize("option, value, message", [
        ("--days", "0", "n_days must be >= 1, got 0"),
        ("--interval", "0", "interval must be > 0, got 0.0"),
        ("--peak-irradiance", "-1", "peak irradiance must be >= 0, got -1.0"),
        # NaN fails every comparison, so each check asks for what is in range
        ("--interval", "nan", "interval must be > 0, got nan"),
        ("--peak-irradiance", "nan", "peak irradiance must be >= 0, got nan"),
        ("--interval", "1e-6", "3 days at 1e-06 s intervals make 2.592e+11 records, "
         "more than the 600000 a series may have"),
    ])
    def test_bad_value_exit_2(self, runner, tmp_path, option, value, message):
        result = run_cli(runner, "gen-weather", option, value,
                         "--out", str(tmp_path / "w.csv"))
        assert result.exit_code == 2
        assert result.stderr == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_days_past_a_float_exit_2(self, runner, tmp_path):
        # an int of days too large for a float is a count of records too
        # large to build, not an OverflowError
        result = run_cli(runner, "gen-weather", "--days", str(10**400),
                         "--out", str(tmp_path / "w.csv"))
        assert result.exit_code == 2
        assert result.stderr == (f"error: {10**400} days at 600.0 s intervals make inf "
                                 "records, more than the 600000 a series may have\n")
        assert list(tmp_path.iterdir()) == []

    def test_invalid_hours_exit_2(self, runner, tmp_path):
        result = run_cli(runner, "gen-weather", "--sunrise-h", "20",
                         "--sunset-h", "6", "--out", str(tmp_path / "w.csv"))
        assert result.exit_code == 2

    def test_out_under_a_file_exit_2(self, tmp_path):
        # --out FILE overwrites FILE; a path inside a file cannot be made
        blocker = tmp_path / "blocker"
        blocker.write_bytes(b"kept\n")
        out = blocker / "w.csv"
        result = _cli_process("gen-weather", "--days", "1", "--out", str(out))
        _assert_cannot_write(result, out, blocker, b"kept\n")
        assert list(tmp_path.iterdir()) == [blocker]

    def test_unmakeable_out_removes_the_directories_it_made(self, runner, tmp_path):
        # new/ is made before the over-long name under it fails
        out = tmp_path / "new" / ("x" * 300 + ".csv")
        result = run_cli(runner, "gen-weather", "--days", "1", "--out", str(out))
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith(f"error: cannot write {out}: ")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_preset_exit_2(self, runner, tmp_path):
        result = run_cli(runner, "gen-weather", "--preset", "arctic",
                         "--out", str(tmp_path / "w.csv"))
        assert result.exit_code == 2
