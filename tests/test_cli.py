import csv

import pytest
from click.testing import CliRunner

from greendry.cli import main, read_states_csv


@pytest.fixture()
def runner():
    return CliRunner()


def run_cli(runner, *args):
    return runner.invoke(main, list(args), catch_exceptions=False)


def _run_baseline(runner, baseline_config_path, out_dir, *extra):
    return run_cli(
        runner, "run", "--config", str(baseline_config_path),
        "--preset", "tropical", "--days", "1", "--horizon-h", "2",
        "--out", str(out_dir), *extra,
    )


class TestRun:
    def test_row_count(self, runner, baseline_config_path, tmp_path):
        result = _run_baseline(runner, baseline_config_path, tmp_path / "out")
        assert result.exit_code == 0, result.output
        states = read_states_csv(tmp_path / "out" / "states.csv")
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

    @pytest.mark.parametrize("override", [
        "product.m_p=1e308",   # infinite heat capacity: non-finite product row
        "airflow.V_in=0.3",    # unbalanced ventilation drives T_a out of range
    ])
    def test_numerical_failure_names_step_and_time(
            self, runner, baseline_config_path, tmp_path, override):
        result = _run_baseline(runner, baseline_config_path, tmp_path / "o",
                               "--set", override)
        assert result.exit_code == 3, result.output
        assert "error: step 1 (t=60.0 s): " in result.stderr

    def test_manifest_written(self, runner, baseline_config_path, tmp_path):
        _run_baseline(runner, baseline_config_path, tmp_path / "out")
        assert (tmp_path / "out" / "manifest.json").exists()
        assert (tmp_path / "out" / "diagnostics.csv").exists()


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
        states = read_states_csv(states_path)
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10], states["T_a_K"][::10], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "T_a_K")
        assert result.exit_code == 0
        assert "0.0000 %" in result.output

    def test_12_percent_disagreement_fails(self, runner, states_path, tmp_path):
        states = read_states_csv(states_path)
        obs = tmp_path / "obs.csv"
        _write_observed(obs, states["t_s"][::10],
                        [v / 1.12 for v in states["T_a_K"][::10]], "T_a_K")
        result = run_cli(runner, "validate", "--states", str(states_path),
                         "--observed", str(obs), "--variable", "T_a_K")
        assert result.exit_code == 1
        assert "FAIL" in result.output

    def test_unknown_variable_exit_2(self, runner, states_path, tmp_path):
        states = read_states_csv(states_path)
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
        rows = read_states_csv(tmp_path / "out" / "sweep.csv")
        assert len(rows["rank"]) == 1

    def test_rows_sorted(self, runner, baseline_config_path, tmp_path):
        spec = self._spec(tmp_path)
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--days", "2", "--out", str(tmp_path / "out"))
        assert result.exit_code == 0, result.output
        rows = read_states_csv(tmp_path / "out" / "sweep.csv")
        objectives = rows["objective_hours"]
        assert objectives == sorted(objectives)
        assert len(objectives) == 2

    def _sweep_v_in(self, runner, config_path, tmp_path, values):
        # V_in = 0.3 != V_out drives the chamber air below the table at step 1
        spec = tmp_path / "spec.yaml"
        spec.write_text(f"parameters:\n  airflow.V_in: {values}\n"
                        "objective: drying_time\ntarget_mdb: 0.35\nhorizon_h: 24\n")
        return run_cli(runner, "sweep", "--config", str(config_path),
                       "--spec", str(spec), "--preset", "tropical",
                       "--days", "2", "--out", str(tmp_path / "out"))

    def test_failed_point_warned_and_ranked_last(self, runner, baseline_config_path,
                                                 tmp_path):
        result = self._sweep_v_in(runner, baseline_config_path, tmp_path, "[0.3, 0.9]")
        assert result.exit_code == 0, result.output
        warnings = [line for line in result.stderr.splitlines()
                    if line.startswith("warning: ")]
        assert len(warnings) == 1
        assert "{'airflow.V_in': 0.3} failed: step 1 (t=60.0 s)" in warnings[0]
        rows = read_states_csv(tmp_path / "out" / "sweep.csv")
        assert rows["airflow.V_in"] == [0.9, 0.3]
        assert rows["reached"] == [1.0, 0.0]

    def test_every_point_failed_exit_3(self, runner, baseline_config_path, tmp_path):
        result = self._sweep_v_in(runner, baseline_config_path, tmp_path, "[0.3]")
        assert result.exit_code == 3
        assert "all 1 points failed" in result.stderr
        assert not (tmp_path / "out" / "sweep.csv").exists()

    def test_oversized_grid_exit_2(self, runner, baseline_config_path, tmp_path):
        spec = self._spec(tmp_path, "[0.1, 0.2, 0.3, 0.4]", extra="max_points: 3\n")
        result = run_cli(runner, "sweep", "--config", str(baseline_config_path),
                         "--spec", str(spec), "--preset", "tropical",
                         "--out", str(tmp_path / "out"))
        assert result.exit_code == 2


class TestGenWeather:
    def test_round_trip(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        result = run_cli(runner, "gen-weather", "--preset", "tropical",
                         "--days", "3", "--interval", "600", "--out", str(out))
        assert result.exit_code == 0
        from greendry.weather import load_csv, synthetic_days
        series = load_csv(out)
        assert series.records == synthetic_days(3, interval_s=600.0).records

    def test_noon_rows_at_peak(self, runner, tmp_path):
        out = tmp_path / "w.csv"
        run_cli(runner, "gen-weather", "--days", "1", "--interval", "3600",
                "--out", str(out))
        from greendry.weather import load_csv
        series = load_csv(out)
        noon = [r for r in series.records if r.t == 12 * 3600.0][0]
        assert noon.I_t == pytest.approx(900.0, rel=1e-9)

    def test_invalid_hours_exit_2(self, runner, tmp_path):
        result = run_cli(runner, "gen-weather", "--sunrise-h", "20",
                         "--sunset-h", "6", "--out", str(tmp_path / "w.csv"))
        assert result.exit_code == 2

    def test_unknown_preset_exit_2(self, runner, tmp_path):
        result = run_cli(runner, "gen-weather", "--preset", "arctic",
                         "--out", str(tmp_path / "w.csv"))
        assert result.exit_code == 2
