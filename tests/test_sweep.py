import contextlib
import math
import os
import re
import signal
import time

import pytest

import greendry.solver
import greendry.sweep
from greendry.config import apply_overrides
from greendry.errors import ConfigError, SimulationError
from greendry.sweep import (
    GRID_CAP,
    EconomicModel,
    SweepResult,
    SweepSpec,
    drying_time_objective,
    grid_search,
    load_sweep_spec,
)
from greendry.weather import synthetic_days

from conftest import in_workers


@pytest.fixture(scope="module")
def weather():
    return synthetic_days(6)


def make_spec(weather, parameters, objective="drying_time", **kw):
    return SweepSpec(parameters=parameters, objective=objective,
                     target_mdb=0.08, weather=weather, **kw)


class TestDryingTimeObjective:
    def test_already_dry(self, baseline_cfg, weather):
        assert drying_time_objective(baseline_cfg, weather, 0.6) == 0.0

    def test_no_driving_force(self, weather):
        from test_solver import make_cfg
        cfg = make_cfg(product={"M_0_pct": 1.0})
        assert drying_time_objective(cfg, weather, 0.005) is None

    def test_baseline_in_expected_band(self, baseline_cfg, weather):
        hours = drying_time_objective(baseline_cfg, weather, 0.08)
        assert 40.0 <= hours <= 70.0

    def test_steps_not_recorded(self, baseline_cfg, weather, monkeypatch):
        expected = drying_time_objective(baseline_cfg, weather, 0.3)

        def no_recording(*args):
            raise AssertionError("a step was recorded")

        monkeypatch.setattr(greendry.solver, "step_diagnostics", no_recording)
        assert drying_time_objective(baseline_cfg, weather, 0.3) == expected

    def test_interpolated_between_steps(self, baseline_cfg, weather):
        hours = drying_time_objective(baseline_cfg, weather, 0.08)
        # crossing is interpolated, so not an exact multiple of dt
        assert hours * 3600.0 % baseline_cfg.numerics.dt != 0.0


@contextlib.contextmanager
def alarm(seconds, exc_type):
    """Raise exc_type in this process after seconds, unless the block ends
    first (a forked child does not inherit the timer)."""
    def ring(signum, frame):
        raise exc_type(f"alarm after {seconds} s")

    previous = signal.signal(signal.SIGALRM, ring)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class TestGridSearch:
    @pytest.fixture(autouse=True)
    def no_child_left(self):
        # every case ends with no child of this process, running or not reaped
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_singleton(self, baseline_cfg, weather):
        spec = make_spec(weather, (("airflow.V_vent", (0.9,)),))
        results = grid_search(baseline_cfg, spec)
        assert len(results) == 1
        assert results[0].point == (("airflow.V_vent", 0.9),)

    def test_2x2_matches_exhaustive_argmin(self, baseline_cfg, weather):
        spec = make_spec(weather, (("airflow.V_a", (1.0, 1.5)),
                                   ("product.F_p", (0.4, 0.5))))
        results = grid_search(baseline_cfg, spec)
        assert len(results) == 4
        brute = {
            pt: drying_time_objective(
                apply_overrides(baseline_cfg, dict(pt)), weather, 0.08)
            for pt in (r.point for r in results)
        }
        best_pt = min(brute, key=lambda pt: (brute[pt], [v for _, v in pt]))
        assert results[0].point == best_pt
        objectives = [r.objective for r in results]
        assert objectives == sorted(objectives)

    def test_inert_parameter_tie_broken_lexicographically(self, baseline_cfg, weather):
        # neither point reaches the target within 1 h: both tie at inf
        spec = make_spec(weather, (("product.F_p", (0.7, 0.3)),),
                         horizon_s=3600.0)
        results = grid_search(baseline_cfg, spec)
        assert [r.objective for r in results] == [math.inf, math.inf]
        assert not results[0].reached and results[0].error is None
        assert [r.point for r in results] == [(("product.F_p", 0.3),),
                                              (("product.F_p", 0.7),)]

    def test_serial_equals_parallel(self, baseline_cfg, weather, cpus):
        spec = make_spec(weather, (("airflow.V_a", (1.2, 1.5)),
                                   ("product.F_p", (0.4, 0.5))))
        cpus(1)
        serial = grid_search(baseline_cfg, spec)
        cpus(4)
        parallel = grid_search(baseline_cfg, spec)
        assert serial == parallel

    @pytest.mark.parametrize("n_cpus, values, n_workers", [
        (1, (0.4, 0.5, 0.6), None), (4, (0.4,), None),
        (2, (0.4, 0.5, 0.6), 2), (8, (0.4, 0.5, 0.6), 3)])
    def test_one_worker_per_cpu_at_most_one_per_point(
            self, baseline_cfg, weather, cpus, monkeypatch, n_cpus, values, n_workers):
        # one CPU or one point: no fork, the points run in this process
        forks = []
        original = os.fork

        def spy():
            forks.append(os.getpid())
            return original()

        monkeypatch.setattr(os, "fork", spy)
        cpus(n_cpus)
        spec = make_spec(weather, (("product.F_p", values),), horizon_s=3600.0)
        assert len(grid_search(baseline_cfg, spec)) == len(values)
        assert forks == [os.getpid()] * (0 if n_workers is None else n_workers)

    def test_workers_end_without_unwinding_or_flushing(self, baseline_cfg, weather, cpus,
                                                       tmp_path):
        # a worker that left grid_search, or flushed this process's buffers
        # as it ended, would write the line a second time
        spec = make_spec(weather, (("product.F_p", (0.4, 0.5, 0.6)),), horizon_s=3600.0)
        cpus(2)
        with open(tmp_path / "log", "w", encoding="utf-8") as fh:
            fh.write("once\n")  # still in fh's buffer as the workers fork
            grid_search(baseline_cfg, spec)
        assert (tmp_path / "log").read_text(encoding="utf-8") == "once\n"

    def test_no_fork_runs_the_points_in_this_process(self, baseline_cfg, weather, cpus,
                                                      monkeypatch):
        # as on a platform without os.fork
        spec = make_spec(weather, (("product.F_p", (0.4, 0.5)),), horizon_s=3600.0)
        cpus(1)
        serial = grid_search(baseline_cfg, spec)
        monkeypatch.delattr(os, "fork")
        cpus(2)
        assert grid_search(baseline_cfg, spec) == serial

    def test_unexpected_error_in_a_worker_is_raised_here(self, baseline_cfg, weather,
                                                         cpus, monkeypatch):
        # not a failed point: the same error as in this process, and the
        # other worker is killed and reaped (no_child_left)
        def divide(point):
            if dict(point)["product.F_p"] == 0.5:
                raise ZeroDivisionError(f"no point at {point}")

        in_workers(monkeypatch, divide)
        spec = make_spec(weather, (("product.F_p", (0.4, 0.5, 0.6)),), horizon_s=3600.0)
        cpus(2)
        with pytest.raises(ZeroDivisionError) as exc:
            grid_search(baseline_cfg, spec)
        assert type(exc.value) is ZeroDivisionError
        assert str(exc.value) == "no point at (('product.F_p', 0.5),)"

    @pytest.mark.parametrize("end, how", [
        (lambda: os.kill(os.getpid(), signal.SIGKILL), "signal 9"),
        (lambda: os._exit(5), "exit status 5")], ids=["SIGKILL", "_exit"])
    def test_worker_that_dies_is_named(self, baseline_cfg, weather, cpus, monkeypatch,
                                       end, how):
        def die(point):
            if dict(point)["product.F_p"] == 0.5:
                end()

        in_workers(monkeypatch, die)
        spec = make_spec(weather, (("product.F_p", (0.4, 0.5, 0.6)),), horizon_s=3600.0)
        cpus(2)
        with alarm(60, TimeoutError), pytest.raises(SimulationError) as exc:
            grid_search(baseline_cfg, spec)
        assert re.fullmatch(rf"sweep worker \d+ ended by {how} before it sent its results",
                            str(exc.value))

    def test_interrupt_kills_and_reaps_the_workers(self, baseline_cfg, weather, cpus,
                                                   monkeypatch):
        # the workers would take a minute; an interrupt of this process
        # ends the sweep at once
        in_workers(monkeypatch, lambda point: time.sleep(60))
        spec = make_spec(weather, (("product.F_p", (0.4, 0.5, 0.6)),), horizon_s=3600.0)
        cpus(2)
        start = time.monotonic()
        with pytest.raises(KeyboardInterrupt), alarm(0.5, KeyboardInterrupt):
            grid_search(baseline_cfg, spec)
        assert time.monotonic() - start < 10

    def test_six_points_serial_and_default_workers(self, baseline_cfg, weather, cpus):
        # the results, errors included, as the per-step recording sweep
        # gave them; sealed chambers (V_vent 0) overheat past the air table
        spec = make_spec(weather, (("airflow.V_a", (1.0, 3.0)),
                                   ("airflow.V_vent", (0.0, 0.1, 0.9))),
                         horizon_s=60 * 3600.0)
        expected = [
            ((3.0, 0.1), 12.228191167915623, None),
            ((1.0, 0.1), 12.530132352478116, None),
            ((3.0, 0.9), 37.96502934029773, None),
            ((1.0, 0.9), 58.291175233914394, None),
            ((1.0, 0.0), math.inf, "step 697 (t=41820.0 s): air temperature "
                                   "360.0443910555005 K above upper bound 360.0 K"),
            ((3.0, 0.0), math.inf, "step 660 (t=39600.0 s): air temperature "
                                   "360.09498869173376 K above upper bound 360.0 K"),
        ]
        default = grid_search(baseline_cfg, spec)
        cpus(1)
        serial = grid_search(baseline_cfg, spec)
        assert serial == [
            SweepResult(point=(("airflow.V_a", V_a), ("airflow.V_vent", V_vent)),
                        objective=objective, error=error)
            for (V_a, V_vent), objective, error in expected
        ]
        assert default == serial

    def test_forcing_built_once_per_dt(self, baseline_cfg, weather, monkeypatch, cpus):
        built = []
        original = greendry.sweep.weather_forcing

        def counted(weather, dt, horizon_s):
            built.append(dt)
            return original(weather, dt, horizon_s)

        monkeypatch.setattr(greendry.sweep, "weather_forcing", counted)
        spec = SweepSpec(parameters=(("numerics.dt", (60.0, 120.0)),
                                     ("product.F_p", (0.4, 0.5, 0.6))),
                         objective="drying_time", target_mdb=0.45,
                         weather=weather, horizon_s=12 * 3600.0)
        cpus(1)
        results = grid_search(baseline_cfg, spec)
        assert built == [60.0, 120.0]
        for r in results:
            cfg = apply_overrides(baseline_cfg, dict(r.point))
            assert r.reached
            assert r.objective == drying_time_objective(cfg, weather, 0.45,
                                                        12 * 3600.0)

    @pytest.mark.parametrize("dt, n", [(1e6, "0"), (1e-3, "1.296e+08")])
    def test_dt_out_of_step_range_aborts_the_sweep(self, baseline_cfg, weather,
                                                   monkeypatch, cpus, dt, n):
        # every dt of the grid is checked before any point is simulated
        monkeypatch.setattr(greendry.sweep, "steps", None)
        spec = make_spec(weather, (("numerics.dt", (60.0, dt)),
                                   ("product.F_p", (0.4, 0.5))), horizon_s=1.5 * 86400.0)
        cpus(1)
        with pytest.raises(ConfigError) as exc:
            grid_search(baseline_cfg, spec)
        assert str(exc.value) == (f"numerics.dt: dt = {dt} s over a horizon of "
                                  f"129600.0 s makes {n} steps; a run takes 1 to 1000000")

    def test_weather_too_short_aborts_the_sweep(self, weather):
        # the spec is checked before any point is simulated
        with pytest.raises(ConfigError, match="horizon_h: weather series ends at"):
            make_spec(weather, (("product.F_p", (0.4, 0.5)),), horizon_s=7 * 86400.0)

    def test_failing_point_ranks_last_with_reason(self, baseline_cfg, weather, cpus):
        # an infinite-capacity product makes the step-1 product row non-finite
        spec = make_spec(weather, (("product.C_pp", (1e308, 1700.0)),))
        cpus(1)
        serial = grid_search(baseline_cfg, spec)
        first, last = serial
        assert first.point == (("product.C_pp", 1700.0),)
        assert first.reached and first.error is None
        assert last.point == (("product.C_pp", 1e308),)
        assert not last.reached and last.objective == math.inf
        assert "step 1 (t=60.0 s)" in last.error
        cpus(2)
        assert grid_search(baseline_cfg, spec) == serial

    def test_invalid_override_raises_the_same_error_in_parallel(
            self, baseline_cfg, weather, cpus):
        spec = make_spec(weather, (("airflow.V_a", (1.0, -1.0)),))
        errors = []
        for n in (1, 2):
            cpus(n)
            with pytest.raises(ConfigError) as info:
                grid_search(baseline_cfg, spec)
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]

    def test_fewer_points_than_workers(self, baseline_cfg, weather, cpus):
        spec = make_spec(weather, (("product.F_p", (0.4, 0.5)),), horizon_s=6 * 3600.0)
        cpus(8)
        parallel = grid_search(baseline_cfg, spec)
        cpus(1)
        assert parallel == grid_search(baseline_cfg, spec)

    def test_grid_cap(self, weather):
        values = tuple(0.01 * i for i in range(1, 101))
        assert make_spec(weather, (("airflow.V_vent", values),
                                   ("product.F_p", values))).grid_size == GRID_CAP
        with pytest.raises(ConfigError, match="parameters make 10100 points, more than 10000"):
            make_spec(weather, (("airflow.V_vent", values + (1.5,)),
                                ("product.F_p", values)))

    def test_payback_objective(self, baseline_cfg, weather):
        eco = EconomicModel(capital=11500.0, operating_cost=1000.0,
                            batch_kg_dry=25.0, annual_operating_hours=4000.0,
                            unit_premium=24.0)
        spec = make_spec(weather, (("airflow.V_vent", (0.9,)),),
                         objective="payback", economics=eco)
        results = grid_search(baseline_cfg, spec)
        assert results[0].reached
        assert 0.0 < results[0].objective < 100.0

    @pytest.mark.parametrize("operating_cost, n_paid_back", [(60000.0, 1), (1e9, 0)])
    def test_no_payback_point_ranks_last_with_reason(self, baseline_cfg, weather, cpus,
                                                     operating_cost, n_paid_back):
        # the slow point's production does not cover the operating cost
        eco = EconomicModel(capital=11500.0, operating_cost=operating_cost,
                            batch_kg_dry=25.0, annual_operating_hours=4000.0,
                            unit_premium=24.0)
        spec = make_spec(weather, (("airflow.V_vent", (0.9, 0.5)),),
                         objective="payback", economics=eco)
        cpus(1)
        results = grid_search(baseline_cfg, spec)
        assert [r.reached for r in results] == [True] * n_paid_back + [False] * (2 - n_paid_back)
        assert results[-1].point == (("airflow.V_vent", 0.9),)
        for r in results[n_paid_back:]:
            assert r.objective == math.inf
            assert r.error.startswith("no payback: annual net benefit -")
        cpus(2)
        assert grid_search(baseline_cfg, spec) == results

    def test_dry_already_payback_point_fails_naming_both_values(self, baseline_cfg,
                                                               weather, cpus):
        # M_0 0.08 is at the target: it dries in 0 h, which pays back nothing
        eco = EconomicModel(capital=11500.0, operating_cost=1000.0,
                            batch_kg_dry=25.0, annual_operating_hours=4000.0,
                            unit_premium=24.0)
        spec = make_spec(weather, (("product.M_0_pct", (8.0, 52.2)),),
                         objective="payback", economics=eco)
        cpus(1)
        results = grid_search(baseline_cfg, spec)
        assert [r.point for r in results] == [(("product.M_0_pct", 52.2),),
                                              (("product.M_0_pct", 8.0),)]
        assert results[0].reached and results[0].error is None
        assert not results[1].reached
        assert results[1].error == ("no payback: target_mdb 0.08 is at or above "
                                    "the initial moisture 0.08")
        # the same point of a drying-time sweep is reached, in 0 h
        spec = make_spec(weather, (("product.M_0_pct", (8.0,)),))
        assert grid_search(baseline_cfg, spec) == [
            SweepResult((("product.M_0_pct", 8.0),), 0.0)]

    def test_payback_without_economics_rejected(self, weather):
        with pytest.raises(ConfigError):
            make_spec(weather, (("airflow.V_vent", (0.9,)),), objective="payback")


class TestSpecFile:
    def test_load_round_trip(self, tmp_path, weather):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "parameters:\n"
            "  airflow.V_vent: [0.8, 1.0]\n"
            "  product.F_p: [0.4, 0.5]\n"
            "objective: drying_time\n"
            "target_mdb: 0.08\n"
            "horizon_h: 120\n"
        )
        spec = load_sweep_spec(path, weather)
        assert spec.grid_size == 4
        assert spec.horizon_s == 120 * 3600.0

    @pytest.mark.parametrize("text, message", [
        ("parameters: {airflow.V_a: [abc]}\n",
         "parameters.airflow.V_a must be numeric, got 'abc'"),
        ("parameters: {airflow.V_a: [~]}\n",
         "parameters.airflow.V_a must be numeric, got None"),
        ("parameters: {airflow.V_a: [true]}\n",
         "parameters.airflow.V_a must be numeric, got True"),
        ("parameters: {airflow.V_a: [1.0]}\ntarget_mdb: abc\n",
         "target_mdb must be numeric, got 'abc'"),
        ("parameters: {airflow.V_a: [1.0]}\nhorizon_h: ~\n",
         "horizon_h must be numeric, got None"),
        ("parameters: {airflow.V_a: [1.0]}\nmax_points: 2.5\n",
         "unknown keys in the sweep spec: ['max_points']"),
        ("parameters: {airflow.V_a: [.nan]}\n",
         "parameters.airflow.V_a must be finite, got nan"),
        ("parameters: {airflow.V_a: [1.0]}\ntarget_mdb: .nan\n",
         "target_mdb must be finite, got nan"),
        ("parameters: {airflow.V_a: [1.0]}\ntarget_mdb: .inf\n",
         "target_mdb must be finite, got inf"),
        ("parameters: {airflow.V_a: [1.0]}\nhorizon_h: .nan\n",
         "horizon_h must be finite, got nan"),
        ("parameters: {airflow.V_a: [1.0]}\nhorizon_h: -1\n",
         "horizon_h: horizon must be >= 0 s, got -3600.0 s"),
        ("parameters: {airflow.V_a: [1.0]}\nhorizon_h: 145\n",
         "horizon_h: weather series ends at 518400.0 s but the run needs 522000.0 s"),
        ("parameters: {airflow.V_a: [1.0]}\nobjective: payback\neconomics:\n"
         "  capital: -1.0\n  operating_cost: 1.0\n  batch_kg_dry: 1.0\n"
         "  annual_operating_hours: 1.0\n  unit_premium: 1.0\n",
         "economics.capital must be > 0, got -1.0"),
        ("parameters: {airflow.V_a: [1.0]}\neconomics:\n"
         "  capital: 1.0\n  operating_cost: .inf\n",
         "economics.operating_cost must be finite, got inf"),
        ("parameters: [airflow.V_a]\n", "'parameters' must be a mapping"),
        ("parameters: {airflow.V_a: 1.0}\n", "values for 'airflow.V_a' must be a list"),
        ("parameters: {airflow.V_a: []}\n",
         "sweep needs >= 1 parameter with >= 1 value each"),
        ("parameters: {airflow.V_a: [1.0]}\nobjective: ~\n", "unknown objective None"),
        ("parameters: {airflow.V_a: [1.0]}\nobjectve: payback\n",
         "unknown keys in the sweep spec: ['objectve']"),
        ("parameters: {airflow.V_a: [1.0]}\nobjective: payback\neconomics:\n"
         "  capital: 1.0\n  operating_cost: 1.0\n  batch_kg_dry: 1.0\n"
         "  annual_operating_hours: 1.0\n  unit_premium: 1.0\n  discount: 0.1\n",
         "unknown keys in economics: ['discount']"),
        ("parameters: {airflow.V_a: [1.0]}\nobjective: payback\neconomics:\n"
         "  capital: 1.0\n", "missing keys in economics: ['operating_cost', 'batch_kg_dry', "
         "'annual_operating_hours', 'unit_premium']"),
        ("parameters: {airflow.V_a: [1.0]}\neconomics: 5\n",
         "economics must be a mapping"),
        ("parameters: {airflow.V_a: [1.0]}\nobjective: fastest\n",
         "unknown objective 'fastest'"),
        ("parameters: {airflow.V_a: [1.0]}\nobjective: payback\n",
         "payback objective needs an economics block"),
    ])
    def test_bad_key_or_value_names_path_and_key(self, tmp_path, weather, text,
                                                 message):
        path = tmp_path / "spec.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError) as exc:
            load_sweep_spec(path, weather)
        assert str(exc.value) == f"{path}: {message}"

    @pytest.mark.parametrize("name", EconomicModel._fields)
    def test_missing_economics_key_named(self, tmp_path, weather, name):
        block = "".join(f"  {key}: 1.0\n" for key in EconomicModel._fields if key != name)
        path = tmp_path / "spec.yaml"
        path.write_text("parameters: {airflow.V_a: [1.0]}\nobjective: payback\n"
                        "economics:\n" + block)
        with pytest.raises(ConfigError) as exc:
            load_sweep_spec(path, weather)
        assert str(exc.value) == f"{path}: missing keys in economics: [{name!r}]"

    def test_non_string_key_beside_unknown_key(self, tmp_path, weather):
        path = tmp_path / "spec.yaml"
        path.write_text("parameters: {airflow.V_a: [1.0]}\n1: 2.0\nbogus: 1.0\n")
        with pytest.raises(ConfigError) as exc:
            load_sweep_spec(path, weather)
        assert str(exc.value) == f"{path}: unknown keys in the sweep spec: ['1', 'bogus']"

    def test_empty_parameters_rejected(self, tmp_path, weather):
        path = tmp_path / "spec.yaml"
        path.write_text("parameters: {}\nobjective: drying_time\n")
        with pytest.raises(ConfigError):
            load_sweep_spec(path, weather)
