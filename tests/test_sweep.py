import math

import pytest

from greendry.config import apply_overrides
from greendry.errors import ConfigError, GridSizeError
from greendry.sweep import (
    EconomicModel,
    SweepSpec,
    drying_time_objective,
    grid_search,
    load_sweep_spec,
)
from greendry.weather import synthetic_days


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

    def test_interpolated_between_steps(self, baseline_cfg, weather):
        hours = drying_time_objective(baseline_cfg, weather, 0.08)
        # crossing is interpolated, so not an exact multiple of dt
        assert hours * 3600.0 % baseline_cfg.numerics.dt != 0.0


class TestGridSearch:
    def test_singleton(self, baseline_cfg, weather):
        spec = make_spec(weather, (("airflow.V_in", (0.9,)),))
        results = grid_search(baseline_cfg, spec)
        assert len(results) == 1
        assert results[0].point == (("airflow.V_in", 0.9),)

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
        # floor conductivity k_f does not enter the lumped model at all
        spec = make_spec(weather, (("floor.k_f", (2.0, 1.0)),))
        results = grid_search(baseline_cfg, spec)
        assert results[0].objective == results[1].objective
        assert results[0].point == (("floor.k_f", 1.0),)

    def test_serial_equals_parallel(self, baseline_cfg, weather):
        spec = make_spec(weather, (("airflow.V_a", (1.2, 1.5)),
                                   ("product.F_p", (0.4, 0.5))))
        serial = grid_search(baseline_cfg, spec, workers=1)
        parallel = grid_search(baseline_cfg, spec, workers=4)
        assert serial == parallel

    def test_failing_point_ranks_last_with_reason(self, baseline_cfg, weather):
        # V_in = 0.3 != V_out drives the chamber air below the table at step 1
        spec = make_spec(weather, (("airflow.V_in", (0.3, 0.9)),))
        first, last = grid_search(baseline_cfg, spec)
        assert first.point == (("airflow.V_in", 0.9),)
        assert first.reached and first.error is None
        assert last.point == (("airflow.V_in", 0.3),)
        assert not last.reached and last.objective == math.inf
        assert "step 1 (t=60.0 s)" in last.error

    def test_grid_cap(self, baseline_cfg, weather):
        spec = make_spec(weather, (("airflow.V_in", tuple(0.1 * i for i in range(1, 7))),),
                         grid_cap=5)
        with pytest.raises(GridSizeError):
            grid_search(baseline_cfg, spec)

    def test_payback_objective(self, baseline_cfg, weather):
        eco = EconomicModel(capital=11500.0, operating_cost=1000.0,
                            batch_kg_dry=25.0, annual_operating_hours=4000.0,
                            unit_premium=24.0)
        spec = make_spec(weather, (("airflow.V_in", (0.9,)),),
                         objective="payback", economics=eco)
        results = grid_search(baseline_cfg, spec)
        assert results[0].reached
        assert 0.0 < results[0].objective < 100.0

    def test_payback_without_economics_rejected(self, weather):
        with pytest.raises(ConfigError):
            make_spec(weather, (("airflow.V_in", (0.9,)),), objective="payback")


class TestSpecFile:
    def test_load_round_trip(self, tmp_path, weather):
        path = tmp_path / "spec.yaml"
        path.write_text(
            "parameters:\n"
            "  airflow.V_in: [0.8, 1.0]\n"
            "  product.F_p: [0.4, 0.5]\n"
            "objective: drying_time\n"
            "target_mdb: 0.08\n"
            "horizon_h: 120\n"
            "max_points: 100\n"
        )
        spec = load_sweep_spec(path, weather)
        assert spec.grid_size == 4
        assert spec.horizon_s == 120 * 3600.0

    def test_empty_parameters_rejected(self, tmp_path, weather):
        path = tmp_path / "spec.yaml"
        path.write_text("parameters: {}\nobjective: drying_time\n")
        with pytest.raises(ConfigError):
            load_sweep_spec(path, weather)
