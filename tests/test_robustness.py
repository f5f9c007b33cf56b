"""Every config that DryerConfig accepts either simulates with finite
states or fails with a SimulationError that names the step and its time,
or, where its dt makes no step or more than a run may take, with a
WeatherError that names dt, before the first step."""

import math

from hypothesis import example, given, settings, strategies as st

from greendry.config import apply_overrides
from greendry.errors import ConfigError, SimulationError, WeatherError
from greendry.solver import MAX_STEPS, simulate

from test_config import FIELDS

# Scale factors applied to a baseline value: zero, negative, tiny, huge
# and non-finite ones besides moderate changes.
FACTORS = (0.0, -1.0, -1e300, 1e-300, 1e-6, 0.5, 2.0, 1e6, 1e300,
           math.inf, math.nan)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.sampled_from(FIELDS), st.sampled_from(FACTORS)),
                min_size=1, max_size=3, unique_by=lambda pair: pair[0]))
@example(scaled=[("geometry.V", 1e-300), ("airflow.V_vent", 1e300)])
@example(scaled=[("kinetics.b2", 1e-6)])
@example(scaled=[("numerics.dt", 1e-6)])
@example(scaled=[("numerics.dt", 1e6)])
def test_accepted_config_simulates_or_names_the_step(baseline_cfg, tropical_weather,
                                                     scaled):
    values = baseline_cfg.to_dict()
    overrides = {}
    for path, factor in scaled:
        section, name = path.split(".")
        overrides[path] = values[section][name] * factor
    try:
        cfg = apply_overrides(baseline_cfg, overrides)
    except ConfigError:
        return
    try:
        series = simulate(cfg, tropical_weather, horizon_s=6 * 3600.0)
    except SimulationError as exc:
        assert str(exc).startswith("step "), str(exc)
        return
    except WeatherError as exc:
        # a dt that makes no step, or more than a run may take, errs at once
        n = 6 * 3600.0 / cfg.numerics.dt
        assert not 1.0 <= n <= MAX_STEPS, n
        assert str(exc).startswith(f"dt = {cfg.numerics.dt} s "), str(exc)
        return
    for state in series.states:
        assert all(map(math.isfinite, state)), state
