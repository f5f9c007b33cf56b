"""pytest-benchmark cases for the per-step layers, a 4-day simulate and a
6-point sweep.

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=OUT.json

Every case runs on the baseline config (configs/baseline_copra.yaml) under
the synthetic tropical weather, from the state the baseline run reaches
after SPINUP_STEPS steps (late morning of day 1: drying, sun on the cover),
so each layer sees the inputs a real step gives it.  Not part of the
test suite: pyproject's testpaths is tests/ (tests/test_benchmarks.py runs
these cases once, untimed, so that they keep working).
"""

from __future__ import annotations

from pathlib import Path

import pytest

from greendry import load_config, simulate, synthetic_days
from greendry.coefficients import assemble_coefficients
from greendry.core import air_properties, relative_humidity
from greendry.solver import (
    LinearSystem,
    _kinetics_update,
    eliminate,
    energy_system,
    gauss_jordan,
    step,
    step_constants,
)
from greendry.sweep import SweepSpec, grid_search
from greendry.weather import sample

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "baseline_copra.yaml"
SPINUP_STEPS = 660  # 11 h at dt = 60 s


@pytest.fixture(scope="module")
def cfg():
    return load_config(CONFIG)


@pytest.fixture(scope="module")
def weather():
    return synthetic_days(4)


@pytest.fixture(scope="module")
def k(cfg):
    return step_constants(cfg)


@pytest.fixture(scope="module")
def case(cfg, weather):
    """(state, weather record at the end of the next step)"""
    dt = cfg.numerics.dt
    state = simulate(cfg, weather, horizon_s=SPINUP_STEPS * dt).states[-1]
    return state, sample(weather, state.t + dt)


@pytest.fixture(scope="module")
def inputs(k, case):
    """(air properties, coefficients, dM/dt) of the next step, as step
    computes them."""
    state, w = case
    rh, _ = relative_humidity(state.H, state.T_a, k.P)
    M_new = _kinetics_update(state, k, rh)[0]
    air = air_properties(state.T_a)
    coeffs = assemble_coefficients(state, w, k, air)
    return air, coeffs, (M_new - state.M_p) / k.dt


@pytest.fixture(scope="module")
def system(k, case, inputs):
    """The 4x4 energy system of the next step, as step assembles it."""
    state, w = case
    air, coeffs, dmdt = inputs
    return energy_system(state, coeffs, w, k, dmdt, air)


def test_step(benchmark, k, cfg, case):
    state, w = case
    new, _ = benchmark(step, state, w, cfg, k)
    assert new.t == state.t + k.dt


def test_step_constants(benchmark, cfg, k):
    assert benchmark(step_constants, cfg) == k


def test_kinetics_update(benchmark, k, case):
    state, _ = case
    rh, _ = relative_humidity(state.H, state.T_a, k.P)
    M_new = benchmark(_kinetics_update, state, k, rh)[0]
    assert M_new < state.M_p  # drying


def test_energy_system(benchmark, k, case, inputs, system):
    state, w = case
    air, coeffs, dmdt = inputs
    assert benchmark(energy_system, state, coeffs, w, k, dmdt, air) == system


def test_gauss_jordan(benchmark, system):
    A, b = system
    x = benchmark(lambda: gauss_jordan(LinearSystem(A=A, b=b)))
    assert len(x) == 4


def test_eliminate(benchmark, system):
    A, b = system
    assert benchmark(eliminate, A, b) == gauss_jordan(LinearSystem(A=A, b=b))


def test_assemble_coefficients(benchmark, k, case):
    state, w = case
    air = air_properties(state.T_a)
    coeffs = benchmark(assemble_coefficients, state, w, k, air)
    assert coeffs.h_c > 0


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
    assert len(series) == 5761


def test_grid_search_6(benchmark, cfg, weather):
    # drying time to 0.08 db within 60 h, as the greendry sweep command runs it
    spec = SweepSpec(parameters=(("airflow.V_a", (1.0, 3.0)),
                                 ("product.F_p", (0.3, 0.5, 0.7))),
                     objective="drying_time", target_mdb=0.08,
                     weather=weather, horizon_s=60 * 3600.0)
    results = benchmark.pedantic(grid_search, args=(cfg, spec), rounds=3,
                                 iterations=1, warmup_rounds=1)
    assert len(results) == 6 and results[0].reached
