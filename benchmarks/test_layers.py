"""pytest-benchmark cases for the per-step layers and a 4-day simulate.

    PYTHONPATH=src python -m pytest benchmarks -q --benchmark-json=OUT.json

Every case runs on the baseline config (configs/baseline_copra.yaml) under
the synthetic tropical weather, from the state the baseline run reaches
after SPINUP_STEPS steps (late morning of day 1: drying, sun on the cover),
so each layer sees the inputs a real step gives it.  Not part of the
test suite: pyproject's testpaths is tests/.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from greendry import load_config, simulate, synthetic_days
from greendry.coefficients import assemble_coefficients
from greendry.core import air_properties
from greendry.solver import (
    LinearSystem,
    air_balance,
    cover_balance,
    eliminate,
    floor_balance,
    gauss_jordan,
    product_balance,
    step,
)
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
def case(cfg, weather):
    """(state, weather record at the end of the next step)"""
    dt = cfg.numerics.dt
    state = simulate(cfg, weather, horizon_s=SPINUP_STEPS * dt).states[-1]
    return state, sample(weather, state.t + dt)


@pytest.fixture(scope="module")
def system(cfg, case):
    """The 4x4 energy system of the next step, as step assembles it."""
    state, w = case
    dt = cfg.numerics.dt
    air = air_properties(state.T_a)
    coeffs = assemble_coefficients(state, w, cfg, air)
    rows = (
        cover_balance(state, coeffs, w, cfg, dt),
        air_balance(state, coeffs, w, cfg, 0.0, dt, air, air.rho * cfg.geometry.V),
        product_balance(state, coeffs, w, cfg, 0.0, dt),
        floor_balance(state, coeffs, w, cfg),
    )
    return [row for row, _ in rows], [rhs for _, rhs in rows]


def test_step(benchmark, cfg, case):
    state, w = case
    new, _ = benchmark(step, state, w, cfg)
    assert new.t == state.t + cfg.numerics.dt


def test_gauss_jordan(benchmark, system):
    A, b = system
    x = benchmark(lambda: gauss_jordan(LinearSystem(A=A, b=b)))
    assert len(x) == 4


def test_eliminate(benchmark, system):
    A, b = system
    assert benchmark(eliminate, A, b) == gauss_jordan(LinearSystem(A=A, b=b))


def test_assemble_coefficients(benchmark, cfg, case):
    state, w = case
    air = air_properties(state.T_a)
    coeffs = benchmark(assemble_coefficients, state, w, cfg, air)
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
