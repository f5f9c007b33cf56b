import os
from pathlib import Path

import pytest

import greendry.sweep
from greendry import DryerConfig, WeatherRecord, WeatherSeries, load_config, synthetic_days

REPO_ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = REPO_ROOT / "configs"


@pytest.fixture(scope="session")
def baseline_config_path():
    return CONFIG_DIR / "baseline_copra.yaml"


@pytest.fixture(scope="session")
def baseline_cfg(baseline_config_path):
    return load_config(baseline_config_path)


@pytest.fixture(scope="session")
def tropical_weather():
    return synthetic_days(4)


@pytest.fixture()
def cpus(monkeypatch):
    """cpus(n) makes grid_search and `greendry run` (sweep.forked_steps)
    see n available CPUs: with one, the points are simulated, or the run
    stepped, in this process; with more, in forked worker processes."""
    def set_cpus(n):
        monkeypatch.setattr(greendry.sweep, "available_cpus", lambda: n)
    return set_cpus


def in_workers(monkeypatch, act):
    """Make grid_search's _evaluate call act(point) first in a forked
    worker (never in this process), then evaluate the point."""
    parent, evaluate = os.getpid(), greendry.sweep._evaluate

    def acting(cfg, spec, point, forcings):
        if os.getpid() != parent:
            act(point)
        return evaluate(cfg, spec, point, forcings)

    monkeypatch.setattr(greendry.sweep, "_evaluate", acting)


def records_of(series):
    """The records of a weather series: row i of its times and columns, as
    a WeatherRecord."""
    return tuple(map(WeatherRecord._make, zip(series.times, *series.columns)))


def series_of(records, **kwargs):
    """The WeatherSeries of records, WeatherRecords in time order."""
    return WeatherSeries(*zip(*records), **kwargs)


def unchecked(cfg, assignments):
    """cfg with the values of assignments set, by dotted path as in
    apply_overrides, built without DryerConfig's checks: a config no file
    can give (a NaN, an inf, H_in < 0), to see what a step does with it."""
    sections = cfg._asdict()
    for path, value in assignments.items():
        section, name = path.split(".")
        sections[section] = sections[section]._replace(**{name: value})
    return tuple.__new__(DryerConfig, sections.values())
