"""Design-space exploration: exhaustive grid evaluation of drying-time or
payback objectives over dotted-path parameter grids."""

from __future__ import annotations

import itertools
import math
import os
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

from .analysis import EconomicInputs, payback_period
from .config import DryerConfig, apply_overrides, check_keys, number, read_record, read_yaml
from .errors import ConfigError, EconomicsError, SimulationError, WeatherError
from .solver import Forcing, steps, weather_forcing
from .weather import WeatherSeries

GRID_CAP = 10_000  # the most points a sweep grid may have
SPEC_KEYS = ("parameters", "objective", "target_mdb", "horizon_h", "economics")


class EconomicModel(NamedTuple):
    """Ties payback to simulated drying time: annual production is one
    batch's dry mass times the annual operating hours over the drying time."""

    capital: float
    operating_cost: float
    batch_kg_dry: float
    annual_operating_hours: float
    unit_premium: float


class _SpecFields(NamedTuple):
    parameters: tuple[tuple[str, tuple[float, ...]], ...]  # (dotted path, values)
    objective: str                    # "drying_time" | "payback"
    target_mdb: float                 # decimal dry basis
    weather: WeatherSeries
    horizon_s: float | None = None
    economics: EconomicModel | None = None


class SweepSpec(_SpecFields):
    """A sweep, its facts checked as it is built, by _replace and unpickling
    too; ConfigError names what it rejects (the values are checked by
    load_sweep_spec)."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if not self.parameters or any(not vals for _, vals in self.parameters):
            raise ConfigError("sweep needs >= 1 parameter with >= 1 value each")
        if self.grid_size > GRID_CAP:
            raise ConfigError(f"parameters make {self.grid_size} points, more than {GRID_CAP}")
        if self.objective not in ("drying_time", "payback"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.objective == "payback" and self.economics is None:
            raise ConfigError("payback objective needs an economics block")
        if self.economics is not None and not self.economics.capital > 0:
            raise ConfigError(f"economics.capital must be > 0, got {self.economics.capital}")
        try:
            self.weather.horizon(self.horizon_s)
        except WeatherError as exc:
            raise ConfigError(f"horizon_h: {exc}") from None
        return self

    @classmethod
    def _make(cls, iterable):  # what _replace builds with
        return cls(*iterable)

    @property
    def grid_size(self) -> int:
        return math.prod(len(vals) for _, vals in self.parameters)


class SweepResult(NamedTuple):
    point: tuple[tuple[str, float], ...]  # (path, value) in spec order
    objective: float                      # hours or years; inf = not reached
    error: str | None = None              # why the point failed

    @property
    def reached(self) -> bool:
        return self.objective < math.inf


def drying_time_objective(
    cfg: DryerConfig,
    weather: WeatherSeries,
    target_mdb: float,
    horizon_s: float | None = None,
    forcing: Iterable[Forcing] | None = None,
) -> float | None:
    """Hours until product moisture first reaches the target, linearly
    interpolated between steps; None when the horizon ends first.  It walks
    `steps` (forcing as there), which stops at the target, and keeps only
    the last two states, between which the crossing lies."""
    if target_mdb >= cfg.M_0:
        return 0.0
    run = steps(cfg, weather, horizon_s, forcing, target_mdb)
    prev = cur = first = next(run)[0]
    for state, _ in run:
        prev, cur = cur, state
    if not cur.M_p <= target_mdb:  # the horizon ended first
        return None
    # prev.M_p > target_mdb: prev is the start, at M_0, or a step that did not stop
    f = (prev.M_p - target_mdb) / (prev.M_p - cur.M_p)
    return (prev.t + f * (cur.t - prev.t) - first.t) / 3600.0


def _evaluate(cfg: DryerConfig, spec: SweepSpec,
              point: tuple[tuple[str, float], ...],
              forcings: dict[float, tuple[Forcing, ...]]) -> SweepResult:
    """One grid point's result, from its already overridden config.  A
    point whose simulation fails, whose dt makes a step count out of range,
    or that has no payback, is not reached and carries the reason; other
    errors abort the sweep.  The weather forcing depends only on the
    weather, dt and the horizon, so forcings keeps it per dt, built on
    first use, for the points that follow."""
    dt = cfg.numerics.dt
    try:
        if dt not in forcings:
            forcings[dt] = tuple(weather_forcing(spec.weather, dt, spec.horizon_s))
        hours = drying_time_objective(cfg, spec.weather, spec.target_mdb,
                                      spec.horizon_s, forcings[dt])
        if hours is None:
            return SweepResult(point, math.inf)
        if spec.objective == "drying_time":
            return SweepResult(point, hours)
        if hours == 0.0:  # target_mdb >= M_0
            return SweepResult(point, math.inf, f"no payback: target_mdb {spec.target_mdb}"
                                                f" is at or above the initial moisture {cfg.M_0}")
        eco = spec.economics
        return SweepResult(point, payback_period(EconomicInputs(
            capital=eco.capital, operating_cost=eco.operating_cost,
            annual_production=eco.batch_kg_dry * eco.annual_operating_hours / hours,
            unit_premium=eco.unit_premium)))
    except (SimulationError, EconomicsError, WeatherError) as exc:
        return SweepResult(point, math.inf, str(exc))


# The spec of the sweep a pool worker serves and its weather forcings, set
# once per worker process by _init_worker so that the weather is not sent
# with every point and its forcing is built once per worker.
_worker_spec: SweepSpec | None = None
_worker_forcings: dict[float, tuple[Forcing, ...]] = {}


def _init_worker(spec: SweepSpec) -> None:
    global _worker_spec, _worker_forcings
    _worker_spec = spec
    _worker_forcings = {}


def _evaluate_in_worker(cfg: DryerConfig,
                        point: tuple[tuple[str, float], ...]) -> SweepResult:
    return _evaluate(cfg, _worker_spec, point, _worker_forcings)


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def grid_search(base: DryerConfig, spec: SweepSpec) -> list[SweepResult]:
    """Evaluate every grid point and return results sorted ascending by
    objective, ties broken by the point's parameter values in spec order.
    A point that fails ranks as not reached, with its error.

    Points are simulated in one worker process per available CPU, at
    most one per point; with one CPU or one point, in this process.  Every
    point's overrides are applied here first, so an invalid one raises
    before any point is simulated.  Each point runs the same code either
    way, so the results are identical."""
    paths = [p for p, _ in spec.parameters]
    points = [
        tuple(zip(paths, combo))
        for combo in itertools.product(*(vals for _, vals in spec.parameters))
    ]
    cfgs = [apply_overrides(base, dict(pt)) for pt in points]
    workers = min(available_cpus(), len(points))
    if workers == 1:
        forcings = {}
        results = [_evaluate(cfg, spec, pt, forcings) for cfg, pt in zip(cfgs, points)]
    else:
        # Imported here so that importing the CLI does not pay for them.
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        # fork: workers inherit the imported modules instead of importing
        # them again.  The executor starts every fork-context worker
        # before its own management thread, so it forks none of its own
        # threads.
        method = "fork" if "fork" in multiprocessing.get_all_start_methods() else None
        with ProcessPoolExecutor(max_workers=workers,
                                 mp_context=multiprocessing.get_context(method),
                                 initializer=_init_worker,
                                 initargs=(spec,)) as pool:
            results = list(pool.map(_evaluate_in_worker, cfgs, points))
    return sorted(results, key=lambda r: (r.objective, [v for _, v in r.point]))


def load_sweep_spec(path, weather: WeatherSeries) -> SweepSpec:
    """Read a sweep spec YAML: the SPEC_KEYS parameters (dotted path ->
    value list), objective, target_mdb, optional horizon_h and economics.
    ConfigError `<path>: <reason>`, the reason naming the key, for an
    unknown or missing key (also in economics), a block of the wrong type,
    a value that is not a finite number and what SweepSpec rejects."""
    path = Path(path)
    data = read_yaml(path, "sweep spec")
    try:
        check_keys("the sweep spec", data, SPEC_KEYS)
        params_raw = data.get("parameters")
        if not isinstance(params_raw, dict):
            raise ConfigError("'parameters' must be a mapping")
        parameters = []
        for dotted, values in params_raw.items():
            if not isinstance(values, (list, tuple)):
                raise ConfigError(f"values for {dotted!r} must be a list")
            parameters.append((str(dotted), tuple(number(f"parameters.{dotted}", v)
                                                  for v in values)))
        economics = (read_record(EconomicModel, data["economics"], "economics")
                     if "economics" in data else None)
        target_mdb = number("target_mdb", data.get("target_mdb", 0.08))
        horizon_s = (number("horizon_h", data["horizon_h"]) * 3600.0
                     if "horizon_h" in data else None)
        return SweepSpec(parameters=tuple(parameters),
                         objective=data.get("objective", "drying_time"),
                         target_mdb=target_mdb, weather=weather, horizon_s=horizon_s,
                         economics=economics)
    except ConfigError as exc:  # the checks above name no file
        raise ConfigError(f"{path}: {exc}") from None
