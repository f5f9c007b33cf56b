"""Design-space exploration: exhaustive grid evaluation of drying-time or
payback objectives over dotted-path parameter grids."""

from __future__ import annotations

import contextlib
import itertools
import math
import os
from collections.abc import Iterable
from pathlib import Path
from typing import NamedTuple

from .analysis import EconomicInputs, payback_period
from .config import DryerConfig, apply_overrides, check_keys, number, read_record, read_yaml
from .errors import ConfigError, EconomicsError, SimulationError, WeatherError
from .solver import Forcing, step_count, steps, weather_forcing
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
    """One grid point's result, from its already overridden config, whose
    dt's step count grid_search checked.  A point whose simulation fails,
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
    except (SimulationError, EconomicsError) as exc:
        return SweepResult(point, math.inf, str(exc))


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _forked(cfgs: list[DryerConfig], spec: SweepSpec,
            points: list[tuple[tuple[str, float], ...]],
            workers: int) -> list[SweepResult]:
    """The result of each point, in grid order, from workers forked child
    processes, which inherit cfgs, points and spec.  The parent writes
    every point's index to one pipe, 4 bytes each; each child reads the
    next index whenever it is free, evaluates that point with its own
    per-dt forcings and, at the pipe's end, sends the pickled (True,
    [(index, result), ...]), or (False, the exception that stopped it),
    over a pipe of its own, and ends in os._exit.  The parent only waits.
    It re-raises a child's exception, raises a SimulationError for a
    child that ends with no result and one naming the cause when os.pipe
    or os.fork fails (`cannot start sweep worker: ...`), and kills and
    reaps every child it forked before it returns or raises."""
    # Imported here so that importing the CLI does not pay for them.
    import pickle
    import signal

    def start(call):  # os.pipe or os.fork
        try:
            return call()
        except OSError as exc:
            raise SimulationError(f"cannot start sweep worker: {exc}") from exc

    results = [None] * len(points)
    children = {}  # pid -> the read end of its results pipe
    with contextlib.ExitStack() as pipes:
        def pipe():  # unbuffered: a read or write is one system call
            return [pipes.enter_context(open(fd, mode, buffering=0))
                    for fd, mode in zip(start(os.pipe), ("rb", "wb"))]

        index_r, index_w = pipe()
        try:
            for _ in range(workers):
                result_r, result_w = pipe()
                pid = start(os.fork)
                if pid == 0:  # the child: it leaves this block only by os._exit
                    status = 1
                    try:
                        index_w.close()
                        forcings, done = {}, []
                        try:
                            while index := index_r.read(4):
                                i = int.from_bytes(index, "little")
                                done.append((i, _evaluate(cfgs[i], spec, points[i],
                                                          forcings)))
                            payload = pickle.dumps((True, done))
                        except BaseException as exc:  # the parent raises it
                            payload = pickle.dumps((False, exc))
                        with open(result_w.fileno(), "wb", closefd=False) as fh:
                            fh.write(payload)
                        status = 0
                    finally:
                        os._exit(status)
                children[pid] = result_r
                result_w.close()
            # so that the children's reads end once every index is taken,
            # and a write fails rather than blocks once every child has ended
            index_r.close()
            indices = b"".join(i.to_bytes(4, "little") for i in range(len(points)))
            with contextlib.suppress(BrokenPipeError):  # every child ended: see below
                # a write of at most 512 bytes (PIPE_BUF or less) is never
                # split, so each read of 4 bytes takes one whole index
                for start in range(0, len(indices), 512):
                    index_w.write(indices[start:start + 512])
            index_w.close()
            for pid, result_r in list(children.items()):
                payload = result_r.read()
                status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                del children[pid]
                if status != 0:
                    how = f"signal {-status}" if status < 0 else f"exit status {status}"
                    raise SimulationError(f"sweep worker {pid} ended by {how} "
                                          "before it sent its results")
                ok, value = pickle.loads(payload)
                if not ok:
                    raise value
                for i, result in value:
                    results[i] = result
        finally:
            for pid in children:
                os.kill(pid, signal.SIGKILL)
            for pid in children:
                os.waitpid(pid, 0)
    return results


def grid_search(base: DryerConfig, spec: SweepSpec) -> list[SweepResult]:
    """Evaluate every grid point and return results sorted ascending by
    objective, ties broken by the point's parameter values in spec order.
    A point that fails ranks as not reached, with its error.

    Points are simulated in one forked worker process per available CPU,
    at most one per point, which take the points in grid order as they
    become free (see _forked); with one CPU, one point or no os.fork,
    in this process, with the same results.  Every point's overrides, and
    each dt's step count, are checked here first: an invalid one raises a
    ConfigError before any point is simulated.  Any other error a worker
    raises is raised here, and a worker that cannot start, or that dies,
    such as by a signal, raises a SimulationError; no worker is left
    running either way."""
    paths = [p for p, _ in spec.parameters]
    points = [
        tuple(zip(paths, combo))
        for combo in itertools.product(*(vals for _, vals in spec.parameters))
    ]
    cfgs = [apply_overrides(base, dict(pt)) for pt in points]
    for dt in dict.fromkeys(cfg.numerics.dt for cfg in cfgs):
        try:
            step_count(spec.weather, dt, spec.horizon_s)
        except WeatherError as exc:
            raise ConfigError(f"numerics.dt: {exc}") from None
    workers = min(available_cpus(), len(points))
    if workers == 1 or not hasattr(os, "fork"):
        forcings = {}
        results = [_evaluate(cfg, spec, pt, forcings) for cfg, pt in zip(cfgs, points)]
    else:
        results = _forked(cfgs, spec, points, workers)
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
