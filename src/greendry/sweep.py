"""Design-space exploration: exhaustive grid evaluation of drying-time or
payback objectives over dotted-path parameter grids."""

from __future__ import annotations

import itertools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .analysis import EconomicInputs, payback_period
from .config import DryerConfig, apply_overrides
from .errors import ConfigError, GridSizeError, SimulationError
from .solver import simulate
from .weather import WeatherSeries

DEFAULT_GRID_CAP = 10_000


@dataclass(frozen=True)
class EconomicModel:
    """Ties payback to simulated drying time: annual production is one
    batch's dry mass times the annual operating hours over the drying time."""

    capital: float
    operating_cost: float
    batch_kg_dry: float
    annual_operating_hours: float
    unit_premium: float


@dataclass(frozen=True)
class SweepSpec:
    parameters: tuple[tuple[str, tuple[float, ...]], ...]  # (dotted path, values)
    objective: str                    # "drying_time" | "payback"
    target_mdb: float                 # decimal dry basis
    weather: WeatherSeries
    horizon_s: float | None = None
    economics: EconomicModel | None = None
    grid_cap: int = DEFAULT_GRID_CAP

    def __post_init__(self):
        if not self.parameters or any(not vals for _, vals in self.parameters):
            raise ConfigError("sweep needs >= 1 parameter with >= 1 value each")
        if self.objective not in ("drying_time", "payback"):
            raise ConfigError(f"unknown objective {self.objective!r}")
        if self.objective == "payback" and self.economics is None:
            raise ConfigError("payback objective needs an economics block")

    @property
    def grid_size(self) -> int:
        n = 1
        for _, vals in self.parameters:
            n *= len(vals)
        return n


@dataclass(frozen=True)
class SweepResult:
    point: tuple[tuple[str, float], ...]  # (path, value) in spec order
    objective: float                      # hours or years; inf = not reached
    reached: bool
    error: str | None = None              # why the point's simulation failed


def drying_time_objective(
    cfg: DryerConfig,
    weather: WeatherSeries,
    target_mdb: float,
    horizon_s: float | None = None,
) -> float | None:
    """Hours until product moisture first reaches the target, linearly
    interpolated between steps; None when the horizon ends first."""
    if target_mdb >= cfg.M_0:
        return 0.0
    series = simulate(cfg, weather, horizon_s=horizon_s, target_mdb=target_mdb)
    states = series.states
    t0 = states[0].t
    for prev, cur in zip(states, states[1:]):
        if cur.M_p <= target_mdb:
            if prev.M_p == cur.M_p:
                t_hit = cur.t
            else:
                f = (prev.M_p - target_mdb) / (prev.M_p - cur.M_p)
                t_hit = prev.t + f * (cur.t - prev.t)
            return (t_hit - t0) / 3600.0
    return None


def _evaluate(base: DryerConfig, spec: SweepSpec,
              point: tuple[tuple[str, float], ...]) -> SweepResult:
    """One grid point's result.  A point whose simulation fails is not
    reached and carries the reason; other errors abort the sweep."""
    cfg = apply_overrides(base, dict(point))
    try:
        hours = drying_time_objective(cfg, spec.weather, spec.target_mdb,
                                      spec.horizon_s)
    except SimulationError as exc:
        return SweepResult(point=point, objective=math.inf, reached=False,
                           error=str(exc))
    if hours is None:
        return SweepResult(point=point, objective=math.inf, reached=False)
    if spec.objective == "drying_time":
        return SweepResult(point=point, objective=hours, reached=True)
    eco = spec.economics
    if hours == 0.0:
        return SweepResult(point=point, objective=math.inf, reached=False)
    production = eco.batch_kg_dry * eco.annual_operating_hours / hours
    years = payback_period(EconomicInputs(
        capital=eco.capital, operating_cost=eco.operating_cost,
        annual_production=production, unit_premium=eco.unit_premium,
    ))
    return SweepResult(point=point, objective=years, reached=True)


def grid_search(base: DryerConfig, spec: SweepSpec,
                workers: int = 1) -> list[SweepResult]:
    """Evaluate every grid point and return results sorted ascending by
    objective, ties broken by the point's parameter values in spec order.
    A point whose simulation fails ranks as not reached, with its error.
    Deterministic and identical under serial or parallel evaluation."""
    n = spec.grid_size
    if n > spec.grid_cap:
        raise GridSizeError(f"grid has {n} points, cap is {spec.grid_cap}")
    paths = [p for p, _ in spec.parameters]
    points = [
        tuple(zip(paths, combo))
        for combo in itertools.product(*(vals for _, vals in spec.parameters))
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(lambda pt: _evaluate(base, spec, pt), points))
    else:
        results = [_evaluate(base, spec, pt) for pt in points]
    return sorted(results, key=lambda r: (r.objective, [v for _, v in r.point]))


def load_sweep_spec(path, weather: WeatherSeries) -> SweepSpec:
    """Read a sweep spec YAML: parameters (dotted path -> value list),
    objective, target_mdb, optional horizon_h, economics and max_points."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"sweep spec not found: {path}")
    try:
        data = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: sweep spec root must be a mapping")
    params_raw = data.get("parameters")
    if not isinstance(params_raw, dict) or not params_raw:
        raise ConfigError(f"{path}: 'parameters' must be a non-empty mapping")
    parameters = []
    for dotted, values in params_raw.items():
        if not isinstance(values, (list, tuple)) or not values:
            raise ConfigError(f"{path}: values for {dotted!r} must be a non-empty list")
        parameters.append((str(dotted), tuple(float(v) for v in values)))
    economics = None
    if "economics" in data:
        eco = data["economics"]
        try:
            economics = EconomicModel(
                capital=float(eco["capital"]),
                operating_cost=float(eco["operating_cost"]),
                batch_kg_dry=float(eco["batch_kg_dry"]),
                annual_operating_hours=float(eco["annual_operating_hours"]),
                unit_premium=float(eco["unit_premium"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{path}: bad economics block: {exc}") from None
    horizon_h = data.get("horizon_h")
    return SweepSpec(
        parameters=tuple(parameters),
        objective=str(data.get("objective", "drying_time")),
        target_mdb=float(data.get("target_mdb", 0.08)),
        weather=weather,
        horizon_s=None if horizon_h is None else float(horizon_h) * 3600.0,
        economics=economics,
        grid_cap=int(data.get("max_points", DEFAULT_GRID_CAP)),
    )
