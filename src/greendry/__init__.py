"""Solar greenhouse tunnel drier simulation engine.

Coupled cover/air/product/floor energy balances with thin-layer drying
kinetics, integrated implicitly over measured or synthetic weather, plus
validation metrics, payback economics and design-space sweeps.

`config`, `solver` and `sweep`, with `kinetics` and `coefficients` under
them, are imported on first access, as a submodule (`greendry.solver`) or
as a name one exports (`greendry.simulate`), through the module
`__getattr__` below: importing the package, as every command does, loads
only what all four commands use.
"""

import importlib

__version__ = "0.1.0"

from .analysis import (
    EconomicInputs,
    ErrorReport,
    acceptance_check,
    payback_period,
    percent_difference,
)
from .core import (
    AirProps,
    SimState,
    WeatherRecord,
    air_properties,
    humidity_ratio,
    relative_humidity,
    saturation_pressure,
)
from .weather import WeatherSeries, load_csv, sample, synthetic_days

__all__ = [
    "AirProps", "DryerConfig", "EconomicInputs", "ErrorReport", "SimSeries",
    "SimState", "SweepSpec", "WeatherRecord", "WeatherSeries",
    "acceptance_check", "air_properties", "apply_overrides",
    "drying_time_objective", "grid_search", "humidity_ratio", "load_config",
    "load_csv", "payback_period", "percent_difference", "relative_humidity",
    "sample", "saturation_pressure", "simulate", "step", "synthetic_days",
]

_SUBMODULES = ("coefficients", "config", "kinetics", "solver", "sweep")
# the exported names that _SUBMODULES define, and the module of each
_EXPORTED = {
    "DryerConfig": "config", "apply_overrides": "config", "load_config": "config",
    "SimSeries": "solver", "simulate": "solver", "step": "solver",
    "SweepSpec": "sweep", "drying_time_objective": "sweep", "grid_search": "sweep",
}


def __getattr__(name: str):
    """A module of _SUBMODULES, or a name of _EXPORTED, imported now, on
    its first access; an imported submodule becomes an attribute of the
    package as any does, and a name is bound here."""
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(
        f"{__name__}.{_EXPORTED[name]}"), name)
    return value
