"""Solar greenhouse tunnel drier simulation engine.

Coupled cover/air/product/floor energy balances with thin-layer drying
kinetics, integrated implicitly over measured or synthetic weather, plus
validation metrics, payback economics and design-space sweeps.

Importing the package loads none of its modules.  Each submodule
(`greendry.solver`) and each name one exports (`greendry.simulate`, the
module of each in _EXPORTED) is imported on its first access, through the
module `__getattr__` below, so that a command loads only the modules it
runs: `greendry validate` loads `analysis`, `errors` and `tables`;
`gen-weather` adds `weather`, `core` and `writers`; `run` and `sweep`
add `config`, `solver`, `sweep`, `kinetics` and `coefficients` (see
`cli`).
"""

import importlib

__version__ = "0.1.0"

# each exported name, and the submodule that defines it
_EXPORTED = {
    "EconomicInputs": "analysis", "ErrorReport": "analysis",
    "acceptance_check": "analysis", "payback_period": "analysis",
    "percent_difference": "analysis",
    "DryerConfig": "config", "apply_overrides": "config", "load_config": "config",
    "AirProps": "core", "SimState": "core", "WeatherRecord": "core",
    "air_properties": "core", "humidity_ratio": "core", "relative_humidity": "core",
    "saturation_pressure": "core",
    "SimSeries": "solver", "simulate": "solver", "step": "solver",
    "SweepSpec": "sweep", "drying_time_objective": "sweep", "grid_search": "sweep",
    "WeatherSeries": "weather", "load_csv": "weather", "sample": "weather",
    "synthetic_days": "weather",
}

__all__ = sorted(_EXPORTED)

# every submodule but cli, the entry point, which is imported by name
_SUBMODULES = ("analysis", "coefficients", "config", "core", "errors", "kinetics",
               "solver", "sweep", "tables", "weather", "writers")


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


def __dir__():
    """The names bound here and every exported name, bound or not yet."""
    return sorted({*globals(), *__all__})
