"""Dryer configuration: one validated bundle of geometry, materials, airflow,
kinetics coefficients and numerics, loadable from YAML with dotted-path
overrides.  number, check_keys and read_record read every number a user
writes, here and in the sweep spec, so each bad one is named alike."""

from __future__ import annotations

import math
from collections import namedtuple
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError


class Geometry(NamedTuple):
    W: float       # floor width, m
    D: float       # average floor-to-cover distance, m
    A_c: float     # cover area, m^2
    A_f: float     # floor area, m^2
    A_p: float     # product area, m^2
    V: float       # chamber volume, m^3


class Cover(NamedTuple):
    C_c: float       # heat capacity, J K^-1
    alpha_c: float   # absorptance
    tau_c: float     # transmittance
    eps_c: float     # emissivity
    U_c: float       # overall loss coefficient to ambient, W m^-2 K^-1


class Floor(NamedTuple):
    alpha_f: float   # absorptance
    h_dfg: float     # floor-to-underground conductance, W m^-2 K^-1
    T_deep: float    # deep-soil temperature, K


class Product(NamedTuple):
    loading: float   # dry loading, kg m^-2; dry mass loading A_p
    C_pp: float      # dry product specific heat, J kg^-1 K^-1
    C_pl: float      # liquid water specific heat, J kg^-1 K^-1
    C_pv: float      # water vapour specific heat, J kg^-1 K^-1
    alpha_p: float   # absorptance
    eps_p: float     # emissivity
    L_p: float       # latent heat of vaporisation, J kg^-1
    M_0_pct: float   # initial moisture, % dry basis
    F_p: float       # fraction of transmitted radiation falling on product


class Airflow(NamedTuple):
    V_vent: float    # ventilation rate, m^3 s^-1, in = out
    V_a: float       # internal air speed, m s^-1
    T_in: float      # inlet air temperature, K
    H_in: float      # inlet humidity ratio, kg/kg


class Kinetics(NamedTuple):
    b0: float        # equilibrium-moisture isotherm coefficients
    b1: float
    b2: float
    # sky temperature coefficient, T_s = c_sky T_am^1.5: the commonly cited
    # 0.0552 lowered to 0.0550, so that T_s < T_am holds everywhere below
    # 330 K (the literal 0.552 gives a sky far hotter than ambient)
    c_sky: float = 0.0550


class Numerics(NamedTuple):
    dt: float = 60.0              # time step, s
    pressure: float = 101325.0    # total pressure, Pa


# Bounds of the values, by dotted path; every value is finite, and one
# listed in none of these sets must be > 0.
_FRACTIONS = {"cover.alpha_c", "cover.tau_c", "cover.eps_c", "floor.alpha_f",
              "product.alpha_p", "product.eps_p", "product.F_p"}
_NONNEGATIVE = {"cover.U_c", "floor.h_dfg", "airflow.V_vent", "airflow.V_a",
                "airflow.H_in"}
_ANY_SIGN = {"kinetics.b0", "kinetics.b1", "kinetics.b2"}  # b2 != 0

# The sections of a config, in order, and the record of each.
_SECTIONS = {
    "geometry": Geometry,
    "cover": Cover,
    "floor": Floor,
    "product": Product,
    "airflow": Airflow,
    "kinetics": Kinetics,
    "numerics": Numerics,
}


class DryerConfig(namedtuple("DryerConfig", _SECTIONS, defaults=(Numerics(),))):
    """The sections of a config, checked as it is built, also by _replace
    and by unpickling: every value against its bounds, then the cover's
    absorptance + transmittance and kinetics.b2."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        values = ((f"{section}.{name}", value)
                  for section, fields in self.to_dict().items()
                  for name, value in fields.items())
        for name, value in values:
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value}")
            if name in _FRACTIONS:
                if not 0.0 <= value <= 1.0:
                    raise ConfigError(f"{name} must be in [0, 1], got {value}")
            elif name in _NONNEGATIVE:
                if value < 0:
                    raise ConfigError(f"{name} must be >= 0, got {value}")
            elif name not in _ANY_SIGN and value <= 0:
                raise ConfigError(f"{name} must be > 0, got {value}")
        c = self.cover
        if c.alpha_c + c.tau_c > 1.0:
            raise ConfigError(
                f"cover absorptance + transmittance must be <= 1, got "
                f"{c.alpha_c + c.tau_c}"
            )
        if self.kinetics.b2 == 0:
            raise ConfigError("kinetics.b2 must be nonzero")
        return self

    @classmethod
    def _make(cls, iterable):  # what _replace builds with
        return cls(*iterable)

    @property
    def M_0(self) -> float:
        """Initial moisture, decimal dry basis."""
        return self.product.M_0_pct / 100.0

    def to_dict(self) -> dict:
        return {name: getattr(self, name)._asdict() for name in _SECTIONS}


def number(key: str, value) -> float:
    """value as a finite float; ConfigError `<key> must be numeric, got
    <value!r>` or `<key> must be finite, got <x>` otherwise."""
    try:  # YAML 1.1 reads exponents like 2.358e6 as strings
        if isinstance(value, bool):  # and yes, no, true and false as bools
            raise TypeError
        x = float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be numeric, got {value!r}") from None
    if not math.isfinite(x):
        raise ConfigError(f"{key} must be finite, got {x}")
    return x


def check_keys(name: str, raw, known, required=()) -> None:
    """ConfigError unless raw is a mapping whose keys are all in known and
    whose required keys are there and not null; the errors name the block."""
    if not isinstance(raw, dict):
        raise ConfigError(f"{name} must be a mapping")
    unknown = set(raw).difference(known)
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(map(str, unknown))}")
    missing = [key for key in required if raw.get(key) is None]
    if missing:
        raise ConfigError(f"missing keys in {name}: {missing}")


def read_record(cls, raw, name: str):
    """The NamedTuple cls of the numbers in the mapping raw, block `name`:
    its values are checked before missing keys; a field with a default may
    be left out."""
    check_keys(name, raw, cls._fields)
    values = {key: number(f"{name}.{key}", value) for key, value in raw.items()}
    missing = [key for key in cls._fields
               if key not in values and key not in cls._field_defaults]
    if missing:
        raise ConfigError(f"missing keys in {name}: {missing}")
    return cls(**values)


def config_from_dict(data: dict) -> DryerConfig:
    """The config of a mapping of sections; every section but `numerics`
    is required, and one given as null counts as absent."""
    check_keys("the config", data, _SECTIONS, [s for s in _SECTIONS if s != "numerics"])
    return DryerConfig(**{section: read_record(cls, data[section], section)
                          for section, cls in _SECTIONS.items()
                          if data.get(section) is not None})


def read_yaml(path, what: str):
    """The data of the YAML file path; ConfigError `<what> not found: path`
    when it is missing, `cannot parse path: ...` when it is not YAML.  It
    parses with libyaml's safe loader, several times faster, when PyYAML
    was built with it; a file that libyaml rejects is parsed again by the
    pure-Python SafeLoader, whose message shows the line in error.  PyYAML
    is imported here, so that a command that reads no YAML does not load it."""
    import yaml

    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    text = path.read_text(encoding="utf-8")
    try:
        return yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError:
        pass
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None


def load_config(path) -> DryerConfig:
    return config_from_dict(read_yaml(path, "config file"))


def apply_overrides(cfg: DryerConfig, assignments: dict[str, float | str]) -> DryerConfig:
    """Return a new config with dotted-path overrides applied, e.g.
    {"airflow.V_vent": 0.2}; re-validates the result, converting each
    value as a config file's."""
    data = cfg.to_dict()
    for path, value in assignments.items():
        parts = path.split(".")
        if len(parts) != 2 or parts[0] not in _SECTIONS:
            raise ConfigError(f"invalid override path {path!r}")
        section, name = parts
        if name not in data[section]:
            raise ConfigError(f"unknown config field {path!r}")
        data[section][name] = value
    return config_from_dict(data)
