"""Dryer configuration: one validated bundle of geometry, materials, airflow,
kinetics coefficients and numerics, loadable from YAML with dotted-path
overrides."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import NamedTuple

import yaml

from .errors import ConfigError


class Geometry(NamedTuple):
    W: float       # floor width, m
    D: float       # average floor-to-cover distance, m
    A_c: float     # cover area, m^2
    A_f: float     # floor area, m^2
    A_p: float     # product area, m^2
    V: float       # chamber volume, m^3
    D_p: float     # product layer thickness, m


class Cover(NamedTuple):
    m_c: float       # mass, kg
    C_pc: float      # specific heat, J kg^-1 K^-1
    alpha_c: float   # absorptance
    tau_c: float     # transmittance
    eps_c: float     # emissivity
    k_c: float       # conductivity, W m^-1 K^-1
    delta_c: float   # thickness, m


class Floor(NamedTuple):
    alpha_f: float   # absorptance
    h_dfg: float     # floor-to-underground conductance, W m^-2 K^-1
    T_deep: float    # deep-soil temperature, K


class Product(NamedTuple):
    rho_p: float     # dry bulk density, kg m^-3; dry mass rho_p A_p D_p
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
_NONNEGATIVE = {"cover.k_c", "floor.h_dfg", "airflow.V_vent", "airflow.V_a",
                "airflow.H_in"}
_ANY_SIGN = {"kinetics.b0", "kinetics.b1", "kinetics.b2"}  # b2 != 0


@dataclass(frozen=True)
class DryerConfig:
    geometry: Geometry
    cover: Cover
    floor: Floor
    product: Product
    airflow: Airflow
    kinetics: Kinetics
    numerics: Numerics = Numerics()

    def __post_init__(self):
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

    @property
    def M_0(self) -> float:
        """Initial moisture, decimal dry basis."""
        return self.product.M_0_pct / 100.0

    def to_dict(self) -> dict:
        return {name: getattr(self, name)._asdict() for name in _SECTIONS}


_SECTIONS = {
    "geometry": Geometry,
    "cover": Cover,
    "floor": Floor,
    "product": Product,
    "airflow": Airflow,
    "kinetics": Kinetics,
    "numerics": Numerics,
}


def config_from_dict(data: dict) -> DryerConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    kwargs = {}
    for section, cls in _SECTIONS.items():
        raw = data.get(section)
        if raw is None:
            if section == "numerics":  # DryerConfig's default, Numerics()
                continue
            raise ConfigError(f"missing config section {section!r}")
        if not isinstance(raw, dict):
            raise ConfigError(f"config section {section!r} must be a mapping")
        unknown = set(raw).difference(cls._fields)
        if unknown:
            raise ConfigError(f"unknown keys in {section!r}: {sorted(unknown)}")
        coerced = {}
        for key, value in raw.items():
            try:
                # YAML 1.1 reads exponents like 2.358e6 as strings
                coerced[key] = float(value)
            except (TypeError, ValueError):
                raise ConfigError(
                    f"{section}.{key} must be numeric, got {value!r}"
                ) from None
        try:
            kwargs[section] = cls(**coerced)
        except TypeError as exc:
            raise ConfigError(f"section {section!r}: {exc}") from None
    extra = set(data) - set(_SECTIONS)
    if extra:
        raise ConfigError(f"unknown config sections: {sorted(extra)}")
    return DryerConfig(**kwargs)


# libyaml's safe loader, several times faster, when PyYAML was built with it
_SafeLoader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def read_yaml(path, what: str):
    """The data of the YAML file path; ConfigError `<what> not found: path`
    when it is missing, `cannot parse path: ...` when it is not YAML.  A
    file that libyaml rejects is parsed again by the pure-Python SafeLoader,
    whose message shows the line in error."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"{what} not found: {path}")
    text = path.read_text()
    try:
        return yaml.load(text, Loader=_SafeLoader)
    except yaml.YAMLError:
        pass
    try:
        return yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None


def load_config(path) -> DryerConfig:
    return config_from_dict(read_yaml(path, "config file"))


def apply_overrides(cfg: DryerConfig, assignments: dict[str, float]) -> DryerConfig:
    """Return a new config with dotted-path overrides applied, e.g.
    {"airflow.V_vent": 0.2}; re-validates the result."""
    data = cfg.to_dict()
    for path, value in assignments.items():
        parts = path.split(".")
        if len(parts) != 2 or parts[0] not in _SECTIONS:
            raise ConfigError(f"invalid override path {path!r}")
        section, name = parts
        if name not in data[section]:
            raise ConfigError(f"unknown config field {path!r}")
        try:
            data[section][name] = float(value)
        except (TypeError, ValueError):
            raise ConfigError(
                f"override {path!r} needs a numeric value, got {value!r}"
            ) from None
    return config_from_dict(data)
