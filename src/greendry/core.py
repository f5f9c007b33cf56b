"""Shared domain types, dry-air property table and psychrometric conversions.

All temperatures are stored in Kelvin throughout the package; routines that
need Celsius (the drying-kinetics polynomials) convert internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .errors import RangeError

STANDARD_PRESSURE = 101325.0  # Pa, default total pressure unless overridden

# Ratio of molecular weights water vapour / dry air.
_EPSILON = 0.622

# Dry-air properties at 101325 Pa.  cp, k and nu follow the standard
# engineering tables (Incropera & DeWitt, Fundamentals of Heat and Mass
# Transfer, Table A.4); density at the knots is ideal-gas
# rho = P / (R T) with R = 287.05 J kg^-1 K^-1.  Linear interpolation
# between knots.
_R_AIR = 287.05
_AIR_TABLE_T = (250.0, 300.0, 350.0, 400.0)
_AIR_TABLE_CP = (1006.0, 1007.0, 1009.0, 1014.0)
_AIR_TABLE_K = (0.0223, 0.0263, 0.0300, 0.0338)
_AIR_TABLE_NU = (11.44e-6, 15.89e-6, 20.92e-6, 26.41e-6)
_AIR_TABLE_RHO = tuple(STANDARD_PRESSURE / (_R_AIR * t) for t in _AIR_TABLE_T)

AIR_T_MIN = 250.0
AIR_T_MAX = 360.0


class AirProps(NamedTuple):
    """Dry-air properties at one temperature."""

    rho: float    # kg m^-3
    cp: float     # J kg^-1 K^-1
    k: float      # W m^-1 K^-1
    nu: float     # m^2 s^-1


@dataclass(frozen=True)
class WeatherRecord:
    """Ambient conditions at one instant, t in seconds from run start."""

    t: float        # s
    I_t: float      # solar irradiance on the cover plane, W m^-2
    T_am: float     # ambient temperature, K
    V_w: float      # wind speed, m s^-1
    rh_am: float    # ambient relative humidity, %

    def __post_init__(self):
        if self.I_t < 0:
            raise ValueError(f"irradiance must be >= 0, got {self.I_t}")
        if self.T_am <= 0:
            raise ValueError(f"ambient temperature must be > 0 K, got {self.T_am}")
        if self.V_w < 0:
            raise ValueError(f"wind speed must be >= 0, got {self.V_w}")
        if not 0.0 <= self.rh_am <= 100.0:
            raise ValueError(f"ambient rh must be in [0, 100] %, got {self.rh_am}")


class SimState(NamedTuple):
    """The evolving unknowns at one time step."""

    t: float          # s
    T_c: float        # cover temperature, K
    T_a: float        # chamber air temperature, K
    T_p: float        # product temperature, K
    T_f: float        # floor temperature, K
    H: float          # chamber humidity ratio, kg water / kg dry air
    M_p: float        # product moisture, decimal dry basis
    M_e_current: float  # equilibrium moisture at current conditions, % db
    t_eq: float       # equivalent drying time on the current curve, s


def air_properties(T: float) -> AirProps:
    """Dry-air properties by linear interpolation of the built-in table.

    Valid for 250 K <= T <= 360 K; RangeError outside that, NaN included.
    At a knot the lower of the two intervals is used.
    """
    if not AIR_T_MIN <= T <= AIR_T_MAX:
        if T < AIR_T_MIN:
            raise RangeError(f"air temperature {T} K below lower bound {AIR_T_MIN} K")
        if T > AIR_T_MAX:
            raise RangeError(f"air temperature {T} K above upper bound {AIR_T_MAX} K")
        raise RangeError(f"air temperature {T} K outside bounds "
                         f"[{AIR_T_MIN}, {AIR_T_MAX}] K")
    xs = _AIR_TABLE_T
    i = 0
    while T > xs[i + 1]:
        i += 1
    f = (T - xs[i]) / (xs[i + 1] - xs[i])
    rho, cp, k, nu = _AIR_TABLE_RHO, _AIR_TABLE_CP, _AIR_TABLE_K, _AIR_TABLE_NU
    return AirProps(
        rho[i] + f * (rho[i + 1] - rho[i]),
        cp[i] + f * (cp[i + 1] - cp[i]),
        k[i] + f * (k[i + 1] - k[i]),
        nu[i] + f * (nu[i + 1] - nu[i]),
    )


def saturation_pressure(T: float) -> float:
    """Saturation vapour pressure of water over liquid, Pa.

    ASHRAE Handbook of Fundamentals correlation (Hyland & Wexler form),
    valid 273.15 K to 373.15 K; monotone increasing in T.
    """
    if T < 273.15:
        raise RangeError(f"temperature {T} K below lower bound 273.15 K")
    if T > 373.15:
        raise RangeError(f"temperature {T} K above upper bound 373.15 K")
    ln_p = (
        -5.8002206e3 / T
        + 1.3914993
        - 4.8640239e-2 * T
        + 4.1764768e-5 * T * T
        - 1.4452093e-8 * T * T * T
        + 6.5459673 * math.log(T)
    )
    return math.exp(ln_p)


class RhResult(NamedTuple):
    value: float      # relative humidity, %
    clamped: bool     # True when the raw value fell outside [0, 100]


def relative_humidity(H: float, T: float, P: float = STANDARD_PRESSURE) -> RhResult:
    """Relative humidity (%) of air with humidity ratio H at T and total P.

    rh = 100 * p_v / p_sat(T) with p_v = P H / (0.622 + H), clamped to
    [0, 100]; the clamped flag reports when clamping happened.
    """
    if H < 0:
        raise ValueError(f"humidity ratio must be >= 0, got {H}")
    p_v = P * H / (_EPSILON + H)
    rh = 100.0 * p_v / saturation_pressure(T)
    if rh < 0.0:
        return RhResult(0.0, True)
    if rh > 100.0:
        # roundoff at exact saturation is not a genuine clamp
        return RhResult(100.0, rh > 100.0 * (1.0 + 1e-12))
    return RhResult(rh, False)


def humidity_ratio(rh: float, T: float, P: float = STANDARD_PRESSURE) -> float:
    """Humidity ratio (kg/kg) from relative humidity in %; inverse of
    relative_humidity."""
    if not 0.0 <= rh <= 100.0:
        raise ValueError(f"relative humidity must be in [0, 100] %, got {rh}")
    p_v = rh / 100.0 * saturation_pressure(T)
    if p_v >= P:
        raise ValueError("vapour pressure exceeds total pressure")
    return _EPSILON * p_v / (P - p_v)


def saturation_humidity_ratio(T: float, P: float = STANDARD_PRESSURE) -> float:
    """Humidity ratio of saturated air at T and total pressure P."""
    return humidity_ratio(100.0, T, P)
