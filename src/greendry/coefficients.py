"""Heat-transfer and heat-loss coefficient correlations, evaluated once per
time step at the previous step's temperatures."""

from __future__ import annotations

import warnings
from typing import TYPE_CHECKING, NamedTuple

from .core import AirProps, SimState, WeatherRecord
from .errors import ConfigError, ConfigWarning

if TYPE_CHECKING:
    from .solver import StepConstants

SIGMA = 5.670e-8  # Stefan-Boltzmann constant, W m^-2 K^-4

# Below this Reynolds number the turbulent duct correlation is extrapolated.
RE_TURBULENT_MIN = 2300.0


class CoefficientSet(NamedTuple):
    """All per-step coefficients, W m^-2 K^-1 unless noted."""

    h_r_cs: float   # radiative, cover to sky
    h_r_pc: float   # radiative, product to cover
    h_w: float      # wind convective, cover to ambient
    h_c: float      # internal convective (cover-air = floor-air = product-air)
    U_c: float      # overall cover loss
    T_s: float      # sky temperature, K
    D_h: float      # hydraulic diameter, m
    Re: float
    Nu: float
    flags: tuple[str, ...] = ()


def _sky(T_am: float, c_sky: float) -> tuple[float, bool]:
    """T_s = c_sky * T_am^1.5 and whether it is physical, 0 < T_s <= T_am."""
    if T_am <= 0:
        raise ValueError(f"ambient temperature must be > 0 K, got {T_am}")
    T_s = c_sky * T_am**1.5
    return T_s, 0.0 < T_s <= T_am


def sky_temperature(T_am: float, c_sky: float = 0.0550) -> float:
    """Effective sky temperature T_s = c_sky * T_am^1.5.

    Warns (without failing) when the result is non-physical, i.e. not in
    (0, T_am]: the commonly cited coefficient is 0.0552, but the default
    here is 0.0550 so that T_s < T_am holds everywhere below 330 K; a
    value of 0.552 yields a sky far hotter than ambient.
    """
    T_s, physical = _sky(T_am, c_sky)
    if not physical:
        warnings.warn(
            f"sky temperature {T_s:.1f} K is non-physical for ambient "
            f"{T_am:.1f} K (c_sky={c_sky}); expected 0 < T_s <= T_am",
            ConfigWarning,
            stacklevel=2,
        )
    return T_s


def radiative_coefficient(eps: float, T1: float, T2: float) -> float:
    """Linearised radiative coefficient eps*sigma*(T1^2+T2^2)(T1+T2);
    symmetric in the two temperatures."""
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"emissivity must be in [0, 1], got {eps}")
    return _radiative(eps * SIGMA, T1, T2)


def _radiative(eps_sigma: float, T1: float, T2: float) -> float:
    """radiative_coefficient with eps * SIGMA given."""
    if T1 <= 0 or T2 <= 0:
        raise ValueError(f"temperatures must be > 0 K, got {T1}, {T2}")
    return eps_sigma * (T1 * T1 + T2 * T2) * (T1 + T2)


def wind_coefficient(V_w: float) -> float:
    """Wind convective coefficient 5.7 + 3.8 V_w."""
    if V_w < 0:
        raise ValueError(f"wind speed must be >= 0, got {V_w}")
    return 5.7 + 3.8 * V_w


def hydraulic_diameter(W: float, D: float) -> float:
    """Hydraulic diameter of the tunnel cross-section, 4WD / 2(W+D)."""
    if W <= 0 or D <= 0:
        raise ValueError(f"dimensions must be > 0, got W={W}, D={D}")
    return 4.0 * W * D / (2.0 * (W + D))


def internal_convective(V_a: float, D_h: float, air: AirProps):
    """Internal forced-convection coefficient from the turbulent duct
    correlation Nu = 0.0158 Re^0.8; returns (Re, Nu, h_c).

    The same h_c serves cover-air, floor-air and product-air exchange.
    At V_a = 0 the correlation gives h_c = 0 (no natural-convection
    fallback).
    """
    if D_h <= 0:
        raise ValueError(f"hydraulic diameter must be > 0, got {D_h}")
    if V_a < 0:
        raise ValueError(f"air speed must be >= 0, got {V_a}")
    return _convective(D_h * V_a, D_h, air)


def _convective(D_h_V_a: float, D_h: float, air: AirProps):
    """internal_convective with D_h * V_a given and the checks done."""
    Re = D_h_V_a / air.nu
    Nu = 0.0158 * Re**0.8
    return Re, Nu, Nu * air.k / D_h


def overall_cover_loss(k_c: float, delta_c: float) -> float:
    """Overall cover loss coefficient k_c / delta_c.

    Note: for very thin films this conduction-only value is far larger
    than any realistic overall loss (0.33 W/mK over 200 um gives
    1650 W m^-2 K^-1); baseline configs use an effective thickness.
    """
    if delta_c <= 0:
        raise ConfigError(f"cover thickness must be > 0, got {delta_c}")
    if k_c < 0:
        raise ConfigError(f"cover conductivity must be >= 0, got {k_c}")
    return k_c / delta_c


def assemble_coefficients(
    state: SimState, weather: WeatherRecord, k: StepConstants, air: AirProps
) -> CoefficientSet:
    """Evaluate every coefficient at the current step's temperatures; k
    holds the run's constants (D_h and U_c among them) and air the dry-air
    properties at state.T_a.  A non-physical sky temperature is flagged,
    not warned about."""
    flags = []
    T_s, sky_physical = _sky(weather.T_am, k.c_sky)
    if not sky_physical:
        flags.append("sky_temperature_non_physical")
    Re, Nu, h_c = _convective(k.D_h_V_a, k.D_h, air)
    if k.V_a == 0:
        flags.append("still_air")
    elif Re < RE_TURBULENT_MIN:
        flags.append("re_below_turbulent")
    T_c = state.T_c
    return CoefficientSet(
        h_r_cs=_radiative(k.eps_c_sigma, T_c, T_s),
        h_r_pc=_radiative(k.eps_p_sigma, state.T_p, T_c),
        h_w=wind_coefficient(weather.V_w),
        h_c=h_c,
        U_c=k.U_c,
        T_s=T_s,
        D_h=k.D_h,
        Re=Re,
        Nu=Nu,
        flags=tuple(flags),
    )
