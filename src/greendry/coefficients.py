"""Heat-transfer and heat-loss coefficient correlations.  The solver's
step evaluates `_sky`, `_convective` and `_radiative` written out, at the
previous step's temperatures; these functions are the reference that
its copies must match bit for bit (tests/test_step_reference.py).  A
step whose sky is not physical, not 0 < T_s <= T_am, raises its
`sky_temperature_non_physical` flag; the comment on `config.Kinetics.c_sky`
says why that coefficient's default keeps the sky below ambient."""

from __future__ import annotations

from .core import AirProps
from .errors import RangeError

SIGMA = 5.670e-8  # Stefan-Boltzmann constant, W m^-2 K^-4

# Below this Reynolds number the turbulent duct correlation is extrapolated.
RE_TURBULENT_MIN = 2300.0


def _sky(T_am: float, T_am_1_5: float, c_sky: float) -> tuple[float, bool]:
    """T_s = c_sky * T_am^1.5, from T_am_1_5 = T_am**1.5, and whether it is
    physical, 0 < T_s <= T_am."""
    T_s = c_sky * T_am_1_5
    return T_s, 0.0 < T_s <= T_am


def _radiative(eps_sigma: float, T1: float, T2: float) -> float:
    """Linearised radiative coefficient eps*sigma*(T1^2+T2^2)(T1+T2) from
    eps_sigma = eps * SIGMA; symmetric in the two temperatures.
    RangeError unless both are > 0 K."""
    if T1 <= 0 or T2 <= 0:
        raise RangeError(f"temperatures must be > 0 K, got {T1}, {T2}")
    return eps_sigma * (T1 * T1 + T2 * T2) * (T1 + T2)


def wind_coefficient(V_w: float) -> float:
    """Wind convective coefficient 5.7 + 3.8 V_w; V_w >= 0 is checked
    where a weather series is built (weather.WeatherSeries)."""
    return 5.7 + 3.8 * V_w


def hydraulic_diameter(W: float, D: float) -> float:
    """Hydraulic diameter of the tunnel cross-section, 4WD / 2(W+D)."""
    return 4.0 * W * D / (2.0 * (W + D))


def _convective(D_h_V_a: float, D_h: float, air: AirProps):
    """Internal forced-convection coefficient from the turbulent duct
    correlation Nu = 0.0158 Re^0.8, with Re = D_h_V_a / nu and
    D_h_V_a = D_h * V_a; returns (Re, Nu, h_c).

    The same h_c serves cover-air, floor-air and product-air exchange.
    At V_a = 0 the correlation gives h_c = 0 (no natural-convection
    fallback).
    """
    Re = D_h_V_a / air.nu
    Nu = 0.0158 * Re**0.8
    return Re, Nu, Nu * air.k / D_h

