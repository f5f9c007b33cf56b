"""Thin-layer drying model for copra and the equilibrium-moisture isotherm.

The drying curve is the Page form MR = exp(-A1 * t^B1) with t in HOURS;
A1 and B1 are affine in air temperature (Celsius) and relative humidity
(percent), fitted for 50-70 C and 10-25 % rh.  Under changing conditions
the curve is advanced by the equivalent-drying-time method: invert the
current moisture ratio for the time that reproduces it under the new
constants, then step forward by dt.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .config import Kinetics
from .errors import KineticsError

T_FIT_MIN, T_FIT_MAX = 50.0, 70.0   # C, fitted envelope
RH_FIT_MIN, RH_FIT_MAX = 10.0, 25.0  # %


def rate_constant(T_c: float, rh: float) -> float:
    """Page rate constant A1 at air temperature T_c (Celsius) and rh (%)."""
    return -0.213788 + 0.0101640 * T_c - 0.001372 * rh


def rate_exponent(T_c: float, rh: float) -> float:
    """Page exponent B1 at air temperature T_c (Celsius) and rh (%)."""
    return 1.108816 - 0.0005210 * T_c - 0.000061 * rh


class DryingConstants(NamedTuple):
    A1: float
    B1: float
    extrapolated: bool  # outside the fitted 50-70 C / 10-25 % envelope


def drying_constants(T_c: float, rh: float) -> DryingConstants:
    """The Page constants at the given conditions; conditions outside the
    fitted envelope are flagged as extrapolated.  A1 <= 0 (low
    temperatures, e.g. below ~23 C at 15 % rh) is not a valid drying curve;
    the solver stalls drying there.
    """
    extrapolated = not (T_FIT_MIN <= T_c <= T_FIT_MAX and RH_FIT_MIN <= rh <= RH_FIT_MAX)
    return DryingConstants(rate_constant(T_c, rh), rate_exponent(T_c, rh), extrapolated)


def moisture_ratio(t_h: float, constants: DryingConstants) -> float:
    """Moisture ratio MR(t) = exp(-A1 t^B1), t in hours, t_h >= 0."""
    return math.exp(-constants.A1 * t_h**constants.B1)


def water_activity(M_e: float, T_c: float, c: Kinetics) -> float:
    """Forward isotherm: water activity of the product at equilibrium
    moisture M_e (% db) and temperature T_c (Celsius)."""
    if M_e <= 0:
        raise ValueError(f"equilibrium moisture must be > 0, got {M_e}")
    base = c.b0 + c.b1 * T_c
    if base <= 0:
        raise KineticsError(
            f"isotherm coefficient b0 + b1*T = {base:.4f} <= 0 at T={T_c:.1f} C"
        )
    return 1.0 / (1.0 + (base / M_e) ** c.b2)


def equilibrium_moisture(T_c: float, a_w: float, c: Kinetics) -> float:
    """Equilibrium moisture content (% db) from the inverted isotherm,
    M_e = (b0 + b1 T) * (a_w / (1 - a_w))^(1/b2); KineticsError where that
    is not a finite number."""
    if not 0.0 < a_w < 1.0:
        raise KineticsError(f"water activity must be in (0, 1), got {a_w}")
    if not math.isfinite(T_c):
        raise KineticsError(f"equilibrium moisture needs a finite temperature, "
                            f"got T={T_c} C")
    base = c.b0 + c.b1 * T_c
    if base <= 0:
        raise KineticsError(
            f"isotherm coefficient b0 + b1*T = {base:.4f} <= 0 at T={T_c:.1f} C"
        )
    try:
        M_e = base * (a_w / (1.0 - a_w)) ** (1.0 / c.b2)
    except OverflowError:
        M_e = math.inf
    if M_e < math.inf:
        return M_e
    raise KineticsError(f"equilibrium moisture overflows at T={T_c:.1f} C, "
                        f"a_w={a_w:.4g} (b0={c.b0}, b1={c.b1}, b2={c.b2})")


def step_moisture(
    M: float,
    M_e: float,
    M_0: float,
    constants: DryingConstants,
    dt_s: float,
) -> tuple[float, float]:
    """Advance product moisture by dt_s seconds under the given constants.

    All moistures are decimal dry basis, with M_0 > M_e, dt_s > 0 and
    constants.A1 > 0.  Returns (M_new, t_eq_h) where t_eq_h is the
    equivalent drying time (hours) AFTER the step.  Rewetting is
    suppressed: when M <= M_e the moisture is returned unchanged.
    """
    if M <= M_e:
        return M, math.inf
    mr = (M - M_e) / (M_0 - M_e)
    if mr > 1.0:
        mr = 1.0
    t_eq = 0.0 if mr >= 1.0 else (-math.log(mr) / constants.A1) ** (1.0 / constants.B1)
    t_eq_new = t_eq + dt_s / 3600.0
    mr_new = moisture_ratio(t_eq_new, constants)
    M_new = M_e + mr_new * (M_0 - M_e)
    if M_new > M:  # guard against roundoff near the fixed point
        M_new = M
    return M_new, t_eq_new
