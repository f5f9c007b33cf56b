"""Per-step implicit solution of the coupled energy balances.

Each time step assembles four linear equations in the unknowns
[T_c, T_a, T_p, T_f] (cover, chamber air, product, floor).  Radiative
coefficients, air properties and the kinetics-driven moisture change are
frozen at the previous step's values so the system is linear; it is solved
by Gauss-Jordan elimination with partial pivoting.  The cover, air and
product rows are backward-difference discretisations of their thermal-mass
balances; the floor row is algebraic (quasi-steady flux balance against
the deep soil).  A chamber humidity-ratio balance then routes the
evaporated water into the air.

The whole step works on plain Python floats: each balance returns its row
as a list of four coefficients and a right-hand side, and `eliminate`
solves the lists directly.  At 4x4, array set-up would cost more than the
arithmetic.  `LinearSystem` + `gauss_jordan` is the validating entry point
for callers that hold a system of their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import kinetics
from .coefficients import CoefficientSet, assemble_coefficients
from .config import DryerConfig
from .core import (
    SimState,
    WeatherRecord,
    air_properties,
    humidity_ratio,
    relative_humidity,
    saturation_humidity_ratio,
)
from .errors import GreendryError, SimulationError, SingularMatrixError, WeatherError
from .weather import WeatherSeries, sample

# Unknown ordering in every assembled system.
UNKNOWNS = ("T_c", "T_a", "T_p", "T_f")
# Balance ordering: the rows of every assembled system.
BALANCES = ("cover", "air", "product", "floor")

SINGULAR_PIVOT = 1e-12

# Water activity is clipped into (0, 1) before the isotherm inversion;
# chamber rh of exactly 0 or 100 % would otherwise be degenerate.
_AW_MIN, _AW_MAX = 1e-6, 1.0 - 1e-6


@dataclass(frozen=True)
class LinearSystem:
    """n x n system A x = b, stored as lists of floats (A row by row);
    unknown ordering per UNKNOWNS.  Accepts any nested sequence of numbers
    and rejects ragged, non-square or non-finite input with ValueError."""

    A: list[list[float]]
    b: list[float]

    def __post_init__(self):
        A = [[float(v) for v in row] for row in self.A]
        b = [float(v) for v in self.b]
        n = len(b)
        if len(A) != n or any(len(row) != n for row in A):
            raise ValueError(
                f"need square A and matching b, got row lengths "
                f"{[len(row) for row in A]} and b of length {n}"
            )
        if not (all(math.isfinite(v) for row in A for v in row)
                and all(math.isfinite(v) for v in b)):
            raise ValueError("linear system contains non-finite entries")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class StepDiagnostics:
    t: float                       # s, end of step
    residuals: tuple[float, ...]   # per balance equation, W
    max_terms: tuple[float, ...]   # largest term magnitude per equation, W
    dM: float                      # moisture change over the step, decimal db
    rh: float                      # chamber rh used for kinetics, %
    coefficients: CoefficientSet
    flags: tuple[str, ...]


@dataclass
class SimSeries:
    """Time-indexed simulation record."""

    states: list[SimState]
    diagnostics: list[StepDiagnostics]

    def __len__(self) -> int:
        return len(self.states)


def eliminate(A, b) -> list[float]:
    """Solve A x = b by Gauss-Jordan elimination with partial pivoting.

    A is a sequence of n rows of n floats and b a sequence of n floats;
    neither is modified and neither is validated (see LinearSystem).  For
    each column the pivot is the first entry of largest magnitude on or
    below the diagonal; the pivot row is divided by it, and every other
    row with a non-zero factor in that column subtracts factor x pivot
    row.  Entries left of the pivot column are exactly zero by then and
    are skipped.  Raises SingularMatrixError (carrying the offending
    column) when a pivot magnitude falls below 1e-12.
    """
    n = len(b)
    aug = [[*row, rhs] for row, rhs in zip(A, b)]
    for col in range(n):
        pivot_row, best = col, abs(aug[col][col])
        for r in range(col + 1, n):
            mag = abs(aug[r][col])
            if mag > best:
                pivot_row, best = r, mag
        prow = aug[pivot_row]
        pivot = prow[col]
        if best < SINGULAR_PIVOT:
            raise SingularMatrixError(column=col, pivot=pivot)
        if pivot_row != col:
            aug[pivot_row], aug[col] = aug[col], prow
        cols = range(col + 1, n + 1)
        for j in cols:
            prow[j] /= pivot
        for r in range(n):
            row = aug[r]
            factor = row[col]
            if r != col and factor != 0.0:
                for j in cols:
                    row[j] -= factor * prow[j]
    return [row[n] for row in aug]


def gauss_jordan(system: LinearSystem) -> list[float]:
    """Solve a validated LinearSystem with `eliminate`."""
    return eliminate(system.A, system.b)


def cover_balance(state, coeffs, weather, cfg, dt):
    """Backward-difference row for the cover energy balance."""
    g, c = cfg.geometry, cfg.cover
    cap = c.m_c * c.C_pc / dt
    row = [cap + g.A_c * (coeffs.h_c + coeffs.h_r_cs + coeffs.h_w) + g.A_p * coeffs.h_r_pc,
           -g.A_c * coeffs.h_c,
           -g.A_p * coeffs.h_r_pc,
           0.0]
    rhs = (cap * state.T_c
           + g.A_c * coeffs.h_r_cs * coeffs.T_s
           + g.A_c * coeffs.h_w * weather.T_am
           + g.A_c * c.alpha_c * weather.I_t)
    return row, rhs


def air_balance(state, coeffs, weather, cfg, dmdt, dt, air, m_a):
    """Backward-difference row for the chamber-air energy balance.

    The flow enthalpy term is net inflow rho_a C_pa (V_in T_in - V_out T_a)
    with the outlet at the well-mixed chamber temperature; the sensible
    moisture term A_p D_p C_pv rho_p (T_p - T_a) dM/dt keeps the
    temperatures implicit with dM/dt frozen from the kinetics step.
    """
    g, p, a = cfg.geometry, cfg.product, cfg.airflow
    cap = m_a * air.cp / dt
    q_m = g.A_p * g.D_p * p.C_pv * p.rho_p * dmdt
    flow_in = air.rho * air.cp * a.V_in
    flow_out = air.rho * air.cp * a.V_out
    bracket = (1.0 - p.F_p) * (1.0 - cfg.floor.alpha_f) + (1.0 - p.alpha_p) * p.F_p
    row = [0.0,
           (cap + (g.A_p + g.A_f) * coeffs.h_c + q_m + flow_out
            + coeffs.U_c * g.A_c),
           -(g.A_p * coeffs.h_c + q_m),
           -g.A_f * coeffs.h_c]
    rhs = (cap * state.T_a
           + flow_in * a.T_in
           + coeffs.U_c * g.A_c * weather.T_am
           + bracket * weather.I_t * g.A_c * cfg.cover.tau_c)
    return row, rhs


def product_balance(state, coeffs, weather, cfg, dmdt, dt):
    """Backward-difference row for the product energy balance; the
    effective heat capacity m_p (C_pp + C_pl M_p) uses the current
    moisture, and the latent term L_p dM/dt enters as an explicit sink."""
    g, p = cfg.geometry, cfg.product
    cap = p.m_p * (p.C_pp + p.C_pl * state.M_p) / dt
    q_m = g.A_p * g.D_p * p.C_pv * p.rho_p * dmdt
    row = [-g.A_p * coeffs.h_r_pc,
           -g.A_p * coeffs.h_c + q_m,
           cap + g.A_p * (coeffs.h_c + coeffs.h_r_pc) - q_m,
           0.0]
    rhs = (cap * state.T_p
           + g.A_p * g.D_p * p.rho_p * p.L_p * dmdt
           + p.F_p * p.alpha_p * weather.I_t * g.A_c * cfg.cover.tau_c)
    return row, rhs


def floor_balance(state, coeffs, weather, cfg):
    """Quasi-steady algebraic row for the floor: conduction to the deep
    soil balances absorbed solar plus convection from the air.  Scaled by
    the floor area so the residual is in watts like the other rows."""
    g, f, p = cfg.geometry, cfg.floor, cfg.product
    if coeffs.h_c + f.h_dfg == 0.0:
        raise SimulationError("floor row singular: h_dfg + h_c = 0")
    row = [0.0, -g.A_f * coeffs.h_c, 0.0, g.A_f * (f.h_dfg + coeffs.h_c)]
    rhs = (g.A_f * f.h_dfg * f.T_deep
           + (1.0 - p.F_p) * f.alpha_f * weather.I_t * g.A_c * cfg.cover.tau_c)
    return row, rhs


def moisture_balance(H, dM, cfg, dt, rho_a, m_a):
    """Chamber humidity-ratio balance: evaporated water (-dM from the
    product) enters the air, ventilation exchanges it with the inlet.
    Returns the new humidity ratio (not yet saturation-clamped)."""
    g, p, a = cfg.geometry, cfg.product, cfg.airflow
    evap = -p.rho_p * g.A_p * g.D_p * dM / dt
    # written so that a zero source leaves H bit-exactly unchanged
    return ((H + dt / m_a * (evap + rho_a * a.V_in * a.H_in))
            / (1.0 + dt / m_a * rho_a * a.V_out))


def _kinetics_update(state, cfg, rh, dt):
    """Equilibrium moisture and the moisture step at current conditions.

    Returns (M_new, M_e_pct, t_eq_h, flags).  Drying stalls (dM = 0) when
    the Page rate constant is non-positive (chamber too cold), when the
    charge is at/below equilibrium, or when equilibrium exceeds the
    initial moisture (degenerate humid-cold conditions); rewetting is
    never modelled.
    """
    flags = []
    T_c = state.T_a - 273.15
    a_w = min(max(rh / 100.0, _AW_MIN), _AW_MAX)
    M_e_pct = kinetics.equilibrium_moisture(T_c, a_w, cfg.kinetics)
    M_e = M_e_pct / 100.0
    M_0 = cfg.M_0

    if kinetics.rate_constant(T_c, rh) <= 0.0:
        flags.append("kinetics_stalled")
        return state.M_p, M_e_pct, state.t_eq / 3600.0, flags
    if M_0 <= M_e or state.M_p <= M_e:
        flags.append("at_or_above_equilibrium")
        return state.M_p, M_e_pct, state.t_eq / 3600.0, flags

    constants = kinetics.drying_constants(T_c, rh)
    if constants.extrapolated:
        flags.append("kinetics_extrapolated")
    M_new, t_eq_h = kinetics.step_moisture(state.M_p, M_e, M_0, constants, dt)
    return M_new, M_e_pct, t_eq_h, flags


def step(state: SimState, weather_end: WeatherRecord, cfg: DryerConfig
         ) -> tuple[SimState, StepDiagnostics]:
    """Advance one implicit step of length cfg.numerics.dt, with the
    weather record sampled at the END of the step."""
    dt = cfg.numerics.dt
    P = cfg.numerics.pressure
    flags: list[str] = []

    rh, rh_clamped = relative_humidity(state.H, state.T_a, P)
    if rh_clamped:
        flags.append("rh_clamped")

    M_new, M_e_pct, t_eq_h, kin_flags = _kinetics_update(state, cfg, rh, dt)
    flags.extend(kin_flags)
    dM = M_new - state.M_p
    dmdt = dM / dt

    air = air_properties(state.T_a)
    m_a = air.rho * cfg.geometry.V

    coeffs = assemble_coefficients(state, weather_end, cfg, air)
    flags.extend(coeffs.flags)

    rows = (
        cover_balance(state, coeffs, weather_end, cfg, dt),
        air_balance(state, coeffs, weather_end, cfg, dmdt, dt, air, m_a),
        product_balance(state, coeffs, weather_end, cfg, dmdt, dt),
        floor_balance(state, coeffs, weather_end, cfg),
    )
    for name, (row, rhs) in zip(BALANCES, rows):
        if not all(map(math.isfinite, (*row, rhs))):
            raise SimulationError(f"non-finite {name} balance: row {row}, rhs {rhs}")
    x = eliminate([row for row, _ in rows], [rhs for _, rhs in rows])
    if not all(map(math.isfinite, x)):
        raise SimulationError(f"non-finite temperatures {x}")
    T_c, T_a, T_p, T_f = x

    H_new = moisture_balance(state.H, dM, cfg, dt, air.rho, m_a)
    if H_new < 0.0:
        H_new = 0.0
        flags.append("humidity_floor_clamped")
    H_sat = saturation_humidity_ratio(T_a, P)
    if H_new > H_sat:
        H_new = H_sat
        flags.append("humidity_saturation_clamped")

    # per balance: residual sum(row * x) - rhs and the largest term magnitude
    residuals = []
    max_terms = []
    for (a0, a1, a2, a3), rhs in rows:
        t0, t1, t2, t3 = a0 * T_c, a1 * T_a, a2 * T_p, a3 * T_f
        residuals.append(t0 + t1 + t2 + t3 - rhs)
        max_terms.append(max(abs(t0), abs(t1), abs(t2), abs(t3), abs(rhs)))

    new_state = SimState(
        t=state.t + dt, T_c=T_c, T_a=T_a, T_p=T_p, T_f=T_f,
        H=H_new, M_p=M_new, M_e_current=M_e_pct, t_eq=t_eq_h * 3600.0,
    )
    diag = StepDiagnostics(
        t=new_state.t, residuals=tuple(residuals), max_terms=tuple(max_terms),
        dM=dM, rh=rh, coefficients=coeffs, flags=tuple(flags),
    )
    return new_state, diag


def initial_state(cfg: DryerConfig, weather: WeatherSeries) -> SimState:
    """All temperatures at the first ambient reading; chamber humidity from
    ambient rh; moisture at the charge's initial value."""
    w0 = weather.records[0]
    H0 = humidity_ratio(w0.rh_am, w0.T_am, cfg.numerics.pressure)
    rh0, _ = relative_humidity(H0, w0.T_am, cfg.numerics.pressure)
    a_w = min(max(rh0 / 100.0, _AW_MIN), _AW_MAX)
    M_e_pct = kinetics.equilibrium_moisture(w0.T_am - 273.15, a_w, cfg.kinetics)
    return SimState(
        t=w0.t, T_c=w0.T_am, T_a=w0.T_am, T_p=w0.T_am, T_f=w0.T_am,
        H=H0, M_p=cfg.M_0, M_e_current=M_e_pct, t_eq=0.0,
    )


def simulate(
    cfg: DryerConfig,
    weather: WeatherSeries,
    horizon_s: float | None = None,
    target_mdb: float | None = None,
) -> SimSeries:
    """Integrate from the start of the weather series.

    Stops at horizon_s (default: end of the weather series) or, when
    target_mdb is given, as soon as product moisture reaches it.  The
    weather series must cover the whole requested horizon.  Any
    GreendryError raised by a step is re-raised as a SimulationError that
    names the step number and its end time.
    """
    dt = cfg.numerics.dt
    t0 = weather.t_start
    if horizon_s is None:
        horizon_s = weather.t_end - t0
    if horizon_s < 0:
        raise WeatherError(f"horizon must be >= 0, got {horizon_s}")
    if t0 + horizon_s > weather.t_end + 1e-9:
        raise WeatherError(
            f"weather series ends at {weather.t_end} s but the run needs "
            f"{t0 + horizon_s} s"
        )
    n_steps = int(math.floor(horizon_s / dt + 1e-9))

    state = initial_state(cfg, weather)
    series = SimSeries(states=[state], diagnostics=[])
    for i in range(n_steps):
        t_new = t0 + (i + 1) * dt
        w = sample(weather, min(t_new, weather.t_end))
        try:
            state, diag = step(state, w, cfg)
        except GreendryError as exc:
            raise SimulationError(f"step {i + 1} (t={t_new} s): {exc}") from exc
        series.states.append(state)
        series.diagnostics.append(diag)
        if target_mdb is not None and state.M_p <= target_mdb:
            break
    return series
