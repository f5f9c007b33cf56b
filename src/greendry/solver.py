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

The whole step works on plain Python floats: `energy_system` returns the
four rows as tuples of four coefficients with their right-hand sides, and
`eliminate` solves them directly.  At 4x4, array set-up would cost more
than the arithmetic.  `LinearSystem` + `gauss_jordan` is the validating
entry point for callers that hold a system of their own.

What depends only on the config is computed once per run: `simulate`
builds a `StepConstants` record with `step_constants(cfg)` (dt, pressure,
the hydraulic diameter and cover loss, validated there, and products of
config values) and passes it to every `step`.  Python evaluates
`a * b * c` as `(a * b) * c`, and floating-point products do not
associate, so a product of config values is hoisted only when it is a
left prefix of the per-step expression: `A_f * h_dfg * T_deep` becomes
one constant, but in `bracket * I_t * A_c * tau_c` only `bracket` can be,
since `A_c * tau_c` would round differently.  This keeps every state
bit-identical to evaluating the expressions in full on each step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import kinetics
from .coefficients import (
    SIGMA,
    CoefficientSet,
    assemble_coefficients,
    hydraulic_diameter,
    overall_cover_loss,
)
from .config import DryerConfig, Kinetics
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


class StepDiagnostics(NamedTuple):
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


class StepConstants(NamedTuple):
    """What `step` needs from a DryerConfig, built once per run by
    `step_constants`.  Each product is a left prefix of the per-step
    expression it enters (see the module docstring)."""

    dt: float             # time step, s
    P: float              # total pressure, Pa
    M_0: float            # initial moisture, decimal db
    kinetics: Kinetics
    # coefficients
    c_sky: float
    V_a: float
    D_h: float            # hydraulic diameter, m
    D_h_V_a: float        # D_h * V_a
    U_c: float            # overall cover loss, W m^-2 K^-1
    eps_c_sigma: float    # eps_c * SIGMA
    eps_p_sigma: float    # eps_p * SIGMA
    # energy rows
    A_c: float
    A_p: float
    A_f: float
    tau_c: float
    cover_cap: float      # m_c * C_pc / dt
    cover_solar: float    # A_c * alpha_c
    A_pf: float           # A_p + A_f
    U_c_A_c: float        # U_c * A_c
    q_m_per_dmdt: float   # A_p * D_p * C_pv * rho_p
    air_solar: float      # (1 - F_p)(1 - alpha_f) + (1 - alpha_p) F_p
    V: float              # chamber volume, m^3
    V_in: float
    V_out: float
    T_in: float
    H_in: float
    m_p: float
    C_pp: float
    C_pl: float
    latent_per_dmdt: float  # A_p * D_p * rho_p * L_p
    product_solar: float    # F_p * alpha_p
    h_dfg: float
    floor_deep: float       # A_f * h_dfg * T_deep
    floor_solar: float      # (1 - F_p) * alpha_f
    evap_per_dM: float      # -rho_p * A_p * D_p


def step_constants(cfg: DryerConfig) -> StepConstants:
    """The per-run constants of cfg; D_h and U_c are validated here, once."""
    g, c, f, p, a, n = (cfg.geometry, cfg.cover, cfg.floor, cfg.product,
                        cfg.airflow, cfg.numerics)
    D_h = hydraulic_diameter(g.W, g.D)
    U_c = overall_cover_loss(c.k_c, c.delta_c)
    return StepConstants(
        dt=n.dt,
        P=n.pressure,
        M_0=cfg.M_0,
        kinetics=cfg.kinetics,
        c_sky=cfg.kinetics.c_sky,
        V_a=a.V_a,
        D_h=D_h,
        D_h_V_a=D_h * a.V_a,
        U_c=U_c,
        eps_c_sigma=c.eps_c * SIGMA,
        eps_p_sigma=p.eps_p * SIGMA,
        A_c=g.A_c,
        A_p=g.A_p,
        A_f=g.A_f,
        tau_c=c.tau_c,
        cover_cap=c.m_c * c.C_pc / n.dt,
        cover_solar=g.A_c * c.alpha_c,
        A_pf=g.A_p + g.A_f,
        U_c_A_c=U_c * g.A_c,
        q_m_per_dmdt=g.A_p * g.D_p * p.C_pv * p.rho_p,
        air_solar=(1.0 - p.F_p) * (1.0 - f.alpha_f) + (1.0 - p.alpha_p) * p.F_p,
        V=g.V,
        V_in=a.V_in,
        V_out=a.V_out,
        T_in=a.T_in,
        H_in=a.H_in,
        m_p=p.m_p,
        C_pp=p.C_pp,
        C_pl=p.C_pl,
        latent_per_dmdt=g.A_p * g.D_p * p.rho_p * p.L_p,
        product_solar=p.F_p * p.alpha_p,
        h_dfg=f.h_dfg,
        floor_deep=g.A_f * f.h_dfg * f.T_deep,
        floor_solar=(1.0 - p.F_p) * f.alpha_f,
        evap_per_dM=-p.rho_p * g.A_p * g.D_p,
    )


def energy_system(state, coeffs, weather, k, dmdt, air):
    """The step's energy system A x = b in the unknowns UNKNOWNS, as a
    tuple of the four rows (tuples, ordered as BALANCES) and a tuple of
    their right-hand sides.

    - cover: backward-difference thermal-mass balance.
    - air: backward-difference balance of the chamber air of mass
      rho_a V.  The flow enthalpy term is net inflow
      rho_a C_pa (V_in T_in - V_out T_a) with the outlet at the
      well-mixed chamber temperature; the sensible moisture term
      A_p D_p C_pv rho_p (T_p - T_a) dM/dt keeps the temperatures
      implicit with dM/dt frozen from the kinetics step.
    - product: backward-difference balance with the effective heat
      capacity m_p (C_pp + C_pl M_p) at the current moisture and the
      latent term L_p dM/dt as an explicit sink.
    - floor: quasi-steady algebraic row, conduction to the deep soil
      balancing absorbed solar plus convection from the air, scaled by the
      floor area so the residual is in watts like the other rows; raises
      SimulationError when h_dfg + h_c = 0 makes it singular.
    """
    dt, A_c, A_p, A_f, tau_c = k.dt, k.A_c, k.A_p, k.A_f, k.tau_c
    h_c, h_r_cs, h_r_pc, h_w = coeffs.h_c, coeffs.h_r_cs, coeffs.h_r_pc, coeffs.h_w
    I_t, T_am = weather.I_t, weather.T_am
    if h_c + k.h_dfg == 0.0:
        raise SimulationError("floor row singular: h_dfg + h_c = 0")
    q_m = k.q_m_per_dmdt * dmdt
    product_cover = -A_p * h_r_pc
    floor_air = -A_f * h_c

    cap = k.cover_cap
    cover = (cap + A_c * (h_c + h_r_cs + h_w) + A_p * h_r_pc,
             -A_c * h_c, product_cover, 0.0)
    cover_rhs = (cap * state.T_c + A_c * h_r_cs * coeffs.T_s
                 + A_c * h_w * T_am + k.cover_solar * I_t)

    cap = air.rho * k.V * air.cp / dt
    rho_cp = air.rho * air.cp
    air_row = (0.0, cap + k.A_pf * h_c + q_m + rho_cp * k.V_out + k.U_c_A_c,
               -(A_p * h_c + q_m), floor_air)
    air_rhs = (cap * state.T_a + rho_cp * k.V_in * k.T_in + k.U_c_A_c * T_am
               + k.air_solar * I_t * A_c * tau_c)

    cap = k.m_p * (k.C_pp + k.C_pl * state.M_p) / dt
    product = (product_cover, -A_p * h_c + q_m,
               cap + A_p * (h_c + h_r_pc) - q_m, 0.0)
    product_rhs = (cap * state.T_p + k.latent_per_dmdt * dmdt
                   + k.product_solar * I_t * A_c * tau_c)

    floor = (0.0, floor_air, 0.0, A_f * (k.h_dfg + h_c))
    floor_rhs = k.floor_deep + k.floor_solar * I_t * A_c * tau_c
    return ((cover, air_row, product, floor),
            (cover_rhs, air_rhs, product_rhs, floor_rhs))


def moisture_balance(H, dM, k, rho_a, m_a):
    """Chamber humidity-ratio balance: evaporated water (-dM from the
    product) enters the air, ventilation exchanges it with the inlet.
    Returns the new humidity ratio (not yet saturation-clamped)."""
    dt = k.dt
    evap = k.evap_per_dM * dM / dt
    # written so that a zero source leaves H bit-exactly unchanged
    return ((H + dt / m_a * (evap + rho_a * k.V_in * k.H_in))
            / (1.0 + dt / m_a * rho_a * k.V_out))


def _kinetics_update(state, k, rh):
    """Equilibrium moisture and the moisture step at current conditions.

    Returns (M_new, M_e_pct, t_eq_h, flags).  Drying stalls (dM = 0) when
    the Page rate constant is non-positive (chamber too cold), when the
    charge is at/below equilibrium, or when equilibrium exceeds the
    initial moisture (degenerate humid-cold conditions); rewetting is
    never modelled.
    """
    T_c = state.T_a - 273.15
    a_w = min(max(rh / 100.0, _AW_MIN), _AW_MAX)
    M_e_pct = kinetics.equilibrium_moisture(T_c, a_w, k.kinetics)
    M_e = M_e_pct / 100.0
    M_0 = k.M_0

    if kinetics.rate_constant(T_c, rh) <= 0.0:
        return state.M_p, M_e_pct, state.t_eq / 3600.0, ["kinetics_stalled"]
    if M_0 <= M_e or state.M_p <= M_e:
        return state.M_p, M_e_pct, state.t_eq / 3600.0, ["at_or_above_equilibrium"]

    constants = kinetics.drying_constants(T_c, rh)
    flags = ["kinetics_extrapolated"] if constants.extrapolated else []
    M_new, t_eq_h = kinetics.step_moisture(state.M_p, M_e, M_0, constants, k.dt)
    return M_new, M_e_pct, t_eq_h, flags


def step(state: SimState, weather_end: WeatherRecord, cfg: DryerConfig,
         k: StepConstants | None = None) -> tuple[SimState, StepDiagnostics]:
    """Advance one implicit step of length cfg.numerics.dt, with the
    weather record sampled at the END of the step.  k is
    step_constants(cfg), built here when the caller does not pass it
    (simulate builds it once per run)."""
    if k is None:
        k = step_constants(cfg)
    dt = k.dt
    flags: list[str] = []

    rh, rh_clamped = relative_humidity(state.H, state.T_a, k.P)
    if rh_clamped:
        flags.append("rh_clamped")

    M_new, M_e_pct, t_eq_h, kin_flags = _kinetics_update(state, k, rh)
    flags += kin_flags
    dM = M_new - state.M_p

    air = air_properties(state.T_a)
    coeffs = assemble_coefficients(state, weather_end, k, air)
    flags += coeffs.flags

    A, b = energy_system(state, coeffs, weather_end, k, dM / dt, air)
    for name, row, rhs in zip(BALANCES, A, b):
        if not all(map(math.isfinite, (*row, rhs))):
            raise SimulationError(f"non-finite {name} balance: row {row}, rhs {rhs}")
    x = eliminate(A, b)
    if not all(map(math.isfinite, x)):
        raise SimulationError(f"non-finite temperatures {x}")
    T_c, T_a, T_p, T_f = x

    H_new = moisture_balance(state.H, dM, k, air.rho, air.rho * k.V)
    if H_new < 0.0:
        H_new = 0.0
        flags.append("humidity_floor_clamped")
    H_sat = saturation_humidity_ratio(T_a, k.P)
    if H_new > H_sat:
        H_new = H_sat
        flags.append("humidity_saturation_clamped")

    # per balance: residual sum(row * x) - rhs and the largest term magnitude
    residuals = []
    max_terms = []
    for (a0, a1, a2, a3), rhs in zip(A, b):
        t0, t1, t2, t3 = a0 * T_c, a1 * T_a, a2 * T_p, a3 * T_f
        residuals.append(t0 + t1 + t2 + t3 - rhs)
        max_terms.append(max(abs(t0), abs(t1), abs(t2), abs(t3), abs(rhs)))

    t = state.t + dt
    new_state = SimState(t, T_c, T_a, T_p, T_f, H_new, M_new, M_e_pct,
                         t_eq_h * 3600.0)
    diag = StepDiagnostics(t, tuple(residuals), tuple(max_terms), dM, rh,
                           coeffs, tuple(flags))
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

    k = step_constants(cfg)
    state = initial_state(cfg, weather)
    series = SimSeries(states=[state], diagnostics=[])
    for i in range(n_steps):
        t_new = t0 + (i + 1) * dt
        w = sample(weather, min(t_new, weather.t_end))
        try:
            state, diag = step(state, w, cfg, k)
        except GreendryError as exc:
            raise SimulationError(f"step {i + 1} (t={t_new} s): {exc}") from exc
        series.states.append(state)
        series.diagnostics.append(diag)
        if target_mdb is not None and state.M_p <= target_mdb:
            break
    return series
