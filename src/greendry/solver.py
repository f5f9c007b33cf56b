"""Per-step implicit solution of the coupled energy balances.

Each time step builds four linear equations in the unknowns
[T_c, T_a, T_p, T_f] (cover, chamber air, product, floor), with the
radiative coefficients, air properties and the kinetics-driven moisture
change frozen at the previous step's values so the system is linear,
solves them, and then routes the evaporated water into the air by a
chamber humidity-ratio balance.  One function, `advance`, which
`stepper(cfg)` returns for a run, takes the whole step; its docstring
gives the rows.  It works on plain Python floats, scalar by scalar: it
builds no row or matrix, only the nine entries of the system that vary
and the four right-hand sides, which it passes to the solve as 13
arguments and returns, with dM, rh and flags, as one flat work tuple.
`energy_system(work)` rebuilds the rows (A, b) from it, with the
pattern's structural zeros, for whatever reads rows: `step_diagnostics`,
the error path and the tests.  At 4x4, array set-up would cost more than
the arithmetic, and rows of tuples cost seven tuples a step (four rows,
A, b and the work) where the flat work is one.

`advance` runs straight through, calling per step only `_kinetics_update`
and the solve: it writes out `relative_humidity_at`, the `air_properties`
interpolation, the correlations `_sky`, `_convective` and `_radiative`,
`saturation_pressure` and `vapour_humidity_ratio`, and `_kinetics_update`
the isotherm `equilibrium_moisture` and the Page step of `kinetics`, each
expression as there.  The helpers are the reference: where a bounds check
fails, the step calls the helper to raise its error, and
tests/test_step_reference.py takes every step again through the helpers
and requires the same bits.

The tunnel's coupling fixes the system's zero pattern: cover (x,x,x,0),
air (0,x,x,x), product (x,x,x,0), floor (0,x,0,x).  The air row's T_c
zero rests on a known omission: the cover row carries -A_c h_c on T_a,
but the air row has no T_c term, so the heat the cover exchanges with the
air, A_c h_c (T_c - T_a), is lost (up to ~500 W on the baseline; an
expected failure in test_solver records it).  Two entries appear twice:
the product-cover exchange -A_p h_r_pc is A[0][2] and A[2][0], and the
floor-air exchange -A_f h_c is A[1][3] and A[3][1], so nine entries vary.
`advance` solves the system with `solve_energy_system`, a straight-line
Gauss-Jordan over those scalars, bit-identical to the general
`eliminate`, to which it hands every system whose pivots leave the
diagonal or fall below SINGULAR_PIVOT.  A T_c term in the air row would
need a tenth scalar and a new kernel.

Recording a step is separate: `advance` returns, with the new state,
the work tuple from which `step_diagnostics` records it.  `step` advances
and records one step.  `steps`, the one run loop, yields each
(state, work) pair as `advance` returns it:
`simulate` keeps every state and record; `greendry run` (cli.cmd_run)
streams `steps`, writing each state and step row as it comes and keeping
none; a sweep point keeps only the last two states.

What depends only on the weather and dt is worked out outside the step:
`weather_forcing` yields one `Forcing` per step, the weather interpolated
at the step's end time with T_am**1.5 (for the sky temperature) and the
wind coefficient.  It takes every step time in one `weather.brackets`
walk, interpolating only I_t, T_am and V_w, and `steps` streams it, one
step at a time, so a run keeps no weather table; a sweep builds it as a
tuple once per dt in each process and passes it to every point.  It
checks the step count first: a positive horizon must make 1 to MAX_STEPS
steps of dt.  A state carries its chamber rh, which a step reads and
works out for the new state.

Inputs are checked once, where they enter (`DryerConfig`, `WeatherSeries`);
the physics functions trust them and check only what a step produces.
What depends only on the config is computed once per run:
`stepper(cfg)` works out dt, dt/3600, the pressure, the hydraulic
diameter, the isotherm's b0, b1 and 1/b2, the negated areas and products
of config values such as U_c A_c as its own locals and returns `advance`,
which closes over them and passes the kinetics constants to
`_kinetics_update`; `steps` builds it once per run, and a sweep point in
the process that runs it.  Within a step, a product two rows share,
T_c**2 and A_p h_c, is computed once.  Python evaluates `a * b * c` as
`(a * b) * c`, and floating-point products do not associate, so a
product of config values is hoisted only when it is a left prefix of the
per-step expression: `A_f * h_dfg * T_deep` becomes one constant, but in
`bracket * I_t * A_c * tau_c` only `bracket` can be, since `A_c * tau_c`
would round differently.  A negation is exact, so `-A_p * h_r_pc` may
take the hoisted -A_p.  This keeps every state bit-identical to
evaluating the expressions in full on each step, as
tests/test_step_reference.py does.

The step path pays little interpreter overhead per record.  `advance`
reads the run's constants, the air table and `math`'s functions from its
closure and unpacks its Forcing, the one record it still reads by
position, once into the locals its rows use (`_` for a field it does not
read), where a lookup by field name would cost an attribute access each;
a test in tests/test_step_reference.py holds the names to Forcing's
fields, in order.  `_kinetics_update` takes the state's T_a, M_p and rh
as arguments, and the solve its 13 scalars, so neither reads a record;
the solve compares each pivot magnitude without an `abs` call.  One
`isfinite` over the sum of the entries that vary and the right-hand sides
checks the system.  It builds the new SimState, as `_forcing` builds each
Forcing, with `tuple.__new__` on the field values in order: a NamedTuple
call runs a Python-level `__new__` that takes about 2.5 times as long
(CPython 3.11), and a streamed run builds one SimState and one Forcing
per step.

solver.py stays under 4096 tokens (`tokenize`, without comments and blank
lines): at 4096, CPython 3.11's parser doubles its token array, and a
checkout without bytecode compiles this module in every process, at
~1.4 MiB against ~1.65 MiB of peak memory (tracemalloc on `compile`).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from itertools import repeat
from operator import add, mul
from typing import NamedTuple

from . import kinetics
from .coefficients import (RE_TURBULENT_MIN, SIGMA, _radiative, hydraulic_diameter,
                           wind_coefficient)
from .config import DryerConfig, Kinetics
from .core import (_AIR_TABLE_CP, _AIR_TABLE_K, _AIR_TABLE_NU, _AIR_TABLE_RHO,
                   _AIR_TABLE_T, _EPSILON, AIR_T_MAX, AIR_T_MIN, SATURATION_T_MAX,
                   SimState, WeatherRecord, air_properties, humidity_ratio,
                   relative_humidity, saturation_pressure, vapour_humidity_ratio)
from .errors import GreendryError, SimulationError, SingularMatrixError, WeatherError
from .kinetics import RH_FIT_MAX, RH_FIT_MIN, T_FIT_MAX, T_FIT_MIN
from .weather import WeatherSeries, brackets, sample

# Balance ordering: the rows of every assembled system.
BALANCES = ("cover", "air", "product", "floor")

SINGULAR_PIVOT = 1e-12

# The most steps a run may take: a year at 60 s takes 525 600.
MAX_STEPS = 1_000_000

# builds a NamedTuple (SimState, Forcing) from a tuple of its fields in
# order, without the Python-level __new__ that a keyword-capable call runs
_tuple_new = tuple.__new__

# Water activity is clipped into (0, 1) before the isotherm inversion;
# chamber rh of exactly 0 or 100 % would otherwise be degenerate.
_AW_MIN, _AW_MAX = 1e-6, 1.0 - 1e-6

_INF, _exp, _log = math.inf, math.exp, math.log

# air_properties' table per interval i: (T_i, T_i+1 - T_i) and, for rho, cp,
# k and nu, (v_i, v_i+1 - v_i), the same differences it takes on each call
_AIR_INTERVALS = tuple(
    (_AIR_TABLE_T[i], _AIR_TABLE_T[i + 1] - _AIR_TABLE_T[i],
     *(v for col in (_AIR_TABLE_RHO, _AIR_TABLE_CP, _AIR_TABLE_K, _AIR_TABLE_NU)
       for v in (col[i], col[i + 1] - col[i])))
    for i in range(len(_AIR_TABLE_T) - 1))


class StepDiagnostics(NamedTuple):
    t: float                       # s, end of step
    residuals: tuple[float, ...]   # per balance equation, W
    max_terms: tuple[float, ...]   # largest term magnitude per equation, W
    dM: float                      # moisture change over the step, decimal db
    rh: float                      # chamber rh used for kinetics, %
    flags: tuple[str, ...]


class SimSeries(NamedTuple):
    """Time-indexed simulation record."""

    states: list[SimState]
    diagnostics: list[StepDiagnostics]


def eliminate(A, b) -> list[float]:
    """Solve A x = b by Gauss-Jordan elimination with partial pivoting.

    A is a sequence of n rows of n floats and b a sequence of n floats;
    neither is modified and neither is validated.  For each column the
    pivot is the first entry of largest magnitude on or below the
    diagonal; the pivot row is divided by it, and every other row with a
    non-zero factor in that column subtracts factor x pivot row.  Entries
    left of the pivot column are exactly zero by then and are skipped.
    Raises SingularMatrixError (carrying the offending column) when a
    pivot magnitude falls below 1e-12.

    This is the general solver and the reference of `solve_energy_system`,
    which matches it bit for bit and hands it every system that needs a
    row swap, hits a pivot below 1e-12 or lacks the energy system's zero
    pattern.
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


def energy_system(work):
    """(A, b) of the energy system whose entries that vary and right-hand
    sides open work, in the order `advance` returns them: a00, a01, a02,
    a11, a12, a13, a21, a22, a33, b0, b1, b2, b3.  A[2][0] is a02 and
    A[3][1] is a13 (the product-cover and floor-air exchanges), and the
    pattern's other entries are the structural zeros 0.0."""
    a00, a01, a02, a11, a12, a13, a21, a22, a33, b0, b1, b2, b3 = work[:13]
    return (((a00, a01, a02, 0.0), (0.0, a11, a12, a13), (a02, a21, a22, 0.0),
             (0.0, a13, 0.0, a33)), (b0, b1, b2, b3))


def solve_energy_system(a00, a01, a02, a11, a12, a13, a21, a22, a33, b0, b1, b2, b3):
    """`eliminate(*energy_system(system))` of the energy system given by its
    13 scalars, in energy_system's order, written out for its zero pattern;
    the result, or the SingularMatrixError, is bit-identical for every such
    system.

    Fast path: before each column, the diagonal entry is a first maximum
    of the pivot search with magnitude >= SINGULAR_PIVOT.  It then does
    eliminate's divisions and factor x pivot-row subtractions in
    eliminate's order, structural zeros included, skipping the same zero
    factors, and saves its list copies, loops and pivot searches.  Each
    magnitude is compared without `abs`: m is the diagonal entry or its
    negation, and x > m or -x > m is abs(x) > m, NaN, infinities and signed
    zeros included.  The arguments keep their values, so any other system
    is returned as eliminate of the system they rebuild, which keeps row
    swaps and SingularMatrixError in one implementation.  Partial pivoting
    has not been seen to swap a row of an energy system: the baseline takes
    the fast path on every step."""
    m = a00 if a00 > 0.0 else -a00
    if not (a02 > m or -a02 > m or m < SINGULAR_PIVOT):
        # column 0: row 2's factor is A[2][0] = a02; rows 1 and 3 have none
        r01 = a01 / a00
        r02 = a02 / a00
        r03 = 0.0 / a00
        x0 = b0 / a00
        if a02 != 0.0:
            r21 = a21 - a02 * r01
            r22 = a22 - a02 * r02
            r23 = 0.0 - a02 * r03
            x2 = b2 - a02 * x0
        else:
            r21, r22, r23, x2 = a21, a22, 0.0, b2

        # column 1: row 3's factor is A[3][1] = a13
        m = a11 if a11 > 0.0 else -a11
        if not (r21 > m or -r21 > m or a13 > m or -a13 > m or m < SINGULAR_PIVOT):
            r12 = a12 / a11
            r13 = a13 / a11
            x1 = b1 / a11
            if r01 != 0.0:
                r02 -= r01 * r12
                r03 -= r01 * r13
                x0 -= r01 * x1
            if r21 != 0.0:
                r22 -= r21 * r12
                r23 -= r21 * r13
                x2 -= r21 * x1
            if a13 != 0.0:
                r32 = 0.0 - a13 * r12
                r33 = a33 - a13 * r13
                x3 = b3 - a13 * x1
            else:
                r32, r33, x3 = 0.0, a33, b3

            m = r22 if r22 > 0.0 else -r22
            if not (r32 > m or -r32 > m or m < SINGULAR_PIVOT):
                r23 /= r22
                x2 /= r22
                if r02 != 0.0:
                    r03 -= r02 * r23
                    x0 -= r02 * x2
                if r12 != 0.0:
                    r13 -= r12 * r23
                    x1 -= r12 * x2
                if r32 != 0.0:
                    r33 -= r32 * r23
                    x3 -= r32 * x2

                if not -SINGULAR_PIVOT < r33 < SINGULAR_PIVOT:
                    x3 /= r33
                    if r03 != 0.0:
                        x0 -= r03 * x3
                    if r13 != 0.0:
                        x1 -= r13 * x3
                    if r23 != 0.0:
                        x2 -= r23 * x3
                    return [x0, x1, x2, x3]
    return eliminate(*energy_system((a00, a01, a02, a11, a12, a13, a21, a22, a33,
                                     b0, b1, b2, b3)))


def _kinetics_update(T_a, M_p, rh, M_0, b0, b1, inv_b2, dt_h, kin: Kinetics):
    """The moisture step of dt_h hours from a charge at moisture M_p
    (decimal db) in chamber air at T_a (K) and rh (%), toward the
    equilibrium moisture at that rh, for a charge that started at M_0, with
    the isotherm of kin, whose b0, b1 and 1/b2 the run hoists as b0, b1 and
    inv_b2.

    Returns (M_new, flag), flag None or the step's kinetics flag.
    Drying stalls (dM = 0) when the Page rate constant is non-positive
    (chamber too cold), when the charge is at/below equilibrium, or when
    equilibrium exceeds the initial moisture (degenerate humid-cold
    conditions); rewetting is never modelled.  Then it takes the Page step
    of kinetics.drying_constants and step_moisture.

    `kinetics.equilibrium_moisture` is written out, its water activity
    clipped into [_AW_MIN, _AW_MAX] (a NaN passes through); the helper is
    called only where one of its checks fails, to raise its error, and its
    return value is used as M_e."""
    T_c = T_a - 273.15
    a_w = rh / 100.0
    if a_w < _AW_MIN:
        a_w = _AW_MIN
    elif a_w > _AW_MAX:
        a_w = _AW_MAX
    base = b0 + b1 * T_c
    try:
        M_e = base * (a_w / (1.0 - a_w)) ** inv_b2
    except OverflowError:
        M_e = _INF
    # a non-finite T_c or a NaN a_w makes base non-finite or M_e not < inf
    if not (base > 0.0 and M_e < _INF):
        M_e = kinetics.equilibrium_moisture(T_c, a_w, kin)
    M_e /= 100.0

    A1 = -0.213788 + 0.0101640 * T_c - 0.001372 * rh
    if A1 <= 0.0:
        return M_p, "kinetics_stalled"
    if M_0 <= M_e or M_p <= M_e:
        return M_p, "at_or_above_equilibrium"

    B1 = 1.108816 - 0.0005210 * T_c - 0.000061 * rh
    flag = (None if T_FIT_MIN <= T_c <= T_FIT_MAX and RH_FIT_MIN <= rh <= RH_FIT_MAX
            else "kinetics_extrapolated")
    # the equivalent-time Page step; M_p > M_e, so mr > 0
    mr = (M_p - M_e) / (M_0 - M_e)
    if mr > 1.0:
        mr = 1.0
    t_eq = 0.0 if mr >= 1.0 else (-_log(mr) / A1) ** (1.0 / B1)
    M_new = M_e + _exp(-A1 * (t_eq + dt_h)**B1) * (M_0 - M_e)
    if M_new > M_p:  # guard against roundoff near the fixed point
        M_new = M_p
    return M_new, flag


class Forcing(NamedTuple):
    """What a step needs of the weather at its end time, with the parts of
    the sky and wind terms that depend on the weather alone worked out;
    built by `weather_forcing`."""

    t: float          # s, the end time t0 + i dt of step i
    I_t: float        # solar irradiance on the cover plane, W m^-2
    T_am: float       # ambient temperature, K
    T_am_1_5: float   # T_am**1.5, for the sky temperature
    h_w: float        # wind_coefficient(V_w), W m^-2 K^-1


def _forcing(t: float, I_t: float, T_am: float, V_w: float) -> Forcing:
    return _tuple_new(Forcing, (t, I_t, T_am, T_am**1.5, wind_coefficient(V_w)))


def step_count(weather: WeatherSeries, dt: float, horizon_s: float | None = None) -> int:
    """The steps of dt in horizon_s (default: to the end of the series),
    checked by `WeatherSeries.horizon`; WeatherError unless a positive
    horizon makes 1 to MAX_STEPS of them."""
    horizon = weather.horizon(horizon_s)
    n = horizon / dt + 1e-9
    if horizon and not 1.0 <= n < MAX_STEPS + 1:
        raise WeatherError(f"dt = {dt} s over a horizon of {horizon} s makes "
                           f"{int(n) if n < 1.0 else n:.6g} steps; a run takes "
                           f"1 to {MAX_STEPS}")
    return int(n)


def weather_forcing(weather: WeatherSeries, dt: float,
                    horizon_s: float | None = None) -> Iterator[Forcing]:
    """The Forcing of each step i = 1, 2, ... of a run of step dt over
    horizon_s (default: to the end of the series), interpolated at
    min(t0 + i dt, t_end), as an iterator that takes one step at a time;
    `step_count` checks the horizon and the step count here, at once."""
    return _forcings(weather, dt, step_count(weather, dt, horizon_s))


def _forcings(weather: WeatherSeries, dt: float, n: int) -> Iterator[Forcing]:
    """weather_forcing's n steps: one bracket walk over the step times
    min(t0 + s dt, t_end), with I_t, T_am and V_w interpolated as
    `weather.brackets` says and each Forcing built as `_forcing` builds it."""
    t0, t_end = weather.t_start, weather.t_end
    I, T, V, _ = weather.columns
    ends = map(min, map(add, repeat(t0), map(mul, range(1, n + 1), repeat(dt))),
               repeat(t_end))
    for s, (i, f) in enumerate(brackets(weather.times, ends), start=1):
        if f is None:
            I_t, T_am, V_w = I[i], T[i], V[i]
        else:
            j = i - 1
            I_t = I[j] + f * (I[i] - I[j])
            T_am = T[j] + f * (T[i] - T[j])
            V_w = V[j] + f * (V[i] - V[j])
        yield _tuple_new(Forcing, (t0 + s * dt, I_t, T_am, T_am**1.5,
                                   wind_coefficient(V_w)))


def stepper(cfg: DryerConfig):
    """The step function of a run under cfg, `advance(state, f)`, with the
    run's constants (dt, pressure, the hydraulic diameter, the isotherm's
    b0, b1 and 1/b2, dt in hours, negated areas and products of config
    values such as U_c A_c) worked out here, once, from cfg's seven
    sections, whose values DryerConfig checked.  Each product is a left
    prefix of the per-step expression it enters (see the module docstring)."""
    g, c, fl, p, a, kin, n = (cfg.geometry, cfg.cover, cfg.floor, cfg.product,
                               cfg.airflow, cfg.kinetics, cfg.numerics)
    dt, P = n.dt, n.pressure
    dt_h = dt / 3600.0
    M_0 = cfg.M_0                          # initial moisture, decimal db
    b0, b1, inv_b2 = kin.b0, kin.b1, 1.0 / kin.b2
    c_sky, V_a = kin.c_sky, a.V_a
    D_h = hydraulic_diameter(g.W, g.D)
    D_h_V_a = D_h * V_a
    eps_c_sigma, eps_p_sigma = c.eps_c * SIGMA, p.eps_p * SIGMA
    A_c, A_p, A_f, V, tau_c = g.A_c, g.A_p, g.A_f, g.V, c.tau_c
    minus_A_c, minus_A_p, minus_A_f = -A_c, -A_p, -A_f
    cover_cap = c.C_c / dt
    cover_solar = A_c * c.alpha_c
    A_pf = A_p + A_f
    U_c_A_c = c.U_c * A_c
    m_p = p.loading * A_p                  # dry mass of the charge, kg
    q_m_per_dmdt = m_p * p.C_pv
    air_solar = (1.0 - p.F_p) * (1.0 - fl.alpha_f) + (1.0 - p.alpha_p) * p.F_p
    V_vent, T_in, H_in = a.V_vent, a.T_in, a.H_in
    C_pp, C_pl = p.C_pp, p.C_pl
    latent_per_dmdt = m_p * p.L_p
    product_solar = p.F_p * p.alpha_p
    h_dfg = fl.h_dfg
    floor_deep = A_f * h_dfg * fl.T_deep
    floor_solar = (1.0 - p.F_p) * fl.alpha_f
    minus_m_p = -m_p
    intervals, T_knot_1, T_knot_2 = _AIR_INTERVALS, _AIR_TABLE_T[1], _AIR_TABLE_T[2]
    isfinite, exp, log = math.isfinite, math.exp, math.log

    def advance(state: SimState, f: Forcing):
        """Advance state by one implicit step of length dt to the end time of
        the forcing f, the kinetics at the state's chamber rh.

        It builds A x = b in (T_c, T_a, T_p, T_f), one row per balance of
        BALANCES, from f (I_t, T_am, wind coefficient h_w), the sky temperature
        T_s and, in W m^-2 K^-1, h_c (convective: cover-air = floor-air =
        product-air), h_r_cs (cover-sky) and h_r_pc (product-cover):

        - cover: backward-difference thermal-mass balance.
        - air: backward-difference balance of the chamber air of mass
          rho_a V.  Ventilation swaps V_vent of inlet air for as much chamber
          air, carrying rho_a C_pa V_vent (T_in - T_a) with the outlet at the
          well-mixed chamber temperature; the sensible moisture term
          m_p C_pv (T_p - T_a) dM/dt keeps the temperatures implicit with
          dM/dt frozen from the kinetics step.
        - product: backward-difference balance with the effective heat
          capacity m_p (C_pp + C_pl M_p) of the dry mass m_p = loading A_p
          and the latent term m_p L_p dM/dt as an explicit sink.
        - floor: quasi-steady algebraic row, conduction to the deep soil
          balancing absorbed solar plus convection from the air, scaled by the
          floor area so the residual is in watts like the other rows; raises
          SimulationError when h_dfg + h_c = 0 makes it singular.

        Then the chamber humidity-ratio balance takes the evaporated water
        (-m_p dM from the product) into the air, V_vent of inlet air replacing
        as much chamber air; the new H is clamped to [0, saturation at new T_a],
        and the new state's rh is that of the new H at the new T_a.

        Returns (new_state, work).  work is one flat tuple, what
        `step_diagnostics` needs to record the step: the nine entries of A
        that vary and the four right-hand sides, in `energy_system`'s order,
        which rebuilds (A, b) from them, then dM, rh and flags."""
        _, I_t, T_am, T_am_1_5, h_w = f
        t, T_c, T_a, T_p, _, H, M_p, rh = state
        flags: list[str] = []

        M_new, kin_flag = _kinetics_update(T_a, M_p, rh, M_0, b0, b1, inv_b2, dt_h, kin)
        if kin_flag:
            flags.append(kin_flag)
        dM = M_new - M_p

        # air_properties(T_a), in the interval its knot search picks
        if not AIR_T_MIN <= T_a <= AIR_T_MAX:
            air_properties(T_a)  # raises its RangeError
        T_lo, width, rho_lo, d_rho, cp_lo, d_cp, k_lo, d_k, nu_lo, d_nu = \
            intervals[(T_a > T_knot_1) + (T_a > T_knot_2)]
        frac = (T_a - T_lo) / width
        rho_a = rho_lo + frac * d_rho
        cp_a = cp_lo + frac * d_cp
        # _sky, _convective and the two _radiative calls
        T_s = c_sky * T_am_1_5
        if not 0.0 < T_s <= T_am:
            flags.append("sky_temperature_non_physical")
        Re = D_h_V_a / (nu_lo + frac * d_nu)
        h_c = 0.0158 * Re**0.8 * (k_lo + frac * d_k) / D_h
        if V_a == 0:
            flags.append("still_air")
        elif Re < RE_TURBULENT_MIN:
            flags.append("re_below_turbulent")
        if T_c <= 0 or T_p <= 0 or T_s <= 0:  # each call raises its RangeError
            _radiative(eps_c_sigma, T_c, T_s)
            _radiative(eps_p_sigma, T_p, T_c)
        T_c2 = T_c * T_c
        h_r_cs = eps_c_sigma * (T_c2 + T_s * T_s) * (T_c + T_s)
        h_r_pc = eps_p_sigma * (T_p * T_p + T_c2) * (T_p + T_c)

        if h_c + h_dfg == 0.0:
            raise SimulationError("floor row singular: h_dfg + h_c = 0")
        dmdt = dM / dt
        q_m = q_m_per_dmdt * dmdt
        A_p_h_c = A_p * h_c
        product_cover = minus_A_p * h_r_pc
        floor_air = minus_A_f * h_c

        # the rows: cover (cover_cover, cover_air, product_cover, 0), air
        # (0, air_air, air_product, floor_air), product (product_cover,
        # product_air, product_product, 0), floor (0, floor_air, 0, floor_floor)
        cover_cover = cover_cap + A_c * (h_c + h_r_cs + h_w) + A_p * h_r_pc
        cover_air = minus_A_c * h_c
        cover_rhs = (cover_cap * T_c + A_c * h_r_cs * T_s
                     + A_c * h_w * T_am + cover_solar * I_t)

        m_a = rho_a * V
        cap = m_a * cp_a / dt
        rho_cp = rho_a * cp_a
        air_air = cap + A_pf * h_c + q_m + rho_cp * V_vent + U_c_A_c
        air_product = -(A_p_h_c + q_m)
        air_rhs = (cap * T_a + rho_cp * V_vent * T_in + U_c_A_c * T_am
                   + air_solar * I_t * A_c * tau_c)

        cap = m_p * (C_pp + C_pl * M_p) / dt
        product_air = -A_p_h_c + q_m
        product_product = cap + A_p * (h_c + h_r_pc) - q_m
        product_rhs = (cap * T_p + latent_per_dmdt * dmdt
                       + product_solar * I_t * A_c * tau_c)

        floor_floor = A_f * (h_dfg + h_c)
        floor_rhs = floor_deep + floor_solar * I_t * A_c * tau_c

        work = (cover_cover, cover_air, product_cover, air_air, air_product, floor_air,
                product_air, product_product, floor_floor,
                cover_rhs, air_rhs, product_rhs, floor_rhs, dM, rh, flags)
        # a finite sum of the nine entries that vary and the four right-hand
        # sides means finite entries; only a non-finite one (or a sum of finite
        # entries that overflows) needs the per-row search
        if not isfinite(cover_cover + cover_air + product_cover + air_air
                        + air_product + floor_air + product_air + product_product
                        + floor_floor + cover_rhs + air_rhs + product_rhs + floor_rhs):
            for name, row, rhs in zip(BALANCES, *energy_system(work)):
                if not all(map(isfinite, (*row, rhs))):
                    raise SimulationError(
                        f"non-finite {name} balance: row {row}, rhs {rhs}")
        T_c, T_a, T_p, T_f = x = solve_energy_system(
            cover_cover, cover_air, product_cover, air_air, air_product, floor_air,
            product_air, product_product, floor_floor,
            cover_rhs, air_rhs, product_rhs, floor_rhs)
        if not isfinite(T_c + T_a + T_p + T_f) and not all(map(isfinite, x)):
            raise SimulationError(f"non-finite temperatures {x}")

        evap = minus_m_p * dM / dt
        # written so that a zero source leaves H bit-exactly unchanged
        dt_m_a = dt / m_a
        H_new = ((H + dt_m_a * (evap + rho_a * V_vent * H_in))
                 / (1.0 + dt_m_a * rho_a * V_vent))
        if not isfinite(H_new):
            raise SimulationError(f"non-finite humidity ratio {H_new}")
        if H_new < 0.0:
            H_new = 0.0
            flags.append("humidity_floor_clamped")
        # saturation_pressure(T_a) and vapour_humidity_ratio(p_sat, T_a, P)
        if not 273.15 <= T_a <= SATURATION_T_MAX:
            saturation_pressure(T_a)  # raises its RangeError
        p_sat = exp(-5.8002206e3 / T_a + 1.3914993 - 4.8640239e-2 * T_a
                    + 4.1764768e-5 * T_a * T_a - 1.4452093e-8 * T_a * T_a * T_a
                    + 6.5459673 * log(T_a))
        if p_sat >= P:
            vapour_humidity_ratio(p_sat, T_a, P)  # raises its RangeError
        H_sat = _EPSILON * p_sat / (P - p_sat)
        if H_new > H_sat:
            H_new = H_sat
            flags.append("humidity_saturation_clamped")
        # relative_humidity_at(H_new, p_sat, P); H_new <= H_sat, so above 100 %
        # only by roundoff
        rh_new = 100.0 * (P * H_new / (_EPSILON + H_new)) / p_sat
        if rh_new > 100.0:
            rh_new = 100.0

        return _tuple_new(SimState, (t + dt, T_c, T_a, T_p, T_f, H_new, M_new, rh_new)), work

    return advance


def step_diagnostics(new_state: SimState, work) -> StepDiagnostics:
    """The record of the step that `advance` took to new_state, from the
    work it returned: per balance of `energy_system(work)`, the residual
    sum(row * x) - rhs and the largest term magnitude, then what the step
    used and flagged."""
    A, b = energy_system(work)
    dM, rh, flags = work[13:]
    _, T_c, T_a, T_p, T_f, *_ = new_state
    residuals = []
    max_terms = []
    for (a0, a1, a2, a3), rhs in zip(A, b):
        t0, t1, t2, t3 = a0 * T_c, a1 * T_a, a2 * T_p, a3 * T_f
        residuals.append(t0 + t1 + t2 + t3 - rhs)
        max_terms.append(max(abs(t0), abs(t1), abs(t2), abs(t3), abs(rhs)))
    return StepDiagnostics(new_state.t, tuple(residuals), tuple(max_terms),
                           dM, rh, tuple(flags))


def step(state: SimState, weather_end: WeatherRecord,
         cfg: DryerConfig) -> tuple[SimState, StepDiagnostics]:
    """Advance one implicit step of length cfg.numerics.dt, with the
    weather record sampled at the END of the step, and record it."""
    f = _forcing(state.t + cfg.numerics.dt, weather_end.I_t, weather_end.T_am,
                 weather_end.V_w)
    new_state, work = stepper(cfg)(state, f)
    return new_state, step_diagnostics(new_state, work)


def initial_state(cfg: DryerConfig, weather: WeatherSeries) -> SimState:
    """All temperatures at the first ambient reading, sampled at the start;
    chamber humidity from ambient rh; moisture at the charge's initial value."""
    w0 = sample(weather, weather.t_start)
    H0 = humidity_ratio(w0.rh_am, w0.T_am, cfg.numerics.pressure)
    rh0, _ = relative_humidity(H0, w0.T_am, cfg.numerics.pressure)
    # the isotherm at the start, only for its errors: steps reports them
    # as step 0's, before the first step would
    a_w = min(max(rh0 / 100.0, _AW_MIN), _AW_MAX)
    kinetics.equilibrium_moisture(w0.T_am - 273.15, a_w, cfg.kinetics)
    return SimState(
        t=w0.t, T_c=w0.T_am, T_a=w0.T_am, T_p=w0.T_am, T_f=w0.T_am,
        H=H0, M_p=cfg.M_0, rh=rh0,
    )


def steps(cfg: DryerConfig, weather: WeatherSeries, horizon_s: float | None = None,
          forcing: Iterable[Forcing] | None = None,
          target_mdb: float | None = None) -> Iterator[tuple[SimState, tuple | None]]:
    """The run from the start of the weather series: (initial_state, None),
    then (new_state, work) of each `advance` up to horizon_s (default: the
    end of the series, which must cover it) or to the first new state with
    M_p <= target_mdb, when given.  A GreendryError of a step is re-raised
    as a SimulationError naming the step and its end time; one of
    initial_state as step 0 at the start time.  forcing, when given, is
    `weather_forcing(weather, cfg.numerics.dt, horizon_s)` built in advance,
    e.g. one tuple that a sweep's points share; by default it is streamed.
    Being a generator, it checks nothing until the first state is asked for.
    """
    if forcing is None:
        forcing = weather_forcing(weather, cfg.numerics.dt, horizon_s)
    advance = stepper(cfg)
    try:
        state = initial_state(cfg, weather)
    except GreendryError as exc:
        raise SimulationError(f"step 0 (t={weather.t_start} s): {exc}") from exc
    yield state, None
    for i, f in enumerate(forcing, start=1):
        try:
            pair = advance(state, f)
        except GreendryError as exc:
            raise SimulationError(f"step {i} (t={f.t} s): {exc}") from exc
        yield pair
        state = pair[0]
        if target_mdb is not None and state[6] <= target_mdb:  # its M_p
            return


def simulate(cfg: DryerConfig, weather: WeatherSeries, horizon_s: float | None = None,
             target_mdb: float | None = None) -> SimSeries:
    """Every state of `steps(cfg, weather, horizon_s, target_mdb=target_mdb)`,
    each step recorded."""
    states, records = [], []
    for state, work in steps(cfg, weather, horizon_s, target_mdb=target_mdb):
        states.append(state)
        if work is not None:
            records.append(step_diagnostics(state, work))
    return SimSeries(states, records)
