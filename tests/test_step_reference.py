"""`solver.advance` and `solver._kinetics_update` evaluate the helpers of
`core`, `coefficients` and `kinetics` written out.  These tests pin the
copies to the helpers: each step is taken again by `reference_advance`
below, which calls them and solves its rows with the general `eliminate`,
and the two must agree bit for bit, errors included (type, text and
order); advance's flat work is compared as the rows `energy_system`
rebuilds from it."""

import ast
import inspect
import math
import sys
import textwrap

import pytest
from hypothesis import example, given, settings, strategies as st

from greendry import kinetics
from greendry.coefficients import (
    RE_TURBULENT_MIN,
    SIGMA,
    _convective,
    _radiative,
    _sky,
    hydraulic_diameter,
    wind_coefficient,
)
from greendry.config import (Airflow, Cover, Floor, Geometry, Kinetics, Numerics, Product,
                             apply_overrides)
from greendry.core import (
    SimState,
    air_properties,
    relative_humidity,
    relative_humidity_at,
    saturation_pressure,
    vapour_humidity_ratio,
)
from greendry.errors import GreendryError, SimulationError
from greendry.solver import (
    _AW_MAX,
    _AW_MIN,
    BALANCES,
    Forcing,
    _kinetics_update,
    eliminate,
    energy_system,
    initial_state,
    stepper,
    weather_forcing,
)

from conftest import unchecked


def reference_kinetics_update(state, cfg, rh):
    """_kinetics_update of a run under cfg through kinetics.rate_constant,
    drying_constants and step_moisture; its flags as a list."""
    T_c = state.T_a - 273.15
    a_w = min(max(rh / 100.0, _AW_MIN), _AW_MAX)
    M_e = kinetics.equilibrium_moisture(T_c, a_w, cfg.kinetics) / 100.0
    M_0 = cfg.M_0

    A1 = kinetics.rate_constant(T_c, rh)
    if A1 <= 0.0:
        return state.M_p, ["kinetics_stalled"]
    if M_0 <= M_e or state.M_p <= M_e:
        return state.M_p, ["at_or_above_equilibrium"]

    constants = kinetics.drying_constants(T_c, rh)
    flags = ["kinetics_extrapolated"] if constants.extrapolated else []
    M_new, _ = kinetics.step_moisture(state.M_p, M_e, M_0, constants,
                                      cfg.numerics.dt)
    return M_new, flags


def reference_advance(state, f, cfg):
    """advance of a run under cfg through reference_kinetics_update,
    air_properties, _sky, _convective, _radiative, eliminate,
    saturation_pressure, vapour_humidity_ratio and relative_humidity_at,
    its work as (A, b, dM, rh, flags), each product of config
    values written out in full where it is used, which the run's constants
    must equal bit for bit.  The new state's H is at most H_sat, so its rh
    exceeds 100 % by roundoff at most, and relative_humidity_at never
    reports a clamp: the step asserts so."""
    g, c, fl, p, a = cfg.geometry, cfg.cover, cfg.floor, cfg.product, cfg.airflow
    dt, P = cfg.numerics.dt, cfg.numerics.pressure
    A_c, A_p, A_f, tau_c = g.A_c, g.A_p, g.A_f, c.tau_c
    D_h = hydraulic_diameter(g.W, g.D)
    I_t, T_am, h_w = f.I_t, f.T_am, f.h_w
    flags = []
    rh = state.rh

    M_new, kin_flags = reference_kinetics_update(state, cfg, rh)
    flags += kin_flags
    dM = M_new - state.M_p

    air = air_properties(state.T_a)
    T_s, sky_physical = _sky(T_am, f.T_am_1_5, cfg.kinetics.c_sky)
    if not sky_physical:
        flags.append("sky_temperature_non_physical")
    Re, _, h_c = _convective(D_h * a.V_a, D_h, air)
    if a.V_a == 0:
        flags.append("still_air")
    elif Re < RE_TURBULENT_MIN:
        flags.append("re_below_turbulent")
    h_r_cs = _radiative(c.eps_c * SIGMA, state.T_c, T_s)
    h_r_pc = _radiative(p.eps_p * SIGMA, state.T_p, state.T_c)

    if h_c + fl.h_dfg == 0.0:
        raise SimulationError("floor row singular: h_dfg + h_c = 0")
    dmdt = dM / dt
    q_m = p.loading * A_p * p.C_pv * dmdt
    product_cover = -A_p * h_r_pc
    floor_air = -A_f * h_c

    cover = (c.C_c / dt + A_c * (h_c + h_r_cs + h_w) + A_p * h_r_pc,
             -A_c * h_c, product_cover, 0.0)
    cover_rhs = (c.C_c / dt * state.T_c + A_c * h_r_cs * T_s
                 + A_c * h_w * T_am + A_c * c.alpha_c * I_t)

    m_a = air.rho * g.V
    cap = m_a * air.cp / dt
    rho_cp = air.rho * air.cp
    air_row = (0.0, cap + (A_p + A_f) * h_c + q_m + rho_cp * a.V_vent + c.U_c * A_c,
               -(A_p * h_c + q_m), floor_air)
    air_rhs = (cap * state.T_a + rho_cp * a.V_vent * a.T_in + c.U_c * A_c * T_am
               + ((1.0 - p.F_p) * (1.0 - fl.alpha_f) + (1.0 - p.alpha_p) * p.F_p)
               * I_t * A_c * tau_c)

    cap = p.loading * A_p * (p.C_pp + p.C_pl * state.M_p) / dt
    product = (product_cover, -A_p * h_c + q_m,
               cap + A_p * (h_c + h_r_pc) - q_m, 0.0)
    product_rhs = (cap * state.T_p + p.loading * A_p * p.L_p * dmdt
                   + p.F_p * p.alpha_p * I_t * A_c * tau_c)

    floor = (0.0, floor_air, 0.0, A_f * (fl.h_dfg + h_c))
    floor_rhs = (A_f * fl.h_dfg * fl.T_deep
                 + (1.0 - p.F_p) * fl.alpha_f * I_t * A_c * tau_c)

    A = (cover, air_row, product, floor)
    b = (cover_rhs, air_rhs, product_rhs, floor_rhs)
    for name, row, rhs in zip(BALANCES, A, b):
        if not all(map(math.isfinite, (*row, rhs))):
            raise SimulationError(f"non-finite {name} balance: row {row}, rhs {rhs}")
    x = eliminate(A, b)
    if not all(map(math.isfinite, x)):
        raise SimulationError(f"non-finite temperatures {x}")
    T_c, T_a, T_p, T_f = x

    evap = -p.loading * A_p * dM / dt
    H_new = ((state.H + dt / m_a * (evap + air.rho * a.V_vent * a.H_in))
             / (1.0 + dt / m_a * air.rho * a.V_vent))
    if not math.isfinite(H_new):
        raise SimulationError(f"non-finite humidity ratio {H_new}")
    if H_new < 0.0:
        H_new = 0.0
        flags.append("humidity_floor_clamped")
    p_sat = saturation_pressure(T_a)
    H_sat = vapour_humidity_ratio(p_sat, T_a, P)
    if H_new > H_sat:
        H_new = H_sat
        flags.append("humidity_saturation_clamped")
    rh_new, clamped = relative_humidity_at(H_new, p_sat, P)
    assert clamped is False

    new_state = SimState(state.t + dt, T_c, T_a, T_p, T_f, H_new, M_new, rh_new)
    return new_state, (A, b, dM, rh, flags)


def _hex(values):
    return tuple(float(v).hex() for v in values)


def _rows(advance):
    """advance with its work as reference_advance's: the (A, b) that
    energy_system rebuilds, then dM, rh and flags."""
    def rows_advance(*args):
        state, work = advance(*args)
        return state, (*energy_system(work), *work[13:])

    return rows_advance


def _outcome(step, *args):
    """The bits of what reference_advance, or an advance wrapped by _rows,
    returns, or the type and text of the error it raises."""
    try:
        state, (A, b, dM, rh, flags) = step(*args)
    except (GreendryError, ValueError) as exc:
        return type(exc), str(exc)
    return (_hex(state), tuple(_hex(row) for row in A), _hex(b), dM.hex(),
            rh.hex(), tuple(flags))


def _kinetics_outcomes(state, cfg):
    """The outcomes of the kinetics of the step from state of a run under
    cfg, by _kinetics_update and by reference_kinetics_update."""
    def outcome(update, *args):
        try:
            M_new, flags = update(state, *args)
        except GreendryError as exc:
            return type(exc), str(exc)
        flags = [flags] if isinstance(flags, str) else flags or []
        return M_new.hex(), tuple(flags)

    kin = cfg.kinetics
    return (outcome(lambda state: _kinetics_update(
                state.T_a, state.M_p, state.rh, cfg.product.M_0_pct / 100.0, kin.b0, kin.b1,
                1.0 / kin.b2, cfg.numerics.dt / 3600.0, kin)),
            outcome(reference_kinetics_update, cfg, state.rh))


def _compare_run(cfg, weather, horizon_s=None):
    """Take every step of a run with advance and with reference_advance from
    the same state, compare them, and return the flags seen."""
    advance = stepper(cfg)
    state = initial_state(cfg, weather)
    seen = set()
    for f in weather_forcing(weather, cfg.numerics.dt, horizon_s):
        got = advance(state, f)
        kinetics_got, kinetics_expected = _kinetics_outcomes(state, cfg)
        assert kinetics_got == kinetics_expected
        assert _outcome(_rows(lambda: got)) == _outcome(reference_advance, state, f, cfg)
        state, work = got
        seen.update(work[-1])
    return seen


def test_baseline_run_matches_the_helpers(baseline_cfg, tropical_weather):
    seen = _compare_run(baseline_cfg, tropical_weather)
    assert {"kinetics_stalled", "kinetics_extrapolated",
            "at_or_above_equilibrium"} <= seen


@pytest.mark.parametrize("override, flag", [
    ({"airflow.V_a": 0.0}, "still_air"),
    ({"airflow.V_a": 0.01}, "re_below_turbulent"),
    ({"kinetics.c_sky": 0.06}, "sky_temperature_non_physical"),
])
def test_off_baseline_runs_match_the_helpers(baseline_cfg, tropical_weather,
                                             override, flag):
    cfg = apply_overrides(baseline_cfg, override)
    assert flag in _compare_run(cfg, tropical_weather, horizon_s=86400.0)


def _case(cfg, T_a=330.0, rh=18.0, M_p=0.5, T_c=None, T_p=None, I_t=500.0,
          T_am=303.0, V_w=1.0, inputs=None):
    """(state, forcing, config) of one step: the chamber at T_a with H such
    that rh comes out about as asked at the saturation pressure p_sat of
    T_a (300 K's below the correlation's range), and the state's rh that of
    H at p_sat; the cover and product at T_c and T_p (default T_a); cfg
    with the config values of inputs, by dotted path, set unchecked."""
    cfg = unchecked(cfg, inputs or {})
    dt, P = cfg.numerics.dt, cfg.numerics.pressure
    p_sat = saturation_pressure(max(T_a, 300.0))
    p_v = rh / 100.0 * p_sat
    H = 0.622 * p_v / (P - p_v)
    state = SimState(0.0, T_a if T_c is None else T_c, T_a,
                     T_a if T_p is None else T_p, T_a, H, M_p,
                     relative_humidity_at(H, p_sat, P).value)
    return state, Forcing(dt, I_t, T_am, T_am**1.5, wind_coefficient(V_w)), cfg


def _outcomes(state, f, cfg):
    """The outcomes of the step from state with the forcing f of a run
    under cfg, by advance and by reference_advance."""
    return _outcome(_rows(stepper(cfg)), state, f), _outcome(reference_advance, state, f, cfg)


# the new rh of a step from a saturated chamber at T_a, and whether the
# expression rounds above 100 % there
_SATURATED_END_RH = {333.18: (100.0, True), 333.15: (100.0, False),
                     333.31: (99.99999999999999, False)}

# the branches the written-out copies take, one case each: the case's
# keywords and the flags of its step
_BRANCHES = [
    (dict(T_a=300.0, rh=50.0), ("kinetics_stalled",)),         # knot 300 K
    (dict(T_a=350.0, rh=20.0), ("kinetics_extrapolated",)),    # knot 350 K
    (dict(T_a=360.0, rh=20.0), ("kinetics_extrapolated",)),    # table's top
    (dict(T_a=333.15, rh=15.0, I_t=0.0, T_am=320.0), ()),      # in the envelope
    (dict(T_a=333.15, rh=15.0, M_p=0.03), ("at_or_above_equilibrium",)),
    # a saturated chamber that ends at H_sat, its rh rounding above 100 %
    # (set to 100 % without a flag), to 100 % and below it
    *((dict(T_a=T_a, rh=100.0),
       ("at_or_above_equilibrium", "humidity_saturation_clamped"))
      for T_a in _SATURATED_END_RH),
    (dict(T_a=333.15, rh=15.0, inputs={"airflow.H_in": -1.0}),
     ("humidity_floor_clamped",)),
    (dict(T_a=333.15, rh=95.0, T_am=290.0, I_t=0.0, V_w=5.0),
     ("kinetics_extrapolated", "humidity_saturation_clamped")),
]


@pytest.mark.parametrize("keywords, flags", _BRANCHES)
def test_branch_matches_the_helpers(baseline_cfg, keywords, flags):
    got, expected = _outcomes(*_case(baseline_cfg, **keywords))
    assert got == expected
    assert got[-1] == flags
    rh = float.fromhex(got[0][7])
    saturated = "humidity_saturation_clamped" in flags
    assert 100.0 - 1e-12 < rh <= 100.0 if saturated else rh < 100.0


@pytest.mark.parametrize("T_a", _SATURATED_END_RH)
def test_saturated_end_rh(baseline_cfg, T_a):
    state, f, cfg = _case(baseline_cfg, T_a=T_a, rh=100.0)
    new, _ = stepper(cfg)(state, f)
    P = cfg.numerics.pressure
    assert new.H == vapour_humidity_ratio(saturation_pressure(new.T_a), new.T_a, P)
    rh = 100.0 * (P * new.H / (0.622 + new.H)) / saturation_pressure(new.T_a)
    assert (new.rh, rh > 100.0) == _SATURATED_END_RH[T_a]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(T_a=st.sampled_from([250.0, 300.0, 350.0, 360.0]) | st.floats(240.0, 370.0),
       rh=st.sampled_from([100.0 * (1 + 1e-13), 100.0 * (1 + 1e-11)])
       | st.floats(0.0, 200.0),
       M_p=st.floats(0.0, 0.6), dT_c=st.floats(-40.0, 40.0),
       dT_p=st.floats(-40.0, 40.0), I_t=st.floats(0.0, 1100.0),
       T_am=st.floats(270.0, 320.0), V_w=st.floats(0.0, 10.0),
       H_in=st.sampled_from([0.014, -0.5]),
       override=st.sampled_from([{}, {"airflow.V_a": 0.0}, {"airflow.V_a": 0.01},
                                 {"kinetics.c_sky": 0.06}]))
@example(T_a=330.0, rh=18.0, M_p=0.5, dT_c=-400.0, dT_p=0.0, I_t=0.0,
         T_am=300.0, V_w=0.0, H_in=0.014, override={})
@example(T_a=330.0, rh=18.0, M_p=0.5, dT_c=0.0, dT_p=-400.0, I_t=0.0,
         T_am=300.0, V_w=0.0, H_in=0.014, override={})
def test_sampled_steps_match_the_helpers(baseline_cfg, T_a, rh, M_p, dT_c, dT_p,
                                         I_t, T_am, V_w, H_in, override):
    cfg = apply_overrides(baseline_cfg, override)
    state, f, cfg = _case(cfg, T_a, rh, M_p, T_a + dT_c, T_a + dT_p, I_t, T_am,
                          V_w, {"airflow.H_in": H_in})
    got, expected = _outcomes(state, f, cfg)
    assert got == expected
    got, expected = _kinetics_outcomes(state, cfg)
    assert got == expected


# the config values whose products, quotients and negations stepper
# hoists: every value of geometry, cover, floor, product and airflow, and of
# kinetics (b0, b1, 1/b2, c_sky) and numerics (dt, dt/3600, pressure)
_SCALED = [(section, name)
           for section, record in (("geometry", Geometry), ("cover", Cover),
                                   ("floor", Floor), ("product", Product),
                                   ("airflow", Airflow), ("kinetics", Kinetics),
                                   ("numerics", Numerics))
           for name in record._fields]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(factors=st.lists(st.floats(0.8, 1.0), min_size=len(_SCALED),
                        max_size=len(_SCALED)))
def test_sampled_configs_match_the_helpers(baseline_cfg, factors):
    # each value of the baseline scaled down by up to 20 %, which keeps
    # every value valid: products of values that are not round numbers
    # round differently when regrouped, so a constant of stepper that is
    # not a left prefix of its expression shows here
    cfg = apply_overrides(baseline_cfg, {
        f"{section}.{name}": getattr(getattr(baseline_cfg, section), name) * factor
        for (section, name), factor in zip(_SCALED, factors)})
    got, expected = _outcomes(*_case(cfg))
    assert got == expected


_BASE = SimState(0.0, 300.0, 300.0, 300.0, 300.0, 0.012, 0.5,
                 relative_humidity(0.012, 300.0).value)


# each error advance raises, with its text: the same at every revision of
# advance that calls the helpers.  k_fields: the config values of the
# case, by dotted path.
@pytest.mark.parametrize("state, k_fields, fixed_M_e, error, text", [
    (_BASE._replace(T_a=240.0), {}, False, "RangeError",
     "air temperature 240.0 K below lower bound 250.0 K"),
    (_BASE._replace(T_a=361.0), {}, False, "RangeError",
     "air temperature 361.0 K above upper bound 360.0 K"),
    # the isotherm sees the NaN before the air table
    (_BASE._replace(T_a=math.nan), {}, False, "KineticsError",
     "equilibrium moisture needs a finite temperature, got T=nan C"),
    (_BASE._replace(T_a=math.nan), {}, True, "RangeError",
     "air temperature nan K outside bounds [250.0, 360.0] K"),
    # cover-sky is checked before product-cover
    (_BASE._replace(T_c=-5.0, T_p=-5.0), {}, False, "RangeError",
     "temperatures must be > 0 K, got -5.0, 286.8276137334061"),
    (_BASE._replace(T_p=-5.0), {}, False, "RangeError",
     "temperatures must be > 0 K, got -5.0, 300.0"),
    (_BASE, {"floor.h_dfg": 0.0, "airflow.V_a": 0.0}, False, "SimulationError",
     "floor row singular: h_dfg + h_c = 0"),
    # the new T_a, below the saturation-pressure correlation
    (_BASE, {"airflow.T_in": 100.0}, False, "RangeError",
     "temperature 190.4618303663118 K below lower bound 273.15 K"),
    (_BASE._replace(rh=relative_humidity(0.012, 300.0, 3000.0).value),
     {"numerics.pressure": 3000.0}, False, "RangeError",
     "vapour pressure 3641.854615821294 Pa at 300.5026821922166 K exceeds "
     "total pressure 3000.0 Pa"),
    # the written-out isotherm: a NaN rh passes the clip, the power
    # overflows, the product with base overflows, base is not positive
    (_BASE._replace(rh=math.nan), {}, False, "KineticsError",
     "water activity must be in (0, 1), got nan"),
    (_BASE._replace(rh=83.0), {"kinetics.b2": 3e-06}, False, "KineticsError",
     "equilibrium moisture overflows at T=26.9 C, a_w=0.83 "
     "(b0=12.0, b1=-0.1, b2=3e-06)"),
    (_BASE._replace(rh=99.917), {"kinetics.b2": 0.01}, False, "KineticsError",
     "equilibrium moisture overflows at T=26.9 C, a_w=0.9992 "
     "(b0=12.0, b1=-0.1, b2=0.01)"),
    (_BASE, {"kinetics.b0": 2.0}, False, "KineticsError",
     "isotherm coefficient b0 + b1*T = -0.6850 <= 0 at T=26.9 C"),
])
def test_error_parity(baseline_cfg, monkeypatch, state, k_fields, fixed_M_e,
                      error, text):
    if fixed_M_e:
        monkeypatch.setattr(kinetics, "equilibrium_moisture",
                            lambda T_c, a_w, c: 8.0)
    advance = stepper(apply_overrides(baseline_cfg, k_fields))
    f = Forcing(60.0, 0.0, 300.0, 300.0**1.5, 5.7)
    with pytest.raises(GreendryError) as exc:
        advance(state, f)
    assert (type(exc.value).__name__, str(exc.value)) == (error, text)


def test_advance_calls_no_other_helper(baseline_cfg, tropical_weather):
    # per step, outside an error path: only _kinetics_update, whose
    # isotherm is written out, and the 4x4 solve
    advance = stepper(baseline_cfg)
    state = initial_state(baseline_cfg, tropical_weather)
    forcing = tuple(weather_forcing(tropical_weather, baseline_cfg.numerics.dt,
                                    86400.0))
    calls = set()

    def profile(frame, event, arg):
        if event == "call" and frame.f_globals.get("__name__", "").startswith("greendry"):
            calls.add(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        for f in forcing:
            state, _ = advance(state, f)
    finally:
        sys.setprofile(None)
    assert calls == {"advance", "_kinetics_update", "solve_energy_system"}


@pytest.mark.parametrize("record, name", [(Forcing, "f")])
def test_advance_unpacks_in_field_order(baseline_cfg, record, name):
    # advance reads f by position: the names it unpacks it into are the
    # record's fields, in order, or _ for a field it does not use
    tree = ast.parse(textwrap.dedent(inspect.getsource(stepper(baseline_cfg))))
    unpacks = [node.targets[0] for node in ast.walk(tree)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Name) and node.value.id == name]
    assert len(unpacks) == 1 and isinstance(unpacks[0], ast.Tuple)
    names = [target.id for target in unpacks[0].elts]
    assert len(names) == len(record._fields)
    assert all(got in ("_", field) for got, field in zip(names, record._fields)), \
        [(got, field) for got, field in zip(names, record._fields) if got not in ("_", field)]
