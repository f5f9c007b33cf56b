import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greendry

from greendry.coefficients import CoefficientSet
from greendry.config import config_from_dict
from greendry.core import SimState, WeatherRecord, air_properties, humidity_ratio
from greendry.errors import SimulationError, SingularMatrixError, WeatherError
from greendry.solver import (
    BALANCES,
    LinearSystem,
    eliminate,
    energy_system,
    gauss_jordan,
    initial_state,
    moisture_balance,
    simulate,
    step,
    step_constants,
)
from greendry.weather import WeatherSeries, sample, synthetic_days

BASE = {
    "geometry": {"W": 2.0, "D": 1.0, "A_c": 10.0, "A_f": 8.0, "A_p": 6.0,
                 "V": 8.0, "D_p": 0.02},
    "cover": {"m_c": 5.0, "C_pc": 2300.0, "alpha_c": 0.05, "tau_c": 0.85,
              "eps_c": 0.4, "k_c": 0.33, "delta_c": 0.05},
    "floor": {"alpha_f": 0.6, "k_f": 1.7, "h_dfg": 3.0, "T_deep": 298.0},
    "product": {"m_p": 36.0, "rho_p": 300.0, "C_pp": 1700.0, "C_pl": 4186.0,
                "C_pv": 1880.0, "alpha_p": 0.6, "eps_p": 0.9, "L_p": 2.358e6,
                "M_0_pct": 52.2, "F_p": 0.5},
    "airflow": {"V_in": 0.1, "V_out": 0.1, "V_a": 1.0, "T_in": 301.0,
                "H_in": 0.012},
    "kinetics": {"b0": 12.0, "b1": -0.1, "b2": 3.0, "c_sky": 0.0552},
    "numerics": {"dt": 60.0},
}


def make_cfg(**section_overrides):
    data = {k: dict(v) for k, v in BASE.items()}
    for section, fields in section_overrides.items():
        data[section].update(fields)
    return config_from_dict(data)


def make_state(T=300.0, H=0.01, M_p=0.4, t=0.0):
    return SimState(t=t, T_c=T, T_a=T, T_p=T, T_f=T, H=H, M_p=M_p,
                    M_e_current=8.0, t_eq=0.0)


def zero_coeffs(**kw):
    base = dict(h_r_cs=0.0, h_r_pc=0.0, h_w=0.0, h_c=0.0, U_c=0.0,
                T_s=280.0, D_h=1.0, Re=0.0, Nu=0.0)
    base.update(kw)
    return CoefficientSet(**base)


def balance(name, state, coeffs, w, cfg, dmdt=0.0):
    """(row, rhs) of one balance of the energy system, with the air
    properties at the state's air temperature."""
    A, b = energy_system(state, coeffs, w, step_constants(cfg), dmdt,
                         air_properties(state.T_a))
    i = BALANCES.index(name)
    return A[i], b[i]


class TestGaussJordan:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = gauss_jordan(LinearSystem(A=np.eye(3), b=b))
        assert np.allclose(x, b, rtol=0, atol=0)

    def test_hand_case(self):
        x = gauss_jordan(LinearSystem(A=np.array([[2.0, 1.0], [1.0, 3.0]]),
                                      b=np.array([4.0, 7.0])))
        assert x == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_singular_raises_with_column(self):
        with pytest.raises(SingularMatrixError) as exc:
            gauss_jordan(LinearSystem(A=np.array([[1.0, 2.0], [2.0, 4.0]]),
                                      b=np.array([1.0, 2.0])))
        assert exc.value.column == 1

    def test_needs_pivoting(self):
        A = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = gauss_jordan(LinearSystem(A=A, b=np.array([2.0, 5.0])))
        assert x == pytest.approx([5.0, 2.0])

    def test_residual_small(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        b = rng.uniform(-1, 1, 4)
        x = gauss_jordan(LinearSystem(A=A, b=b))
        assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)


def _numpy_gauss_jordan(A, b):
    """The array elimination the list kernel replaced, kept as its
    bit-for-bit reference."""
    n = len(b)
    aug = np.hstack([np.array(A, float), np.array(b, float).reshape(n, 1)])
    for col in range(n):
        pivot_row = col + int(np.argmax(np.abs(aug[col:, col])))
        pivot = aug[pivot_row, col]
        if abs(pivot) < 1e-12:
            raise SingularMatrixError(column=col, pivot=pivot)
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col] /= aug[col, col]
        for row in range(n):
            if row != col and aug[row, col] != 0.0:
                aug[row] -= aug[row, col] * aug[col]
    return aug[:, n]


def _outcome(solve, A, b):
    try:
        return [float(v).hex() for v in solve(A, b)]
    except SingularMatrixError as exc:
        return ("singular", exc.column, float(exc.pivot).hex())


class TestEliminate:
    def test_bit_identical_to_array_elimination(self):
        rng = np.random.default_rng(42)
        singular = 0
        for k in range(1000):
            if k % 3 == 0:    # well-conditioned, pivots mostly on the diagonal
                A = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
            elif k % 3 == 1:  # general: row swaps in most columns
                A = rng.uniform(-1e3, 1e3, (4, 4))
            else:             # small integers: tied pivots, zero factors
                A = rng.integers(-2, 3, (4, 4)).astype(float)
                A[0, 0], A[1, 0] = 2.0, -2.0   # tie: the first maximum wins
            b = rng.uniform(-1, 1, 4)
            A_list, b_list = A.tolist(), b.tolist()
            got = _outcome(eliminate, A_list, b_list)
            assert got == _outcome(_numpy_gauss_jordan, A, b), (A_list, b_list)
            assert (A_list, b_list) == (A.tolist(), b.tolist())  # inputs untouched
            singular += isinstance(got, tuple)
        assert 0 < singular < 333  # both outcomes occur

    def test_zero_factor_rows_are_skipped(self):
        # 0 * inf would turn row 1 into NaN if its zero factor were applied
        A, b = [[1.0, 0.5], [0.0, 1.0]], [math.inf, 2.0]
        assert eliminate(A, b) == [math.inf, 2.0]
        assert _outcome(eliminate, A, b) == _outcome(_numpy_gauss_jordan, A, b)


class TestLinearSystem:
    @pytest.mark.parametrize("A, b", [
        ([[1.0, 2.0], [3.0]], [1.0, 2.0]),             # ragged
        ([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]], [1.0, 2.0]),  # not square
        ([[1.0, 2.0], [3.0, 4.0]], [1.0]),             # b too short
        ([[1.0, math.nan], [3.0, 4.0]], [1.0, 2.0]),
        ([[1.0, 2.0], [3.0, 4.0]], [math.inf, 2.0]),
        ([[1.0, 2.0], [-math.inf, 4.0]], [1.0, 2.0]),
    ])
    def test_rejects_bad_input(self, A, b):
        with pytest.raises(ValueError):
            LinearSystem(A=A, b=b)

    def test_stores_lists_of_floats(self):
        system = LinearSystem(A=np.eye(2), b=(1, 2))
        assert system.A == [[1.0, 0.0], [0.0, 1.0]] and system.b == [1.0, 2.0]
        assert all(type(v) is float for row in system.A for v in row)


def test_cli_import_does_not_load_numpy():
    src = str(Path(greendry.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import greendry.cli; "
            "print('numpy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code, src], check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"


class TestCoverBalance:
    def test_isothermal_zero_residual(self):
        cfg = make_cfg()
        T = 300.0
        state = make_state(T)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        coeffs = zero_coeffs(h_c=3.0, h_r_cs=5.0, h_r_pc=4.0, h_w=5.7, T_s=T)
        row, rhs = balance("cover", state, coeffs, w, cfg)
        assert row @ np.full(4, T) - rhs == pytest.approx(0.0, abs=1e-9)

    def test_transparent_cover_has_no_solar_source(self):
        cfg = make_cfg(cover={"alpha_c": 0.0})
        state = make_state()
        sunny = WeatherRecord(t=60.0, I_t=900.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dark = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        coeffs = zero_coeffs()
        _, rhs_sun = balance("cover", state, coeffs, sunny, cfg)
        _, rhs_dark = balance("cover", state, coeffs, dark, cfg)
        assert rhs_sun == rhs_dark

    def test_explicit_euler_oracle(self):
        # decoupled cover with 100 W absorbed, m_c C_pc = 2000 J/K, dt = 10 s
        cfg = make_cfg(cover={"m_c": 1.0, "C_pc": 2000.0, "alpha_c": 0.1},
                       geometry={"A_c": 10.0}, numerics={"dt": 10.0})
        state = make_state(300.0)
        w = WeatherRecord(t=10.0, I_t=100.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        row, rhs = balance("cover", state, zero_coeffs(), w, cfg)
        T_c_new = rhs / row[0]
        assert T_c_new - 300.0 == pytest.approx(0.5, rel=1e-12)


class TestAirBalance:
    def test_closed_isothermal_box(self):
        cfg = make_cfg(airflow={"V_in": 0.0, "V_out": 0.0})
        T = 300.0
        state = make_state(T)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        coeffs = zero_coeffs(h_c=2.0, U_c=5.0)
        row, rhs = balance("air", state, coeffs, w, cfg)
        assert row @ np.full(4, T) - rhs == pytest.approx(0.0, abs=1e-9)

    def test_full_absorption_kills_solar_term(self):
        # F_p = 1 and alpha_p = 1 zero the transmitted-solar bracket
        cfg = make_cfg(product={"F_p": 1.0, "alpha_p": 1.0})
        state = make_state()
        sunny = WeatherRecord(t=60.0, I_t=900.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dark = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        _, rhs_sun = balance("air", state, zero_coeffs(), sunny, cfg)
        _, rhs_dark = balance("air", state, zero_coeffs(), dark, cfg)
        assert rhs_sun == rhs_dark

    def test_pure_ventilation_moves_toward_inlet(self):
        dt = 1.0
        cfg = make_cfg(airflow={"V_in": 0.05, "V_out": 0.05, "T_in": 310.0},
                       cover={"k_c": 0.0}, numerics={"dt": dt})
        T0 = 300.0
        state = make_state(T0)
        w = WeatherRecord(t=1.0, I_t=0.0, T_am=T0, V_w=0.0, rh_am=50.0)
        air = air_properties(T0)
        m_a = air.rho * cfg.geometry.V
        row, rhs = balance("air", state, zero_coeffs(), w, cfg)
        T_new = (rhs - 0.0) / row[1]
        euler = T0 + dt * air.rho * air.cp * 0.05 * (310.0 - T0) / (m_a * air.cp)
        assert T0 < T_new < 310.0
        assert T_new == pytest.approx(euler, rel=1e-4)


class TestProductBalance:
    def test_inert_isothermal_zero_residual(self):
        cfg = make_cfg()
        T = 300.0
        state = make_state(T)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        coeffs = zero_coeffs(h_c=2.0, h_r_pc=5.0)
        row, rhs = balance("product", state, coeffs, w, cfg)
        assert row @ np.full(4, T) - rhs == pytest.approx(0.0, abs=1e-9)

    def test_effective_heat_capacity(self):
        cfg = make_cfg(product={"m_p": 100.0, "C_pp": 2000.0, "C_pl": 4186.0})
        state = make_state(300.0, M_p=0.522)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dt = 60.0
        row, _ = balance("product", state, zero_coeffs(), w, cfg)
        cap = 100.0 * (2000.0 + 4186.0 * 0.522)
        assert cap == pytest.approx(418_509.2, rel=1e-9)
        assert row[2] == pytest.approx(cap / dt, rel=1e-12)

    def test_latent_sink_cools_product(self):
        cfg = make_cfg()
        state = make_state(320.0)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=320.0, V_w=0.0, rh_am=50.0)
        dmdt = -1e-5
        row, rhs = balance("product", state, zero_coeffs(), w, cfg, dmdt)
        T_new = rhs / row[2]
        assert T_new < 320.0


class TestFloorBalance:
    def test_isothermal_fixed_point(self):
        cfg = make_cfg(floor={"T_deep": 300.0})
        state = make_state(300.0)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        row, rhs = balance("floor", state, zero_coeffs(h_c=4.0), w, cfg)
        T_f = (rhs + -row[1] * 300.0) / row[3]
        assert T_f == pytest.approx(300.0, rel=1e-12)

    def test_hand_solution(self):
        # h_dfg=2, h_c=4, T_deep=290, T_a=300, absorbed 120 W/m^2 of floor
        cfg = make_cfg(
            floor={"h_dfg": 2.0, "T_deep": 290.0, "alpha_f": 0.6},
            product={"F_p": 0.0},
            cover={"alpha_c": 0.0, "tau_c": 1.0},
            geometry={"A_c": 8.0, "A_f": 8.0},
        )
        state = make_state(300.0)
        w = WeatherRecord(t=60.0, I_t=200.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        row, rhs = balance("floor", state, zero_coeffs(h_c=4.0), w, cfg)
        T_f = (rhs - row[1] * 300.0) / row[3]
        assert T_f == pytest.approx((2 * 290 + 4 * 300 + 120) / 6.0, rel=1e-12)

    def test_shaded_floor_has_no_solar(self):
        cfg = make_cfg(product={"F_p": 1.0})
        state = make_state()
        sunny = WeatherRecord(t=60.0, I_t=900.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dark = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        _, rhs_sun = balance("floor", state, zero_coeffs(h_c=2.0), sunny, cfg)
        _, rhs_dark = balance("floor", state, zero_coeffs(h_c=2.0), dark, cfg)
        assert rhs_sun == rhs_dark

    def test_no_floor_conductance_is_singular(self):
        cfg = make_cfg(floor={"h_dfg": 0.0})
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        with pytest.raises(SimulationError, match="floor row singular"):
            balance("floor", make_state(), zero_coeffs(), w, cfg)


class TestMoistureBalance:
    def test_steady_identity(self):
        cfg = make_cfg(airflow={"H_in": 0.01})
        H_new = moisture_balance(0.01, 0.0, step_constants(cfg), 1.18, 10.0)
        assert H_new == pytest.approx(0.01, rel=1e-12)

    def test_sealed_conservation(self):
        cfg = make_cfg(airflow={"V_in": 0.0, "V_out": 0.0})
        m_a, dM = 10.0, -0.002
        H_new = moisture_balance(0.01, dM, step_constants(cfg), 1.18, m_a)
        evap = -cfg.product.rho_p * cfg.geometry.A_p * cfg.geometry.D_p * dM
        assert m_a * (H_new - 0.01) == pytest.approx(evap, rel=1e-12)

    def test_hand_case(self):
        cfg = make_cfg(airflow={"V_in": 0.0, "V_out": 0.0},
                       product={"rho_p": 250.0},
                       geometry={"A_p": 10.0, "D_p": 0.02})
        # rho_p A_p D_p = 50 kg, dM = -0.01, m_a = 30 -> dH = 0.5/30
        H_new = moisture_balance(0.01, -0.01, step_constants(cfg), 1.18, 30.0)
        assert H_new - 0.01 == pytest.approx(0.5 / 30.0, rel=1e-12)


class TestStep:
    def test_global_fixed_point(self):
        T = 300.0
        cfg = make_cfg(
            airflow={"V_in": 0.0, "V_out": 0.0},
            floor={"T_deep": T},
            kinetics={"c_sky": T**-0.5},  # T_s == T: no net sky exchange
        )
        H = humidity_ratio(50.0, T)
        state = SimState(t=0.0, T_c=T, T_a=T, T_p=T, T_f=T, H=H,
                         M_p=0.05, M_e_current=9.3, t_eq=0.0)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        new, diag = step(state, w, cfg)
        for name in ("T_c", "T_a", "T_p", "T_f"):
            assert getattr(new, name) == pytest.approx(T, abs=1e-9)
        assert new.H == pytest.approx(H, abs=1e-12)
        assert new.M_p == state.M_p

    def test_deterministic(self, baseline_cfg):
        w = WeatherRecord(t=60.0, I_t=600.0, T_am=303.0, V_w=1.0, rh_am=60.0)
        state = make_state(302.0, H=0.012, M_p=0.5)
        a, _ = step(state, w, baseline_cfg)
        b, _ = step(state, w, baseline_cfg)
        assert a == b

    def test_residuals_recorded(self, baseline_cfg):
        w = WeatherRecord(t=60.0, I_t=600.0, T_am=303.0, V_w=1.0, rh_am=60.0)
        state = make_state(302.0, H=0.012, M_p=0.5)
        _, diag = step(state, w, baseline_cfg)
        assert len(diag.residuals) == 4
        for res, scale in zip(diag.residuals, diag.max_terms):
            assert abs(res) <= 1e-6 * scale


class TestSimulate:
    def test_zero_horizon(self, baseline_cfg, tropical_weather):
        series = simulate(baseline_cfg, tropical_weather, horizon_s=0.0)
        assert len(series.states) == 1
        assert series.states[0].M_p == baseline_cfg.M_0

    def test_equilibrium_charge_stays_constant(self, tropical_weather):
        # initial moisture below any reachable equilibrium: no drying
        cfg = make_cfg(product={"M_0_pct": 1.0})
        series = simulate(cfg, tropical_weather, horizon_s=6 * 3600.0)
        assert all(s.M_p == cfg.M_0 for s in series.states)

    def test_horizon_beyond_weather_rejected(self, baseline_cfg):
        w = synthetic_days(1)
        with pytest.raises(WeatherError):
            simulate(baseline_cfg, w, horizon_s=2 * 86400.0)

    def test_initial_state_from_first_record(self, baseline_cfg, tropical_weather):
        s0 = initial_state(baseline_cfg, tropical_weather)
        w0 = tropical_weather.records[0]
        assert s0.T_c == s0.T_a == s0.T_p == s0.T_f == w0.T_am
        assert s0.H == pytest.approx(humidity_ratio(w0.rh_am, w0.T_am), rel=1e-12)

    def test_baseline_bits(self, baseline_cfg, tropical_weather):
        # float.hex of the 4-day baseline's states, as recorded before the
        # per-run constants were hoisted out of the step: any regrouping of
        # the step's floating-point products changes these bits.  The last
        # state alone can hide a change that the digest of all states shows.
        states = simulate(baseline_cfg, tropical_weather).states
        assert {name: float(v).hex() for name, v in states[-1]._asdict().items()} == {
            "t": "0x1.5180000000000p+18",
            "T_c": "0x1.294e9794b8b98p+8",
            "T_a": "0x1.2c738b452efedp+8",
            "T_p": "0x1.2a9bff7ac414cp+8",
            "T_f": "0x1.2b5030c83c482p+8",
            "H": "0x1.cac083126e979p-7",
            "M_p": "0x1.ee5b059fdffbap-5",
            "M_e_current": "0x1.5a5de76959372p+3",
            "t_eq": "0x1.2b06867b07ab7p+17",
        }
        digest = hashlib.sha256()
        for state in states:
            digest.update(" ".join(float(v).hex() for v in state).encode() + b"\n")
        assert digest.hexdigest() == (
            "9103051ef3af6fbaa75348a6e04d355ae1cdc7b5ad0294e301b871b4eb11c573")

    def test_step_without_constants_matches_simulate(self, baseline_cfg,
                                                     tropical_weather):
        series = simulate(baseline_cfg, tropical_weather, horizon_s=720 * 60.0)
        for i in (0, 360, 660, 719):  # midnight, sunrise, late morning, noon
            state = series.states[i]
            w = sample(tropical_weather, state.t + baseline_cfg.numerics.dt)
            assert step(state, w, baseline_cfg) == (series.states[i + 1],
                                                    series.diagnostics[i])

    def test_target_stop(self, baseline_cfg, tropical_weather):
        series = simulate(baseline_cfg, tropical_weather, target_mdb=0.45)
        assert series.states[-1].M_p <= 0.45
        assert series.states[-2].M_p > 0.45
