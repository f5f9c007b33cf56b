import warnings

import pytest
from hypothesis import given, strategies as st

import greendry.solver

from greendry.coefficients import (
    SIGMA,
    _convective,
    _radiative,
    _sky,
    hydraulic_diameter,
    wind_coefficient,
)
from greendry.config import Kinetics, apply_overrides
from greendry.core import AirProps, SimState, WeatherRecord, relative_humidity
from greendry.errors import RangeError
from greendry.solver import energy_system, step, stepper


class TestSkyTemperature:
    def test_default_coefficient(self):
        T_s, physical = _sky(300.0, 300.0**1.5, 0.0552)
        assert T_s == pytest.approx(286.83, abs=0.01) and physical

    def test_literal_published_coefficient_is_flagged(self):
        T_s, physical = _sky(300.0, 300.0**1.5, 0.552)
        assert T_s == pytest.approx(2868.3, abs=0.1) and not physical

    def test_zero_coefficient_is_flagged(self):
        assert _sky(300.0, 300.0**1.5, 0.0) == (0.0, False)

    def test_default_stays_below_ambient(self):
        c_sky = Kinetics._field_defaults["c_sky"]
        for T_am in map(float, range(251, 330)):
            T_s, physical = _sky(T_am, T_am**1.5, c_sky)
            assert T_s < T_am and physical


class TestRadiativeCoefficient:
    def test_zero_emissivity(self):
        assert _radiative(0.0, 300.0, 280.0) == 0.0

    def test_equal_temperature_collapse(self):
        # collapses to 4 sigma T^3 at equal temperatures
        assert _radiative(SIGMA, 300.0, 300.0) == pytest.approx(
            4 * SIGMA * 300.0**3, rel=1e-12
        )
        assert 4 * SIGMA * 300.0**3 == pytest.approx(6.124, abs=1e-3)

    def test_hand_case(self):
        assert _radiative(0.9 * SIGMA, 310.0, 287.0) == pytest.approx(5.44, abs=0.01)

    @given(st.floats(0.0, 1.0), st.floats(200.0, 400.0), st.floats(200.0, 400.0))
    def test_symmetric(self, eps, T1, T2):
        assert _radiative(eps * SIGMA, T1, T2) == _radiative(eps * SIGMA, T2, T1)

    @given(st.floats(0.01, 1.0), st.floats(200.0, 400.0), st.floats(200.0, 400.0))
    def test_linear_in_emissivity(self, eps, T1, T2):
        full = _radiative(SIGMA, T1, T2)
        assert _radiative(eps * SIGMA, T1, T2) == pytest.approx(eps * full, rel=1e-12)

    @pytest.mark.parametrize("T1, T2", [(0.0, 280.0), (300.0, -5.0)])
    def test_non_positive_temperature_raises_range_error(self, T1, T2):
        with pytest.raises(RangeError, match="> 0 K"):
            _radiative(0.9 * SIGMA, T1, T2)


class TestWindCoefficient:
    @pytest.mark.parametrize("V_w,expected", [(0.0, 5.7), (1.0, 9.5), (2.5, 15.2)])
    def test_values(self, V_w, expected):
        assert wind_coefficient(V_w) == pytest.approx(expected, rel=1e-12)

    @given(st.floats(0.0, 30.0), st.floats(0.0, 30.0))
    def test_affine(self, a, b):
        assert wind_coefficient(a) + wind_coefficient(b) - 5.7 == pytest.approx(
            wind_coefficient(a + b), rel=1e-9, abs=1e-9
        )


class TestHydraulicDiameter:
    def test_square_symmetry(self):
        assert hydraulic_diameter(3.0, 3.0) == pytest.approx(3.0, rel=1e-12)

    @pytest.mark.parametrize("W,D,expected", [(4.0, 2.0, 8 / 3), (8.0, 2.0, 3.2)])
    def test_values(self, W, D, expected):
        assert hydraulic_diameter(W, D) == pytest.approx(expected, rel=1e-12)


class TestInternalConvective:
    AIR = AirProps(rho=1.177, cp=1007.0, k=0.028, nu=1.6e-5)

    def test_no_flow_limit(self):
        Re, Nu, h_c = _convective(0.0, 2.0, self.AIR)
        assert Re == 0.0 and Nu == 0.0 and h_c == 0.0

    def test_reynolds(self):
        Re, _, _ = _convective(8 / 3 * 0.5, 8 / 3, self.AIR)
        assert Re == pytest.approx(83333.3, rel=1e-4)

    def test_nusselt_at_1e4(self):
        air = AirProps(rho=1.0, cp=1000.0, k=0.028, nu=1.0)
        Re, Nu, _ = _convective(10_000.0, 1.0, air)
        assert Re == 10_000.0
        assert Nu == pytest.approx(0.0158 * 10**3.2, rel=1e-12)
        assert Nu == pytest.approx(25.04, abs=0.01)

    def test_chained_h_c(self):
        _, Nu, h_c = _convective(8 / 3 * 0.5, 8 / 3, self.AIR)
        assert Nu == pytest.approx(136.6, rel=0.01)
        assert h_c == pytest.approx(1.43, rel=0.01)

    def test_monotone_in_air_speed(self):
        speeds = [0.1 * i for i in range(1, 30)]
        hs = [_convective(2.5 * v, 2.5, self.AIR)[2] for v in speeds]
        assert all(b > a for a, b in zip(hs, hs[1:]))


class TestAssemble:
    """The coefficients that `advance` assembles for a step, read back from
    the energy rows it returns in its work."""

    @staticmethod
    def _state(T=300.0):
        return SimState(t=0.0, T_c=T, T_a=T, T_p=T, T_f=T, H=0.01,
                        M_p=0.5, rh=relative_humidity(0.01, T).value)

    @staticmethod
    def _step(monkeypatch, state, w, cfg):
        """({h_c, h_r_cs, h_r_pc, h_w, T_s} of step(state, w, cfg), its flags).
        h_c is the floor row's -A_f h_c over A_f, h_r_pc the cover row's
        -A_p h_r_pc over A_p, h_w what wind_coefficient gave; the cover
        row's diagonal then gives h_r_cs and its right-hand side T_s."""
        seen = []

        def spy(V_w):
            seen.append(wind_coefficient(V_w))
            return seen[-1]

        monkeypatch.setattr(greendry.solver, "wind_coefficient", spy)
        g, c, dt = cfg.geometry, cfg.cover, cfg.numerics.dt
        f = greendry.solver._forcing(state.t + dt, w.I_t, w.T_am, w.V_w)
        work = stepper(cfg)(state, f)[1]
        (A, b), flags = energy_system(work), work[-1]
        [h_w] = seen
        cover_cap = c.C_c / dt
        h_c = -A[3][1] / g.A_f
        h_r_pc = -A[0][2] / g.A_p
        h_r_cs = (A[0][0] - cover_cap - g.A_p * h_r_pc) / g.A_c - h_c - h_w
        T_s = ((b[0] - cover_cap * state.T_c - g.A_c * h_w * w.T_am
                - g.A_c * c.alpha_c * w.I_t) / (g.A_c * h_r_cs))
        return dict(h_c=h_c, h_r_cs=h_r_cs, h_r_pc=h_r_pc, h_w=h_w, T_s=T_s), flags

    def test_deterministic(self, baseline_cfg, monkeypatch):
        w = WeatherRecord(t=60.0, I_t=500.0, T_am=303.0, V_w=1.5, rh_am=60.0)
        a = self._step(monkeypatch, self._state(), w, baseline_cfg)
        b = self._step(monkeypatch, self._state(), w, baseline_cfg)
        assert a == b

    def test_equal_temperature_radiative_collapse(self, baseline_cfg, monkeypatch):
        # choose ambient so that T_s equals the uniform temperature
        T = 300.0
        T_am = (T / baseline_cfg.kinetics.c_sky) ** (2 / 3)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T_am, V_w=0.0, rh_am=50.0)
        coeffs, _ = self._step(monkeypatch, self._state(T), w, baseline_cfg)
        assert coeffs["T_s"] == pytest.approx(T, rel=1e-12)
        assert coeffs["h_r_cs"] == pytest.approx(
            baseline_cfg.cover.eps_c * 4 * SIGMA * T**3, rel=1e-12)
        assert coeffs["h_r_pc"] == pytest.approx(
            baseline_cfg.product.eps_p * 4 * SIGMA * T**3, rel=1e-12)

    def test_still_night(self, baseline_cfg, monkeypatch):
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=298.0, V_w=0.0, rh_am=70.0)
        coeffs, _ = self._step(monkeypatch, self._state(298.0), w, baseline_cfg)
        assert coeffs["h_w"] == pytest.approx(5.7, rel=1e-12)
        assert coeffs["T_s"] < w.T_am

    def test_non_physical_sky_is_flagged_without_warning(self, baseline_cfg,
                                                         monkeypatch):
        cfg = apply_overrides(baseline_cfg, {"kinetics.c_sky": 0.552})
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs, flags = self._step(monkeypatch, self._state(), w, cfg)
        assert coeffs["T_s"] > w.T_am
        assert "sky_temperature_non_physical" in flags
        assert "sky_temperature_non_physical" not in \
            self._step(monkeypatch, self._state(), w, baseline_cfg)[1]

    @pytest.mark.parametrize("V_a, air_flag", [(0.0, "still_air"),
                                               (0.01, "re_below_turbulent")])
    def test_sky_flag_before_air_flag(self, baseline_cfg, V_a, air_flag):
        cfg = apply_overrides(baseline_cfg, {"kinetics.c_sky": 0.552,
                                             "airflow.V_a": V_a})
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        flags = step(self._state(), w, cfg)[1].flags
        assert [f for f in flags if f in ("sky_temperature_non_physical", "still_air",
                                          "re_below_turbulent")] == [
            "sky_temperature_non_physical", air_flag]

    @pytest.mark.parametrize("T_c, T_p, cover_sky_first", [
        (-5.0, 300.0, True), (0.0, -5.0, True), (300.0, -5.0, False)])
    def test_radiative_range_error_order(self, baseline_cfg, T_c, T_p,
                                         cover_sky_first):
        state = self._state()._replace(T_c=T_c, T_p=T_p)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        T_s = baseline_cfg.kinetics.c_sky * w.T_am**1.5
        with pytest.raises(RangeError) as exc:
            step(state, w, baseline_cfg)
        pair = (T_c, T_s) if cover_sky_first else (T_p, T_c)
        assert str(exc.value) == f"temperatures must be > 0 K, got {pair[0]}, {pair[1]}"
