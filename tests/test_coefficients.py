import math
import warnings

import pytest
from hypothesis import given, strategies as st

from greendry.coefficients import (
    SIGMA,
    assemble_coefficients,
    hydraulic_diameter,
    internal_convective,
    overall_cover_loss,
    radiative_coefficient,
    sky_temperature,
    wind_coefficient,
)
from greendry.config import apply_overrides
from greendry.core import AirProps, SimState, WeatherRecord, air_properties
from greendry.errors import ConfigError, ConfigWarning
from greendry.solver import step_constants


class TestSkyTemperature:
    def test_default_coefficient(self):
        assert sky_temperature(300.0, 0.0552) == pytest.approx(286.83, abs=0.01)

    def test_literal_published_coefficient_is_flagged(self):
        with pytest.warns(ConfigWarning):
            T_s = sky_temperature(300.0, 0.552)
        assert T_s == pytest.approx(2868.3, abs=0.1)

    def test_zero_coefficient_is_flagged(self):
        with pytest.warns(ConfigWarning):
            assert sky_temperature(300.0, 0.0) == 0.0

    def test_default_stays_below_ambient(self):
        for T_am in range(251, 330):
            assert sky_temperature(float(T_am)) < T_am


class TestRadiativeCoefficient:
    def test_zero_emissivity(self):
        assert radiative_coefficient(0.0, 300.0, 280.0) == 0.0

    def test_equal_temperature_collapse(self):
        # collapses to 4 sigma T^3 at equal temperatures
        assert radiative_coefficient(1.0, 300.0, 300.0) == pytest.approx(
            4 * SIGMA * 300.0**3, rel=1e-12
        )
        assert 4 * SIGMA * 300.0**3 == pytest.approx(6.124, abs=1e-3)

    def test_hand_case(self):
        assert radiative_coefficient(0.9, 310.0, 287.0) == pytest.approx(5.44, abs=0.01)

    @given(st.floats(0.0, 1.0), st.floats(200.0, 400.0), st.floats(200.0, 400.0))
    def test_symmetric(self, eps, T1, T2):
        assert radiative_coefficient(eps, T1, T2) == radiative_coefficient(eps, T2, T1)

    @given(st.floats(0.01, 1.0), st.floats(200.0, 400.0), st.floats(200.0, 400.0))
    def test_linear_in_emissivity(self, eps, T1, T2):
        full = radiative_coefficient(1.0, T1, T2)
        assert radiative_coefficient(eps, T1, T2) == pytest.approx(eps * full, rel=1e-12)


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
        Re, Nu, h_c = internal_convective(0.0, 2.0, self.AIR)
        assert Re == 0.0 and Nu == 0.0 and h_c == 0.0

    def test_reynolds(self):
        Re, _, _ = internal_convective(0.5, 8 / 3, self.AIR)
        assert Re == pytest.approx(83333.3, rel=1e-4)

    def test_nusselt_at_1e4(self):
        air = AirProps(rho=1.0, cp=1000.0, k=0.028, nu=1.0)
        Re, Nu, _ = internal_convective(10_000.0, 1.0, air)
        assert Re == 10_000.0
        assert Nu == pytest.approx(0.0158 * 10**3.2, rel=1e-12)
        assert Nu == pytest.approx(25.04, abs=0.01)

    def test_chained_h_c(self):
        _, Nu, h_c = internal_convective(0.5, 8 / 3, self.AIR)
        assert Nu == pytest.approx(136.6, rel=0.01)
        assert h_c == pytest.approx(1.43, rel=0.01)

    def test_monotone_in_air_speed(self):
        speeds = [0.1 * i for i in range(1, 30)]
        hs = [internal_convective(v, 2.5, self.AIR)[2] for v in speeds]
        assert all(b > a for a, b in zip(hs, hs[1:]))


class TestOverallCoverLoss:
    def test_thin_film_magnitude(self):
        assert overall_cover_loss(0.33, 200e-6) == pytest.approx(1650.0, rel=1e-12)

    def test_perfect_insulator(self):
        assert overall_cover_loss(0.0, 0.001) == 0.0

    def test_degenerate_thickness(self):
        with pytest.raises(ConfigError):
            overall_cover_loss(0.33, 0.0)


class TestAssemble:
    @staticmethod
    def _state(T=300.0):
        return SimState(t=0.0, T_c=T, T_a=T, T_p=T, T_f=T, H=0.01,
                        M_p=0.5, M_e_current=8.0, t_eq=0.0)

    @staticmethod
    def _assemble(state, w, cfg):
        return assemble_coefficients(state, w, step_constants(cfg),
                                     air_properties(state.T_a))

    def test_deterministic(self, baseline_cfg):
        w = WeatherRecord(t=0.0, I_t=500.0, T_am=303.0, V_w=1.5, rh_am=60.0)
        a = self._assemble(self._state(), w, baseline_cfg)
        b = self._assemble(self._state(), w, baseline_cfg)
        assert a == b

    def test_equal_temperature_radiative_collapse(self, baseline_cfg):
        # choose ambient so that T_s equals the uniform temperature
        T = 300.0
        T_am = (T / baseline_cfg.kinetics.c_sky) ** (2 / 3)
        w = WeatherRecord(t=0.0, I_t=0.0, T_am=T_am, V_w=0.0, rh_am=50.0)
        coeffs = self._assemble(self._state(T), w, baseline_cfg)
        assert coeffs.T_s == pytest.approx(T, rel=1e-12)
        assert coeffs.h_r_cs == pytest.approx(
            baseline_cfg.cover.eps_c * 4 * SIGMA * T**3, rel=1e-12)
        assert coeffs.h_r_pc == pytest.approx(
            baseline_cfg.product.eps_p * 4 * SIGMA * T**3, rel=1e-12)

    def test_still_night(self, baseline_cfg):
        w = WeatherRecord(t=0.0, I_t=0.0, T_am=298.0, V_w=0.0, rh_am=70.0)
        coeffs = self._assemble(self._state(298.0), w, baseline_cfg)
        assert coeffs.h_w == pytest.approx(5.7, rel=1e-12)
        assert coeffs.T_s < w.T_am

    def test_non_physical_sky_is_flagged_without_warning(self, baseline_cfg):
        cfg = apply_overrides(baseline_cfg, {"kinetics.c_sky": 0.552})
        w = WeatherRecord(t=0.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            coeffs = self._assemble(self._state(), w, cfg)
        assert coeffs.T_s > w.T_am
        assert "sky_temperature_non_physical" in coeffs.flags
        assert "sky_temperature_non_physical" not in \
            self._assemble(self._state(), w, baseline_cfg).flags
