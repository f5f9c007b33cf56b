import math

import pytest
from hypothesis import given, strategies as st

from greendry.core import (
    AIR_T_MAX,
    AIR_T_MIN,
    SimState,
    air_properties,
    humidity_ratio,
    relative_humidity,
    saturation_pressure,
)
from greendry.errors import RangeError


class TestAirProperties:
    def test_density_at_300K_matches_ideal_gas(self):
        # rho = P / (R T) at 101325 Pa, R = 287.05
        assert air_properties(300.0).rho == pytest.approx(1.1766, abs=2e-3)

    def test_kinematic_viscosity_at_300K(self):
        nu = air_properties(300.0).nu
        assert 1.57e-5 <= nu <= 1.6e-5

    def test_knot_values_exact(self):
        # interpolation at a table knot returns the knot value
        props = air_properties(350.0)
        assert props.cp == 1009.0
        assert props.k == 0.0300
        assert props.nu == 20.92e-6

    @pytest.mark.parametrize("T", [249.99, 360.01, 0.0, 500.0, math.nan])
    def test_out_of_range_raises(self, T):
        with pytest.raises(RangeError) as exc:
            air_properties(T)
        assert "bound" in str(exc.value)

    def test_continuity_at_knots(self):
        eps = 1e-7
        for knot in (300.0, 350.0):
            lo, hi = air_properties(knot - eps), air_properties(knot + eps)
            for name in ("rho", "cp", "k", "nu"):
                assert getattr(lo, name) == pytest.approx(getattr(hi, name), rel=1e-6)

    def test_all_fields_positive_across_range(self):
        T = AIR_T_MIN
        while T <= AIR_T_MAX:
            p = air_properties(T)
            assert p.rho > 0 and p.cp > 0 and p.k > 0 and p.nu > 0
            T += 1.0


@pytest.mark.parametrize("record", [
    SimState(t=0.0, T_c=300.0, T_a=300.0, T_p=300.0, T_f=300.0, H=0.01,
             M_p=0.5, rh=relative_humidity(0.01, 300.0).value),
    air_properties(300.0),
])
def test_records_are_immutable(record):
    field = type(record)._fields[1]
    with pytest.raises(AttributeError):
        setattr(record, field, 0.0)


class TestSaturationPressure:
    def test_boiling_point(self):
        assert saturation_pressure(373.15) == pytest.approx(101325.0, rel=0.01)

    def test_room_temperature_steam_table(self):
        assert saturation_pressure(298.15) == pytest.approx(3169.0, rel=0.01)

    def test_monotone(self):
        temps = [273.15 + 5 * i for i in range(21)]
        values = [saturation_pressure(t) for t in temps]
        assert all(b > a for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("T", [273.0, 374.0])
    def test_out_of_range(self, T):
        with pytest.raises(RangeError):
            saturation_pressure(T)


class TestRelativeHumidity:
    def test_dry_air_is_zero(self):
        assert relative_humidity(0.0, 300.0).value == 0.0

    def test_saturation_is_100(self):
        T = 305.0
        H_sat = humidity_ratio(100.0, T)
        rh, clamped = relative_humidity(H_sat, T)
        assert rh == pytest.approx(100.0, abs=1e-9)
        assert not clamped

    def test_hand_case(self):
        # p_v = 101325*0.01/0.632 = 1603 Pa against p_sat(303.15) ~ 4246 Pa
        rh, _ = relative_humidity(0.010, 303.15, 101325.0)
        assert rh == pytest.approx(38.0, abs=1.0)

    def test_supersaturation_clamps_with_flag(self):
        rh, clamped = relative_humidity(0.5, 280.0)
        assert rh == 100.0 and clamped

    @given(st.floats(min_value=0.01, max_value=99.99),
           st.floats(min_value=280.0, max_value=360.0))
    def test_round_trip(self, rh, T):
        H = humidity_ratio(rh, T)
        back, clamped = relative_humidity(H, T)
        assert not clamped
        assert back == pytest.approx(rh, rel=1e-6)

    def test_negative_humidity_rejected(self):
        with pytest.raises(ValueError):
            relative_humidity(-0.001, 300.0)


def test_humidity_ratio_rejects_bad_rh():
    with pytest.raises(ValueError):
        humidity_ratio(101.0, 300.0)
    with pytest.raises(ValueError):
        humidity_ratio(-1.0, 300.0)


@pytest.mark.parametrize("rh, T, P", [
    (101.0, 300.0, 101325.0),
    (100.0, 310.0, 5000.0),   # p_sat(310 K) ~ 6.2 kPa exceeds the total
])
def test_humidity_ratio_raises_range_error(rh, T, P):
    with pytest.raises(RangeError):
        humidity_ratio(rh, T, P)
