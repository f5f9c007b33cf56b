import math

import pytest
from hypothesis import given, strategies as st

from greendry.config import Kinetics
from greendry.errors import KineticsError
from greendry.kinetics import (
    drying_constants,
    equilibrium_moisture,
    moisture_ratio,
    rate_constant,
    step_moisture,
    water_activity,
)

MID = dict(T_c=60.0, rh=15.0)


class TestDryingConstants:
    def test_rate_constant_midrange(self):
        assert rate_constant(**MID) == pytest.approx(0.375472, abs=1e-9)

    def test_exponent_midrange(self):
        c = drying_constants(**MID)
        assert c.B1 == pytest.approx(1.076641, abs=1e-9)

    def test_invalid_at_low_temperature(self):
        # A1 crosses zero near 23 C at rh = 15 %; the solver stalls drying
        # there (tests/test_solver.py::TestKineticsStall)
        assert rate_constant(23.0, 15.0) < 0
        assert rate_constant(23.2, 15.0) > 0

    def test_extrapolation_flag(self):
        assert drying_constants(40.0, 15.0).extrapolated
        assert drying_constants(60.0, 30.0).extrapolated
        assert not drying_constants(60.0, 15.0).extrapolated


class TestMoistureRatio:
    def test_at_zero(self):
        assert moisture_ratio(0.0, drying_constants(**MID)) == 1.0

    def test_one_hour(self):
        c = drying_constants(**MID)
        assert moisture_ratio(1.0, c) == pytest.approx(math.exp(-0.375472), abs=1e-9)
        assert moisture_ratio(1.0, c) == pytest.approx(0.6870, abs=1e-4)

    def test_monotone_decay(self):
        c = drying_constants(**MID)
        assert moisture_ratio(10.0, c) < moisture_ratio(5.0, c) < moisture_ratio(1.0, c)

    @given(st.floats(0.0, 100.0))
    def test_bounded(self, t):
        mr = moisture_ratio(t, drying_constants(**MID))
        assert 0.0 < mr <= 1.0


EMC = Kinetics(b0=10.0, b1=-0.05, b2=2.0)


class TestEquilibriumMoisture:
    def test_half_activity_identity(self):
        # the bracket equals 1 at a_w = 0.5
        assert equilibrium_moisture(60.0, 0.5, EMC) == pytest.approx(
            EMC.b0 + EMC.b1 * 60.0, rel=1e-12
        )

    def test_hand_case(self):
        assert equilibrium_moisture(60.0, 0.8, EMC) == pytest.approx(14.0, rel=1e-12)

    @given(st.floats(0.01, 0.99), st.floats(20.0, 70.0))
    def test_round_trip(self, a_w, T):
        M_e = equilibrium_moisture(T, a_w, EMC)
        assert water_activity(M_e, T, EMC) == pytest.approx(a_w, abs=1e-10)

    @pytest.mark.parametrize("a_w", [0.0, 1.0, -0.1, 1.5])
    def test_domain_error(self, a_w):
        with pytest.raises(KineticsError):
            equilibrium_moisture(60.0, a_w, EMC)

    def test_negative_base_rejected(self):
        with pytest.raises(KineticsError):
            equilibrium_moisture(300.0, 0.5, EMC)

    @pytest.mark.parametrize("a_w, b2", [
        (0.83, 3e-06),        # (a_w / (1 - a_w))^(1/b2) overflows in the power
        (0.999, 0.00975),     # the power is finite, the product with b0 + b1 T not
    ])
    def test_overflow_rejected(self, a_w, b2):
        c = Kinetics(b0=EMC.b0, b1=EMC.b1, b2=b2)
        with pytest.raises(KineticsError, match="overflows"):
            equilibrium_moisture(25.0, a_w, c)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf])
    def test_non_finite_temperature_rejected(self, T):
        # named as the temperature, not as an overflow or a negative base
        with pytest.raises(KineticsError) as exc:
            equilibrium_moisture(T, 0.5, EMC)
        assert str(exc.value) == (f"equilibrium moisture needs a finite "
                                  f"temperature, got T={T} C")


class TestStepMoisture:
    C = drying_constants(**MID)

    def test_equilibrium_fixed_point(self):
        M_new, _ = step_moisture(0.05, 0.05, 0.522, self.C, 60.0)
        assert M_new == 0.05

    def test_one_hour_from_fresh(self):
        M_new, t_eq = step_moisture(0.522, 0.05, 0.522, self.C, 3600.0)
        expected = 0.05 + math.exp(-0.375472) * 0.472
        assert M_new == pytest.approx(expected, abs=1e-9)
        assert M_new == pytest.approx(0.3743, abs=2e-4)
        assert t_eq == pytest.approx(1.0, abs=1e-12)

    def test_semigroup(self):
        # n steps of dt equal one step of n*dt under constant conditions
        M_direct, _ = step_moisture(0.522, 0.05, 0.522, self.C, 7200.0)
        M = 0.522
        for _ in range(120):
            M, _ = step_moisture(M, 0.05, 0.522, self.C, 60.0)
        assert M == pytest.approx(M_direct, rel=1e-9)

    def test_monotone(self):
        M = 0.522
        for _ in range(200):
            M_new, _ = step_moisture(M, 0.05, 0.522, self.C, 600.0)
            assert M_new <= M
            M = M_new

    def test_closed_form_match_over_55h(self):
        # stepped trajectory vs M(t) = M_e + (M_0 - M_e) exp(-A1 t^B1)
        M_0, M_e = 0.522, 0.05
        M = M_0
        t = 0.0
        worst = 0.0
        for _ in range(55 * 60):
            M, _ = step_moisture(M, M_e, M_0, self.C, 60.0)
            t += 60.0
            closed = M_e + (M_0 - M_e) * moisture_ratio(t / 3600.0, self.C)
            worst = max(worst, abs(M - closed) / closed)
        assert worst < 0.005
