import pytest
import yaml
from hypothesis import given, strategies as st

from greendry.analysis import (
    EconomicInputs,
    acceptance_check,
    payback_period,
    percent_difference,
)
from greendry.errors import ComparisonError, EconomicsError

from conftest import CONFIG_DIR


class TestPercentDifference:
    def test_identity_is_zero(self):
        report = percent_difference([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert report.mean_abs_pct == 0.0
        assert report.max_abs_diff == 0.0

    def test_single_point(self):
        assert percent_difference([11.0], [10.0]).mean_abs_pct == pytest.approx(10.0)

    def test_two_point_mean(self):
        report = percent_difference([9.0, 11.0], [10.0, 10.0])
        assert report.mean_abs_pct == pytest.approx(10.0)
        assert report.max_abs_diff == pytest.approx(1.0)
        assert report.n == 2

    def test_length_mismatch(self):
        with pytest.raises(ComparisonError):
            percent_difference([1.0], [1.0, 2.0])

    def test_zero_observed_names_index(self):
        with pytest.raises(ComparisonError, match="index 1"):
            percent_difference([1.0, 1.0], [1.0, 0.0])

    def test_empty(self):
        with pytest.raises(ComparisonError):
            percent_difference([], [])

    @given(st.lists(st.floats(1.0, 100.0), min_size=1, max_size=20),
           st.floats(0.1, 10.0))
    def test_scale_invariant(self, observed, c):
        predicted = [o * 1.05 for o in observed]
        a = percent_difference(predicted, observed)
        b = percent_difference([c * p for p in predicted], [c * o for o in observed])
        assert b.mean_abs_pct == pytest.approx(a.mean_abs_pct, rel=1e-9)


class TestAcceptanceCheck:
    def test_six_percent_moisture_figure_passes(self):
        report = percent_difference([1.06], [1.0])
        assert acceptance_check(report, 10.0)

    def test_three_percent_temperature_figure_passes(self):
        report = percent_difference([1.03], [1.0])
        assert acceptance_check(report, 10.0)

    def test_boundary_exceedance_fails(self):
        report = percent_difference([1.1001], [1.0])
        assert not acceptance_check(report, 10.0)

    def test_monotone_in_limit(self):
        report = percent_difference([1.05], [1.0])
        verdicts = [acceptance_check(report, lim) for lim in (1.0, 5.0, 10.0)]
        assert verdicts == sorted(verdicts)


class TestPayback:
    def test_headline_ratio(self):
        e = EconomicInputs(capital=230.0, operating_cost=0.0,
                           annual_production=100.0, unit_premium=1.0)
        assert payback_period(e) == pytest.approx(2.3, rel=1e-12)

    def test_shipped_cost_fixture(self):
        data = yaml.safe_load((CONFIG_DIR / "economics_copra.yaml").read_text())
        e = EconomicInputs(
            capital=data["capital"], operating_cost=data["operating_cost"],
            annual_production=data["annual_production"],
            unit_premium=data["unit_premium"],
        )
        assert e.annual_production == 250.0  # annual dry-copra output
        assert payback_period(e) == 2.3

    def test_zero_capital_raises(self):
        e = EconomicInputs(capital=0.0, operating_cost=0.0,
                           annual_production=100.0, unit_premium=1.0)
        with pytest.raises(EconomicsError, match=r"^capital must be > 0, got 0\.0$"):
            payback_period(e)

    def test_unprofitable_raises(self):
        e = EconomicInputs(capital=1000.0, operating_cost=500.0,
                           annual_production=100.0, unit_premium=5.0)
        with pytest.raises(EconomicsError):
            payback_period(e)

    @given(st.floats(0.1, 1000.0))
    def test_homogeneous(self, c):
        e = EconomicInputs(capital=11500.0, operating_cost=1000.0,
                           annual_production=250.0, unit_premium=24.0)
        scaled = EconomicInputs(capital=e.capital * c,
                                operating_cost=e.operating_cost * c,
                                annual_production=e.annual_production,
                                unit_premium=e.unit_premium * c)
        assert payback_period(scaled) == pytest.approx(payback_period(e), rel=1e-9)
