"""Metamorphic physics tests: relations between runs that hold for any
correct drier model, whatever its calibration.  Each asserts only the
relation, never the hours, so it keeps holding when the model's output
changes; a wrong sign or a dropped term that no bit pin can judge breaks it.
They run at a coarse dt of 600 s, where drying times rank design points as
at 60 s."""

import pytest

from greendry.config import apply_overrides
from greendry.sweep import drying_time_objective
from greendry.weather import synthetic_days

TARGET_MDB = 0.08
TAU_C_LADDER = (0.6, 0.7, 0.8, 0.85, 0.86, 0.87, 0.88, 0.9, 0.92)

# (dotted path, increasing values): along each ladder the drying time does
# not decrease
LATER_WITH = (
    # a cover that radiates more loses more heat to the sky
    ("cover.eps_c", (0.1, 0.4, 0.8)),
    # the kinetics read the chamber air's temperature, and the share of the
    # light that misses the charge heats the floor, which heats the air
    ("product.F_p", (0.3, 0.5, 0.7)),
    # a wetter charge has more water to lose
    ("product.M_0_pct", (45.0, 52.2, 60.0, 109.2)),
    # a heavier bed holds more water and dry matter on the same area
    ("product.loading", (1.5, 3.0, 6.0)),
)


@pytest.fixture(scope="module")
def six_days():
    return synthetic_days(6)


def _drying_hours(cfg, weather, path, values):
    return [drying_time_objective(apply_overrides(cfg, {path: v, "numerics.dt": 600.0}),
                                  weather, TARGET_MDB)
            for v in values]


def test_drying_time_does_not_increase_with_cover_transmittance(baseline_cfg, six_days):
    # a cover that lets in more sun never dries the charge later
    hours = _drying_hours(baseline_cfg, six_days, "cover.tau_c", TAU_C_LADDER)
    assert None not in hours, hours
    assert all(later <= earlier for earlier, later in zip(hours, hours[1:])), \
        list(zip(TAU_C_LADDER, hours))


def test_drying_time_does_not_increase_with_cover_absorptance(baseline_cfg, six_days):
    # a cover that absorbs more of the sun, at the same transmittance,
    # is warmer and loses less of the chamber's heat
    ladder = (0.0, 0.06, 0.1)
    hours = _drying_hours(baseline_cfg, six_days, "cover.alpha_c", ladder)
    assert None not in hours, hours
    assert all(later <= earlier for earlier, later in zip(hours, hours[1:])), \
        list(zip(ladder, hours))


@pytest.mark.parametrize("path, ladder", LATER_WITH, ids=[p for p, _ in LATER_WITH])
def test_drying_time_does_not_decrease(baseline_cfg, six_days, path, ladder):
    hours = _drying_hours(baseline_cfg, six_days, path, ladder)
    assert None not in hours, hours
    assert all(later >= earlier for earlier, later in zip(hours, hours[1:])), \
        list(zip(ladder, hours))
