"""Every config value is a lever that the model can tell apart from the
others.  A value the model only ever uses in one product or ratio with
another is not design data: it is a second knob for one input.  The
measurement: scale each value of the baseline by 1 +- 1e-3, run one
tropical day at dt 600 s, and take the log-sensitivity of every state
field at every state, d ln(state) / d ln(value), by central difference.
That column of numbers is the value's effect on the run.  A value with a
zero column moves nothing; two values whose columns are parallel move the
run alike, so no run can tell them apart.  numerics.dt is left out: it
changes the step grid, so its column compares no like states."""

import math
from itertools import combinations

import pytest

from greendry.config import apply_overrides
from greendry.solver import steps
from greendry.weather import synthetic_days

STEP = 1e-3
DT = 600.0

# The |cos| of two columns above which the values are one lever.  Measured
# on the baseline: the most nearly parallel distinct levers read 0.99987
# (kinetics.b0 and b1, two coefficients of one isotherm) and 0.99956
# (geometry.A_c and cover.tau_c: both scale the transmitted sunlight, but
# A_c also the cover's own exchanges); a pair that enters the model only as
# a product or a ratio, such as a mass and its specific heat, reads 1 to 12
# digits.
PARALLEL = 1.0 - 1e-6

# The one set that stays parallel: W and D enter only through the duct's
# hydraulic diameter D_h = 2 W D / (W + D), and V_a only through
# Re = D_h V_a / nu, so all three act through h_c ~ V_a^0.8 D_h^-0.2 alone.
# They are kept as three design inputs: the tunnel's width, its height and
# the fan's air speed.
DUCT = frozenset({"geometry.W", "geometry.D", "airflow.V_a"})


def _log_states(cfg, weather):
    """ln of every state field but t, at every state of the run."""
    return [math.log(v) for state, _ in steps(cfg, weather) for v in state[1:]]


@pytest.fixture(scope="module")
def columns(baseline_cfg):
    """{dotted path: its log-sensitivity column}, numerics.dt left out."""
    cfg = apply_overrides(baseline_cfg, {"numerics.dt": DT})
    weather = synthetic_days(1)
    scale = math.log1p(STEP) - math.log1p(-STEP)
    out = {}
    for section, values in cfg.to_dict().items():
        for name, value in values.items():
            path = f"{section}.{name}"
            if path == "numerics.dt":
                continue
            up, down = (_log_states(apply_overrides(cfg, {path: value * (1 + s)}),
                                    weather)
                        for s in (STEP, -STEP))
            out[path] = [(u - d) / scale for u, d in zip(up, down)]
    return out


def _cos(a, b):
    return (math.fsum(x * y for x, y in zip(a, b))
            / math.sqrt(math.fsum(x * x for x in a) * math.fsum(y * y for y in b)))


def test_every_value_moves_the_run(columns):
    assert [path for path, col in columns.items() if not any(col)] == []


def test_no_two_values_are_one_lever(columns):
    parallel = [f"{p} ~ {q}: |cos| {c:.12f}"
                for p, q in combinations(columns, 2) if not {p, q} <= DUCT
                for c in [abs(_cos(columns[p], columns[q]))] if c > PARALLEL]
    assert not parallel, "; ".join(parallel)


def test_the_duct_values_are_one_lever(columns):
    for p, q in combinations(sorted(DUCT), 2):
        assert abs(_cos(columns[p], columns[q])) > PARALLEL, (p, q)
