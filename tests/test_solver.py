import hashlib
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import greendry
import greendry.core
import greendry.solver

from greendry.coefficients import (SIGMA, _convective, _radiative, hydraulic_diameter,
                                   wind_coefficient)
from greendry.config import apply_overrides, config_from_dict
from greendry.core import (
    SimState,
    WeatherRecord,
    air_properties,
    humidity_ratio,
    relative_humidity,
)
from greendry.errors import SimulationError, SingularMatrixError, WeatherError
from greendry.solver import (
    BALANCES,
    SINGULAR_PIVOT,
    Forcing,
    eliminate,
    energy_system,
    initial_state,
    simulate,
    solve_energy_system,
    step,
    stepper,
    steps,
    weather_forcing,
)
from greendry.sweep import drying_time_objective
from greendry.weather import sample, save_csv, synthetic_days

from conftest import records_of, series_of, unchecked

BASE = {
    "geometry": {"W": 2.0, "D": 1.0, "A_c": 10.0, "A_f": 8.0, "A_p": 6.0,
                 "V": 8.0},
    "cover": {"C_c": 11500.0, "alpha_c": 0.05, "tau_c": 0.85, "eps_c": 0.4,
              "U_c": 6.6},
    "floor": {"alpha_f": 0.6, "h_dfg": 3.0, "T_deep": 298.0},
    "product": {"loading": 6.0, "C_pp": 1700.0, "C_pl": 4186.0,
                "C_pv": 1880.0, "alpha_p": 0.6, "eps_p": 0.9, "L_p": 2.358e6,
                "M_0_pct": 52.2, "F_p": 0.5},
    "airflow": {"V_vent": 0.1, "V_a": 1.0, "T_in": 301.0, "H_in": 0.012},
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
                    rh=relative_humidity(H, T).value)


class _Solve(Exception):
    """Raised by the spy on solve_energy_system with the (A, b) of the
    system it got."""


def _capture_system(work):
    raise _Solve(*energy_system(work))


def balance(name, state, w, cfg, dmdt=0.0, *, h_c=0.0, h_r_cs=0.0,
            h_r_pc=0.0, h_w=0.0, T_s=280.0):
    """(row, rhs) of one balance of the energy system that `advance` builds
    for the weather record w, with the coefficients (zero unless set; h_w
    replaces w's wind) set through the config values advance reads them
    from, to within rounding: T_s as the forcing's T_am_1_5 with c_sky = 1,
    h_c = 0.0158 Re^0.8 k / D_h through Re = D_h V_a / nu at the state's air
    temperature, h_r_cs and h_r_pc through eps_c and eps_p (unchecked, as
    they may exceed 1).  The kinetics are patched to give dM/dt; the spy on
    solve_energy_system ends the step."""
    T_c, T_a, T_p = state.T_c, state.T_a, state.T_p
    air = air_properties(T_a)
    D_h = hydraulic_diameter(cfg.geometry.W, cfg.geometry.D)
    Re = (h_c * D_h / (0.0158 * air.k)) ** 1.25
    cfg = unchecked(cfg, {
        "kinetics.c_sky": 1.0, "airflow.V_a": Re * air.nu / D_h,
        "cover.eps_c": h_r_cs / (SIGMA * (T_c * T_c + T_s * T_s) * (T_c + T_s)),
        "product.eps_p": h_r_pc / (SIGMA * (T_p * T_p + T_c * T_c) * (T_p + T_c))})
    f = Forcing(w.t, w.I_t, w.T_am, T_s, h_w)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greendry.solver, "_kinetics_update",
                   lambda T_a, M_p, *_: (M_p + dmdt * cfg.numerics.dt, None))
        mp.setattr(greendry.solver, "solve_energy_system", _capture_system)
        with pytest.raises(_Solve) as exc:
            stepper(cfg)(state, f)
    A, b = exc.value.args
    i = BALANCES.index(name)
    return A[i], b[i]


def humidity_step(cfg, state, dM):
    """(H of the state that `advance` returns, the step's dM) for a dark,
    still step at the state's temperatures, with the kinetics patched to
    move the moisture by dM."""
    f = Forcing(state.t + cfg.numerics.dt, 0.0, state.T_a, state.T_a**1.5, 0.0)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(greendry.solver, "_kinetics_update",
                   lambda T_a, M_p, *_: (M_p + dM, None))
        new, (*_, dM, _, flags) = stepper(cfg)(state, f)
    assert not any(flag.startswith("humidity_") for flag in flags)
    return new.H, dM


class TestGaussJordan:
    """`eliminate`, the general Gauss-Jordan solver, on hand cases."""

    def test_identity(self):
        b = [3.0, -1.0, 2.5]
        assert eliminate(np.eye(3).tolist(), b) == b

    def test_hand_case(self):
        x = eliminate([[2.0, 1.0], [1.0, 3.0]], [4.0, 7.0])
        assert x == pytest.approx([1.0, 2.0], rel=1e-12)

    def test_singular_raises_with_column(self):
        with pytest.raises(SingularMatrixError) as exc:
            eliminate([[1.0, 2.0], [2.0, 4.0]], [1.0, 2.0])
        assert exc.value.column == 1

    def test_needs_pivoting(self):
        x = eliminate([[0.0, 1.0], [1.0, 0.0]], [2.0, 5.0])
        assert x == pytest.approx([5.0, 2.0])

    def test_residual_small(self):
        rng = np.random.default_rng(7)
        A = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
        b = rng.uniform(-1, 1, 4)
        x = eliminate(A.tolist(), b.tolist())
        assert np.linalg.norm(A @ x - b) < 1e-10 * np.linalg.norm(b)


def _numpy_elimination(A, b):
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


def _outcome(solve, *system):
    try:
        return [float(v).hex() for v in solve(*system)]
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
            assert got == _outcome(_numpy_elimination, A, b), (A_list, b_list)
            assert (A_list, b_list) == (A.tolist(), b.tolist())  # inputs untouched
            singular += isinstance(got, tuple)
        assert 0 < singular < 333  # both outcomes occur

    def test_zero_factor_rows_are_skipped(self):
        # 0 * inf would turn row 1 into NaN if its zero factor were applied
        A, b = [[1.0, 0.5], [0.0, 1.0]], [math.inf, 2.0]
        assert eliminate(A, b) == [math.inf, 2.0]
        assert _outcome(eliminate, A, b) == _outcome(_numpy_elimination, A, b)


# Entries that are zero in every energy system: no T_c term in the air and
# floor rows, no T_f term in the cover and product rows, no T_p term in the
# floor row.  A[2][0] is A[0][2] (product-cover) and A[3][1] is A[1][3]
# (floor-air): energy_system builds them from one value each.
_PATTERN_ZEROS = ((1, 0), (3, 0), (0, 3), (2, 3), (3, 2))


def _pattern_system(rng):
    """A random system with the energy system's pattern; the diagonal
    dominates each column, so partial pivoting never swaps a row."""
    A = rng.uniform(-1, 1, (4, 4)) + 4 * np.eye(4)
    for i, j in _PATTERN_ZEROS:
        A[i, j] = 0.0
    A[2, 0], A[3, 1] = A[0, 2], A[1, 3]
    return A


def _off_diagonal_pivot(rng, col):
    """A pattern system whose pivot search in col picks a row below the
    diagonal."""
    A = _pattern_system(rng)
    sign = rng.choice([-1.0, 1.0])
    if col == 0:
        A[2, 0] = A[0, 2] = sign * (abs(A[0, 0]) + rng.uniform(0.1, 3.0))
    elif col == 1:
        A[3, 1] = A[1, 3] = sign * (abs(A[1, 1]) + rng.uniform(0.1, 3.0))
    else:
        # rows 2 and 3 reach column 2 as a22 and -a31 a12 / a11
        A[2, 0] = A[0, 2] = A[2, 1] = 0.0
        A[2, 2] = sign * rng.uniform(0.01, 0.5)
        A[3, 1] = A[1, 3] = sign * 0.9 * abs(A[1, 1])
        A[1, 2] = -sign * 3.0
    return A


def _exact_pivot(rng, col, pivot):
    """A pattern system whose pivot in col is exactly pivot, with zeros
    below it: rows 2 and 3 have no earlier term to eliminate."""
    A = _pattern_system(rng)
    A[2, 0] = A[0, 2] = A[2, 1] = A[3, 1] = A[1, 3] = 0.0
    A[col, col] = pivot
    return A


def _still_air(rng):
    """A pattern system as at h_c = 0: the cover-air and floor-air terms
    are -0.0, and each other off-diagonal entry that varies is a signed
    zero with probability 1/2, so many factors are zero and must be
    skipped."""
    A = _pattern_system(rng)
    A[0, 1] = A[1, 3] = -0.0
    for i, j in ((0, 1), (0, 2), (1, 2), (2, 1)):
        if rng.random() < 0.5:
            A[i, j] = rng.choice([0.0, -0.0])
    A[2, 0], A[3, 1] = A[0, 2], A[1, 3]
    return A


def _tie(rng, col):
    """A pattern system in which the diagonal ties the largest magnitude
    below it in col: eliminate keeps the first maximum, the diagonal."""
    A = _pattern_system(rng)
    s = rng.choice([-1.0, 1.0], size=3)
    if col == 0:
        # row 2 reaches column 2 as a22 - a00, so a22 keeps it dominant
        A[2, 0] = A[0, 2] = s[0] * A[0, 0]
        A[2, 2] = abs(A[0, 0]) + 4.0
    elif col == 1:
        A[3, 1] = A[1, 3] = s[0] * A[1, 1]
    else:
        # exact arithmetic: -a31 a12 / a11 = -(s0 2)(s1 2) / 4 = -s0 s1
        A[2, 0] = A[0, 2] = A[2, 1] = 0.0
        A[1, 1], A[1, 2], A[3, 1] = 4.0, s[1] * 2.0, s[0] * 2.0
        A[1, 3] = A[3, 1]
        A[2, 2] = s[2] * 1.0
    return A


def _read(rng, position, value):
    """A pattern system whose pivot search reads value at position: a
    diagonal entry a00, a11, a22 or a33, or an entry below one, a20 (that
    is a02), a21, a31 (a13) or a32, which reaches column 2 as -a31 a12 /
    a11.  The earlier columns leave the position's row as it is.  A value
    "tie" or "-tie" is the diagonal entry it is compared with, or its
    negation: an exact tie of magnitudes; "2x" or "-2x" is twice that, a
    larger finite magnitude."""
    A = _pattern_system(rng)
    if position in ("a21", "a22", "a32"):
        A[2, 0] = A[0, 2] = 0.0  # no column-0 term in row 2
    if position in ("a22", "a32"):
        A[2, 1] = 0.0            # no column-1 term in row 2
    if position == "a33":
        A[3, 1] = A[1, 3] = 0.0  # no column-1 or column-2 term in row 3
    if position == "a32":
        A[1, 1], A[3, 1] = 4.0, 2.0
        A[1, 3] = A[3, 1]
    diagonal = {"a20": A[0, 0], "a21": A[1, 1], "a31": A[1, 1], "a32": A[2, 2]}
    if isinstance(value, str):
        value = diagonal[position] * {"tie": 1.0, "-tie": -1.0, "2x": 2.0, "-2x": -2.0}[value]
    if position == "a20":
        A[2, 0] = A[0, 2] = value
    elif position == "a31":
        A[3, 1] = A[1, 3] = value
    elif position == "a32":
        A[1, 2] = -2.0 * value   # -a31 a12 / a11 = -2 (-2 value) / 4
    else:
        i, j = int(position[1]), int(position[2])
        A[i, j] = value
    return A


def _system(A, b):
    """A work record of a pattern system (A, b): its 13 scalars in
    energy_system's order, then a dM, rh and flags that solve_energy_system
    does not read; energy_system rebuilds A and b from it, bit for bit."""
    system = (A[0][0], A[0][1], A[0][2], A[1][1], A[1][2], A[1][3], A[2][1], A[2][2],
              A[3][3], *b, 0.0, 50.0, [])
    rebuilt_A, rebuilt_b = energy_system(system)
    assert [_hexes(row) for row in rebuilt_A] + [_hexes(rebuilt_b)] == \
        [_hexes(row) for row in A] + [_hexes(b)], (A, b)
    return system


def _hexes(values):
    return [float(v).hex() for v in values]


def _pivots_in_place(A):
    """Whether eliminate, on A, finds every pivot on the diagonal, as the
    first maximum of its magnitudes with magnitude >= SINGULAR_PIVOT: its
    pivot search, by abs, on its own elimination of A."""
    aug = [list(row) for row in A]
    for col in range(4):
        best = abs(aug[col][col])
        if any(abs(aug[r][col]) > best for r in range(col + 1, 4)) or best < SINGULAR_PIVOT:
            return False
        prow = aug[col]
        for j in range(col + 1, 4):
            prow[j] /= prow[col]
        for row in aug:
            factor = row[col]
            if row is not prow and factor != 0.0:
                for j in range(col + 1, 4):
                    row[j] -= factor * prow[j]
    return True


# the values each read of the pivot search takes in _special_cases: at a
# diagonal entry NaN, the infinities and the signed zeros, with a33 also
# at +-SINGULAR_PIVOT and the floats just inside them; below the diagonal
# those, an exact tie of either sign and twice the diagonal of either sign,
# which, unlike an infinity, leaves the later columns finite
_SPECIALS = (math.nan, math.inf, -math.inf, 0.0, -0.0)
_READ_VALUES = {
    **dict.fromkeys(("a00", "a11", "a22"), _SPECIALS),
    "a33": _SPECIALS + (SINGULAR_PIVOT, -SINGULAR_PIVOT, math.nextafter(SINGULAR_PIVOT, 0.0),
                        -math.nextafter(SINGULAR_PIVOT, 0.0)),
    **dict.fromkeys(("a20", "a21", "a31", "a32"), _SPECIALS + ("tie", "-tie", "2x", "-2x")),
}


def _special_cases():
    """(system, whether the kernel should hand it to eliminate) of 3
    seeded systems per position and value of _READ_VALUES."""
    rng = np.random.default_rng(37)
    for position, values in _READ_VALUES.items():
        for value in values:
            for _ in range(3):
                A = _read(rng, position, value)
                b = rng.uniform(-1e3, 1e3, 4)
                yield _system(A.tolist(), b.tolist()), not _pivots_in_place(A.tolist())


def _kernel_cases():
    """(system, whether the kernel should hand it to eliminate), 1000
    seeded systems with the energy system's pattern."""
    rng = np.random.default_rng(6)
    pivots = (0.0, -0.0, 3e-13, -9.999999999999999e-13, 1e-12, -1e-12, 2e-12)
    for k in range(1000):
        kind, sub = k % 5, k // 5
        b = rng.uniform(-1e3, 1e3, 4)
        if kind == 0:
            A, fallback = _pattern_system(rng), False
        elif kind == 1:
            A, fallback = _off_diagonal_pivot(rng, sub % 3), True
        elif kind == 2:
            pivot = pivots[sub % len(pivots)]
            A = _exact_pivot(rng, sub // len(pivots) % 4, pivot)
            fallback = abs(pivot) < 1e-12
        elif kind == 3:
            A, fallback = _still_air(rng), False
            if sub % 4 == 0:  # a zero factor applied to inf would give NaN
                b[sub // 4 % 4] = rng.choice([-math.inf, math.inf])
        else:
            A, fallback = _tie(rng, sub % 3), False
        assert _pivots_in_place(A.tolist()) is not fallback
        yield _system(A.tolist(), b.tolist()), fallback


class TestSolveEnergySystem:
    @pytest.fixture()
    def fallbacks(self, monkeypatch):
        """The systems solve_energy_system handed to eliminate."""
        calls = []

        def counting(A, b):
            calls.append((A, b))
            return eliminate(A, b)

        monkeypatch.setattr(greendry.solver, "eliminate", counting)
        return calls

    @staticmethod
    def _check(cases, fallbacks):
        """Compare each case with eliminate, bit for bit, and its fallback;
        return the singular columns and the number of fallbacks."""
        singular, expected = set(), 0
        for system, fallback in cases:
            before = len(fallbacks)
            got = _outcome(solve_energy_system, system)
            assert got == _outcome(eliminate, *energy_system(system)), system
            assert (len(fallbacks) > before) == fallback, system
            expected += fallback
            if isinstance(got, tuple):
                singular.add(got[1])
        assert len(fallbacks) == expected
        return singular, expected

    def test_bit_identical_to_eliminate(self, fallbacks):
        singular, _ = self._check(_kernel_cases(), fallbacks)
        assert singular == {0, 1, 2, 3}  # a pivot below 1e-12 in each column

    def test_nan_inf_signed_zero_and_tied_reads(self, fallbacks):
        # each read of the pivot search compared without abs: a mutant that
        # drops one half of x > m or -x > m takes the fast path where
        # eliminate swaps a row
        singular, n_fallbacks = self._check(_special_cases(), fallbacks)
        # an infinity or twice the diagonal below it swaps; a zero diagonal
        # above a nonzero entry swaps, and a33 within SINGULAR_PIVOT of 0 is
        # singular
        assert n_fallbacks == 3 * (4 * 4 + 3 * 2 + 4)
        assert singular == {3}

    def test_baseline_takes_the_fast_path(self, baseline_cfg, fallbacks):
        series = simulate(baseline_cfg, synthetic_days(1))
        assert len(series.states) == 1441 and fallbacks == []


# what only run and sweep use, which the CLI loads when one of them starts
RUN_MODULES = ["greendry.config", "greendry.solver", "greendry.sweep", "greendry.kinetics",
               "greendry.coefficients", "greendry.weather", "greendry.core",
               "greendry.writers", "yaml", "hashlib", "json"]


def _fresh(code, *args):
    """The stdout of a fresh interpreter that runs code with this package's
    src first on sys.path and args in sys.argv[1:]."""
    src = str(Path(greendry.__file__).resolve().parents[1])
    code = "import sys; sys.path.insert(0, " + repr(src) + ")\n" + code
    return subprocess.run([sys.executable, "-c", code, *args], check=True,
                          capture_output=True, text=True, timeout=60).stdout


@pytest.mark.parametrize("module", ["numpy", "multiprocessing",
                                    "concurrent.futures.process", "pickle", "click",
                                    "dataclasses", "inspect", "csv"] + RUN_MODULES)
def test_cli_import_does_not_load(module):
    # each would add to the set-up time of every CLI invocation; csv loads
    # only for a CSV chunk that is quoted or not ASCII
    out = _fresh("import greendry.cli; print(sys.argv[1] in sys.modules)", module)
    assert out.strip() == "False"


def test_run_names_load_the_run_modules():
    # the first read of one of them from outside the CLI, as the bench's
    # set-up probe of run and sweep makes, loads them all; YAML loads with
    # the first file read
    out = _fresh("import greendry.cli; greendry.cli.load_config\n"
                 "print(' '.join(m for m in sys.argv[1:] if m not in sys.modules))",
                 *RUN_MODULES)
    assert out.split() == ["yaml"]


def test_set_up_probe_of_sweep_loads_what_sweep_runs(baseline_config_path, tmp_path):
    # the bench's set-up probe of sweep, replayed: the CLI imported, then
    # the config, the weather and the spec read through names of the CLI,
    # which load every module run and sweep use
    weather, spec = tmp_path / "weather.csv", tmp_path / "spec.yaml"
    save_csv(synthetic_days(1), weather)
    spec.write_text("objective: drying_time\ntarget_mdb: 0.08\nhorizon_h: 12.0\n"
                    "parameters:\n  airflow.V_a: [1.0, 3.0]\n")
    out = _fresh("import greendry.cli as cli\n"
                 "config, weather, spec = sys.argv[1:4]\n"
                 "cli.load_config(config)\n"
                 "series = cli.load_csv(weather)\n"
                 "print(len(cli.load_sweep_spec(spec, series).parameters[0][1]))\n"
                 "print(' '.join(m for m in sys.argv[4:] if m not in sys.modules))",
                 str(baseline_config_path), str(weather), str(spec), *RUN_MODULES)
    assert out.splitlines() == ["2", ""]


def test_dir_lists_every_export_before_it_loads():
    # a name resolved on first access is still listed by dir()
    out = _fresh("import greendry\n"
                 "print(sorted(set(greendry.__all__) - set(dir(greendry))))\n"
                 "print([m for m in ('greendry.core', 'greendry.solver') if m in sys.modules])")
    assert out.splitlines() == ["[]", "[]"]


def test_package_names_resolve_on_first_access():
    # each exported name is the object its module defines, the package's
    # submodules are attributes of the package, and `from greendry import`
    # takes either
    out = _fresh(
        "import greendry\n"
        "solver = greendry.solver\n"
        "names = {name: getattr(greendry, name) for name in greendry.__all__}\n"
        "from greendry import coefficients, config, kinetics, simulate, sweep\n"
        "assert simulate is solver.simulate and greendry.step is solver.step\n"
        "assert kinetics is solver.kinetics and config is sys.modules['greendry.config']\n"
        "assert coefficients.AirProps is greendry.AirProps\n"
        "for name, value in names.items():\n"
        "    if getattr(sys.modules[value.__module__], name) is value:\n"
        "        print(name, value.__module__)\n"
        "try:\n"
        "    greendry.cli\n"
        "except AttributeError as exc:\n"
        "    print(exc)\n")
    lines = out.splitlines()
    assert lines.pop() == "module 'greendry' has no attribute 'cli'"
    defined = dict(line.split(" ", 1) for line in lines)
    assert defined == {
        **dict.fromkeys(["EconomicInputs", "ErrorReport", "acceptance_check",
                         "payback_period", "percent_difference"], "greendry.analysis"),
        **dict.fromkeys(["DryerConfig", "apply_overrides", "load_config"], "greendry.config"),
        **dict.fromkeys(["AirProps", "SimState", "WeatherRecord", "air_properties",
                         "humidity_ratio", "relative_humidity", "saturation_pressure"],
                        "greendry.core"),
        **dict.fromkeys(["SimSeries", "simulate", "step"], "greendry.solver"),
        **dict.fromkeys(["SweepSpec", "drying_time_objective", "grid_search"],
                        "greendry.sweep"),
        **dict.fromkeys(["WeatherSeries", "load_csv", "sample", "synthetic_days"],
                        "greendry.weather"),
    }


class TestCoverBalance:
    def test_isothermal_zero_residual(self):
        cfg = make_cfg()
        T = 300.0
        state = make_state(T)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        row, rhs = balance("cover", state, w, cfg, h_c=3.0, h_r_cs=5.0,
                           h_r_pc=4.0, h_w=5.7, T_s=T)
        assert row @ np.full(4, T) - rhs == pytest.approx(0.0, abs=1e-9)

    def test_transparent_cover_has_no_solar_source(self):
        cfg = make_cfg(cover={"alpha_c": 0.0})
        state = make_state()
        sunny = WeatherRecord(t=60.0, I_t=900.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dark = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        _, rhs_sun = balance("cover", state, sunny, cfg)
        _, rhs_dark = balance("cover", state, dark, cfg)
        assert rhs_sun == rhs_dark

    def test_explicit_euler_oracle(self):
        # decoupled cover with 100 W absorbed, C_c = 2000 J/K, dt = 10 s
        cfg = make_cfg(cover={"C_c": 2000.0, "alpha_c": 0.1},
                       geometry={"A_c": 10.0}, numerics={"dt": 10.0})
        state = make_state(300.0)
        w = WeatherRecord(t=10.0, I_t=100.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        row, rhs = balance("cover", state, w, cfg)
        T_c_new = rhs / row[0]
        assert T_c_new - 300.0 == pytest.approx(0.5, rel=1e-12)


class TestAirBalance:
    def test_closed_isothermal_box(self):
        cfg = make_cfg(airflow={"V_vent": 0.0})
        T = 300.0
        state = make_state(T)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        row, rhs = balance("air", state, w, cfg, h_c=2.0)
        assert row @ np.full(4, T) - rhs == pytest.approx(0.0, abs=1e-9)

    def test_full_absorption_kills_solar_term(self):
        # F_p = 1 and alpha_p = 1 zero the transmitted-solar bracket
        cfg = make_cfg(product={"F_p": 1.0, "alpha_p": 1.0})
        state = make_state()
        sunny = WeatherRecord(t=60.0, I_t=900.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dark = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        _, rhs_sun = balance("air", state, sunny, cfg)
        _, rhs_dark = balance("air", state, dark, cfg)
        assert rhs_sun == rhs_dark

    def test_pure_ventilation_moves_toward_inlet(self):
        dt = 1.0
        cfg = make_cfg(airflow={"V_vent": 0.05, "T_in": 310.0},
                       cover={"U_c": 0.0}, numerics={"dt": dt})
        T0 = 300.0
        state = make_state(T0)
        w = WeatherRecord(t=1.0, I_t=0.0, T_am=T0, V_w=0.0, rh_am=50.0)
        air = air_properties(T0)
        m_a = air.rho * cfg.geometry.V
        row, rhs = balance("air", state, w, cfg)
        T_new = (rhs - 0.0) / row[1]
        euler = T0 + dt * air.rho * air.cp * 0.05 * (310.0 - T0) / (m_a * air.cp)
        assert T0 < T_new < 310.0
        assert T_new == pytest.approx(euler, rel=1e-4)


class TestVentilation:
    # Inflow equals outflow by construction: inlet air at the chamber's own
    # temperature and humidity ratio carries no net heat and no net water.
    @pytest.mark.parametrize("V_vent", [0.1, 0.9, 5.0])
    def test_inlet_at_chamber_state_adds_nothing(self, V_vent):
        T, H = 305.0, 0.015
        state = make_state(T, H=H)
        w = WeatherRecord(t=60.0, I_t=300.0, T_am=300.0, V_w=1.0, rh_am=50.0)

        def air_residual(V):
            cfg = make_cfg(airflow={"V_vent": V, "T_in": T, "H_in": H})
            row, rhs = balance("air", state, w, cfg, h_c=3.0)
            return sum(a * T for a in row) - rhs, rhs

        vented, rhs = air_residual(V_vent)
        sealed, _ = air_residual(0.0)
        assert vented == pytest.approx(sealed, abs=1e-12 * abs(rhs))

        cfg = make_cfg(airflow={"V_vent": V_vent, "T_in": T, "H_in": H})
        H_new, _ = humidity_step(cfg, state, 0.0)
        assert H_new == pytest.approx(H, rel=1e-15)


class TestProductBalance:
    def test_inert_isothermal_zero_residual(self):
        cfg = make_cfg()
        T = 300.0
        state = make_state(T)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=50.0)
        row, rhs = balance("product", state, w, cfg, h_c=2.0, h_r_pc=5.0)
        assert row @ np.full(4, T) - rhs == pytest.approx(0.0, abs=1e-9)

    def test_effective_heat_capacity(self):
        # a dry mass loading A_p of 10 x 10 = 100 kg
        cfg = make_cfg(product={"loading": 10.0, "C_pp": 2000.0, "C_pl": 4186.0},
                       geometry={"A_p": 10.0})
        state = make_state(300.0, M_p=0.522)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dt = 60.0
        row, _ = balance("product", state, w, cfg)
        cap = 100.0 * (2000.0 + 4186.0 * 0.522)
        assert cap == pytest.approx(418_509.2, rel=1e-9)
        assert row[2] == pytest.approx(cap / dt, rel=1e-12)

    @pytest.mark.parametrize("path, factor", [
        ("product.loading", 2.0), ("product.loading", 0.5), ("geometry.A_p", 1.5)])
    def test_heat_capacity_scales_with_the_bed(self, baseline_cfg, path, factor):
        # the charge's dry mass is loading A_p: a heavier or wider bed has
        # more dry matter to heat, as well as more water to lose
        section, name = path.split(".")
        value = getattr(getattr(baseline_cfg, section), name) * factor
        cfg = apply_overrides(baseline_cfg, {path: value})
        state = make_state(300.0, M_p=0.522)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        def dry_mass(cfg):
            return cfg.product.loading * cfg.geometry.A_p

        assert dry_mass(baseline_cfg) == 54.0
        assert dry_mass(cfg) == pytest.approx(54.0 * factor, rel=1e-15)
        base_row, _ = balance("product", state, w, baseline_cfg)
        row, _ = balance("product", state, w, cfg)
        assert row[2] == pytest.approx(base_row[2] * factor, rel=1e-12)

    def test_latent_sink_cools_product(self):
        cfg = make_cfg()
        state = make_state(320.0)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=320.0, V_w=0.0, rh_am=50.0)
        dmdt = -1e-5
        row, rhs = balance("product", state, w, cfg, dmdt)
        T_new = rhs / row[2]
        assert T_new < 320.0


class TestFloorBalance:
    def test_isothermal_fixed_point(self):
        cfg = make_cfg(floor={"T_deep": 300.0})
        state = make_state(300.0)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        row, rhs = balance("floor", state, w, cfg, h_c=4.0)
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
        row, rhs = balance("floor", state, w, cfg, h_c=4.0)
        T_f = (rhs - row[1] * 300.0) / row[3]
        assert T_f == pytest.approx((2 * 290 + 4 * 300 + 120) / 6.0, rel=1e-12)

    def test_shaded_floor_has_no_solar(self):
        cfg = make_cfg(product={"F_p": 1.0})
        state = make_state()
        sunny = WeatherRecord(t=60.0, I_t=900.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        dark = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        _, rhs_sun = balance("floor", state, sunny, cfg, h_c=2.0)
        _, rhs_dark = balance("floor", state, dark, cfg, h_c=2.0)
        assert rhs_sun == rhs_dark

    def test_no_floor_conductance_is_singular(self):
        cfg = make_cfg(floor={"h_dfg": 0.0})
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=300.0, V_w=0.0, rh_am=50.0)
        with pytest.raises(SimulationError, match="floor row singular"):
            balance("floor", make_state(), w, cfg)


class TestMoistureBalance:
    """The chamber humidity ratio of the state that `advance` returns."""

    def test_steady_identity(self):
        cfg = make_cfg(airflow={"H_in": 0.01})
        H_new, _ = humidity_step(cfg, make_state(300.0, H=0.01), 0.0)
        assert H_new == pytest.approx(0.01, rel=1e-12)

    def test_sealed_conservation(self):
        cfg = make_cfg(airflow={"V_vent": 0.0})
        H_new, dM = humidity_step(cfg, make_state(300.0, H=0.01), -0.002)
        m_a = air_properties(300.0).rho * cfg.geometry.V
        evap = -cfg.product.loading * cfg.geometry.A_p * dM
        assert m_a * (H_new - 0.01) == pytest.approx(evap, rel=1e-12)

    def test_hand_case(self):
        # chamber volume for m_a = 30 kg of air at 320 K (saturation
        # H ~ 0.08 leaves room for the 0.0267)
        cfg = make_cfg(airflow={"V_vent": 0.0},
                       product={"loading": 5.0},
                       geometry={"A_p": 10.0,
                                 "V": 30.0 / air_properties(320.0).rho})
        # loading A_p = 50 kg, dM = -0.01, m_a = 30 -> dH = 0.5/30
        H_new, _ = humidity_step(cfg, make_state(320.0, H=0.01), -0.01)
        assert H_new - 0.01 == pytest.approx(0.5 / 30.0, rel=1e-12)


class TestStep:
    def test_global_fixed_point(self):
        T = 300.0
        cfg = make_cfg(
            airflow={"V_vent": 0.0},
            floor={"T_deep": T},
            kinetics={"c_sky": T**-0.5},  # T_s == T: no net sky exchange
        )
        H = humidity_ratio(50.0, T)
        state = SimState(t=0.0, T_c=T, T_a=T, T_p=T, T_f=T, H=H,
                         M_p=0.05, rh=relative_humidity(H, T).value)
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

    # The config value that reaches entry (row, col) of the energy system
    # (col 4: the right-hand side) and no earlier balance.  An entry that
    # is a literal zero, or shares its inputs with an earlier balance
    # (product-cover, product-air, floor-air), has none: its cases poison
    # the value behind the row's diagonal entry.  The product's right-hand
    # side is reached through L_p, as F_p and alpha_p also feed the air row.
    _DIAGONAL = ("cover.C_c", "cover.U_c", "product.C_pp", "floor.h_dfg")
    _ENTRY_FIELD = {(0, 1): "geometry.A_c", (0, 2): "product.eps_p",
                    (0, 4): "cover.alpha_c", (1, 2): "product.C_pv",
                    (1, 3): "geometry.A_f", (1, 4): "airflow.T_in",
                    (2, 4): "product.L_p", (3, 4): "floor.T_deep"}

    @pytest.mark.parametrize("row", range(4))
    @pytest.mark.parametrize("col", range(5))  # 4: the right-hand side
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_names_its_balance(self, baseline_cfg, row, col, bad):
        field = self._ENTRY_FIELD.get((row, col), self._DIAGONAL[row])
        entry = col if (row, col) in self._ENTRY_FIELD else row
        cfg = unchecked(baseline_cfg, {field: bad})
        w = WeatherRecord(t=60.0, I_t=600.0, T_am=303.0, V_w=1.0, rh_am=60.0)
        with pytest.raises(SimulationError) as exc:
            step(make_state(302.0, H=0.012, M_p=0.5), w, cfg)
        name, entries, rhs = re.fullmatch(
            r"non-finite (\w+) balance: row \((.*)\), rhs (.*)", str(exc.value)).groups()
        assert name == BALANCES[row]
        assert not math.isfinite([*map(float, entries.split(", ")), float(rhs)][entry])

    def test_overflowing_sum_of_finite_entries_solves(self, baseline_cfg,
                                                      monkeypatch):
        # cover and product capacities of 4e305 W/K: every entry is finite,
        # but the sum of the right-hand sides overflows to inf
        state = make_state(302.0, H=0.012, M_p=0.5)
        g, p = baseline_cfg.geometry, baseline_cfg.product
        dt = baseline_cfg.numerics.dt
        cfg = apply_overrides(baseline_cfg, {
            "cover.C_c": 4e305 * dt,
            "product.C_pp": 4e305 * dt / (p.loading * g.A_p)})
        systems = []

        def spy(work):
            systems.append(energy_system(work))
            return solve_energy_system(work)

        monkeypatch.setattr(greendry.solver, "solve_energy_system", spy)
        w = WeatherRecord(t=60.0, I_t=600.0, T_am=303.0, V_w=1.0, rh_am=60.0)
        new, _ = step(state, w, cfg)
        ((A, b),) = systems
        assert all(map(math.isfinite, (*A[0], *A[1], *A[2], *A[3], *b)))
        assert sum(b) == math.inf
        assert (new.T_c, new.T_p) == pytest.approx((302.0, 302.0), rel=1e-12)

    @pytest.mark.xfail(strict=True, reason=(
        "cover-air convection is lost: the cover row carries -A_c h_c on T_a, "
        "but the air row has no T_c term, so A_c h_c (T_c - T_a) goes nowhere "
        "(up to ~500 W on the baseline)"))
    def test_cover_air_exchange_is_symmetric(self, baseline_cfg, tropical_weather):
        state = initial_state(baseline_cfg, tropical_weather)
        f = next(weather_forcing(tropical_weather, baseline_cfg.numerics.dt))
        A, _ = energy_system(stepper(baseline_cfg)(state, f)[1])
        assert A[1][0] == A[0][1]


class TestEnergyColumns:
    """Each column of the energy matrix, one node's temperature coefficients
    summed over the four balances, is that node's storage plus its
    exchanges with the outside (sky, wind, ambient air through the cover
    and by ventilation, deep soil): an exchange between two nodes enters
    their two rows with opposite signs and cancels.  Two parts are left
    over, each written out as a named term:
    - the cover-air exchange A_c h_c, which the cover row carries and the
      air row omits, adds A_c h_c to the T_c column and -A_c h_c to the T_a
      column (test_cover_air_exchange_is_symmetric records the omission);
    - the sensible-moisture term q_m (T_p - T_a), q_m = m_p C_pv dM/dt,
      enters the air and the product rows with the same sign, adding 2 q_m
      to the T_a column and -2 q_m to the T_p column.
    An internal exchange entered in one row only, or with one sign wrong,
    breaks the identity on every step where it is not zero."""

    @pytest.mark.parametrize("override", [{}, {"airflow.V_a": 0.0}, {"airflow.V_vent": 0.1}],
                             ids=["baseline", "V_a=0", "V_vent=0.1"])
    def test_column_is_storage_plus_outside_exchange(self, baseline_cfg, tropical_weather,
                                                     override):
        cfg = apply_overrides(baseline_cfg, override)
        g, c, fl, p, a = cfg.geometry, cfg.cover, cfg.floor, cfg.product, cfg.airflow
        dt = cfg.numerics.dt
        D_h = hydraulic_diameter(g.W, g.D)
        m_p = p.loading * g.A_p
        advance, state = stepper(cfg), initial_state(cfg, tropical_weather)
        drying = 0
        for f in weather_forcing(tropical_weather, dt):
            new_state, work = advance(state, f)
            (A, _), dM = energy_system(work), work[13]
            air = air_properties(state.T_a)
            h_c = _convective(D_h * a.V_a, D_h, air)[2]
            h_r_cs = _radiative(c.eps_c * SIGMA, state.T_c, cfg.kinetics.c_sky * f.T_am_1_5)
            cover_air_omitted = g.A_c * h_c
            sensible_moisture = 2.0 * m_p * p.C_pv * dM / dt
            expected = (
                c.C_c / dt + g.A_c * (h_r_cs + f.h_w) + cover_air_omitted,
                (air.rho * g.V * air.cp / dt + air.rho * air.cp * a.V_vent + c.U_c * g.A_c
                 - cover_air_omitted + sensible_moisture),
                m_p * (p.C_pp + p.C_pl * state.M_p) / dt - sensible_moisture,
                g.A_f * fl.h_dfg,
            )
            for col, (node, want) in enumerate(zip(("T_c", "T_a", "T_p", "T_f"), expected)):
                column = [row[col] for row in A]
                assert abs(sum(column) - want) <= 1e-12 * sum(map(abs, column)), \
                    (f.t, node, column, want)
            drying += dM != 0.0
            state = new_state
        assert drying > 1000  # steps whose q_m is not zero


class TestKineticsStall:
    """The branches of _kinetics_update that stop drying before
    kinetics.drying_constants and step_moisture would see a non-positive
    rate constant or a charge at equilibrium."""

    @staticmethod
    def _step(cfg, T, rh, M_p):
        state = make_state(T, H=humidity_ratio(rh, T), M_p=M_p)
        w = WeatherRecord(t=60.0, I_t=0.0, T_am=T, V_w=0.0, rh_am=rh)
        return (state, *step(state, w, cfg))

    def test_cold_chamber_stalls(self, baseline_cfg):
        # the Page rate constant A1 crosses zero near 23.06 C at 15 % rh
        state, new, diag = self._step(baseline_cfg, 296.15, 15.0, 0.5)
        assert diag.rh == pytest.approx(15.0, rel=1e-12)
        assert "kinetics_stalled" in diag.flags
        assert new.M_p == state.M_p and diag.dM == 0.0

    def test_just_above_the_crossing_dries(self, baseline_cfg):
        state, new, diag = self._step(baseline_cfg, 296.35, 15.0, 0.5)
        assert "kinetics_stalled" not in diag.flags
        assert "at_or_above_equilibrium" not in diag.flags
        assert new.M_p < state.M_p

    def test_charge_at_or_below_equilibrium(self, baseline_cfg):
        # M_e is ~3.4 % db at 60 C and 15 % rh, above the charge's 3 %
        state, new, diag = self._step(baseline_cfg, 333.15, 15.0, 0.03)
        assert "at_or_above_equilibrium" in diag.flags
        assert new.M_p == state.M_p and diag.dM == 0.0


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

    def test_ventilated_water_closure(self, baseline_cfg):
        # criterion 3's water balance with the baseline's ventilation:
        # m_a (H_new - H) = -loading A_p dM + dt rho_a V_vent (H_in - H_new)
        g, a = baseline_cfg.geometry, baseline_cfg.airflow
        assert a.V_vent > 0
        ws = synthetic_days(1, peak_irradiance=0.0, T_min=323.0, T_max=323.0,
                            rh_min=20.0, rh_max=20.0)
        series = simulate(baseline_cfg, ws, horizon_s=3600.0)
        bed_mass = baseline_cfg.product.loading * g.A_p
        checked = 0
        for prev, cur, diag in zip(series.states, series.states[1:],
                                   series.diagnostics):
            if any(flag.startswith("humidity_") for flag in diag.flags):
                continue
            rho_a = air_properties(prev.T_a).rho
            stored = rho_a * g.V * (cur.H - prev.H)
            evaporated = -bed_mass * diag.dM
            vented = baseline_cfg.numerics.dt * rho_a * a.V_vent * (a.H_in - cur.H)
            largest = max(abs(stored), abs(evaporated), abs(vented))
            assert abs(stored - evaporated - vented) <= 1e-12 * largest
            checked += evaporated > 0 and vented != 0
        assert checked == 60  # every step unclamped, drying and ventilated

    def test_initial_state_from_first_record(self, baseline_cfg, tropical_weather):
        s0 = initial_state(baseline_cfg, tropical_weather)
        w0 = records_of(tropical_weather)[0]
        assert s0.T_c == s0.T_a == s0.T_p == s0.T_f == w0.T_am
        assert s0.H == pytest.approx(humidity_ratio(w0.rh_am, w0.T_am), rel=1e-12)

    def test_baseline_bits(self, baseline_cfg, tropical_weather):
        # float.hex of the 4-day baseline's states, as recorded before the
        # per-run constants were hoisted out of the step (each rh is that
        # relative_humidity gives for the state's H and T_a): any regrouping
        # of the step's floating-point products changes these bits.  The last
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
            "rh": "0x1.eb6dd64be4d95p+5",
        }
        digest = hashlib.sha256()
        for state in states:
            digest.update(" ".join(float(v).hex() for v in state).encode() + b"\n")
        assert digest.hexdigest() == (
            "c1eeac309a6cac7225df63d1de27741ac8fb9126a644e1f709739015cb60c403")

    @pytest.mark.parametrize("override, flag, expected", [
        ({"airflow.V_a": 0.0}, "still_air",
         "c8d527d86629434298d6b5718ebb0118ffe466314521a77c92d739f87561d47e"),
        ({"airflow.V_a": 0.01}, "re_below_turbulent",  # Re ~ 1200
         "dd6ffb51f5a478ca3fb6ff03a199250fcfd4191bc2924f100f10dcc6452e695e"),
        ({"kinetics.c_sky": 0.06}, "sky_temperature_non_physical",  # T_s > T_am
         "ecb442f2d5dd633fe0d2dd10980d2e3a9eeb2f73762a330800eaab4310eccc8e"),
    ])
    def test_off_baseline_bits(self, baseline_cfg, tropical_weather, override,
                               flag, expected):
        # the baseline never raises these flags; one day of each config,
        # float.hex of every state, then of every step's residuals and flags
        series = simulate(apply_overrides(baseline_cfg, override),
                          tropical_weather, horizon_s=86400.0)
        assert any(flag in d.flags for d in series.diagnostics)
        digest = hashlib.sha256()
        for state in series.states:
            digest.update(" ".join(float(v).hex() for v in state).encode() + b"\n")
        for d in series.diagnostics:
            digest.update((" ".join(float(v).hex() for v in d.residuals) + " "
                           + ",".join(d.flags)).encode() + b"\n")
        assert digest.hexdigest() == expected

    def test_step_without_constants_matches_simulate(self, baseline_cfg,
                                                     tropical_weather):
        series = simulate(baseline_cfg, tropical_weather, horizon_s=720 * 60.0)
        for i in (0, 360, 660, 719):  # midnight, sunrise, late morning, noon
            state = series.states[i]
            w = sample(tropical_weather, state.t + baseline_cfg.numerics.dt)
            assert step(state, w, baseline_cfg) == (series.states[i + 1],
                                                    series.diagnostics[i])

    def test_initial_state_error_names_step_0(self, tropical_weather):
        # b0 + b1 T < 0 at the first ambient temperature
        cfg = make_cfg(kinetics={"b0": 0.012})
        with pytest.raises(SimulationError,
                           match=r"^step 0 \(t=0\.0 s\): isotherm coefficient"):
            simulate(cfg, tropical_weather, horizon_s=3600.0)

    def test_vapour_pressure_above_total_names_step(self, baseline_cfg,
                                                     tropical_weather):
        cfg = apply_overrides(baseline_cfg, {"numerics.pressure": 5000.0})
        with pytest.raises(SimulationError,
                           match=r"^step \d+ \(t=\d+\.0 s\): vapour pressure"):
            simulate(cfg, tropical_weather)

    def test_non_finite_humidity_ratio_raises(self, baseline_cfg, tropical_weather):
        # dt / m_a * rho_a * V_vent overflows: H_new would be inf / inf
        cfg = apply_overrides(baseline_cfg, {"geometry.V": 28.8e-300,
                                             "airflow.V_vent": 0.9e300})
        with pytest.raises(SimulationError,
                           match=r"^step 1 \(t=60\.0 s\): non-finite humidity ratio"):
            simulate(cfg, tropical_weather, horizon_s=60.0)

    def test_target_stop(self, baseline_cfg, tropical_weather):
        series = simulate(baseline_cfg, tropical_weather, target_mdb=0.45)
        assert series.states[-1].M_p <= 0.45
        assert series.states[-2].M_p > 0.45

    def test_target_at_or_above_initial_moisture_takes_one_step(
            self, baseline_cfg, tropical_weather):
        # the target is checked on stepped states only
        for target in (baseline_cfg.M_0, 0.6):
            series = simulate(baseline_cfg, tropical_weather, target_mdb=target)
            assert len(series.states) == 2
            assert len(series.diagnostics) == 1
            assert series.diagnostics[0].t == series.states[1].t

    def test_steps_stop_at_the_target(self, baseline_cfg, tropical_weather,
                                      monkeypatch):
        # steps yields up to the first stepped state at the target and
        # takes no step after it; the states are those of a run to the end
        full = [state for state, _ in steps(baseline_cfg, tropical_weather)]
        n = next(i for i, state in enumerate(full) if i and state.M_p <= 0.45)
        advanced = []
        original = greendry.solver.stepper

        def counted(cfg):
            advance = original(cfg)

            def count(*args):
                advanced.append(args)
                return advance(*args)
            return count

        monkeypatch.setattr(greendry.solver, "stepper", counted)
        stopped = [state for state, _ in
                   steps(baseline_cfg, tropical_weather, target_mdb=0.45)]
        assert stopped == full[:n + 1]
        assert len(advanced) == n

    def test_without_diagnostics_same_states(self, baseline_cfg, tropical_weather):
        # the states steps yields are simulate's; only the initial state
        # comes without work
        recorded = simulate(baseline_cfg, tropical_weather)
        yielded = list(steps(baseline_cfg, tropical_weather))
        assert len(yielded) == 5761
        assert [state for state, _ in yielded] == recorded.states
        assert [work is None for _, work in yielded] == [True] + [False] * 5760

    def test_given_forcing_same_states(self, baseline_cfg, tropical_weather):
        horizon = 12 * 3600.0
        forcing = tuple(weather_forcing(tropical_weather, baseline_cfg.numerics.dt,
                                        horizon))
        streamed = list(steps(baseline_cfg, tropical_weather, horizon))
        given = list(steps(baseline_cfg, tropical_weather, horizon, forcing))
        assert len(given) == 12 * 60 + 1
        assert given == streamed

    def test_one_saturation_pressure_per_step(self, baseline_cfg, tropical_weather,
                                              monkeypatch):
        # a step evaluates its one saturation pressure written out, for the
        # humidity clamp and the new state's rh: the only calls of the
        # helper are initial_state's two, for H0 and its rh
        calls = []
        original = greendry.core.saturation_pressure

        def counted(T):
            calls.append(T)
            return original(T)

        for module in (greendry.core, greendry.solver):
            monkeypatch.setattr(module, "saturation_pressure", counted)
        n_steps = len(simulate(baseline_cfg, tropical_weather).states) - 1
        assert n_steps == 5760
        assert len(calls) == 2

    def test_end_of_step_saturation_error_names_step(self, baseline_cfg,
                                                     tropical_weather):
        # a 100 K inlet takes T_a below the saturation-pressure correlation
        # within step 1; the end-of-step evaluation raises, in step 1
        cfg = apply_overrides(baseline_cfg, {"airflow.T_in": 100.0})
        with pytest.raises(SimulationError,
                           match=r"^step 1 \(t=60\.0 s\): temperature 189\.8\d* K "
                                 r"below lower bound 273\.15 K$"):
            simulate(cfg, tropical_weather, horizon_s=3600.0)


def _assert_forcing_samples(weather, dt, horizon_s, n_steps):
    forcing = list(weather_forcing(weather, dt, horizon_s))
    assert len(forcing) == n_steps
    for i, f in enumerate(forcing, start=1):
        assert f.t == weather.t_start + i * dt
        w = sample(weather, min(f.t, weather.t_end))
        assert (f.I_t, f.T_am) == (w.I_t, w.T_am)
        assert f.T_am_1_5 == w.T_am**1.5
        assert f.h_w == wind_coefficient(w.V_w)
    return forcing


class TestWeatherForcing:
    def test_horizon_between_records(self):
        weather = synthetic_days(1)  # a record every 600 s
        forcing = _assert_forcing_samples(weather, 60.0, 1000.0, 16)
        assert forcing[-1].t == 960.0  # between the records at 600 and 1200 s

    def test_horizon_at_the_end_of_the_series(self):
        # 3 * 0.1 rounds above 0.3: the last step samples the series' end
        weather = series_of((
            WeatherRecord(t=0.0, I_t=0.0, T_am=300.0, V_w=1.0, rh_am=60.0),
            WeatherRecord(t=0.3, I_t=100.0, T_am=301.0, V_w=2.0, rh_am=50.0),
        ))
        forcing = _assert_forcing_samples(weather, 0.1, None, 3)
        assert forcing[-1].t > weather.t_end
        assert forcing[-1].T_am == 301.0

    def test_wind_that_varies_between_records(self):
        # the tropical preset's wind is constant; here it holds, rises,
        # falls to zero (0.0, then -0.0) and holds again, so each step's
        # wind coefficient must follow the wind sampled at its end
        speeds = [1.0, 1.0, 2.5, 0.0, -0.0, 3.0, 3.0, 0.5]
        weather = series_of(tuple(
            WeatherRecord(t=600.0 * i, I_t=100.0 * i, T_am=300.0 + i, V_w=v, rh_am=60.0)
            for i, v in enumerate(speeds)))
        forcing = _assert_forcing_samples(weather, 90.0, None, 46)
        assert len({f.h_w for f in forcing}) > len(set(speeds))

    def test_series_too_short_raises_at_once(self, baseline_cfg, monkeypatch):
        weather = synthetic_days(1)
        with pytest.raises(WeatherError, match="weather series ends at 86400.0 s"):
            weather_forcing(weather, 60.0, 2 * 86400.0)
        with pytest.raises(WeatherError, match="horizon must be >= 0"):
            weather_forcing(weather, 60.0, -1.0)

        def no_step(*args):
            raise AssertionError("a step was taken")

        monkeypatch.setattr(greendry.solver, "stepper", lambda cfg: no_step)
        with pytest.raises(WeatherError, match="weather series ends at 86400.0 s"):
            simulate(baseline_cfg, weather, horizon_s=2 * 86400.0)
        with pytest.raises(WeatherError, match="weather series ends at 86400.0 s"):
            drying_time_objective(baseline_cfg, weather, 0.08, 2 * 86400.0)

    def test_step_count_checked_at_once(self, monkeypatch):
        # a positive horizon must make 1 to MAX_STEPS steps of dt; a zero
        # horizon makes none, and its run is the initial state alone
        weather = synthetic_days(1)
        monkeypatch.setattr(greendry.solver, "MAX_STEPS", 1440)
        assert len(list(weather_forcing(weather, 60.0))) == 1440
        assert len(list(weather_forcing(weather, 86400.0))) == 1
        assert list(weather_forcing(weather, 1e6, 0.0)) == []
        for dt, n in [(50.0, "1728"), (86400.0 * (1 + 1e-8), "0"),
                      (1e-300, "8.64e+304"), (5e-324, "inf")]:
            with pytest.raises(WeatherError) as exc:
                weather_forcing(weather, dt)
            assert str(exc.value) == (f"dt = {dt} s over a horizon of 86400.0 s makes "
                                      f"{n} steps; a run takes 1 to 1440")
