import inspect
import pickle

import pytest

from greendry import errors

# one instance of every GreendryError subclass, as the package raises it
INSTANCES = [
    errors.RangeError("T_a = 190 K below lower bound 273.15 K"),
    errors.ConfigError("geometry.W must be > 0"),
    errors.WeatherError("weather ends at t=3600 s"),
    errors.KineticsError("A1 <= 0"),
    errors.SingularMatrixError(column=2, pivot=0.0),
    errors.SimulationError("step 1 (t=60.0 s): non-finite air balance"),
    errors.ComparisonError("length mismatch"),
    errors.EconomicsError("no finite payback"),
]


def test_every_error_class_is_covered():
    classes = {cls for _, cls in inspect.getmembers(errors, inspect.isclass)
               if issubclass(cls, errors.GreendryError)}
    assert classes - {errors.GreendryError} == {type(e) for e in INSTANCES}


@pytest.mark.parametrize("exc", INSTANCES, ids=lambda e: type(e).__name__)
def test_pickle_round_trip(exc):
    # a sweep worker's error crosses a process boundary by pickle
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is type(exc)
    assert str(copy) == str(exc)
    assert copy.args == exc.args
    assert vars(copy) == vars(exc)


def test_singular_matrix_error_names_column_and_pivot():
    exc = errors.SingularMatrixError(column=2, pivot=-3e-13)
    assert (exc.column, exc.pivot) == (2, -3e-13)
    assert str(exc) == ("singular matrix: pivot magnitude 3.000e-13 in column 2 "
                        "is below threshold")
