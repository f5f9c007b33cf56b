"""The package's records: each is a NamedTuple, or a NamedTuple subclass
whose __new__ checks it as it is built (DryerConfig, SweepSpec), or a
__slots__ class (WeatherSeries); none needs dataclasses, whose import
costs every command's start-up."""

import ast
import json
import math
import pickle
from pathlib import Path

import pytest

import greendry
from greendry.config import config_from_dict
from greendry.errors import ConfigError
from greendry.sweep import SweepResult, SweepSpec
from greendry.weather import synthetic_days

PACKAGE = Path(greendry.__file__).parent
NOT_IMPORTED = {"click", "dataclasses"}


def _imported_modules(source: str) -> set[str]:
    """The top-level names of the modules that source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_checker_finds_imports():
    source = ("import os.path, click as c\nfrom dataclasses import dataclass\n"
              "from . import config\n\ndef f():\n    import yaml\n")
    assert _imported_modules(source) == {"os", "click", "dataclasses", "yaml"}


def test_no_module_imports_click_or_dataclasses():
    imports = {path.name: _imported_modules(path.read_text(encoding="utf-8"))
               for path in sorted(PACKAGE.glob("*.py"))}
    assert "cli.py" in imports
    assert {name: found & NOT_IMPORTED for name, found in imports.items()
            if found & NOT_IMPORTED} == {}


def test_to_dict_is_plain_data(baseline_cfg):
    data = baseline_cfg.to_dict()
    assert json.loads(json.dumps(data)) == data
    assert config_from_dict(data) == baseline_cfg


def test_section_missing_a_key_names_section_and_key(baseline_cfg):
    data = baseline_cfg.to_dict()
    del data["floor"]["h_dfg"]
    with pytest.raises(ConfigError, match=r"^missing keys in floor: \['h_dfg'\]$"):
        config_from_dict(data)


@pytest.mark.parametrize("record", [
    SweepResult(point=(("airflow.V_a", 1.5),), objective=42.25),
    SweepResult(point=(("cover.tau_c", 0.8), ("airflow.V_a", 0.0)),
                objective=math.inf, error="step 3 (t=180.0 s): failed"),
], ids=["reached", "failed"])
def test_sweep_result_pickles(record):
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is SweepResult
    assert copy.reached == record.reached


def test_config_pickles(baseline_cfg):
    copy = pickle.loads(pickle.dumps(baseline_cfg))
    assert copy == baseline_cfg
    assert type(copy) is type(baseline_cfg)
    assert [type(section).__name__ for section in copy] == \
        [type(section).__name__ for section in baseline_cfg] == \
        ["Geometry", "Cover", "Floor", "Product", "Airflow", "Kinetics", "Numerics"]



def test_config_checks_itself_in_replace_and_unpickling(baseline_cfg):
    cover = baseline_cfg.cover._replace(tau_c=0.95)  # alpha_c 0.06 + 0.95 > 1
    message = r"^cover absorptance \+ transmittance must be <= 1, got 1\.01"
    with pytest.raises(ConfigError, match=message):
        baseline_cfg._replace(cover=cover)
    unchecked = tuple.__new__(type(baseline_cfg),
                              (baseline_cfg.geometry, cover, *baseline_cfg[2:]))
    with pytest.raises(ConfigError, match=message):
        pickle.loads(pickle.dumps(unchecked))


def test_sweep_spec_checks_itself_in_replace():
    spec = SweepSpec(parameters=(("airflow.V_a", (1.0,)),), objective="drying_time",
                     target_mdb=0.08, weather=synthetic_days(1))
    assert spec._replace(target_mdb=0.1).target_mdb == 0.1
    with pytest.raises(ConfigError, match=r"^unknown objective 'fastest'$"):
        spec._replace(objective="fastest")
