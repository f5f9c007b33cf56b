"""The package's records: a class is a dataclass only when it checks itself
as it is built, in __post_init__; every other record is a NamedTuple, which
is cheaper to define and to build."""

import ast
import json
import math
import pickle
from pathlib import Path

import pytest

import greendry
from greendry.config import config_from_dict
from greendry.errors import ConfigError
from greendry.sweep import SweepResult

PACKAGE = Path(greendry.__file__).parent


def _decorator_name(node):
    """The name of a decorator: dataclass for @dataclass,
    @dataclasses.dataclass and @dataclass(frozen=True) alike."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def _dataclasses_without_post_init():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef)
                    and "dataclass" in map(_decorator_name, node.decorator_list)
                    and not any(isinstance(item, ast.FunctionDef)
                                and item.name == "__post_init__" for item in node.body)):
                found.append(f"{path.name}:{node.name}")
    return found


def test_every_dataclass_checks_itself():
    assert _dataclasses_without_post_init() == []


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
    assert [type(section) for section in vars(copy).values()] == \
        [type(section) for section in vars(baseline_cfg).values()]
