import math
import re

import pytest
import yaml

from greendry.config import (
    _ANY_SIGN,
    _FRACTIONS,
    _NONNEGATIVE,
    _SECTIONS,
    Numerics,
    apply_overrides,
    config_from_dict,
    load_config,
    read_yaml,
)
from greendry.errors import ConfigError

from conftest import CONFIG_DIR
from test_solver import BASE, make_cfg

FIELDS = [f"{section}.{name}" for section, values in BASE.items()
          for name in values] + ["numerics.pressure"]
# the fields a config must give: those with no default
REQUIRED = [f"{section}.{name}" for section, cls in _SECTIONS.items()
            for name in cls._fields if name not in cls._field_defaults]


def _just_outside(path):
    """The values nearest each bound of path that its config rejects."""
    below_zero = math.nextafter(0.0, -1.0)
    if path in _FRACTIONS:
        return [below_zero, math.nextafter(1.0, 2.0)]
    if path in _NONNEGATIVE:
        return [below_zero]
    if path in _ANY_SIGN:
        return [0.0] if path == "kinetics.b2" else []
    return [0.0, below_zero]


def _at_bound(path):
    """The values of path at its bounds that its config accepts; the
    cover's other radiation fraction is 0, so that alpha_c + tau_c <= 1."""
    if path in _FRACTIONS:
        return [0.0, 1.0]
    if path in _NONNEGATIVE:
        return [0.0]
    if path in _ANY_SIGN:
        return [-1.0, 1.0]
    return [math.nextafter(0.0, 1.0)]


def _make_with(path, value):
    section, name = path.split(".")
    values = {name: value}
    partner = {"alpha_c": "tau_c", "tau_c": "alpha_c"}.get(name)
    if partner:
        values[partner] = 0.0
    return make_cfg(**{section: values})


class TestValidation:
    def test_baseline_loads(self, baseline_config_path):
        cfg = load_config(baseline_config_path)
        assert cfg.M_0 == pytest.approx(0.522)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.yaml")

    def test_missing_section(self):
        data = {k: dict(v) for k, v in BASE.items()}
        del data["cover"]
        with pytest.raises(ConfigError, match="cover"):
            config_from_dict(data)

    def test_unknown_key(self):
        data = {k: dict(v) for k, v in BASE.items()}
        data["cover"]["bogus"] = 1.0
        with pytest.raises(ConfigError, match="bogus"):
            config_from_dict(data)

    def test_negative_area_rejected(self):
        with pytest.raises(ConfigError, match="A_c"):
            make_cfg(geometry={"A_c": -1.0})

    def test_absorptance_plus_transmittance_bound(self):
        with pytest.raises(ConfigError, match="<= 1"):
            make_cfg(cover={"alpha_c": 0.3, "tau_c": 0.8})

    def test_fraction_out_of_range(self):
        with pytest.raises(ConfigError, match="F_p"):
            make_cfg(product={"F_p": 1.2})

    def test_zero_dt_rejected(self):
        with pytest.raises(ConfigError, match="dt"):
            make_cfg(numerics={"dt": 0.0})

    def test_one_value_per_physical_input(self, baseline_cfg):
        paths = [f"{section}.{name}"
                 for section, values in baseline_cfg.to_dict().items()
                 for name in values]
        assert sorted(paths) == sorted(FIELDS)
        assert len(paths) == 33

    @pytest.mark.parametrize("section, key", [
        ("floor", "k_f"), ("airflow", "V_in"), ("airflow", "V_out"),
        ("numerics", "linearization"), ("product", "m_p"),
        ("cover", "m_c"), ("cover", "C_pc"), ("cover", "k_c"), ("cover", "delta_c"),
        ("product", "rho_p"), ("geometry", "D_p"),
    ])
    def test_removed_keys_rejected(self, section, key):
        data = {k: dict(v) for k, v in BASE.items()}
        data[section][key] = 1.0
        with pytest.raises(ConfigError, match=f"unknown keys in {section}.*{key}"):
            config_from_dict(data)

    @pytest.mark.parametrize("path", FIELDS)
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected_by_name(self, path, value):
        section, name = path.split(".")
        with pytest.raises(ConfigError, match=f"{path} must be finite"):
            make_cfg(**{section: {name: value}})

    @pytest.mark.parametrize("path", FIELDS)
    def test_value_just_outside_its_bound_rejected_by_name(self, path):
        for value in _just_outside(path):
            with pytest.raises(ConfigError, match=f"^{re.escape(path)} must be"):
                _make_with(path, value)

    @pytest.mark.parametrize("path", FIELDS)
    def test_value_at_its_bound_accepted(self, path):
        for value in _at_bound(path):
            section, name = path.split(".")
            assert getattr(getattr(_make_with(path, value), section), name) == value

    def test_bounds_the_physics_relies_on(self):
        # the physics functions do not check these again: the hydraulic
        # diameter divides by W + D, a step by dt; U_c and V_a may be 0;
        # emissivities are fractions
        rest = set(FIELDS) - _FRACTIONS - _NONNEGATIVE - _ANY_SIGN
        assert {"geometry.W", "geometry.D", "numerics.dt"} <= rest
        assert {"cover.U_c", "airflow.V_a"} <= _NONNEGATIVE
        assert {"cover.eps_c", "product.eps_p"} <= _FRACTIONS
        assert (_FRACTIONS | _NONNEGATIVE | _ANY_SIGN) <= set(FIELDS)

    @pytest.mark.parametrize("c_sky", [0.0, -0.0552])
    def test_non_positive_sky_coefficient_rejected(self, c_sky):
        with pytest.raises(ConfigError, match="kinetics.c_sky"):
            make_cfg(kinetics={"c_sky": c_sky})

    @pytest.mark.parametrize("path", REQUIRED)
    def test_missing_key_named_with_its_section(self, path):
        section, name = path.split(".")
        data = {k: dict(v) for k, v in BASE.items()}
        del data[section][name]
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        assert str(exc.value) == f"missing keys in {section}: [{name!r}]"

    def test_required_fields_are_all_but_the_defaults(self):
        assert len(REQUIRED) == 30
        assert set(FIELDS) - set(REQUIRED) == {"kinetics.c_sky", "numerics.dt",
                                               "numerics.pressure"}

    @pytest.mark.parametrize("section", [s for s in BASE if s != "numerics"])
    @pytest.mark.parametrize("absent", ["deleted", "null"])
    def test_missing_section_named(self, section, absent):
        data = {k: dict(v) for k, v in BASE.items()}
        if absent == "deleted":
            del data[section]
        else:
            data[section] = None
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        assert str(exc.value) == f"missing keys in the config: [{section!r}]"

    @pytest.mark.parametrize("block", ["the config", "floor"])
    def test_non_string_key_beside_unknown_key(self, block):
        data = {k: dict(v) for k, v in BASE.items()}
        target = data if block == "the config" else data[block]
        target[1] = 2.0
        target["bogus"] = 1.0
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        assert str(exc.value) == f"unknown keys in {block}: ['1', 'bogus']"

    @pytest.mark.parametrize("block", ["the config", "floor"])
    def test_block_not_a_mapping(self, block):
        data = {k: dict(v) for k, v in BASE.items()}
        if block == "the config":
            data = [data]
        else:
            data[block] = [1.0, 2.0]
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        assert str(exc.value) == f"{block} must be a mapping"

    def test_null_numerics_is_the_default(self):
        data = {k: dict(v) for k, v in BASE.items()}
        data["numerics"] = None
        assert config_from_dict(data).numerics == Numerics()

    def test_omitted_sky_coefficient_is_the_default(self):
        data = {k: dict(v) for k, v in BASE.items()}
        del data["kinetics"]["c_sky"]
        assert config_from_dict(data).kinetics.c_sky == 0.0550

    def test_value_checked_before_missing_key(self):
        data = {k: dict(v) for k, v in BASE.items()}
        del data["floor"]["h_dfg"]
        data["floor"]["T_deep"] = "warm"
        with pytest.raises(ConfigError) as exc:
            config_from_dict(data)
        assert str(exc.value) == "floor.T_deep must be numeric, got 'warm'"

    @pytest.mark.parametrize("word, value", [("yes", True), ("no", False)])
    def test_yaml_boolean_is_not_a_number(self, word, value, tmp_path):
        # YAML 1.1 reads yes and no as booleans, which float() would take
        # for 1.0 and 0.0
        text = (CONFIG_DIR / "baseline_copra.yaml").read_text(encoding="utf-8")
        path = tmp_path / "config.yaml"
        path.write_text(re.sub(r"V_a: 1\.5\b", f"V_a: {word}", text), encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"airflow.V_a must be numeric, got {value}"

    def test_numerics_defaults(self):
        data = {k: dict(v) for k, v in BASE.items()}
        del data["numerics"]
        cfg = config_from_dict(data)
        assert cfg.numerics.dt == 60.0
        assert cfg.numerics.pressure == 101325.0


class TestOverrides:
    def test_override_applies(self, baseline_cfg):
        cfg = apply_overrides(baseline_cfg, {"airflow.V_vent": 0.5})
        assert cfg.airflow.V_vent == 0.5
        assert baseline_cfg.airflow.V_vent != 0.5  # original untouched

    def test_unknown_path(self, baseline_cfg):
        with pytest.raises(ConfigError, match="unknown"):
            apply_overrides(baseline_cfg, {"airflow.nope": 1.0})

    def test_bad_path_shape(self, baseline_cfg):
        with pytest.raises(ConfigError):
            apply_overrides(baseline_cfg, {"V_vent": 1.0})

    def test_override_revalidates(self, baseline_cfg):
        with pytest.raises(ConfigError):
            apply_overrides(baseline_cfg, {"geometry.A_c": -5.0})

    @pytest.mark.parametrize("value, message", [
        ("abc", "floor.h_dfg must be numeric, got 'abc'"),
        (None, "floor.h_dfg must be numeric, got None"),
        (True, "floor.h_dfg must be numeric, got True"),
    ])
    def test_override_value_named_as_in_a_config(self, baseline_cfg, value, message):
        with pytest.raises(ConfigError) as exc:
            apply_overrides(baseline_cfg, {"floor.h_dfg": value})
        assert str(exc.value) == message


# a sweep spec with every block and the forms YAML gives them: flow and
# block sequences and mappings, comments, a leading dot and an exponent
# without a dot (a string in YAML 1.1)
SWEEP_SPEC = """\
# payback of a ventilation x cover grid
objective: payback
target_mdb: 0.08
horizon_h: 60.0
economics: {capital: 11500.0, operating_cost: 1000.0,
            annual_production: 250.0, unit_premium: 24.0}
parameters:
  airflow.V_vent: [0.05, 0.1, 2e-1]
  cover.tau_c:
    - 0.7
    - .85
  product.F_p: [0.5]
"""


class TestReadYaml:
    """read_yaml parses with libyaml when PyYAML has it: the same data as
    the pure-Python SafeLoader, and the same message for a file that is
    not YAML."""

    @pytest.mark.parametrize("name", [p.name for p in sorted(CONFIG_DIR.glob("*.yaml"))]
                             + ["sweep_spec.yaml"])
    def test_loaders_agree(self, name, tmp_path):
        path = CONFIG_DIR / name
        if name == "sweep_spec.yaml":
            path = tmp_path / name
            path.write_text(SWEEP_SPEC)
        text = path.read_text()
        data = yaml.load(text, Loader=yaml.SafeLoader)
        assert data  # not empty
        assert yaml.load(text, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader)) == data
        assert read_yaml(path, "file") == data

    def test_malformed_message_is_safe_loaders(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text("geometry: {W: 1.0\ncover: [1, 2\n")
        with pytest.raises(yaml.YAMLError) as reference:
            yaml.load(path.read_text(), Loader=yaml.SafeLoader)
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert str(exc.value) == f"cannot parse {path}: {reference.value}"
        assert "^" in str(exc.value)  # the caret under the line in error
