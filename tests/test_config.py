import json
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from ionsampler.config import (
    _KIND_NAMES,
    ConfigError,
    DDSpec,
    DetectionSpec,
    SamplingSpec,
    Tolerances,
    load_config,
    parse_config,
)

OPTIONAL_SECTIONS = {
    "dd": DDSpec,
    "sampling": SamplingSpec,
    "detection": DetectionSpec,
    "tolerances": Tolerances,
}
# A value just below each field's minimum, for the fields that have one.
BELOW_MINIMUM = {
    ("dd", "n_sub"): 0,
    ("sampling", "num_samples"): 0,
    ("sampling", "seed"): -1,
    ("detection", "max_repetitions"): 0,
    ("detection", "seed"): -1,
    ("tolerances", "solver"): -1e-3,
    ("tolerances", "unitarity"): -1e-3,
    ("tolerances", "normalization"): -1e-3,
}
OPTIONAL_FIELDS = [
    (section, field) for section, cls in OPTIONAL_SECTIONS.items() for field in fields(cls)
]


def minimal_config() -> dict:
    return {
        "trap": {"omega_x_hz": 5e6, "omega_z_hz": 0.5e6},
        "chain": {"num_ions": 3},
        "input": {"occupations": [1, 1, 0]},
        "target": {"kind": "identity"},
    }


def test_minimal_config_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.num_ions == 3
    assert cfg.occupations == (1, 1, 0)
    assert cfg.trap.omega_x == pytest.approx(2 * np.pi * 5e6)
    assert cfg.dd.n_sub == 16
    assert cfg.dd.scheme == "hadamard"
    assert cfg.sampling.num_samples == 1000
    assert cfg.detection.readout_fidelity == 0.99
    assert cfg.tolerances.normalization == 1e-9


def test_unknown_top_level_key():
    data = minimal_config()
    data["extra"] = 1
    with pytest.raises(ConfigError, match=r"config\.extra"):
        parse_config(data)


def test_unknown_nested_key():
    data = minimal_config()
    data["trap"]["omega_y_hz"] = 1e6
    with pytest.raises(ConfigError, match=r"config\.trap\.omega_y_hz"):
        parse_config(data)


def test_missing_required_field_named():
    data = minimal_config()
    del data["chain"]["num_ions"]
    with pytest.raises(ConfigError, match=r"config\.chain\.num_ions"):
        parse_config(data)


def test_wrong_type_named():
    data = minimal_config()
    data["chain"]["num_ions"] = "three"
    with pytest.raises(ConfigError, match=r"config\.chain\.num_ions"):
        parse_config(data)


def test_occupation_length_mismatch():
    data = minimal_config()
    data["input"]["occupations"] = [1, 1]
    with pytest.raises(ConfigError, match=r"config\.input\.occupations"):
        parse_config(data)


def test_negative_occupation_rejected():
    data = minimal_config()
    data["input"]["occupations"] = [1, -1, 1]
    with pytest.raises(ConfigError, match="occupations"):
        parse_config(data)


def test_empty_input_rejected():
    data = minimal_config()
    data["input"]["occupations"] = [0, 0, 0]
    with pytest.raises(ConfigError, match="at least one boson"):
        parse_config(data)


def test_haar_requires_seed():
    data = minimal_config()
    data["target"] = {"kind": "haar"}
    with pytest.raises(ConfigError, match=r"config\.target\.seed"):
        parse_config(data)


def test_file_requires_path():
    data = minimal_config()
    data["target"] = {"kind": "file"}
    with pytest.raises(ConfigError, match=r"config\.target\.path"):
        parse_config(data)


def test_unknown_target_kind():
    data = minimal_config()
    data["target"] = {"kind": "dft"}
    with pytest.raises(ConfigError, match=r"config\.target\.kind"):
        parse_config(data)


def test_trap_invariant_surfaced_as_config_error():
    data = minimal_config()
    data["trap"] = {"omega_x_hz": 0.5e6, "omega_z_hz": 5e6}
    with pytest.raises(ConfigError, match=r"config\.trap"):
        parse_config(data)


def test_detection_fidelity_range_checked():
    data = minimal_config()
    data["detection"] = {"readout_fidelity": 0.4}
    with pytest.raises(ConfigError, match=r"config\.detection"):
        parse_config(data)


def test_zero_solver_tolerance_rejected():
    # the chain solver iterates until its residual drops below the tolerance
    data = minimal_config()
    data["tolerances"] = {"solver": 0}
    with pytest.raises(ConfigError, match=r"^config\.tolerances\.solver: must be > 0, got 0"):
        parse_config(data)


@pytest.mark.parametrize("value", [0, 0.0])
def test_zero_unitarity_tolerance_rejected(value):
    # no computed unitary meets it, so decompose would refuse the target only
    # after the chain stages had written their artifacts
    data = minimal_config()
    data["tolerances"] = {"unitarity": value}
    with pytest.raises(ConfigError, match=r"^config\.tolerances\.unitarity: must be > 0, got 0\.0$"):
        parse_config(data)


def test_zero_normalization_tolerance_accepted():
    # it refuses only a distribution whose sum is not exactly 1.0
    data = minimal_config()
    data["tolerances"] = {"normalization": 0}
    assert parse_config(data).tolerances.normalization == 0.0


def test_bad_dd_scheme():
    data = minimal_config()
    data["dd"] = {"scheme": "random"}
    with pytest.raises(ConfigError, match=r"config\.dd\.scheme"):
        parse_config(data)


def test_seed_override_copies_everywhere():
    data = minimal_config()
    data["target"] = {"kind": "haar", "seed": 1}
    data["sampling"] = {"seed": 2}
    data["detection"] = {"seed": 3}
    cfg = parse_config(data).with_seed(99)
    assert cfg.target.seed == 99
    assert cfg.sampling.seed == 99
    assert cfg.detection.seed == 99


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(tmp_path / "nope.json")


def test_load_config_invalid_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(minimal_config()))
    cfg = load_config(path)
    assert cfg.target.kind == "identity"


def _rejected_values():
    for section, field in OPTIONAL_FIELDS:
        wrong_type = 1 if isinstance(field.default, str) else "1"
        values = {"type": wrong_type, "bool": True, "nan": float("nan")}
        if (section, field.name) in BELOW_MINIMUM:
            values["below-minimum"] = BELOW_MINIMUM[section, field.name]
        for case, value in values.items():
            yield pytest.param(section, field.name, value, id=f"{section}.{field.name}-{case}")


@pytest.mark.parametrize("section, name, value", _rejected_values())
def test_optional_field_rejection_names_the_field(section, name, value):
    data = minimal_config()
    data[section] = {name: value}
    with pytest.raises(ConfigError, match=rf"^config\.{section}\.{name}: "):
        parse_config(data)


@pytest.mark.parametrize(
    "section, field", OPTIONAL_FIELDS, ids=[f"{s}.{f.name}" for s, f in OPTIONAL_FIELDS]
)
def test_optional_field_absent_takes_the_dataclass_default(section, field):
    data = minimal_config()
    data[section] = {}
    assert getattr(getattr(parse_config(data), section), field.name) == field.default
    del data[section]
    assert getattr(getattr(parse_config(data), section), field.name) == field.default


@pytest.mark.parametrize(
    "section, field", OPTIONAL_FIELDS, ids=[f"{s}.{f.name}" for s, f in OPTIONAL_FIELDS]
)
def test_optional_field_annotation_names_a_kind(section, field):
    # the sections read each field by the kind its annotation names, so a
    # field annotated otherwise (a union, a typing alias) must fail here
    assert isinstance(field.default, _KIND_NAMES[field.type])


def test_readme_example_config_parses():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = re.search(r"### Config\n.*?```json\n(.*?)```", readme, re.S).group(1)
    cfg = parse_config(json.loads(example))
    assert cfg.num_ions == 4
    assert cfg.target.kind == "fourier"
    assert cfg.dd.n_sub == 64
    assert cfg.sampling.num_samples == 20000
    assert cfg.detection.seed == 7
