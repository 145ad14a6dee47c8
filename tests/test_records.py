"""The package's records keep the behaviour the program relies on.

They are plain classes rather than dataclasses (see ``test_import_cost``),
so each property a dataclass gave for free is pinned here: the read-only
records refuse assignment and compare by value, ``SectorConfig`` and
``ExperimentConfig`` check their fields when built, and every check in
``summary.json`` has exactly four keys.
"""

import copy
import json
import pickle
from fractions import Fraction

import pytest

from arithdyn.experiments import ConfigError, ExperimentConfig, run_experiment
from arithdyn.heights import Height, HeightRow, affine_height, height_row
from arithdyn.padic import NotPrimeError, SectorConfig
from arithdyn.qpoly import ResourceCaps

E1_DOC = {"dimension": 2, "components": ["x1^3+x2", "x2^2+1"]}
SECOND_DOC = {"dimension": 2, "components": ["x1*x2+1", "x2^2"]}

READ_ONLY = {
    "Height": Height(max_abs=3, bits=2, log=1.0986),
    "HeightRow": HeightRow(
        n=1, height_arg=3, arg_bits=2, h=1.0986, h_plus=1.0986, root=1.0986, khat=0.3662
    ),
    "ResourceCaps": ResourceCaps(max_terms=10, max_coeff_bits=20),
    "SectorConfig": SectorConfig(prime=2, C=7, dimension=2),
}
FIELDS = {
    "Height": ("max_abs", "bits", "log"),
    "HeightRow": ("n", "height_arg", "arg_bits", "h", "h_plus", "root", "khat"),
    "ResourceCaps": ("max_terms", "max_coeff_bits"),
    "SectorConfig": ("prime", "C", "dimension"),
}


@pytest.mark.parametrize("name", sorted(READ_ONLY))
def test_read_only_records_refuse_assignment(name):
    record = READ_ONLY[name]
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
        with pytest.raises(AttributeError):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 0


@pytest.mark.parametrize("name", sorted(READ_ONLY))
@pytest.mark.parametrize("make_copy", [copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))])
def test_read_only_records_copy_to_an_equal_record(name, make_copy):
    record = READ_ONLY[name]
    twin = make_copy(record)
    assert type(twin) is type(record) and twin == record
    assert [getattr(twin, f) for f in FIELDS[name]] == [getattr(record, f) for f in FIELDS[name]]


def test_records_read_their_fields_by_name():
    caps = ResourceCaps()
    assert (caps.max_terms, caps.max_coeff_bits) == (10**6, 10**7)
    assert ResourceCaps(max_coeff_bits=5).max_terms == 10**6
    cfg = SectorConfig(3, 5, 2)
    assert (cfg.prime, cfg.C, cfg.dimension) == (3, 5, 2)


def test_height_rows_compare_by_value():
    height = affine_height([Fraction(3, 2), Fraction(1, 2)])
    assert height_row(2, height, 3) == height_row(2, affine_height([Fraction(3, 2), 1]), 3)
    assert height_row(2, height, 3) != height_row(3, height, 3)
    assert height_row(2, height, 3) != height_row(2, height, 2)


def test_sector_config_checks_its_fields():
    with pytest.raises(NotPrimeError):
        SectorConfig(4, 1, 2)
    with pytest.raises(ValueError, match="C must be positive"):
        SectorConfig(2, 0, 2)
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        SectorConfig(2, 1, 0)


@pytest.mark.parametrize("field", ExperimentConfig.INT_FIELDS)
@pytest.mark.parametrize("bad", [True, "8", 8.0], ids=["bool", "str", "float"])
def test_config_int_fields_refuse_non_ints(field, bad):
    with pytest.raises(ConfigError, match=f"^{field} must be an integer, got {bad!r}$"):
        ExperimentConfig(map=E1_DOC, **{field: bad})


def test_config_int_fields_are_the_numeric_settings():
    assert set(ExperimentConfig.INT_FIELDS) == {
        "prime", "c_constant", "n_max", "samples", "seed", "density_degree",
        "degree_sequence_depth", "iterate_power",
    }


@pytest.mark.parametrize("field", ExperimentConfig.INT_FIELDS)
def test_config_only_prime_and_c_constant_accept_none(field):
    if field in ("prime", "c_constant"):
        assert getattr(ExperimentConfig(map=E1_DOC, **{field: None}), field) is None
    else:
        with pytest.raises(ConfigError, match=f"^{field} must be an integer, got None$"):
            ExperimentConfig(map=E1_DOC, **{field: None})


def test_config_defaults_and_unknown_fields(tmp_path):
    cfg = ExperimentConfig(map=E1_DOC)
    assert {name: getattr(cfg, name) for name in ExperimentConfig.DEFAULTS} == ExperimentConfig.DEFAULTS
    assert cfg.map is E1_DOC
    with pytest.raises(ConfigError, match=r"^unknown config fields: \['modee', 'self'\]$"):
        ExperimentConfig(map=E1_DOC, modee="first_case", self=1)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"map": E1_DOC, "self": 1}))
    with pytest.raises(ConfigError, match=r"^unknown config fields: \['self'\]$"):
        ExperimentConfig.from_json_file(path)


MODE_CONFIGS = {
    "first_case": dict(map=E1_DOC, n_max=6),
    "second_case_n2": dict(map=SECOND_DOC, n_max=4, point=["1", "1/2"]),
    "product": dict(map=E1_DOC, map_b=SECOND_DOC, n_max=4, point=["1", "1/2", "1", "1/2"]),
    "iterate_check": dict(map=E1_DOC, n_max=3, point=["1", "1/2"]),
}


@pytest.mark.parametrize("mode", sorted(MODE_CONFIGS))
def test_summary_checks_have_exactly_four_keys(tmp_path, mode):
    result = run_experiment(ExperimentConfig(mode=mode, **MODE_CONFIGS[mode]), tmp_path)
    written = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    for summary in (result.summary, written):
        assert summary["checks"]
        for check in summary["checks"]:
            assert set(check) == {"name", "statement", "passed", "details"}
