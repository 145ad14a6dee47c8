import json
import time

import pytest

from arithdyn.cli import main
from arithdyn.experiments import (
    EXIT_ASSERTION_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    ConfigError,
    ExperimentConfig,
    iterate_consistency,
    run_experiment,
)
from arithdyn.maps import ResourceCaps, TriangularMap, map_to_json_dict, triangular_map
from arithdyn.qpoly import ResourceLimitError

E1_DOC = {"dimension": 2, "components": ["x1^3+x2", "x2^2+1"]}
SECOND_DOC = {"dimension": 2, "components": ["x1*x2+1", "x2^2"]}


def first_case_cfg(**overrides):
    base = dict(map=E1_DOC, mode="first_case", n_max=6, samples=12, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


# -- config validation -------------------------------------------------------


def test_config_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        ExperimentConfig(map=E1_DOC, mode="banana")


def test_config_rejects_unknown_fields(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"map": E1_DOC, "modee": "first_case"}))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json_file(path)


def test_config_from_json_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"map": E1_DOC, "n_max": 4, "seed": 3}))
    cfg = ExperimentConfig.from_json_file(path)
    assert (cfg.mode, cfg.n_max, cfg.seed) == ("first_case", 4, 3)


def test_first_case_requires_decreasing_diagonal(tmp_path):
    cfg = ExperimentConfig(map=SECOND_DOC, mode="first_case")
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path)


# -- pipelines ---------------------------------------------------------------


def checks_by_name(result):
    return {c["name"]: c for c in result.summary["checks"]}


def test_first_case_pipeline(tmp_path):
    result = run_experiment(first_case_cfg(), tmp_path)
    checks = checks_by_name(result)
    assert result.summary["delta_exact"] == 3
    assert result.summary["prime"] == 2
    assert result.summary["C"] == 7
    for name in (
        "degree_roots_above_exact",
        "sector_stability",
        "dominant_monomial_valuation",
        "height_growth_floor",
        "lower_canonical_height_positive",
        "sector_not_surjective_witness",
        "pairwise_orbit_disjointness",
        "distinct_valuation_signatures",
        "density_proxy",
    ):
        assert checks[name]["passed"], name
    # every sector sample carries h+(P) well above 1, so the root proxy sits
    # above delta for any feasible window: an honest failure, reported as such
    assert not checks["alpha_upper_proxy"]["passed"]
    assert result.exit_code == EXIT_ASSERTION_FAILED
    written = {name.rsplit("/", 1)[-1] for name in result.files}
    assert {
        "summary.json",
        "degrees.csv",
        "sector.csv",
        "heights_sample0.csv",
        "density.csv",
        "orbit_sample0.csv",
    } <= written


def test_second_case_pipeline(tmp_path):
    cfg = ExperimentConfig(
        map=SECOND_DOC, mode="second_case_n2", point=["1", "1/2"], n_max=8
    )
    result = run_experiment(cfg, tmp_path)
    checks = checks_by_name(result)
    assert checks["second_coordinate_valuation_growth"]["passed"]
    assert checks["alpha_upper_proxy"]["passed"]
    assert result.summary["delta_exact"] == 2
    assert result.exit_code == EXIT_OK


@pytest.mark.parametrize("n_max,samples,seed", [(6, 12, 0), (4, 3, 5)])
def test_first_case_walks_each_orbit_once(tmp_path, monkeypatch, n_max, samples, seed):
    # one orbit of max(n_max, 5) steps per sample; the stability and
    # dominant-value checks read f(P) from it
    calls = []
    apply = TriangularMap.apply

    def counting_apply(self, point):
        calls.append(point)
        return apply(self, point)

    monkeypatch.setattr(TriangularMap, "apply", counting_apply)
    run_experiment(first_case_cfg(n_max=n_max, samples=samples, seed=seed), tmp_path)
    assert len(calls) == samples * max(n_max, 5)


def test_first_case_orbit_cap_raises(tmp_path):
    with pytest.raises(ResourceLimitError):
        run_experiment(first_case_cfg(), tmp_path, ResourceCaps(max_coeff_bits=20000))


def test_first_case_degree_cap_raises(tmp_path):
    # deg(f^3) needs more than 30 terms: the degree stage raises instead of
    # passing its check on the first two rows
    with pytest.raises(ResourceLimitError) as err:
        run_experiment(first_case_cfg(), tmp_path, ResourceCaps(max_terms=30))
    assert err.value.metadata["last_safe_n"] == 2
    assert not (tmp_path / "summary.json").exists()


def test_second_case_orbit_cap_raises(tmp_path):
    cfg = ExperimentConfig(
        map=SECOND_DOC, mode="second_case_n2", point=["1", "1/2"], n_max=8
    )
    with pytest.raises(ResourceLimitError):
        run_experiment(cfg, tmp_path, ResourceCaps(max_coeff_bits=100))


def test_second_case_rejects_wrong_shape(tmp_path):
    cfg = ExperimentConfig(map=E1_DOC, mode="second_case_n2")
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path)


def test_product_pipeline(tmp_path):
    cfg = ExperimentConfig(
        map={"dimension": 1, "components": ["x1^2"]},
        map_b={"dimension": 1, "components": ["x1^3"]},
        mode="product",
        point=["2", "2"],
        n_max=8,
    )
    result = run_experiment(cfg, tmp_path)
    checks = checks_by_name(result)
    assert checks["product_degree_max_rule"]["passed"]
    assert checks["product_height_additivity"]["passed"]
    assert result.summary["delta_exact"] == 3
    assert result.exit_code == EXIT_OK


def test_product_needs_second_map(tmp_path):
    cfg = ExperimentConfig(map=E1_DOC, mode="product", point=["0", "0"])
    with pytest.raises(ConfigError):
        run_experiment(cfg, tmp_path)


def test_iterate_check_pipeline(tmp_path):
    cfg = ExperimentConfig(
        map=E1_DOC,
        mode="iterate_check",
        point=["1/256", "1/2"],
        n_max=3,
        iterate_power=2,
    )
    result = run_experiment(cfg, tmp_path)
    checks = checks_by_name(result)
    assert checks["iterate_degree_power_law"]["passed"]
    assert checks["iterate_height_rows_match"]["passed"]
    assert result.exit_code == EXIT_OK


def test_iterate_consistency_values():
    report = iterate_consistency(
        triangular_map(["x1^3+x2", "x2^2+1"]), ["1/256", "1/2"], 2, 3
    )
    assert report["delta"] == 3
    assert report["delta_iterate"] == 9
    assert report["all_ok"]


def test_run_experiment_deterministic(tmp_path):
    a = run_experiment(first_case_cfg(samples=4), tmp_path / "a")
    b = run_experiment(first_case_cfg(samples=4), tmp_path / "b")
    for fa, fb in zip(sorted(a.files), sorted(b.files)):
        assert open(fa, "rb").read() == open(fb, "rb").read()


def test_seed_changes_samples(tmp_path):
    a = run_experiment(first_case_cfg(samples=4, seed=0), tmp_path / "a")
    b = run_experiment(first_case_cfg(samples=4, seed=1), tmp_path / "b")
    # the seed varies the unit numerators, visible in the raw orbit dump
    # (valuation signatures in sector.csv are seed-independent by design)
    orbit_a = (tmp_path / "a" / "orbit_sample0.csv").read_text()
    orbit_b = (tmp_path / "b" / "orbit_sample0.csv").read_text()
    assert orbit_a != orbit_b
    assert a.summary["seed"] != b.summary["seed"]


# -- CLI ----------------------------------------------------------------------


def write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_cli_run_second_case(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"map": SECOND_DOC, "mode": "second_case_n2", "point": ["1", "1/2"], "n_max": 8},
    )
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "[PASS] second_coordinate_valuation_growth" in out
    assert (tmp_path / "out" / "summary.json").exists()


def test_cli_run_invalid_map_exits_config(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"map": {"dimension": 2, "components": ["x2", "x2^2"]}, "mode": "first_case"},
    )
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_CONFIG


def test_cli_run_unknown_field_exits_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {"map": E1_DOC, "bogus": 1})
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG


def test_cli_degrees(tmp_path, capsys):
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(map_to_json_dict(triangular_map(["x1^3+x2", "x2^2+1"]))))
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "3"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "exact dynamical degree: 3" in out
    assert (tmp_path / "out" / "degrees.csv").exists()


def test_cli_degrees_cap_hit_exits_resource(tmp_path, capsys, monkeypatch):
    # a cap hit prints the error and writes no partial degrees.csv
    import arithdyn.cli as cli
    from arithdyn.degrees import dynamical_degree_sequence

    def capped(f, n_max):
        return dynamical_degree_sequence(f, n_max, ResourceCaps(max_terms=30))

    monkeypatch.setattr(cli, "dynamical_degree_sequence", capped)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(E1_DOC))
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "4"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert "'last_safe_n': 2" in captured.err
    assert "n=1" not in captured.out
    assert not (tmp_path / "out" / "degrees.csv").exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"map": E1_DOC, "n_max": "8"},
        {"map": E1_DOC, "samples": "x"},
        {"map": {"dimension": 2, "components": ["x1^3+x2", "x2^2+1/0"]}},
        {"map": SECOND_DOC, "mode": "second_case_n2", "point": ["1", "1/0"]},
    ],
    ids=["n_max_string", "samples_string", "component_zero_denominator", "point_zero_denominator"],
)
def test_cli_run_bad_input_exits_config(tmp_path, capsys, doc):
    cfg = write_cfg(tmp_path, doc)
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err


def test_cli_density_zero_denominator_exits_config(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("n,x1_num,x1_den,x2_num,x2_den\n0,1,1,2,1\n1,3,0,1,1\n")
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "1"])
    assert code == EXIT_CONFIG
    assert "zero denominator" in capsys.readouterr().err


def test_cli_density(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text(
        "n,x1_num,x1_den,x2_num,x2_den\n"
        + "".join(f"{i},{a},1,{b},1\n" for i, (a, b) in enumerate((x, y) for x in range(3) for y in range(3)))
    )
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "2"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "no_common_hypersurface" in out


def test_cli_density_degenerate_points_fail(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text(
        "n,x1_num,x1_den,x2_num,x2_den\n"
        + "".join(f"{i},{t},1,{t * t},1\n" for i, t in enumerate(range(7)))
    )
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "2"])
    assert code == EXIT_ASSERTION_FAILED


def test_cli_density_ragged_points_exits_config(tmp_path, capsys):
    # rows with one coordinate under a two-coordinate header used to be
    # zipped short against the monomials and certified dense (exit 0)
    pts = tmp_path / "pts.csv"
    pts.write_text("x1_num,x1_den,x2_num,x2_den\n1,1,2,1\n3,1\n5,1\n")
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "1"])
    assert code == EXIT_CONFIG
    assert "number of coordinates" in capsys.readouterr().err
    assert not (tmp_path / "out" / "density.csv").exists()


def test_cli_density_huge_degree_exits_resource(tmp_path, capsys):
    # C(2 + 2000, 2000) = 2003001 monomials exceed the term cap: refused
    # before any monomial is enumerated
    pts = tmp_path / "pts.csv"
    pts.write_text("x1_num,x1_den,x2_num,x2_den\n1,1,2,1\n3,1,1,1\n5,1,7,1\n")
    start = time.perf_counter()
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "2000"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOURCE
    assert "2003001 monomials" in capsys.readouterr().err
    assert not (tmp_path / "out" / "density.csv").exists()


def test_cli_seed_override(tmp_path, capsys):
    cfg = write_cfg(
        tmp_path,
        {"map": E1_DOC, "mode": "first_case", "samples": 3, "n_max": 4, "seed": 0},
    )
    main(["--out-dir", str(tmp_path / "o1"), "run", "--config", str(cfg)])
    main(["--out-dir", str(tmp_path / "o2"), "--seed", "5", "run", "--config", str(cfg)])
    capsys.readouterr()
    s1 = json.loads((tmp_path / "o1" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "o2" / "summary.json").read_text())
    assert s1["seed"] == 0 and s2["seed"] == 5


# -- malformed JSON and usage errors exit 4 ------------------------------------


@pytest.mark.parametrize("text", ["{}", "5", "[1]", '{"mode": "first_case"}'])
def test_cli_run_non_object_config_exits_config(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "'map' key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "[1]",
        "5",
        '{"dimension": 2}',
        '{"dimension": 2, "components": "x1"}',
        '{"dimension": 1, "components": [5]}',
    ],
)
def test_cli_degrees_non_object_map_exits_config(tmp_path, capsys, text):
    map_path = tmp_path / "map.json"
    map_path.write_text(text)
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "2"]
    )
    assert code == EXIT_CONFIG
    assert "'components' list" in capsys.readouterr().err


@pytest.mark.parametrize("dimension", ["[1]", '"2"', "0", "true"])
def test_cli_degrees_bad_dimension_exits_config(tmp_path, capsys, dimension):
    map_path = tmp_path / "map.json"
    map_path.write_text('{"dimension": %s, "components": ["x1"]}' % dimension)
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "1"]
    )
    assert code == EXIT_CONFIG
    assert "'dimension' must be an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "doc",
    [
        {"map": E1_DOC, "mode": "iterate_check"},
        {"map": SECOND_DOC, "mode": "second_case_n2"},
        {"map": {"dimension": 1, "components": ["x1^2"]}, "map_b": {"dimension": 1, "components": ["x1^3"]}, "mode": "product"},
    ],
    ids=["iterate_check", "second_case_n2", "product"],
)
def test_cli_run_non_list_point_exits_config(tmp_path, capsys, doc):
    cfg = write_cfg(tmp_path, {**doc, "point": 5, "n_max": 2})
    assert main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "point must be a list" in capsys.readouterr().err


@pytest.mark.parametrize(
    "point", [[True, "1/2"], [1.0, "1/2"], ["1", 0.5]], ids=["bool", "float", "float_second"]
)
@pytest.mark.parametrize(
    "doc",
    [{"map": E1_DOC, "mode": "iterate_check"}, {"map": SECOND_DOC, "mode": "second_case_n2"}],
    ids=["iterate_check", "second_case_n2"],
)
def test_cli_run_non_rational_coordinate_exits_config(tmp_path, capsys, doc, point):
    # a coordinate is an int or a rational string; JSON true and floats are refused
    cfg = write_cfg(tmp_path, {**doc, "point": point, "n_max": 2})
    assert main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "not an int, Fraction or rational string" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_run_int_digit_limit_exits_resource(tmp_path, capsys):
    # the sampled orbits outgrow Python's int -> str digit limit in orbit_sample0.csv
    cfg = write_cfg(
        tmp_path,
        {"map": {"dimension": 2, "components": ["x1^5+x2", "x2^2+1"]}, "n_max": 3, "samples": 6},
    )
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_RESOURCE
    assert "resource cap exceeded: Exceeds the limit" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


def test_cli_degrees_int_digit_limit_exits_resource(tmp_path, capsys):
    # deg f^15000 = 2^15000 has 4516 digits, over Python's default of 4300
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"dimension": 1, "components": ["x1^2"]}))
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "15000"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert "resource cap exceeded: Exceeds the limit" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out" / "degrees.csv").exists()


@pytest.mark.parametrize("field_name", ["degree_sequence_depth", "iterate_power", "density_degree"])
def test_config_error_names_the_bad_field(tmp_path, capsys, field_name):
    with pytest.raises(ConfigError, match=field_name):
        ExperimentConfig(map=E1_DOC, **{field_name: 0})
    cfg = write_cfg(tmp_path, {"map": E1_DOC, field_name: 0})
    assert main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)]) == EXIT_CONFIG
    assert f"{field_name} must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [[], ["degrees", "--nmax", "x", "--map", "m.json"], ["run"], ["frobnicate"]],
    ids=["no_subcommand", "nmax_not_int", "missing_config", "unknown_subcommand"],
)
def test_cli_usage_error_exits_config(capsys, argv):
    assert main(argv) == EXIT_CONFIG
    assert "usage: arithdyn" in capsys.readouterr().err


def test_cli_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "usage: arithdyn" in capsys.readouterr().out
