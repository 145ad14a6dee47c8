import json
import time
import tracemalloc
from fractions import Fraction

import pytest
from corpus import E1_DOC, SECOND_DOC, first_case_cfg

import arithdyn.experiments as experiments
from arithdyn import orbit_tail, padic
from arithdyn.cli import main
from arithdyn.experiments import (
    EXIT_ASSERTION_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    ConfigError,
    ExperimentConfig,
    _height_checks,
    run_experiment,
)
from arithdyn.heights import HeightRow
from arithdyn.maps import ResourceCaps, TriangularMap, map_to_json_dict, triangular_map
from arithdyn.qpoly import ResourceLimitError


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
    # the minimal-signature point (8, 1) lies below the image floor 3*8
    assert checks["sector_not_surjective_witness"]["details"] == {
        "witness": ["1/256", "1/2"],
        "image_floor": 24,
    }
    # every sector sample carries h+(P) well above 1, so the root proxy sits
    # above delta for any feasible window: an honest failure, reported as such
    assert not checks["alpha_upper_proxy"]["passed"]
    assert result.exit_code == EXIT_ASSERTION_FAILED
    # every report, in the order written, summary.json last
    assert [name.rsplit("/", 1)[-1] for name in result.files] == [
        "degrees.csv",
        "sector.csv",
        "heights_sample0.csv",
        "density.csv",
        "orbit_sample0.csv",
        "summary.json",
    ]


def test_first_case_witness_in_dimension_one(tmp_path):
    cfg = ExperimentConfig(map={"dimension": 1, "components": ["x1^2"]}, samples=2, n_max=4)
    check = checks_by_name(run_experiment(cfg, tmp_path))["sector_not_surjective_witness"]
    assert check["passed"]
    assert check["details"] == {"witness": ["1/2"], "image_floor": 2}


def test_first_case_witness_fails_when_the_image_floor_does_not_exceed_it(
    tmp_path, capsys, monkeypatch
):
    # with an image floor equal to the witness exponent the statement is
    # false: the check reports it and the run ends with exit 2
    monkeypatch.setattr(padic, "image_signature", lambda f, sig: tuple(sig))
    cfg = write_cfg(tmp_path, {"map": E1_DOC, "mode": "first_case", "samples": 3, "n_max": 4})
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_ASSERTION_FAILED
    assert "[FAIL] sector_not_surjective_witness" in capsys.readouterr().out
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    (check,) = [c for c in summary["checks"] if c["name"] == "sector_not_surjective_witness"]
    assert not check["passed"]
    assert check["details"]["image_floor"] == 8


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


def _seq(*khats):
    # rows with h+ = 3^n * khat, so a_n = (3^n * khat)^(1/n)
    return [
        HeightRow(
            n=n, height_arg=1, arg_bits=1, h=3**n * k, h_plus=3**n * k,
            root=(3**n * k) ** (1 / n) if n else None, khat=k,
        )
        for n, k in enumerate(khats)
    ]


def test_height_checks_floor_above_one_row_fails():
    seqs = [_seq(2.0, 2.0, 2.0), _seq(2.0, 1.5, 2.0)]
    checks = _height_checks(seqs, 3, floors=[1.0, 1.0])
    assert [c.name for c in checks] == ["lower_canonical_height_positive", "alpha_upper_proxy"]
    assert checks[0].passed
    # the floor of the second sequence sits above its row-1 khat
    failed = _height_checks(seqs, 3, floors=[1.0, 1.6])[0]
    assert failed.name == "lower_canonical_height_positive" and not failed.passed


def test_height_checks_without_floors_is_the_root_proxy_alone():
    # a_2 = 3 * 100^(1/2) is far above delta, but rows with n < 5 do not count
    seq = _seq(1.0, 1.0, 100.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    (check,) = _height_checks([seq], 3)
    assert check.name == "alpha_upper_proxy" and check.passed
    assert check.details == {"max_root": max(row.root for row in seq[5:]), "delta_exact": 3}
    # a sequence that never reaches n = 5 has no root to bound and fails
    (short,) = _height_checks([_seq(1.0, 1.0, 1.0, 1.0, 1.0)], 3)
    assert short.details["max_root"] is None and not short.passed


@pytest.mark.parametrize(
    "doc,steps",
    [
        # one exact orbit of 5 steps per sample, the printed prefix, walked
        # on (k, N) pairs; the stability and dominant-value checks read f(P)
        # from it, and the steps past it are certified without an exact
        # step (orbit_tail)
        pytest.param(dict(mode="first_case", n_max=6, samples=12, seed=0), 12 * 5, id="first_case-6-12-0"),
        pytest.param(dict(mode="first_case", n_max=4, samples=3, seed=5), 3 * 5, id="first_case-4-3-5"),
        # the same prefix for the second-case orbit and each product factor
        pytest.param(
            dict(map=SECOND_DOC, mode="second_case_n2", point=["1", "1/2"], n_max=8), 5, id="second_case_n2"
        ),
        # one walk per factor, none of the product map
        pytest.param(
            dict(map_b=SECOND_DOC, mode="product", point=["1/256", "1/2", "1", "1/2"], n_max=6),
            2 * 5,
            id="product",
        ),
        # n_max steps of f^t, then t * n_max steps of f
        pytest.param(
            dict(mode="iterate_check", point=["1/256", "1/2"], n_max=3, iterate_power=2),
            3 + 2 * 3,
            id="iterate_check",
        ),
    ],
)
def test_each_mode_walks_each_orbit_once(tmp_path, monkeypatch, doc, steps):
    # an exact step is an f.apply or a step of the prefix on (k, N) pairs
    calls = []
    apply, pair_step = TriangularMap.apply, orbit_tail._pair_step

    def counting_apply(self, point):
        calls.append(point)
        return apply(self, point)

    def counting_pair_step(table, p, ks, nums):
        calls.append(nums)
        return pair_step(table, p, ks, nums)

    monkeypatch.setattr(TriangularMap, "apply", counting_apply)
    monkeypatch.setattr(orbit_tail, "_pair_step", counting_pair_step)
    run_experiment(ExperimentConfig(**{"map": E1_DOC, **doc}), tmp_path)
    assert len(calls) == steps


def test_first_case_orbit_cap_raises(tmp_path):
    with pytest.raises(ResourceLimitError):
        run_experiment(first_case_cfg(), tmp_path, ResourceCaps(max_coeff_bits=20000))


def test_first_case_degree_cap_raises(tmp_path):
    # the bit lengths of deg(f^n) = 3, 9, 27 sum to 11 > 10 at n = 3: the
    # degree stage raises instead of passing its check on the first two rows
    with pytest.raises(ResourceLimitError) as err:
        run_experiment(first_case_cfg(), tmp_path, ResourceCaps(max_coeff_bits=10))
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


def test_product_on_fixed_points_runs_past_the_float_range(tmp_path):
    # delta^n passes 2^1024 while the heights stay 0: the factors' khat rows
    # must not overflow
    cfg = ExperimentConfig(
        map={"dimension": 1, "components": ["x1^2"]},
        map_b={"dimension": 1, "components": ["x1^3"]},
        mode="product",
        point=["1", "0"],
        n_max=1100,
    )
    result = run_experiment(cfg, tmp_path)
    assert result.exit_code == EXIT_OK
    assert checks_by_name(result)["product_height_additivity"]["details"]["last_root"] == 1.0


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


def test_iterate_consistency_values(tmp_path):
    cfg = ExperimentConfig(
        map=map_to_json_dict(triangular_map(["x1^3+x2", "x2^2+1"])),
        mode="iterate_check",
        point=["1/256", "1/2"],
        n_max=3,
        iterate_power=2,
    )
    checks = checks_by_name(run_experiment(cfg, tmp_path))
    power_law = checks["iterate_degree_power_law"]
    assert power_law["details"]["delta"] == 3
    assert power_law["details"]["delta_iterate"] == 9
    assert power_law["passed"]
    assert checks["iterate_height_rows_match"]["passed"]


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
        return dynamical_degree_sequence(f, n_max, ResourceCaps(max_coeff_bits=10))

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


def test_cli_run_second_case_default_start(tmp_path, capsys):
    # no point: the start is (1, x2) with x2 from a seeded sector sample, so
    # |x2|_p > 1; only the alpha_upper_proxy check fails (exit 2), as on
    # every second_case_n2 run
    cfg = write_cfg(tmp_path, {"map": SECOND_DOC, "mode": "second_case_n2", "seed": 3})
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_ASSERTION_FAILED
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    x1, x2 = (Fraction(c) for c in summary["point"])
    assert x1 == 1 and x2.denominator % summary["prime"] == 0
    assert [c["name"] for c in summary["checks"] if not c["passed"]] == ["alpha_upper_proxy"]


def test_second_case_default_start_builds_no_first_coordinate(tmp_path):
    # x2 = a/p takes the draw sample_U's first sample gives x2, and no
    # x1 = a/p^(C+1) is built only to be dropped: at C = 10**8 that one
    # power alone would hold 12.5 MB
    cfg = ExperimentConfig(map=SECOND_DOC, mode="second_case_n2", seed=3, c_constant=10**8, n_max=4)
    tracemalloc.start()
    try:
        result = run_experiment(cfg, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [Fraction(c) for c in result.summary["point"]] == [1, Fraction(5, 2)]
    assert peak < 2**20


@pytest.mark.parametrize(
    "doc, message",
    [
        (
            {"map": E1_DOC, "mode": "iterate_check", "iterate_power": 4, "point": ["1/256", "1/2"]},
            "iterate_power is capped at 3",
        ),
        (
            {"map": E1_DOC, "map_b": SECOND_DOC, "mode": "product", "point": ["1/256", "1/2", "1"]},
            "N_f + N_g coordinates",
        ),
        ({"map": {"dimension": 1, "components": ["x0"]}}, "bad variable x0"),
        ({"map": {"dimension": 1, "components": ["x1^"]}}, "exponent after '^'"),
        ({"map": {"dimension": 1, "components": ["x1^x1"]}}, "exponent after '^'"),
        ({"map": {"dimension": 1, "components": ["x1 +"]}}, "dangling sign"),
        # juxtaposed factors and non-ASCII digits used to read as a sum or as
        # their digit value: 2x1 ran as x1 + 2 and ٣*x1 as 3*x1
        ({"map": {"dimension": 1, "components": ["2x1"]}}, "bad factor '2x1'"),
        ({"map": {"dimension": 2, "components": ["x1 x2", "x2^2"]}}, "bad factor 'x1 x2'"),
        ({"map": {"dimension": 1, "components": ["3 4"]}}, "bad factor '3 4'"),
        ({"map": {"dimension": 1, "components": ["٣*x1"]}}, "bad factor '٣'"),
        (
            {
                "map": {"dimension": 3, "components": ["x1^2+x3", "x2^2+x3", "x3^2"]},
                "mode": "second_case_n2",
            },
            "requires a two-variable map",
        ),
        (
            {"map": E1_DOC, "mode": "iterate_check", "point": ["1/2"]},
            "point has 1 coordinates, expected 2",
        ),
    ],
    ids=[
        "iterate_power_4", "product_point_length", "x0", "x1^", "x1^x1", "x1 +",
        "2x1", "x1 x2", "3 4", "arabic_indic_3*x1", "second_case_three_variables",
        "iterate_point_length",
    ],
)
def test_cli_run_rejected_config_exits_config(tmp_path, capsys, doc, message):
    cfg = write_cfg(tmp_path, doc)
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"map": E1_DOC, "prime": 9}, "9 is not prime"),
        ({"map": E1_DOC, "c_constant": 3}, "violates the bound"),
        (
            {"map": {"dimension": 2, "components": ["x1^3+3*x2", "x2^2+1"]}, "prime": 3},
            "not a 3-adic unit",
        ),
        ({"map": {"dimension": 1, "components": ["x1+1"]}}, "d11 >= 2"),
        ({"map": SECOND_DOC, "mode": "second_case_n2", "prime": 9}, "9 is not prime"),
        ({"map": SECOND_DOC, "mode": "second_case_n2", "c_constant": 1}, "violates the bound"),
        (
            {
                "map": {"dimension": 2, "components": ["x1*x2+2", "x2^2"]},
                "mode": "second_case_n2",
                "prime": 2,
            },
            "not a 2-adic unit",
        ),
    ],
    ids=[
        "first_prime_9", "first_low_C", "first_non_unit_prime", "first_d11_1",
        "second_prime_9", "second_low_C", "second_non_unit_prime",
    ],
)
def test_cli_run_refused_sector_config_writes_nothing(tmp_path, capsys, doc, message):
    cfg = write_cfg(tmp_path, doc)
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_run_with_a_61_bit_prime_ends(tmp_path, capsys):
    # trial division would take about 7.6e8 divisions to prove 2^61 - 1
    # prime, so the run would hang; the orbit coordinates outgrow Python's
    # int-to-str digit limit while the reports are built, a resource cap
    # (exit 3)
    cfg = write_cfg(
        tmp_path, {"map": E1_DOC, "mode": "first_case", "prime": 2**61 - 1, "samples": 2, "n_max": 3}
    )
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_RESOURCE
    assert "integer string conversion" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_a_61_bit_prime_fails_after_the_first_samples_walk(tmp_path, monkeypatch):
    # orbit_sample0.csv's text is built right after sample 0's walk, so a
    # prefix past the int-to-str digit limit stops the run before the other
    # eleven samples walk
    calls = []
    walk = experiments.orbit_tail

    def counting(*args):
        calls.append(args)
        return walk(*args)

    monkeypatch.setattr(experiments, "orbit_tail", counting)
    cfg = ExperimentConfig(map=E1_DOC, mode="first_case", prime=2**61 - 1, samples=12, n_max=3)
    with pytest.raises(ValueError, match="integer string conversion"):
        run_experiment(cfg, tmp_path / "out")
    assert len(calls) == 1
    assert not (tmp_path / "out").exists()


def test_cli_density_zero_denominator_exits_config(tmp_path, capsys):
    pts = tmp_path / "pts.csv"
    pts.write_text("n,x1_num,x1_den,x2_num,x2_den\n0,1,1,2,1\n1,3,0,1,1\n")
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "1"])
    assert code == EXIT_CONFIG
    assert "zero denominator" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        "1,2\n3,4\n",
        "x1,x2\n1,2\n3,4\n",
        "x1_num,x1_den,x2_num\n1,1,2\n",
        "n,x2_num,x2_den\n0,1,1\n",
        "x1_num,x1_den\n1,1,2,1\n3,1,4,1\n",
        "",
        "x1_num,x1_den\n",
    ],
    ids=[
        "headerless", "bare_names", "odd_header", "wrong_index", "extra_cells", "empty",
        "header_only",
    ],
)
def test_cli_density_without_the_orbit_csv_layout_exits_config(tmp_path, capsys, text):
    # the first line used to be skipped unread, so a headerless file lost a
    # point: "1,2\n3,4" gave rank 1 of 2 monomials on 1 point, exit 2
    pts = tmp_path / "pts.csv"
    pts.write_text(text)
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "1"])
    assert code == EXIT_CONFIG
    assert "error" in capsys.readouterr().err
    assert not (tmp_path / "out" / "density.csv").exists()


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


def test_cli_over_cap_orbit_step_exits_before_it_is_computed(tmp_path, capsys, monkeypatch):
    # 3^(10^8) has about 1.6e8 bits against the default cap of 1e7: the step
    # is refused from the bound, so no orbit step is ever computed
    def refuse(self, point):
        raise AssertionError("an orbit step ran")

    monkeypatch.setattr(TriangularMap, "apply", refuse)
    cfg = write_cfg(
        tmp_path,
        {
            "map": {"dimension": 1, "components": ["x1^100000000"]},
            "map_b": {"dimension": 1, "components": ["x1^2"]},
            "mode": "product",
            "point": ["3", "2"],
            "n_max": 1,
        },
    )
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "'last_safe_n': 0" in err and "'bits': 300000002" in err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("n_max", [22, 40])
def test_cli_second_case_start_outside_the_half_plane_exits_before_its_orbit(
    tmp_path, capsys, monkeypatch, n_max
):
    # x2 = 3 has |x2|_2 = 1: the config is refused before any orbit step,
    # also where the walk would hit the coordinate cap first (n_max 40)
    def refuse(self, point):
        raise AssertionError("an orbit step ran")

    monkeypatch.setattr(TriangularMap, "apply", refuse)
    doc = {"map": SECOND_DOC, "mode": "second_case_n2", "point": ["1", "3"], "n_max": n_max}
    cfg = write_cfg(tmp_path, doc)
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_CONFIG
    assert "|x_2|_p > 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_product_cap_on_the_second_factor_exits_resource(tmp_path, capsys, monkeypatch):
    # f_a = x1^2 is walked in full first; f_b's first step, 3^(10^8), is
    # refused from its bound, so f_b's orbit is never stepped.  Each exact
    # step, an f.apply or a step on (k, N) pairs, records f's planned terms
    calls = []
    apply, pair_step = TriangularMap.apply, orbit_tail._pair_step

    def counting_apply(self, point):
        calls.append(self.step_plan().terms)
        return apply(self, point)

    def counting_pair_step(terms, p, ks, nums):
        calls.append(terms)
        return pair_step(terms, p, ks, nums)

    monkeypatch.setattr(TriangularMap, "apply", counting_apply)
    monkeypatch.setattr(orbit_tail, "_pair_step", counting_pair_step)
    doc = {
        "map": {"dimension": 1, "components": ["x1^2"]},
        "map_b": {"dimension": 1, "components": ["x1^100000000"]},
        "mode": "product",
        "point": ["2", "3"],
        "n_max": 3,
    }
    with pytest.raises(ResourceLimitError) as err:
        run_experiment(ExperimentConfig(**doc), tmp_path / "direct")
    assert err.value.metadata["last_safe_n"] == 0
    assert calls == [triangular_map(["x1^2"]).step_plan().terms] * 3
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(write_cfg(tmp_path, doc))])
    assert code == EXIT_RESOURCE
    assert "'last_safe_n': 0" in capsys.readouterr().err
    assert not (tmp_path / "out" / "summary.json").exists()


@pytest.mark.parametrize("overrides", [{"c_constant": 10**12}, {"samples": 10**9}])
def test_cli_first_case_huge_sample_exponent_exits_resource(tmp_path, capsys, overrides):
    # the last sample's x_1 = a / 2^e with e near 10^12 (or 10^9) bits is
    # refused before sample_U builds the power, at orbit step 1's safe n
    cfg = write_cfg(tmp_path, {"map": E1_DOC, "mode": "first_case", "samples": 6, **overrides})
    start = time.perf_counter()
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert time.perf_counter() - start < 2.0
    assert code == EXIT_RESOURCE
    assert "'last_safe_n': 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_failed_run_leaves_an_earlier_run_untouched(tmp_path, capsys):
    # a run stopped by a cap must not mix its reports into a directory that
    # holds a finished run's summary.json (here one whose alpha proxy fails,
    # exit 2); the refused run's degrees.csv would differ at depth 5
    out = tmp_path / "out"
    done = write_cfg(tmp_path, {"map": E1_DOC, "mode": "first_case", "samples": 3, "n_max": 4})
    assert main(["--out-dir", str(out), "run", "--config", str(done)]) == EXIT_ASSERTION_FAILED
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    refused = write_cfg(
        tmp_path,
        {"map": E1_DOC, "mode": "first_case", "c_constant": 10**12, "degree_sequence_depth": 5},
    )
    assert main(["--out-dir", str(out), "run", "--config", str(refused)]) == EXIT_RESOURCE
    capsys.readouterr()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before


def test_cli_density_huge_degree_exits_resource(tmp_path, capsys):
    # C(2 + 2000, 2000) = 2003001 monomials exceed the term cap: refused
    # before any monomial is enumerated
    pts = tmp_path / "pts.csv"
    pts.write_text("x1_num,x1_den,x2_num,x2_den\n1,1,2,1\n3,1,1,1\n5,1,7,1\n")
    start = time.perf_counter()
    code = main(["--out-dir", str(tmp_path / "out"), "density", "--points", str(pts), "--degree", "2000"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "2003001" in err and "density:monomials" in err
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


def test_cli_shared_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    # main() reuses one parser; the options of one call must not reach the next
    import arithdyn.cli as cli

    assert cli.build_parser() is cli.build_parser()
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(
        tmp_path,
        {"map": E1_DOC, "mode": "first_case", "samples": 3, "n_max": 4, "seed": 0},
    )
    main(["--out-dir", str(tmp_path / "o1"), "--seed", "5", "run", "--config", str(cfg)])
    main(["run", "--config", str(cfg)])
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert main(["--seed", "x", "run", "--config", str(cfg)]) == EXIT_CONFIG
    capsys.readouterr()
    s1 = json.loads((tmp_path / "o1" / "summary.json").read_text())
    s2 = json.loads((tmp_path / "arithdyn-out" / "summary.json").read_text())
    assert s1["seed"] == 5 and s2["seed"] == 0


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


@pytest.mark.parametrize(
    "argv",
    [["run", "--config", "{path}"], ["degrees", "--map", "{path}", "--nmax", "2"]],
    ids=["run", "degrees"],
)
def test_cli_deeply_nested_json_exits_config(tmp_path, capsys, argv):
    # the JSON parser recurses once per nesting level
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    argv = [arg.format(path=path) for arg in argv]
    assert main(["--out-dir", str(tmp_path / "out"), *argv]) == EXIT_CONFIG
    assert "nested too deeply" in capsys.readouterr().err


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


@pytest.mark.parametrize("out_dir", [5, True, ["out"]], ids=["int", "bool", "list"])
def test_cli_run_non_string_out_dir_exits_config(tmp_path, capsys, monkeypatch, out_dir):
    # without --out-dir the config's out_dir names the report directory
    monkeypatch.chdir(tmp_path)
    cfg = write_cfg(tmp_path, {"map": E1_DOC, "n_max": 2, "samples": 3, "out_dir": out_dir})
    assert main(["run", "--config", str(cfg)]) == EXIT_CONFIG
    assert "out_dir must be a path string" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]


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
    assert not (tmp_path / "out").exists()


def test_cli_degrees_int_digit_limit_exits_resource(tmp_path, capsys):
    # deg f^540 = 10^4320 has 4321 digits, over Python's default of 4300,
    # while the bit lengths of the 540 degrees sum to about 3.9 * 10^6 bits
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"dimension": 1, "components": ["x1^100000000+x1"]}))
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "540"]
    )
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert "resource cap exceeded: Exceeds the limit" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out" / "degrees.csv").exists()


# a 311-digit exponent, under the int -> str digit limit
HUGE = 10**310


def test_cli_degrees_float_range_exits_resource(tmp_path, capsys):
    # deg f = 10^310 is exact, but its float root is above the largest double
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"dimension": 1, "components": [f"x1^{HUGE}"]}))
    code = main(["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "1"])
    captured = capsys.readouterr()
    assert code == EXIT_RESOURCE
    assert "resource cap exceeded: math range error" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


def test_cli_iterate_check_recursion_limit_exits_resource(tmp_path, capsys):
    # substituting into x1^HUGE climbs a power ladder about 2 log2(HUGE) calls deep
    cfg = write_cfg(
        tmp_path,
        {
            "map": {"dimension": 1, "components": [f"x1^{HUGE}+x1"]},
            "mode": "iterate_check",
            "point": ["1/2"],
            "iterate_power": 2,
        },
    )
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)])
    assert code == EXIT_RESOURCE
    assert "resource cap exceeded: maximum recursion depth exceeded" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "components, nmax, last",
    [
        ("x1^30+x1", 4, 30**4),
        ("x1^1000+x1", 3, 1000**3),
        ("x1^100000000+x1", 2, 10**16),
        # x1 + x2^3 drops to x1 at n = 2, below x3^30 + x3, which still
        # certifies the maximum
        ("x1+x2^3, -x2, x3^30+x3", 4, 30**4),
    ],
)
def test_cli_degrees_of_large_iterates_are_certified(tmp_path, capsys, components, nmax, last):
    # f^nmax would have up to 810001 terms of about 27000 bits (x1^30+x1) or
    # a power ladder of doubling term counts (x1^100000000+x1); the degrees
    # are read from the certificate without building it
    components = components.split(", ")
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"dimension": len(components), "components": components}))
    start = time.perf_counter()
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", str(nmax)]
    )
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_OK
    assert f"n={nmax}: deg={last} " in capsys.readouterr().out


def test_cli_degrees_huge_nmax_exits_resource_at_the_certificate(tmp_path, capsys):
    # the running sum of the degrees' bit lengths passes 10^7 bits after
    # n = 3551, long before n_max
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps(E1_DOC))
    start = time.perf_counter()
    code = main(
        ["--out-dir", str(tmp_path / "out"), "degrees", "--map", str(map_path), "--nmax", "1000000"]
    )
    assert time.perf_counter() - start < 5.0
    assert code == EXIT_RESOURCE
    err = capsys.readouterr().err
    assert "'stage': 'degrees:certificate'" in err and "'last_safe_n': 3551" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field_name", ["n_max", "samples", "degree_sequence_depth", "iterate_power", "density_degree"]
)
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


# -- the sector prime is proved once per run -----------------------------------


def test_a_run_proves_its_prime_at_most_twice(tmp_path, monkeypatch):
    # SectorConfig proves the prime and every valuation after it trusts that
    # proof, so the count depends on neither samples nor n_max
    calls = []
    is_prime = padic.is_prime
    monkeypatch.setattr(padic, "is_prime", lambda n: calls.append(n) or is_prime(n))

    def count(cfg, name):
        calls.clear()
        run_experiment(cfg, tmp_path / name)
        return len(calls)

    small = count(first_case_cfg(n_max=4, samples=3), "small")
    large = count(first_case_cfg(n_max=9, samples=12), "large")
    assert small == large <= 2
    second = ExperimentConfig(map=SECOND_DOC, mode="second_case_n2", point=["1", "1/2"], n_max=8)
    assert count(second, "second") <= 2
    # an explicit prime is proved once, by SectorConfig, before its unit check
    assert count(first_case_cfg(n_max=4, samples=3, prime=3), "explicit") == 1
