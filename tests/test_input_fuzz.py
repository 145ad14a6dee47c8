"""Fuzz the input loaders through ``cli.main``.

Every map document and every run config must end in a documented exit code
(0, 2, 3 or 4) with no exception escaping ``main``.  The documents stay
small (``--nmax 1``, ``n_max`` <= 2, ``samples`` <= 3) so that each example
is cheap; the point is the loaders' handling of malformed input, not the
pipelines' running time.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.cli import main

DOCUMENTED_EXIT_CODES = {0, 2, 3, 4}

# Any JSON value, kept shallow.
json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.floats(allow_nan=False, allow_infinity=False, min_value=-4, max_value=4),
    st.text(alphabet="ax1/2 {}é", max_size=4),
)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(alphabet="ax1", max_size=3), inner, max_size=2),
    ),
    max_leaves=4,
)

# Any JSON value but a string: an ``out_dir`` drawn from it never names a
# directory, so no example writes outside its temporary directory.
non_string_values = json_values.filter(lambda value: not isinstance(value, str))

# Component text: well-formed small polynomials, plus short strings over the
# parser's alphabet.  Exponents stay small so no example does real work.
monomials = st.builds(
    lambda c, i, e: f"{c}*x{i}^{e}",
    st.sampled_from(["1", "2", "1/3", "0"]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=0, max_value=3),
)
components = st.one_of(
    st.lists(monomials, min_size=1, max_size=3).map("+".join),
    st.text(alphabet="x0123+-*/^ ", max_size=6),
)
valid_maps = st.sampled_from(
    [
        {"dimension": 2, "components": ["x1^3+x2", "x2^2+1"]},
        {"dimension": 2, "components": ["x1*x2+1", "x2^2"]},
        {"dimension": 1, "components": ["x1^2"]},
    ]
)
map_docs = st.one_of(
    json_values,
    valid_maps,
    st.lists(components, min_size=1, max_size=3).map(
        lambda texts: {"dimension": len(texts), "components": texts}
    ),
    st.fixed_dictionaries(
        {},
        optional={
            "dimension": st.one_of(st.integers(min_value=-1, max_value=3), json_values),
            "components": st.one_of(st.lists(components, max_size=3), json_values),
        },
    ),
)
points = st.one_of(
    st.lists(st.sampled_from(["1", "1/2", "1/256", "-3/2", "0", "1/0", "a", 2]), max_size=4),
    json_values,
)
modes = st.sampled_from(["first_case", "second_case_n2", "product", "iterate_check"])
rationals = st.sampled_from(["1", "1/2", "1/256", "-3/2", "0", "2"])
# Well-typed configs reach the pipelines; ill-typed ones exercise the loader.
# n_max and samples are always present, so no example runs the defaults.
well_typed_configs = st.fixed_dictionaries(
    {
        "map": valid_maps,
        "mode": modes,
        "n_max": st.integers(min_value=1, max_value=2),
        "samples": st.integers(min_value=1, max_value=3),
    },
    optional={
        "map_b": valid_maps,
        "point": st.one_of(st.lists(rationals, min_size=1, max_size=4), json_scalars),
        "prime": st.sampled_from([2, 3, 5, 7, 4, 0]),
        "c_constant": st.integers(min_value=-1, max_value=9),
        "seed": st.integers(min_value=0, max_value=3),
        "density_degree": st.integers(min_value=1, max_value=2),
        "degree_sequence_depth": st.integers(min_value=1, max_value=2),
        "iterate_power": st.integers(min_value=1, max_value=4),
    },
)
ill_typed_configs = st.fixed_dictionaries(
    {
        "map": st.one_of(valid_maps, map_docs),
        "n_max": st.one_of(st.integers(min_value=-1, max_value=2), json_scalars),
        "samples": st.one_of(st.integers(min_value=0, max_value=3), json_scalars),
    },
    optional={
        "mode": st.one_of(modes, json_scalars),
        "point": points,
        "prime": json_scalars,
        "c_constant": json_scalars,
        "seed": json_scalars,
        "density_degree": json_scalars,
        "degree_sequence_depth": json_scalars,
        "iterate_power": json_scalars,
        "out_dir": non_string_values,
        "bogus": json_scalars,
    },
)
config_docs = st.one_of(well_typed_configs, ill_typed_configs, json_values)

fuzz_settings = settings(max_examples=120, deadline=None)


def _exit_code(doc, *argv) -> int:
    """Write ``doc`` to a file, append its path to ``argv`` and run main."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "input.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return main(["--out-dir", str(Path(tmp) / "out"), *argv, str(path)])


@fuzz_settings
@given(map_docs)
def test_degrees_map_documents_end_in_documented_exit_code(doc):
    assert _exit_code(doc, "degrees", "--nmax", "1", "--map") in DOCUMENTED_EXIT_CODES


@fuzz_settings
@given(config_docs)
def test_run_config_documents_end_in_documented_exit_code(doc):
    assert _exit_code(doc, "run", "--config") in DOCUMENTED_EXIT_CODES


# A point coordinate must be an int or a rational string: JSON true/false and
# floats are refused at load time, whatever the mode and the position.
point_modes = st.sampled_from(
    [
        {"map": {"dimension": 2, "components": ["x1*x2+1", "x2^2"]}, "mode": "second_case_n2"},
        {"map": {"dimension": 2, "components": ["x1^3+x2", "x2^2+1"]}, "mode": "iterate_check"},
        {
            "map": {"dimension": 1, "components": ["x1^2"]},
            "map_b": {"dimension": 1, "components": ["x1^3"]},
            "mode": "product",
        },
    ]
)
non_rationals = st.one_of(
    st.booleans(), st.floats(allow_nan=False, allow_infinity=False, min_value=-4, max_value=4)
)


@settings(max_examples=40, deadline=None)
@given(point_modes, rationals, non_rationals, st.booleans())
def test_run_bool_or_float_coordinate_exits_config(doc, good, bad, bad_first):
    point = [bad, good] if bad_first else [good, bad]
    assert _exit_code({**doc, "point": point, "n_max": 2}, "run", "--config") == 4


# A point string is an integer or a/b: decimal, exponent and underscore forms
# used to be read by Fraction(str) while a JSON float exited 4.
@pytest.mark.parametrize("bad", ["1.5", "1e3", "1_000"])
@settings(max_examples=8, deadline=None)
@given(point_modes, rationals, st.booleans())
def test_run_decimal_point_string_exits_config(bad, doc, good, bad_first):
    point = [bad, good] if bad_first else [good, bad]
    assert _exit_code({**doc, "point": point, "n_max": 2}, "run", "--config") == 4
