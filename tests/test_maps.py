import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import BASE_POINTS, CORPUS
from oracle import degree_matrix

from arithdyn.maps import (
    NotDominantError,
    NotTriangularError,
    ResourceCaps,
    TriangularMap,
    as_point,
    diagonal_degrees,
    iterate_symbolic,
    map_from_json_dict,
    map_to_json_dict,
    orbit,
    orbit_to_csv,
    orbits_disjoint_prefix,
    points_from_csv,
    coordinate_bits,
    step_bits_bound,
    triangular_map,
)
from arithdyn.padic import choose_C
from arithdyn.qpoly import (
    DimensionMismatchError,
    Polynomial,
    ResourceLimitError,
    parse_polynomial,
    rational,
    rational_pair,
)


def test_validate_accepts_triangular_dominant():
    f = TriangularMap([parse_polynomial("x1^3+x2", 2), parse_polynomial("x2^2+1", 2)])
    assert f.dimension == 2


def test_validate_not_dominant():
    with pytest.raises(NotDominantError) as err:
        triangular_map(["x2", "x2^2"])
    assert err.value.component == 1


def test_validate_not_triangular():
    with pytest.raises(NotTriangularError) as err:
        triangular_map(["x1+x2", "x1^2"])
    assert (err.value.component, err.value.variable) == (2, 1)


@st.composite
def component_lists(draw, triangular):
    """Components of a map of dimension 1..3, each up to four terms with
    exponents <= 3 and coefficients in {-2, -1/3, 1, 5}.  If ``triangular``,
    component i has no x_j with j < i and a term in x_i, so the list is a
    valid TriangularMap; otherwise any variable may occur, and a component
    may be zero."""
    n = draw(st.integers(1, 3))
    coeffs = st.sampled_from([Fraction(-2), Fraction(-1, 3), Fraction(1), Fraction(5)])
    components = []
    for i in range(n):
        low = i if triangular else 0
        monos = st.tuples(*[st.just(0)] * low, *[st.integers(0, 3)] * (n - low))
        terms = dict(draw(st.lists(st.tuples(monos, coeffs), max_size=4)))
        if triangular:
            lead = draw(st.tuples(st.integers(1, 3), *[st.integers(0, 3)] * (n - i - 1)))
            terms[(0,) * i + lead] = draw(coeffs)
        components.append(Polynomial(n, terms))
    return components


def check_degree_readers(f, sizes):
    """degree_rows against the oracle's matrix, and each reader of it against
    a reference read from the terms."""
    assert f.degree_rows == tuple(zip(*degree_matrix(f).entries))
    assert diagonal_degrees(f) == tuple(
        max(m[i] for m in c.terms) for i, c in enumerate(f.components)
    )
    assert choose_C(f) == f.dimension * max(e for c in f.components for m in c.terms for e in m) + 1
    widths = [max(num, den) + den for num, den in sizes]
    assert step_bits_bound(f)(sizes) == max(
        sum(map(abs, c.terms.values())).bit_length()
        + c.den.bit_length()
        + sum(max(m[j] for m in c.terms) * w for j, w in enumerate(widths))
        for c in f.components
    )


@pytest.mark.parametrize("index", range(len(CORPUS)))
def test_degree_rows_and_their_readers_on_the_corpus(index):
    check_degree_readers(CORPUS[index], coordinate_bits(BASE_POINTS[index]))


@settings(max_examples=150, deadline=None)
@given(component_lists(triangular=True), st.data())
def test_degree_rows_and_their_readers_on_random_maps(components, data):
    n = len(components)
    size = st.tuples(st.integers(0, 99), st.integers(1, 99))
    sizes = data.draw(st.lists(size, min_size=n, max_size=n))
    check_degree_readers(TriangularMap(components), sizes)


def _first_fault(components):
    """The error TriangularMap must raise, read from the terms: the first
    component i using some x_j, j < i (the smallest such j), or lacking x_i."""
    for i, c in enumerate(components, start=1):
        for j in range(1, i):
            if any(m[j - 1] for m in c.terms):
                return NotTriangularError(i, j)
        if not any(m[i - 1] for m in c.terms):
            return NotDominantError(i)
    return None


@settings(max_examples=300, deadline=None)
@given(component_lists(triangular=False))
@example([parse_polynomial("x2", 2), parse_polynomial("x1*x2", 2)])
@example([parse_polynomial("x1", 2), parse_polynomial("x1*x2+x2", 2)])
@example([parse_polynomial(t, 3) for t in ("x1", "x2", "x2*x3+x1")])
@example([parse_polynomial("x1", 2), parse_polynomial("0", 2)])
def test_validation_names_the_first_fault(components):
    want = _first_fault(components)
    if want is None:
        assert TriangularMap(components).components == tuple(components)
        return
    with pytest.raises(type(want)) as err:
        TriangularMap(components)
    assert (str(err.value), vars(err.value)) == (str(want), vars(want))


def test_apply_simple():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    assert f.apply(as_point([0, 0])) == (Fraction(0), Fraction(1))
    with pytest.raises(DimensionMismatchError, match="point has 1 coordinates, expected 2"):
        f.apply([1])


def test_apply_identity_map():
    ident = triangular_map(["x1", "x2", "x3"])
    p = as_point([Fraction(1, 3), 7, Fraction(-2, 5)])
    assert ident.apply(p) == p


def test_apply_hand_arithmetic():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    image = f.apply(as_point([Fraction(1, 256), Fraction(1, 2)]))
    assert image == (Fraction(1, 2**24) + Fraction(1, 2), Fraction(5, 4))


def test_iterate_symbolic_t1_is_identity_operation():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    assert iterate_symbolic(f, 1) == f


def test_iterate_symbolic_matches_substitution_oracle():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    f2 = iterate_symbolic(f, 2)
    a, b = f.components
    assert f2.components[0] == a.substitute([a, b])
    assert f2.components[1] == b.substitute([a, b])


def test_iterate_symbolic_diagonal_degrees_multiply():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    f2 = iterate_symbolic(f, 2)
    a, b = f2.components
    assert (max(m[0] for m in a.terms), max(m[1] for m in b.terms)) == (9, 4)


def test_iterate_resource_cap():
    f = triangular_map(["x1^3+x2^2+x2+1", "x2^3+x2^2+x2+1"])
    with pytest.raises(ResourceLimitError):
        iterate_symbolic(f, 5, ResourceCaps(max_terms=20))


def test_orbit_fixed_point():
    f = triangular_map(["x1^2", "x2"])
    o = orbit(f, [0, 5], 4)
    assert all(p == (Fraction(0), Fraction(5)) for p in o)


def test_orbit_squaring():
    o = orbit(triangular_map(["x1^2"]), [2], 3)
    assert [p[0] for p in o] == [2, 4, 16, 256]


def test_orbit_matches_apply_chain():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    o = orbit(f, [Fraction(1, 256), Fraction(1, 2)], 1)
    assert o[1] == f.apply(o[0])


def test_orbit_bit_cap_reports_last_safe_n():
    f = triangular_map(["x1^2"])
    with pytest.raises(ResourceLimitError) as err:
        orbit(f, [2], 20, ResourceCaps(max_coeff_bits=100))
    assert err.value.metadata["last_safe_n"] >= 5


def _bits(c):
    return c.numerator.bit_length() + c.denominator.bit_length()


BOUND_MAPS = [
    ["x1^3+x2", "x2^2+1"],
    ["x1*x2+1", "x2^2"],
    ["-3/4*x1^2*x2 + 5/6*x1 - x2^3", "7/9*x2^2 - 1/2"],
    ["x1^2+x3", "x2^2+x3", "x3^2"],
    ["2*x1 - 5", "x2^4 + 1/3*x3", "x3^3 - 1/8"],
]
COORDS = st.builds(
    Fraction, st.integers(-(2**200), 2**200), st.integers(1, 2**200)
) | st.sampled_from([Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(4, 3)])


@settings(max_examples=150, deadline=None)
@given(texts=st.sampled_from(BOUND_MAPS), data=st.data())
def test_step_bits_bound_covers_the_step(texts, data):
    f = triangular_map(texts)
    point = tuple(data.draw(COORDS) for _ in range(f.dimension))
    assert max(map(_bits, f.apply(point))) <= step_bits_bound(f)(coordinate_bits(point))


def test_step_bits_bound_is_exact_on_a_pure_power():
    # bits(sum |C_a|) + bits(M) + deg * (bits(max(3, 1)) + bits(1)) = 1 + 1 + 5 * 3
    f = triangular_map(["x1^5"])
    assert step_bits_bound(f)(coordinate_bits((Fraction(3),))) == 1 + 1 + 5 * (2 + 1)
    assert _bits(f.apply((Fraction(3),))[0]) == (3**5).bit_length() + 1


def test_orbit_refuses_an_over_cap_step_before_computing_it(monkeypatch):
    f = triangular_map(["x1^2"])
    calls = []
    apply = TriangularMap.apply

    def counting_apply(self, point):
        calls.append(point)
        return apply(self, point)

    monkeypatch.setattr(TriangularMap, "apply", counting_apply)
    with pytest.raises(ResourceLimitError) as err:
        orbit(f, [2], 20, ResourceCaps(max_coeff_bits=100))
    # 2^64 -> 2^128 would have 130 bits: the bound 2 + 2 * (65 + 1) refuses it
    assert err.value.metadata["last_safe_n"] == 6
    assert err.value.metadata["bits"] == 134
    assert len(calls) == 6


def test_orbits_disjoint():
    f = triangular_map(["x1^2"])
    assert orbits_disjoint_prefix(orbit(f, [2], 3), orbit(f, [3], 3))
    assert not orbits_disjoint_prefix(orbit(f, [2], 3), orbit(f, [2], 3))
    # second orbit starts one step into the first: collision by construction
    assert not orbits_disjoint_prefix(orbit(f, [2], 3), orbit(f, [4], 3))


def test_orbits_disjoint_across_three_orbits():
    f = triangular_map(["x1^2"])
    first, second, third = orbit(f, [2], 3), orbit(f, [3], 3), orbit(f, [16], 2)
    # 16 and 256 lie in the first and the third orbit, and only there
    assert orbits_disjoint_prefix(first, second) and orbits_disjoint_prefix(second, third)
    assert not orbits_disjoint_prefix(first, second, third)
    # the fixed point 1 repeats inside its own orbit, which is allowed
    assert orbits_disjoint_prefix(orbit(f, [1], 3), first, second)
    with pytest.raises(DimensionMismatchError):
        orbits_disjoint_prefix(first, orbit(triangular_map(["x1^2", "x2"]), [2, 2], 1))


# -- invariants -----------------------------------------------------------

map_pool = [
    ["x1^2"],
    ["x1^3+x2", "x2^2+1"],
    ["x1*x2+1", "x2^2"],
    ["x1^2+x3", "x2^2+x3", "x3^2"],
]


@settings(max_examples=30, deadline=None)
@given(
    st.sampled_from(map_pool),
    st.integers(1, 3),
    st.lists(st.fractions(min_value=-2, max_value=2, max_denominator=3), min_size=3, max_size=3),
)
def test_symbolic_vs_pointwise_iteration(texts, t, raw_point):
    f = triangular_map(texts)
    point = as_point(raw_point[: f.dimension])
    ft = iterate_symbolic(f, t)
    assert ft.apply(point) == orbit(f, point, t)[t]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(map_pool), st.integers(1, 2), st.integers(1, 2))
def test_iteration_composes(texts, s, t):
    # composition associativity at map level: f^(s+t) = f^s o f^t
    f = triangular_map(texts)
    lhs = iterate_symbolic(f, s + t)
    rhs = iterate_symbolic(f, s).compose(iterate_symbolic(f, t))
    assert lhs == rhs


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(map_pool), st.integers(1, 3))
def test_triangularity_preserved_by_iteration(texts, t):
    f = triangular_map(texts)
    ft = iterate_symbolic(f, t)
    for i, comp in enumerate(ft.components, start=1):
        assert all(not any(m[: i - 1]) for m in comp.terms)
        assert max(m[i - 1] for m in comp.terms) >= 1


# -- wire formats ----------------------------------------------------------


def test_map_json_round_trip():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    doc = json.loads(json.dumps(map_to_json_dict(f)))
    assert doc == {"dimension": 2, "components": ["x1^3 + x2", "x2^2 + 1"]}
    assert map_from_json_dict(doc) == f


@pytest.mark.parametrize(
    "make_copy",
    [copy.copy, copy.deepcopy, lambda f: pickle.loads(pickle.dumps(f))],
    ids=["copy", "deepcopy", "pickle"],
)
@pytest.mark.parametrize("evaluated_first", [False, True], ids=["fresh", "evaluated"])
def test_copy_and_pickle_rebuild_an_equal_map(make_copy, evaluated_first):
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    point = (Fraction(15, 256), Fraction(9, 2))
    want = orbit(f, point, 3) if evaluated_first else None
    g = make_copy(f)
    assert type(g) is TriangularMap and g == f and hash(g) == hash(f)
    assert orbit(g, point, 3) == orbit(f, point, 3) == (want or orbit(f, point, 3))
    with pytest.raises(AttributeError, match="immutable"):
        g.dimension = 3


def test_map_json_component_count_checked_before_parsing(monkeypatch):
    # each parse allocates an exponent list of the declared dimension, so a
    # huge "dimension" must be rejected before any component is parsed
    import arithdyn.maps as maps_module

    def no_parse(text, dimension):
        raise AssertionError(f"parsed {text!r} at dimension {dimension}")

    monkeypatch.setattr(maps_module, "parse_polynomial", no_parse)
    with pytest.raises(DimensionMismatchError, match="1 components for dimension"):
        map_from_json_dict({"dimension": 1000000000000, "components": ["x1"]})


def test_orbit_csv_round_trip():
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    o = orbit(f, [Fraction(1, 256), Fraction(1, 2)], 2)
    text = orbit_to_csv(o)
    assert text.splitlines()[0] == "n,x1_num,x1_den,x2_num,x2_den"
    assert points_from_csv(text) == o


# Cells of digits, signs, slashes, underscores, letters, a non-ASCII digit
# and spaces, so that most pairs break the grammar in some place.
CELLS = st.one_of(st.just(""), st.text(alphabet="0123456789+-/_x\u0663 ", max_size=6))


def _read(read, *args):
    try:
        return read(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


@settings(max_examples=300, deadline=None)
@given(CELLS, CELLS)
@example("1", "0")
@example("1_0", "1")
@example("+ 1", "2")
@example("1", "-2")
def test_points_csv_reads_a_pair_as_rational_reads_num_slash_den(num, den):
    # the reader splits a row into stripped cells and reads each num/den
    # pair without joining them; value or error text is that of rational
    num, den = num.strip(), den.strip()
    want = _read(rational, f"{num}/{den}")
    assert _read(rational_pair, num, den) == want
    got = _read(points_from_csv, f"x1_num,x1_den\n{num},{den}\n")
    assert got == (want if isinstance(want, tuple) else [(want,)])
