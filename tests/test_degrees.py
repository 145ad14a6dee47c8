import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from corpus import CORPUS
from oracle import DegreeMatrix, degree_matrix, spectral_radius_maxroot

from arithdyn.degrees import (
    _certified_degrees,
    dynamical_degree_exact,
    dynamical_degree_sequence,
    map_degree,
    product_map,
)
from arithdyn.density import MODULUS
from arithdyn.maps import DEFAULT_CAPS, TriangularMap, iterate_symbolic, iterates, triangular_map
from arithdyn.qpoly import Polynomial

E1 = triangular_map(["x1^3+x2", "x2^2+1"])
IDENTITY2 = triangular_map(["x1", "x2"])


def test_degree_matrix_by_inspection():
    assert degree_matrix(E1).entries == ((3, 0), (1, 2))
    assert degree_matrix(triangular_map(["x1*x2+1", "x2^2"])).entries == ((1, 0), (1, 2))


def test_degree_matrix_identity():
    assert degree_matrix(IDENTITY2).entries == ((1, 0), (0, 1))


@pytest.mark.parametrize(
    "f, g, diagonal",
    [
        (E1, E1, (9, 4)),
        (IDENTITY2, IDENTITY2, (1, 1)),
        (triangular_map(["x1^2+x2", "x2^2"]), triangular_map(["x1+x2", "x2^3"]), (2, 6)),
    ],
    ids=["e1_squared", "identity", "mixed_pair"],
)
def test_composition_degree_matrix_bounded_by_product(f, g, diagonal):
    # Deg(f o g) <= Deg(g) * Deg(f) entrywise; the diagonal is the product of
    # the factors' diagonals, since the dominant diagonal powers cannot cancel
    deg_f, deg_g = degree_matrix(f), degree_matrix(g)
    deg_fg = degree_matrix(f.compose(g))
    bound = deg_g.multiply(deg_f)
    assert deg_fg.size == bound.size
    assert all(x <= y for row, top in zip(deg_fg.entries, bound.entries) for x, y in zip(row, top))
    assert deg_fg.diagonal() == diagonal
    assert diagonal == tuple(a * b for a, b in zip(deg_f.diagonal(), deg_g.diagonal()))


def test_dynamical_degree_exact_examples():
    assert dynamical_degree_exact(E1) == 3
    assert dynamical_degree_exact(IDENTITY2) == 1
    assert dynamical_degree_exact(triangular_map(["x1*x2+1", "x2^2"])) == 2


def test_degree_sequence_e1():
    seq = dynamical_degree_sequence(E1, 3)
    assert [(n, d) for n, d, _ in seq] == [(1, 3), (2, 9), (3, 27)]
    assert all(abs(r - 3.0) < 1e-9 for _, _, r in seq)


def test_degree_sequence_identity():
    seq = dynamical_degree_sequence(IDENTITY2, 4)
    assert all(d == 1 and r == 1.0 for _, d, r in seq)


def test_degree_sequence_convergence_from_above():
    # oracle: brute-force symbolic iteration fixes the exact deg(f^n)
    f = triangular_map(["x1*x2+1", "x2^2"])
    seq = dynamical_degree_sequence(f, 4)
    expected = []
    for n in range(1, 5):
        expected.append(map_degree(iterate_symbolic(f, n)))
    assert [d for _, d, _ in seq] == expected
    assert abs(seq[-1][2] - 2.0) <= 0.35


def test_degree_sequence_cap_raises():
    from arithdyn.maps import ResourceCaps
    from arithdyn.qpoly import ResourceLimitError

    f = triangular_map(["x1^3+x2^2+x2+1", "x2^3+x2^2+x2+1"])
    with pytest.raises(ResourceLimitError) as err:
        dynamical_degree_sequence(f, 6, ResourceCaps(max_coeff_bits=10))
    assert err.value.metadata["last_safe_n"] == 2


def _symbolic_degrees(f, n_max):
    return [map_degree(g) for g in iterates(f, n_max)]


@st.composite
def small_triangular_maps(draw):
    """Maps of dimension 1..3 whose component i is c*x_i plus up to two terms
    in x_i..x_N, with exponents <= 3 and coefficients in {-1, -1/2, 1, 2}."""
    n = draw(st.integers(1, 3))
    coeffs = st.sampled_from([Fraction(-1), Fraction(-1, 2), Fraction(1), Fraction(2)])
    components = []
    for i in range(n):
        monos = st.tuples(*([st.just(0)] * i + [st.integers(0, 3)] * (n - i)))
        terms = dict(draw(st.lists(st.tuples(monos, coeffs), max_size=2)))
        lead = tuple(int(j == i) for j in range(n))
        terms[lead] = draw(coeffs)
        components.append(Polynomial(n, terms))
    return TriangularMap(components)


@settings(max_examples=80, deadline=None)
@given(small_triangular_maps(), st.integers(1, 3))
# random maps almost never drop degree; these two do, so the fallback runs
@example(triangular_map(["x1+x2*x3", "x2", "-x3"]), 3)
@example(triangular_map(["x1+x2^3", "-x2+1"]), 3)
# component 1 drops at n = 2 below component 3, which certifies the maximum
@example(triangular_map(["x1+x2^3", "-x2", "x3^2+x3"]), 3)
def test_certified_degrees_match_symbolic_iterates(f, n_max):
    # oracle: wherever the certificate certifies, it is map_degree of the
    # symbolic iterate; either way the sequence is the symbolic one
    certified = _certified_degrees(f, n_max, DEFAULT_CAPS)
    symbolic = _symbolic_degrees(f, n_max)
    assert certified is None or certified == symbolic
    assert [d for _, d, _ in dynamical_degree_sequence(f, n_max)] == symbolic


def test_degree_drop_takes_the_symbolic_fallback():
    # f^2 = identity: the leading coefficient of x1 + x2^3 + (-x2)^3 is 0 in
    # every direction, so the certificate refuses and the iterates are built
    f = triangular_map(["x1+x2^3", "-x2"])
    assert _certified_degrees(f, 5, DEFAULT_CAPS) is None
    assert [d for _, d, _ in dynamical_degree_sequence(f, 5)] == [3, 1, 3, 1, 3]


def test_a_dropping_component_below_the_maximum_keeps_the_certificate():
    # component 1 is x1 at n = 2, a leading coefficient of 0 mod q, but
    # component 3, x3^(30^n), attains the maximum with a nonzero one
    f = triangular_map(["x1+x2^3", "-x2", "x3^30+x3"])
    assert _certified_degrees(f, 4, DEFAULT_CAPS) == [30, 900, 27000, 810000]


def test_certificate_skips_a_modulus_dividing_a_denominator():
    f = triangular_map([f"x1^2+1/{MODULUS}*x2", "x2^3+x2"])
    assert f.components[0].den == MODULUS
    assert _certified_degrees(f, 4, DEFAULT_CAPS) == _symbolic_degrees(f, 4) == [3, 9, 27, 81]


def test_spectral_radius_triangular_exact_path():
    result = spectral_radius_maxroot(DegreeMatrix(((3, 0), (1, 2))), 5)
    assert result.exact == 3


def test_spectral_radius_identity():
    result = spectral_radius_maxroot(DegreeMatrix(((1, 0), (0, 1))), 10)
    assert result.exact == 1
    assert result.last == 1.0


def test_spectral_radius_defective_jordan_block():
    # oracle: A^n = [[2^n, 0], [5n*2^(n-1), 2^n]], so the max-entry root is
    # (5n*2^(n-1))^(1/n), decreasing toward 2.
    result = spectral_radius_maxroot(DegreeMatrix(((2, 0), (5, 2))), 30)
    expected = math.exp(math.log(5 * 30 * 2**29) / 30)
    assert abs(result.last - expected) < 1e-12
    roots = [r for _, r in result.values]
    assert all(roots[n] <= roots[n - 1] + 1e-12 for n in range(10, 30))
    assert result.exact == 2


def test_product_degree_examples():
    for f, g, expected in [
        (triangular_map(["x1^2"]), triangular_map(["x1^3"]), 3),
        (IDENTITY2, IDENTITY2, 1),
        (E1, triangular_map(["x1^2"]), 3),
    ]:
        delta_f, delta_g = dynamical_degree_exact(f), dynamical_degree_exact(g)
        assert max(delta_f, delta_g) == expected
        assert dynamical_degree_exact(product_map(f, g)) == expected


def test_product_map_is_triangular_and_block_ordered():
    prod = product_map(E1, triangular_map(["x1^2"]))
    assert prod.dimension == 3
    assert degree_matrix(prod).entries == ((3, 0, 0), (1, 2, 0), (0, 0, 2))


def test_product_map_keeps_rational_coefficients():
    f = triangular_map(["3/2*x1^3 + 1/5*x2", "x2^2 + 1/3"])
    prod = product_map(f, triangular_map(["1/2*x1^2"]))
    assert [c.to_text() for c in prod.components] == ["3/2*x1^3 + 1/5*x2", "x2^2 + 1/3", "1/2*x3^2"]


# -- corpus invariants ------------------------------------------------------


@pytest.mark.parametrize("f", CORPUS, ids=repr)
def test_iterated_degree_matrix_bound(f):
    base = degree_matrix(f)
    for n in (1, 2, 3):
        fn = iterate_symbolic(f, n)
        deg_n = degree_matrix(fn)
        bound = base.power(n)
        assert deg_n.size == bound.size
        assert all(x <= y for row, top in zip(deg_n.entries, bound.entries) for x, y in zip(row, top))
        assert deg_n.diagonal() == tuple(d**n for d in base.diagonal())


@pytest.mark.parametrize("f", CORPUS, ids=repr)
def test_iterate_degree_power_law(f):
    delta = dynamical_degree_exact(f)
    for t in (2, 3):
        assert dynamical_degree_exact(iterate_symbolic(f, t)) == delta**t


@pytest.mark.parametrize("f", CORPUS, ids=repr)
def test_degree_roots_dominate_exact_value(f):
    delta = dynamical_degree_exact(f)
    seq = dynamical_degree_sequence(f, 4)
    for n, d, _ in seq:
        assert d >= delta**n  # exact integer comparison


@pytest.mark.parametrize("f", CORPUS, ids=repr)
def test_spectral_radius_matches_max_diagonal(f):
    A = degree_matrix(f)
    assert spectral_radius_maxroot(A, 8).exact == A.max_diagonal()
