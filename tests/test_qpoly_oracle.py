"""Differential oracle: qpoly products, substitution and composition against sympy.

Random polynomials in 1 to 4 variables, with negative coefficients and
denominators drawn from {1, 2, 3, 4, 6, 9} (so the two operands' denominator
lcms share factors and their product is not reduced), are multiplied with
exponents up to 40 and compared term by term with ``sympy.Poly``.  The
deterministic cases pin the edges of the packed-monomial kernel: exponent
sums on a field-width boundary 2^k, variables absent from both operands,
cancellation inside the product, and the zero polynomial.  Substitution is
also checked with outer exponents up to 64 over binomials, so the power
chains of ``Polynomial.substitute`` run through odd, even and gapped steps.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.maps import TriangularMap
from arithdyn.qpoly import Polynomial, parse_polynomial

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("x1:5")

COEFFS = st.builds(
    Fraction, st.integers(-40, 40).filter(bool), st.sampled_from([1, 2, 3, 4, 6, 9])
)


def P(text, dim=None):
    return parse_polynomial(text, dim)


def polynomials(dim, max_exp, max_size):
    mono = st.tuples(*[st.integers(0, max_exp)] * dim)
    return st.dictionaries(mono, COEFFS, max_size=max_size).map(lambda t: Polynomial(dim, t))


def to_sympy(p: Polynomial):
    gens = GENS[: p.dimension]
    terms = {m: sympy.Rational(c.numerator, c.denominator) for m, c in p.terms.items()}
    if not terms:
        return sympy.Poly(0, *gens, domain="QQ")
    return sympy.Poly.from_dict(terms, *gens, domain="QQ")


def from_sympy(poly, dim: int) -> Polynomial:
    terms = {m: Fraction(int(c.p), int(c.q)) for m, c in poly.as_dict().items()}
    return Polynomial(dim, terms)


def sympy_substitute(p: Polynomial, subs) -> Polynomial:
    dim = subs[0].dimension
    expr = to_sympy(p).as_expr().xreplace(
        {GENS[i]: to_sympy(s).as_expr() for i, s in enumerate(subs)}
    )
    return from_sympy(sympy.Poly(expr, *GENS[:dim], domain="QQ"), dim)


def sympy_power_sum(p: Polynomial, subs) -> Polynomial:
    """The substitution as a sum of c * prod(subs[i]**e_i) in sympy.Poly
    arithmetic, which is faster than expanding the substituted expression."""
    dim = subs[0].dimension
    polys = [to_sympy(s) for s in subs]
    total = to_sympy(Polynomial.zero(dim))
    for mono, c in p.terms.items():
        term = to_sympy(Polynomial.constant(dim, c))
        for s, e in zip(polys, mono):
            term = term * s**e
        total = total + term
    return from_sympy(total, dim)


def assert_canonical_equal(got: Polynomial, want: Polynomial):
    assert got == want
    assert hash(got) == hash(want)
    assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    assert all(len(m) == got.dimension for m in got.terms)


pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(polynomials(d, 40, 6), polynomials(d, 40, 6))
)


@settings(max_examples=80, deadline=None)
@given(pairs)
def test_mul_matches_sympy(pair):
    a, b = pair
    want = from_sympy(to_sympy(a) * to_sympy(b), a.dimension)
    assert_canonical_equal(a * b, want)
    assert_canonical_equal(b * a, want)


substitutions = st.integers(1, 4).flatmap(
    lambda d: st.tuples(
        polynomials(d, 6, 4),
        st.integers(1, 4).flatmap(lambda e: st.lists(polynomials(e, 3, 3), min_size=d, max_size=d)),
    )
)


@settings(max_examples=40, deadline=None)
@given(substitutions)
def test_substitute_matches_sympy(case):
    p, subs = case
    assert_canonical_equal(p.substitute(subs), sympy_substitute(p, subs))


binomials = st.dictionaries(st.tuples(st.integers(0, 2)), COEFFS, min_size=2, max_size=2).map(
    lambda t: Polynomial(1, t)
)

high_powers = st.integers(1, 2).flatmap(
    lambda d: st.tuples(polynomials(d, 64, 4), st.lists(binomials, min_size=d, max_size=d))
)


@settings(max_examples=30, deadline=None)
@given(high_powers)
def test_substitute_high_powers_matches_sympy(case):
    # outer exponents up to 64 walk odd, even and gapped halving chains
    p, subs = case
    assert_canonical_equal(p.substitute(subs), sympy_power_sum(p, subs))


@pytest.mark.parametrize("exps", [(1, 2, 3), (64,), (63, 33, 31), (5, 7, 8, 16, 17)])
def test_substitute_exponent_chains_match_sympy(exps):
    p = Polynomial(1, {(e,): Fraction(e, 3) for e in exps})
    subs = [P("1/2*x1^2 - 3", 1)]
    assert_canonical_equal(p.substitute(subs), sympy_substitute(p, subs))


@st.composite
def triangular_maps(draw, dim):
    comps = []
    for i in range(dim):
        mono = st.tuples(*([st.just(0)] * i + [st.integers(0, 2)] * (dim - i)))
        terms = draw(st.dictionaries(mono, COEFFS, max_size=3))
        lead = (0,) * i + (draw(st.integers(1, 2)),) + (0,) * (dim - i - 1)
        terms[lead] = draw(COEFFS)
        comps.append(Polynomial(dim, terms))
    return TriangularMap(comps)


map_pairs = st.integers(1, 4).flatmap(lambda d: st.tuples(triangular_maps(d), triangular_maps(d)))


@settings(max_examples=40, deadline=None)
@given(map_pairs)
def test_compose_matches_sympy(maps):
    outer, inner = maps
    composed = outer.compose(inner)
    for got, f in zip(composed.components, outer.components):
        assert_canonical_equal(got, sympy_substitute(f, inner.components))


# -- deterministic edges of the packed kernel ------------------------------


@pytest.mark.parametrize(
    "a, b, want",
    [
        ("x1^7", "x1", "x1^8"),
        ("x1^31", "x1^33", "x1^64"),
        # both fields of the packed key land on a power of two at once
        ("x1^7*x2^31 + x2", "x1*x2^33 + x1", "x1^8*x2^64 + x1^8*x2^31 + x1*x2^34 + x1*x2"),
        ("x1^255*x2 + 1", "x1 + x2^255", "x1^256*x2 + x1^255*x2^256 + x1 + x2^255"),
    ],
)
def test_mul_exponent_sum_on_field_boundary(a, b, want):
    assert_canonical_equal(P(a, 2) * P(b, 2), P(want, 2))


def test_mul_variable_absent_from_both_operands():
    # x2 and x3 occur in neither operand, so their packed fields are empty
    assert_canonical_equal(P("x1 + x4", 4) * P("x1 - x4", 4), P("x1^2 - x4^2", 4))
    assert_canonical_equal(
        P("x1^3 + 2", 3) * P("x1^5 - 1/2", 3), P("x1^8 + 2*x1^5 - 1/2*x1^3 - 1", 3)
    )


def test_mul_cancels_inside_the_product():
    # the x1*x2 terms cancel in the convolution and must not be stored as 0
    prod = P("x1 - x2") * P("x1 + x2")
    assert prod.terms == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert_canonical_equal(prod - P("x1^2 - x2^2"), Polynomial.zero(2))


def test_mul_unreduced_denominator_product():
    # the denominator lcms are 12 and 12; the product over 144 must reduce
    prod = P("1/6*x1 + 1/4") * P("1/6*x1 - 1/4")
    assert_canonical_equal(prod, P("1/36*x1^2 - 1/16"))
    assert prod.terms[(2,)].denominator == 36


def test_mul_by_zero_polynomial():
    p = P("3/2*x1^3*x2 - x2^2 + 7", 3)
    zero = Polynomial.zero(3)
    assert_canonical_equal(p * zero, zero)
    assert_canonical_equal(zero * p, zero)
    assert_canonical_equal(zero * zero, zero)
