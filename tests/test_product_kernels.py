"""The polynomial product kernel of qpoly against sympy, and where it runs.

``qpoly._product_terms`` multiplies by one loop over all term pairs, with
each exponent tuple packed into one int.  The oracle tests compare it with
``sympy.Poly``: random operands whose exponents step by a per-variable gcd
that may differ between the operands, with variables absent from both and
denominators whose product is not reduced, and fixed edges for coefficient
sums at each bit length around a byte, cancellation and ``p * p`` on one
object.  Every result must be canonical: tuple keys, and nonzero int
numerators over a positive denominator prime to their gcd.

Each oracle case runs twice: on a dense exponent box, the operands as
written, and on a sparse one, every exponent times ``STRIDE``, where the
product must be the dense product with its exponents stretched alike and
each variable that occurs packs into a field wider than one 64-bit word.

The traffic guard pins that the degree sequences of the test corpus run no
polynomial product at all, so the kernel's speed does not reach them.
"""

import math
from fractions import Fraction

import pytest
from corpus import CORPUS
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy_oracle import COEFFS, from_sympy, to_sympy

from arithdyn import qpoly
from arithdyn.degrees import dynamical_degree_sequence
from arithdyn.qpoly import Polynomial, parse_polynomial


BOXES = ["dense", "sparse"]

# x_i -> x_i^STRIDE turns the oracle's exponent boxes into sparse ones, in
# which every variable that occurs takes a field of more than 64 bits
STRIDE = 2**64 + 1


def stretched(p: Polynomial, exponent) -> Polynomial:
    """p with every exponent e replaced by exponent(e)."""
    terms = {tuple(map(exponent, m)): c for m, c in zip(p.terms, p.coefficients())}
    return Polynomial(p.dimension, terms)


def assert_product(a: Polynomial, b: Polynomial, box: str = "dense") -> Polynomial:
    """a * b checked against sympy on ``box``; returns it on the dense box."""
    k = 1 if box == "dense" else STRIDE
    want = from_sympy(to_sympy(a) * to_sympy(b), a.dimension)
    spread_a = stretched(a, lambda e: e * k)
    got = spread_a * (spread_a if b is a else stretched(b, lambda e: e * k))
    assert got == stretched(want, lambda e: e * k)
    assert type(got.den) is int and got.den > 0
    assert math.gcd(got.den, *got.terms.values()) == 1
    for mono, c in got.terms.items():
        assert type(mono) is tuple and len(mono) == a.dimension
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(c) is int and c != 0
    return stretched(got, lambda e: e // k)


@st.composite
def stepped_pairs(draw):
    """Two polynomials whose x_i-exponents are multiples of a drawn step per operand.

    A step of 0 makes the variable absent; it is drawn for both operands at once.
    """
    dim = draw(st.integers(1, 3))
    absent = draw(st.sets(st.integers(0, dim - 1), max_size=dim - 1))

    def operand():
        steps = [0 if i in absent else draw(st.sampled_from([1, 2, 3, 6])) for i in range(dim)]
        mono = st.tuples(*[st.integers(0, 3).map(lambda k, g=g: k * g) for g in steps])
        terms = draw(st.dictionaries(mono, COEFFS, min_size=1, max_size=6))
        return Polynomial(dim, terms)

    return operand(), operand()


@pytest.mark.parametrize("box", BOXES)
@settings(max_examples=60, deadline=None)
@given(stepped_pairs())
def test_product_matches_sympy(box, pair):
    a, b = pair
    assert_product(a, b, box)
    assert_product(b, a, box)
    assert_product(a, a, box)


def P(text, dim):
    return parse_polynomial(text, dim)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize(
    "a, b, dim",
    [
        # x1 in steps of 3, x2 in steps of 2
        ("x1^6*x2^4 - 2*x1^3 + x2^2", "3*x1^9 + x1^3*x2^6 - 1", 2),
        # x1 in steps of 2 and 6, whose gcd is 2; steps 3 and 4, gcd 1
        ("x1^4 + x1^2", "x1^6 - 1", 1),
        ("x1^6 + 5*x1^3", "x1^4 - 7", 1),
        # x2 and x3 occur in neither operand
        ("x1^2 + x4^3", "x1^2 - 2*x4^3 + 1", 4),
        # one exponent is 0 everywhere in one operand only
        ("x1^3 + 1", "x2^2 - x1^3*x2^2", 2),
    ],
)
def test_deflated_exponents_match_sympy(box, a, b, dim):
    assert_product(P(a, dim), P(b, dim), box)


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 127, 128])
def test_slot_sum_reaches_the_signed_bound(box, bits):
    # a = -M(1 + x + x^2) and b = M(1 + x + x^2) meet three times at x^2,
    # whose sum is -3 M^2 = -min(|a|, |b|) max|a_i| max|b_j|, the largest a
    # coefficient of the product can be, with a bit length on either side of
    # a byte
    m = math.isqrt((2**bits - 1) // 3)
    bound = 3 * m * m
    assert bound.bit_length() == bits
    b = Polynomial(1, {(e,): Fraction(m) for e in range(3)})
    a = -b
    assert assert_product(a, b, box).terms[(2,)] == -bound
    assert assert_product(b, b, box).terms[(2,)] == bound


@pytest.mark.parametrize("box", BOXES)
@pytest.mark.parametrize(
    "a, b, dim",
    [
        ("x1 + x2", "x1 - x2", 2),
        ("1/2*x1^3 + 1/3*x2^2", "1/2*x1^3 - 1/3*x2^2", 2),
        ("x1^2 + x1 + 1", "x1 - 1", 1),
    ],
)
def test_cancellation_inside_a_slot(box, a, b, dim):
    got = assert_product(P(a, dim), P(b, dim), box)
    assert len(got.terms) == 2


@pytest.mark.parametrize("box", BOXES)
def test_unreduced_denominators(box):
    # the operands' denominator lcms 6 and 12 multiply to 72, which no
    # coefficient of the product keeps
    got = assert_product(P("1/2*x1 + 1/3", 1), P("2/3*x1 - 3/4", 1), box)
    assert got == P("1/3*x1^2 - 11/72*x1 - 1/4", 1)


@pytest.mark.parametrize("box", BOXES)
def test_square_of_one_object(box):
    p = P("3/2*x1^3*x2 - x2^2 + 5", 2)
    got = assert_product(p, p, box)
    assert got == p * Polynomial(2, zip(p.terms, p.coefficients()))


def test_huge_coefficient_square():
    # one coefficient of 3^200000 among 400 small ones
    small = Polynomial(1, {(e,): Fraction(e % 7 + 1) for e in range(400)})
    huge = Polynomial(1, {**small.terms, (399,): Fraction(3**200000)})
    assert (huge * huge).terms[(798,)] == 3**400000


@pytest.mark.parametrize(
    "text, square",
    [
        ("x1^100000 + x1", "x1^200000 + 2*x1^100001 + x1^2"),
        ("x1^10 + x1", "x1^20 + 2*x1^11 + x1^2"),
    ],
)
def test_square_of_a_sparse_box(text, square):
    p = P(text, 1)
    assert p * p == P(square, 1)


def test_degree_sequences_run_no_product(monkeypatch):
    # The degrees come from the certificate mod q; a product here would
    # bring the kernel's speed back into degree_sequences, to be re-measured.
    calls = []
    product = qpoly._product_terms
    monkeypatch.setattr(qpoly, "_product_terms", lambda a, b: calls.append(1) or product(a, b))
    for f in CORPUS:
        dynamical_degree_sequence(f, 5)
    assert calls == []
