"""The two product kernels of qpoly, each forced on in turn, against sympy; and which one runs.

``qpoly._product_terms`` multiplies either by one big-integer multiply over
a deflated exponent box (Kronecker substitution) or by a loop over all term
pairs, as ``qpoly._kronecker_pays`` decides.  The oracle tests patch that
predicate to force every product onto one kernel and compare with
``sympy.Poly``: random operands whose exponents step by a per-variable gcd
that may differ between the operands, with variables absent from both and
denominators whose product is not reduced, and fixed edges for slot sums
that reach the signed slot bound exactly, cancellation inside a slot and
``p * p`` on one object.  Every result must be canonical: tuple keys, and
nonzero int numerators over a positive denominator prime to their gcd.

The guards pin the choice itself without a clock: a huge coefficient or a
huge sparse exponent box keeps a product off the dense kernel, and the
degree sequences of the test corpus send few term pairs through the loop.
"""

import math
from contextlib import contextmanager
from fractions import Fraction

import pytest
from corpus import CORPUS
from hypothesis import given, settings
from hypothesis import strategies as st
from test_qpoly_oracle import COEFFS, from_sympy, to_sympy

from arithdyn import qpoly
from arithdyn.degrees import dynamical_degree_sequence
from arithdyn.qpoly import Polynomial, parse_polynomial

KERNELS = ["dense", "sparse"]


@contextmanager
def kernel_runs():
    """Yields the term counts of every product that ran on the dense kernel."""
    dense = []
    run = qpoly._kronecker_terms

    def counted(a, b, *rest):
        dense.append((len(a), len(b)))
        return run(a, b, *rest)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qpoly, "_kronecker_terms", counted)
        yield dense


@contextmanager
def forced(kernel):
    """Run every product on ``kernel``; yields the dense runs as ``kernel_runs`` does."""
    with pytest.MonkeyPatch.context() as mp, kernel_runs() as dense:
        mp.setattr(qpoly, "_kronecker_pays", lambda box, slot, pairs: kernel == "dense")
        yield dense


def assert_product(a: Polynomial, b: Polynomial, kernel: str) -> Polynomial:
    with forced(kernel) as dense:
        got = a * b
    assert len(dense) == (kernel == "dense")
    assert got == from_sympy(to_sympy(a) * to_sympy(b), a.dimension)
    assert type(got.den) is int and got.den > 0
    assert math.gcd(got.den, *got.terms.values()) == 1
    for mono, c in got.terms.items():
        assert type(mono) is tuple and len(mono) == a.dimension
        assert all(type(e) is int and e >= 0 for e in mono)
        assert type(c) is int and c != 0
    return got


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


@pytest.mark.parametrize("kernel", KERNELS)
@settings(max_examples=60, deadline=None)
@given(stepped_pairs())
def test_product_matches_sympy(kernel, pair):
    a, b = pair
    assert_product(a, b, kernel)
    assert_product(b, a, kernel)
    assert_product(a, a, kernel)


def P(text, dim):
    return parse_polynomial(text, dim)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "a, b, dim",
    [
        # x1 in steps of 3, x2 in steps of 2
        ("x1^6*x2^4 - 2*x1^3 + x2^2", "3*x1^9 + x1^3*x2^6 - 1", 2),
        # steps 2 and 6 deflate x1 by 2; steps 3 and 4 leave it at 1
        ("x1^4 + x1^2", "x1^6 - 1", 1),
        ("x1^6 + 5*x1^3", "x1^4 - 7", 1),
        # x2 and x3 occur in neither operand
        ("x1^2 + x4^3", "x1^2 - 2*x4^3 + 1", 4),
        # one exponent is 0 everywhere in one operand only
        ("x1^3 + 1", "x2^2 - x1^3*x2^2", 2),
    ],
)
def test_deflated_exponents_match_sympy(kernel, a, b, dim):
    assert_product(P(a, dim), P(b, dim), kernel)


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("bits", [7, 8, 15, 16, 63, 64, 127, 128])
def test_slot_sum_reaches_the_signed_bound(kernel, bits):
    # a = -M(1 + x + x^2) and b = M(1 + x + x^2) meet three times in the slot
    # of x^2, whose sum is -3 M^2 = -min(|a|, |b|) max|a_i| max|b_j|, the bound
    # the slot width is sized for, with a bit length on either side of a byte
    m = math.isqrt((2**bits - 1) // 3)
    bound = 3 * m * m
    assert bound.bit_length() == bits
    b = Polynomial(1, {(e,): Fraction(m) for e in range(3)})
    a = -b
    assert assert_product(a, b, kernel).terms[(2,)] == -bound
    assert assert_product(b, b, kernel).terms[(2,)] == bound


@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize(
    "a, b, dim",
    [
        ("x1 + x2", "x1 - x2", 2),
        ("1/2*x1^3 + 1/3*x2^2", "1/2*x1^3 - 1/3*x2^2", 2),
        ("x1^2 + x1 + 1", "x1 - 1", 1),
    ],
)
def test_cancellation_inside_a_slot(kernel, a, b, dim):
    got = assert_product(P(a, dim), P(b, dim), kernel)
    assert len(got.terms) == 2


@pytest.mark.parametrize("kernel", KERNELS)
def test_unreduced_denominators(kernel):
    # the operands' denominator lcms 6 and 12 multiply to 72, which no
    # coefficient of the product keeps
    got = assert_product(P("1/2*x1 + 1/3", 1), P("2/3*x1 - 3/4", 1), kernel)
    assert got == P("1/3*x1^2 - 11/72*x1 - 1/4", 1)


@pytest.mark.parametrize("kernel", KERNELS)
def test_square_of_one_object(kernel):
    p = P("3/2*x1^3*x2 - x2^2 + 5", 2)
    got = assert_product(p, p, kernel)
    assert got == p * Polynomial(2, zip(p.terms, p.coefficients()))


# -- which kernel runs --------------------------------------------------------


def test_huge_coefficient_square_stays_sparse():
    # 400 terms with small coefficients square densely; one coefficient of
    # 3^200000 widens every slot to 79 kB, so that each dense operand would
    # take 63 MB
    small = Polynomial(1, {(e,): Fraction(e % 7 + 1) for e in range(400)})
    with kernel_runs() as dense:
        small * small
    assert dense == [(400, 400)]
    huge = Polynomial(1, {**small.terms, (399,): Fraction(3**200000)})
    with kernel_runs() as dense:
        square = huge * huge
    assert dense == []
    assert square.terms[(798,)] == 3**400000


@pytest.mark.parametrize(
    "text, square",
    [
        ("x1^100000 + x1", "x1^200000 + 2*x1^100001 + x1^2"),
        # 21 one-byte slots fit in four 64-bit words, but cost more steps
        # to read back than the loop's four pairs
        ("x1^10 + x1", "x1^20 + 2*x1^11 + x1^2"),
    ],
)
def test_sparse_box_stays_off_dense(text, square):
    p = P(text, 1)
    with kernel_runs() as dense:
        got = p * p
    assert dense == []
    assert got == P(square, 1)


def test_degree_sequences_sparse_loop_work(monkeypatch):
    # Term pairs |a|*|b| that run through the sparse loop over the degree
    # sequences of the corpus to n = 5: 872,378 before the dense kernel
    # (644,523 of them for E1), 3,145 with it.
    pairs = []
    product = qpoly._product_terms
    monkeypatch.setattr(
        qpoly, "_product_terms", lambda a, b: pairs.append(len(a) * len(b)) or product(a, b)
    )
    with kernel_runs() as dense:
        for f in CORPUS:
            dynamical_degree_sequence(f, 5)
    assert sum(pairs) - sum(x * y for x, y in dense) <= 20_000
