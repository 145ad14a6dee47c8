import copy
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn import qpoly
from arithdyn.degrees import dynamical_degree_sequence
from arithdyn.maps import iterate_symbolic, orbit, triangular_map
from arithdyn.qpoly import (
    DimensionMismatchError,
    Polynomial,
    ResourceCaps,
    ResourceLimitError,
    parse_polynomial,
)


def P(text, dim=None):
    return parse_polynomial(text, dim)


# -- arithmetic ---------------------------------------------------------


def test_add_cancellation():
    assert P("x1+x2") + P("0-x2", 2) == P("x1", 2)


def test_equal_numerators_over_different_denominators_differ():
    half = P("1/2*x1 + 1/2")
    assert half.terms == P("x1 + 1").terms
    assert half != P("x1 + 1")
    assert half + half == P("x1 + 1")


def test_add_identity():
    p = P("3/2*x1^3*x2 + x2^2 - 1")
    assert p + Polynomial.zero(2) == p


def test_add_doubling():
    # hand expansion: (x1^2+1) + (x1^2+1) = 2x1^2 + 2
    assert P("x1^2+1") + P("x1^2+1") == P("2*x1^2+2")


def test_mul_difference_of_squares():
    assert P("x1+x2") * P("x1-x2") == P("x1^2-x2^2")


def test_mul_identity():
    p = P("x1^3*x2 - 7*x2")
    assert p * Polynomial.constant(2, 1) == p


def test_mul_hand_expansion():
    # (x1^3+x2)(x2^2+1) = x1^3*x2^2 + x1^3 + x2^3 + x2
    assert P("x1^3+x2") * P("x2^2+1", 2) == P("x1^3*x2^2 + x1^3 + x2^3 + x2")


def test_dimension_mismatch_raises():
    with pytest.raises(DimensionMismatchError):
        P("x1") + P("x1+x2")


# -- evaluation ----------------------------------------------------------


def test_evaluate_hand_arithmetic():
    value = P("x1^3+x2").evaluate([Fraction(1, 256), Fraction(1, 2)])
    assert value == Fraction(1, 2**24) + Fraction(1, 2)


def test_evaluate_constant():
    assert Polynomial.constant(3, Fraction(-7, 3)).evaluate([1, 2, 3]) == Fraction(-7, 3)


def test_evaluate_reciprocal_pair():
    assert P("x1*x2").evaluate([Fraction(2, 3), Fraction(3, 2)]) == 1


def test_evaluate_wrong_arity():
    with pytest.raises(DimensionMismatchError):
        P("x1+x2").evaluate([1])


def test_evaluate_large_iterate_gcd_work(monkeypatch):
    # Fraction arithmetic reduces through math.gcd; the bits of the smaller
    # operand of each call measure the work without a clock.  A term-by-term
    # sum of f^3 at f^6(P) costs 3,396,012 bits; the Horner order under 300k.
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    points = orbit(f, (Fraction(1, 256), Fraction(1, 2)), 9)
    f3 = iterate_symbolic(f, 3)
    bits = []
    gcd = math.gcd

    def counted(a, b):
        bits.append(min(abs(a).bit_length(), abs(b).bit_length()))
        return gcd(a, b)

    monkeypatch.setattr(math, "gcd", counted)
    got = tuple(c.evaluate(points[6]) for c in f3.components)
    monkeypatch.undo()
    assert got == points[9]
    assert sum(bits) <= 1_000_000


def test_orbit_gcd_work(monkeypatch):
    # The integer kernel cancels each orbit step's denominator by valuations
    # at 2, so these power-of-two orbits run no gcd at all.  Fraction
    # arithmetic took 2,136 and 262,243 bits here, and building each value
    # with the normalising Fraction(n, d) takes 710,642 and 524,301.
    e1 = triangular_map(["x1^3+x2", "x2^2+1"])
    second = triangular_map(["x1*x2+1", "x2^2"])
    start_e1 = (Fraction(15, 256), Fraction(9, 2))
    start_second = (Fraction(1), Fraction(97, 2))
    bits = []
    gcd = math.gcd

    def counted(a, b):
        bits.append(min(abs(a).bit_length(), abs(b).bit_length()))
        return gcd(a, b)

    monkeypatch.setattr(math, "gcd", counted)
    orbit(e1, start_e1, 10)
    last = orbit(second, start_second, 17)[-1]
    monkeypatch.undo()
    assert sum(bits) <= 10_000
    assert last[1] == Fraction(97 ** (2**17), 2 ** (2**17))


# -- substitution --------------------------------------------------------


def test_substitute_binomial():
    out = P("x1^2", 2).substitute([P("x1+1", 2), P("x2", 2)])
    assert out == P("x1^2+2*x1+1", 2)


def test_substitute_identity():
    p = P("3*x1^2*x2 - x2^3 + 5")
    assert p.substitute([P("x1", 2), P("x2", 2)]) == p


def test_substitute_vs_independent_expansion():
    # oracle: expand (x1^3+x2)^3 + x2^2 + 1 directly with ring operations
    a = P("x1^3+x2")
    b = P("x2^2+1", 2)
    expected = a * a * a + b
    assert P("x1^3+x2").substitute([a, b]) == expected


def test_substitute_term_budget():
    p = P("x1^4", 1)
    with pytest.raises(ResourceLimitError) as err:
        p.substitute([P("x1^3+x1^2+x1+1", 1)], caps=ResourceCaps(max_terms=5))
    assert err.value.metadata["max_terms"] == 5


def count_products(monkeypatch):
    """Patch qpoly's product kernel to count polynomial-by-polynomial products."""
    calls = []
    kernel = qpoly._product_terms

    def counted(a, b):
        calls.append(1)
        return kernel(a, b)

    monkeypatch.setattr(qpoly, "_product_terms", counted)
    return calls


def test_substitute_builds_only_the_powers_it_uses(monkeypatch):
    calls = count_products(monkeypatch)
    assert P("x1^1000", 1).substitute([P("x1^2", 1)]) == P("x1^2000", 1)
    # 14 powers along the halving chain of 1000, then the coefficient times x1^2000
    assert len(calls) <= 21


def test_degree_sequence_of_a_huge_power_is_cheap(monkeypatch):
    calls = count_products(monkeypatch)
    seq = dynamical_degree_sequence(triangular_map(["x1^100000"]), 2)
    assert [d for _, d, _ in seq] == [100000, 10**10]
    assert len(calls) <= 40


def test_substitute_power_budget_stops_before_the_top_power(monkeypatch):
    calls = count_products(monkeypatch)
    with pytest.raises(ResourceLimitError) as err:
        P("x1^8", 1).substitute([P("x1+1", 1)], caps=ResourceCaps(max_terms=4))
    # (x1+1)^2 has 3 terms; its square (x1+1)^4 has 5 and stops the chain
    assert err.value.metadata["stage"] == "substitute:power"
    assert err.value.metadata["term_count"] == 5
    assert len(calls) == 2


@pytest.mark.parametrize(
    "text, stage, term_count",
    [("x1*x2", "substitute:term", 4), ("x1 + x2", "substitute:sum", 3)],
)
def test_substitute_term_and_sum_budgets(text, stage, term_count):
    # no power is built: (x1+1)*(x2+2) has 4 terms, (x1+1) + (x2+2) has 3
    with pytest.raises(ResourceLimitError) as err:
        P(text, 2).substitute([P("x1+1", 2), P("x2+2", 2)], caps=ResourceCaps(max_terms=2))
    assert err.value.metadata == {"stage": stage, "term_count": term_count, "max_terms": 2}


def test_substitute_reuses_powers_across_terms(monkeypatch):
    s = P("x1+x2+1", 2)
    p = P("x1^6 + x1^5 + x1^3 + x2^6", 2)
    calls = count_products(monkeypatch)
    got = p.substitute([s, s])
    # x1: s^2, s^3, s^4, s^5, s^6 once each; x2 reuses nothing from x1 (its
    # own chain s^2, s^3, s^6); a term starts from its first power and a
    # coefficient 1 scales nothing, so no other product runs
    assert len(calls) == 5 + 3
    assert got == s * s * s * s * s * s * 2 + s * s * s * s * s + s * s * s


# -- degrees -------------------------------------------------------------


def test_degree_in_var():
    p = P("x1^3+x2")
    assert p.degree_in_var(1) == 3
    assert p.degree_in_var(2) == 1


def test_degree_of_constant_and_zero():
    assert Polynomial.constant(2, 5).degree_in_var(1) == 0
    z = Polynomial.zero(2)
    assert z.degree_in_var(1) == 0
    assert z.total_degree() == 0
    assert z == Polynomial.zero(z.dimension)


def test_total_degree():
    assert P("x1^3+x2").total_degree() == 3
    assert P("x1*x2^2").total_degree() == 3


def test_degree_index_out_of_range():
    with pytest.raises(IndexError):
        P("x1").degree_in_var(2)


# -- text round trip ------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "0",
        "1",
        "-1",
        "3/2*x1^3*x2 + x2^2 - 1",
        "x1",
        "-x1^2 + x2 - 1/7",
        "x1^2*x2^3*x3 + 2",
    ],
)
def test_round_trip(text):
    p = parse_polynomial(text)
    assert parse_polynomial(p.to_text(), p.dimension) == p


COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda obj: pickle.loads(pickle.dumps(obj)),
}


@pytest.mark.parametrize("make_copy", COPIES.values(), ids=COPIES.keys())
@pytest.mark.parametrize("evaluated_first", [False, True], ids=["fresh", "evaluated"])
@pytest.mark.parametrize("text", ["x1^3+1/3*x2", "0", "-5/4"])
def test_copy_and_pickle_rebuild_an_equal_polynomial(text, evaluated_first, make_copy):
    p = P(text, 2)
    point = [Fraction(3, 4), Fraction(-2, 9)]
    want = p.evaluate(point) if evaluated_first else None
    hashed = hash(p)
    q = make_copy(p)
    # the cached hash and plan stay with the original
    assert q._hash is None and q._plan is None
    assert type(q) is Polynomial and q == p and hash(q) == hashed
    assert q.evaluate(point) == p.evaluate(point) == (want or p.evaluate(point))
    assert (q.dimension, q.den, q.terms) == (p.dimension, p.den, p.terms)
    assert q.terms is not p.terms
    with pytest.raises(AttributeError, match="immutable"):
        q.den = 2


def test_parse_whitespace_insensitive():
    assert P("  3/2 * x1 ^ 3 * x2+x2^2   -1 ") == P("3/2*x1^3*x2 + x2^2 - 1")


def test_parse_sign_runs_and_repeated_variables():
    assert P("x1-+-x2") == P("x1 + x2")
    assert P("x1*x1") == P("x1^2")
    assert P("- - 3 / 2 * x1") == P("3/2*x1")


@pytest.mark.parametrize(
    "text", ["2x1", "3 x1^2", "x1 x2", "3 4", "٣*x1", "x٣", "1/0*x1", "x1^2^3", "1/", "x1 - "]
)
def test_parse_rejects_juxtaposed_and_malformed_factors(text):
    with pytest.raises(ValueError):
        parse_polynomial(text)


@pytest.mark.parametrize(
    "text, value", [("-3/2", Fraction(-3, 2)), ("+3", 3), (" 1/256 ", Fraction(1, 256)), ("0", 0)]
)
def test_rational_reads_an_integer_or_a_over_b(text, value):
    assert qpoly.rational(text) == value


@pytest.mark.parametrize("text", ["1.5", "1e3", "1_000", "1/0", "x1", "", "-", "--1", "٣", "1/-2"])
def test_rational_rejects_other_strings(text):
    with pytest.raises(ValueError):
        qpoly.rational(text)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("x1 + $")
    with pytest.raises(ValueError):
        parse_polynomial("x1 *")


# -- hypothesis: ring axioms and evaluation compatibility ------------------

coeffs = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def polynomials(draw, dimension=2, max_exp=3, max_terms=4):
    n_terms = draw(st.integers(0, max_terms))
    terms = {}
    for _ in range(n_terms):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(dimension))
        terms[mono] = draw(coeffs)
    return Polynomial(dimension, terms)


points = st.tuples(coeffs, coeffs)


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(p, q, r):
    assert p + q == q + p
    assert (p + q) + r == p + (q + r)
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@settings(max_examples=60, deadline=None)
@given(polynomials(), polynomials(), points)
def test_evaluate_is_ring_homomorphism(p, q, v):
    assert (p * q).evaluate(v) == p.evaluate(v) * q.evaluate(v)
    assert (p + q).evaluate(v) == p.evaluate(v) + q.evaluate(v)


@settings(max_examples=40, deadline=None)
@given(polynomials(max_exp=2, max_terms=3), polynomials(max_exp=2, max_terms=3),
       polynomials(max_exp=2, max_terms=3), points)
def test_substitute_evaluate_compatibility(p, s1, s2, v):
    subs = [s1, s2]
    lhs = p.substitute(subs).evaluate(v)
    rhs = p.evaluate([s.evaluate(v) for s in subs])
    assert lhs == rhs


@settings(max_examples=60, deadline=None)
@given(polynomials(), st.text(alphabet=" \t\n", min_size=1, max_size=2))
def test_serialize_parse_round_trip(p, gap):
    text = p.to_text()
    assert parse_polynomial(text, p.dimension) == p
    spaced = re.sub(r"x\d+|\d+|\S", lambda m: gap + m.group() + gap, text)
    assert parse_polynomial(spaced, p.dimension) == p
