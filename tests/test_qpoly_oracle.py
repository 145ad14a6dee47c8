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
Evaluation is checked against ``sympy.Poly.eval`` on sparse polynomials with
exponent gaps up to 40, at points whose coordinates may be 0, negative, or
share primes between numerators and denominators (2/3 beside 3/2), so the
Horner folds and the final x_i^(lowest exponent) factors of
``Polynomial.evaluate`` all meet cancellation.  The integer kernel behind
``evaluate`` is checked on odd denominators, which it reduces by a gcd
rather than by shifts: powers 3^k and 5^k, composites 6, 12 and 35, the
prime 2^61 - 1, and the product of two large primes, with numerators that
cancel them; every value must come back reduced with a positive denominator.

At large points, whose numerators and denominators run to 70,000 bits (odd
ones too, so the gcd reduction runs), and in 1200 variables, ``evaluate`` is
checked against a sum of ``evaluate_monomial`` terms (``tests/oracle.py``).
Its powers are recorded through the module-level name ``pow``: along four
power-of-two orbits no base or result of a power is a power of two, every
base is a coordinate's numerator (an odd denominator part of 1 builds no
power), and each power is built once.  A power of two multiplied with ``*``
would escape that record, so the source of the integer kernel, and of every
helper of the module it calls, is also read: it writes no power of two as a
value (``2 ** e``, ``1 << e``, ``pow(2, e)``), and aligns pairs by shifting
a value instead.

Each group of terms folds as a balanced tree.  Its shape is pinned without
a clock (one or two entries are one Horner step; the ten entries of the x1
level of E1^3 fold at depth 4, with one ``pow`` and two squares), and
groups of 3 to 40 entries at irregular exponent gaps, of odd, even and
2^j +- 1 sizes, are checked against the monomial sum and sympy at points
with zero, negative and odd, power-of-two or mixed denominators.

A polynomial builds its evaluation plan once and keeps it: one polynomial
evaluated at many points, so that its plan is reused, is checked against
the monomial sum and sympy, an evaluated polynomial stays equal, with an
equal hash, to a fresh one, an exact orbit builds each component's plan
once, and ``qpoly`` imports no ``functools``.
"""

import ast
import inspect
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithdyn import qpoly
from arithdyn.maps import TriangularMap, iterate_symbolic, orbit, triangular_map
from arithdyn.qpoly import Polynomial, parse_polynomial
from oracle import evaluate_monomial
from sympy_oracle import COEFFS, GENS, from_sympy, sympy, to_sympy


def P(text, dim=None):
    return parse_polynomial(text, dim)


def polynomials(dim, max_exp, max_size):
    mono = st.tuples(*[st.integers(0, max_exp)] * dim)
    return st.dictionaries(mono, COEFFS, max_size=max_size).map(lambda t: Polynomial(dim, t))


def sympy_power_sum(p: Polynomial, subs) -> Polynomial:
    """The substitution as a sum of c * prod(subs[i]**e_i) in sympy.Poly
    arithmetic, which is faster than expanding the substituted expression."""
    dim = subs[0].dimension
    polys = [to_sympy(s) for s in subs]
    total = to_sympy(Polynomial.zero(dim))
    for mono, c in zip(p.terms, p.coefficients()):
        term = to_sympy(Polynomial.constant(dim, c))
        for s, e in zip(polys, mono):
            term = term * s**e
        total = total + term
    return from_sympy(total, dim)


def sympy_evaluate(p: Polynomial, point) -> Fraction:
    at = {g: sympy.Rational(c.numerator, c.denominator) for g, c in zip(GENS, point)}
    value = to_sympy(p).eval(at)
    return Fraction(int(value.p), int(value.q))


def assert_canonical_equal(got: Polynomial, want: Polynomial):
    assert got == want
    assert hash(got) == hash(want)
    assert type(got.den) is int and got.den > 0
    assert all(type(c) is int and c != 0 for c in got.terms.values())
    assert math.gcd(got.den, *got.terms.values()) == 1
    assert all(len(m) == got.dimension for m in got.terms)


pairs = st.integers(1, 4).flatmap(
    lambda d: st.tuples(polynomials(d, 40, 6), polynomials(d, 40, 6))
)


@settings(max_examples=80, deadline=None)
@given(pairs)
@example((P("1/2*x1"), P("2")))
@example((P("2/3*x1", 2), P("3/2*x2", 2)))
def test_mul_matches_sympy(pair):
    a, b = pair
    want = from_sympy(to_sympy(a) * to_sympy(b), a.dimension)
    assert_canonical_equal(a * b, want)
    assert_canonical_equal(b * a, want)


@settings(max_examples=80, deadline=None)
@given(pairs)
@example((P("1/6*x1"), P("1/3*x1")))
def test_add_matches_sympy(pair):
    a, b = pair
    want = from_sympy(to_sympy(a) + to_sympy(b), a.dimension)
    assert_canonical_equal(a + b, want)
    assert_canonical_equal(b + a, want)
    assert_canonical_equal(a - b, from_sympy(to_sympy(a) - to_sympy(b), a.dimension))


@pytest.mark.parametrize(
    "got, terms, den",
    [
        (lambda: P("1/2*x1") * 2, {(1,): 1}, 1),
        (lambda: P("1/2*x1") * P("2"), {(1,): 1}, 1),
        (lambda: P("1/6*x1") + P("1/3*x1"), {(1,): 1}, 2),
        (lambda: P("2/3*x1", 2) * P("3/2*x2", 2), {(1, 1): 1}, 1),
    ],
    ids=["scalar", "product", "sum", "two_variables"],
)
def test_denominator_cancels_to_canonical_form(got, terms, den):
    poly = got()
    assert (poly.terms, poly.den) == (terms, den)
    assert_canonical_equal(poly, from_sympy(to_sympy(poly), poly.dimension))


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
    assert_canonical_equal(p.substitute(subs), sympy_power_sum(p, subs))


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
    assert_canonical_equal(p.substitute(subs), sympy_power_sum(p, subs))


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
        assert_canonical_equal(got, sympy_power_sum(f, inner.components))


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
    assert dict(zip(prod.terms, prod.coefficients()))[(2,)].denominator == 36


def test_mul_by_zero_polynomial():
    p = P("3/2*x1^3*x2 - x2^2 + 7", 3)
    zero = Polynomial.zero(3)
    assert_canonical_equal(p * zero, zero)
    assert_canonical_equal(zero * p, zero)
    assert_canonical_equal(zero * zero, zero)


# -- evaluation -----------------------------------------------------------

COORDS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(2, 3), Fraction(3, 2), Fraction(-3, 2)]),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from([1, 2, 3, 4, 6, 9])),
)

evaluations = st.integers(1, 4).flatmap(
    lambda d: st.tuples(polynomials(d, 40, 6), st.lists(COORDS, min_size=d, max_size=d))
)


@settings(max_examples=150, deadline=None)
@given(evaluations)
def test_evaluate_matches_sympy(case):
    p, point = case
    got = p.evaluate(point)
    assert type(got) is Fraction
    assert got == sympy_evaluate(p, point)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("value", [Fraction(0), Fraction(-7, 3)])
def test_evaluate_constant_and_zero_polynomials(dim, value):
    p = Polynomial(dim, {(0,) * dim: value})
    for point in ([Fraction(0)] * dim, [Fraction(2, 3), Fraction(3, 2), -1, 5][:dim]):
        assert p.evaluate(point) == value == sympy_evaluate(p, point)


@pytest.mark.parametrize(
    "text, dim",
    [
        ("x1^40", 1),
        ("x1^40 + x1^3", 1),
        # every group of x1 has its lowest exponent of x2 above 0
        ("x1^40*x2^3 + x1^40*x2 + x1^17*x2^39 + x1^17*x2^2 + x2^40", 2),
        ("x1^9*x2^40*x3 + x1^9*x3^37 + x2*x3^40 - 3/2*x1 + 2/3", 3),
        ("x2^5*x4^40 + x3^2 + x1^38*x4 + 1/6", 4),
    ],
)
def test_evaluate_gapped_exponents_match_sympy(text, dim):
    p = P(text, dim)
    for point in (
        [Fraction(2, 3), Fraction(3, 2), Fraction(-2, 9), Fraction(9, 4)][:dim],
        [Fraction(-3, 2), Fraction(0), Fraction(2, 3), Fraction(-1)][:dim],
    ):
        assert p.evaluate(point) == sympy_evaluate(p, point)


# -- the integer kernel's denominators -----------------------------------

MERSENNE_61 = 2**61 - 1
MERSENNE_31 = 2**31 - 1

# 3^k and 5^k, composite denominators, a large prime, and a product of two
# large primes
KERNEL_DENOMINATORS = st.one_of(
    st.builds(pow, st.sampled_from([3, 5]), st.integers(0, 30)),
    st.sampled_from([1, 2, 6, 12, 35, 256, MERSENNE_61, MERSENNE_61 * MERSENNE_31]),
)
# numerators that share those primes, so that the value cancels them
KERNEL_NUMERATORS = st.builds(
    lambda k, f: k * f,
    st.integers(-30, 30),
    st.sampled_from([1, 3, 5, 9, 25, 7, MERSENNE_61, MERSENNE_31]),
)
KERNEL_COEFFS = st.builds(
    Fraction, st.integers(-12, 12).filter(bool), st.sampled_from([1, 3, 5, 6, 12, 35, MERSENNE_61])
)


def kernel_polynomials(dim):
    mono = st.tuples(*[st.integers(0, 5)] * dim)
    return st.dictionaries(mono, KERNEL_COEFFS, max_size=6).map(lambda t: Polynomial(dim, t))


kernel_cases = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        kernel_polynomials(d),
        st.lists(
            st.builds(Fraction, KERNEL_NUMERATORS, KERNEL_DENOMINATORS), min_size=d, max_size=d
        ),
    )
)


def assert_reduced_value(got: Fraction, want: Fraction):
    assert type(got) is Fraction
    assert got == want
    assert got.denominator > 0
    assert math.gcd(got.numerator, got.denominator) == 1


@settings(max_examples=200, deadline=None)
@given(kernel_cases)
def test_evaluate_kernel_denominators_match_sympy(case):
    p, point = case
    assert_reduced_value(p.evaluate(point), sympy_evaluate(p, point))


@pytest.mark.parametrize(
    "text, point",
    [
        # zero results: the numerator sums to 0
        ("x1 - x2", [Fraction(1, 3), Fraction(1, 3)]),
        ("3*x1 - 1", [Fraction(1, 3)]),
        ("x1^2*x2 - 1/35", [Fraction(1, 5), Fraction(5, 7)]),
        # negative values over 3^k, 6, 12 and 35
        ("-x1^3 - x2", [Fraction(2, 3**12), Fraction(1, 12)]),
        ("x1*x2 - 1/5", [Fraction(-1, 6), Fraction(4, 35)]),
        # 3 and 5 cancel from the numerator, once and thirty times
        ("x1 + x2", [Fraction(1, 6), Fraction(1, 3)]),
        ("x1 + x2", [Fraction(1, 3**40), Fraction(3**30 - 1, 3**40)]),
        ("x1^2 + 1/5*x1", [Fraction(2, 5**9), Fraction(0)]),
        ("x1*x2", [Fraction(35, 12), Fraction(12, 35)]),
        # 2^61 - 1 as a coordinate and a coefficient denominator
        ("x1^3 + 1/2305843009213693951", [Fraction(5, MERSENNE_61)]),
        ("2305843009213693951*x1^2", [Fraction(1, MERSENNE_61**3)]),
        # a product of two large primes, one of which cancels
        ("2305843009213693951*x1", [Fraction(1, MERSENNE_61 * MERSENNE_31)]),
    ],
)
def test_evaluate_kernel_edges_match_sympy(text, point):
    p = P(text, len(point))
    assert_reduced_value(p.evaluate(point), sympy_evaluate(p, point))


def test_evaluate_kernel_large_odd_power_runs_one_gcd(monkeypatch):
    # D = 101^(2E) against N = 101^(E+1): all but one power of 101 cancels,
    # and the odd part of D is reduced by one gcd, whatever E is
    e = 10_000
    p = P("x1 + x2", 2)
    point = [Fraction(1, 101**e), Fraction(100, 101**e)]
    calls = []
    gcd = math.gcd

    def counted(a, b):
        calls.append(1)
        return gcd(a, b)

    monkeypatch.setattr(math, "gcd", counted)
    got = p.evaluate(point)
    monkeypatch.undo()
    assert len(calls) == 1
    assert_reduced_value(got, Fraction(1, 101 ** (e - 1)))


# -- large points, many variables, and the powers evaluate builds ------------


def monomial_sum(poly, point):
    return sum(c * evaluate_monomial(mono, point) for mono, c in zip(poly.terms, poly.coefficients()))


BIG_POINTS = [
    (-(3**40000 + 1), 2**60000 + 0, 5**30000 + 2, 2**70000),
    (7**20000 + 2, 3 * 11**16000, -(2**70001 - 1), 13**15000),
    (-(5**25000) * 2**10, 7**25000, 1, 3**35000),
]


@pytest.mark.parametrize(
    "text", ["x1^3 + x2", "3/7*x1^2*x2 - 5/3*x1*x2^2 + x2^3 - 1", "x1^2*x2^2 + 2*x1 + x2^2"]
)
@pytest.mark.parametrize("coords", BIG_POINTS, ids=["neg_x1", "neg_x2_odd_dens", "odd_dens"])
def test_evaluate_at_large_points_matches_monomial_sum(coords, text):
    point = (Fraction(coords[0], coords[1]), Fraction(coords[2], coords[3]))
    poly = parse_polynomial(text, 2)
    assert_reduced_value(poly.evaluate(point), monomial_sum(poly, point))


@settings(max_examples=80, deadline=None)
@given(
    nums=st.lists(st.integers(-(2**900), 2**900), min_size=2, max_size=2),
    dens=st.lists(
        st.builds(lambda a, b, c: 2**a * 3**b * 7**c, st.integers(0, 300), st.integers(0, 200), st.integers(0, 90)),
        min_size=2,
        max_size=2,
    ),
    text=st.sampled_from(
        ["x1^3 + x2", "x1*x2 + 1", "2/9*x1^4*x2 - x1*x2^3 + 5/2", "x1^2 - x2^2", "x2^5 - 7/3*x1"]
    ),
)
def test_evaluate_over_2_3_7_denominators_matches_monomial_sum(nums, dens, text):
    point = tuple(Fraction(n, d) for n, d in zip(nums, dens))
    poly = parse_polynomial(text, 2)
    assert_reduced_value(poly.evaluate(point), monomial_sum(poly, point))


@pytest.fixture
def recorded_powers(monkeypatch):
    """The (base, exponent, result) of every ``pow`` that ``qpoly`` calls."""
    calls = []

    def recorder(base, e):
        out = pow(base, e)
        calls.append((base, e, out))
        return out

    monkeypatch.setattr(qpoly, "pow", recorder, raising=False)
    return calls


def is_power_of_two(x):
    return x > 1 and x & (x - 1) == 0


def test_evaluate_builds_each_power_once(recorded_powers):
    n1 = random.Random(9).getrandbits(60_000) | 1 << 59_999
    point = (Fraction(n1, 3**20), Fraction(-5, 7))
    # the Horner in x1 steps down by 3 twice, so n1^3 is used twice
    poly = parse_polynomial("x1^6 - 2*x1^3 + x2", 2)
    value = poly.evaluate(point)
    assert not [x for call in recorded_powers for x in (call[0], call[2]) if is_power_of_two(abs(x))]
    powers = [(base, e) for base, e, _ in recorded_powers]
    assert powers.count((n1, 3)) == 1
    assert powers.count((3**20, 3)) == 1
    assert len(set(powers)) == len(powers)
    assert value == monomial_sum(poly, point)


@pytest.mark.parametrize(
    "components, start, steps",
    [
        (["x1^3+x2", "x2^2+1"], ("1/256", "1/2"), 10),
        (["x1^3+x2", "x2^2+1"], ("15/256", "9/2"), 8),
        (["x1*x2+1", "x2^2"], ("1", "97/2"), 17),
        (["x1*x2+1", "x2^2"], ("1", "1/2"), 10),
    ],
    ids=["E1_product_start", "E1_sector_start", "second_case_start", "product_b_start"],
)
def test_evaluate_never_multiplies_by_a_power_of_two(components, start, steps, recorded_powers):
    # every denominator on these orbits is a power of two: it may only move
    # the pairs' exponents, never enter a power or a product; its odd part
    # is 1, so every power is of a numerator and none of 1 lifts a term
    f = triangular_map(components)
    point = tuple(Fraction(c) for c in start)
    for _ in range(steps):
        recorded_powers.clear()
        image = f.apply(point)
        assert recorded_powers
        assert not [x for call in recorded_powers for x in (call[0], call[2]) if is_power_of_two(abs(x))]
        assert {base for base, _, _ in recorded_powers} <= {c.numerator for c in point}
        assert image == tuple(monomial_sum(p, point) for p in f.components)
        point = image
    assert max(c.denominator.bit_length() for c in point) > 500


def powers_of_two_written(tree) -> list:
    """Line numbers of every expression under ``tree`` that builds a power
    of two from a constant: ``2 ** e`` (or 4, 8, ...), ``1 << e`` (or any
    constant shifted) and ``pow(2, e)``."""

    def two_power(node):
        return (
            isinstance(node, ast.Constant)
            and type(node.value) is int
            and is_power_of_two(node.value)
        )

    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp):
            built = (isinstance(node.op, ast.Pow) and two_power(node.left)) or (
                isinstance(node.op, ast.LShift) and isinstance(node.left, ast.Constant)
            )
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            built = name == "pow" and bool(node.args) and two_power(node.args[0])
        else:
            built = False
        if built:
            found.append(node.lineno)
    return found


def kernel_functions(module, entry: str) -> list:
    """The definitions in ``module`` (an ast.Module) of ``entry`` and of
    every module-level function it calls, directly or through another."""
    defs = {node.name: node for node in module.body if isinstance(node, ast.FunctionDef)}
    seen, todo = [], [entry]
    while todo:
        name = todo.pop()
        if name in defs and defs[name] not in seen:
            seen.append(defs[name])
            calls = [n for n in ast.walk(defs[name]) if isinstance(n, ast.Call)]
            todo += [c.func.id for c in calls if isinstance(c.func, ast.Name)]
    return seen


def test_evaluate_kernel_writes_no_power_of_two():
    # a product with 2^(t - s) is a multiply by a power of two that the pow
    # record above cannot see: the kernel, and every helper of the module
    # it calls, must shift its values instead
    functions = kernel_functions(ast.parse(inspect.getsource(qpoly)), "_horner_integer")
    assert functions[0].name == "_horner_integer"
    shifts = [node for f in functions for node in ast.walk(f) if isinstance(node, ast.LShift)]
    assert shifts
    assert [line for f in functions for line in powers_of_two_written(f)] == []


def test_power_of_two_guard_reads_the_helpers_the_kernel_calls():
    planted = ast.parse(
        "def _horner_integer(v, t):\n"
        "    return _join(v, t) << 1\n"
        "def _join(v, t):\n"
        "    return _align(v, t)\n"
        "def _align(v, t):\n"
        "    return v * 2 ** t\n"
        "def _unused(v, t):\n"
        "    return v * 1 << t\n"
    )
    functions = kernel_functions(planted, "_horner_integer")
    assert [f.name for f in functions] == ["_horner_integer", "_join", "_align"]
    assert [line for f in functions for line in powers_of_two_written(f)] == [6]


def test_power_of_two_guard_flags_the_rewrites_of_a_shift():
    planted = ast.parse(
        "v += c * 2 ** (t - s)\n"
        "v += c * (1 << (t - s))\n"
        "v += c * pow(2, t - s)\n"
        "v = v * 4 ** k\n"
    )
    clean = ast.parse("v += c << t - s\nv, s = (v << s - t) + c, t\nw = 3 ** k * d**e\n")
    assert powers_of_two_written(planted) == [1, 2, 3, 4]
    assert powers_of_two_written(clean) == []


def test_evaluate_in_1200_variables_matches_monomial_sum():
    # one pass per variable level, no recursion: depth does not grow with N
    n = 1200
    rng = random.Random(15)
    terms = {(0,) * n: Fraction(-7, 3), (1,) * n: Fraction(1)}
    for _ in range(40):
        mono = [0] * n
        for i in rng.sample(range(n), 6):
            mono[i] = rng.randint(1, 4)
        terms[tuple(mono)] = Fraction(rng.randint(-50, 50) or 1, rng.choice([1, 2, 6, 8]))
    poly = Polynomial(n, terms)
    point = [Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3, 4, 5])) for _ in range(n)]
    assert_reduced_value(poly.evaluate(point), monomial_sum(poly, point))


# -- the balanced fold of a group ---------------------------------------------


def join_depth(ops) -> int:
    """The depth of the tree a post-order fold program builds."""
    stack = []
    for op in ops:
        stack.append(0 if op >= 0 else 1 + max(stack.pop(), stack.pop()))
    (depth,) = stack
    return depth


def test_fold_program_shapes():
    # clock-free: a group of one or two entries is one Horner step, and the
    # ten entries of E1^3's x1 level fold at depth 4, not the chain's 9
    assert qpoly._horner_plan(P("x1^3 + x2", 2).terms)[2] == [
        (1, [([1], 0), ([0], 1)], {1}, {1}),
        (0, [([0, 3, -3], 0)], {3}, {3}),
    ]
    f3 = iterate_symbolic(triangular_map(["x1^3+x2", "x2^2+1"]), 3)
    _, degs, levels = qpoly._horner_plan(f3.components[0].terms)
    i, groups, n_exps, _ = levels[-1]
    assert (i, degs[0], len(groups)) == (0, 27, 1)
    ((ops, low),) = groups
    assert [op for op in ops if op >= 0] == list(range(0, 28, 3))
    assert (join_depth(ops), low) == (4, 0)
    # gaps 3, 6, 12: one pow each
    assert n_exps == {3, 6, 12}


FOLD_COORDS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(-3, 2), Fraction(5, 2**30)]),
    st.builds(
        Fraction,
        st.integers(-(2**24), 2**24),
        # odd, power-of-two and mixed denominators
        st.sampled_from([1, 3, 9, 2**61 - 1, 2, 16, 2**20, 6, 40, 3 * 2**9, 7 * 5**2]),
    ),
)
# odd, even and 2^j +- 1 entries, and any count in between
GROUP_SIZES = st.sampled_from([3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 32, 33, 40]) | st.integers(3, 40)


@st.composite
def long_groups(draw):
    """A polynomial in x1, x2 whose x1 level is one group of k entries at
    irregular exponent gaps, each x1^e carrying one to three x2 exponents."""
    k = draw(GROUP_SIZES)
    gaps = draw(st.lists(st.integers(1, 9), min_size=k - 1, max_size=k - 1))
    exps = [draw(st.integers(0, 3))]
    for gap in gaps:
        exps.append(exps[-1] + gap)
    terms = {}
    for e in exps:
        for f in draw(st.sets(st.integers(0, 6), min_size=1, max_size=3)):
            terms[e, f] = draw(COEFFS)
    return k, Polynomial(2, terms)


@settings(max_examples=60, deadline=None)
@given(case=long_groups(), point=st.tuples(FOLD_COORDS, FOLD_COORDS))
def test_balanced_fold_of_long_groups_matches_monomial_sum_and_sympy(case, point):
    k, poly = case
    got = poly.evaluate(point)
    _, _, levels = poly._plan
    ((ops, _),) = levels[-1][1]
    assert sum(op >= 0 for op in ops) == k
    assert join_depth(ops) == (k - 1).bit_length()
    assert_reduced_value(got, monomial_sum(poly, point))
    assert got == sympy_evaluate(poly, point)


# -- the evaluation plan, built once and reused ------------------------------

PLAN_COORDS = st.one_of(
    st.sampled_from([Fraction(0), Fraction(-1), Fraction(1, 2**40), Fraction(-7, 3**9)]),
    st.builds(
        Fraction,
        st.integers(-(2**70), 2**70),
        # odd, power-of-two and mixed denominators
        st.sampled_from([1, 3, 5, 9, 2**61 - 1, 2, 8, 1024, 6, 12, 40, 3 * 2**20, 7 * 5**4]),
    ),
)

PLAN_POLYNOMIALS = [
    ("0", 3),
    ("-7/3", 2),
    ("5", 1),
    ("x1^3 + x2", 2),
    ("x1^3 + 1/3*x2", 2),
    ("1/6*x1^5*x2^2 - 3/4*x1^5 + 2/5*x2^7*x3 + x3^4 - 1/9", 3),
    ("x1^9*x2^40*x3 + x1^9*x3^37 + x2*x3^40 - 3/2*x1 + 2/3", 3),
    ("x2^5*x4^3 + 5/8*x3^2 - x1^6*x4 + 1/35", 4),
]


@pytest.mark.parametrize("text, dim", PLAN_POLYNOMIALS)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_one_plan_at_many_points_matches_monomial_sum_and_sympy(text, dim, data):
    poly = P(text, dim)
    point = st.lists(PLAN_COORDS, min_size=dim, max_size=dim)
    points = data.draw(st.lists(point, min_size=6, max_size=10))
    plan = None
    for point in points:
        got = poly.evaluate(point)
        plan = plan or poly._plan
        assert poly._plan is plan  # built on the first call that needs it, then reused
        assert_reduced_value(got, monomial_sum(poly, point))
        assert got == sympy_evaluate(poly, point)


@pytest.mark.parametrize("text, dim", PLAN_POLYNOMIALS)
def test_an_evaluated_polynomial_stays_equal_to_a_fresh_one(text, dim):
    evaluated, fresh = P(text, dim), P(text, dim)
    before = hash(evaluated)
    evaluated.evaluate([Fraction(3, 2)] * dim)
    assert evaluated == fresh and fresh == evaluated
    assert hash(evaluated) == hash(fresh) == before
    assert evaluated.to_text() == fresh.to_text() and repr(evaluated) == repr(fresh)
    assert len({evaluated, fresh}) == 1


def test_an_orbit_builds_each_components_plan_once(monkeypatch):
    built = []
    plan = qpoly._horner_plan

    def counting(terms):
        built.append(terms)
        return plan(terms)

    monkeypatch.setattr(qpoly, "_horner_plan", counting)
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    points = orbit(f, (Fraction(15, 256), Fraction(9, 2)), 9)
    assert len(points) == 10
    assert len(built) == 2
    assert all(any(terms is c.terms for terms in built) for c in f.components)


def test_qpoly_imports_no_functools():
    # the plan is a slot of the polynomial, not a per-call functools.cache
    tree = ast.parse(inspect.getsource(qpoly))
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert "functools" not in modules
