"""The Toom-6 multiply behind ``Polynomial.evaluate``, against ``*``, ``**`` and Fractions.

``qpoly._big_mul`` must return exactly ``a * b``: at the cut-off and one bit
either side, with both signs, 0 and +-1, for one object squared, for
lopsided operands up to 8:1, and for operands whose six pieces are all zero
but the ends (2^m +- 1) or whose top piece is short.  ``qpoly._big_pow``
must return exactly ``x ** e``.  The random cases also run with the cut-off
patched down to a few hundred bits, so that every product recurses through
several Toom levels.  ``evaluate`` is checked at points whose numerators and
denominators (odd ones too, so the gcd reduction runs) are above the real
cut-off, against a sum of ``evaluate_monomial`` terms (``tests/oracle.py``).

The guards pin the algorithm without a clock: W V = D I for the evaluation
points, the pieces' values at those points, and the eleven sixth-length
products a top-level product makes.
"""

import math
import random
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn import qpoly
from arithdyn.maps import triangular_map
from arithdyn.qpoly import _big_mul, _big_pow, parse_polynomial
from oracle import evaluate_monomial

CUT = qpoly._TOOM_BITS


@contextmanager
def cutoff(bits):
    saved = qpoly._TOOM_BITS
    qpoly._TOOM_BITS = bits
    try:
        yield
    finally:
        qpoly._TOOM_BITS = saved


@contextmanager
def recorded_products():
    """Yields the (a, b) of every ``_big_mul`` call made inside the block."""
    calls = []
    run = qpoly._big_mul

    def recorder(a, b):
        calls.append((a, b))
        return run(a, b)

    qpoly._big_mul = recorder
    try:
        yield calls
    finally:
        qpoly._big_mul = run


def operand(bits, seed, shape):
    """A ``bits``-bit int of the given shape, or 0 for ``bits`` 0."""
    if bits == 0:
        return 0
    if shape == "ones_plus":  # 2^m + 1: every middle piece is zero
        return (1 << bits - 1) + 1
    if shape == "power_minus":  # 2^m - 1: every piece is all ones
        return (1 << bits) - 1
    return random.Random(seed).getrandbits(bits) | 1 << bits - 1


SHAPES = st.sampled_from(["random", "random", "ones_plus", "power_minus"])
SIGNS = st.sampled_from([1, -1])


@pytest.mark.parametrize("bits", [CUT - 1, CUT, CUT + 1])
@pytest.mark.parametrize("shape", ["random", "ones_plus", "power_minus"])
def test_big_mul_at_the_cut_off(bits, shape):
    a = operand(bits, bits, shape)
    b = operand(bits, bits + 1, "random")
    for x, y in ((a, b), (-a, b), (a, -b), (-a, -b)):
        assert _big_mul(x, y) == x * y
    assert _big_mul(a, a) == a * a
    neg = -a
    assert _big_mul(neg, neg) == a * a


@pytest.mark.parametrize("small", [0, 1, -1])
def test_big_mul_small_operands(small):
    big = operand(3 * CUT, 7, "random")
    assert _big_mul(small, big) == small * big
    assert _big_mul(big, small) == small * big
    assert _big_mul(-big, small) == -small * big


@pytest.mark.parametrize("ratio", range(1, 9))
def test_big_mul_lopsided_at_real_cut_off(ratio):
    b = operand(CUT + 1, ratio, "random")
    a = operand(ratio * (CUT + 1) + 5, ratio + 100, "random")
    assert _big_mul(a, b) == a * b
    assert _big_mul(-b, a) == -a * b


@pytest.mark.parametrize("bits", [6 * CUT + 1, 6 * CUT + 6])
def test_big_mul_short_top_piece(bits):
    # 6q + 1 bits leave a top piece of q - 4 bits, 6q + 6 one of q + 1 bits
    a, b = operand(bits, 1, "random"), operand(bits, 2, "ones_plus")
    assert _big_mul(a, b) == a * b
    assert _big_mul(a, a) == a * a


@settings(max_examples=150, deadline=None)
@given(
    cut=st.sampled_from([60, 300, 2000]),
    small_bits=st.integers(0, 4000),
    ratio=st.integers(1, 8),
    extra=st.integers(-40, 40),
    shapes=st.tuples(SHAPES, SHAPES),
    signs=st.tuples(SIGNS, SIGNS),
    seed=st.integers(0, 2**32),
    same=st.booleans(),
)
def test_big_mul_matches_star(cut, small_bits, ratio, extra, shapes, signs, seed, same):
    large_bits = max(0, ratio * small_bits + extra)
    a = signs[0] * operand(large_bits, seed, shapes[0])
    b = signs[1] * operand(small_bits, seed + 1, shapes[1])
    with cutoff(cut):
        assert _big_mul(a, b) == a * b
        assert _big_mul(b, a) == a * b
        if same:
            assert _big_mul(a, a) == a * a


@settings(max_examples=60, deadline=None)
@given(
    cut=st.sampled_from([60, 300, CUT]),
    bits=st.integers(0, 3000),
    e=st.sampled_from([1, 2, 3, 27]),
    shape=SHAPES,
    sign=SIGNS,
    seed=st.integers(0, 2**32),
)
def test_big_pow_matches_power(cut, bits, e, shape, sign, seed):
    x = sign * operand(bits, seed, shape)
    with cutoff(cut):
        assert _big_pow(x, e) == x**e


@pytest.mark.parametrize("e", [1, 2, 3, 27])
def test_big_pow_above_real_cut_off(e):
    x = -operand(CUT + 1 if e < 27 else 4000, e, "random")
    assert _big_pow(x, e) == x**e


# -- the interpolation and its sizes ------------------------------------------


def test_interpolation_matrix_inverts_the_evaluation_matrix():
    points = qpoly._TOOM_POINTS
    n = len(points)
    assert n == 11 and len(set(points)) == n
    v = [[(j == n - 1) if t is None else t**j for j in range(n)] for t in points]
    w, d = qpoly._TOOM_W, qpoly._TOOM_D
    assert d > 0 and all(isinstance(x, int) for row in w for x in row)
    product = [[sum(w[i][k] * v[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert product == [[d * (i == j) for j in range(n)] for i in range(n)]
    # the least such D: no common factor is left in W and D
    assert math.gcd(d, *(x for row in w for x in row)) == 1


@settings(max_examples=50, deadline=None)
@given(x=st.integers(0, 2**600), s=st.integers(1, 110))
def test_toom_values_are_the_pieces_at_the_points(x, s):
    x &= (1 << 6 * s) - 1
    pieces = [(x >> i * s) & ((1 << s) - 1) for i in range(6)]
    want = [pieces[5] if t is None else sum(p * t**i for i, p in enumerate(pieces)) for t in qpoly._TOOM_POINTS]
    assert qpoly._toom_values(x, s) == want


@pytest.mark.parametrize("shape", ["random", "power_minus", "ones_plus"])
def test_top_level_product_makes_eleven_short_products(shape):
    n = 6 * 6000  # pieces of 6000 bits, below the cut-off: one level
    a, b = operand(n, 3, shape), operand(n, 4, "power_minus")
    s = -(-n // 6)
    with cutoff(n), recorded_products() as calls:
        assert qpoly._big_mul(a, b) == a * b
    # the first call is the top-level one; each of |p(t)| < 2^s * 3906 < 2^(s + 12)
    assert len(calls) == 1 + 11
    assert max(max(abs(x).bit_length(), abs(y).bit_length()) for x, y in calls[1:]) <= s + 12
    if shape == "power_minus":  # every piece 2^s - 1: the bound is met at t = 5
        assert max(abs(x).bit_length() for x, _ in calls[1:]) == s + 12
    with cutoff(n), recorded_products() as calls:
        assert qpoly._big_mul(a, a) == a * a
    assert len(calls) == 12 and all(x is y for x, y in calls[1:])


def test_lopsided_product_is_cut_into_balanced_chunks():
    b = operand(CUT, 1, "random")
    a = operand(8 * CUT, 2, "random")
    with recorded_products() as calls:
        assert qpoly._big_mul(a, b) == a * b
    chunks = [(x, y) for x, y in calls[1:] if y is b]
    assert len(chunks) == 8
    assert all(x.bit_length() <= CUT for x, _ in chunks)


@pytest.mark.parametrize("x", [(1 << CUT + 999) + 12345, (1 << CUT + 1000) - 1], ids=["square_2n-1", "square_2n"])
def test_cube_is_a_square_and_two_balanced_products(x):
    n = x.bit_length()
    with recorded_products() as calls:
        assert _big_pow(x, 3) == x**3
    # the square first, then n^2 times n, cut into two chunks of at most n bits
    with_x = [(a, b) for a, b in calls if b is x]
    assert with_x[0][0] is x
    assert with_x[1][0] == x * x and with_x[1][0].bit_length() in (2 * n - 1, 2 * n)
    chunks = [a for a, _ in with_x[2:]]
    assert len(chunks) == 2 and all(c.bit_length() <= n for c in chunks)


# -- evaluate at large points -------------------------------------------------


def monomial_sum(poly, point):
    return sum(c * evaluate_monomial(mono, point) for mono, c in zip(poly.terms, poly.coefficients()))


BIG_POINTS = [
    (-(3**40000 + 1), 2**60000 + 0, 5**30000 + 2, 2**70000),
    (7**20000 + 2, 3 * 11**16000, -(2**70001 - 1), 13**15000),
    (-(5**25000) * 2**10, 7**25000, 1, 3**35000),
]


@pytest.mark.parametrize("coords", BIG_POINTS, ids=["neg_x1", "neg_x2_odd_dens", "odd_dens"])
@pytest.mark.parametrize(
    "text", ["x1^3 + x2", "3/7*x1^2*x2 - 5/3*x1*x2^2 + x2^3 - 1", "x1^2*x2^2 + 2*x1 + x2^2"]
)
def test_evaluate_on_the_toom_path_matches_monomial_sum(coords, text):
    point = (Fraction(coords[0], coords[1]), Fraction(coords[2], coords[3]))
    poly = parse_polynomial(text, 2)
    toom = []
    run = qpoly._toom_values

    def recorder(x, s):
        toom.append(s)
        return run(x, s)

    qpoly._toom_values = recorder
    try:
        value = poly.evaluate(point)
    finally:
        qpoly._toom_values = run
    assert toom, "no product took the Toom path"
    assert value == monomial_sum(poly, point)
    assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0


def test_evaluate_sends_its_products_and_powers_through_big_mul():
    n1 = operand(CUT + 5, 9, "random")
    point = (Fraction(n1, 3**20), Fraction(-5, 7))
    poly = parse_polynomial("x1^3 + x2", 2)
    with recorded_products() as calls:
        value = poly.evaluate(point)
    assert value == monomial_sum(poly, point)
    operands = {x for call in calls for x in call}
    # the power n1^3 is built by square-and-multiply and then multiplies the
    # Horner value; the odd denominator's cube multiplies a coefficient
    assert n1 in operands and n1 * n1 in operands and n1**3 in operands
    assert 3**60 in operands


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
def test_evaluate_with_small_cut_off_matches_monomial_sum(nums, dens, text):
    point = tuple(Fraction(n, d) for n, d in zip(nums, dens))
    poly = parse_polynomial(text, 2)
    with cutoff(64):
        value = poly.evaluate(point)
    assert value == monomial_sum(poly, point)
    assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0


def is_power_of_two(x):
    return x > 1 and x & (x - 1) == 0


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
def test_evaluate_never_multiplies_by_a_power_of_two(components, start, steps):
    # every denominator on these orbits is a power of two: it may only move
    # the pairs' exponents, never enter a product
    f = triangular_map(components)
    point = tuple(Fraction(c) for c in start)
    for _ in range(steps):
        with recorded_products() as calls:
            image = f.apply(point)
        assert not [x for call in calls for x in call if is_power_of_two(abs(x))]
        assert image == tuple(monomial_sum(p, point) for p in f.components)
        point = image
    assert max(c.denominator.bit_length() for c in point) > 500


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
    poly = qpoly.Polynomial(n, terms)
    point = [Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 3, 4, 5])) for _ in range(n)]
    value = poly.evaluate(point)
    assert value == monomial_sum(poly, point)
    assert math.gcd(value.numerator, value.denominator) == 1 and value.denominator > 0
