"""Differential oracle: the density proxy, its elimination and ``vp`` against sympy.

``rational_rref`` is the one exact elimination behind the density proxy, so
its rank, pivot columns and reduced row echelon form are compared with
``sympy.Matrix.rref`` and ``rank`` on random small rational matrices: wide,
tall and square, with zero rows and zero columns, and rank-deficient by
construction (rows drawn from the span of a smaller basis).  Below full
column rank, the kernel witness must be a nonzero multiple of a
``nullspace()`` vector and 1 at the first free column.  ``density_check``
is compared with the rank and ``nullspace()`` of its evaluation matrix on
random point sets, with coordinates that are multiples of the certificate's
prime so that the rank modulo that prime can fall short, and with a line
whose kernel witness does not lift from its residues.  The rank modulo that
prime, ``_rank_mod_p``, is compared on random integer matrices with entries
and row offsets that are multiples of the prime: it keeps exactly the rows
that raise the rank over GF(p) of the rows before them, its rank is at most
the rank over Q, its kept rows have rank over Q equal to their count, and
its kernel vectors are orthogonal to every row modulo the prime.  The same
checks over GF(p) run on wide matrices, up to 40 columns of entries up to
2^256 in size, whose rows switch ``_rank_mod_p`` to its kernel phase and
then update the kernel.  ``vp`` is compared with ``sympy.multiplicity`` on
numerators and denominators.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithdyn.density import (
    MODULUS,
    _kernel_from_rref,
    _rank_mod_p,
    bareiss_rank,
    density_check,
    monomials_up_to_degree,
    rational_rref,
)
from arithdyn.padic import vp
from oracle import evaluate_monomial

sympy = pytest.importorskip("sympy")

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9])),
)


@st.composite
def rational_matrices(draw):
    n_rows = draw(st.integers(1, 7))
    n_cols = draw(st.integers(1, 7))
    basis_size = draw(st.integers(0, n_rows))
    basis = [draw(st.lists(ENTRIES, min_size=n_cols, max_size=n_cols)) for _ in range(basis_size)]
    rows = []
    for _ in range(n_rows):
        coeffs = draw(st.lists(ENTRIES, min_size=basis_size, max_size=basis_size))
        rows.append(
            [sum((c * b[j] for c, b in zip(coeffs, basis)), Fraction(0)) for j in range(n_cols)]
        )
    for j in draw(st.sets(st.integers(0, n_cols - 1), max_size=2)):
        for row in rows:
            row[j] = Fraction(0)
    return rows


# Integer matrices of three columns and up to four rows.
INTEGER_MATRICES = st.lists(
    st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=1, max_size=4
)

MATRICES = st.one_of(rational_matrices(), INTEGER_MATRICES)


def to_sympy(matrix):
    return sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in matrix])


@settings(max_examples=150, deadline=None)
@given(MATRICES)
@example([[Fraction(1), Fraction(2)], [Fraction(1, 3), Fraction(2, 3)]])
@example([[1, 2, 3], [4, 5, 6], [5, 7, 9]])
@example([[0, 0, 0]])
def test_rref_matches_sympy(matrix):
    rank, rows, pivots = rational_rref(matrix)
    want_rref, want_pivots = to_sympy(matrix).rref()
    assert rank == to_sympy(matrix).rank() == len(want_pivots)
    assert bareiss_rank(matrix) == rank
    assert tuple(pivots) == want_pivots
    assert all(type(x) is int for row in rows for x in row)
    for i, row in enumerate(rows):
        if i < rank:
            reduced = [sympy.Rational(x, row[pivots[i]]) for x in row]
        else:
            assert not any(row)
            reduced = [0] * len(row)
        assert reduced == list(want_rref.row(i))


@settings(max_examples=150, deadline=None)
@given(MATRICES)
@example([[Fraction(1), Fraction(2)], [Fraction(1, 3), Fraction(2, 3)]])
def test_kernel_matches_sympy_nullspace(matrix):
    n_cols = len(matrix[0])
    rank, rows, pivots = rational_rref(matrix)
    if rank == n_cols:
        assert to_sympy(matrix).nullspace() == []
        return
    kernel = _kernel_from_rref(n_cols, rows, pivots)
    first_free = min(set(range(n_cols)) - set(pivots))
    assert kernel[first_free] == 1
    k = sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in kernel])
    assert to_sympy(matrix) * k == sympy.zeros(len(matrix), 1)
    assert any(
        v[first_free] != 0 and k == v / v[first_free] for v in to_sympy(matrix).nullspace()
    )


# Multiples of the prime collide modulo it, so the certificate fails on
# some full-rank sets and the exact elimination must still find the rank.
COORDINATES = st.one_of(
    st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3])),
    st.builds(lambda k, d: Fraction(k * MODULUS, d), st.integers(-2, 2), st.sampled_from([1, 2])),
)


@st.composite
def point_sets(draw):
    dimension = draw(st.integers(1, 3))
    degree = draw(st.integers(1, 3))
    m = len(monomials_up_to_degree(dimension, degree))
    count = max(1, m + draw(st.integers(-3, 3)))
    # Points on the hyperplane x_N = a*x_1 + b fall short of full rank at
    # every degree, however many there are.
    line = draw(st.none() | st.tuples(COORDINATES, COORDINATES)) if dimension > 1 else None
    free = dimension - (line is not None)
    points = draw(
        st.lists(st.tuples(*[COORDINATES] * free), min_size=count, max_size=count, unique=True)
    )
    if line is not None:
        a, b = line
        points = [(*p, a * p[0] + b) for p in points]
    return points, degree


@settings(max_examples=80, deadline=None)
@given(point_sets())
@example(([(0, 0), (MODULUS, 0), (0, 1)], 1))
@example(([(Fraction(0),), (Fraction(MODULUS),), (Fraction(1),)], 2))
@example(([(0,), (MODULUS,)], 2))
# x2 = (2^40 + 1)/3 * x1 + 5: the witness's denominator 2^40 + 1 is past the
# reconstruction bound, so the exact elimination decides
@example(([(Fraction(x), Fraction(2**40 + 1, 3) * x + 5) for x in range(4)], 1))
def test_density_check_matches_sympy(case):
    points, degree = case
    report = density_check(points, degree)
    m = report.monomial_count
    matrix = to_sympy([[evaluate_monomial(mono, p) for mono in report.monomials] for p in points])
    # Matrix.rank() did not finish within 100 s on entries of ~190 bits;
    # the pivots of rref() and the nullspace give the rank exactly.
    nullspace = matrix.nullspace()
    assert report.rank == len(matrix.rref()[1]) == m - len(nullspace)
    if report.rank == m:
        assert (report.verdict, report.kernel) == ("no_common_hypersurface", None)
        return
    assert report.verdict == ("inconclusive" if len(points) < m else "vanishing_polynomial")
    k = sympy.Matrix([sympy.Rational(c.numerator, c.denominator) for c in report.kernel])
    assert k in nullspace


# Multiples of the prime vanish modulo it; rows drawn from the span of a
# smaller basis and then moved off it by a multiple of the prime can have a
# rank over Q above their rank modulo p.
INTEGER_ENTRIES = st.one_of(st.integers(-9, 9), st.integers(-2, 2).map(lambda k: k * MODULUS))


@st.composite
def integer_matrices(draw):
    n_rows = draw(st.integers(1, 8))
    n_cols = draw(st.integers(1, 6))
    basis_size = draw(st.integers(0, n_rows))
    vectors = st.lists(INTEGER_ENTRIES, min_size=n_cols, max_size=n_cols)
    basis = [draw(vectors) for _ in range(basis_size)]
    offsets = st.lists(st.integers(-1, 1), min_size=n_cols, max_size=n_cols)
    rows = []
    for _ in range(n_rows):
        coeffs = draw(st.lists(st.integers(-3, 3), min_size=basis_size, max_size=basis_size))
        offset = draw(offsets) if draw(st.booleans()) else [0] * n_cols
        rows.append(
            [
                sum(c * b[j] for c, b in zip(coeffs, basis)) + MODULUS * offset[j]
                for j in range(n_cols)
            ]
        )
    return rows


@st.composite
def wide_integer_matrices(draw):
    """Up to 40 columns of entries up to about 2^256 in size: random rows
    that span at least half the columns, then rows in their span, then
    random rows.  A row in the span arrives once the kernel is no larger
    than the basis, so the rank switches to its kernel phase, and each
    random row after it updates the kernel and packs its columns again."""
    n_cols = draw(st.integers(2, 40))
    bound = draw(st.sampled_from([9, MODULUS, 2**256]))
    rng = draw(st.randoms(use_true_random=False))

    def vector():
        return [rng.randint(-bound, bound) for _ in range(n_cols)]

    basis = [vector() for _ in range(draw(st.integers((n_cols + 1) // 2, n_cols - 1)))]
    spanned = []
    for _ in range(draw(st.integers(1, 3))):
        coeffs = [rng.randint(-3, 3) for _ in basis]
        spanned.append([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n_cols)])
    fresh = [vector() for _ in range(draw(st.integers(1, n_cols - len(basis) + 1)))]
    return basis + spanned + fresh


def greedy_mod_p(rows, n_cols):
    """The indices of the rows that raise the rank over GF(p) of the rows
    before them: the pivot columns of the transposed matrix over GF(p)."""
    columns = [[sympy.ZZ(x) for x in column] for column in zip(*rows)]
    matrix = sympy.polys.matrices.DomainMatrix(columns, (n_cols, len(rows)), sympy.ZZ)
    return list(matrix.convert_to(sympy.GF(MODULUS)).rref()[1])


# The 3x3 grid's rows at degree 2: the sixth point lies on the conic
# x1*(x1 - 1) through the first five, the seventh does not.
GRID_ROWS = [
    [int(evaluate_monomial(mono, point)) for mono in monomials_up_to_degree(2, 2)]
    for point in itertools.product(range(3), range(3))
]


def check_rank_mod_p(matrix) -> tuple:
    """``_rank_mod_p`` of ``matrix`` against GF(p) elimination: the rows it
    reads, keeps and the kernel it gives; returns (kept, read)."""
    n_cols = len(matrix[0])
    kept, read, kernel, _ = _rank_mod_p(iter(matrix), n_cols)
    # reading stops only at n_cols independent rows
    assert read == matrix[: len(read)]
    assert len(read) == len(matrix) or len(kept) == n_cols
    # the greedy set: row i is kept iff it raises the rank over GF(p)
    assert kept == greedy_mod_p(read, n_cols)
    # one kernel vector per free column, orthogonal to every row mod p
    if len(kept) == n_cols:
        assert kernel is None
        return kept, read
    assert len(kernel) == n_cols - len(kept)
    free = [len(k) - 1 for k in kernel]
    assert free == sorted(set(free)) and all(k[-1] == 1 for k in kernel)
    assert all(k[g] == 0 for k in kernel for g in free if g < len(k) - 1)
    assert all(sum(a * b for a, b in zip(row, k)) % MODULUS == 0 for row in read for k in kernel)
    return kept, read


@settings(max_examples=150, deadline=None)
@given(integer_matrices())
@example([[1, 0, 0], [1, MODULUS, MODULUS**2]])
@example([[MODULUS, 0], [0, 0]])
@example([[1, 0], [2, 0], [0, 1]])
@example(GRID_ROWS)
def test_rank_mod_p_matches_sympy(matrix):
    kept, read = check_rank_mod_p(matrix)
    assert sympy.Matrix([read[i] for i in kept]).rank() == len(kept)
    assert len(kept) <= sympy.Matrix(matrix).rank()


@settings(max_examples=50, deadline=None)
@given(wide_integer_matrices())
def test_rank_mod_p_matches_sympy_on_wide_rows(matrix):
    # the ranks over Q are left out: at 40 columns of 256-bit entries sympy
    # takes seconds for each; kept rows independent modulo p are
    # independent over Q
    check_rank_mod_p(matrix)


PRIMES = st.sampled_from([2, 3, 5, 7, 97])


@settings(max_examples=150, deadline=None)
@given(
    PRIMES,
    st.integers(1, 10**6),
    st.integers(0, 60),
    st.integers(1, 10**6),
    st.integers(0, 60),
    st.booleans(),
)
def test_vp_matches_sympy_multiplicity(p, num, num_exp, den, den_exp, negative):
    x = Fraction(num * p**num_exp * (-1) ** negative, den * p**den_exp)
    want = sympy.multiplicity(p, abs(x.numerator)) - sympy.multiplicity(p, x.denominator)
    assert vp(x, p) == want
    assert vp(x, p) == sympy.multiplicity(p, sympy.Rational(abs(x.numerator), x.denominator))
    assert vp(x.numerator, p) == sympy.multiplicity(p, abs(x.numerator))
    assert vp(Fraction(1, x.denominator), p) == -sympy.multiplicity(p, x.denominator)
