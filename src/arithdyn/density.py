"""Zariski-density proxy via exact rank of monomial evaluation matrices.

"No nonzero polynomial of total degree <= d vanishes on all sampled points"
is the strongest finitely checkable consequence of density.  It holds iff
the (points x monomials) evaluation matrix has full column rank M, where M
counts the monomials of total degree <= d.

The rows are built in integers, one point at a time: a point's row is its
monomial values times L^d, for L the lcm of its coordinates' denominators,
which is primitive.  A row is kept if it is independent modulo the Mersenne
prime p = 2^61 - 1 of the rows kept before it; no row is built after the
M-th.  Kept rows are independent over Q (a minor that is nonzero mod p is a
nonzero integer), so M of them prove full rank.  Below M, one fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968);
Nakos-Turner-Williams, SIGSAM Bull. 31 (1997)) runs on the kept rows, and
an exact test proves every other row is in their span: then all rows have
the same row space, hence the same reduced row echelon form, rank and
kernel witness.  A row fails the test only if p divides every maximal minor
of it and the kept rows; the elimination then runs on all rows.
Pivots are chosen to limit bit-length growth (smallest nonzero magnitude,
lowest row index on ties), so every run is deterministic; the reduced row
echelon form, and hence the witness, does not depend on that choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Iterable, Iterator, Sequence

from .maps import DEFAULT_CAPS, ResourceCaps, as_point, csv_text
from .qpoly import DimensionMismatchError, Monomial


# The rank certificate's prime, the Mersenne prime 2^61 - 1: residues fit in
# 61 bits, and a prime this large rarely divides a minor of the rows, which
# is when the rank modulo p falls short of the rank over Q and the exact
# elimination runs on all rows.
MODULUS = 2**61 - 1


class DuplicatePointsError(ValueError):
    pass


def monomials_up_to_degree(dimension: int, degree: int) -> list:
    """All exponent tuples with total degree <= degree, in a fixed order
    (ascending total degree, then ascending lexicographic)."""
    if dimension < 1 or degree < 0:
        raise ValueError("need dimension >= 1 and degree >= 0")
    out = []
    for total in range(degree + 1):
        level = set()
        for combo in combinations_with_replacement(range(dimension), total):
            exps = [0] * dimension
            for idx in combo:
                exps[idx] += 1
            level.add(tuple(exps))
        out.extend(sorted(level))
    return out


def _integer_rows(matrix: Sequence[Sequence[Fraction]]) -> list:
    """Each row scaled by the lcm of its entries' denominators."""
    rows = []
    for row in matrix:
        lcm = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
    return rows


def _monomial_rows(points: Iterable, monomials: Sequence[Monomial], degree: int) -> Iterator:
    """The evaluation rows of ``monomials`` (every monomial of total degree
    <= ``degree`` >= 1) at ``points``, each scaled to a primitive integer
    vector without a gcd, built one point at a time as they are read.

    For a point with L the lcm of its denominators and a_i = x_i * L, the
    entry of monomial m is prod a_i^(m_i) * L^(degree - |m|): L^degree times
    the monomial's value.  The row is primitive.  The monomial 1 gives
    L^degree, so only a prime p of L could divide every entry; p divides the
    denominator of some x_j to the full power v_p(L), so p does not divide
    the numerator of x_j, nor a_j, nor the entry a_j^degree of x_j^degree.

    So the rows equal ``_integer_rows`` of the rational rows, which scales a
    row by the lcm l of its entries' denominators: that row is primitive too
    (its entry for the monomial 1 is l, and a prime p of l divides the
    denominator of some entry to the full power v_p(l), hence not that
    entry times l), and two primitive integer vectors that are positive
    multiples of the same rational row, with a positive entry for the
    monomial 1, are equal.
    """
    for point in points:
        lcm = math.lcm(*(x.denominator for x in point))
        powers = [
            [(x.numerator * (lcm // x.denominator)) ** k for k in range(degree + 1)] for x in point
        ]
        lcm_powers = [lcm**k for k in range(degree + 1)]
        yield [
            math.prod(p[e] for p, e in zip(powers, mono)) * lcm_powers[degree - sum(mono)]
            for mono in monomials
        ]


def _rank_mod_p(rows: Iterable, n_cols: int) -> tuple:
    """(kept, read): the integer rows read one at a time into an echelon
    basis modulo MODULUS until ``n_cols`` are independent, and the indices of
    those independent of the rows before them; len(kept) is the rank of
    ``read`` modulo p.  A basis row is stored after its leading 1; a row
    being reduced is taken mod p once, then only where read as a factor."""
    p = MODULUS
    basis = [None] * n_cols  # basis[c]: the tail after column c of a row led by 1 at c
    kept, read = [], []
    for row in rows:
        read.append(row)
        r = [a % p for a in row]
        for c in range(n_cols):
            x = r[c] % p
            if x:
                if basis[c] is None:
                    break
                r[c + 1 :] = [a - x * b for a, b in zip(r[c + 1 :], basis[c])]
        else:
            continue  # zero modulo p: in the span of the kept rows
        inverse = pow(x, -1, p)
        basis[c] = [a * inverse % p for a in r[c + 1 :]]
        kept.append(len(read) - 1)
        if len(kept) == n_cols:
            break
    return kept, read


def rational_rref(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """(rank, rows, pivots) of a rational matrix by fraction-free Gauss-Jordan.

    Each row is first cleared of denominators (scaled by the lcm of its
    entries' denominators), which leaves the reduced row echelon form
    unchanged.  Every step then eliminates above and below the pivot with
    Bareiss's exact division by the previous pivot, so all entries stay
    integers (minors of the scaled input).  Row i of the reduced row echelon
    form is ``rows[i] / rows[i][pivots[i]]``; rows from ``rank`` on are zero.
    """
    rows = _integer_rows(matrix)
    if not rows:
        return 0, [], []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    prev_pivot = 1
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        # Smallest nonzero magnitude, lowest row index on ties.
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col] != 0 and (
                pivot_row is None or abs(rows[r][col]) < abs(rows[pivot_row][col])
            ):
                pivot_row = r
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        pivot = top[col]
        for r in range(n_rows):
            if r != rank:
                factor = rows[r][col]
                rows[r] = [(pivot * a - factor * b) // prev_pivot for a, b in zip(rows[r], top)]
        pivots.append(col)
        prev_pivot = pivot
    return len(pivots), rows, pivots


def bareiss_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer (or rational) matrix."""
    return rational_rref(matrix)[0]


def _kernel_from_rref(n_cols: int, rows: list, pivots: list) -> list:
    """The kernel vector that is 1 at the first free column and 0 at the
    other free columns, read from a rank-deficient rational_rref result."""
    free_col = next(c for c in range(n_cols) if c not in pivots)
    vec = [Fraction(0)] * n_cols
    vec[free_col] = Fraction(1)
    for row, pivot_col in zip(rows, pivots):
        vec[pivot_col] = Fraction(-row[free_col], row[pivot_col])
    return vec


def _in_row_space(n_cols: int, rref: list, pivots: list, rows: list) -> bool:
    """Whether each row x of ``rows`` is in the row space of a rational_rref
    result (rows R_i, pivots piv_i).  The reduced rows are 1 at their own
    pivot and 0 at the others, so x can only be sum_i x[piv_i] R_i/R_i[piv_i],
    which agrees with x at the pivots; with L = lcm R_i[piv_i], the free
    columns f must satisfy L x[f] == sum_i x[piv_i] (L / R_i[piv_i]) R_i[f]."""
    lcm = math.lcm(*(row[c] for row, c in zip(rref, pivots)))
    free = [f for f in range(n_cols) if f not in pivots]
    scaled = [[lcm // row[c] * row[f] for f in free] for row, c in zip(rref, pivots)]
    return all(
        lcm * x[f] == sum(x[c] * s[j] for c, s in zip(pivots, scaled))
        for x in rows
        for j, f in enumerate(free)
    )


@dataclass
class DensityReport:
    degree_bound: int
    monomial_count: int
    point_count: int
    rank: int
    verdict: str  # "no_common_hypersurface" | "vanishing_polynomial" | "inconclusive"
    kernel: list | None  # monomial-ordered coefficients of a vanishing polynomial
    monomials: list

    @property
    def dense(self) -> bool:
        return self.verdict == "no_common_hypersurface"


def density_check(
    points: Sequence, degree_bound: int, caps: ResourceCaps = DEFAULT_CAPS
) -> DensityReport:
    """Exact rank of the evaluation matrix of all monomials of degree <= d.

    Full column rank certifies that no nonzero polynomial of total degree
    <= d vanishes on every point; otherwise a kernel witness (the
    coefficient vector of such a polynomial) is returned.  With fewer
    points than monomials the verdict is flagged inconclusive.  Points of
    unequal length raise DimensionMismatchError, and ``caps.check`` refuses
    more monomials than its ``max_terms`` before any is built.

    Integer rows are built one point at a time, and none after m are
    independent modulo ``MODULUS``; below m, ``rational_rref`` runs on the
    independent rows, and on all rows only if another row is outside their
    span.  The module docstring has the proofs.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(set(pts)) != len(pts):
        raise DuplicatePointsError("input points must be distinct")
    dimension = len(pts[0])
    if any(len(p) != dimension for p in pts):
        raise DimensionMismatchError("input points differ in their number of coordinates")
    m = math.comb(dimension + degree_bound, degree_bound)
    caps.check("density:monomials", terms=m)  # a vanishing polynomial has m coefficients
    monos = monomials_up_to_degree(dimension, degree_bound)

    kept, rows = _rank_mod_p(_monomial_rows(pts, monos, degree_bound), m)
    rank, kernel = len(kept), None
    if rank < m:
        rank, rref, pivots = rational_rref([rows[i] for i in kept])
        others = [row for i, row in enumerate(rows) if i not in kept]
        if not _in_row_space(m, rref, pivots, others):
            rank, rref, pivots = rational_rref(rows)
        kernel = _kernel_from_rref(m, rref, pivots) if rank < m else None
    if rank == m:
        verdict = "no_common_hypersurface"
    else:
        verdict = "inconclusive" if len(pts) < m else "vanishing_polynomial"
    return DensityReport(
        degree_bound=degree_bound,
        monomial_count=m,
        point_count=len(pts),
        rank=rank,
        verdict=verdict,
        kernel=kernel,
        monomials=monos,
    )


def density_report_csv(report: DensityReport) -> str:
    r = report
    text = csv_text(
        ["degree_bound", "monomial_count", "point_count", "rank", "verdict"],
        [[r.degree_bound, r.monomial_count, r.point_count, r.rank, r.verdict]],
    )
    if r.kernel is not None:
        exps = (":".join(map(str, mono)) for mono in r.monomials)
        text += csv_text(["kernel_monomial", "kernel_coefficient"], zip(exps, r.kernel))
    return text
