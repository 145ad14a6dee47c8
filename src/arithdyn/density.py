"""Zariski-density proxy via exact rank of monomial evaluation matrices.

"No nonzero polynomial of total degree <= d vanishes on all sampled points"
is the strongest finitely checkable consequence of density.  It holds iff
the (points x monomials) evaluation matrix has full column rank M, where M
counts the monomials of total degree <= d.

Rank is computed by fraction-free (Bareiss) elimination on denominator-
cleared integer rows, with pivots chosen to avoid bit-length growth
(smallest nonzero magnitude, lowest row index on ties) so the result is
deterministic.  A kernel witness, when one exists, comes from an exact
reduced row echelon form over the rationals; the two routes cross-check
each other's rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .maps import as_point
from .qpoly import Monomial


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


def evaluate_monomial(mono: Monomial, point) -> Fraction:
    value = Fraction(1)
    for coord, e in zip(point, mono):
        if e:
            value *= coord**e
    return value


def bareiss_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer matrix by fraction-free elimination."""
    rows = [list(row) for row in matrix]
    if not rows:
        return 0
    n_rows, n_cols = len(rows), len(rows[0])
    rank = 0
    prev_pivot = 1
    col = 0
    while rank < n_rows and col < n_cols:
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col] != 0 and (
                pivot_row is None or abs(rows[r][col]) < abs(rows[pivot_row][col])
            ):
                pivot_row = r
        if pivot_row is None:
            col += 1
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pivot = rows[rank][col]
        for r in range(rank + 1, n_rows):
            factor = rows[r][col]
            for c in range(col, n_cols):
                # Bareiss step: exact integer division by the previous pivot.
                rows[r][c] = (pivot * rows[r][c] - factor * rows[rank][c]) // prev_pivot
        prev_pivot = pivot
        rank += 1
        col += 1
    return rank


def rational_rref(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """(rank, rref rows, pivot column indices) over exact rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    if not rows:
        return 0, [], []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col] != 0 and (
                pivot_row is None
                or abs(rows[r][col].numerator * rows[r][col].denominator)
                < abs(rows[pivot_row][col].numerator * rows[pivot_row][col].denominator)
            ):
                pivot_row = r
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [x * inv for x in rows[rank]]
        for r in range(n_rows):
            if r != rank and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == n_rows:
            break
    return rank, rows, pivots


def kernel_vector(matrix: Sequence[Sequence[Fraction]]) -> list | None:
    """One exact nonzero kernel vector of the column space, or None."""
    if not matrix:
        return None
    return _kernel_from_rref(len(matrix[0]), *rational_rref(matrix))


def _kernel_from_rref(n_cols: int, rank: int, rref: list, pivots: list) -> list | None:
    """Kernel vector of a matrix from its rational_rref result, or None."""
    if rank == n_cols:
        return None
    free_col = next(c for c in range(n_cols) if c not in pivots)
    vec = [Fraction(0)] * n_cols
    vec[free_col] = Fraction(1)
    for row_idx, pivot_col in enumerate(pivots):
        vec[pivot_col] = -rref[row_idx][free_col]
    return vec


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


def density_check(points: Sequence, degree_bound: int) -> DensityReport:
    """Exact rank of the evaluation matrix of all monomials of degree <= d.

    Full column rank certifies that no nonzero polynomial of total degree
    <= d vanishes on every point; otherwise a kernel witness (the
    coefficient vector of such a polynomial) is returned.  With fewer
    points than monomials the verdict is flagged inconclusive.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    if len(set(pts)) != len(pts):
        raise DuplicatePointsError("input points must be distinct")
    dimension = len(pts[0])
    monos = monomials_up_to_degree(dimension, degree_bound)
    m = len(monos)

    rows = [[evaluate_monomial(mono, p) for mono in monos] for p in pts]

    # Clear denominators per row: row scaling does not change the rank.
    int_rows = []
    for row in rows:
        lcm = math.lcm(*(x.denominator for x in row))
        int_rows.append([int(x * lcm) for x in row])
    rank = bareiss_rank(int_rows)

    kernel = None
    if rank == m:
        verdict = "no_common_hypersurface"
    else:
        rref_rank, rref, pivots = rational_rref(rows)
        assert rref_rank == rank, "elimination routes disagree on rank"
        kernel = _kernel_from_rref(m, rref_rank, rref, pivots)
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
    lines = [
        "degree_bound,monomial_count,point_count,rank,verdict",
        f"{report.degree_bound},{report.monomial_count},{report.point_count},"
        f"{report.rank},{report.verdict}",
    ]
    if report.kernel is not None:
        lines.append("kernel_monomial,kernel_coefficient")
        for mono, coeff in zip(report.monomials, report.kernel):
            exps = ":".join(str(e) for e in mono)
            lines.append(f"{exps},{coeff}")
    return "\n".join(lines) + "\n"
