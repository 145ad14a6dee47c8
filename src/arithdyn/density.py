"""Zariski-density proxy via exact rank of monomial evaluation matrices.

"No nonzero polynomial of total degree <= d vanishes on all sampled points"
is the strongest finitely checkable consequence of density.  It holds iff
the (points x monomials) evaluation matrix has full column rank M, where M
counts the monomials of total degree <= d.

One fraction-free Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968);
Nakos-Turner-Williams, SIGSAM Bull. 31 (1997)) on denominator-cleared
integer rows gives both the exact rank and, when the rank falls short, a
kernel witness.  Pivots are chosen to limit bit-length growth (smallest
nonzero magnitude, lowest row index on ties), so every run is deterministic;
the reduced row echelon form, and hence the witness, does not depend on that
choice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Sequence

from .maps import DEFAULT_CAPS, as_point
from .qpoly import DimensionMismatchError, Monomial, ResourceLimitError


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


def rational_rref(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """(rank, rows, pivots) of a rational matrix by fraction-free Gauss-Jordan.

    Each row is first cleared of denominators (scaled by the lcm of its
    entries' denominators), which leaves the reduced row echelon form
    unchanged.  Every step then eliminates above and below the pivot with
    Bareiss's exact division by the previous pivot, so all entries stay
    integers (minors of the scaled input).  Row i of the reduced row echelon
    form is ``rows[i] / rows[i][pivots[i]]``; rows from ``rank`` on are zero.
    """
    rows = []
    for row in matrix:
        lcm = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
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
    points than monomials the verdict is flagged inconclusive.  Points of
    unequal length raise DimensionMismatchError, and more monomials than
    ``DEFAULT_CAPS.max_terms`` raise ResourceLimitError before any is built.
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
    if m > DEFAULT_CAPS.max_terms:  # a vanishing polynomial has m coefficients
        raise ResourceLimitError(
            f"{m} monomials of degree <= {degree_bound} exceed cap {DEFAULT_CAPS.max_terms}",
            stage="density:monomials",
        )
    monos = monomials_up_to_degree(dimension, degree_bound)

    rank, rref, pivots = rational_rref(
        [[evaluate_monomial(mono, p) for mono in monos] for p in pts]
    )
    kernel = None
    if rank == m:
        verdict = "no_common_hypersurface"
    else:
        kernel = _kernel_from_rref(m, rref, pivots)
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
