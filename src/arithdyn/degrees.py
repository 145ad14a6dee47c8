"""Degree-matrix calculus and dynamical-degree computation.

The degree matrix of a triangular map has (i,j) entry deg_{x_i} f_j; it is
lower triangular with positive diagonal.  The dynamical degree of a
triangular map is exactly the maximum diagonal entry; the degree-sequence
estimator deg(f^n)^{1/n} and the matrix-power spectral-radius estimator are
provided as independent numeric routes to the same number.

deg(f) for an affine polynomial map is max_i total_degree(f_i): homogenizing
with some component attaining the max total degree d gives
[X0^d : F_1 : ... : F_N] with gcd 1, so this matches the degree of the
induced projective map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .maps import DEFAULT_CAPS, ResourceCaps, TriangularMap, csv_text, iterates
from .qpoly import Polynomial


@dataclass(frozen=True)
class DegreeMatrix:
    """N x N nonnegative-integer matrix of per-variable component degrees."""

    entries: tuple  # tuple[tuple[int, ...], ...], row-major

    def __post_init__(self):
        rows = tuple(tuple(int(e) for e in row) for row in self.entries)
        n = len(rows)
        for row in rows:
            if len(row) != n:
                raise ValueError("degree matrix must be square")
            if any(e < 0 for e in row):
                raise ValueError("degree matrix entries must be nonnegative")
        object.__setattr__(self, "entries", rows)

    @property
    def size(self) -> int:
        return len(self.entries)

    def diagonal(self) -> tuple:
        return tuple(self.entries[i][i] for i in range(self.size))

    def max_diagonal(self) -> int:
        return max(self.diagonal())

    def is_lower_triangular(self) -> bool:
        return all(
            self.entries[i][j] == 0
            for i in range(self.size)
            for j in range(i + 1, self.size)
        )

    def multiply(self, other: "DegreeMatrix") -> "DegreeMatrix":
        if self.size != other.size:
            raise ValueError("size mismatch")
        n = self.size
        a, b = self.entries, other.entries
        return DegreeMatrix(
            tuple(
                tuple(sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n))
                for i in range(n)
            )
        )

    def power(self, n: int) -> "DegreeMatrix":
        if n < 0:
            raise ValueError("negative matrix power")
        result = DegreeMatrix(
            tuple(
                tuple(1 if i == j else 0 for j in range(self.size))
                for i in range(self.size)
            )
        )
        base = self
        e = n
        while e:
            if e & 1:
                result = result.multiply(base)
            base = base.multiply(base) if e > 1 else base
            e >>= 1
        return result

    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)


def degree_matrix(f: TriangularMap) -> DegreeMatrix:
    """Exact degree matrix: entry (i,j) = deg_{x_i} f_j."""
    n = f.dimension
    return DegreeMatrix(
        tuple(
            tuple(f.components[j].degree_in_var(i + 1) for j in range(n))
            for i in range(n)
        )
    )


def dynamical_degree_exact(f: TriangularMap) -> int:
    """Max diagonal entry of the degree matrix (exact for triangular maps)."""
    return degree_matrix(f).max_diagonal()


def map_degree(f: TriangularMap) -> int:
    """deg(f) = max over components of the total degree."""
    return max(c.total_degree() for c in f.components)


@dataclass
class DegreeSequenceEstimate:
    """Rows (n, deg(f^n), deg(f^n)^(1/n)) for n = 1..n_max."""

    values: list  # list[tuple[int, int, float]]

    def to_csv(self) -> str:
        return csv_text(["n", "deg_fn", "root"], self.values)


def dynamical_degree_sequence(
    f: TriangularMap, n_max: int = 6, caps: ResourceCaps = DEFAULT_CAPS
) -> DegreeSequenceEstimate:
    """deg(f^n) for n = 1..n_max via symbolic iteration, with n-th roots.

    A resource overrun raises ResourceLimitError whose ``last_safe_n`` is the
    last n whose degree was computed.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = []
    for n, current in enumerate(iterates(f, n_max, caps), start=1):
        d = map_degree(current)
        values.append((n, d, nth_root(d, n)))
    return DegreeSequenceEstimate(values=values)


def nth_root(value: int, n: int) -> float:
    """Correctly usable float n-th root of a positive big integer."""
    if value <= 0:
        raise ValueError("value must be positive")
    return math.exp(math.log(value) / n)


@dataclass
class SpectralRadiusResult:
    """Max-entry n-th-root sequence of integer matrix powers."""

    values: list  # list[tuple[int, float]]
    last: float
    exact: int | None  # max diagonal when the input is triangular


def spectral_radius_maxroot(A: DegreeMatrix, n_max: int) -> SpectralRadiusResult:
    """Estimate the spectral radius via max |entry of A^n| ^ (1/n).

    Matrix powers are exact integers.  When A is lower triangular the exact
    answer (its max diagonal entry) is returned alongside the sequence.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    values = []
    power = A
    for n in range(1, n_max + 1):
        if n > 1:
            power = power.multiply(A)
        m = power.max_entry()
        values.append((n, nth_root(m, n) if m > 0 else 0.0))
    exact = A.max_diagonal() if A.is_lower_triangular() else None
    return SpectralRadiusResult(values=values, last=values[-1][1], exact=exact)


def product_map(f: TriangularMap, g: TriangularMap) -> TriangularMap:
    """The block map f x g on N_f + N_g variables, f's variables first.

    Block order keeps the triangular invariant: each lifted component of f
    uses only its original variables, each shifted component of g only the
    trailing block.  The result is re-validated on construction.
    """
    nf, ng = f.dimension, g.dimension
    n = nf + ng
    components = []
    for comp in f.components:
        components.append(
            Polynomial(n, {mono + (0,) * ng: c for mono, c in zip(comp.terms, comp.coefficients())})
        )
    for comp in g.components:
        components.append(
            Polynomial(n, {(0,) * nf + mono: c for mono, c in zip(comp.terms, comp.coefficients())})
        )
    return TriangularMap(components)


@dataclass
class ProductDegreeReport:
    delta_f: int
    delta_g: int
    delta_product: int
    consistent: bool  # delta_product == max(delta_f, delta_g)


def product_dynamical_degree(
    f: TriangularMap, g: TriangularMap
) -> tuple[int, ProductDegreeReport]:
    """max(delta_f, delta_g), with verification on the explicit product map."""
    delta_f = dynamical_degree_exact(f)
    delta_g = dynamical_degree_exact(g)
    expected = max(delta_f, delta_g)
    actual = dynamical_degree_exact(product_map(f, g))
    report = ProductDegreeReport(
        delta_f=delta_f,
        delta_g=delta_g,
        delta_product=actual,
        consistent=actual == expected,
    )
    return expected, report
