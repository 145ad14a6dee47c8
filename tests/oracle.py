"""Oracle helpers shared by the test suites."""

from dataclasses import dataclass
from fractions import Fraction

from arithdyn.degrees import nth_root, product_map
from arithdyn.maps import as_point, orbit


def evaluate_monomial(mono, point) -> Fraction:
    """The monomial x^mono at ``point``, one Fraction power per variable."""
    value = Fraction(1)
    for coord, e in zip(point, mono):
        if e:
            value *= coord**e
    return value


def product_orbit_projects(f_a, p_a, f_b, p_b, n_max) -> bool:
    """Walk the orbit of product_map(f_a, f_b) from (p_a, p_b) and both factor
    orbits; True iff every product point is the pair of factor points."""
    p_a, p_b = as_point(p_a), as_point(p_b)
    na = f_a.dimension
    product = orbit(product_map(f_a, f_b), p_a + p_b, n_max)
    orb_a, orb_b = orbit(f_a, p_a, n_max), orbit(f_b, p_b, n_max)
    return len(product) == n_max + 1 and all(
        q[:na] == qa and q[na:] == qb for q, qa, qb in zip(product, orb_a, orb_b)
    )


@dataclass(frozen=True)
class DegreeMatrix:
    """N x N nonnegative-integer matrix of per-variable component degrees,
    with the exact matrix calculus the degree laws are checked against:
    products, powers and the triangular test."""

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

    def max_entry(self) -> int:
        return max(max(row) for row in self.entries)

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


def degree_matrix(f) -> DegreeMatrix:
    """The exact degree matrix of f: entry (i,j) = deg_{x_i} f_j."""
    n = f.dimension
    return DegreeMatrix(
        tuple(
            tuple(max((mono[i] for mono in f.components[j].terms), default=0) for j in range(n))
            for i in range(n)
        )
    )


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
