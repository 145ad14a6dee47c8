"""Oracle helpers shared by the test suites."""

from fractions import Fraction

from arithdyn.degrees import product_map
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
    product = orbit(product_map(f_a, f_b), p_a + p_b, n_max).points
    orb_a, orb_b = orbit(f_a, p_a, n_max).points, orbit(f_b, p_b, n_max).points
    return len(product) == n_max + 1 and all(
        q[:na] == qa and q[na:] == qb for q, qa, qb in zip(product, orb_a, orb_b)
    )
