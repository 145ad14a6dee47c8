"""Dynamical-degree computation.

The degree matrix of a triangular map has (i,j) entry deg_{x_i} f_j; it is
lower triangular with positive diagonal.  The dynamical degree of a
triangular map is exactly its maximum diagonal entry, so only the diagonal
degrees deg_{x_i} f_i (``maps.diagonal_degrees``) are needed; the degree
sequence deg(f^n)^{1/n} is computed as an independent route to the same
number.

deg(f) for an affine polynomial map is max_i total_degree(f_i): homogenizing
with some component attaining the max total degree d gives
[X0^d : F_1 : ... : F_N] with gcd 1, so this matches the degree of the
induced projective map.

deg(f^n) is read from a certificate mod a prime q, not from the iterate;
q is 2^61 - 1, or the next prime that divides no coefficient denominator,
so every coefficient of f^n on an integral line has a residue mod q.
Restrict f^n to the line t*b.  Component j of f^n restricted to it has
t-degree at most D_j, and lc_j is its coefficient of t^(D_j) mod q, which
may be 0; for f^0 these are 1 and b_j.  Component i of f^(n+1) = f_i(f^n)
then has t-degree at most top_i = max over the monomials m of f_i of
sum_j m_j*D_j, and its coefficient of t^top_i mod q is exactly lc_i = sum
of c_m * prod_j lc_j^(m_j) over the monomials attaining top_i.  By
induction totdeg(f^n)_j <= D_j, so totdeg(f^(n+1))_i <= top_i whatever the
lc_j are.  If lc_i is nonzero mod q, then

    top_i <= deg over GF(q) <= deg over Q <= totdeg(f^(n+1))_i <= top_i,

so D_i = top_i is an exact total degree.  Hence deg(f^n) = max_i D_i
whenever some component with a nonzero lc_i attains that maximum; a
component whose lc_i is 0 keeps D_i as an upper bound only.  The point a
of a line a + t*b would not change the leading coefficients, so none is
taken.  When no component with a nonzero lc_i attains the maximum, which
may be a real drop (x1 + x2^3, -x2 has f^2 = identity), the direction
certifies nothing; a second fixed direction is tried, then the iterates are
built symbolically.
"""

from __future__ import annotations

import math

from .density import MODULUS
from .maps import DEFAULT_CAPS, ResourceCaps, TriangularMap, csv_text, diagonal_degrees
from .maps import iterates, leading_residue
from .padic import next_prime
from .qpoly import Polynomial


def dynamical_degree_exact(f: TriangularMap) -> int:
    """The largest diagonal degree (exact for triangular maps)."""
    return max(diagonal_degrees(f))


def map_degree(f: TriangularMap) -> int:
    """deg(f) = max over components of the total degree."""
    return max(c.total_degree() for c in f.components)


def dynamical_degree_sequence(
    f: TriangularMap, n_max: int = 6, caps: ResourceCaps = DEFAULT_CAPS
) -> list[tuple[int, int, float]]:
    """The rows (n, deg(f^n), deg(f^n)^(1/n)) for n = 1..n_max.

    Each degree is exact: it comes from the certificate mod q in the module
    docstring, which builds no iterate, or, when in both fixed directions
    only components with a leading coefficient of 0 mod q attain the
    maximum, from the symbolic iterates.  A resource overrun raises
    ResourceLimitError whose ``last_safe_n`` is the last n whose degree was
    computed; the certificate checks the running sum of its degrees' bit
    lengths, which bounds the rows it keeps.
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    # Every deg(f^n) has at least one bit, so n_max rows hold at least n_max
    # bits of the certificate's running sum: refuse them before either path.
    caps.check("degrees:certificate", bits=n_max, last_safe_n=0)
    degrees = _certified_degrees(f, n_max, caps)
    if degrees is None:
        degrees = [map_degree(current) for current in iterates(f, n_max, caps)]
    return [(n, d, nth_root(d, n)) for n, d in enumerate(degrees, start=1)]


def degrees_csv(rows: list[tuple[int, int, float]]) -> str:
    """The CSV of :func:`dynamical_degree_sequence`'s rows."""
    return csv_text(["n", "deg_fn", "root"], rows)


# The fixed directions b = (g, g^2, ..., g^N) mod q; large g keeps small
# integer coefficients from cancelling by accident.
_DIRECTION_BASES = (0x2545F4914F6CDD1D, 0x9E3779B97F4A7C15)


def _certified_degrees(f: TriangularMap, n_max: int, caps: ResourceCaps) -> list | None:
    """[deg(f^1), ..., deg(f^n_max)] from the certificate mod q, or None when
    neither fixed direction certifies every step."""
    q = MODULUS
    while any(c.den % q == 0 for c in f.components):
        q = next_prime(q + 1)
    components = [
        [(num * pow(c.den, -1, q) % q, [(j, e) for j, e in enumerate(mono) if e])
         for mono, num in c.terms.items()]
        for c in f.components
    ]
    for g in _DIRECTION_BASES:
        D = [1] * f.dimension
        lc = [pow(g, j, q) for j in range(1, f.dimension + 1)]
        degrees, bits = [], 0
        for n in range(n_max):
            _, D, lc = zip(*[leading_residue(terms, D, lc, q) for terms in components])
            degree = max(D)
            if not any(l and d == degree for l, d in zip(lc, D)):
                break
            degrees.append(degree)
            bits += degree.bit_length()
            caps.check("degrees:certificate", bits=bits, last_safe_n=n)
        else:
            return degrees
    return None


def nth_root(value: int, n: int) -> float:
    """Correctly usable float n-th root of a positive big integer."""
    if value <= 0:
        raise ValueError("value must be positive")
    return math.exp(math.log(value) / n)


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

