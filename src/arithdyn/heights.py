"""Weil heights over the rationals and arithmetic-degree estimation.

The height of an affine point (x1, ..., xN) with reduced coordinates
x_i = num_i / den_i is read from the point itself.  With L the lcm of the
den_i, it is the natural log of

    max(L, max_i |num_i| * (L // den_i)),

the maximum absolute coordinate of [L : L*x1 : ... : L*xN].  Those integers
are already coprime, so no gcd pass is needed: for any prime q dividing L,
some i has v_q(den_i) = v_q(L), and num_i is prime to q because x_i is
reduced, so q does not divide L*x_i.  The first coordinate L is positive, so
no sign normalisation is needed either.  L is built without a big lcm: write
den_i = 2^t_i * o_i with o_i odd; then L = 2^(max t_i) * lcm(o_i), because a
power of two and an odd number are coprime, and L // den_i is
(lcm(o_i) // o_i) * 2^(max t_i - t_i), a shift.  Orbit points over Z[1/2] have
every o_i = 1, so no lcm, gcd or division ever sees their big denominators.
Heights are reported as 64-bit floats of logs of exact integers; every
equality assertion is made on the exact integer arguments, floats are
presentation only.

The height sequence of an orbit is a list of ``HeightRow``, row n carrying

    h_n    = height of f^n(P),
    h+_n   = max(h_n, 1),
    a_n    = (h+_n)^(1/n)                 (arithmetic-degree estimate),
    khat_n = delta^(-n) * h+_n            (lower canonical-height sequence),

with the exact integer height argument kept alongside.  A positive floor on
khat_n along the whole orbit certifies that the arithmetic degree at P equals
the dynamical degree.  Finite tails are estimates: the limits themselves are
not finitely computable, so only one-sided bounds are ever asserted.

Every row is built by ``height_row`` from a :class:`Height`.  The rows of
an exact orbit (``height_sequence_of_orbit``) carry the exact argument.  Past
the printed prefix of an orbit, ``orbit_tail`` certifies only the argument's
bit length and ``math.log`` without forming it, so those rows carry no
argument.  A product X x Y has no rows or orbit of its own: its row n is
read from the two factors' height rows as h_a + h_b, whose exact argument
arg_a * arg_b is never formed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction
from operator import itemgetter

from . import degrees
from .maps import DEFAULT_CAPS, ResourceCaps, TriangularMap, as_point, csv_text, orbit
from .qpoly import Record


class Height(Record):
    """log max|coordinate| and the bit length of its integer argument, with
    the argument itself where it was formed."""

    __slots__ = ()
    max_abs = property(itemgetter(0))  # None where only bits and log were certified
    bits = property(itemgetter(1))
    log = property(itemgetter(2))

    def __new__(cls, max_abs: int | None, bits: int, log: float):
        return tuple.__new__(cls, (max_abs, bits, log))


def affine_height(point: Sequence[Fraction]) -> Height:
    """Height of an affine point; the argument and its shifts are proved above."""
    point = as_point(point)
    twos = [(c.denominator & -c.denominator).bit_length() - 1 for c in point]
    odds = [c.denominator >> t for c, t in zip(point, twos)]
    top, odd_lcm = max(twos, default=0), math.lcm(*odds)
    m = max([odd_lcm << top, *(abs(c.numerator) * (odd_lcm // o) << (top - t)
                               for c, o, t in zip(point, odds, twos))])
    return Height(max_abs=m, bits=m.bit_length(), log=math.log(m))


class HeightRow(Record):
    """Row n of a height sequence; rows compare equal field by field."""

    __slots__ = ()
    n = property(itemgetter(0))
    height_arg = property(itemgetter(1))  # exact height argument of f^n(P), None on a tail row
    arg_bits = property(itemgetter(2))  # its bit length
    h = property(itemgetter(3))
    h_plus = property(itemgetter(4))
    root = property(itemgetter(5))  # (h+)^(1/n), None at n = 0
    khat = property(itemgetter(6))  # delta^(-n) * h+

    def __new__(cls, n, height_arg, arg_bits, h, h_plus, root, khat):
        return tuple.__new__(cls, (n, height_arg, arg_bits, h, h_plus, root, khat))


def heights_csv(rows: Sequence[HeightRow]) -> str:
    """The CSV of height rows, one line per row."""
    return csv_text(
        ["n", "h_exact_numerator_bits", "h_float", "h_plus_float", "a_n", "khat_n"],
        ((r.n, r.arg_bits, r.h, r.h_plus, r.root, r.khat) for r in rows),
    )


def _root(h: float, n: int) -> float | None:
    """max(h, 1)^(1/n), None at n = 0."""
    return math.exp(math.log(max(h, 1.0)) / n) if n >= 1 else None


def height_row(n: int, height: Height, delta: int) -> HeightRow:
    """Row n of a height sequence scaled by delta, for f^n(P) of height ``height``."""
    h_plus = max(height.log, 1.0)
    root = _root(h_plus, n)
    if n * (delta.bit_length() - 1) >= 1075 + math.frexp(h_plus)[1]:
        # with e = frexp(h+)[1], h+ < 2^e and delta^n >= 2^(1075 + e): the quotient
        # is below 2^-1075, half the least subnormal, so it rounds to 0.0 unbuilt
        khat = 0.0
    else:
        # int / int is correctly rounded, and gives 0.0 rather than overflowing
        a, b = h_plus.as_integer_ratio()
        khat = a / (b * delta**n)
    return HeightRow(
        n=n, height_arg=height.max_abs, arg_bits=height.bits, h=height.log, h_plus=h_plus,
        root=root, khat=khat,
    )


def height_sequence(
    f: TriangularMap,
    start: Sequence[Fraction],
    n_max: int,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> list[HeightRow]:
    """The height rows along the exact orbit of ``start`` for n = 0..n_max, with
    khat scaled by the exact dynamical degree of f.

    An orbit resource overrun raises ResourceLimitError carrying the last
    safe n.  No run mode calls it: each reads its rows from ``orbit_tail``.
    It stays as the exact reference that the tests compare against and as a
    trace target of the benchmark.
    """
    delta = degrees.dynamical_degree_exact(f)
    return height_sequence_of_orbit(orbit(f, start, n_max, caps), delta)


def height_sequence_of_orbit(points: Sequence, delta: int) -> list[HeightRow]:
    """The height rows of the orbit ``points``, where points[n] = f^n(points[0])."""
    return [height_row(n, affine_height(p), delta) for n, p in enumerate(points)]


def product_height_additivity(
    f_a: TriangularMap,
    rows_a: Sequence[HeightRow],
    f_b: TriangularMap,
    rows_b: Sequence[HeightRow],
    *,
    fg: TriangularMap,
) -> tuple[bool, list]:
    """(projections_match, sums): row-wise additivity of factor heights along
    the product orbit, from the height rows of the factor orbits of f_a and
    f_b, each scaled by its own dynamical degree; sums[n] is (h_sum, root),
    h_sum = h_a + h_b and root = max(h_sum, 1)^(1/n).

    The product height (sum of the factors' coordinate heights) has exact
    integer argument arg_a * arg_b; its n-th roots tend to the max of the
    factors' estimates because for positive sequences with n-th-root limits
    >= 1, (a_n + b_n)^(1/n) converges to the larger of the two limits.

    ``projections_match`` is proved for every n from fg = product_map(f_a, f_b),
    with N_a = f_a.dimension: fg's first N_a components use no variable past
    x_(N_a) and, cut to their first N_a exponents, are f_a's; the rest use
    none of x_1..x_(N_a) and, cut to their last exponents, are f_b's.  As
    x^0 = 1, fg(P, Q) = (f_a(P), f_b(Q)) everywhere, so by induction on n
    fg^n(P, Q) = (f_a^n(P), f_b^n(Q)).  The check reads fg's components, so
    it proves the projection for whatever map is passed, never assumes it.
    """
    na = f_a.dimension
    blocks = [(comp, slice(na), slice(na, None)) for comp in f_a.components]
    blocks += [(comp, slice(na, None), slice(na)) for comp in f_b.components]
    lifted = fg.components
    projections_match = len(lifted) == len(blocks) and all(
        not any(any(mono[other]) for mono in poly.terms)
        and poly.den == comp.den
        and {mono[own]: c for mono, c in poly.terms.items()} == comp.terms
        for poly, (comp, own, other) in zip(lifted, blocks)
    )
    sums = [(ra.h + rb.h, _root(ra.h + rb.h, ra.n)) for ra, rb in zip(rows_a, rows_b)]
    return projections_match, sums


def product_heights_csv(rows_a: Sequence[HeightRow], rows_b: Sequence[HeightRow], sums) -> str:
    """The CSV of the product rows: each factor's argument bits, then h_sum and root."""
    return csv_text(
        ["n", "arg_a_bits", "arg_b_bits", "h_sum", "root"],
        ((ra.n, ra.arg_bits, rb.arg_bits, *row) for ra, rb, row in zip(rows_a, rows_b, sums)),
    )
