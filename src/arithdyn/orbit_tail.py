"""Orbits past the printed prefix, carried as only what the checks read.

Every run mode that walks an orbit prints or compares its points exactly only
up to n = 5.  Past that prefix its checks and reports read two things of an
orbit point f^n(P): the p-adic valuation of each coordinate, and the height
row, which needs the bit length and ``math.log`` of the height argument.  So
:func:`orbit_tail` walks the prefix with ``maps.orbit`` and, from the last
exact point on, carries each coordinate x = N / p^k as three parts:

  k, exact;
  N mod p, exact;
  an integer enclosure [lo 2^s, hi 2^s] of N, with lo and hi cut to
  ``ENCLOSURE_BITS`` bits and rounded outward.

The coordinates of f^n(P) reach 10^6 bits by n = 17 on the benchmark's
second-case orbit; the three parts stay a few hundred bits.  Any proved
prime p will do: a p the orbit does not fit only takes the exact path below.

One step.  Every component has integer coefficients c_a (den == 1), so with
w(a) = sum_j a_j k_j, the p-weight of the monomial a, and W the top weight,
f_i(x) = N' / p^W for N' = sum_a c_a prod_j N_j^a_j p^(W - w(a)).  Modulo p
only the monomials of weight W survive, so N' mod p is the sum of their
residues.  When that is nonzero, N' is a p-unit and N' / p^W is reduced:
k' = W exactly (W >= k_i > 0, as f_i has a term in x_i).  The enclosure of
N' is the same sum over interval products and sums, each rounded outward,
so it contains N'.

The height row.  The height argument of (N_i / p^k_i)_i is the largest of
the candidates p^K and |N_i| p^(K - k_i), K = max k_i: the L and
|num_i| L / den_i of ``heights.affine_height``.  So it lies between the
largest lower end and the largest upper end of their enclosures, also where
two candidates agree to more bits than an enclosure carries.  When both
ends have one bit length, that is the argument's.  When both round to the
same double, so does every integer between them, and ``math.log`` of an
int reads only its correctly rounded double and exponent (CPython's
``loghelper`` and ``_PyLong_Frexp``): so ``math.log`` of the lower end is
the argument's.

Every decision is exact.  A point outside the case split (a coefficient off
Z, a coordinate that is not N / p^k with k > 0), a zero residue, an
enclosure that contains 0, or ends that straddle a bit length or a rounding
boundary leave a decision open; the orbit is then recomputed exactly from
its last exact point.  Before each step ``caps.check`` gets the
``maps.step_bits_bound`` of the same (numerator bits, denominator bits) on
either path, so a cap refuses the same step with the same metadata.
"""

from __future__ import annotations

import math

from . import heights, padic
from .maps import (
    ResourceCaps,
    TriangularMap,
    coordinate_bits,
    exact_steps,
    orbit,
    step_bits_bound,
)

ENCLOSURE_BITS = 192
PREFIX = 5

# (lo, hi, s): the integers in [lo * 2^s, hi * 2^s], with s >= 0.
Enclosure = tuple


def orbit_tail(
    f: TriangularMap, p: int, start, n_max: int, delta: int, caps: ResourceCaps
) -> tuple[list, list, list]:
    """(points, valuation signatures, height rows) of the orbit of ``start``.

    ``points`` are the exact f^n(P) for n = 0..min(PREFIX, n_max), walked by
    ``maps.orbit``; the signatures (-v_p(x_i))_i and the height rows,
    scaled by ``delta``, cover n = 0..n_max, past the prefix as
    :func:`_tail_from` certifies them.  ``p`` must be proved prime.
    """
    points = orbit(f, start, min(PREFIX, n_max), caps)
    sigs, rows = _tail_from(f, p, points[-1], len(points) - 1, n_max, delta, caps)
    return (
        points,
        [padic.valuation_signature(q, p) for q in points] + sigs,
        heights.height_sequence_of_orbit(points, delta).rows + rows,
    )


def start_prime(f: TriangularMap, start) -> int:
    """The prime p of which the denominators of ``start``'s non-integral
    coordinates are powers, else f's smallest unit prime.

    The orbit of a product factor is carried at this p.  Any prime gives the
    exact result; one the orbit does not fit only costs the exact walk, so a
    p above 2^48, whose float root below may be off by one, is not sought.
    """
    d = math.gcd(*(x.denominator for x in start if x.denominator > 1))
    if d > 1:
        bits = math.log2(d)
        # d = r^k for the largest such k gives r = p when d is a prime power
        for k in range(d.bit_length(), math.ceil(bits / 48) - 1, -1):
            r = round(2 ** (bits / k))
            if r > 1 and abs(k * math.log2(r) - bits) < 0.5 and r**k == d:
                return r if padic.is_prime(r) else padic.find_unit_prime(f)
    return padic.find_unit_prime(f)


def _tail_from(f, p, point, n0, n_max, delta, caps) -> tuple[list, list]:
    """(valuation signatures, height rows) of f^n(P) for n = n0+1..n_max,
    from ``point`` = f^n0(P), the rows scaled by ``delta``.

    The enclosure walk of the module docstring runs when every component
    of f has integer coefficients and every coordinate of ``point`` is
    N / p^k with k > 0; otherwise, or when it leaves a decision open, the
    orbit is walked exactly from ``point``.  Either way the result is the
    one the exact orbit gives.
    """
    sig = padic.valuation_signature(point, p)
    tail = None
    if all(c.den == 1 for c in f.components) and all(
        k > 0 and x.denominator == p**k for x, k in zip(point, sig)
    ):
        tail = _enclosed_tail(f, p, point, sig, n0, n_max, delta, caps)
    if tail is None:
        points = list(exact_steps(f, point, n0, n_max, caps))
        tail = (
            [padic.valuation_signature(q, p) for q in points],
            [heights.height_row(n, heights.affine_height(q), delta)
             for n, q in enumerate(points, start=n0 + 1)],
        )
    return tail


def _enclosed_tail(f, p, point, ks, n0, n_max, delta, caps) -> tuple[list, list] | None:
    """:func:`_tail_from` on enclosures, or None when a decision is open."""
    terms = [list(c.terms.items()) for c in f.components]
    residues = [x.numerator % p for x in point]
    nums = [_exact(x.numerator) for x in point]
    bound = step_bits_bound(f)
    sigs, rows = [], []
    for n in range(n0, n_max):
        if n == n0:
            sizes = coordinate_bits(point)
        else:
            sizes = [(_bits(_abs(num)), _bits(_prime_power(p, k))) for num, k in zip(nums, ks)]
            if None in (bit for size in sizes for bit in size):
                return None
        caps.check(f"orbit step {n + 1}", bits=bound(sizes), last_safe_n=n)
        images = [_component_step(t, ks, residues, nums, p) for t in terms]
        if None in images:
            return None
        ks, residues, nums = (list(part) for part in zip(*images))
        height = _height(ks, nums, p)
        if height is None:
            return None
        sigs.append(tuple(ks))
        rows.append(heights.height_row(n + 1, height, delta))
    return sigs, rows


def _component_step(terms, ks, residues, nums, p) -> tuple | None:
    """(k', N' mod p, enclosure of N') of one component at the carried
    point, or None when N' mod p is 0."""
    weights = [sum(e * k for e, k in zip(mono, ks)) for mono, _ in terms]
    top = max(weights)
    residue = sum(
        c * math.prod(pow(r, e, p) for r, e in zip(residues, mono))
        for (mono, c), w in zip(terms, weights)
        if w == top
    ) % p
    if not residue:
        return None
    total = None
    for (mono, c), w in zip(terms, weights):
        term = _mul(_exact(c), _prime_power(p, top - w))
        for e, num in zip(mono, nums):
            if e:
                term = _mul(term, _pow(num, e))
        total = term if total is None else _add(total, term)
    return top, residue, total


def _height(ks, nums, p) -> heights.Height | None:
    """The certified height of (N_i / p^k_i)_i, or None when it is open."""
    top = max(ks)
    candidates = [_prime_power(p, top)]
    for num, k in zip(nums, ks):
        size = _abs(num)
        if size is None:
            return None
        candidates.append(_mul(size, _prime_power(p, top - k)))
    u = min(s for _, _, s in candidates)
    ends = [_at(c, u) for c in candidates]
    lo, hi, s = _cut(max(lo for lo, _ in ends), max(hi for _, hi in ends), u)
    # float() of an int is its correctly rounded double: an exact test
    if lo.bit_length() != hi.bit_length() or float(lo) != float(hi):
        return None
    return heights.Height(max_abs=None, bits=lo.bit_length() + s, log=math.log(lo << s))


# -- interval arithmetic on enclosures, every bound rounded outward ---------


def _cut(lo: int, hi: int, s: int) -> Enclosure:
    """(lo, hi, s) with lo and hi cut to ENCLOSURE_BITS bits: lo rounded
    down, hi up."""
    t = max(abs(lo), abs(hi)).bit_length() - ENCLOSURE_BITS
    if t <= 0:
        return lo, hi, s
    return lo >> t, -(-hi >> t), s + t


def _exact(x: int) -> Enclosure:
    return _cut(x, x, 0)


def _mul(x: Enclosure, y: Enclosure) -> Enclosure:
    (a, b, s), (c, d, t) = x, y
    ends = (a * c, a * d, b * c, b * d)
    return _cut(min(ends), max(ends), s + t)


def _add(x: Enclosure, y: Enclosure) -> Enclosure:
    """The sum, on the scale 2^u of the finer operand, unless that would give
    the larger operand more than ENCLOSURE_BITS bits: then u keeps it at
    ENCLOSURE_BITS.  An operand on a scale at or above u is shifted up
    exactly, one below it is rounded outward."""
    top = max(max(abs(e[0]), abs(e[1])).bit_length() + e[2] for e in (x, y))
    u = max(min(x[2], y[2]), top - ENCLOSURE_BITS)
    (a, b), (c, d) = _at(x, u), _at(y, u)
    return _cut(a + c, b + d, u)


def _at(x: Enclosure, u: int) -> tuple[int, int]:
    """The ends of x on the scale 2^u, rounded outward."""
    lo, hi, s = x
    if s >= u:
        return lo << s - u, hi << s - u
    return lo >> u - s, -(-hi >> u - s)


def _pow(x: Enclosure, e: int) -> Enclosure:
    """x^e for e >= 0, by left-to-right square-and-multiply."""
    out = (1, 1, 0)
    for bit in bin(e)[2:]:
        out = _mul(out, out)
        if bit == "1":
            out = _mul(out, x)
    return out


def _prime_power(p: int, m: int) -> Enclosure:
    """An enclosure of p^m; exact for p = 2."""
    return (1, 1, m) if p == 2 else _pow((p, p, 0), m)


def _abs(x: Enclosure) -> Enclosure | None:
    """The enclosure of |N| for N in x, or None when x contains 0."""
    lo, hi, s = x
    if lo > 0:
        return x
    if hi < 0:
        return -hi, -lo, s
    return None


def _bits(x: Enclosure | None) -> int | None:
    """The bit length shared by every integer in the positive enclosure x,
    or None when x is None or its ends differ in bit length."""
    if x is None or x[0].bit_length() != x[1].bit_length():
        return None
    return x[0].bit_length() + x[2]
