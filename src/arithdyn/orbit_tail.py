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
so it contains N'.  Each term's coefficient enclosure and variables are
read once per tail, each power N_j^e once per step for every component,
each p^m once per tail, and for p = 2 the exact p^(W - w(a)) only moves
the scale of an enclosure.

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
    leading_residue,
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
    sigs = [padic.valuation_signature(q, p) for q in points]
    tail_sigs, rows = _tail_from(f, p, points[-1], sigs[-1], len(points) - 1, n_max, delta, caps)
    return (
        points,
        sigs + tail_sigs,
        heights.height_sequence_of_orbit(points, delta) + rows,
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


def _tail_from(f, p, point, sig, n0, n_max, delta, caps) -> tuple[list, list]:
    """(valuation signatures, height rows) of f^n(P) for n = n0+1..n_max,
    from ``point`` = f^n0(P) and its valuation signature ``sig``, the rows
    scaled by ``delta``.

    The enclosure walk of the module docstring runs when every component
    of f has integer coefficients and every coordinate of ``point`` is
    N / p^k with k > 0; otherwise, or when it leaves a decision open, the
    orbit is walked exactly from ``point``.  Either way the result is the
    one the exact orbit gives.
    """
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
    terms = [_step_terms(c) for c in f.components]
    residues = [x.numerator % p for x in point]
    nums = [_exact(x.numerator) for x in point]
    bound = step_bits_bound(f)
    powers = {}  # p^m by m, shared by the whole tail
    sigs, rows = [], []
    for n in range(n0, n_max):
        num_powers = {}  # N_j^e by (j, e), shared by the components of one step
        if n == n0:
            sizes = coordinate_bits(point)
        else:
            sizes = [(_bits(_abs(num)), _bits(_shared_prime_power(p, k, powers)))
                     for num, k in zip(nums, ks)]
            if None in (bit for size in sizes for bit in size):
                return None
        caps.check(f"orbit step {n + 1}", bits=bound(sizes), last_safe_n=n)
        images = [_component_step(t, ks, residues, nums, num_powers, p, powers) for t in terms]
        if None in images:
            return None
        ks, residues, nums = (list(part) for part in zip(*images))
        height = _height(ks, nums, p, powers)
        if height is None:
            return None
        sigs.append(tuple(ks))
        rows.append(heights.height_row(n + 1, height, delta))
    return sigs, rows


def _step_terms(component) -> list:
    """(c, the (j, e) with e > 0, enclosure of c) of each term c x^a of an
    integer-coefficient component, as ``maps.leading_residue`` and
    :func:`_component_step` read them."""
    return [
        (c, [(j, e) for j, e in enumerate(mono) if e], _exact(c))
        for mono, c in component.terms.items()
    ]


def _component_step(terms, ks, residues, nums, num_powers, p, powers) -> tuple | None:
    """(k', N' mod p, enclosure of N') of one component at the carried
    point, or None when N' mod p is 0.

    ``terms`` are the component's :func:`_step_terms`; ``num_powers`` keeps
    each ``_pow(nums[j], e)`` by (j, e), shared by every component of one
    step, and ``powers`` each p^m by m, shared by the whole tail.
    """
    weights, top, residue = leading_residue(terms, ks, residues, p)
    if not residue:
        return None
    total = None
    for (_, pairs, coeff), w in zip(terms, weights):
        term = _times_prime_power(coeff, p, top - w, powers)
        for j, e in pairs:
            power = num_powers.get((j, e))
            if power is None:
                power = num_powers[j, e] = _pow(nums[j], e)
            term = _mul(term, power)
        total = term if total is None else _add(total, term)
    return top, residue, total


def _height(ks, nums, p, powers) -> heights.Height | None:
    """The certified height of (N_i / p^k_i)_i, or None when it is open;
    ``powers`` is the tail's dict of p^m."""
    top = max(ks)
    candidates = [_shared_prime_power(p, top, powers)]
    for num, k in zip(nums, ks):
        size = _abs(num)
        if size is None:
            return None
        candidates.append(_times_prime_power(size, p, top - k, powers))
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
    down, hi up.  With lo >= 0 the larger magnitude is hi."""
    t = (hi if lo >= 0 else max(-lo, abs(hi))).bit_length() - ENCLOSURE_BITS
    if t <= 0:
        return lo, hi, s
    return lo >> t, -(-hi >> t), s + t


def _exact(x: int) -> Enclosure:
    return _cut(x, x, 0)


def _mul(x: Enclosure, y: Enclosure) -> Enclosure:
    """The product; with both lower ends >= 0 its ends are a c and b d."""
    (a, b, s), (c, d, t) = x, y
    if a >= 0 and c >= 0:
        return _cut(a * c, b * d, s + t)
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
    """x^e for e >= 0, by left-to-right square-and-multiply.

    The leading bit of e gives x cut, which is (1, 1, 0) squared and then
    times x, so the remaining bits start from there.
    """
    if not e:
        return 1, 1, 0
    out = _cut(*x)
    for bit in bin(e)[3:]:
        out = _mul(out, out)
        if bit == "1":
            out = _mul(out, x)
    return out


def _prime_power(p: int, m: int) -> Enclosure:
    """An enclosure of p^m; exact for p = 2."""
    return (1, 1, m) if p == 2 else _pow((p, p, 0), m)


def _times_prime_power(x: Enclosure, p: int, m: int, powers: dict) -> Enclosure:
    """``_mul(x, p^m)``, p^m shared through ``powers``; for p = 2 the exact
    p^m = (1, 1, m) multiplies no ends, so its product is x cut on the
    scale 2^(s + m)."""
    if p == 2:
        lo, hi, s = x
        return _cut(lo, hi, s + m)
    return _mul(x, _shared_prime_power(p, m, powers))


def _shared_prime_power(p: int, m: int, powers: dict) -> Enclosure:
    """``_prime_power(p, m)``, built once into the tail's ``powers``."""
    power = powers.get(m)
    if power is None:
        power = powers[m] = _prime_power(p, m)
    return power


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
