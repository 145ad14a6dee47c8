"""Orbits past the printed prefix, carried as only what the checks read.

Every run mode that walks an orbit prints or compares its points exactly only
up to n = 5.  Past that prefix its checks and reports read two things of an
orbit point f^n(P): the p-adic valuation of each coordinate, and the height
row, which needs the bit length and ``math.log`` of the height argument.

Which orbits are carried.  When every component of f has integer
coefficients (den == 1) and every coordinate of P is N / p^k with k >= 0,
:func:`orbit_tail` walks the prefix on exact integer pairs (k, N) and, from
the last exact point on, when every k > 0 there, carries each coordinate
x = N / p^k as three parts:

  k, exact;
  N mod p, exact;
  an integer enclosure [lo 2^s, hi 2^s] of N, with lo and hi cut to
  ``ENCLOSURE_BITS`` bits and rounded outward.

Any other orbit is walked with ``maps.exact_steps``, the loop of
``maps.orbit``.  The coordinates of f^n(P) reach 10^6 bits by n = 17 on the
benchmark's second-case orbit; the three parts stay a few hundred bits.
Any proved prime p will do: a p the orbit does not fit only takes the
exact path.

One step.  Both walks read one term table of f: each term's integer
coefficient c_a and the (j, a_j) with a_j > 0.  With w(a) = sum_j a_j k_j,
the p-weight of the monomial a, and W the top weight, every k_j >= 0 gives
f_i(x) = N' / p^W for the integer N' = sum_a c_a prod_j N_j^a_j p^(W - w(a)).

The prefix forms N' exactly.  N' = 0 is the coordinate 0 / p^0.  Otherwise
let v = v_p(N'): for v < W, N' / p^v is an integer prime to p, so
(W - v, N' / p^v) is reduced; for v >= W, (0, N' / p^W) is an integer.
Both divisions are exact, so the prefix leaves no decision open.  Of a
reduced (k, N), -v_p(x) is k when k > 0 and -v_p(N) when k = 0, and the
height argument of the point is the largest of p^K and |N_i| p^(K - k_i),
K = max k_i: the L and |num_i| L / den_i of ``heights.affine_height``.

Past the prefix, modulo p only the monomials of weight W survive, so N' mod
p is the sum of their residues.  When that is nonzero, N' is a p-unit and
N' / p^W is reduced: k' = W exactly (W >= k_i > 0, as f_i has a term in
x_i).  Each power N_j^e is enclosed once per step, its ends the powers of
the ends of N_j's enclosure, which holds no 0.  Each term's enclosure is
the exact product of c_a and those ends, times an enclosure of p^(W - w(a))
built once per tail (for p = 2 that power only moves the scale), and the
sum of the terms is rounded outward and cut once, so it contains N'.

The height row.  The height argument lies between the largest lower end and
the largest upper end of the candidates' enclosures, also where two
candidates agree to more bits than an enclosure carries.  When both ends
have one bit length, that is the argument's.  When both round to the same
double, so does every integer between them, and ``math.log`` of an int
reads only its correctly rounded double and exponent (CPython's
``loghelper`` and ``_PyLong_Frexp``): so ``math.log`` of the lower end is
the argument's.

Every decision is exact.  A zero residue, an enclosure that contains 0, or
ends that straddle a bit length or a rounding boundary leave a decision
open; the orbit is then recomputed exactly from its last exact point, as
is one whose prefix ends at a coordinate with k = 0.  Before each step
``caps.check`` gets the ``maps.step_bits_bound`` of the same (numerator
bits, denominator bits) on every path, so a cap refuses the same step with
the same metadata.
"""

from __future__ import annotations

import math

from . import heights, padic
from .degrees import dynamical_degree_exact
from .maps import (
    ResourceCaps,
    TriangularMap,
    coordinate_bits,
    exact_steps,
    leading_residue,
    orbit,
    step_bits_bound,
)
from .qpoly import power_fraction

ENCLOSURE_BITS = 192
PREFIX = 5

# (lo, hi, s): the integers in [lo * 2^s, hi * 2^s], with s >= 0.
Enclosure = tuple


def orbit_tail(
    f: TriangularMap, p: int, start, n_max: int, caps: ResourceCaps
) -> tuple[list, list, list]:
    """(points, valuation signatures, height rows) of the orbit of ``start``.

    ``points`` are the exact f^n(P) for n = 0..n0 = min(PREFIX, n_max); the
    signatures (-v_p(x_i))_i and the height rows, scaled by f's dynamical
    degree, cover n = 0..n_max.  ``p`` must be proved prime.  When every
    component of f has integer coefficients and every coordinate of P is
    N / p^k with k >= 0, the prefix is walked on the exact pairs (k, N) of
    the module docstring, and past n0 the enclosure walk runs when every
    k > 0 at f^n0(P).  Any other orbit, and a tail that leaves a decision
    open, is walked by ``maps.exact_steps`` from its last exact point.
    Either way the result is the one the exact orbit gives.
    """
    delta = dynamical_degree_exact(f)
    n0 = min(PREFIX, n_max)
    points = orbit(f, start, 0, caps)  # P, its dimension checked
    pair = _pair_start(f, p, points[0])
    sigs, rows, tail = [], [], None
    if pair is not None:
        table, bound = _term_table(f), step_bits_bound(f)
        ks, nums = pair
        for n in range(n0 + 1):
            if n:
                bits = bound(coordinate_bits(points[-1]))
                caps.check(f"orbit step {n}", bits=bits, last_safe_n=n - 1)
                ks, nums = _pair_step(table, p, ks, nums)
                points.append(tuple(power_fraction(num, p, k) for k, num in zip(ks, nums)))
            sigs.append(tuple(k or -padic._valuation(num, p) for k, num in zip(ks, nums)))
            rows.append(heights.height_row(n, _pair_height(p, ks, nums), delta))
        if all(ks):
            tail = _enclosed_tail(table, bound, p, ks, nums, n0, n_max, delta, caps)
    if tail is None:
        points += exact_steps(f, points[-1], len(points) - 1, n_max, caps)
        exact = list(enumerate(points))[len(rows) :]
        tail = (
            [padic.valuation_signature(q, p) for _, q in exact],
            [heights.height_row(n, heights.affine_height(q), delta) for n, q in exact],
        )
    return points[: n0 + 1], sigs + tail[0], rows + tail[1]


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


# -- the exact walk on pairs (k, N) ------------------------------------------


def _term_table(f: TriangularMap) -> tuple[list, list]:
    """(terms, pairs) of an integer-coefficient f: ``terms`` lists, for each
    component, the (c, the (j, e) with e > 0) of its terms c x^a, as
    ``maps.leading_residue`` reads them, and ``pairs`` every such (j, e)
    once, the power table of one step."""
    terms = [
        [(c, [(j, e) for j, e in enumerate(mono) if e]) for mono, c in component.terms.items()]
        for component in f.components
    ]
    return terms, sorted({pair for component in terms for _, pairs in component for pair in pairs})


def _pair_start(f: TriangularMap, p: int, start) -> tuple[list, list] | None:
    """The pairs (k, N) of ``start`` when f has integer coefficients and each
    coordinate is N / p^k, else None."""
    if any(c.den != 1 for c in f.components):
        return None
    ks = [padic._prime_power_valuation(x.denominator, p) for x in start]
    if any(x.denominator != p**k for x, k in zip(start, ks)):
        return None
    return ks, [x.numerator for x in start]


def _pair_step(table, p: int, ks: list, nums: list) -> tuple[list, list]:
    """The reduced pairs of f(x) at the reduced x_j = nums[j] / p^ks[j]:
    N' formed exactly and p divided out of it, as the module docstring
    proves.  ``table`` is f's :func:`_term_table`."""
    terms, pairs = table
    powers = {(j, e): nums[j] ** e for j, e in pairs}
    out_ks, out_nums = [], []
    for component in terms:
        weights = [sum([e * ks[j] for j, e in mono]) for _, mono in component]
        top = max(weights)
        total = 0
        for (c, mono), w in zip(component, weights):
            for pair in mono:
                c *= powers[pair]
            total += _scale(c, p, top - w)
        # N' = 0 divides out as v = W, to the pair (0, 0)
        v = min(padic._prime_power_valuation(abs(total), p), top) if total else top
        out_ks.append(top - v)
        out_nums.append(total >> v if p == 2 else total // p**v)
    return out_ks, out_nums


def _scale(n: int, p: int, m: int) -> int:
    """n p^m, a shift for p = 2."""
    return n << m if p == 2 else n * p**m


def _pair_height(p: int, ks: list, nums: list) -> heights.Height:
    """The height of the reduced point (nums[i] / p^ks[i])_i."""
    top = max(ks)
    m = max(_scale(1, p, top), *(_scale(abs(num), p, top - k) for k, num in zip(ks, nums)))
    return heights.Height(max_abs=m, bits=m.bit_length(), log=math.log(m))


# -- the enclosure walk past the prefix ---------------------------------------


def _enclosed_tail(table, bound, p, ks, nums, n0, n_max, delta, caps) -> tuple[list, list] | None:
    """:func:`orbit_tail`'s rows past f^n0(P) = (nums[i] / p^ks[i])_i, every
    ks[i] > 0, on enclosures, or None when a decision is open; ``table`` is
    f's :func:`_term_table` and ``bound`` its ``maps.step_bits_bound``."""
    terms, pairs = table
    residues = [num % p for num in nums]
    nums = [_cut(num, num, 0) for num in nums]
    powers = {}  # p^m by m, shared by the whole tail
    sigs, rows = [], []
    for n in range(n0, n_max):
        sizes = [(_bits(_abs(num)), _bits(_prime_power(p, k, powers))) for num, k in zip(nums, ks)]
        if None in (bit for size in sizes for bit in size):
            return None
        caps.check(f"orbit step {n + 1}", bits=bound(sizes), last_safe_n=n)
        num_powers = {(j, e): _power(nums[j], e) for j, e in pairs}
        images = [_component_step(t, ks, residues, num_powers, p, powers) for t in terms]
        if None in images:
            return None
        ks, residues, nums = zip(*images)
        height = _height(ks, nums, p, powers)
        if height is None:
            return None
        sigs.append(ks)
        rows.append(heights.height_row(n + 1, height, delta))
    return sigs, rows


def _component_step(terms, ks, residues, num_powers, p, powers) -> tuple | None:
    """(k', N' mod p, enclosure of N') of one component at the carried
    point, or None when N' mod p is 0.

    ``terms`` are the component's entry of :func:`_term_table`;
    ``num_powers`` holds the step's :func:`_power` of each (j, e), and
    ``powers`` each p^m by m, shared by the whole tail.
    """
    weights, top, residue = leading_residue(terms, ks, residues, p)
    if not residue:
        return None
    parts = []
    for (c, mono), w in zip(terms, weights):
        term = c, c, 0
        for pair in mono:
            term = _mul(term, num_powers[pair])
        parts.append(_times_prime_power(term, p, top - w, powers))
    return top, residue, _sum(parts)


def _height(ks, nums, p, powers) -> heights.Height | None:
    """The certified height of (N_i / p^k_i)_i, or None when it is open;
    ``powers`` is the tail's dict of p^m."""
    top = max(ks)
    candidates = [_prime_power(p, top, powers)]
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


def _mul(x: Enclosure, y: Enclosure) -> Enclosure:
    """The exact product, uncut; with both lower ends >= 0 its ends are a c
    and b d."""
    (a, b, s), (c, d, t) = x, y
    if a >= 0 and c >= 0:
        return a * c, b * d, s + t
    ends = (a * c, a * d, b * c, b * d)
    return min(ends), max(ends), s + t


def _power(x: Enclosure, e: int) -> Enclosure:
    """x^e for e >= 1 and an x that holds no 0, uncut: its ends are the
    powers of x's ends, swapped for an even e when x is negative."""
    lo, hi, s = x
    if hi < 0 and not e % 2:
        lo, hi = hi, lo
    return lo**e, hi**e, s * e


def _sum(parts: list) -> Enclosure:
    """The sum of ``parts``, cut once.  Every part is brought to the scale
    2^u of the finest, unless that would give the largest more than
    ENCLOSURE_BITS bits: then u keeps it at ENCLOSURE_BITS.  A part on a
    scale at or above u is shifted up exactly, one below it is rounded
    outward."""
    top = max(max(abs(lo), abs(hi)).bit_length() + s for lo, hi, s in parts)
    u = max(min(s for _, _, s in parts), top - ENCLOSURE_BITS)
    lo = hi = 0
    for part in parts:
        a, b = _at(part, u)
        lo, hi = lo + a, hi + b
    return _cut(lo, hi, u)


def _at(x: Enclosure, u: int) -> tuple[int, int]:
    """The ends of x on the scale 2^u, rounded outward."""
    lo, hi, s = x
    if s >= u:
        return lo << s - u, hi << s - u
    return lo >> u - s, -(-hi >> u - s)


def _pow(x: Enclosure, e: int) -> Enclosure:
    """x^e for e >= 0, by left-to-right square-and-multiply, cut after each
    product.

    The leading bit of e gives x cut, which is (1, 1, 0) squared and then
    times x, so the remaining bits start from there.
    """
    if not e:
        return 1, 1, 0
    out = _cut(*x)
    for bit in bin(e)[3:]:
        out = _cut(*_mul(out, out))
        if bit == "1":
            out = _cut(*_mul(out, x))
    return out


def _prime_power(p: int, m: int, powers: dict) -> Enclosure:
    """An enclosure of p^m, exact for p = 2, built once into the tail's ``powers``."""
    power = powers.get(m)
    if power is None:
        power = powers[m] = (1, 1, m) if p == 2 else _pow((p, p, 0), m)
    return power


def _times_prime_power(x: Enclosure, p: int, m: int, powers: dict) -> Enclosure:
    """``_mul(x, p^m)``, p^m shared through ``powers``; for p = 2 the exact
    p^m = (1, 1, m) multiplies no ends, so its product is x on the scale
    2^(s + m)."""
    if p == 2:
        lo, hi, s = x
        return lo, hi, s + m
    return _mul(x, _prime_power(p, m, powers))


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
