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

One step.  Both walks read f's step plan (``TriangularMap.step_plan``),
built on the map's first walk and kept with it: each term's integer
coefficient c_a, its exponent tuple a and the (j, a_j) with a_j > 0, and
f's step bound and dynamical degree.  With w(a) = sum_j a_j k_j, the
p-weight of the monomial a, and W the top weight, every k_j >= 0 gives
f_i(x) = N' / p^W for the integer N' = sum_a c_a prod_j N_j^a_j p^(W - w(a)).
Each power N_j^e, or its enclosure, is built once per step, on first use.

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
x_i).  One pass over a component's terms forms the residue and each
term's enclosure.  N_j's enclosure holds no 0, so N_j^e is enclosed by the
powers of the ends of |N_j|'s enclosure under the sign of N_j^e.  A term's
enclosure is the exact product of |c_a| and those ends under one sign,
times an enclosure of p^(W - w(a)) built once per tail (for p = 2 that
power only moves the scale), and the sum of the terms is rounded outward
and cut once, so it contains N'.

The height row.  The height argument lies between the largest lower end and
the largest upper end of the candidates' enclosures, also where two
candidates agree to more bits than an enclosure carries.  A candidate
whose upper end has a lower bit position than the largest lower end holds
neither of the two, so only the others are aligned, and the shifts stay
within about ``ENCLOSURE_BITS``.  When both ends have one bit length, that
is the argument's.  When both round to the same double, so does every
integer between them, and ``math.log`` of an int reads only its correctly
rounded double and exponent (CPython's ``loghelper`` and
``_PyLong_Frexp``): so ``math.log`` of the lower end is the argument's.

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
from operator import mul

from . import heights, padic
from .maps import ResourceCaps, TriangularMap, coordinate_bits, exact_steps, orbit
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
    plan = f.step_plan()
    n0 = min(PREFIX, n_max)
    points = orbit(f, start, 0, caps)  # P, its dimension checked
    pair = _pair_start(p, points[0]) if plan.integral else None
    sigs, rows, tail = [], [], None
    if pair is not None:
        ks, nums = pair
        for n in range(n0 + 1):
            if n:
                bits = plan.bound(coordinate_bits(points[-1]))
                caps.check(f"orbit step {n}", bits=bits, last_safe_n=n - 1)
                ks, nums = _pair_step(plan.terms, p, ks, nums)
                points.append(tuple(power_fraction(num, p, k) for k, num in zip(ks, nums)))
            sigs.append(tuple(k or -padic._valuation(num, p) for k, num in zip(ks, nums)))
            rows.append(heights.height_row(n, _pair_height(p, ks, nums), plan.delta))
        if all(ks):
            tail = _enclosed_tail(plan, p, ks, nums, n0, n_max, caps)
    if tail is None:
        points += exact_steps(f, points[-1], len(points) - 1, n_max, caps)
        exact = list(enumerate(points))[len(rows) :]
        tail = (
            [padic.valuation_signature(q, p) for _, q in exact],
            [heights.height_row(n, heights.affine_height(q), plan.delta) for n, q in exact],
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


def _pair_start(p: int, start) -> tuple[list, list] | None:
    """The pairs (k, N) of ``start`` when each coordinate is N / p^k, else None."""
    ks = [padic._prime_power_valuation(x.denominator, p) for x in start]
    if any(x.denominator != p**k for x, k in zip(start, ks)):
        return None
    return ks, [x.numerator for x in start]


def _pair_step(terms, p: int, ks: list, nums: list) -> tuple[list, list]:
    """The reduced pairs of f(x) at the reduced x_j = nums[j] / p^ks[j]:
    N' formed exactly and p divided out of it, as the module docstring
    proves.  ``terms`` are f's :attr:`maps.StepPlan.terms`; each N_j^e is
    built once, on first use."""
    powers = {}
    out_ks, out_nums = [], []
    for component in terms:
        weights = [sum(map(mul, mono, ks)) for _, mono, _ in component]
        top = max(weights)
        total = 0
        for (c, _, pairs), w in zip(component, weights):
            for pair in pairs:
                power = powers.get(pair)
                if power is None:
                    power = powers[pair] = nums[pair[0]] ** pair[1]
                c *= power
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


def _enclosed_tail(plan, p, ks, nums, n0, n_max, caps) -> tuple[list, list] | None:
    """:func:`orbit_tail`'s rows past f^n0(P) = (nums[i] / p^ks[i])_i, every
    ks[i] > 0, on enclosures, or None when a decision is open; ``plan`` is
    f's ``maps.StepPlan``."""
    residues = [num % p for num in nums]
    nums = [_cut(num, num, 0) for num in nums]
    powers = {}  # p^m by m, shared by the whole tail
    sigs, rows = [], []
    for n in range(n0, n_max):
        sizes = []
        for num, k in zip(nums, ks):
            size = _bits(_abs(num)), _bits(_prime_power(p, k, powers))
            if None in size:
                return None
            sizes.append(size)
        caps.check(f"orbit step {n + 1}", bits=plan.bound(sizes), last_safe_n=n)
        factors = {}  # the step's N_j^e, built on first use
        images = []
        for terms in plan.terms:
            image = _component_step(terms, ks, residues, nums, factors, p, powers)
            if image is None:
                return None
            images.append(image)
        ks, residues, nums = zip(*images)
        height = _height(ks, nums, p, powers)
        if height is None:
            return None
        sigs.append(ks)
        rows.append(heights.height_row(n + 1, height, plan.delta))
    return sigs, rows


def _component_step(terms, ks, residues, nums, factors, p, powers) -> tuple | None:
    """(k', N' mod p, enclosure of N') of one component at the carried
    point, or None when N' mod p is 0; ``terms`` are the component's entry
    of ``maps.StepPlan.terms``, ``factors`` the step's :func:`_factor` by
    (j, e) and ``powers`` the tail's p^m by m.

    The sum brings every term, exact and uncut, to the scale 2^u of the
    finest, unless that would give the largest more than ENCLOSURE_BITS
    bits: then u keeps it at ENCLOSURE_BITS.  A term on a scale at or above
    u is shifted up exactly, one below it is rounded outward, and the sum
    is cut once.
    """
    weights = [sum(map(mul, mono, ks)) for _, mono, _ in terms]
    top = max(weights)
    residue, width, finest, parts = 0, 0, math.inf, []
    for (c, _, pairs), w in zip(terms, weights):
        negative, lo, s, r = c < 0, abs(c), 0, c
        hi = lo
        for pair in pairs:
            factor = factors.get(pair)
            if factor is None:
                factor = factors[pair] = _factor(nums, residues, pair, p)
            sign, a, b, t, rj = factor
            negative ^= sign
            lo, hi, s, r = lo * a, hi * b, s + t, r * rj
        if w == top:
            residue += r
        elif p == 2:  # the exact 2^(W - w) only moves the scale
            s += top - w
        else:
            a, b, t = _prime_power(p, top - w, powers)
            lo, hi, s = lo * a, hi * b, s + t
        parts.append((negative, lo, hi, s))
        if hi.bit_length() + s > width:
            width = hi.bit_length() + s
        if s < finest:
            finest = s
    residue %= p
    if not residue:
        return None
    u = max(finest, width - ENCLOSURE_BITS)
    total_lo = total_hi = 0
    for negative, lo, hi, s in parts:
        if s >= u:
            lo, hi = lo << s - u, hi << s - u
        else:
            lo, hi = lo >> u - s, -(-hi >> u - s)
        if negative:
            total_lo, total_hi = total_lo - hi, total_hi - lo
        else:
            total_lo, total_hi = total_lo + lo, total_hi + hi
    return top, residue, _cut(total_lo, total_hi, u)


def _factor(nums, residues, pair, p) -> tuple:
    """(sign, lo, hi, s, r) of N_j^e for (j, e) = ``pair``: the powers
    [lo 2^s, hi 2^s] of the ends of |N_j|'s enclosure, which holds no 0,
    uncut, the sign of N_j^e, and N_j^e mod p."""
    (j, e), (lo, hi, s) = pair, nums[pair[0]]
    if hi < 0:
        return e % 2 == 1, (-hi) ** e, (-lo) ** e, s * e, pow(residues[j], e, p)
    return False, lo**e, hi**e, s * e, pow(residues[j], e, p)


def _height(ks, nums, p, powers) -> heights.Height | None:
    """The certified height of (N_i / p^k_i)_i, or None when it is open;
    ``powers`` is the tail's dict of p^m.

    A candidate whose upper end has a lower bit position than the largest
    lower end holds neither largest end, so only the others are brought to
    the finest scale among them, each exactly.
    """
    top = max(ks)
    candidates = [_prime_power(p, top, powers)]
    for num, k in zip(nums, ks):
        size = _abs(num)
        if size is None:
            return None
        if k == top:
            candidates.append(size)
        elif p == 2:
            candidates.append((size[0], size[1], size[2] + top - k))
        else:
            a, b, t = _prime_power(p, top - k, powers)
            candidates.append((size[0] * a, size[1] * b, size[2] + t))
    floor = max([lo.bit_length() + s for lo, _, s in candidates])
    candidates = [c for c in candidates if c[1].bit_length() + c[2] >= floor]
    u = min([s for _, _, s in candidates])
    lo, hi, s = _cut(
        max([lo << s - u for lo, _, s in candidates]),
        max([hi << s - u for _, hi, s in candidates]),
        u,
    )
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
    """The exact product of two enclosures with lower ends >= 0, uncut: its
    ends are a c and b d."""
    (a, b, s), (c, d, t) = x, y
    return a * c, b * d, s + t


def _pow(x: Enclosure, e: int) -> Enclosure:
    """x^e for x with lower end >= 0 and e >= 0, by left-to-right
    square-and-multiply, cut after each product.

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
