"""p-adic valuations and the sector construction certifying height growth.

For a triangular map whose coefficients are all p-adic units and whose
diagonal degrees strictly decrease, the open sector

    U = { (x_1, ..., x_N) : |x_i|_p > |x_{i+1}|_p^C > 1 }      (C > N * max deg)

is stable under the map, the lexicographically dominant monomial of each
component controls the valuation of the image coordinate exactly, and the
first coordinate's valuation grows at rate d_{1,1}^n.  That growth floor
feeds the lower canonical-height certificate.

In signature form, s_i = -v(x_i), membership is one chain: s_N > 0 and
s_i > C * s_{i+1} for every i < N; for N = 1 it reads |x_1|_p > 1, which
keeps the growth floor valid.  The checks return verdicts, bools read from
the valuation signatures a run already holds, and two conditions need no
check of their own: a point of U has its first coordinate p-adically
largest (C >= 1), and the exact N = 2 growth law keeps |x_2|_p > 1.
Valuations are computed directly on rational numbers (no completions are
ever needed for rational-coordinate points).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

from .degrees import diagonal_degrees
from .maps import AffinePoint, TriangularMap, as_point, csv_text
from .qpoly import Monomial

INFINITY = math.inf


class NotPrimeError(ValueError):
    pass


class NotInSectorError(ValueError):
    pass


_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MILLER_RABIN_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Exact primality by deterministic Miller-Rabin on the primes 2..41.

    With n - 1 = 2^s d, d odd, a prime n has a^d = 1 or a^(2^r d) = -1 mod n
    for some r < s, for every base a it does not divide.  Every composite
    n < ``_MILLER_RABIN_LIMIT`` fails that for one of the thirteen bases
    (Sorenson & Webster, Math. Comp. 86 (2017)); at or above the limit no
    base set is proved, so it raises ValueError rather than guess.
    """
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    if n >= _MILLER_RABIN_LIMIT:
        raise ValueError(f"{n} is beyond the deterministic primality bound {_MILLER_RABIN_LIMIT}")
    if n in _MILLER_RABIN_BASES:
        return True
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1:
            continue
        for _ in range(s):
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def next_prime(n: int) -> int:
    """Smallest prime >= n."""
    candidate = max(n, 2)
    while not is_prime(candidate):
        candidate += 1
    return candidate


def _prime_power_valuation(n: int, p: int) -> int:
    """Largest k with p^k | n, for nonzero n.

    Divides out p, p^2, p^4, ... so orbit coordinates with valuations in the
    hundreds of thousands cost O(log k) big divisions, not k.
    """
    if p == 2:
        return (n & -n).bit_length() - 1
    if n % p:
        return 0
    chain = [(p, 1)]
    while n % (chain[-1][0] * chain[-1][0]) == 0:
        q, e = chain[-1]
        chain.append((q * q, 2 * e))
    v = 0
    for q, e in reversed(chain):
        if n % q == 0:
            n //= q
            v += e
    return v


def vp(x: Fraction | int, p: int):
    """Exact p-adic valuation of a rational; +inf for zero.

    The one entry that tests a raw p.  A SectorConfig is the proof that its
    prime is prime, so the sector routines value coordinates with
    :func:`_valuation` and never re-test it.
    """
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    return _valuation(Fraction(x), p)


def _valuation(x: Fraction, p: int):
    """:func:`vp` for a p already proved prime."""
    if x == 0:
        return INFINITY
    return _prime_power_valuation(abs(x.numerator), p) - _prime_power_valuation(
        x.denominator, p
    )


def find_unit_prime(f: TriangularMap, start: int = 2) -> int:
    """Smallest prime >= start at which every coefficient of f is a unit."""
    p = next_prime(start)
    while True:
        if all(_valuation(c, p) == 0 for comp in f.components for c in comp.coefficients()):
            return p
        p = next_prime(p + 1)


def choose_C(f: TriangularMap) -> int:
    """Minimal integer strictly above N * max_{i,j} deg_{x_i} f_j, the
    largest exponent in any term of any component."""
    return f.dimension * max(max(mono) for c in f.components for mono in c.terms) + 1


@dataclass(frozen=True)
class SectorConfig:
    """A prime, the sector constant C, and the ambient dimension."""

    prime: int
    C: int
    dimension: int

    def __post_init__(self):
        if not is_prime(self.prime):
            raise NotPrimeError(f"{self.prime} is not prime")
        if self.C < 1:
            raise ValueError("C must be positive")
        if self.dimension < 1:
            raise ValueError("dimension must be >= 1")


def sector_config(
    f: TriangularMap, prime: int | None = None, C: int | None = None
) -> SectorConfig:
    """Build a SectorConfig for f, validating any overrides.

    The prime must make every coefficient of f a unit; C must strictly
    exceed N * max deg.  Defaults: the smallest unit prime and the minimal
    admissible C.
    """
    minimal = choose_C(f)
    cfg = SectorConfig(
        prime=find_unit_prime(f) if prime is None else prime,
        C=minimal if C is None else C,
        dimension=f.dimension,
    )
    if prime is not None:  # SectorConfig has proved it prime
        bad = [c for comp in f.components for c in comp.coefficients() if _valuation(c, prime)]
        if bad:
            raise ValueError(f"coefficient {bad[0]} is not a {prime}-adic unit")
    if cfg.C < minimal:
        raise ValueError(f"C={C} violates the bound C > N*max_deg (need >= {minimal})")
    return cfg


def in_U(point: Sequence[Fraction], cfg: SectorConfig) -> bool:
    """Sector membership: -v(x_i) > C * -v(x_{i+1}) > 0 along the chain.

    For N = 1 this degenerates to |x_1|_p > 1.
    """
    return _signature_in_U(valuation_signature(point, cfg.prime), cfg)


def _signature_in_U(sizes: Sequence, cfg: SectorConfig) -> bool:
    """Sector membership read from a valuation signature (-v(x_i))_i."""
    if len(sizes) != cfg.dimension:
        raise ValueError(f"point has {len(sizes)} coordinates, expected {cfg.dimension}")
    return sizes[-1] > 0 and all(
        sizes[i] > cfg.C * sizes[i + 1] for i in range(cfg.dimension - 1)
    )


def minimal_signature(cfg: SectorConfig) -> tuple:
    """Smallest exponent vector (e_1, ..., e_N) of a sector point.

    e_N = 1 and e_i = C*e_{i+1} + 1 going up the chain.
    """
    exps = [0] * cfg.dimension
    exps[-1] = 1
    for i in range(cfg.dimension - 2, -1, -1):
        exps[i] = cfg.C * exps[i + 1] + 1
    return tuple(exps)


def sample_U(cfg: SectorConfig, count: int, seed: int) -> list:
    """Deterministically sample ``count`` sector points.

    Coordinates are a_i / p^{e_i} with p-free numerators; the first exponent
    is offset per sample, so distinct samples in a batch carry pairwise
    distinct valuation signatures.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    base = minimal_signature(cfg)
    p = cfg.prime
    numerators = unit_numerators(p, seed)
    points = []
    for k in range(count):
        exps = list(base)
        exps[0] += k
        point = tuple(Fraction(next(numerators), p**e) for e in exps)
        assert in_U(point, cfg)
        points.append(point)
    return points


def unit_numerators(p: int, seed: int) -> Iterator[int]:
    """The seeded p-free numerators in [1, 10 p) of :func:`sample_U`, coordinate by coordinate."""
    rng = random.Random(seed)
    while True:
        a = rng.randrange(1, 10 * p)
        if a % p:
            yield a


def valuation_signature(point: Sequence[Fraction], p: int) -> tuple:
    """(-v_p(x_i))_i of ``point``, for a p already proved prime."""
    return tuple(-_valuation(c, p) for c in as_point(point))


def dominant_monomial(f: TriangularMap, i: int) -> Monomial:
    """Lexicographically maximal monomial of f_i; its x_i-exponent is d_{i,i}.

    A validated f_i involves no variable before x_i, so the lex order compares
    x_i-exponents first and the maximum carries the diagonal degree.
    """
    if not 1 <= i <= f.dimension:
        raise IndexError(f"component index {i} out of range 1..{f.dimension}")
    return max(f.components[i - 1].terms)


def image_signature(f: TriangularMap, sig: Sequence) -> tuple:
    """The valuation signature of f(Q) that the dominant monomials predict
    from the signature ``sig`` of Q: -v(x_i of f(Q)) = sum_l e_il * (-v(q_l)),
    with (e_il)_l the dominant monomial of f_i.

    A zero exponent is skipped, so it never meets an infinite entry.
    """
    return tuple(
        sum(e * s for e, s in zip(dominant_monomial(f, i), sig) if e)
        for i in range(1, f.dimension + 1)
    )


def verify_stability(cfg: SectorConfig, tables: Sequence[Sequence[tuple]]) -> list:
    """One verdict per sample P: f(P) lies in the sector.

    ``tables[k]`` is sample k's list of valuation signatures along its orbit,
    with at least two entries: P = f^0(P) and f(P).  A sample outside the
    sector raises NotInSectorError.

    f(P) in U also makes its first coordinate p-adically largest: a
    signature in U has s_1 > C*s_2 >= s_2 > ... > s_N > 0, since C >= 1.
    """
    verdicts = []
    for sig_before, sig_after, *_ in tables:
        if not _signature_in_U(sig_before, cfg):
            raise NotInSectorError(f"a sample with signature {sig_before} is not in the sector")
        verdicts.append(_signature_in_U(sig_after, cfg))
    return verdicts


def verify_dominant_value(f: TriangularMap, sigs: Sequence[tuple]) -> bool:
    """Exact valuation identity: the signature of f(P) is the one the
    dominant monomials predict from the signature of P.

    ``sigs`` is the valuation signature list of an orbit of f from a sector
    point P, with at least two entries: P = f^0(P) and f(P).
    """
    return image_signature(f, sigs[0]) == tuple(sigs[1])


def image_first_exponent_floor(f: TriangularMap, cfg: SectorConfig) -> int:
    """Minimum of -v(x_1 of f(Q)) over all sector points Q: by the
    dominant-monomial identity it is reached at the minimal signature."""
    return image_signature(f, minimal_signature(cfg))[0]


def u_minus_fu_witness(f: TriangularMap, cfg: SectorConfig) -> AffinePoint:
    """A sector point that cannot be the image of a sector point.

    Only applies to maps with strictly decreasing diagonal degrees.  The
    witness has the minimal valuation signature; its first exponent lies
    strictly below the floor achievable by one application of f.
    """
    diag = diagonal_degrees(f)
    if any(diag[i] <= diag[i + 1] for i in range(len(diag) - 1)):
        raise ValueError("witness construction needs strictly decreasing diagonal degrees")
    base = minimal_signature(cfg)
    floor = image_first_exponent_floor(f, cfg)
    if base[0] >= floor:
        raise ValueError(
            f"no certified witness: minimal sector exponent {base[0]} is not "
            f"below the image floor {floor}"
        )
    point = tuple(Fraction(1, cfg.prime**e) for e in base)
    assert in_U(point, cfg)
    return point


def case_n2_growth(f: TriangularMap, sigs: Sequence[tuple]) -> list:
    """Exact second-coordinate valuation growth for N = 2, d_{1,1} <= d_{2,2},
    read from the valuation signatures ``sigs`` of an orbit of f, n = 0..n_max:
    rows (n, v, expected) for n = 1..n_max, with v = v(x_2 at step n) and
    expected = d_{2,2}^n * v(x_2 at step 0).

    On the half-plane |x_2|_p > 1 the last coordinate's valuation multiplies
    by exactly d_{2,2} each step, with no tolerance.  v == expected keeps the
    orbit in the half-plane: v0 < 0 and d_{2,2} >= 1 make expected < 0.
    """
    if f.dimension != 2:
        raise ValueError("this construction is specific to N = 2")
    diag = diagonal_degrees(f)
    if diag[0] > diag[1]:
        raise ValueError("needs d_{1,1} <= d_{2,2}; use the sector construction otherwise")
    v0, *vals = [-sig[1] for sig in sigs]
    if not (v0 < 0):
        raise NotInSectorError("second coordinate must satisfy |x_2|_p > 1")
    return [(n, v, diag[1] ** n * v0) for n, v in enumerate(vals, start=1)]


def sector_report_csv(
    cfg: SectorConfig,
    tables: Sequence[Sequence[tuple]],
    stable: Sequence[bool],
    dominant: Sequence[bool],
    n_max: int,
) -> str:
    """Per-point CSV: valuation signatures along each orbit plus stability flags.

    ``tables[k]`` is sample k's signature list, reaching at least f^{n_max};
    ``stable`` and ``dominant`` are the samples' verify_stability and
    verify_dominant_value verdicts, in the same order.
    """
    header = ["point_id"]
    header += [f"e{i}" for i in range(1, cfg.dimension + 1)]
    for n in range(1, n_max + 1):
        header += [f"neg_v_x{i}_n{n}" for i in range(1, cfg.dimension + 1)]
    header += ["stable_ok", "dominant_ok"]
    rows = (
        [pid, *(e for sig in sigs[: n_max + 1] for e in sig), stable_ok, dominant_ok]
        for pid, (sigs, stable_ok, dominant_ok) in enumerate(zip(tables, stable, dominant))
    )
    return csv_text(header, rows)
