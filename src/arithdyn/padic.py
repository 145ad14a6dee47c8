"""p-adic valuations and the sector construction certifying height growth.

For a triangular map whose coefficients are all p-adic units and whose
diagonal degrees strictly decrease, the open sector

    U = { (x_1, ..., x_N) : |x_i|_p > |x_{i+1}|_p^C > 1 }      (C > N * max deg)

is stable under the map, the lexicographically dominant monomial of each
component controls the valuation of the image coordinate exactly, and the
first coordinate's valuation grows at rate d_{1,1}^n.  That growth floor
feeds the lower canonical-height certificate.

For N = 1 the chain condition is vacuous; membership is defined there as
|x_1|_p > 1, which keeps the growth floor valid.  Valuations are computed
directly on rational numbers (no completions are ever needed for
rational-coordinate points).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .degrees import degree_matrix
from .maps import AffinePoint, Orbit, TriangularMap, as_point
from .qpoly import Monomial

INFINITY = math.inf


class NotPrimeError(ValueError):
    pass


class NotInSectorError(ValueError):
    pass


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
    """Exact p-adic valuation of a rational; +inf for zero."""
    if not is_prime(p):
        raise NotPrimeError(f"{p} is not prime")
    x = Fraction(x)
    if x == 0:
        return INFINITY
    return _prime_power_valuation(abs(x.numerator), p) - _prime_power_valuation(
        x.denominator, p
    )


def is_unit(x: Fraction | int, p: int) -> bool:
    return vp(x, p) == 0


def find_unit_prime(f: TriangularMap, start: int = 2) -> int:
    """Smallest prime >= start at which every coefficient of f is a unit."""
    p = next_prime(start)
    while True:
        if all(is_unit(c, p) for comp in f.components for c in comp.coefficients()):
            return p
        p = next_prime(p + 1)


def choose_C(f: TriangularMap) -> int:
    """Minimal integer strictly above N * max_{i,j} deg_{x_i} f_j."""
    return f.dimension * degree_matrix(f).max_entry() + 1


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
    if prime is None:
        prime = find_unit_prime(f)
    else:
        if not is_prime(prime):
            raise NotPrimeError(f"{prime} is not prime")
        bad = [
            c
            for comp in f.components
            for c in comp.coefficients()
            if not is_unit(c, prime)
        ]
        if bad:
            raise ValueError(f"coefficient {bad[0]} is not a {prime}-adic unit")
    minimal = choose_C(f)
    if C is None:
        C = minimal
    elif C < minimal:
        raise ValueError(f"C={C} violates the bound C > N*max_deg (need >= {minimal})")
    return SectorConfig(prime=prime, C=C, dimension=f.dimension)


def in_U(point: Sequence[Fraction], cfg: SectorConfig) -> bool:
    """Sector membership: -v(x_i) > C * -v(x_{i+1}) > 0 along the chain.

    For N = 1 this degenerates to |x_1|_p > 1.
    """
    return _signature_in_U(valuation_signature(point, cfg), cfg)


def _signature_in_U(sizes: Sequence, cfg: SectorConfig) -> bool:
    """Sector membership read from a valuation signature (-v(x_i))_i."""
    if len(sizes) != cfg.dimension:
        raise ValueError(f"point has {len(sizes)} coordinates, expected {cfg.dimension}")
    if cfg.dimension == 1:
        return sizes[0] > 0
    for i in range(cfg.dimension - 1):
        if not (sizes[i] > cfg.C * sizes[i + 1] > 0):
            return False
    return True


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
    rng = random.Random(seed)
    base = minimal_signature(cfg)
    p = cfg.prime

    def unit_numerator() -> int:
        while True:
            a = rng.randrange(1, 10 * p)
            if a % p:
                return a

    points = []
    for k in range(count):
        exps = list(base)
        exps[0] += k
        coords = tuple(
            Fraction(unit_numerator(), p**e) for e in exps
        )
        point = coords
        assert in_U(point, cfg)
        points.append(point)
    return points


def valuation_signature(point: Sequence[Fraction], cfg: SectorConfig) -> tuple:
    return tuple(-vp(c, cfg.prime) for c in as_point(point))


def dominant_monomial(f: TriangularMap, i: int) -> Monomial:
    """Lexicographically maximal monomial of f_i; its x_i-exponent is d_{i,i}.

    A validated f_i involves no variable before x_i, so the lex order compares
    x_i-exponents first and the maximum carries the diagonal degree.
    """
    if not 1 <= i <= f.dimension:
        raise IndexError(f"component index {i} out of range 1..{f.dimension}")
    return max(f.components[i - 1].terms)


@dataclass(frozen=True)
class PointStability:
    point: AffinePoint
    image: AffinePoint
    signature_before: tuple
    signature_after: tuple
    image_in_U: bool
    first_coordinate_is_max: bool

    @property
    def ok(self) -> bool:
        return self.image_in_U and self.first_coordinate_is_max


@dataclass
class StabilityReport:
    cfg: SectorConfig
    results: list

    @property
    def all_ok(self) -> bool:
        return all(r.ok for r in self.results)


def verify_stability(cfg: SectorConfig, orbits: Sequence[Orbit]) -> StabilityReport:
    """Check f(P) stays in the sector and its first coordinate is p-adically largest.

    Each sample's orbit has at least one step: P = points[0], f(P) = points[1].
    """
    results = []
    for orb in orbits:
        point, image = orb.points[0], orb.points[1]
        sig_before = valuation_signature(point, cfg)
        if not _signature_in_U(sig_before, cfg):
            raise NotInSectorError(f"sample {point} is not in the sector")
        sig_after = valuation_signature(image, cfg)
        results.append(
            PointStability(
                point=point,
                image=image,
                signature_before=sig_before,
                signature_after=sig_after,
                image_in_U=_signature_in_U(sig_after, cfg),
                first_coordinate_is_max=sig_after[0] == max(sig_after),
            )
        )
    return StabilityReport(cfg=cfg, results=results)


@dataclass(frozen=True)
class DominantValueRow:
    component: int
    lhs: float  # v(x_i of f(P))
    rhs: float  # d_{i,i} v(x_i) + sum_l e_{i,l} v(x_l)
    equal: bool


@dataclass
class DominantValueReport:
    point: AffinePoint
    rows: list

    @property
    def all_ok(self) -> bool:
        return all(r.equal for r in self.rows)


def verify_dominant_value(cfg: SectorConfig, orb: Orbit) -> DominantValueReport:
    """Exact valuation identity: the image coordinate's valuation equals the
    dominant monomial evaluated in valuation form.

    ``orb`` has at least one step: P = points[0], f(P) = points[1], f = orb.map.
    """
    f = orb.map
    point, image = orb.points[0], orb.points[1]
    p = cfg.prime
    vals = [vp(c, p) for c in point]
    if not _signature_in_U([-v for v in vals], cfg):
        raise NotInSectorError(f"point {point} is not in the sector")
    rows = []
    for i in range(1, f.dimension + 1):
        mono = dominant_monomial(f, i)
        lhs = vp(image[i - 1], p)
        rhs = sum(e * v for e, v in zip(mono, vals) if e)
        rows.append(DominantValueRow(component=i, lhs=lhs, rhs=rhs, equal=lhs == rhs))
    return DominantValueReport(point=point, rows=rows)


def image_first_exponent_floor(f: TriangularMap, cfg: SectorConfig) -> int:
    """Minimum of -v(x_1 of f(Q)) over all sector points Q.

    By the dominant-monomial identity, -v(x_1(f(Q))) = d_{1,1}*(-v q_1)
    + sum_l e_{1,l}*(-v q_l); it is minimized at the minimal signature.
    """
    mono = dominant_monomial(f, 1)
    base = minimal_signature(cfg)
    return sum(e * m for e, m in zip(mono, base))


def u_minus_fu_witness(f: TriangularMap, cfg: SectorConfig) -> AffinePoint:
    """A sector point that cannot be the image of a sector point.

    Only applies to maps with strictly decreasing diagonal degrees.  The
    witness has the minimal valuation signature; its first exponent lies
    strictly below the floor achievable by one application of f.
    """
    diag = degree_matrix(f).diagonal()
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


@dataclass(frozen=True)
class GrowthRow:
    n: int
    valuation: int  # v(x_2 at step n)
    expected: int  # d_{2,2}^n * v(x_2 at step 0)
    equal: bool
    in_halfplane: bool  # |x_2|_p > 1 preserved


@dataclass
class GrowthReport:
    rows: list

    @property
    def all_ok(self) -> bool:
        return all(r.equal and r.in_halfplane for r in self.rows)


def case_n2_growth(cfg: SectorConfig, orb: Orbit) -> GrowthReport:
    """Exact second-coordinate valuation growth for N = 2, d_{1,1} <= d_{2,2},
    read along the orbit ``orb`` for n = 1..len(orb)-1.

    On the half-plane |x_2|_p > 1 the last coordinate's valuation multiplies
    by exactly d_{2,2} each step, with no tolerance.
    """
    f = orb.map
    if f.dimension != 2:
        raise ValueError("this construction is specific to N = 2")
    diag = degree_matrix(f).diagonal()
    if diag[0] > diag[1]:
        raise ValueError("needs d_{1,1} <= d_{2,2}; use the sector construction otherwise")
    p = cfg.prime
    v0 = vp(orb.start[1], p)
    if not (v0 < 0):
        raise NotInSectorError("second coordinate must satisfy |x_2|_p > 1")
    d22 = diag[1]
    rows = []
    for n in range(1, len(orb)):
        v = vp(orb.points[n][1], p)
        expected = d22**n * v0
        rows.append(
            GrowthRow(
                n=n, valuation=v, expected=expected, equal=v == expected, in_halfplane=v < 0
            )
        )
    return GrowthReport(rows=rows)


def sector_report_csv(
    cfg: SectorConfig,
    orbits: Sequence[Orbit],
    stability: StabilityReport,
    dominant: Sequence,
    n_max: int,
) -> str:
    """Per-point CSV: valuation signatures along each orbit plus stability flags.

    ``orbits[k]`` reaches at least f^{n_max} of sample k; ``stability`` and
    ``dominant`` are the sample's verify_stability and verify_dominant_value
    reports, in the same order.
    """
    header = ["point_id"]
    header += [f"e{i}" for i in range(1, cfg.dimension + 1)]
    for n in range(1, n_max + 1):
        header += [f"neg_v_x{i}_n{n}" for i in range(1, cfg.dimension + 1)]
    header += ["stable_ok", "dominant_ok"]
    lines = [",".join(header)]
    for pid, (orb, stable, dom) in enumerate(zip(orbits, stability.results, dominant)):
        row = [str(pid)]
        for point in orb.points[: n_max + 1]:
            row += [str(e) for e in valuation_signature(point, cfg)]
        row += [str(stable.ok).lower(), str(dom.all_ok).lower()]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
