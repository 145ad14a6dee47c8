"""Triangular polynomial self-maps of affine N-space over the rationals.

A triangular map f = (f_1, ..., f_N) has f_i depending only on the variables
x_i, ..., x_N, with deg_{x_i} f_i >= 1 for every i.  The dominance criterion
is documented with TriangularMap: positive diagonal degrees make f_1, ..., f_N
algebraically independent (eliminate variables from the bottom up), while a
zero diagonal degree leaves f_i, ..., f_N as N-i+1 polynomials in N-i
variables, hence algebraically dependent.

Everything here is pure and exact.  Orbit computation is sequential in n;
distinct starting points may be processed in parallel with no coordination.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Sequence

from .qpoly import (
    DimensionMismatchError,
    Polynomial,
    ResourceLimitError,
    parse_polynomial,
    rational,
)

AffinePoint = tuple  # tuple[Fraction, ...]


class NotTriangularError(ValueError):
    """Component i uses a variable x_j with j < i."""

    def __init__(self, component: int, variable: int):
        super().__init__(
            f"component {component} involves x{variable}: not triangular at "
            f"({component},{variable})"
        )
        self.component = component
        self.variable = variable


class NotDominantError(ValueError):
    """Component i has deg_{x_i} f_i = 0, so the map cannot be dominant."""

    def __init__(self, component: int):
        super().__init__(f"component {component} has degree 0 in x{component}: not dominant")
        self.component = component


@dataclass(frozen=True)
class ResourceCaps:
    """Hard budgets for symbolic iteration and orbit coordinates.

    Defaults: 10**6 terms per polynomial, 10**7 bits per orbit coordinate.
    """

    max_terms: int = 10**6
    max_coeff_bits: int = 10**7


DEFAULT_CAPS = ResourceCaps()


class TriangularMap:
    """A validated triangular self-map of affine N-space."""

    __slots__ = ("dimension", "components")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        n = len(components)
        for i, f in enumerate(components, start=1):
            if f.dimension != n:
                raise DimensionMismatchError(
                    f"component {i} has dimension {f.dimension}, expected {n}"
                )
            for j in range(1, i):
                if f.degree_in_var(j) != 0:
                    raise NotTriangularError(i, j)
            if f.degree_in_var(i) == 0:
                raise NotDominantError(i)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "components", components)

    def __setattr__(self, name, value):
        raise AttributeError("TriangularMap is immutable")

    def __eq__(self, other):
        if not isinstance(other, TriangularMap):
            return NotImplemented
        return self.components == other.components

    def __hash__(self):
        return hash(self.components)

    def __repr__(self):
        comps = ", ".join(f.to_text() for f in self.components)
        return f"TriangularMap([{comps}])"

    def apply(self, point: Sequence[Fraction]) -> AffinePoint:
        """One exact step: (f_1(P), ..., f_N(P))."""
        point = as_point(point)
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.dimension}"
            )
        return tuple(f.evaluate(point) for f in self.components)

    def compose(self, inner: "TriangularMap", caps: ResourceCaps = DEFAULT_CAPS) -> "TriangularMap":
        """The composition self after inner, expanded to canonical form."""
        if self.dimension != inner.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {inner.dimension}"
            )
        composed = [
            f.substitute(inner.components, max_terms=caps.max_terms)
            for f in self.components
        ]
        return TriangularMap(composed)


def triangular_map(texts: Sequence[str]) -> TriangularMap:
    """Convenience constructor from component text, e.g. ['x1^3+x2', 'x2^2+1']."""
    n = len(texts)
    return TriangularMap([parse_polynomial(t, n) for t in texts])


def as_point(values: Sequence) -> AffinePoint:
    """Coerce a sequence of rational-like values to an exact affine point."""
    return tuple(rational(v) for v in values)


def iterates(
    f: TriangularMap, t: int, caps: ResourceCaps = DEFAULT_CAPS
) -> Iterator[TriangularMap]:
    """Yield f, f o f, ..., f^t; a cap hit carries the last yielded n as ``last_safe_n``."""
    current = f
    yield current
    for n in range(1, t):
        try:
            current = f.compose(current, caps)
        except ResourceLimitError as err:
            err.metadata.setdefault("last_safe_n", n)
            raise
        yield current


def iterate_symbolic(
    f: TriangularMap, t: int, caps: ResourceCaps = DEFAULT_CAPS
) -> TriangularMap:
    """The t-fold composition of f with itself as an explicit map, t >= 1."""
    if t < 1:
        raise ValueError(f"iteration count must be >= 1, got {t}")
    for current in iterates(f, t, caps):
        pass
    return current


@dataclass
class Orbit:
    """Exact forward-orbit prefix: points[n] = f^n(start), points[0] = start."""

    map: TriangularMap
    start: AffinePoint
    points: list = field(default_factory=list)

    def __len__(self):
        return len(self.points)


def orbit(
    f: TriangularMap,
    start: Sequence[Fraction],
    n_max: int,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> Orbit:
    """Compute [P, f(P), ..., f^{n_max}(P)] exactly.

    Raises ResourceLimitError carrying the last safe n if a coordinate's
    bit-size exceeds caps.max_coeff_bits.
    """
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    point = as_point(start)
    if len(point) != f.dimension:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, expected {f.dimension}"
        )
    points = [point]
    for n in range(n_max):
        point = f.apply(point)
        bits = max(
            c.numerator.bit_length() + c.denominator.bit_length() for c in point
        )
        if bits > caps.max_coeff_bits:
            raise ResourceLimitError(
                f"orbit coordinate reached {bits} bits at step {n + 1}, "
                f"cap is {caps.max_coeff_bits}",
                last_safe_n=n,
                bits=bits,
                max_coeff_bits=caps.max_coeff_bits,
            )
        points.append(point)
    return Orbit(map=f, start=points[0], points=points)


def orbits_disjoint_prefix(o1: Orbit, o2: Orbit) -> bool:
    """True iff no point of o1 equals any point of o2 (exact comparison)."""
    if o1.map.dimension != o2.map.dimension:
        raise DimensionMismatchError("orbits live in different dimensions")
    seen = set(o1.points)
    return not any(p in seen for p in o2.points)


# -- wire formats ------------------------------------------------------


def map_to_json_dict(f: TriangularMap) -> dict:
    return {
        "dimension": f.dimension,
        "components": [c.to_text() for c in f.components],
    }


def map_from_json_dict(doc: dict) -> TriangularMap:
    texts = doc.get("components") if isinstance(doc, dict) else None
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise ValueError(
            "map description must be a JSON object with a 'components' list of strings"
        )
    dimension = doc.get("dimension")
    if type(dimension) is not int or dimension < 1:
        raise ValueError(f"map 'dimension' must be an integer >= 1, got {dimension!r}")
    if len(texts) != dimension:
        raise DimensionMismatchError(f"{len(texts)} components for dimension {dimension}")
    return TriangularMap([parse_polynomial(text, dimension) for text in texts])


def map_to_json(f: TriangularMap) -> str:
    return json.dumps(map_to_json_dict(f), sort_keys=True)


def map_from_json(text: str) -> TriangularMap:
    return map_from_json_dict(json.loads(text))


def orbit_to_csv(o: Orbit) -> str:
    """CSV with columns n, x1_num, x1_den, ..., xN_num, xN_den."""
    n_vars = o.map.dimension
    header = ["n"]
    for i in range(1, n_vars + 1):
        header += [f"x{i}_num", f"x{i}_den"]
    lines = [",".join(header)]
    for n, point in enumerate(o.points):
        row = [str(n)]
        for c in point:
            row += [str(c.numerator), str(c.denominator)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def points_from_csv(text: str) -> list[AffinePoint]:
    """Parse the orbit CSV column layout back into affine points."""
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        return []
    header = lines[0].split(",")
    has_n = header[0].strip() == "n"
    points = []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if has_n:
            cells = cells[1:]
        if len(cells) % 2:
            raise ValueError(f"odd number of num/den cells in row {ln!r}")
        if any(int(den) == 0 for den in cells[1::2]):
            raise ValueError(f"zero denominator in row {ln!r}")
        coords = [
            Fraction(int(cells[k]), int(cells[k + 1])) for k in range(0, len(cells), 2)
        ]
        points.append(tuple(coords))
    return points
