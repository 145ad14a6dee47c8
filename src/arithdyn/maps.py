"""Triangular polynomial self-maps of affine N-space over the rationals.

A triangular map f = (f_1, ..., f_N) has f_i depending only on the variables
x_i, ..., x_N, with deg_{x_i} f_i >= 1 for every i.  The dominance criterion
is documented with TriangularMap: positive diagonal degrees make f_1, ..., f_N
algebraically independent (eliminate variables from the bottom up), while a
zero diagonal degree leaves f_i, ..., f_N as N-i+1 polynomials in N-i
variables, hence algebraically dependent.

Everything here is pure and exact: an orbit is a list of exact rational
points.  The run modes walk an orbit this way only where ``orbit_tail``
cannot carry it: for a map with integer coefficients and a start whose
denominators are powers of one prime p, ``orbit_tail`` walks the prefix
they print on exact integer pairs (k, N), x = N / p^k, and past it carries
each coordinate as its exact p-adic valuation, its numerator mod p and a
rounded enclosure of the numerator, which certify exact valuations and
height read-outs without forming the rationals.  Orbit computation is
sequential in n; distinct starting points may be processed in parallel
with no coordination.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from fractions import Fraction
from operator import methodcaller, mul

from .qpoly import (
    DEFAULT_CAPS,
    DimensionMismatchError,
    Polynomial,
    ResourceCaps,
    ResourceLimitError,
    parse_polynomial,
    rational,
    rational_pairs,
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


class TriangularMap:
    """A validated triangular self-map of affine N-space.

    ``degree_rows[i][j]`` is deg_{x_(j+1)} f_(i+1), one row per component,
    read from its terms once here; the checks and every degree reader use it.
    """

    __slots__ = ("dimension", "components", "degree_rows")

    def __init__(self, components: Sequence[Polynomial]):
        components = tuple(components)
        if not components:
            raise ValueError("a map needs at least one component")
        n = len(components)
        rows = []
        for i, f in enumerate(components, start=1):
            if f.dimension != n:
                raise DimensionMismatchError(
                    f"component {i} has dimension {f.dimension}, expected {n}"
                )
            row = tuple(map(max, zip(*f.terms))) or (0,) * n
            for j, d in enumerate(row[: i - 1], start=1):
                if d:
                    raise NotTriangularError(i, j)
            if not row[i - 1]:
                raise NotDominantError(i)
            rows.append(row)
        object.__setattr__(self, "dimension", n)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "degree_rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("TriangularMap is immutable")

    def __reduce__(self):
        return TriangularMap, (self.components,)

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
        return tuple(f.evaluate(point) for f in self.components)

    def compose(self, inner: "TriangularMap", caps: ResourceCaps = DEFAULT_CAPS) -> "TriangularMap":
        """The composition self after inner, expanded to canonical form."""
        if self.dimension != inner.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {inner.dimension}"
            )
        return TriangularMap([f.substitute(inner.components, caps) for f in self.components])


def diagonal_degrees(f: TriangularMap) -> tuple:
    """The diagonal degrees (deg_{x_i} f_i)_i, each at least 1."""
    return tuple(row[i] for i, row in enumerate(f.degree_rows))


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


def orbit(
    f: TriangularMap,
    start: Sequence[Fraction],
    n_max: int,
    caps: ResourceCaps = DEFAULT_CAPS,
) -> list[AffinePoint]:
    """Compute the exact orbit prefix [P, f(P), ..., f^{n_max}(P)], stepped
    under ``caps`` by :func:`exact_steps`."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    point = as_point(start)
    if len(point) != f.dimension:
        raise DimensionMismatchError(
            f"point has {len(point)} coordinates, expected {f.dimension}"
        )
    return [point, *exact_steps(f, point, 0, n_max, caps)]


def exact_steps(
    f: TriangularMap, point: AffinePoint, n: int, n_max: int, caps: ResourceCaps
) -> Iterator[AffinePoint]:
    """Yield f^(n+1)(P), ..., f^(n_max)(P) from ``point`` = f^n(P).

    Before each step, :func:`step_bits_bound` bounds the bit size of the
    coordinates it would make, from f's terms summed once per call, and
    ``caps.check("orbit step m", ...)`` refuses a step m whose bound exceeds
    caps.max_coeff_bits before it is computed; the ResourceLimitError
    carries the last safe n, m - 1.
    """
    bound = step_bits_bound(f)
    for n in range(n, n_max):
        caps.check(f"orbit step {n + 1}", bits=bound(coordinate_bits(point)), last_safe_n=n)
        point = f.apply(point)
        yield point


def coordinate_bits(point: AffinePoint) -> list[tuple[int, int]]:
    """(bits of the numerator, bits of the denominator) of each reduced coordinate."""
    return [(c.numerator.bit_length(), c.denominator.bit_length()) for c in point]


def step_bits_bound(f: TriangularMap) -> Callable[[Sequence[tuple[int, int]]], int]:
    """A bound on bits(num) + bits(den) of each coordinate of f(Q), known
    without computing f(Q), as a function of the sizes (bits(n_j), bits(d_j))
    of Q's reduced coordinates n_j / d_j (:func:`coordinate_bits`); f's
    terms are summed once.

    Proof, from the homogenisation of ``qpoly._horner_integer``.  For a
    component f_i let M be its denominator ``den``, the lcm of its
    coefficient denominators, C_a = M c_a its numerators and deg_j its degree
    in x_j (``f.degree_rows[i - 1][j - 1]``).  Then f_i(Q) = N / D with
    D = M prod_j d_j^deg_j and N = sum_a C_a prod_j n_j^a_j d_j^(deg_j - a_j),
    so |N| <= sum_a |C_a| prod_j max(|n_j|, d_j)^deg_j.  The reduced
    numerator and denominator divide N and D (a zero value is 0/1), and
    bits(x y) <= bits(x) + bits(y), so

        bits(num) + bits(den) <= bits(sum_a |C_a|) + bits(M)
                                 + sum_j deg_j (bits(max(|n_j|, d_j)) + bits(d_j)).
    """
    terms = [
        (sum(map(abs, p.terms.values())).bit_length() + p.den.bit_length(), degs)
        for p, degs in zip(f.components, f.degree_rows)
    ]

    def bound(sizes: Sequence[tuple[int, int]]) -> int:
        widths = [max(num, den) + den for num, den in sizes]
        return max(w + sum(map(mul, degs, widths)) for w, degs in terms)

    return bound


def leading_residue(terms: Sequence, weights: Sequence[int], residues: Sequence[int], q: int):
    """(w, W, r) of sum_a c_a x^a, each of ``terms`` starting (c_a, the (j, a_j)
    with a_j > 0): w lists the weights sum_j a_j weights[j] of the terms, W is
    the top one, and r = sum of c_a prod_j residues[j]^a_j mod q over the
    terms of weight W (the degree certificate's weights are D_j, a tail's k_j).
    """
    ws = [sum(e * weights[j] for j, e in term[1]) for term in terms]
    top = max(ws)
    lead = sum(
        term[0] * math.prod(pow(residues[j], e, q) for j, e in term[1])
        for term, w in zip(terms, ws)
        if w == top
    )
    return ws, top, lead % q


def orbits_disjoint_prefix(*orbits: Sequence[AffinePoint]) -> bool:
    """True iff no point lies in two of the orbits, each a list of points
    (exact comparison); a point may repeat inside one orbit.

    A point is keyed by its coordinates' (numerator, denominator) pairs: a
    Fraction is kept reduced with a positive denominator, so two points are
    equal exactly when their keys are, and a pair of ints hashes without
    the modular inverse that a Fraction's hash takes.  Each key is hashed
    once: the union reuses the hashes its sets store."""
    if len({len(points[0]) for points in orbits if points}) > 1:
        raise DimensionMismatchError("orbits live in different dimensions")
    ratios = methodcaller("as_integer_ratio")
    sets = [{tuple(map(ratios, q)) for q in points} for points in orbits]
    return len(set().union(*sets)) == sum(map(len, sets))


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


def _cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return "" if value is None else str(value)


def csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    """The header line, then one line per row, each ending in a newline.

    A bool cell reads ``true`` or ``false``, None reads empty, and any other
    cell reads as its ``str``, which for a float is its ``repr``.
    """
    return "".join(",".join(map(_cell, line)) + "\n" for line in [header, *rows])


def orbit_to_csv(points: Sequence[AffinePoint]) -> str:
    """CSV with columns n, x1_num, x1_den, ..., xN_num, xN_den, one row per
    point of the nonempty orbit ``points``."""
    header = ["n", *(f"x{i}_{c}" for i in range(1, len(points[0]) + 1) for c in ("num", "den"))]
    rows = (
        [n, *(v for c in point for v in (c.numerator, c.denominator))]
        for n, point in enumerate(points)
    )
    return csv_text(header, rows)


def points_from_csv(text: str) -> list[AffinePoint]:
    """Parse the orbit CSV back into affine points.

    The first line must be the header :func:`orbit_to_csv` writes: an
    optional ``n`` column, then ``x{i}_num,x{i}_den`` for i = 1..N.  Every
    row has the header's cell count, and each num/den pair reads as the
    :func:`rational` of ``num/den`` would (:func:`rational_pairs`); the ``n``
    cells are not read.
    """
    lines = [ln for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        return []
    header = [c.strip() for c in lines[0].split(",")]
    skip = int(header[0] == "n")
    dim = (len(header) - skip) // 2
    if not dim or header[skip:] != [f"x{i}_{c}" for i in range(1, dim + 1) for c in ("num", "den")]:
        raise ValueError(f"points CSV header must be [n,]x1_num,x1_den,...; got {lines[0]!r}")
    points = []
    for ln in lines[1:]:
        cells = [c.strip() for c in ln.split(",")]
        if len(cells) != len(header):
            raise ValueError(
                f"row {ln!r} has {len(cells)} cells under a {len(header)}-cell header: "
                "wrong number of coordinates"
            )
        cells = cells[skip:]
        points.append(rational_pairs(cells[::2], cells[1::2]))
    return points
