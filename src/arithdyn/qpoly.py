"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in N variables x1..xN is a finite map from exponent tuples
(one nonnegative integer per variable) to nonzero Fraction coefficients.
All operations are pure and exact; values are immutable after construction,
so they can be shared freely across threads.

The text format is a human-readable sum of terms, e.g.

    3/2*x1^3*x2 + x2^2 - 1

The parser is whitespace-insensitive and round-trips bit-exactly with
:func:`Polynomial.to_text`.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Tuple

Monomial = Tuple[int, ...]


class DimensionMismatchError(ValueError):
    """Raised when operands live in polynomial rings of different dimension."""


class ResourceLimitError(RuntimeError):
    """A configured resource cap was exceeded.

    Overruns are hard errors, never silent truncations: ``metadata`` carries
    partial-progress information (what was being computed and how far it got).
    """

    def __init__(self, message: str, **metadata):
        super().__init__(message)
        self.metadata = dict(metadata)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like ``-3/2`` to an exact Fraction.

    Anything else, a ``bool`` or a ``float`` included, raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if not isinstance(value, str):
        raise ValueError(f"not an int, Fraction or rational string: {value!r}")
    try:
        return Fraction(value.strip())
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {value!r}") from None


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    Canonical form: no stored coefficient is zero and every exponent tuple
    has length ``dimension``.  Two polynomials are equal iff their dimensions
    and term maps are equal.
    """

    __slots__ = ("dimension", "terms", "_hash")

    def __init__(self, dimension: int, terms: Mapping[Monomial, Fraction] | Iterable = ()):
        if dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {dimension}")
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            mono = tuple(mono)
            if len(mono) != dimension:
                raise DimensionMismatchError(
                    f"exponent tuple {mono} has length {len(mono)}, expected {dimension}"
                )
            if any(e < 0 for e in mono):
                raise ValueError(f"negative exponent in monomial {mono}")
            coeff = rational(coeff)
            if coeff != 0:
                clean[mono] = coeff
        object.__setattr__(self, "dimension", dimension)
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, dimension: int, terms: dict[Monomial, Fraction]) -> "Polynomial":
        """Wrap ``terms`` without validation; for ring-operation results only.

        ``terms`` must already be canonical: tuple keys of length
        ``dimension`` with nonnegative entries, and no zero Fraction value.
        """
        poly = object.__new__(cls)
        object.__setattr__(poly, "dimension", dimension)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "_hash", None)
        return poly

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: rational(value)})

    # -- predicates and accessors -------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coefficients(self) -> list[Fraction]:
        return list(self.terms.values())

    def term_count(self) -> int:
        return len(self.terms)

    # -- ring operations ----------------------------------------------

    def _check_dimension(self, other: "Polynomial") -> None:
        if self.dimension != other.dimension:
            raise DimensionMismatchError(
                f"dimension mismatch: {self.dimension} vs {other.dimension}"
            )

    def __add__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dimension, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        out = dict(self.terms)
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return Polynomial._trusted(self.dimension, {m: c for m, c in out.items() if c})

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.dimension, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, (int, Fraction)):
            other = Polynomial.constant(self.dimension, other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            c = rational(other)
            if c == 0:
                return Polynomial.zero(self.dimension)
            return Polynomial(self.dimension, {m: k * c for m, k in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        return Polynomial._trusted(self.dimension, _product_terms(self.terms, other.terms))

    __rmul__ = __mul__

    # -- evaluation and substitution -----------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a point given as a sequence of N rationals."""
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.dimension}"
            )
        values = [rational(v) for v in point]
        total = Fraction(0)
        for mono, coeff in self.terms.items():
            term = coeff
            for value, e in zip(values, mono):
                if e:
                    term *= value**e
            total += term
        return total

    def substitute(
        self, subs: Sequence["Polynomial"], max_terms: int | None = None
    ) -> "Polynomial":
        """Replace x_i by subs[i-1] and expand to canonical form.

        Only the powers of subs[i-1] that the terms use are built, each once
        per call, by halving the exponent (Knuth, TAOCP vol. 2, 4.6.3): the
        first power is subs[i-1] itself, an even power is the square of half
        of it, and an odd power is the one below it times subs[i-1].
        ``max_terms`` bounds the term count of every product and partial sum;
        exceeding it raises :class:`ResourceLimitError`.
        """
        if len(subs) != self.dimension:
            raise DimensionMismatchError(
                f"{len(subs)} substitution polynomials for dimension {self.dimension}"
            )
        target_dim = subs[0].dimension
        for s in subs:
            if s.dimension != target_dim:
                raise DimensionMismatchError("substitution polynomials disagree in dimension")

        powers: dict[tuple[int, int], Polynomial] = {}

        def power(i: int, e: int) -> Polynomial:
            if e == 1:
                return subs[i]
            if (i, e) not in powers:
                p = power(i, e - 1) * subs[i] if e % 2 else power(i, e // 2) * power(i, e // 2)
                _check_budget(p, max_terms, stage="substitute:power")
                powers[i, e] = p
            return powers[i, e]

        total = Polynomial.zero(target_dim)
        for mono, coeff in self.terms.items():
            term = Polynomial.constant(target_dim, coeff)
            for i, e in enumerate(mono):
                if e:
                    term = term * power(i, e)
                    _check_budget(term, max_terms, stage="substitute:term")
            total = total + term
            _check_budget(total, max_terms, stage="substitute:sum")
        return total

    # -- degrees -------------------------------------------------------

    def degree_in_var(self, index: int) -> int:
        """Max exponent of x_index (1-based); 0 for the zero polynomial."""
        if not 1 <= index <= self.dimension:
            raise IndexError(f"variable index {index} out of range 1..{self.dimension}")
        i = index - 1
        return max((mono[i] for mono in self.terms), default=0)

    def total_degree(self) -> int:
        """Max over terms of the exponent sum; 0 for constants and zero."""
        return max((sum(mono) for mono in self.terms), default=0)

    # -- equality, hashing, text ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.dimension == other.dimension and self.terms == other.terms

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.dimension, frozenset(self.terms.items())))
            object.__setattr__(self, "_hash", h)
        return h

    def to_text(self) -> str:
        """Canonical text form: terms in descending lexicographic order."""
        if not self.terms:
            return "0"
        pieces = []
        for mono in sorted(self.terms, reverse=True):
            coeff = self.terms[mono]
            varpart = "*".join(
                f"x{i + 1}" + (f"^{e}" if e > 1 else "")
                for i, e in enumerate(mono)
                if e > 0
            )
            mag = abs(coeff)
            if varpart:
                body = varpart if mag == 1 else f"{mag}*{varpart}"
            else:
                body = str(mag)
            pieces.append((coeff < 0, body))
        first_neg, first = pieces[0]
        out = ("-" if first_neg else "") + first
        for neg, body in pieces[1:]:
            out += (" - " if neg else " + ") + body
        return out

    __str__ = to_text

    def __repr__(self):
        return f"Polynomial({self.dimension}, {self.to_text()!r})"


def _product_terms(
    a: Mapping[Monomial, Fraction], b: Mapping[Monomial, Fraction]
) -> dict[Monomial, Fraction]:
    """Canonical term map of the product of two term maps.

    Packed-monomial integer kernel (S. C. Johnson, "Sparse polynomial
    arithmetic", 1974; Monagan & Pearce, ISSAC 2009).  Each operand is scaled
    to integer numerators over its denominator lcm, and each exponent tuple is
    packed into one int (Kronecker map).  Variable i gets a field of
    ``(deg_i(a) + deg_i(b)).bit_length()`` bits, so adding two packed keys
    never carries from one field into the next, and a variable absent from
    both operands gets no bits.  Zero sums are dropped so that the result is
    canonical.
    """
    if not a or not b:
        return {}
    widths = [(da + db).bit_length() for da, db in zip(map(max, zip(*a)), map(max, zip(*b)))]
    shifts = [sum(widths[:i]) for i in range(len(widths))]
    fields = [(s, (1 << w) - 1) for s, w in zip(shifts, widths)]

    def packed(terms):
        den = math.lcm(*(c.denominator for c in terms.values()))
        items = [
            (sum(e << s for e, s in zip(mono, shifts)), c.numerator * (den // c.denominator))
            for mono, c in terms.items()
        ]
        return items, den

    a_items, a_den = packed(a)
    b_items, b_den = packed(b)
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a_items:
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    den = a_den * b_den
    return {
        tuple((k >> s) & mask for s, mask in fields): Fraction(c, den)
        for k, c in out.items()
        if c
    }


def _check_budget(p: Polynomial, max_terms: int | None, stage: str) -> None:
    if max_terms is not None and p.term_count() > max_terms:
        raise ResourceLimitError(
            f"term count {p.term_count()} exceeds cap {max_terms} during {stage}",
            stage=stage,
            term_count=p.term_count(),
            max_terms=max_terms,
        )


_TOKEN = re.compile(r"\s*(?:(\d+)|(x\d+)|([+\-*/^]))")


def parse_polynomial(text: str, dimension: int | None = None) -> Polynomial:
    """Parse the text format; whitespace-insensitive, variables x1..xN.

    If ``dimension`` is None the ambient dimension is inferred from the
    largest variable index that occurs (at least 1).
    """
    tokens: list[str] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"unexpected character at position {pos}: {text[pos:]!r}")
            break
        tokens.append(m.group(1) or m.group(2) or m.group(3))
        pos = m.end()
    if not tokens:
        raise ValueError("empty polynomial text")

    max_var = 0
    for t in tokens:
        if t.startswith("x"):
            max_var = max(max_var, int(t[1:]))
    if dimension is None:
        dimension = max(max_var, 1)
    elif max_var > dimension:
        raise DimensionMismatchError(
            f"variable x{max_var} exceeds declared dimension {dimension}"
        )

    terms: dict[Monomial, Fraction] = {}
    i = 0
    n = len(tokens)

    def parse_factor() -> tuple[Fraction, list[int]]:
        nonlocal i
        exps = [0] * dimension
        t = tokens[i]
        if t.isdigit():
            num = int(t)
            i += 1
            if i < n and tokens[i] == "/":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ValueError("expected integer denominator after '/'")
                if int(tokens[i + 1]) == 0:
                    raise ValueError(f"zero denominator in {num}/{tokens[i + 1]}")
                coeff = Fraction(num, int(tokens[i + 1]))
                i += 2
            else:
                coeff = Fraction(num)
            return coeff, exps
        if t.startswith("x"):
            idx = int(t[1:])
            if idx < 1:
                raise ValueError(f"bad variable {t}")
            i += 1
            e = 1
            if i < n and tokens[i] == "^":
                if i + 1 >= n or not tokens[i + 1].isdigit():
                    raise ValueError("expected integer exponent after '^'")
                e = int(tokens[i + 1])
                i += 2
            exps[idx - 1] = e
            return Fraction(1), exps
        raise ValueError(f"unexpected token {t!r}")

    while i < n:
        sign = 1
        while i < n and tokens[i] in "+-":
            if tokens[i] == "-":
                sign = -sign
            i += 1
        if i >= n:
            raise ValueError("dangling sign at end of input")
        coeff, exps = parse_factor()
        while i < n and tokens[i] == "*":
            i += 1
            if i >= n:
                raise ValueError("dangling '*' at end of input")
            c2, e2 = parse_factor()
            coeff *= c2
            exps = [a + b for a, b in zip(exps, e2)]
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + sign * coeff

    return Polynomial(dimension, terms)
