"""Exact sparse multivariate polynomial arithmetic over the rationals.

A polynomial in N variables x1..xN is a finite map from exponent tuples
(one nonnegative integer per variable) to nonzero integer numerators over
one positive denominator (:class:`Polynomial`).  All operations are pure
and exact; values are immutable after construction, so they can be shared
freely across threads.

The text format is a human-readable sum of terms, e.g.

    3/2*x1^3*x2 + x2^2 - 1

A term is optional signs, then factors joined by ``*``, and every term
after the first starts with a sign (``x1-+-x2`` is x1 + x2).  A factor is
an integer, a/b or x_i with an optional ^e, in ASCII digits; juxtaposed
factors such as ``2x1`` or ``3 4`` are refused.  Whitespace may separate
tokens.  A point string (:func:`rational`) is an optional sign and an
integer or a/b.  :func:`Polynomial.to_text` parses back to the same
polynomial.

Integer kernels carry the hot paths on the stored numerators; a Fraction
is built only where a value is read out or parsed.  A sum or product runs
on ints over the lcm or product of the operands' denominators and divides
out one content gcd when that denominator exceeds 1
(:meth:`Polynomial._trusted`).  A product is one loop over all term pairs
that adds exponent tuples packed into ints (:func:`_product_terms`).
Evaluation folds one variable level at a time, x_N first
(:func:`_horner_integer`): the terms sharing their exponents of
x_1..x_(i-1) are one homogenised polynomial in x_i, folded as a balanced
tree (Estrin's scheme) rather than a Horner chain, so a group of k terms
costs about 0.8 k^1.585 products of one term's size, not k^2 / 2.  All
values share one denominator D = 2^E * D_odd, the same N / D either way,
and only numerators are computed, as pairs (v, s) standing for v 2^s.  A
power of two in a denominator only adds to s, never enters a product.  The
result is reduced by shifts and one gcd against D_odd, which is 1 on
power-of-two orbits.  The fold's plan, the numerators in fold order and the
fold programs of every level (:func:`_horner_plan`), is built on a
polynomial's first evaluation and kept in a private slot that equality,
hashing, text and copies ignore.

Products and powers are CPython's ``*`` and ``pow``.  Orbits past their
printed prefix are certified tails of a few hundred bits
(:mod:`arithdyn.orbit_tail`), so numerators of 10^5 bits and more reach
evaluation only where an orbit falls back to exact steps or where a
high-degree iterate is evaluated along its own orbit (``iterate_check``).
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from fractions import Fraction
from operator import itemgetter

Monomial = tuple[int, ...]


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


class Record(tuple):
    """Base of the read-only records: fields are the tuple's items, read by
    name through properties, so equality, hashing and immutability are the
    tuple's, and the class costs next to nothing to build at import."""

    __slots__ = ()

    def __getnewargs__(self):
        return tuple(self)


class ResourceCaps(Record):
    """Hard budgets for symbolic iteration and orbit coordinates.

    Defaults: 10**6 terms per polynomial, 10**7 bits per orbit coordinate.
    """

    __slots__ = ()
    max_terms = property(itemgetter(0))
    max_coeff_bits = property(itemgetter(1))

    def __new__(cls, max_terms: int = 10**6, max_coeff_bits: int = 10**7):
        return tuple.__new__(cls, (max_terms, max_coeff_bits))

    def check(self, stage: str, *, terms: int = 0, bits: int = 0, **metadata) -> None:
        """Raise ResourceLimitError if ``terms`` exceeds max_terms or ``bits``
        exceeds max_coeff_bits; the only place a size meets a cap.

        The error's metadata holds ``stage``, the size (``term_count`` or
        ``bits``), its cap (``max_terms`` or ``max_coeff_bits``) and
        ``metadata``, such as the ``last_safe_n`` of a stepped computation.
        """
        if terms > self.max_terms:
            raise ResourceLimitError(
                f"{stage}: {terms} terms exceed the cap of {self.max_terms}",
                stage=stage, term_count=terms, max_terms=self.max_terms, **metadata,
            )
        if bits > self.max_coeff_bits:
            raise ResourceLimitError(
                f"{stage}: {bits} bits exceed the cap of {self.max_coeff_bits}",
                stage=stage, bits=bits, max_coeff_bits=self.max_coeff_bits, **metadata,
            )


DEFAULT_CAPS = ResourceCaps()


# One factor of the text format, and with a sign a point string: an integer,
# a/b or x_i^e, in ASCII digits, with whitespace allowed between the tokens.
_FACTOR = re.compile(
    r"\s*(?:(?P<num>[0-9]+)(?:\s*/\s*(?P<den>[0-9]+))?"
    r"|x(?P<var>[0-9]+)(?:\s*(?P<hat>\^)\s*(?P<exp>[0-9]+)?)?)\s*"
)


def _number(num: str, den: str | None, negative: bool = False) -> Fraction:
    """The rational num or num/den of two digit strings, negated if
    ``negative``; a zero den raises ValueError."""
    n = -int(num) if negative else int(num)
    if den is None:
        return Fraction(n)
    d = int(den)
    if d == 0:
        raise ValueError(f"zero denominator in {num}/{den}")
    return Fraction(n, d)


def rational(value: int | str | Fraction) -> Fraction:
    """Coerce an int, Fraction, or string like ``-3/2`` to an exact Fraction.

    A string is an optional sign, then an integer or a/b (:data:`_FACTOR`).
    Anything else, a ``bool``, a ``float`` or a string such as ``1.5``,
    ``1e3`` or ``1_000`` included, raises ValueError.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        body = value.strip()
        m = _FACTOR.fullmatch(body[1:] if body[:1] in ("+", "-") else body)
        if m and m["num"]:
            return _number(m["num"], m["den"], body[:1] == "-")
    raise ValueError(f"not an int, Fraction or rational string: {value!r}")


def rational_pair(num: str, den: str) -> Fraction:
    """``rational(f"{num}/{den}")`` for two stripped cells, read without
    joining them: num is an optional sign and an integer (:data:`_FACTOR`),
    and den is ASCII digits."""
    m = _FACTOR.fullmatch(num[1:] if num[:1] in ("+", "-") else num)
    if not (m and m["num"]) or m["den"] or not (den.isascii() and den.isdigit()):
        raise ValueError(f"not an int, Fraction or rational string: {num + '/' + den!r}")
    return _number(m["num"], den, num[:1] == "-")


def rational_pairs(nums: Sequence[str], dens: Sequence[str]) -> tuple:
    """``tuple(map(rational_pair, nums, dens))``, with one gcd per pair.

    On a row that is ASCII, has no ``_`` and whose dens are digits, ``int``
    reads a stripped num exactly when it is an optional sign and digits,
    which :func:`rational_pair` reads to the same value.  Such a row is read
    with ``int``, each pair reduced by its gcd and built with
    :func:`_coprime_fraction` (its den is positive).  Any other row, such as
    one with a space after a sign or a zero den, is read by
    :func:`rational_pair`, which gives its values or its first error.
    """
    row = "".join(nums) + "".join(dens)
    if row.isascii() and "_" not in row and all(map(str.isdigit, dens)):
        out = []
        try:
            for n, d in zip(map(int, nums), map(int, dens)):
                if not d:
                    break
                g = math.gcd(n, d)
                out.append(_coprime_fraction(n // g, d // g))
            else:
                return tuple(out)
        except ValueError:  # not a signed integer, or past int's digit limit
            pass
    return tuple(map(rational_pair, nums, dens))


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients.

    The coefficient of monomial a is ``terms[a] / den``: ``terms`` maps each
    exponent tuple, of length ``dimension``, to a nonzero int numerator, and
    ``den`` is a positive int.  Canonical form: gcd(den, every numerator)
    = 1, so the zero polynomial is {} over 1.

    Then den is the lcm of the reduced coefficient denominators, and the
    numerators are those coefficients scaled by it.  Proof: the coefficient
    n_a / den reduces to (n_a / g_a) / (den / g_a) with g_a = gcd(n_a, den),
    and each g_a divides den, so the lcm of the den / g_a is den divided by
    gcd_a g_a = gcd(den, every n_a) = 1; and n_a / den times den is n_a.
    Hence (den, terms) is a function of the coefficient map alone, and two
    polynomials are equal iff their dimensions, denominators and term maps
    are equal.
    """

    __slots__ = ("dimension", "terms", "den", "_plan")

    def __new__(cls, dimension: int, terms: Mapping[Monomial, Fraction] | Iterable = ()):
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
        # canonical: a prime power exactly dividing den exactly divides some
        # reduced denominator, and that numerator is scaled by a unit mod p
        den = math.lcm(*(c.denominator for c in clean.values()))
        numerators = {m: c.numerator * (den // c.denominator) for m, c in clean.items()}
        return cls._trusted(dimension, numerators, den)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    def __reduce__(self):
        # copies and pickles rebuild from the canonical data alone: the
        # evaluation plan is never carried along
        return Polynomial._trusted, (self.dimension, dict(self.terms), self.den)

    # -- constructors -------------------------------------------------

    @classmethod
    def _trusted(cls, dimension: int, terms: dict[Monomial, int], den: int) -> "Polynomial":
        """``terms`` over ``den``, without validation; for the public
        constructor's checked terms and ring-operation results only.

        ``terms`` must have tuple keys of length ``dimension`` with
        nonnegative entries and nonzero int values, and ``den`` must be
        positive.  When den > 1 their gcd is divided out, so the result is
        canonical.
        """
        if den > 1:
            g = math.gcd(den, *terms.values())
            if g > 1:
                terms = {m: c // g for m, c in terms.items()}
                den //= g
        poly = object.__new__(cls)
        object.__setattr__(poly, "dimension", dimension)
        object.__setattr__(poly, "terms", terms)
        object.__setattr__(poly, "den", den)
        object.__setattr__(poly, "_plan", None)
        return poly

    @classmethod
    def zero(cls, dimension: int) -> "Polynomial":
        return cls(dimension, {})

    @classmethod
    def constant(cls, dimension: int, value) -> "Polynomial":
        return cls(dimension, {(0,) * dimension: rational(value)})

    # -- predicates and accessors -------------------------------------

    def coefficients(self) -> list[Fraction]:
        """The reduced coefficients, in the order of ``terms``."""
        return [Fraction(c, self.den) for c in self.terms.values()]

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
        den = math.lcm(self.den, other.den)
        a, b = den // self.den, den // other.den
        out = dict(self.terms) if a == 1 else {m: c * a for m, c in self.terms.items()}
        for mono, coeff in other.terms.items():
            out[mono] = out.get(mono, 0) + coeff * b
        return Polynomial._trusted(self.dimension, {m: c for m, c in out.items() if c}, den)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial._trusted(self.dimension, {m: -c for m, c in self.terms.items()}, self.den)

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
            c = other if type(other) is int else rational(other)
            if c == 0:
                return Polynomial.zero(self.dimension)
            terms = {m: k * c.numerator for m, k in self.terms.items()}
            return Polynomial._trusted(self.dimension, terms, self.den * c.denominator)
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._check_dimension(other)
        terms = _product_terms(self.terms, other.terms)
        return Polynomial._trusted(self.dimension, terms, self.den * other.den)

    __rmul__ = __mul__

    # -- evaluation and substitution -----------------------------------

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """Exact value at a point given as a sequence of N rationals.

        Sparse Horner (Knuth, TAOCP vol. 2, 4.6.4), one variable level at a
        time on integer numerators over one denominator, reduced by shifts
        and, for odd denominators, one gcd (:func:`_horner_integer`).  The
        term order and exponent steps of the fold (:func:`_horner_plan`) are
        built on the first call and kept for the polynomial's lifetime.
        """
        if len(point) != self.dimension:
            raise DimensionMismatchError(
                f"point has {len(point)} coordinates, expected {self.dimension}"
            )
        values = [rational(v) for v in point]
        if not self.terms:
            return Fraction(0)
        plan = self._plan
        if plan is None:
            plan = _horner_plan(self.terms)
            object.__setattr__(self, "_plan", plan)
        return _horner_integer(plan, self.den, values)

    def substitute(
        self, subs: Sequence["Polynomial"], caps: ResourceCaps = DEFAULT_CAPS
    ) -> "Polynomial":
        """Replace x_i by subs[i-1] and expand to canonical form.

        Only the powers of subs[i-1] that the terms use are built, each once
        per call, by halving the exponent (Knuth, TAOCP vol. 2, 4.6.3): the
        first power is subs[i-1] itself, an even power is the square of half
        of it, and an odd power is the one below it times subs[i-1].  A term
        starts from its first power and is scaled only by a numerator other
        than 1; the sum is divided by ``den`` once, at the end.
        ``caps.check`` bounds the term count of every power, product and
        partial sum by ``caps.max_terms``, so no substitution runs uncapped.
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
                caps.check("substitute:power", terms=len(p.terms))
                powers[i, e] = p
            return powers[i, e]

        total = None
        for mono, coeff in self.terms.items():
            term = None
            for i, e in enumerate(mono):
                if e:
                    term = power(i, e) if term is None else term * power(i, e)
                    caps.check("substitute:term", terms=len(term.terms))
            if term is None:
                term = Polynomial._trusted(target_dim, {(0,) * target_dim: coeff}, 1)
            elif coeff != 1:
                term = term * coeff
            total = term if total is None else total + term
            caps.check("substitute:sum", terms=len(total.terms))
        if total is None:
            return Polynomial.zero(target_dim)
        return Polynomial._trusted(target_dim, total.terms, total.den * self.den)

    # -- degrees -------------------------------------------------------

    def total_degree(self) -> int:
        """Max over terms of the exponent sum; 0 for constants and zero."""
        return max((sum(mono) for mono in self.terms), default=0)

    # -- equality, hashing, text ----------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return (self.dimension, self.den, self.terms) == (other.dimension, other.den, other.terms)

    def __hash__(self):
        return hash((self.dimension, self.den, frozenset(self.terms.items())))

    def to_text(self) -> str:
        """Canonical text form: terms in descending lexicographic order."""
        if not self.terms:
            return "0"
        pieces = []
        for mono, coeff in sorted(zip(self.terms, self.coefficients()), reverse=True):
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


def _product_terms(a: Mapping[Monomial, int], b: Mapping[Monomial, int]) -> dict[Monomial, int]:
    """The term map of the product of two maps of int numerators A_k, B_k.

    The product's numerators are over the product of the operands'
    denominators, which the caller divides out.  Packed-monomial kernel
    (S. C. Johnson, "Sparse polynomial arithmetic", 1974; Monagan & Pearce,
    ISSAC 2009): each exponent tuple is packed into one int with a field of
    ``(deg_i(a) + deg_i(b)).bit_length()`` bits per variable, so adding two
    packed keys never carries between fields, and the loop runs over all
    |a| |b| term pairs.  Zero sums are dropped, so every value is a nonzero
    int.
    """
    if not a or not b:
        return {}
    a_degs, b_degs = list(map(max, zip(*a))), list(map(max, zip(*b)))
    widths = [(da + db).bit_length() for da, db in zip(a_degs, b_degs)]
    shifts = [sum(widths[:i]) for i in range(len(widths))]
    fields = [(s, (1 << w) - 1) for s, w in zip(shifts, widths)]

    def packed(terms):
        return [(sum(e << s for e, s in zip(mono, shifts)), c) for mono, c in terms.items()]

    a_items = packed(a)
    b_items = a_items if a is b else packed(b)
    out: dict[int, int] = {}
    get = out.get
    for ka, ca in a_items:
        for kb, cb in b_items:
            k = ka + kb
            out[k] = get(k, 0) + ca * cb
    return {tuple((k >> s) & mask for s, mask in fields): c for k, c in out.items() if c}


def _horner_plan(terms: Mapping[Monomial, int]) -> tuple:
    """The evaluation plan of nonempty numerators: (numerators in fold
    order, degs, levels), as :func:`_horner_integer` reads it.

    The fold order is descending lexicographic, so the terms sharing their
    exponents of x_1..x_i are adjacent and, among them, the exponents of
    x_(i+1) descend.  ``levels`` lists (i, groups, n_exps, o_exps) for
    i = N-1 down to 0.  A group is one run of entries that share their
    exponents of x_1..x_i, given as (program, e_last): the
    :func:`_fold_program` of its exponents of x_(i+1), and the last
    exponent, by which the group is closed.  ``n_exps`` and ``o_exps`` are
    the nonzero exponents of n_(i+1) and o_(i+1) that the programs use.
    """
    order = sorted(terms, reverse=True)
    degs = [max(e) for e in zip(*terms)]
    levels = []
    prefixes = order
    for i in reversed(range(len(degs))):
        folded, groups = [], []
        for a in prefixes:
            if not folded or folded[-1] != a[:i]:
                folded.append(a[:i])
                groups.append([])
            groups[-1].append(a[i])
        programs = [(_fold_program(exps, degs[i]), exps[-1]) for exps in groups]
        n_exps = {-op for ops, low in programs for op in [*ops, -low] if op < 0}
        o_exps = {op for ops, _ in programs for op in ops if op > 0}
        levels.append((i, programs, n_exps, o_exps))
        prefixes = folded
    return [terms[a] for a in order], degs, levels


def _fold_program(exps: list, deg: int) -> list:
    """The balanced fold of a group with exponents ``exps``, descending, in
    post order: op = deg - e >= 0 pushes the next entry, lifted by d^op;
    op = -gap < 0 joins the top two, each the sum of its run over n^(its last
    exponent), as A n^gap + B.  The higher part holds 2^floor(log2(k - 1))
    of k entries, so one or two entries are one Horner step (Estrin's scheme;
    Knuth, TAOCP vol. 2, 4.6.4)."""
    if len(exps) == 1:
        return [deg - exps[0]]
    high = 1 << (len(exps) - 1).bit_length() - 1
    return [*_fold_program(exps[:high], deg), *_fold_program(exps[high:], deg),
            exps[-1] - exps[high - 1]]


def _horner_integer(plan: tuple, m: int, values: Sequence[Fraction]) -> Fraction:
    """The value of nonempty numerators over ``m`` at a point, one variable
    level at a time, from their :func:`_horner_plan`.

    Write x_i = n_i / d_i, d_i = 2^t_i o_i with o_i odd, deg_i for the degree
    in x_i and M = m, the lcm of the coefficient denominators, so that the
    numerators are M c_a.  An entry is a pair (v, s), s >= 0, standing for
    the integer v 2^s.  The pass starts
    from {a: (M c_a, 0)} and folds x_N first, x_1 last: the entries sharing
    their exponents of x_1..x_(i-1), holding c_e at exponents e of x_i,
    become one entry holding sum_e c_e n_i^e d_i^(deg_i - e): each c_e is
    lifted by o_i^(deg_i - e), and they fold as the balanced tree of their
    :func:`_fold_program`, closed by n_i^e_last.  A Horner chain of k
    entries costs about k^2 / 2 Karatsuba products of one entry's size, the
    tree of equal-sized operands about 0.8 k^1.585; the sum is the same
    integer.  The factor 2^(t_i (deg_i - e)) only adds to the s of c_e, and
    two pairs are summed over the smaller s, so aligning them is a shift.
    Every step is exact.  By induction from x_N down, an entry at level i
    holds M d_i^deg_i ... d_N^deg_N times the value in x_i..x_N of its
    terms, so the last one gives N = v 2^s over D = M prod_i d_i^deg_i: the
    N / D of homogenising all terms at once, which
    :func:`maps.step_bits_bound` bounds.  Levels are a loop, so the depth
    does not grow with N.

    No power of two is multiplied: ``*`` and ``pow`` see only values, n_i
    and o_i, and each power is built once per level by ``pow``, in one dict
    for n_i and one for o_i; o_i = 1 lifts by shifts alone.
    With D = 2^E D_odd, and s <= E since level i adds at most t_i deg_i,
    the value is v / (2^(E - s) D_odd), reduced by shifting
    2^min(v_2(v), E - s) out of v and dividing v and D_odd by their gcd,
    skipped when D_odd = 1; see :func:`_coprime_fraction` for why no
    further gcd is needed.
    """
    coeffs, degs, levels = plan
    nums = [v.numerator for v in values]
    twos = [(v.denominator & -v.denominator).bit_length() - 1 for v in values]
    odds = [v.denominator >> t for v, t in zip(values, twos)]
    level = [(c, 0) for c in coeffs]
    for i, groups, n_exps, o_exps in levels:
        n, o, two = nums[i], odds[i], twos[i]
        n_powers = {e: pow(n, e) for e in n_exps}
        o_powers = {e: pow(o, e) for e in o_exps} if o > 1 else {}
        entries = iter(level)
        level = []
        for ops, low in groups:
            # (v, s) is the top of the stack and ``below`` the rest
            below, v, s = [], 0, 0
            for op in ops:
                if op >= 0:
                    below.append((v, s))
                    v, s = next(entries)
                    if o_powers and op:
                        v *= o_powers[op]
                    s += two * op
                    continue
                a, r = below.pop()
                if a:
                    a *= n_powers[-op]
                    if r <= s:
                        v, s = (v << s - r) + a, r
                    else:
                        v += a << r - s
            if v and low:
                v *= n_powers[low]
            level.append((v, s))
    v, s = level[0]
    if not v:
        return Fraction(0)
    m_twos = (m & -m).bit_length() - 1
    twos_exponent = m_twos + sum(d * t for d, t in zip(degs, twos)) - s
    k = min((v & -v).bit_length() - 1, twos_exponent)
    v >>= k
    odd = (m >> m_twos) * math.prod(d**e for d, e in zip(odds, degs))
    if odd > 1:
        g = math.gcd(v, odd)
        v //= g
        odd //= g
    return _coprime_fraction(v, odd << (twos_exponent - k))


def power_fraction(numerator: int, p: int, k: int) -> Fraction:
    """The reduced Fraction numerator / p^k for an int numerator, p >= 2 and
    k >= 0, made without a gcd against p^k.

    The pair is checked reduced: k == 0, or gcd(numerator, p) == 1, so that
    numerator is prime to p^k.  A pair that is not reduced raises ValueError.
    """
    if type(numerator) is not int or p < 2 or k < 0 or (k and math.gcd(numerator, p) != 1):
        raise ValueError(f"{numerator!r} / {p}^{k} is not a reduced fraction")
    return _coprime_fraction(numerator, 1 << k if p == 2 else p**k)


def _coprime_fraction(numerator: int, denominator: int) -> Fraction:
    """The Fraction numerator/denominator, made without a gcd.

    The operands must already be coprime with denominator > 0, the form
    every Fraction keeps; this fills its two slots directly, as Python
    3.12's own ``Fraction._from_coprime_ints`` does.  The public
    constructor would run a gcd of a huge numerator against the denominator
    only to find 1.

    Its callers meet that contract: :func:`rational_pairs` divides each pair
    by its gcd, :func:`power_fraction` checks that k == 0 or that its
    numerator is prime to p, and for :func:`_horner_integer` the proof is
    this.  The value is N / (2^E * D_odd) with D_odd odd and positive.
    Shifting 2^k out of N for k = min(v_2(N), E) leaves N odd whenever
    E - k > 0.  Dividing N and D_odd by g = gcd(N, D_odd) leaves them
    coprime, and g is odd, so N / g is still odd when E - k > 0.  Hence
    N / g is coprime to both 2^(E - k) and D_odd / g, so to their product,
    which is positive.
    """
    out = object.__new__(Fraction)
    out._numerator = numerator
    out._denominator = denominator
    return out


def parse_polynomial(text: str, dimension: int | None = None) -> Polynomial:
    """Parse the text format of the module docstring; variables x1..xN.

    The text is split at its signs: each piece between two signs is empty,
    which makes a run of signs, or one term, whose factors between ``*``
    each match :data:`_FACTOR`.  If ``dimension`` is None the ambient
    dimension is the largest variable index that occurs (at least 1).
    """
    pieces = re.split(r"([+-])", text)
    parsed: list[tuple[Fraction, dict[int, int]]] = []
    sign = 1
    for k in range(0, len(pieces), 2):
        if k and pieces[k - 1] == "-":
            sign = -sign
        if not pieces[k].strip():
            if k + 1 == len(pieces):
                raise ValueError("dangling sign at end of input" if k else "empty polynomial text")
            continue
        coeff, exps = Fraction(sign), {}
        for factor in pieces[k].split("*"):
            m = _FACTOR.match(factor)
            if m and m["hat"] and not m["exp"]:
                raise ValueError("expected integer exponent after '^'")
            if m is None or m.end() != len(factor):
                raise ValueError(f"bad factor {factor.strip()!r}: expected an integer, a/b or x_i^e")
            if m["var"] is None:
                coeff *= _number(m["num"], m["den"])
                continue
            index = int(m["var"])
            if index < 1:
                raise ValueError(f"bad variable x{m['var']}")
            exps[index] = exps.get(index, 0) + int(m["exp"] or 1)
        parsed.append((coeff, exps))
        sign = 1

    max_var = max((i for _, exps in parsed for i in exps), default=0)
    if dimension is None:
        dimension = max(max_var, 1)
    elif max_var > dimension:
        raise DimensionMismatchError(
            f"variable x{max_var} exceeds declared dimension {dimension}"
        )
    terms: dict[Monomial, Fraction] = {}
    for coeff, exps in parsed:
        key = tuple(exps.get(i, 0) for i in range(1, dimension + 1))
        terms[key] = terms.get(key, 0) + coeff
    return Polynomial(dimension, terms)
