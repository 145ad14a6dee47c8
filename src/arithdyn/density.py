"""Zariski-density proxy via exact rank of monomial evaluation matrices.

"No nonzero polynomial of total degree <= d vanishes on all sampled points"
is the strongest finitely checkable consequence of density.  It holds iff
the (points x monomials) evaluation matrix has full column rank M, where M
counts the monomials of total degree <= d.

The rows are built in integers, one point at a time: a point's row is its
monomial values times L^d, for L the lcm of its coordinates' denominators,
which is primitive.  A row is kept if it is independent modulo the Mersenne
prime p = 2^61 - 1 of the rows kept before it; no row is built after the
M-th.  Kept rows are independent over Q (a minor that is nonzero mod p is a
nonzero integer), so M of them prove full rank.

Below M, every row has been read and r of them are kept.  The kernel of the
rows modulo p has one vector k_f per free column f of their echelon form:
1 at f, 0 at the other free columns and past f.  Each entry is lifted to Q
by rational reconstruction (Wang, SYMSAC 1981; the lift-and-verify scheme
of Dixon, Numer. Math. 40 (1982)): the fraction a/b with |a|, b <= B =
isqrt((p - 1)/2) and a = b k mod p, of which there is at most one, as
2 B^2 < p.  Each lifted vector, cleared of denominators, must have integer
dot product 0 with every row.  If all do:
  1. the rank over Q is at least r: the kept rows have a minor that is
     nonzero mod p;
  2. it is at most r: the M - r lifted vectors lie in the kernel over Q and
     are independent, each 1 at its own free column and 0 at the others;
  3. the witness is the one the reduced row echelon form gives: a lifted
     vector is 1 at f and 0 past f, so column f is a combination of earlier
     columns and is free over Q too; both sides have M - r free columns, so
     they agree, and the lifted vector of the first free column is the
     kernel vector that is 1 there and 0 at the other free columns.
If an entry does not lift or a dot product is not 0, one fraction-free
Gauss-Jordan elimination (Bareiss, Math. Comp. 22 (1968);
Nakos-Turner-Williams, SIGSAM Bull. 31 (1997)) runs on every row read, and
its reduced row echelon form gives the rank and the kernel witness.
Pivots are chosen to limit bit-length growth (smallest nonzero magnitude,
lowest row index on ties), so every run is deterministic; the reduced row
echelon form, and hence the witness, does not depend on that choice.

The kernel is built and lifted at the switch: the first row that is zero
modulo p while M - r <= r.  While that lift stands, each later row is
tested exactly against the lifted vectors, and not modulo p.  An exact
pass implies membership of the span modulo p: a lifted entry a/b has
0 < b < p and a = b k mod p, so a cleared vector v_f is l_f k_f mod p with
l_f, the lcm of its denominators, a unit mod p; a row x with x . v_f = 0
for every f thus has x . k_f = 0 mod p for every f, which is the modulo-p
test that skips it.  So the kept rows and the kernel are those of the
modulo-p test alone.  A row that fails the exact test drops the lift and
takes the modulo-p test.  If it changes the kernel, the final kernel is
lifted and checked against every row at the end, as above; if not, a lift
of the final kernel gives the same vectors, which fail on that row, and so
does the certificate.  A kernel that does not lift at the switch does not
lift at the end either, unless a later row changes it.  If the lift stands
to the end, it is the lift of the final kernel and every row after the
switch has passed; the deferred check of the rows read up to the switch
tests each of those once.  So every row is checked, once, against the
vectors a lift at the end would give: the certificate is complete, and its
verdict and fallback are those of a lift at the end.

Both the reduction modulo p and the exact check run on packed lanes: one
integer holds one value per field of W bits, so a row costs a few big-int
operations, not one interpreted operation per entry (simultaneous modular
reduction, Dumas-Fousse-Salvy, J. Symb. Comput. 46 (2011)).  Modulo p, W =
2 bits(p) + bits(M) + 1, and no lane carries: a reduced lane stays below
p + M p^2.  The kernel's lanes are kept below 2^62 by folding with 2^61 = 1
mod p, so a dot product with the packed kernel and a back-substitution step
stay below M p 2^62 < 2^W, and a kernel update below (p + 1) 2^62 = 2^123
< 2^W.  In the exact check, W = bits(max |row entry|) + bits(max |vector
entry|) + bits(M) + 1, every dot product is below 2^(W - 1) in size, so
their packed sum is 0 exactly when each is.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import combinations_with_replacement, repeat, zip_longest

from .maps import DEFAULT_CAPS, ResourceCaps, as_point, csv_text
from .qpoly import DimensionMismatchError, Monomial


# The rank certificate's prime, the Mersenne prime 2^61 - 1: residues fit in
# 61 bits, a lane reduces modulo it by a shift and a mask (_fold), and a
# prime this large rarely divides a minor of the rows, which is when the
# rank modulo p falls short of the rank over Q and the exact elimination
# runs on all rows.
MODULUS = 2**61 - 1


class DuplicatePointsError(ValueError):
    pass


def monomials_up_to_degree(dimension: int, degree: int) -> list:
    """All exponent tuples with total degree <= degree, in a fixed order
    (ascending total degree, then ascending lexicographic)."""
    if dimension < 1 or degree < 0:
        raise ValueError("need dimension >= 1 and degree >= 0")
    out = []
    for total in range(degree + 1):
        level = set()
        for combo in combinations_with_replacement(range(dimension), total):
            exps = [0] * dimension
            for idx in combo:
                exps[idx] += 1
            level.add(tuple(exps))
        out.extend(sorted(level))
    return out


def _integer_rows(matrix: Sequence[Sequence[Fraction]]) -> list:
    """Each row scaled by the lcm of its entries' denominators."""
    rows = []
    for row in matrix:
        lcm = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (lcm // x.denominator) for x in row])
    return rows


def _monomial_rows(points: Iterable, monomials: Sequence[Monomial], degree: int) -> Iterator:
    """The evaluation rows of ``monomials`` (every monomial of total degree
    <= ``degree`` >= 1) at ``points``, each scaled to a primitive integer
    vector without a gcd, built one point at a time as they are read.

    For a point with L the lcm of its denominators and a_i = x_i * L, the
    entry of monomial m is prod a_i^(m_i) * L^(degree - |m|): L^degree times
    the monomial's value.  The row is primitive.  The monomial 1 gives
    L^degree, so only a prime p of L could divide every entry; p divides the
    denominator of some x_j to the full power v_p(L), so p does not divide
    the numerator of x_j, nor a_j, nor the entry a_j^degree of x_j^degree.

    So the rows equal ``_integer_rows`` of the rational rows, which scales a
    row by the lcm l of its entries' denominators: that row is primitive too
    (its entry for the monomial 1 is l, and a prime p of l divides the
    denominator of some entry to the full power v_p(l), hence not that
    entry times l), and two primitive integer vectors that are positive
    multiples of the same rational row, with a positive entry for the
    monomial 1, are equal.

    Each point's powers of a_1..a_N and L are tabled once.  One itemgetter
    per base gathers that base's table at every monomial's exponent, and the
    row is the product of the gathered columns, entry by entry.
    """
    exponents = [(*mono, degree - sum(mono)) for mono in monomials]
    gathers = [operator.itemgetter(*column) for column in zip(*exponents)]
    for point in points:
        lcm = math.lcm(*(x.denominator for x in point))
        bases = [x.numerator * (lcm // x.denominator) for x in point] + [lcm]
        row, *columns = (g([a**k for k in range(degree + 1)]) for g, a in zip(gathers, bases))
        for column in columns:
            row = list(map(operator.mul, row, column))
        yield row


def _packed_columns(vectors: list, width: int) -> list:
    """``vectors`` packed by column into lanes of ``width`` bits: column j is
    the sum of vectors[f][j] * 2^(width f), with 0 past a vector's end."""
    shifts = range(0, len(vectors) * width, width)
    columns = zip_longest(*vectors, fillvalue=0)
    return [sum(map(operator.lshift, column, shifts)) for column in columns]


def _fold_masks(width: int, count: int) -> tuple:
    """The masks of ``_fold`` for ``count`` lanes of ``width`` bits: the low
    61 bits of every lane, and the width - 61 bits above them."""
    ones = ((1 << width * count) - 1) // ((1 << width) - 1)
    return MODULUS * ones, ((1 << width - 61) - 1) * ones


def _fold(packed: int, low: int, high: int) -> int:
    """``packed`` with each lane x, below 2^W for the width W = 2 bits(p) +
    bits(n_cols) + 1 of ``_rank_mod_p``, replaced by a value congruent to it
    modulo MODULUS = 2^61 - 1 and below 2^62.  As 2^61 = 1 mod p, x = (x mod
    2^61) + (x >> 61) mod p: one fold leaves a lane below 2^61 + 2^(W - 61),
    the second at most 2^61 + 2^(W - 122) < 2^62 (for n_cols < 2^59)."""
    packed = (packed & low) + (packed >> 61 & high)
    return (packed & low) + (packed >> 61 & high)


def _unpacked(columns: list, free: list, width: int) -> list:
    """The kernel vectors packed in ``columns`` as ``_kernel_mod_p`` packs
    them, lane i reduced modulo MODULUS and cut after its free column free[i]."""
    lane = (1 << width) - 1
    return [
        [(c >> width * i & lane) % MODULUS for c in columns[: f + 1]] for i, f in enumerate(free)
    ]


def _rank_mod_p(rows: Iterable, n_cols: int) -> tuple:
    """(kept, read, kernel, witness): the integer rows read one at a time
    until ``n_cols`` are independent modulo MODULUS, the indices of those
    independent of the rows before them (len(kept) is the rank of ``read``
    modulo p), and, below n_cols, the kernel modulo p of the kept rows as
    ``_kernel_mod_p`` gives it, unpacked to one list per free column f cut
    after f, and the witness over Q: the first lifted kernel vector
    (``_lift``) as Fractions, padded with zeros, if every lifted vector has
    integer dot product 0 with every row read, else None (both None at full
    rank).

    Rows are reduced into an echelon basis, and one that reduces to zero is
    skipped, until such a row arrives while the kernel is no larger than
    the basis: m - r <= r, for r rows kept of m = n_cols.  A row's residues
    are packed into one integer, entry j in the lane of W = 2 bits(p) +
    bits(n_cols) + 1 bits at bit W j.  A basis row led by 1 at column c is
    stored negated mod p (p - 1 at its lead, -b_j mod p after it) and packed
    from lane 0 at c, so reducing by it is ``packed += x * basis[c]``, with x
    the residue of the row's lowest lane, which is then shifted out.  No
    lane carries: it starts below p and gains less than p^2 per pivot, so it
    stays below p + n_cols p^2 < 2^W.  A new pivot's negated tail is read
    out once for ``_kernel_mod_p``.

    From then on the basis is replaced by its kernel, packed by column with
    lane f of column j holding k_f[j] (below 2^62, see ``_fold``), and a row
    is tested by its dot products d_f with the kernel vectors: it is in the
    span modulo p exactly when all are 0.  The d_f are the lanes of one sum
    of the row's residues times the columns, each below n_cols p 2^62 <=
    2^W.  Otherwise the first free column c with d_c != 0 is the leading
    column the echelon reduction would give it, and the kernel of the grown
    span is k_f - (d_f / d_c) k_c for the other f, still 1 at f and 0 at the
    other free columns and past f: each column gains its lane c times one
    packed multiplier (lanes stay below (p + 1) 2^62 < 2^W), is folded, and
    loses lane c.  Either phase keeps the same rows and ends with the same
    kernel, whenever the switch comes: the vector that is 1 at a free
    column f and 0 at the other free columns and past f is unique.

    At the switch the kernel is also lifted to Q.  While that lift stands,
    a row is first tested exactly; one with every dot product 0 is in the
    span modulo p (see the module docstring) and is skipped with no residue
    taken.  The first row that fails the exact test drops the lift and goes
    on as above.  If the lift stands to the end, the rows read up to the
    switch are tested once, and they decide the witness.  If the kernel
    changed after the switch, or there was none, the final kernel is lifted
    and tested against every row read.  Otherwise the witness is None: the
    kernel did not lift, or a row failed against its lift.
    """
    p = MODULUS
    width = 2 * p.bit_length() + n_cols.bit_length() + 1
    lane = (1 << width) - 1
    shifts = range(0, n_cols * width, width)
    tails = [None] * n_cols  # tails[c]: the negated tail after column c of a row led by 1 at c
    basis = [None] * n_cols  # basis[c]: that row packed from lane 0 at c, p - 1 at its lead
    kept, read, columns, kernel, lifted = [], [], None, None, None
    for row in rows:
        read.append(row)
        if lifted is not None:
            if lifted.annihilates(row):
                continue  # in the span of the kept rows modulo p
            lifted = None
        residues = map(operator.mod, row, repeat(p))
        if columns is not None:
            packed = sum(map(operator.mul, residues, columns))
            dots = [(packed >> s & lane) % p for s in shifts[: len(free)]]
            lead = next((j for j, d in enumerate(dots) if d), None)
            if lead is None:
                continue  # in the span of the kept rows modulo p
            scale = p - pow(dots[lead], -1, p)
            multiplier = sum(d * scale % p << s for d, s in zip(dots, shifts))
            at = width * lead
            below = (1 << at) - 1
            folded = (_fold(c + (c >> at & lane) * multiplier, *masks) for c in columns)
            columns = [c & below | c >> at + width << at for c in folded]
            del free[lead]
            kernel = None
        else:
            packed = sum(map(operator.lshift, residues, shifts))
            for c in range(n_cols):
                x = (packed & lane) % p
                if x:
                    if basis[c] is None:
                        break
                    packed += x * basis[c]
                packed >>= width
            else:  # zero modulo p: in the span of the kept rows
                if n_cols - len(kept) <= len(kept):
                    columns, free = _kernel_mod_p(tails)
                    masks = _fold_masks(width, len(free))
                    kernel = _unpacked(columns, free, width)
                    lifted, switch = _lift(kernel, read, n_cols), len(read)
                continue
            scale = p - pow(x, -1, p)
            tails[c] = tail = [(packed >> s & lane) * scale % p for s in shifts[1 : n_cols - c]]
            basis[c] = p - 1 + sum(map(operator.lshift, tail, shifts[1:]))
        kept.append(len(read) - 1)
        if len(kept) == n_cols:
            return kept, read, None, None
    if kernel is None:  # no switch, or the kernel changed after it: lift the final one
        if columns is None:
            columns, free = _kernel_mod_p(tails)
        kernel = _unpacked(columns, free, width)
        lifted, switch = _lift(kernel, read, n_cols), len(read)
    certified = lifted is not None and all(map(lifted.annihilates, read[:switch]))
    return kept, read, kernel, lifted.witness() if certified else None


def _kernel_mod_p(tails: list) -> tuple:
    """(columns, free): the kernel modulo MODULUS of an echelon basis
    (``tails[c]`` the negated tail after column c of a row led by 1 at c,
    None at a free column), one vector k_i per free column free[i], 1 there,
    0 at the other free columns and past it, packed by column as
    ``_rank_mod_p`` keeps it, lane i of column j holding k_i[j] below 2^62.

    Back-substitution runs over all lanes at once: column free[i] is 2^(W i),
    and a pivot column c is the sum of its negated tail times the columns
    after it, folded (``_fold``); each lane of the sum is below n_cols p
    2^62 <= 2^W, and is 0 for a vector whose free column is below c.
    """
    n_cols = len(tails)
    width = 2 * MODULUS.bit_length() + n_cols.bit_length() + 1
    free = [f for f, tail in enumerate(tails) if tail is None]
    masks = _fold_masks(width, len(free))
    columns = [0] * n_cols
    for i, f in enumerate(free):
        columns[f] = 1 << width * i
    for c in range(n_cols - 1, -1, -1):
        if tails[c] is not None:
            columns[c] = _fold(sum(map(operator.mul, tails[c], columns[c + 1 :])), *masks)
    return columns, free


# Rational reconstruction bound: numerators and denominators up to B with
# 2 B^2 < p, so a residue is the image of at most one such fraction.
LIFT_BOUND = math.isqrt((MODULUS - 1) // 2)


def _reconstruct(x: int) -> tuple | None:
    """(a, b): the fraction a/b with |a|, b <= LIFT_BOUND, b > 0 and a = b x
    modulo MODULUS, by the half extended Euclidean algorithm (Wang, SYMSAC
    1981), or None if there is none.  It is in lowest terms: r = s p + t x
    at every step with gcd(s, t) = 1, so gcd(r, t) divides p, and 0 < |t| <
    p."""
    r0, r1, t0, t1 = MODULUS, x, 0, 1
    while r1 > LIFT_BOUND:
        q = r0 // r1
        r0, r1, t0, t1 = r1, r0 - q * r1, t1, t0 - q * t1
    if abs(t1) > LIFT_BOUND:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


class _LiftedKernel:
    """Kernel vectors lifted to Q and cleared of denominators, packed by
    column for exact dot products with integer rows; ``first`` holds the
    (a, b) pairs of the first vector's entries, from which the witness is
    built.

    Lane f of column j holds v_f[j] in W' = bits(max |row entry|) +
    bits(max |v entry|) + bits(n_cols) + 1 bits, so a row's dot products
    d_f are the lanes of one sum, the row times the columns.  Each |d_f| <
    2^(W' - 1), so the sum of d_f 2^(W' f) is 0 exactly when every d_f is:
    the highest nonzero lane outweighs all the lanes below it.  The row
    bits start at the largest of ``rows``; a wider row packs the columns
    again.
    """

    def __init__(self, vectors: list, first: list, rows: list, n_cols: int):
        self.vectors, self.first, self.n_cols = vectors, first, n_cols
        self.vector_bits = max(max(max(v), -min(v)) for v in vectors).bit_length()
        self._pack(max(max(max(row), -min(row)) for row in rows).bit_length())

    def _pack(self, row_bits: int) -> None:
        self.row_bits = row_bits
        width = row_bits + self.vector_bits + self.n_cols.bit_length() + 1
        self.columns = _packed_columns(self.vectors, width)

    def annihilates(self, row: list) -> bool:
        """Whether every lifted vector has integer dot product 0 with ``row``."""
        bits = max(max(row), -min(row)).bit_length()
        if bits > self.row_bits:
            self._pack(bits)
        return not sum(map(operator.mul, row, self.columns))

    def witness(self) -> list:
        """The first vector as Fractions, padded with zeros to n_cols entries."""
        padding = [Fraction(0)] * (self.n_cols - len(self.first))
        return [Fraction(a, b) for a, b in self.first] + padding


def _lift(kernel: list, rows: list, n_cols: int) -> _LiftedKernel | None:
    """``kernel`` lifted entry by entry with ``_reconstruct``, each vector
    cleared of denominators by the lcm of its entries' denominators, or None
    if an entry does not lift.  The entries stay (a, b) pairs; only the
    witness is built of Fractions."""
    vectors, first = [], None
    for k in kernel:
        pairs = []
        for pair in map(_reconstruct, k):
            if pair is None:
                return None
            pairs.append(pair)
        lcm = math.lcm(*(b for _, b in pairs))
        vectors.append([a * (lcm // b) for a, b in pairs])
        first = first or pairs
    return _LiftedKernel(vectors, first, rows, n_cols)


def rational_rref(matrix: Sequence[Sequence[Fraction]]) -> tuple:
    """(rank, rows, pivots) of a rational matrix by fraction-free Gauss-Jordan.

    Each row is first cleared of denominators (scaled by the lcm of its
    entries' denominators), which leaves the reduced row echelon form
    unchanged.  Every step then eliminates above and below the pivot with
    Bareiss's exact division by the previous pivot, so all entries stay
    integers (minors of the scaled input).  Row i of the reduced row echelon
    form is ``rows[i] / rows[i][pivots[i]]``; rows from ``rank`` on are zero.
    """
    rows = _integer_rows(matrix)
    if not rows:
        return 0, [], []
    n_rows, n_cols = len(rows), len(rows[0])
    pivots = []
    prev_pivot = 1
    for col in range(n_cols):
        rank = len(pivots)
        if rank == n_rows:
            break
        # Smallest nonzero magnitude, lowest row index on ties.
        pivot_row = None
        for r in range(rank, n_rows):
            if rows[r][col] != 0 and (
                pivot_row is None or abs(rows[r][col]) < abs(rows[pivot_row][col])
            ):
                pivot_row = r
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        top = rows[rank]
        pivot = top[col]
        for r in range(n_rows):
            if r != rank:
                factor = rows[r][col]
                rows[r] = [(pivot * a - factor * b) // prev_pivot for a, b in zip(rows[r], top)]
        pivots.append(col)
        prev_pivot = pivot
    return len(pivots), rows, pivots


def bareiss_rank(matrix: Sequence[Sequence[int]]) -> int:
    """Exact rank of an integer (or rational) matrix."""
    return rational_rref(matrix)[0]


def _kernel_from_rref(n_cols: int, rows: list, pivots: list) -> list:
    """The kernel vector that is 1 at the first free column and 0 at the
    other free columns, read from a rank-deficient rational_rref result."""
    pivot_set = set(pivots)
    free_col = next(c for c in range(n_cols) if c not in pivot_set)
    vec = [Fraction(0)] * n_cols
    vec[free_col] = Fraction(1)
    for row, pivot_col in zip(rows, pivots):
        vec[pivot_col] = Fraction(-row[free_col], row[pivot_col])
    return vec


class DensityReport:
    """The rank of a density check and its verdict: "no_common_hypersurface",
    "vanishing_polynomial" or "inconclusive"; ``kernel`` holds the
    monomial-ordered coefficients of a vanishing polynomial, or None."""

    def __init__(self, degree_bound, monomial_count, point_count, rank, verdict, kernel, monomials):
        self.degree_bound, self.monomial_count = degree_bound, monomial_count
        self.point_count, self.rank, self.verdict = point_count, rank, verdict
        self.kernel, self.monomials = kernel, monomials

    @property
    def dense(self) -> bool:
        return self.verdict == "no_common_hypersurface"


def density_check(
    points: Sequence, degree_bound: int, caps: ResourceCaps = DEFAULT_CAPS
) -> DensityReport:
    """Exact rank of the evaluation matrix of all monomials of degree <= d.

    Full column rank certifies that no nonzero polynomial of total degree
    <= d vanishes on every point; otherwise a kernel witness (the
    coefficient vector of such a polynomial) is returned.  With fewer
    points than monomials the verdict is flagged inconclusive.  Points of
    unequal length raise DimensionMismatchError, and ``caps.check`` refuses
    more monomials than its ``max_terms`` before any is built.

    Integer rows are built one point at a time, and none after m are
    independent modulo ``MODULUS``.  Below m, with r rows kept, the m - r
    kernel vectors modulo p are lifted to Q by rational reconstruction
    (numerators and denominators up to isqrt((p - 1)/2)) and checked
    against every row exactly; a row read after the kernel is built is
    tested exactly first, and modulo p only if that test fails.  If all
    pass, (1) the kept rows' minor that is nonzero mod p gives rank >= r,
    (2) the m - r independent lifted vectors give rank <= r, and (3) being
    1 at their free column and 0 past it, they fix the free columns over Q,
    so the first is the reduced row echelon form's witness.  Otherwise
    ``rational_rref`` runs once on every row read.  The module docstring
    has the proofs.
    """
    if degree_bound < 1:
        raise ValueError("degree bound must be >= 1")
    pts = [as_point(p) for p in points]
    if not pts:
        raise ValueError("need at least one point")
    # Fractions are reduced, so equal points have equal (numerator, denominator) pairs
    if len({tuple(map(Fraction.as_integer_ratio, p)) for p in pts}) != len(pts):
        raise DuplicatePointsError("input points must be distinct")
    dimension = len(pts[0])
    if any(len(p) != dimension for p in pts):
        raise DimensionMismatchError("input points differ in their number of coordinates")
    m = math.comb(dimension + degree_bound, degree_bound)
    caps.check("density:monomials", terms=m)  # a vanishing polynomial has m coefficients
    monos = monomials_up_to_degree(dimension, degree_bound)

    kept, rows, _, kernel = _rank_mod_p(_monomial_rows(pts, monos, degree_bound), m)
    rank = len(kept)
    if rank < m and kernel is None:
        rank, rref, pivots = rational_rref(rows)
        kernel = _kernel_from_rref(m, rref, pivots) if rank < m else None
    if rank == m:
        verdict = "no_common_hypersurface"
    else:
        verdict = "inconclusive" if len(pts) < m else "vanishing_polynomial"
    return DensityReport(
        degree_bound=degree_bound,
        monomial_count=m,
        point_count=len(pts),
        rank=rank,
        verdict=verdict,
        kernel=kernel,
        monomials=monos,
    )


def density_report_csv(report: DensityReport) -> str:
    r = report
    text = csv_text(
        ["degree_bound", "monomial_count", "point_count", "rank", "verdict"],
        [[r.degree_bound, r.monomial_count, r.point_count, r.rank, r.verdict]],
    )
    if r.kernel is not None:
        exps = (":".join(map(str, mono)) for mono in r.monomials)
        text += csv_text(["kernel_monomial", "kernel_coefficient"], zip(exps, r.kernel))
    return text
