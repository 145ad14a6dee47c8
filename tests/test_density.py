import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithdyn import density
from arithdyn.density import (
    DuplicatePointsError,
    bareiss_rank,
    density_check,
    monomials_up_to_degree,
    rational_rref,
)
from arithdyn.maps import orbit, triangular_map
from arithdyn.padic import sample_U, sector_config
from corpus import bench_workloads
from oracle import evaluate_monomial


def test_monomials_counts():
    # C(N+d, d) monomials of total degree <= d
    assert len(monomials_up_to_degree(1, 2)) == 3
    assert len(monomials_up_to_degree(2, 2)) == 6
    assert len(monomials_up_to_degree(3, 2)) == 10


def test_monomials_ordering():
    monos = monomials_up_to_degree(2, 2)
    assert monos[0] == (0, 0)
    degrees = [sum(m) for m in monos]
    assert degrees == sorted(degrees)


def test_evaluate_monomial():
    assert evaluate_monomial((2, 1), [Fraction(1, 2), 3]) == Fraction(3, 4)
    assert evaluate_monomial((0, 0), [7, 7]) == 1


def test_bareiss_rank_hand_cases():
    assert bareiss_rank([[1, 2], [2, 4]]) == 1
    assert bareiss_rank([[1, 0], [0, 1]]) == 2
    assert bareiss_rank([[0, 0], [0, 0]]) == 0
    # 3x3 with one dependent row
    assert bareiss_rank([[1, 2, 3], [4, 5, 6], [5, 7, 9]]) == 2


def test_rational_rref_agrees_with_bareiss():
    rows = [[Fraction(1), Fraction(2)], [Fraction(1, 3), Fraction(2, 3)]]
    rank, _, _ = rational_rref(rows)
    assert rank == bareiss_rank([[3, 6], [1, 2]]) == 1


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        min_size=1,
        max_size=4,
    )
)
def test_rank_cross_check(rows):
    rank = bareiss_rank(rows)
    frac_rows = [[Fraction(x) for x in row] for row in rows]
    assert rational_rref(frac_rows)[0] == rank
    assert rank <= min(len(rows), 3)


def test_three_generic_points_degree_two_rank_three():
    # three distinct points on the line impose independent conditions up to
    # the number of points
    report = density_check([[1, 1], [2, 4], [3, 9]], 2)
    assert report.rank == 3
    assert report.verdict == "inconclusive"  # 3 points vs 6 monomials


def test_parabola_kernel_witness():
    # six points on x2 = x1^2: the evaluation matrix must have a kernel and
    # the witness must actually vanish at every input point
    points = [[Fraction(t, 2), Fraction(t, 2) ** 2] for t in range(6)]
    report = density_check(points, 2)
    assert report.verdict == "vanishing_polynomial"
    assert report.kernel is not None
    for p in points:
        value = sum(
            c * evaluate_monomial(mono, p)
            for c, mono in zip(report.kernel, report.monomials)
        )
        assert value == 0
    # the witness is supported on {1, x1^2, x2} compatible with x2 - x1^2
    support = {m for c, m in zip(report.kernel, report.monomials) if c != 0}
    assert support <= {(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)}


def test_dense_verdict_on_generic_grid():
    points = [[Fraction(a), Fraction(b)] for a, b in itertools.product(range(3), range(3))]
    report = density_check(points, 2)
    assert report.rank == 6
    assert report.dense
    assert report.verdict == "no_common_hypersurface"


def test_verdict_invariant_under_permutation():
    points = [[Fraction(a), Fraction(b)] for a, b in itertools.product(range(3), range(3))]
    report = density_check(points, 2)
    shuffled = density_check(list(reversed(points)), 2)
    assert (report.rank, report.verdict) == (shuffled.rank, shuffled.verdict)


def test_duplicate_points_rejected():
    with pytest.raises(DuplicatePointsError):
        density_check([[1, 2], [1, 2]], 2)


def test_degree_bound_validated():
    with pytest.raises(ValueError):
        density_check([[1, 2]], 0)


def test_kernel_vector_none_for_full_rank():
    # monomials 1, x1, x2 on three affinely independent points: full rank
    report = density_check([[0, 0], [1, 0], [0, 1]], 1)
    assert (report.rank, report.verdict) == (3, "no_common_hypersurface")
    assert report.kernel is None


def count_rref_calls(monkeypatch) -> list:
    """Record every density.rational_rref call; the list fills as they run."""
    calls = []
    rref = density.rational_rref

    def counting_rref(matrix):
        calls.append(matrix)
        return rref(matrix)

    monkeypatch.setattr(density, "rational_rref", counting_rref)
    return calls


def test_deficient_rank_is_certified_without_exact_elimination(monkeypatch):
    # a deficient matrix whose kernel modulo p lifts to Q and is checked
    # against every row gives the rank and the witness with no elimination;
    # a full-rank one is settled by the mod-p certificate alone
    rref_calls, bareiss_calls = count_rref_calls(monkeypatch), []
    monkeypatch.setattr(density, "bareiss_rank", lambda matrix: bareiss_calls.append(matrix))
    # seven points on the parabola x2 = x1^2: rank 5 of 6 monomials
    report = density_check([[t, t * t] for t in range(7)], 2)
    assert (len(rref_calls), len(bareiss_calls)) == (0, 0)
    assert (report.rank, report.verdict) == (5, "vanishing_polynomial")
    kernel = dict(zip(report.monomials, report.kernel))
    assert kernel[(2, 0)] == -kernel[(0, 1)] != 0
    assert all(c == 0 for m, c in kernel.items() if m not in ((2, 0), (0, 1)))
    # the full-rank 3x3 grid: rank 6 of 6 monomials, no kernel
    rref_calls.clear()
    report = density_check([[a, b] for a, b in itertools.product(range(3), range(3))], 2)
    assert (len(rref_calls), len(bareiss_calls)) == (0, 0)
    assert (report.rank, report.kernel) == (6, None)


def test_singular_mod_p_falls_back_to_exact_rank(monkeypatch):
    # 1, x1, x2 at (0, 0), (p, 0), (0, 1): the matrix has determinant p, so
    # it is singular mod p and the certificate proves nothing, but its rank
    # over Q is 3: the kernel modulo p does not lift, and one elimination
    # runs on all three rows
    rref_calls = count_rref_calls(monkeypatch)
    report = density_check([[0, 0], [density.MODULUS, 0], [0, 1]], 1)
    assert (report.rank, report.verdict, report.kernel) == (3, "no_common_hypersurface", None)
    assert len(rref_calls) == 1


def test_row_off_the_span_by_a_multiple_of_the_modulus_reaches_full_elimination(monkeypatch):
    # 1, x1, x1^2 at 0 and p: the rows (1, 0, 0) and (1, p, p^2) are equal
    # mod p, so one row is kept, but the second lies off its span over Q by
    # a multiple of p; the exact rank is 2 and the witness is x1^2 - p*x1
    p = density.MODULUS
    kept, rows, _, witness = density._rank_mod_p(iter([[1, 0, 0], [1, p, p * p]]), 3)
    assert (kept, rows, witness) == ([0], [[1, 0, 0], [1, p, p * p]], None)
    rref_calls = count_rref_calls(monkeypatch)
    report = density_check([[0], [p]], 2)
    assert [len(matrix) for matrix in rref_calls] == [2]
    assert (report.rank, report.verdict, report.kernel) == (2, "inconclusive", [0, -p, 1])


@settings(max_examples=100, deadline=None)
@given(
    st.integers(-density.LIFT_BOUND, density.LIFT_BOUND),
    st.integers(1, density.LIFT_BOUND),
)
def test_reconstruct_round_trips_within_the_bound(a, b):
    # a fraction with |a|, b <= LIFT_BOUND is the only one of that size
    # with its residue, and it is the one found
    p = density.MODULUS
    assert density._reconstruct(a * pow(b, -1, p) % p) == Fraction(a, b).as_integer_ratio()


def test_reconstruct_refuses_a_residue_past_the_bound():
    # the integer B + 1 has no fraction with |a|, b <= B as its residue
    bound = density.LIFT_BOUND
    assert 2 * bound**2 < density.MODULUS < 2 * (bound + 1) ** 2
    assert density._reconstruct(bound + 1) is None
    assert density._reconstruct(bound) == (bound, 1)
    assert density._reconstruct(density.MODULUS - bound) == (-bound, 1)


def residues(*vector) -> list:
    """The residues modulo MODULUS of a vector of Fractions."""
    p = density.MODULUS
    return [Fraction(x).numerator * pow(Fraction(x).denominator, -1, p) % p for x in vector]


def lift_at_the_end(kernel, rows, n_cols):
    """The witness of ``kernel`` lifted with density._lift and tested
    against every row, or None: the certificate of a kernel lifted once all
    rows are read."""
    lifted = density._lift(kernel, rows, n_cols)
    if lifted is None or not all(map(lifted.annihilates, rows)):
        return None
    return lifted.witness()


def test_lift_kernel_refuses_opposite_dot_products_on_one_row():
    # the kernel of (2, 1, 0) with free columns 1 and 2 lifts to (-1/2, 1)
    # and (0, 0, 1); the row (0, 1, -2) has dot products +2 and -2 with the
    # cleared vectors (-1, 2) and (0, 0, 1), which would cancel in a sum of
    # lanes that are not shifted apart
    kernel = [residues(Fraction(-1, 2), 1), residues(0, 0, 1)]
    want = [Fraction(-1, 2), Fraction(1), Fraction(0)]
    assert lift_at_the_end(kernel, [[2, 1, 0]], 3) == want
    assert lift_at_the_end(kernel, [[2, 1, 0], [0, 1, -2]], 3) is None


def test_lift_kernel_refuses_a_failure_in_the_last_lane_only():
    # free columns 1, 2 and 3 over the pivot row (1, -3/4, 0, 5); the row
    # (0, 0, 0, 7) fails only against the last vector, (-5, 0, 0, 1)
    kernel = [residues(Fraction(3, 4), 1), residues(0, 0, 1), residues(-5, 0, 0, 1)]
    rows = [[4, -3, 0, 20], [8, -6, 0, 40]]
    want = [Fraction(3, 4), Fraction(1), Fraction(0), Fraction(0)]
    assert lift_at_the_end(kernel, rows, 4) == want
    assert lift_at_the_end(kernel, rows + [[0, 0, 0, 7]], 4) is None
    assert lift_at_the_end(kernel, rows + [[0, 0, 0, -7]], 4) is None


def count_built_rows(monkeypatch) -> list:
    """Record every row density._monomial_rows yields; the list fills as
    density_check reads them."""
    built = []
    rows = density._monomial_rows

    def counting_rows(*args):
        for row in rows(*args):
            built.append(row)
            yield row

    monkeypatch.setattr(density, "_monomial_rows", counting_rows)
    return built


def test_full_rank_set_builds_only_the_rows_it_keeps(monkeypatch):
    # 120 sector points of E1 at degree 6: the first 28 rows are
    # independent mod p, and no row after them is built
    built = count_built_rows(monkeypatch)
    e1 = triangular_map(["x1^3+x2", "x2^2+1"])
    report = density_check(sample_U(sector_config(e1), 120, 9), 6)
    assert (report.rank, report.verdict) == (28, "no_common_hypersurface")
    assert len(built) == 28


def test_benchmark_sets_run_no_exact_elimination(monkeypatch):
    # 120 sector points of E1 at degree 6: full rank 28, certified mod p;
    # 80 points on x2 = x1^3 + x1 + 1: rank 18, certified by the lifted
    # kernel, which gives the witness; neither runs an exact elimination
    rref_calls = count_rref_calls(monkeypatch)
    e1 = triangular_map(["x1^3+x2", "x2^2+1"])
    report = density_check(sample_U(sector_config(e1), 120, 9), 6)
    assert (report.rank, report.verdict) == (28, "no_common_hypersurface")
    assert len(rref_calls) == 0
    curve = [(x, x**3 + x + 1) for x in (Fraction(k, 7) for k in range(-40, 40))]
    report = density_check(curve, 6)
    assert (report.rank, report.verdict) == (18, "vanishing_polynomial")
    assert len(rref_calls) == 0
    # the lifted witness vanishes at every point
    witness = dict(zip(report.monomials, report.kernel))
    assert all(
        sum(c * evaluate_monomial(mono, point) for mono, c in witness.items()) == 0
        for point in curve
    )


def test_kernel_that_does_not_lift_runs_exact_elimination_once(monkeypatch):
    # 1, x2, x1 on 4 points of x2 = a*x1 + 5 with a = (2^40 + 1)/3: the
    # witness x1 - 3/(2^40 + 1)*x2 + 15/(2^40 + 1) has a denominator past
    # the reconstruction bound, so the kernel modulo p does not lift to it
    # and one elimination on all four rows gives rank and witness
    rref_calls = count_rref_calls(monkeypatch)
    a = Fraction(2**40 + 1, 3)
    assert a.numerator > density.LIFT_BOUND
    report = density_check([(Fraction(x), a * x + 5) for x in range(4)], 1)
    assert [len(matrix) for matrix in rref_calls] == [4]
    assert (report.rank, report.verdict) == (2, "vanishing_polynomial")
    assert report.monomials == [(0, 0), (0, 1), (1, 0)]
    assert report.kernel == [Fraction(15, 2**40 + 1), Fraction(-3, 2**40 + 1), 1]


@pytest.mark.parametrize(
    "points, degree",
    [
        (sample_U(sector_config(triangular_map(["x1^3+x2", "x2^2+1"])), 120, 9), 6),
        ([(x, x**3 + x + 1) for x in (Fraction(k, 7) for k in range(-40, 40))], 6),
        # entries such as x1*x2 = -7/12 and x2^2*x1 = 16/27 cancel primes
        (
            [
                (Fraction(1, 2), Fraction(2, 3)),
                (Fraction(5, 6), Fraction(-7, 10)),
                (Fraction(3), Fraction(4, 9)),
            ],
            6,
        ),
        (
            [
                (Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)),
                (Fraction(3), Fraction(1, 6), Fraction(-7, 9)),
                (Fraction(-4, 5), Fraction(0), Fraction(10, 3)),
            ],
            3,
        ),
        ([(Fraction(3, 4), Fraction(-5, 6), Fraction(7))], 1),
        # two bases, x1 and L: the first gathered column is a tuple
        ([(Fraction(3, 4),), (Fraction(-5, 6),), (Fraction(7),)], 3),
    ],
    ids=["sample_U", "curve", "cancelling", "three_variables_degree_3", "degree_1", "dimension_1"],
)
def test_integer_rows_match_fraction_construction(points, degree):
    # the integer row build equals the Fraction evaluation matrix cleared of
    # denominators row by row, with the power of L appended to each exponent
    monos = monomials_up_to_degree(len(points[0]), degree)
    fraction_rows = [[evaluate_monomial(mono, p) for mono in monos] for p in points]
    assert list(density._monomial_rows(points, monos, degree)) == density._integer_rows(
        fraction_rows
    )


def test_orbit_points_fill_degree_two_space():
    # orbit prefixes of the reference map avoid every conic once enough
    # distinct points accumulate
    f = triangular_map(["x1^3+x2", "x2^2+1"])
    points = []
    for start in ([Fraction(1, 256), Fraction(1, 2)], [Fraction(1, 512), Fraction(3, 2)]):
        points.extend(orbit(f, start, 3))
    report = density_check(points, 2)
    assert report.point_count == 8
    assert report.dense


def echelon_mod_p(rows, n_cols):
    """(kept, kernel) of the rows by plain elimination modulo MODULUS, with
    no kernel phase: the rows independent of those before them, stopping at
    n_cols, and for each free column f of the reduced echelon form the
    kernel vector that is 1 at f and 0 at the other free columns, cut after
    f (None at full rank)."""
    p = density.MODULUS
    leads, kept = {}, []
    for i, row in enumerate(rows):
        r = [a % p for a in row]
        for c in sorted(leads):
            if r[c]:
                r = [(a - r[c] * b) % p for a, b in zip(r, leads[c])]
        lead = next((c for c, a in enumerate(r) if a), None)
        if lead is not None:
            inverse = pow(r[lead], -1, p)
            leads[lead] = [a * inverse % p for a in r]
            kept.append(i)
            if len(kept) == n_cols:
                return kept, None
    for c in sorted(leads, reverse=True):
        for d in leads:
            if d < c and leads[d][c]:
                leads[d] = [(a - leads[d][c] * b) % p for a, b in zip(leads[d], leads[c])]
    kernel = []
    for f in (f for f in range(n_cols) if f not in leads):
        kernel.append([-leads[c][f] % p if c in leads else int(c == f) for c in range(f + 1)])
    return kept, kernel


def alternating_points(deficient: bool) -> list:
    """Points in 3 variables alternating between the line (t, 0, 0) and
    random points, which lie on x3 = x1 x2 when ``deficient``: from the
    sixth line point on, every other row is dependent at degree 4, while
    the rank is still far below the 35 monomials."""
    rng = random.Random(37)
    points = []
    for t in range(1, 41):
        a, b = (Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in range(2))
        c = a * b if deficient else Fraction(rng.randint(-30, 30), rng.randint(1, 9))
        points += [(Fraction(t), Fraction(0), Fraction(0)), (a, b, c)]
    return list(dict.fromkeys(points))


@pytest.mark.parametrize("deficient", [False, True], ids=["full_rank", "rank_deficient"])
def test_rank_mod_p_builds_the_kernel_only_once_it_is_no_larger_than_the_basis(
    monkeypatch, deficient
):
    # a dependent row that arrives while m - r > r is skipped, not a switch
    # to the kernel phase; kept rows and kernel are those of elimination
    # alone and of rational_rref over Q
    degree, m = 4, 35
    points = alternating_points(deficient)
    all_rows = list(density._monomial_rows(points, monomials_up_to_degree(3, degree), degree))
    built, read = [], []
    kernel_of = density._kernel_mod_p

    def counting(basis):
        r = sum(lead is not None for lead in basis)
        built.append((len(basis) - r, r, len(read) == len(all_rows)))
        return kernel_of(basis)

    def reading():
        for row in all_rows:
            read.append(row)
            yield row

    monkeypatch.setattr(density, "_kernel_mod_p", counting)
    kept, rows, kernel, _ = density._rank_mod_p(reading(), m)
    assert (kept, kernel) == echelon_mod_p(all_rows, m)
    assert built and all(free <= r or at_end for free, r, at_end in built)
    rank, rref, pivots = rational_rref(rows)
    assert rank == len(kept) == (25 if deficient else 35)
    p = density.MODULUS
    free = [f for f in range(m) if f not in pivots]
    over_q = [[Fraction(int(c == f)) for c in range(f + 1)] for f in free]
    for vec, f in zip(over_q, free):
        for row, c in zip(rref, pivots):
            if c < f:
                vec[c] = Fraction(-row[f], row[c])
    mod_p = [[q.numerator * pow(q.denominator, -1, p) % p for q in v] for v in over_q]
    assert (kernel or []) == mod_p


def switch_row(rows, n_cols) -> int | None:
    """The index of the first row that is dependent modulo p on the rows
    before it while n_cols - r <= r for their rank r, from ``echelon_mod_p``
    alone; None if there is none."""
    kept = set(echelon_mod_p(rows, n_cols)[0])
    rank = 0
    for i in range(len(rows)):
        if i in kept:
            rank += 1
        elif n_cols - rank <= rank:
            return i
    return None


class LoggedEntry(int):
    """A row entry that adds its row's index to ``log`` whenever it is taken
    modulo an integer, which every reduction and test modulo p starts with."""

    def __mod__(self, modulus):
        self.log.add(self.row)
        return int(self) % modulus


def logged_rows(rows, log) -> list:
    """``rows`` with every entry a LoggedEntry that records into ``log``."""
    out = []
    for i, row in enumerate(rows):
        out.append([LoggedEntry(a) for a in row])
        for entry in out[-1]:
            entry.row, entry.log = i, log
    return out


@pytest.mark.parametrize("variant", range(32))
def test_benchmark_curve_rows_after_the_switch_are_tested_only_exactly(variant):
    # 80 points on x2 = x1^3 + x1 + 1 at degree 6: rows 0-17 are kept, row
    # 18 is the first dependent one and builds and lifts the kernel, and
    # each later row passes the exact test, so none of rows 19-79 is
    # reduced modulo p; kept rows, kernel and witness are those of
    # elimination modulo p and a lift of its kernel checked at the end
    points = bench_workloads()._curve_points(variant, 80)
    rows = list(density._monomial_rows(points, monomials_up_to_degree(2, 6), 6))
    reduced = set()
    kept, read, kernel, witness = density._rank_mod_p(iter(logged_rows(rows, reduced)), 28)
    assert (len(read), len(kept), switch_row(rows, 28)) == (80, 18, 18)
    assert reduced == set(range(19))
    assert (kept, kernel) == echelon_mod_p(rows, 28)
    assert witness is not None and witness == lift_at_the_end(kernel, rows, 28)


def reference_report(points, degree) -> tuple:
    """(rank, verdict, kernel) of ``points`` by rational_rref on every row
    of the Fraction evaluation matrix."""
    monos = monomials_up_to_degree(len(points[0]), degree)
    rank, rref, pivots = rational_rref([[evaluate_monomial(m, p) for m in monos] for p in points])
    kernel = density._kernel_from_rref(len(monos), rref, pivots) if rank < len(monos) else None
    if rank == len(monos):
        return rank, "no_common_hypersurface", kernel
    return rank, "inconclusive" if len(points) < len(monos) else "vanishing_polynomial", kernel


RATIONALS = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 9))
STEEP = Fraction(2**40 + 1, 3)  # past LIFT_BOUND: a kernel through it does not lift


@st.composite
def switching_sets(draw):
    """Points in the plane at degree 2 or 3: some on a line or a conic
    through rationals (the line's slope may be (2^40 + 1)/3, whose kernel
    does not lift), so that a row that is zero modulo p arrives while the
    kernel is no larger than the basis, then points off it, a point whose
    coordinate is a multiple of p (its row is in the span modulo p of the
    rows before it but may be off it over Q), or more points on it; one
    such point may also come first, before the switch."""
    degree = draw(st.sampled_from([2, 3]))
    a = draw(st.one_of(RATIONALS, st.just(STEEP)))
    b = draw(RATIONALS)
    conic = draw(st.booleans())
    xs = draw(st.lists(RATIONALS, min_size=2 * degree + 1, max_size=2 * degree + 6, unique=True))
    points = [(x, a * x**2 + b if conic else a * x + b) for x in xs]
    p = density.MODULUS
    tail = st.one_of(
        st.tuples(RATIONALS, RATIONALS),
        st.builds(lambda k, y: (Fraction(k * p), y), st.integers(-2, 2), RATIONALS),
    )
    points = draw(st.lists(tail, max_size=1)) + points + draw(st.lists(tail, max_size=4))
    return list(dict.fromkeys(points)), degree


E1_SECTOR = sector_config(triangular_map(["x1^3+x2", "x2^2+1"]))
P = Fraction(density.MODULUS)
# at degree 1, the row of (p, 0) is in the span of the row of (0, 0) modulo
# p but not over Q, and (0, 2) is the switch: the deferred check fails
OFF_THE_SPAN_BEFORE_THE_SWITCH = [(Fraction(0), Fraction(0)), (P, Fraction(0))] + [
    (Fraction(0), Fraction(y)) for y in (1, 2)
]


@settings(max_examples=150, deadline=None)
@given(switching_sets())
@example((sample_U(E1_SECTOR, 120, 7), 6))
@example((sample_U(E1_SECTOR, 120, 11), 6))
@example((sample_U(E1_SECTOR, 120, 31), 6))
@example(([(Fraction(x), STEEP * x + 5) for x in range(4)], 1))
@example(([(Fraction(x), STEEP * x + 5) for x in range(9)] + [(Fraction(1, 2), Fraction(3))], 2))
@example(([(Fraction(0),), (P,)], 2))
@example(([(Fraction(x), Fraction(x)) for x in range(4)] + [(Fraction(0), P)], 1))
@example(([(Fraction(0), Fraction(y)) for y in (0, 1, 2)] + [(P, Fraction(0))], 1))
@example((OFF_THE_SPAN_BEFORE_THE_SWITCH, 1))
def test_exact_tests_after_the_switch_match_elimination_and_rational_rref(case):
    # kept rows and kernel are those of elimination modulo p alone, the
    # witness that of a lift of its kernel checked against every row at the
    # end, and the report that of rational_rref on every row
    points, degree = case
    monos = monomials_up_to_degree(len(points[0]), degree)
    m = len(monos)
    rows = list(density._monomial_rows(points, monos, degree))
    kept, read, kernel, witness = density._rank_mod_p(iter(rows), m)
    assert (kept, kernel) == echelon_mod_p(read, m)
    assert read == rows[: len(read)]
    if kernel is not None:
        assert witness == lift_at_the_end(kernel, read, m)
    report = density_check(points, degree)
    assert (report.rank, report.verdict, report.kernel) == reference_report(points, degree)


def test_exact_test_widens_its_lanes_for_a_wider_row():
    # the switch comes at (1, 1, 0, 0), and the lifted kernel (0, 0, 1),
    # (0, 0, 0, 1) is packed in 6-bit lanes for the rows read so far; the
    # row (0, 0, 64, -1) has dot products 64 and -1, which cancel to 0 in
    # those lanes, so it is tested in wider ones, fails, and is kept
    rows = [[1, 0, 0, 0], [0, 1, 0, 0], [1, 1, 0, 0], [0, 0, 64, -1]]
    kept, read, kernel, witness = density._rank_mod_p(iter(rows), 4)
    assert (kept, kernel) == echelon_mod_p(rows, 4)
    assert kept == [0, 1, 3]
    assert witness == [0, 0, Fraction(1, 64), 1]
