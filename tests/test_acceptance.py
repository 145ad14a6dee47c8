"""Acceptance gate: ten end-to-end checks with stated tolerances and budgets.

Each test prints one PASS/FAIL line.  Two checks assert a limit through a
closed form or a proved bound, because the limit itself is not finitely
computable:

* check 3: for A = [[2, 0], [5, 2]] the largest entry of A^n is exactly
  5*n*2^(n-1) (A = 2I + N with N^2 = 0, so A^n = 2^n I + n 2^(n-1) N).  Its
  n-th root 2*(5n/2)^(1/n) decreases towards the spectral radius 2, never
  drops below it, is 2.2028 at n = 50 and lies in [2.0, 2.2] for every
  n >= 51; the check asserts all of that up to n = 60.
* check 9: on the sector samples of E1 = (x1^3+x2, x2^2+1), the canonical
  coordinates (L, L x1, L x2) of P map to the integer vector
  (L^3, (L x1)^3 + (L x2) L^2, (L x2)^2 L + L^3) representing f(P), so the
  exact height arguments satisfy H(f^n P) <= 2 H(f^(n-1) P)^3.  This
  telescopes to delta^(-n) h+(f^n P) <= h+(P) + (log 2)/2, the upper twin
  of check 5's floor.  The step bound and the floor make khat_n converge to
  a positive limit, so h_n / h_(n-1) = delta * khat_n / khat_(n-1) tends
  to delta and is asserted within 0.05 of it for 5 <= n <= 8, on the
  sector samples and on the growth experiment of check 6.  The root
  a_n = delta * khat_n^(1/n) is asserted below delta + 0.05 only on the
  growth experiment: on the sector khat_n >= 8 log 2 keeps it far above
  that at n <= 8.
"""

import math
import sys
import time
from fractions import Fraction

from corpus import BASE_POINTS, CORPUS, E1, PRODUCT_PAIRS, SECOND_CASE_MAP
from oracle import DegreeMatrix, degree_matrix, spectral_radius_maxroot

from arithdyn.degrees import (
    dynamical_degree_exact,
    dynamical_degree_sequence,
    product_map,
)
from arithdyn.density import density_check
from arithdyn.heights import (
    height_sequence,
    height_sequence_of_orbit,
    product_height_additivity,
)
from arithdyn.maps import iterate_symbolic, orbit, orbits_disjoint_prefix
from arithdyn.padic import (
    sample_U,
    sector_config,
    valuation_signature,
    verify_dominant_value,
    verify_stability,
    vp,
)


def report(number: int, label: str, passed: bool, detail: str = "") -> None:
    marker = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    line = f"[{marker}] acceptance {number}: {label}{suffix}"
    print(line)
    # also bypass pytest's capture so the gate summary is always visible
    print(line, file=sys.__stdout__)


class Budget:
    """Wall-clock budget; checked alongside the assertion itself."""

    def __init__(self, seconds: float):
        self.limit = seconds
        self.start = time.perf_counter()

    def ok(self) -> bool:
        return time.perf_counter() - self.start < self.limit


def _sector_samples():
    cfg = sector_config(E1)
    return cfg, sample_U(cfg, 20, seed=0)


_ORBIT_CACHE: dict = {}


def _sector_orbits():
    """Length-8 orbits and height rows of the 20 sector samples, shared
    between the lower-bound check and the upper-proxy check (each orbit
    coordinate reaches ~10^5 digits, so compute them once)."""
    if not _ORBIT_CACHE:
        cfg, samples = _sector_samples()
        orbits = [orbit(E1, p, 8) for p in samples]
        seqs = [height_sequence_of_orbit(o, delta=3) for o in orbits]
        _ORBIT_CACHE["data"] = (cfg, samples, orbits, seqs)
    return _ORBIT_CACHE["data"]


def test_acceptance_01_degree_matrix_diagonal_law():
    budget = Budget(10)
    ok = True
    for f in CORPUS:
        base = degree_matrix(f)
        squared = degree_matrix(iterate_symbolic(f, 2))
        ok = ok and squared.diagonal() == tuple(d * d for d in base.diagonal())
        bound = base.power(2)
        ok = ok and squared.size == bound.size and all(
            x <= y for row, top in zip(squared.entries, bound.entries) for x, y in zip(row, top)
        )
    passed = ok and budget.ok()
    report(1, "Deg(f^2) diagonal = (d_ii^2), Deg(f^2) <= Deg(f)^2 entrywise", passed)
    assert ok, "degree-matrix law violated on the corpus"
    assert budget.ok(), "exceeded the 10 s budget"


def test_acceptance_02_exact_dynamical_degree():
    budget = Budget(60)
    ok = True
    for f in CORPUS:
        delta = dynamical_degree_exact(f)
        seq = dynamical_degree_sequence(f, 5)
        n, d, root = seq.values[-1]
        ok = ok and n == 5
        ok = ok and d >= delta**5  # exact integers: roots never undershoot
        ok = ok and abs(root - delta) <= 0.35
    passed = ok and budget.ok()
    report(2, "deg(f^5)^(1/5) within 0.35 of max d_ii and never below it", passed)
    assert ok, "fifth-root degree estimate out of tolerance"
    assert budget.ok(), "exceeded the 60 s budget"


def test_acceptance_03_spectral_radius_limit():
    budget = Budget(1)
    A = DegreeMatrix(((2, 0), (5, 2)))
    result = spectral_radius_maxroot(A, 60)
    roots = dict(result.values)
    decreasing = all(roots[n] <= roots[n - 1] + 1e-12 for n in range(11, 61))
    triangular_exact = all(
        spectral_radius_maxroot(degree_matrix(f), 8).exact
        == degree_matrix(f).max_diagonal()
        for f in CORPUS
    )
    # A = 2I + N with N^2 = 0, so A^n = 2^n I + n 2^(n-1) N exactly
    closed_form = A.power(30).max_entry() == 5 * 30 * 2**29
    above_radius = all(root >= 2 for root in roots.values())
    enters_at_51 = not 2.0 <= roots[50] <= 2.2 and all(
        2.0 <= roots[n] <= 2.2 for n in range(51, 61)
    )
    passed = (
        decreasing
        and triangular_exact
        and closed_form
        and above_radius
        and enters_at_51
        and budget.ok()
    )
    report(
        3,
        "max entry of [[2,0],[5,2]]^30 = 5*30*2^29; its n-th root "
        "2*(5n/2)^(1/n) decreases, stays >= 2 and lies in [2.0, 2.2] exactly "
        "from n = 51 to 60; triangular exact path = max diagonal",
        passed,
        detail=f"root at n=50 is {roots[50]:.5f}, at n=51 {roots[51]:.5f}",
    )
    assert decreasing, "max-entry roots are not decreasing on 10..60"
    assert triangular_exact, "exact path disagrees with the max diagonal"
    assert closed_form, "max entry of A^30 is not 5*30*2^29"
    assert above_radius, "a max-entry root dropped below the spectral radius 2"
    assert enters_at_51, (
        "the root 2*(5n/2)^(1/n) is 2.20277 at n=50 and in [2.0, 2.2] for "
        f"n >= 51, but the computed roots are {roots[50]:.7f} at n=50 and "
        f"{[round(roots[n], 7) for n in range(51, 61)]} for n = 51..60"
    )
    assert budget.ok(), "exceeded the 1 s budget"


def test_acceptance_04_sector_stability():
    budget = Budget(5)
    cfg, samples = _sector_samples()
    assert (cfg.prime, cfg.C) == (2, 7)
    steps = [[valuation_signature(q, cfg.prime) for q in orbit(E1, p, 1)] for p in samples]
    stable = all(verify_stability(cfg, steps))
    dominant = all(verify_dominant_value(E1, sigs) for sigs in steps)
    passed = stable and dominant and budget.ok()
    report(
        4,
        "20 samples: f(P) in U, first image coordinate p-adically largest, "
        "dominant-value equality exact",
        passed,
    )
    assert stable, "a sample left the sector or lost first-coordinate dominance"
    assert dominant, "dominant-monomial valuation equality failed"
    assert budget.ok(), "exceeded the 5 s budget"


def test_acceptance_05_canonical_height_lower_bound():
    budget = Budget(60)
    cfg, samples, orbits, seqs = _sector_orbits()
    d11 = degree_matrix(E1).diagonal()[0]
    log_p = math.log(cfg.prime)
    integer_ok = True
    log_ok = True
    for point, orb, seq in zip(samples, orbits, seqs):
        e1 = -vp(point[0], cfg.prime)
        for n in range(1, 9):
            if -vp(orb[n][0], cfg.prime) < d11**n * e1:
                integer_ok = False
        for row in seq.rows:
            if row.khat < e1 * log_p - 1e-9:
                log_ok = False
    passed = integer_ok and log_ok and budget.ok()
    report(
        5,
        "delta^(-n) h+(f^n P) >= e1 log p for n <= 8 on all 20 samples",
        passed,
    )
    assert integer_ok, "-v_p(x1 of f^n P) dropped below d11^n * e1"
    assert log_ok, "khat_n dropped below e1 * log p"
    assert budget.ok(), "exceeded the 60 s budget"


def test_acceptance_06_two_variable_second_case():
    budget = Budget(30)
    cfg = sector_config(SECOND_CASE_MAP, prime=2)
    point = (Fraction(1), Fraction(1, 2))
    current = point
    valuations_ok = True
    for n in range(1, 6):
        current = SECOND_CASE_MAP.apply(current)
        if vp(current[1], 2) != -(2**n):
            valuations_ok = False
    assert cfg.prime == 2
    seq = height_sequence(SECOND_CASE_MAP, point, 8)
    window = [row.root for row in seq.rows if row.n >= 5]
    proxy_ok = max(window) <= 2 + 0.05
    a8 = seq.rows[8].root
    near_ok = abs(a8 - 2) <= 0.3
    passed = valuations_ok and proxy_ok and near_ok and budget.ok()
    report(
        6,
        "v(x2 of f^n P) = -2^n exactly, root proxy <= 2.05, a_8 within 0.3 of 2",
        passed,
        detail=f"a_8 = {a8:.4f}",
    )
    assert valuations_ok, "second-coordinate valuation growth is not -2^n"
    assert proxy_ok, "root proxy exceeded 2.05"
    assert near_ok, "a_8 not within 0.3 of 2"
    assert budget.ok(), "exceeded the 30 s budget"


def test_acceptance_07_product_rule():
    budget = Budget(30)
    degree_ok = True
    additivity_ok = True
    for ia, ib in PRODUCT_PAIRS:
        fa, fb = CORPUS[ia], CORPUS[ib]
        degree_ok = degree_ok and dynamical_degree_exact(product_map(fa, fb)) == max(
            dynamical_degree_exact(fa), dynamical_degree_exact(fb)
        )
        seq_a, seq_b = (height_sequence(h, BASE_POINTS[i], 5) for h, i in ((fa, ia), (fb, ib)))
        add = product_height_additivity(fa, seq_a, fb, seq_b, fg=product_map(fa, fb))
        additivity_ok = additivity_ok and add.projections_match
        for ra, rb, (h_sum, _) in zip(add.seq_a.rows, add.seq_b.rows, add.sums):
            # the summed height is the sum of the logs of the factors' exact
            # max-coordinate arguments, bit for bit
            exact_sum = math.log(ra.height_arg) + math.log(rb.height_arg)
            additivity_ok = additivity_ok and h_sum == exact_sum
    passed = degree_ok and additivity_ok and budget.ok()
    report(
        7,
        "5 product pairs: delta(f x g) = max(delta_f, delta_g); "
        "height rows add exactly",
        passed,
    )
    assert degree_ok, "product dynamical degree disagreed with the max rule"
    assert additivity_ok, "product height rows failed exact additivity"
    assert budget.ok(), "exceeded the 30 s budget"


def test_acceptance_08_iterate_consistency():
    budget = Budget(60)
    ok = True
    for f, point in zip(CORPUS, BASE_POINTS):
        delta = dynamical_degree_exact(f)
        f2 = iterate_symbolic(f, 2)
        ok = ok and dynamical_degree_exact(f2) == delta**2
        fast = orbit(f2, point, 3)
        slow = orbit(f, point, 6)
        for n in range(4):
            ok = ok and fast[n] == slow[2 * n]
    passed = ok and budget.ok()
    report(8, "delta(f^2) = delta(f)^2; (f^2)^n P = f^(2n) P row-exact, n <= 3", passed)
    assert ok, "iterate consistency failed on the corpus"
    assert budget.ok(), "exceeded the 60 s budget"


def test_acceptance_09_upper_arithmetic_degree_proxy():
    """Upper envelope of khat_n on the sector, and delta as a growth rate.

    The canonical coordinates (L, L x1, L x2) of P give the integer vector
    (L^3, (L x1)^3 + (L x2) L^2, (L x2)^2 L + L^3) for E1(P), whose entries
    are at most 2 H^3 for H = max |coordinate|; reducing by the gcd only
    lowers them.  So khat_n - khat_(n-1) <= (log 2) delta^(-n), and with
    check 5's floor khat_n >= e1 log p the sequence khat_n converges to a
    positive limit.  Hence h_n / h_(n-1) = delta * khat_n / khat_(n-1)
    tends to delta, while a_n = delta * khat_n^(1/n) approaches delta only
    like delta * (1 + log(khat_n) / n), far above delta + 0.05 at n <= 8.
    """
    budget = Budget(60)
    # the experiments of checks 4-5: sector samples of E1, delta = 3
    _, _, _, seqs = _sector_orbits()
    # the experiment of check 6: delta = 2
    growth = height_sequence(SECOND_CASE_MAP, (Fraction(1), Fraction(1, 2)), 8)

    envelope_ok = all(
        seq.rows[n].height_arg <= 2 * seq.rows[n - 1].height_arg ** 3
        for seq in seqs
        for n in range(1, 9)
    )

    def worst_rate_gap(seq, delta):
        return max(
            abs(seq.rows[n].h / seq.rows[n - 1].h - delta) for n in range(5, 9)
        )

    worst_sector = max(worst_rate_gap(seq, 3) for seq in seqs)
    worst_growth = worst_rate_gap(growth, 2)
    rate_ok = worst_sector <= 0.05 and worst_growth <= 0.05
    worst_growth_root = max(row.root for row in growth.rows if row.n >= 5)
    growth_root_ok = worst_growth_root <= 2 + 0.05
    passed = envelope_ok and rate_ok and growth_root_ok and budget.ok()
    report(
        9,
        "H(f^n P) <= 2 H(f^(n-1) P)^3 on the 20 sector samples, n <= 8; "
        "|h_n/h_(n-1) - delta| <= 0.05 over 5 <= n <= 8 on the experiments "
        "of 4-6; a_n <= 2.05 on the experiment of 6",
        passed,
        detail=(
            f"max rate gap {worst_sector:.2e} (sector), {worst_growth:.2e} "
            f"(growth); max a_n = {worst_growth_root:.4f} (growth)"
        ),
    )
    assert envelope_ok, (
        "an exact height argument exceeded 2 * (previous argument)^3, which "
        "the integer representative (L^3, (L x1)^3 + (L x2) L^2, "
        "(L x2)^2 L + L^3) of E1(P) rules out"
    )
    assert rate_ok, (
        "h_n / h_(n-1) strayed more than 0.05 from delta on 5 <= n <= 8 "
        f"(sector {worst_sector:.3e}, growth {worst_growth:.3e}): it equals "
        "delta * khat_n / khat_(n-1), and khat_n converges because its steps "
        "are at most (log 2) delta^(-n) and it stays above e1 log p; a_n is "
        "not asserted on the sector because the gap of delta * khat_n^(1/n) "
        "to delta shrinks only like 1/n"
    )
    assert growth_root_ok, (
        f"growth experiment: max a_n = {worst_growth_root:.4f} > 2.05"
    )
    assert budget.ok(), "exceeded the 60 s budget"


def test_acceptance_10_density_proxy():
    budget = Budget(10)
    cfg, _ = _sector_samples()
    samples = sample_U(cfg, 12, seed=0)
    rep = density_check(samples, 2)
    rank_ok = rep.rank == 6 and rep.dense
    orbits = [orbit(E1, p, 4) for p in samples]
    disjoint = all(
        orbits_disjoint_prefix(orbits[i], orbits[j])
        for i in range(len(orbits))
        for j in range(i + 1, len(orbits))
    )
    deterministic = sample_U(cfg, 12, seed=0) == samples
    passed = rank_ok and disjoint and deterministic and budget.ok()
    report(
        10,
        "12 samples: rank 6 of 6 conic monomials, pairwise disjoint length-5 "
        "orbit prefixes, deterministic under the seed",
        passed,
    )
    assert rank_ok, f"rank {rep.rank} != 6 ({rep.verdict})"
    assert disjoint, "two orbit prefixes collided"
    assert deterministic, "sampling is not deterministic under a fixed seed"
    assert budget.ok(), "exceeded the 10 s budget"
