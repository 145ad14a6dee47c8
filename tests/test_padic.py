import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.maps import as_point, orbit, orbits_disjoint_prefix, triangular_map
from arithdyn.padic import (
    NotInSectorError,
    NotPrimeError,
    SectorConfig,
    _signature_in_U,
    case_n2_growth,
    choose_C,
    dominant_monomial,
    find_unit_prime,
    image_signature,
    in_U,
    is_prime,
    sample_U,
    sector_config,
    valuation_signature,
    verify_dominant_value,
    verify_stability,
    vp,
)

E1 = triangular_map(["x1^3+x2", "x2^2+1"])


def signatures(f, point, cfg, n_max=1):
    """Valuation signatures of P, f(P), ..., f^n_max(P)."""
    return [valuation_signature(q, cfg.prime) for q in orbit(f, point, n_max)]


# -- valuations --------------------------------------------------------------


def test_vp_examples():
    assert vp(18, 3) == 2
    assert vp(Fraction(1, 256), 2) == -8
    assert vp(0, 5) == math.inf


def test_vp_rejects_composite():
    with pytest.raises(NotPrimeError):
        vp(4, 6)


nonzero_rationals = st.fractions(min_value=-50, max_value=50, max_denominator=48).filter(
    lambda x: x != 0
)


@settings(max_examples=80, deadline=None)
@given(nonzero_rationals, nonzero_rationals, st.sampled_from([2, 3, 5, 7]))
def test_valuation_axioms(x, y, p):
    assert vp(x * y, p) == vp(x, p) + vp(y, p)
    if x + y != 0:
        assert vp(x + y, p) >= min(vp(x, p), vp(y, p))
        if vp(x, p) != vp(y, p):
            assert vp(x + y, p) == min(vp(x, p), vp(y, p))


# -- prime and constant selection ---------------------------------------------


def trial_division_is_prime(n):
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_matches_trial_division_up_to_1e5():
    assert [n for n in range(-3, 100_001) if is_prime(n)] == [
        n for n in range(-3, 100_001) if trial_division_is_prime(n)
    ]


@pytest.mark.parametrize(
    "n",
    [
        2047,  # strong pseudoprime to base 2
        1373653,  # to bases 2, 3
        25326001,  # to bases 2, 3, 5
        3215031751,  # to bases 2, 3, 5, 7
        2152302898747,  # to the primes up to 11
        3474749660383,  # up to 13
        341550071728321,  # up to 17
        3825123056546413051,  # up to 23
        318665857834031151167461,  # up to 37
        3317044064679887385961979,  # the largest odd n the test accepts
        (2**61 - 1) * (2**17 - 1),
    ],
)
def test_is_prime_rejects_strong_pseudoprimes(n):
    assert not is_prime(n)


# the last: the largest prime below the bound
@pytest.mark.parametrize("n", [2, 3, 5, 41, 43, 2**31 - 1, 1000000000039, 2**61 - 1, 3317044064679887385961813])
def test_is_prime_accepts_primes(n):
    assert is_prime(n)


def test_is_prime_refuses_beyond_its_bound():
    # 3317044064679887385961981 = 1287836182261 * 2575672364521 is the least
    # strong pseudoprime to all thirteen bases
    assert 1287836182261 * 2575672364521 == 3317044064679887385961981
    for n in (3317044064679887385961981, 2**127 - 1):
        with pytest.raises(ValueError):
            is_prime(n)
    assert is_prime(2**127) is False  # even numbers return before the bound


def test_find_unit_prime_all_unit_coefficients():
    assert find_unit_prime(E1, 2) == 2


def test_find_unit_prime_skips_coefficient_primes():
    f = triangular_map(["2*x1^2+x2", "3*x2^3"])
    assert find_unit_prime(f, 2) == 5


def test_find_unit_prime_skips_denominators():
    f = triangular_map(["1/7*x1^2"])
    assert find_unit_prime(f, 7) == 11


def test_find_unit_prime_output_never_divides_coefficients():
    f = triangular_map(["6*x1^2+10*x2", "15/7*x2^2"])
    p = find_unit_prime(f, 2)
    for comp in f.components:
        for c in comp.coefficients():
            assert c.numerator % p != 0 and c.denominator % p != 0


def test_choose_C():
    assert choose_C(E1) == 7
    assert choose_C(triangular_map(["x1"])) == 2
    assert choose_C(triangular_map(["x1*x2+1", "x2^2"])) == 5


def test_sector_config_rejects_bad_overrides():
    with pytest.raises(ValueError):
        sector_config(triangular_map(["2*x1^2"]), prime=2)
    with pytest.raises(ValueError):
        sector_config(E1, C=6)  # must exceed N * max_deg = 6


# -- sector membership ---------------------------------------------------------


def test_in_U_examples():
    cfg = SectorConfig(prime=2, C=7, dimension=2)
    assert in_U([Fraction(1, 256), Fraction(1, 2)], cfg)
    assert not in_U([Fraction(1, 128), Fraction(1, 2)], cfg)  # 128 > 128 fails strictly
    assert not in_U([1, 1], cfg)


def test_in_U_dimension_one():
    cfg = SectorConfig(prime=2, C=2, dimension=1)
    assert in_U([Fraction(1, 2)], cfg)
    assert not in_U([2], cfg)
    assert not in_U([3], cfg)


def test_sample_U_postconditions():
    cfg = SectorConfig(prime=2, C=7, dimension=2)
    points = sample_U(cfg, 10, seed=42)
    assert len(points) == 10
    signatures = [valuation_signature(p, cfg.prime) for p in points]
    assert all(in_U(p, cfg) for p in points)
    assert len(set(signatures)) == 10
    # numerators are 2-adic units
    for p in points:
        assert all(c.numerator % 2 == 1 for c in p)


def test_sample_U_deterministic():
    cfg = SectorConfig(prime=3, C=5, dimension=2)
    assert sample_U(cfg, 6, seed=9) == sample_U(cfg, 6, seed=9)


def test_samples_with_distinct_signatures_have_disjoint_orbits():
    cfg = sector_config(E1)
    pts = sample_U(cfg, 4, seed=1)
    orbits = [orbit(E1, p, 5) for p in pts]
    for i in range(len(orbits)):
        for j in range(i + 1, len(orbits)):
            assert orbits_disjoint_prefix(orbits[i], orbits[j])


# -- stability and dominant monomials -------------------------------------------


def test_stability_hand_checked_point():
    cfg = sector_config(E1)
    point = as_point([Fraction(1, 256), Fraction(1, 2)])
    sigs = signatures(E1, point, cfg)
    assert sigs[1] == (24, 2)
    assert max(sigs[1]) == sigs[1][0]
    assert verify_stability(cfg, [sigs]) == [True]  # 24 > 7*2 > 0


def test_stability_verdict_is_false_when_the_image_leaves_the_sector():
    cfg = SectorConfig(prime=2, C=7, dimension=2)
    # (24, 4) fails 24 > 7*4; (24, 2) is the true image signature of (8, 1)
    assert verify_stability(cfg, [[(8, 1), (24, 4)], [(8, 1), (24, 2)]]) == [False, True]


def test_stability_rejects_outside_point():
    cfg = sector_config(E1)
    with pytest.raises(NotInSectorError):
        verify_stability(cfg, [signatures(E1, [1, 1], cfg)])


def test_stability_batch_of_20():
    cfg = sector_config(E1)
    verdicts = verify_stability(cfg, [signatures(E1, p, cfg) for p in sample_U(cfg, 20, seed=5)])
    assert verdicts == [True] * 20


def test_sector_stable_under_eight_iterations():
    cfg = sector_config(E1)
    for point in sample_U(cfg, 5, seed=11):
        current = point
        for _ in range(8):
            current = E1.apply(current)
            assert in_U(current, cfg)


def test_dominant_monomial_examples():
    assert dominant_monomial(E1, 1) == (3, 0)
    assert dominant_monomial(E1, 2) == (0, 2)
    f = triangular_map(["x1^2*x2 + x1^2", "x2^2"])
    assert dominant_monomial(f, 1) == (2, 1)


def test_dominant_monomial_ties_broken_by_later_variables():
    f = triangular_map(["x1^2*x2 + x1^3", "x2^2"])
    assert dominant_monomial(f, 1) == (3, 0)
    h = triangular_map(["x1^2*x2^2 + x1^3*x2", "x2^2"])
    assert dominant_monomial(h, 1) == (3, 1)


def test_dominant_monomial_exponent_matches_diagonal_degree():
    # the lex order compares the x_i-exponent first, so the lex-max monomial
    # of f_i always carries the diagonal degree
    for f in (E1, triangular_map(["x1*x2+1", "x2^2"])):
        for i in range(1, f.dimension + 1):
            mono = dominant_monomial(f, i)
            assert mono[i - 1] == max(m[i - 1] for m in f.components[i - 1].terms)


def test_dominant_monomial_index_range():
    with pytest.raises(IndexError):
        dominant_monomial(E1, 3)


def test_dominant_value_hand_checked():
    cfg = sector_config(E1)
    sigs = signatures(E1, [Fraction(1, 256), Fraction(1, 2)], cfg)
    assert sigs == [(8, 1), (24, 2)]
    assert image_signature(E1, (8, 1)) == (24, 2)
    assert verify_dominant_value(E1, sigs) is True


def test_dominant_value_single_monomial_map():
    f = triangular_map(["x1^4"])
    cfg = sector_config(f)
    sigs = signatures(f, [Fraction(1, 2)], cfg)
    assert image_signature(f, sigs[0]) == sigs[1] == (4,)
    assert verify_dominant_value(f, sigs) is True


def test_dominant_value_batch():
    cfg = sector_config(E1)
    for point in sample_U(cfg, 20, seed=2):
        assert verify_dominant_value(E1, signatures(E1, point, cfg)) is True


def test_growth_floor_feeds_height_bound():
    cfg = sector_config(E1)
    for point in sample_U(cfg, 5, seed=3):
        e1 = -vp(point[0], cfg.prime)
        current = point
        for n in range(1, 7):
            current = E1.apply(current)
            assert -vp(current[0], cfg.prime) >= 3**n * e1


# -- the N=2 second case ----------------------------------------------------------


def test_case_n2_growth_examples():
    f = triangular_map(["x1*x2+1", "x2^2"])
    cfg = sector_config(f, prime=2)
    rows = case_n2_growth(f, signatures(f, [1, Fraction(1, 2)], cfg, 5))
    assert [v for _, v, _ in rows] == [-2, -4, -8, -16, -32]
    assert all(v == expected for _, v, expected in rows)


def test_case_n2_growth_cubing():
    f = triangular_map(["x1+x2^3", "x2^3"])
    cfg = sector_config(f, prime=2)
    rows = case_n2_growth(f, signatures(f, [0, Fraction(1, 2)], cfg, 4))
    assert [v for _, v, _ in rows] == [-3, -9, -27, -81]
    assert all(v == expected for _, v, expected in rows)


def test_case_n2_growth_precondition():
    f = triangular_map(["x1*x2+1", "x2^2"])
    cfg = sector_config(f, prime=2)
    with pytest.raises(NotInSectorError):
        case_n2_growth(f, signatures(f, [1, 3], cfg, 3))  # x2 integral at p=2


# -- conditions the verdicts imply ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4),
    st.integers(1, 10),
    st.integers(-3, 5),
    st.lists(st.integers(-3, 20), min_size=3, max_size=3),
)
def test_a_sector_signature_has_its_first_entry_largest(dimension, C, last, gaps):
    # built from the last entry up, so both sides of every inequality occur
    sig = [last]
    for gap in gaps[: dimension - 1]:
        sig.insert(0, C * sig[0] + gap)
    if _signature_in_U(sig, SectorConfig(prime=2, C=C, dimension=dimension)):
        assert sig[0] == max(sig)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 3),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(-3, 3).filter(bool),
    st.integers(-3, 3),
    st.sampled_from([2, 3, 5]),
    st.integers(1, 3),
)
def test_growth_equality_keeps_x2_in_the_half_plane(d22, d11, a, b, c, p, k):
    f = triangular_map([f"x1^{min(d11, d22)}*x2^{a}+1", f"{b}*x2^{d22}+{c}"])
    cfg = SectorConfig(prime=p, C=1, dimension=2)
    sigs = signatures(f, [1, Fraction(1, p**k)], cfg, 3)
    for _, v, expected in case_n2_growth(f, sigs):
        assert expected < 0
        if v == expected:
            assert v < 0
