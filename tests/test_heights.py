import json
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arithdyn.heights import (
    affine_height,
    height_sequence,
    height_sequence_of_orbit,
    product_height_additivity,
)
import arithdyn.degrees as degrees_module
import arithdyn.heights as heights_module
from arithdyn.cli import main
from arithdyn.degrees import product_map
from arithdyn.experiments import EXIT_ASSERTION_FAILED
from arithdyn.maps import (
    ResourceCaps,
    TriangularMap,
    as_point,
    iterate_symbolic,
    map_to_json_dict,
    orbit,
    triangular_map,
)
from arithdyn.qpoly import ResourceLimitError, parse_polynomial
from corpus import BASE_POINTS, CORPUS, PRODUCT_PAIRS
from oracle import product_orbit_projects

E1 = triangular_map(["x1^3+x2", "x2^2+1"])


def test_embed_affine_examples():
    # [1 : 2], [2 : 3 : 1] and [1 : 0 : 0 : 0]
    assert affine_height([2]).max_abs == 2
    assert affine_height([Fraction(3, 2), Fraction(1, 2)]).max_abs == 3
    assert affine_height([0, 0, 0]).max_abs == 1


def test_projective_canonical_form():
    # the height is read from the coprime representative with positive first
    # coordinate: [4 : 6] = [2 : 3] and [-1 : 2] = [1 : -2]
    assert affine_height([Fraction(6, 4)]).max_abs == 3
    assert _gcd_height_arg([Fraction(6, 4)], Fraction(2)) == 3
    assert affine_height([-2]).max_abs == 2
    assert _gcd_height_arg([-2], Fraction(-1)) == 2


def test_weil_height_forced_values():
    assert affine_height([2]).log == math.log(2)
    assert affine_height([Fraction(3, 2), Fraction(1, 2)]).log == math.log(3)
    assert affine_height([0, 0, 0]).log == 0.0


def _gcd_height_arg(raw, scale) -> int:
    """Height argument by the textbook route: homogenise, rescale by a
    nonzero rational, clear denominators, divide out the gcd, take max abs."""
    point = as_point(raw)
    lcm = math.lcm(*(c.denominator for c in point))
    coords = [c * lcm * scale for c in [Fraction(1), *point]]
    lcm = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * lcm) for c in coords]
    g = math.gcd(*ints)
    return max(abs(c) // g for c in ints)


_prime_power_fraction = st.builds(
    lambda num, p, k: Fraction(num, p**k),
    st.integers(min_value=-(10**6), max_value=10**6),
    st.sampled_from([2, 3]),
    st.integers(min_value=0, max_value=40),
)

# one coordinate's denominator mixes a power of two with an odd part, so the
# shift-built lcm meets a nontrivial odd lcm; numerators reach 0 and below
_mixed_fraction = st.builds(
    lambda num, a, b, c: Fraction(num, 2**a * 3**b * 5**c),
    st.one_of(st.just(0), st.integers(min_value=-(10**6), max_value=10**6)),
    st.integers(min_value=0, max_value=60),
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=4),
)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.one_of(
            st.fractions(min_value=-9, max_value=9, max_denominator=7),
            _prime_power_fraction,
            _mixed_fraction,
        ),
        min_size=1,
        max_size=4,
    ),
    st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(lambda c: c != 0),
)
@example([Fraction(-5, 8), Fraction(7, 27)], Fraction(-3, 4))
@example([Fraction(-3, 2**40), Fraction(-1, 3**25)], Fraction(2, 3))
@example([Fraction(-9, 4), 0, Fraction(1, 6)], Fraction(-1))
@example([Fraction(-7, 2**60 * 3**6 * 5**4), Fraction(1, 2**3 * 5)], Fraction(5, 2))
@example([Fraction(11, 2**60 * 15), Fraction(-13, 2**59 * 9)], Fraction(-1, 3))
@example([Fraction(-1, 2**60 * 3)], Fraction(1))
@example([0], Fraction(-2))
@example([-5], Fraction(3, 4))
@example([0, Fraction(0), -3], Fraction(1, 5))
def test_height_invariant_under_rescaling(raw, scale):
    # the projective point [1 : x1 : ... : xN] is the same after scaling by
    # any nonzero rational, so the gcd-normalised oracle must agree with the
    # gcd-free height argument
    assert affine_height(raw).max_abs == _gcd_height_arg(raw, scale)


def test_height_lcm_and_gcd_see_only_small_operands(monkeypatch):
    # denominators 2^400000 and 2^300 * 3: the power of two is handled by
    # shifts, so every lcm and gcd the height makes sees only odd parts
    seen = []

    class RecordingMath:
        def __getattr__(self, name):
            return getattr(math, name)

        def lcm(self, *args):
            seen.extend(a.bit_length() for a in args)
            return math.lcm(*args)

        def gcd(self, *args):
            seen.extend(a.bit_length() for a in args)
            return math.gcd(*args)

    raw = [Fraction(-(3**1000), 2**400000), Fraction(7**50, 2**300 * 3)]
    monkeypatch.setattr(heights_module, "math", RecordingMath())
    got = affine_height(raw)
    monkeypatch.undo()
    assert seen and max(seen) <= 64
    assert got.max_abs == _gcd_height_arg(raw, Fraction(1))
    assert got.log == math.log(got.max_abs)


def test_height_sequence_squaring_closed_form():
    # closed form: h(f^n(2)) = 2^n * log 2 under x -> x^2
    seq = height_sequence(triangular_map(["x1^2"]), [2], 10)
    for row in seq.rows:
        assert row.height_arg == 2**(2**row.n)
        assert abs(row.h - 2**row.n * math.log(2)) < 1e-9
    a10 = seq.rows[10].root
    assert abs(a10 - (1024 * math.log(2)) ** (1 / 10)) < 1e-12
    assert abs(a10 - 1.9280) < 5e-4


def test_height_sequence_fixed_point():
    f = triangular_map(["x1^2", "x2"])
    seq = height_sequence(f, [1, 7], 8)
    assert len({row.height_arg for row in seq.rows}) == 1
    assert abs(seq.rows[-1].root - 1.0) < 0.3  # a_n -> 1 for constant heights


def test_height_sequence_khat_floor_on_sector_point():
    seq = height_sequence(E1, [Fraction(1, 256), Fraction(1, 2)], 6)
    floor = math.log(256)
    for row in seq.rows:
        assert row.khat >= floor - 1e-9


def test_h_plus_and_khat_are_positive():
    seq = height_sequence(triangular_map(["x1+x2", "x2+1"]), [0, 0], 6)
    for row in seq.rows:
        assert row.h_plus >= 1.0
        assert row.khat > 0


def test_khat_past_the_float_range():
    # 2^n leaves the float range at n = 1024; khat = 2^-n stays exact down to
    # the least subnormal 2^-1074 and rounds to 0 from n = 1075 on; past
    # n = 1075 the shortcut returns 0.0 without building delta^n
    powers = []

    class CountedDegree(int):
        def __pow__(self, n):
            powers.append(n)
            return int(self) ** n

    points = orbit(triangular_map(["x1^2"]), [1], 3000)
    seq = height_sequence_of_orbit(points, CountedDegree(2))
    assert [seq.rows[n].khat for n in (1023, 1024, 1030, 1074)] == [
        2.0**-1023, 2.0**-1024, 2.0**-1030, 2.0**-1074
    ]
    assert all(row.khat == 0.0 for row in seq.rows[1075:])
    assert powers == list(range(1076))


def test_khat_is_correctly_rounded():
    # 3^120 is not a double: rounding it before dividing gives ...444e-58,
    # one unit off the correctly rounded h+ / delta^n
    seq = height_sequence_of_orbit([(Fraction(1),)] * 4, 3**40)
    assert seq.rows[3].h_plus == 1.0
    assert seq.rows[3].khat == 5.564798376768443e-58 == float(Fraction(1, 3**120))


def test_height_sequence_cap_raises_after_one_orbit(monkeypatch):
    calls = []

    def counting_orbit(f, start, n_max, caps):
        calls.append(n_max)
        return orbit(f, start, n_max, caps)

    monkeypatch.setattr(heights_module, "orbit", counting_orbit)
    with pytest.raises(ResourceLimitError) as err:
        height_sequence(
            E1, (Fraction(1, 256), Fraction(1, 2)), 8, caps=ResourceCaps(max_coeff_bits=2000)
        )
    assert err.value.metadata["last_safe_n"] == 4
    assert calls == [8]


def test_iterate_height_rows_match_exactly():
    # h+((f^t)^n P) equals h+(f^(tn) P) on the exact integer arguments
    f = E1
    point = as_point([Fraction(1, 256), Fraction(1, 2)])
    f2 = iterate_symbolic(f, 2)
    fast = orbit(f2, point, 3)
    slow = orbit(f, point, 6)
    for n in range(4):
        assert (
            affine_height(fast[n]).max_abs
            == affine_height(slow[2 * n]).max_abs
        )


def _additivity(f_a, p_a, f_b, p_b, n_max):
    """product_height_additivity on the exact height sequences of the factor orbits."""
    return product_height_additivity(
        f_a,
        height_sequence(f_a, p_a, n_max),
        f_b,
        height_sequence(f_b, p_b, n_max),
        fg=degrees_module.product_map(f_a, f_b),
    )


def test_product_height_additivity_closed_form():
    # oracle: arguments 2^(2^n) and 2^(3^n), so h_sum = (2^n + 3^n) log 2 and
    # the summed-root limit is 3
    report = _additivity(
        triangular_map(["x1^2"]), [2], triangular_map(["x1^3"]), [2], 8
    )
    assert report.projections_match
    for ra, rb, (h_sum, _) in zip(report.seq_a.rows, report.seq_b.rows, report.sums):
        assert (ra.height_arg, rb.height_arg) == (2 ** 2**ra.n, 2 ** 3**rb.n)
        assert h_sum == math.log(ra.height_arg) + math.log(rb.height_arg)
        assert abs(h_sum - (2**ra.n + 3**ra.n) * math.log(2)) < 1e-9
    assert abs(report.sums[-1][1] - 3.0) <= 0.25


def test_product_height_additivity_fixed_points():
    # 1 and 0 are fixed by x1^2 and both have height argument 1
    f = triangular_map(["x1^2"])
    report = _additivity(f, [1], f, [0], 5)
    assert report.projections_match
    args = [(ra.height_arg, rb.height_arg) for ra, rb in zip(report.seq_a.rows, report.seq_b.rows)]
    assert args == [(1, 1)] * 6
    assert [h_sum for h_sum, _ in report.sums] == [0.0] * 6


def test_product_with_trivial_factor_tracks_other_factor():
    trivial = triangular_map(["x1"])
    report = _additivity(
        triangular_map(["x1^2"]), [2], trivial, [5], 8
    )
    solo = height_sequence(triangular_map(["x1^2"]), [2], 8)
    # the first factor's rows are its own height sequence; the constant
    # factor height log 5 is swamped, so the summed root tracks the first
    # factor's estimate
    assert report.projections_match
    assert report.seq_a.rows == solo.rows
    assert report.seq_a.rows[-1].root >= report.seq_b.rows[-1].root
    assert {row.height_arg for row in report.seq_b.rows} == {5}
    assert abs(report.sums[-1][1] - solo.rows[-1].root) < 0.2


SECOND = triangular_map(["x1*x2+1", "x2^2"])
BENCH_PRODUCT_POINT = ([Fraction(1, 256), Fraction(1, 2)], [Fraction(1), Fraction(1, 2)])


@pytest.mark.parametrize(
    "f_a,p_a,f_b,p_b",
    [(CORPUS[ia], BASE_POINTS[ia], CORPUS[ib], BASE_POINTS[ib]) for ia, ib in PRODUCT_PAIRS]
    + [(E1, BENCH_PRODUCT_POINT[0], SECOND, BENCH_PRODUCT_POINT[1])],
    ids=[f"corpus{ia}x{ib}" for ia, ib in PRODUCT_PAIRS] + ["bench_point"],
)
def test_product_orbit_oracle_agrees_with_the_structural_proof(f_a, p_a, f_b, p_b):
    # the reference three-orbit walk keeps evaluate on lifted polynomials under
    # test; the proof from the map's components must reach the same verdict
    assert product_orbit_projects(f_a, p_a, f_b, p_b, 5)
    report = _additivity(f_a, p_a, f_b, p_b, 5)
    assert report.projections_match
    assert report.seq_a.rows == height_sequence(f_a, p_a, 5).rows
    assert report.seq_b.rows == height_sequence(f_b, p_b, 5).rows


def _lifted_plus(index, text):
    """product_map with ``text`` added to component ``index``."""

    def mutated(f, g):
        fg = product_map(f, g)
        comps = list(fg.components)
        comps[index] = comps[index] + parse_polynomial(text, fg.dimension)
        return TriangularMap(comps)

    return mutated


def _lifted_halved(index):
    """product_map with component ``index`` halved: its numerators stay, its denominator doubles."""

    def mutated(f, g):
        comps = list(product_map(f, g).components)
        comps[index] = comps[index] * Fraction(1, 2)
        return TriangularMap(comps)

    return mutated


PRODUCT_MUTATIONS = {
    "leading_crosses_into_trailing_block": _lifted_plus(0, "x3"),
    "trailing_constant_shifted": _lifted_plus(2, "1"),
    "trailing_extra_own_block_term": _lifted_plus(3, "x4"),
    "leading_halved": _lifted_halved(0),
}


@pytest.mark.parametrize("mutation", PRODUCT_MUTATIONS.values(), ids=PRODUCT_MUTATIONS)
def test_mutated_product_map_fails_the_projection_check(mutation, monkeypatch, tmp_path):
    # the product pipeline builds the map once, in degrees, for both of its checks
    monkeypatch.setattr(degrees_module, "product_map", mutation)
    report = _additivity(E1, BENCH_PRODUCT_POINT[0], SECOND, BENCH_PRODUCT_POINT[1], 4)
    assert not report.projections_match
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "map": map_to_json_dict(E1),
                "map_b": map_to_json_dict(SECOND),
                "mode": "product",
                "point": ["1/256", "1/2", "1", "1/2"],
                "n_max": 4,
            }
        )
    )
    assert main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(cfg)]) == EXIT_ASSERTION_FAILED
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    checks = {c["name"]: c["passed"] for c in summary["checks"]}
    assert checks == {"product_degree_max_rule": True, "product_height_additivity": False}
