import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arithdyn.heights import (
    ProjectivePoint,
    affine_height,
    alpha_bounds,
    embed_affine,
    height_sequence,
    product_height_additivity,
    weil_height,
)
import arithdyn.heights as heights_module
from arithdyn.maps import ResourceCaps, as_point, iterate_symbolic, orbit, triangular_map
from arithdyn.qpoly import ResourceLimitError

E1 = triangular_map(["x1^3+x2", "x2^2+1"])


def test_embed_affine_examples():
    assert embed_affine([2]).coordinates == (1, 2)
    assert embed_affine([Fraction(3, 2), Fraction(1, 2)]).coordinates == (2, 3, 1)
    assert embed_affine([0, 0, 0]).coordinates == (1, 0, 0, 0)


def test_projective_canonical_form():
    assert ProjectivePoint((4, 6)).coordinates == (2, 3)
    assert ProjectivePoint((-1, 2)).coordinates == (1, -2)
    with pytest.raises(ValueError):
        ProjectivePoint((0, 0))


def test_weil_height_forced_values():
    assert weil_height(ProjectivePoint((1, 2))).log == math.log(2)
    assert weil_height(ProjectivePoint((2, 3))).log == math.log(3)
    assert weil_height(ProjectivePoint((1, 0, 0))).log == 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7), min_size=2, max_size=3),
    st.fractions(min_value=-5, max_value=5, max_denominator=5).filter(lambda c: c != 0),
)
def test_height_invariant_under_rescaling(raw, scale):
    # scaling all homogeneous coordinates by a nonzero rational leaves the
    # canonical point, hence the height, unchanged
    q = embed_affine(raw)
    coords = [c * scale for c in q.coordinates]
    lcm = 1
    for c in coords:
        lcm = lcm * c.denominator // math.gcd(lcm, c.denominator)
    rescaled = ProjectivePoint(tuple(int(c * lcm) for c in coords))
    assert weil_height(rescaled).max_abs == weil_height(q).max_abs


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


def test_alpha_bounds_constant_orbit():
    f = triangular_map(["x1", "x2"])
    seq = height_sequence(f, [1, 1], 8)
    lo, hi = alpha_bounds(seq, 3)
    assert lo == hi == 1.0


def test_alpha_bounds_squaring_window():
    seq = height_sequence(triangular_map(["x1^2"]), [2], 10)
    lo, hi = alpha_bounds(seq, 5)
    assert 1.83 <= lo <= hi <= 1.93


def test_alpha_bounds_requires_enough_rows():
    seq = height_sequence(triangular_map(["x1^2"]), [2], 3)
    with pytest.raises(ValueError):
        alpha_bounds(seq, 5)


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
            affine_height(fast.points[n]).max_abs
            == affine_height(slow.points[2 * n]).max_abs
        )


def test_product_height_additivity_closed_form():
    # oracle: 2^n log 2 + 3^n log 2; the summed-root limit is 3
    report = product_height_additivity(
        triangular_map(["x1^2"]), [2], triangular_map(["x1^3"]), [2], 8
    )
    assert report.projections_match
    for row in report.rows:
        assert row.arg_sum == row.arg_a * row.arg_b
        expected = (2**row.n + 3**row.n) * math.log(2)
        assert abs(row.h_sum - expected) < 1e-9
    assert abs(report.last_root - 3.0) <= 0.25
    assert report.expected_limit == max(report.alpha_a, report.alpha_b)


def test_product_height_additivity_fixed_points():
    f = triangular_map(["x1^2"])
    report = product_height_additivity(f, [1], f, [0], 5)
    assert len({row.arg_sum for row in report.rows}) == 1


def test_product_with_trivial_factor_tracks_other_factor():
    trivial = triangular_map(["x1"])
    report = product_height_additivity(
        triangular_map(["x1^2"]), [2], trivial, [5], 8
    )
    solo = height_sequence(triangular_map(["x1^2"]), [2], 8)
    # constant factor height log 5 is swamped: the limit equals the first
    # factor's estimate
    assert report.expected_limit == report.alpha_a
    assert abs(report.last_root - solo.rows[-1].root) < 0.2
