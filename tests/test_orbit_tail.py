"""The orbit tail of ``second_case_n2`` and of the product factors agrees
with the exact orbit.

``orbit_tail.orbit_tail`` walks every orbit of a run exactly up to the
printed prefix and certifies the valuation signatures and height rows past
it.  These tests compare its output with the exact walk's on the
second-case map and on each factor of the benchmark's product point, check
that the enclosure walk (not its fallback) decided those rows, check that a
point outside the case split and a forced fallback give the exact result,
and check that a cap past the prefix refuses the same step as the exact
walk, and which prime a product factor's orbit is carried at.  The
shortcuts of one enclosure step are checked against the products they
replace: ``_pow`` from x against square-and-multiply from (1, 1, 0), and
the p = 2 scale shift against the product with the exact 2^m, ``_mul``
against the four-product formula over every sign case, while a p = 3 tail
still multiplies by its enclosed prime power and builds each p^m once per
tail.
``test_sector_tail.py`` does the same for the sector orbits of
``first_case``.
"""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_output_digests import CASES

import arithdyn.experiments as experiments
import arithdyn.orbit_tail as tail
from arithdyn.experiments import ExperimentConfig, run_experiment
from arithdyn.heights import affine_height, height_row
from arithdyn.maps import (
    ResourceCaps,
    TriangularMap,
    coordinate_bits,
    orbit,
    step_bits_bound,
    triangular_map,
)
from arithdyn.padic import vp
from arithdyn.qpoly import ResourceLimitError

E1 = ["x1^3+x2", "x2^2+1"]
SECOND = ["x1*x2+1", "x2^2"]
BENCH_FACTORS = [
    (E1, (Fraction(1, 256), Fraction(1, 2)), 3),
    (SECOND, (Fraction(1), Fraction(1, 2)), 2),
]


def _counting_apply(monkeypatch):
    calls = []
    apply = TriangularMap.apply

    def counting(self, point):
        calls.append(point)
        return apply(self, point)

    monkeypatch.setattr(TriangularMap, "apply", counting)
    return calls


def _exact(f, p, start, n_max, delta):
    """(points, signatures, rows) of the exact orbit, each read from its point."""
    points = orbit(f, start, n_max)
    sigs = [tuple(-vp(x, p) for x in q) for q in points]
    rows = [height_row(n, affine_height(q), delta) for n, q in enumerate(points)]
    return points, sigs, rows


def _readout(rows):
    return [(r.n, r.arg_bits, r.h, r.h_plus, r.root, r.khat) for r in rows]


def _assert_tail_is_exact(monkeypatch, components, p, start, n_max, delta):
    """orbit_tail equals the exact walk, and only the prefix applied f."""
    f = triangular_map(components)
    points, sigs, rows = _exact(f, p, start, n_max, delta)
    calls = _counting_apply(monkeypatch)
    got_points, got_sigs, got_rows = tail.orbit_tail(f, p, start, n_max, delta, ResourceCaps())
    assert len(calls) == tail.PREFIX  # the enclosure walk decided every row past it
    assert got_points == points[: tail.PREFIX + 1]
    assert got_sigs == sigs
    assert _readout(got_rows) == _readout(rows)
    assert all(r.height_arg is None for r in got_rows[tail.PREFIX + 1 :])


SECOND_STARTS = [
    (2, ("1", "1/2"), 12),
    (2, ("1", "97/2"), 12),
    (2, ("3/2", "5/4"), 11),
    (3, ("1", "2/3"), 11),
    (3, ("0", "7/3"), 11),
    (3, ("5", "1/9"), 10),
    (5, ("1", "1/5"), 10),
    (5, ("2/5", "13/5"), 10),
]


@pytest.mark.parametrize(
    "p, start, n_max", SECOND_STARTS, ids=[f"p{p}-{'-'.join(s)}" for p, s, _ in SECOND_STARTS]
)
def test_second_case_tail_equals_the_exact_walk(monkeypatch, p, start, n_max):
    start = tuple(Fraction(x) for x in start)
    _assert_tail_is_exact(monkeypatch, SECOND, p, start, n_max, 2)


@pytest.mark.parametrize(
    "components, start, delta", BENCH_FACTORS, ids=["factor-E1", "factor-second-case"]
)
def test_each_bench_product_factor_tail_equals_the_exact_walk(monkeypatch, components, start, delta):
    p = tail.start_prime(triangular_map(components), start)
    assert p == 2
    _assert_tail_is_exact(monkeypatch, components, p, start, 10, delta)


def test_a_factor_point_outside_the_case_split_walks_exactly(monkeypatch):
    # x = 2 is no N / 2^k with k > 0, and neither is any point of its orbit
    f = triangular_map(["x1^2"])
    points, sigs, rows = _exact(f, 2, (Fraction(2),), 8, 2)
    calls = _counting_apply(monkeypatch)
    got = tail.orbit_tail(f, 2, (Fraction(2),), 8, 2, ResourceCaps())
    assert len(calls) == 8
    assert got == (points[: tail.PREFIX + 1], sigs, rows)


@pytest.mark.parametrize(
    "start, p",
    [
        (("1/27", "1/3"), 3),  # the denominators' prime
        (("1", "1/3"), 3),  # an integral coordinate names no prime
        (("1/256", "1/2"), 2),
        (("7/25", "2/125"), 5),  # their gcd 25 is 5^2
        (("1", "3"), 2),  # an integral start: the smallest unit prime
        (("1/6", "1/6"), 2),  # no prime power
        (("1/36", "1/6"), 2),
        ((f"1/{2**61 - 1}", "1"), 2),  # a prime above 2^48 is not sought
    ],
)
def test_start_prime_reads_the_denominators(start, p):
    assert tail.start_prime(triangular_map(SECOND), tuple(Fraction(x) for x in start)) == p


def test_a_3_adic_product_is_enclosed_and_its_bytes_are_the_exact_walks(tmp_path, monkeypatch):
    doc = dict(
        map={"dimension": 2, "components": E1},
        map_b={"dimension": 2, "components": SECOND},
        mode="product",
        point=["1/27", "1/3", "1", "1/3"],
        n_max=9,
    )
    calls = _counting_apply(monkeypatch)
    enclosed = run_experiment(ExperimentConfig(**doc), tmp_path / "enclosed")
    assert len(calls) == 2 * tail.PREFIX
    # at p = 2 neither 3-adic factor fits the case split
    del calls[:]
    monkeypatch.setattr(experiments, "start_prime", lambda h, start: 2)
    exact = run_experiment(ExperimentConfig(**doc), tmp_path / "exact")
    assert len(calls) == 2 * 9
    assert exact.exit_code == enclosed.exit_code
    assert _digests(tmp_path / "exact") == _digests(tmp_path / "enclosed")


def test_product_mode_reads_no_prime(tmp_path):
    doc = dict(
        map={"dimension": 1, "components": ["x1^2"]},
        map_b={"dimension": 1, "components": ["x1^3"]},
        mode="product",
        point=["2", "1/2"],
        n_max=7,
    )
    want = run_experiment(ExperimentConfig(**doc), tmp_path / "none")
    for prime in (3, 4):
        got = run_experiment(ExperimentConfig(**doc, prime=prime), tmp_path / str(prime))
        assert got.exit_code == want.exit_code == 0
        assert _digests(tmp_path / str(prime)) == _digests(tmp_path / "none")


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("name", ["second_case_n2", "product_e1_second_case"])
def test_a_forced_fallback_gives_the_recorded_bytes(tmp_path, monkeypatch, name):
    config, expected = CASES[name]
    want = run_experiment(ExperimentConfig(**config), tmp_path / "enclosed")
    calls = _counting_apply(monkeypatch)
    monkeypatch.setattr(tail, "ENCLOSURE_BITS", 6)
    got = run_experiment(ExperimentConfig(**config), tmp_path / "fallback")
    walks = 2 if name.startswith("product") else 1
    assert len(calls) > walks * tail.PREFIX  # some tail was recomputed exactly
    assert got.exit_code == want.exit_code
    assert _digests(tmp_path / "fallback") == expected == _digests(tmp_path / "enclosed")


SECOND_DOC = {"dimension": 2, "components": SECOND}
E1_DOC = {"dimension": 2, "components": E1}
# (config, the map and start of the orbit that trips the cap); each cap is
# set one bit below that orbit's step-7 bound, past the printed prefix
CAP_CASES = {
    "second_case_n2": (
        dict(map=SECOND_DOC, mode="second_case_n2", point=["1", "97/2"], n_max=12),
        SECOND,
        ("1", "97/2"),
    ),
    "product-first-factor": (
        dict(map=E1_DOC, map_b=SECOND_DOC, mode="product", point=["1/256", "1/2", "1", "1/2"], n_max=10),
        E1,
        ("1/256", "1/2"),
    ),
    "product-second-factor": (
        dict(map=SECOND_DOC, map_b=E1_DOC, mode="product", point=["1", "1/2", "1/256", "1/2"], n_max=10),
        E1,
        ("1/256", "1/2"),
    ),
}


@pytest.mark.parametrize("bits", [192, 6], ids=["enclosed", "fallback"])
@pytest.mark.parametrize("name", sorted(CAP_CASES))
def test_a_cap_past_the_prefix_has_the_exact_walks_metadata(tmp_path, monkeypatch, name, bits):
    config, components, start = CAP_CASES[name]
    f = triangular_map(components)
    start = tuple(Fraction(x) for x in start)
    cap = step_bits_bound(f)(coordinate_bits(orbit(f, start, 6)[-1])) - 1
    caps = ResourceCaps(max_coeff_bits=cap)
    with pytest.raises(ResourceLimitError) as exact:
        orbit(f, start, config["n_max"], caps)
    assert exact.value.metadata["stage"] == "orbit step 7"
    assert exact.value.metadata["last_safe_n"] == 6
    monkeypatch.setattr(tail, "ENCLOSURE_BITS", bits)
    with pytest.raises(ResourceLimitError) as run:
        run_experiment(ExperimentConfig(**config), tmp_path / "out", caps)
    assert run.value.metadata == exact.value.metadata
    assert not (tmp_path / "out").exists()


# -- the shortcuts of one enclosure step --------------------------------------


def _square_and_multiply_from_one(x, e):
    """x^e by left-to-right square-and-multiply from (1, 1, 0)."""
    out = (1, 1, 0)
    for bit in bin(e)[2:]:
        out = tail._mul(out, out)
        if bit == "1":
            out = tail._mul(out, x)
    return out


ENCLOSURES = st.builds(
    lambda lo, width, s: (lo, lo + width, s),
    st.integers(-(2**300), 2**300),
    st.integers(0, 2**250),
    st.integers(0, 400),
)
# a cut rounds an end out to +-2^ENCLOSURE_BITS, one bit past the cut
CUT_ENCLOSURES = ENCLOSURES.map(lambda x: tail._cut(*x)) | st.sampled_from(
    [(2**192 - 5, 2**192, 9), (-(2**192), -(2**192) + 3, 0), (1, 1, 0), (-1, 1, 60)]
)


@settings(max_examples=150, deadline=None)
@given(x=ENCLOSURES | CUT_ENCLOSURES, e=st.integers(0, 64))
def test_pow_from_x_is_the_square_and_multiply_from_one(x, e):
    assert tail._pow(x, e) == _square_and_multiply_from_one(x, e)


@settings(max_examples=150, deadline=None)
@given(x=CUT_ENCLOSURES, m=st.integers(0, 3000))
def test_the_p2_scale_shift_is_the_product_with_the_exact_power(x, m):
    assert tail._times_prime_power(x, 2, m, {}) == tail._mul(x, tail._prime_power(2, m))


@pytest.mark.parametrize(
    "p, start", [(3, ("1/27", "1/3")), (2, ("1/256", "1/2"))], ids=["p3", "p2"]
)
def test_only_a_p3_tail_multiplies_by_an_enclosed_prime_power(monkeypatch, p, start):
    # for p = 3 each factor p^(W - w(a)) is an enclosure multiplied by _mul;
    # for p = 2 it only moves the scale, so no _mul sees (1, 1, m), m > 0,
    # which no power of an odd numerator is
    start = tuple(Fraction(x) for x in start)
    operands = []
    mul = tail._mul

    def recording(x, y):
        operands.append(y)
        return mul(x, y)

    monkeypatch.setattr(tail, "_mul", recording)
    _assert_tail_is_exact(monkeypatch, E1, p, start, 9, 3)
    if p == 3:
        enclosed = {tail._prime_power(3, m) for m in range(1, 200)}
        assert enclosed.intersection(operands)
    else:
        assert not [y for y in operands if y[:2] == (1, 1) and y[2] > 0]


SIGNED_ENDS = st.one_of(
    st.sampled_from([0, 1, -1, 2**192 - 1, 2**192, -(2**192), 2**193 + 1]),
    st.integers(-(2**200), 2**200),
)


@settings(max_examples=400, deadline=None)
@given(
    x=st.tuples(SIGNED_ENDS, SIGNED_ENDS, st.integers(0, 300)),
    y=st.tuples(SIGNED_ENDS, SIGNED_ENDS, st.integers(0, 300)),
)
def test_mul_is_the_four_product_formula(x, y):
    # every sign case, zero ends and ends on either side of a cut: the
    # shortcut for two lower ends >= 0 gives the same enclosure
    (a, b, s), (c, d, t) = (sorted(x[:2]) + [x[2]]), (sorted(y[:2]) + [y[2]])
    ends = (a * c, a * d, b * c, b * d)
    lo, hi = min(ends), max(ends)
    shift = max(abs(lo), abs(hi)).bit_length() - tail.ENCLOSURE_BITS
    want = (lo, hi, s + t) if shift <= 0 else (lo >> shift, -(-hi >> shift), s + t + shift)
    assert tail._mul((a, b, s), (c, d, t)) == want


def test_a_p3_tail_builds_each_prime_power_once_per_tail(monkeypatch):
    # p^(max k) built for one step's height row is the next step's sizes
    # entry: one _prime_power call per distinct m over the whole tail, and
    # the rows stay exact
    ms = []
    prime_power = tail._prime_power

    def counting(p, m):
        ms.append(m)
        return prime_power(p, m)

    monkeypatch.setattr(tail, "_prime_power", counting)
    _assert_tail_is_exact(monkeypatch, E1, 3, (Fraction(1, 27), Fraction(1, 3)), 9, 3)
    assert len(ms) > tail.PREFIX
    assert len(ms) == len(set(ms))
