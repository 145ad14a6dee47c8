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
prefix on (k, N) pairs is checked against the Fraction walk on random
integer-coefficient maps, caps included, and the whole walk, enclosed and
forced to fall back, against the exact orbit.  The shortcuts of one
enclosure step are checked against the products they replace: ``_pow``
from x against square-and-multiply from (1, 1, 0), a component step, whose
p = 2 scale shift and sign-and-magnitude products stand for products with
the exact 2^m and signed enclosures, against the term-by-term step on
the four-product formula, ``_mul`` against that formula on nonnegative
enclosures, and the height read-out that aligns only the candidates that
can be the largest against the one that aligns them all; a p = 3 step
still multiplies by its enclosed prime power, and a p = 3 tail builds each
p^m once.  Each map's step plan is built once per run and map, and no
orbit walk builds a step bound of its own.
``test_sector_tail.py`` does the same for the sector orbits of
``first_case``.
"""

import hashlib
import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from corpus import CASES

import arithdyn.experiments as experiments
import arithdyn.maps as maps
import arithdyn.orbit_tail as tail
from arithdyn.experiments import ExperimentConfig, run_experiment
from arithdyn.degrees import dynamical_degree_exact
from arithdyn.heights import affine_height, height_row, height_sequence_of_orbit
from arithdyn.maps import (
    ResourceCaps,
    TriangularMap,
    coordinate_bits,
    orbit,
    step_bits_bound,
    triangular_map,
)
from arithdyn.padic import valuation_signature, vp
from arithdyn.qpoly import ResourceLimitError

E1 = ["x1^3+x2", "x2^2+1"]
SECOND = ["x1*x2+1", "x2^2"]
BENCH_FACTORS = [
    (E1, (Fraction(1, 256), Fraction(1, 2)), 3),
    (SECOND, (Fraction(1), Fraction(1, 2)), 2),
]


def _counting_steps(monkeypatch):
    """Record every orbit step: each ``TriangularMap.apply`` and each exact
    step on (k, N) pairs of the prefix."""
    calls = []
    apply, pair_step = TriangularMap.apply, tail._pair_step

    def counting(self, point):
        calls.append(point)
        return apply(self, point)

    def counting_pairs(table, p, ks, nums):
        calls.append(nums)
        return pair_step(table, p, ks, nums)

    monkeypatch.setattr(TriangularMap, "apply", counting)
    monkeypatch.setattr(tail, "_pair_step", counting_pairs)
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
    """orbit_tail equals the exact walk, and only the prefix stepped f."""
    f = triangular_map(components)
    points, sigs, rows = _exact(f, p, start, n_max, delta)
    calls = _counting_steps(monkeypatch)
    got_points, got_sigs, got_rows = tail.orbit_tail(f, p, start, n_max, ResourceCaps())
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
    calls = _counting_steps(monkeypatch)
    got = tail.orbit_tail(f, 2, (Fraction(2),), 8, ResourceCaps())
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
    calls = _counting_steps(monkeypatch)
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
    calls = _counting_steps(monkeypatch)
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
    """x^e by left-to-right square-and-multiply from (1, 1, 0), cut after
    each product."""
    out = (1, 1, 0)
    for bit in bin(e)[2:]:
        out = tail._cut(*tail._mul(out, out))
        if bit == "1":
            out = tail._cut(*tail._mul(out, x))
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


def _four_product(x, y):
    """The exact product of two signed enclosures: the least and the
    largest of the four products of their ends."""
    (a, b, s), (c, d, t) = x, y
    ends = (a * c, a * d, b * c, b * d)
    return min(ends), max(ends), s + t


def _reference_step(terms, ks, residues, nums, p):
    """One component step term by term on signed enclosures: each power's
    ends are the powers of x's ends (swapped for an even e when x < 0),
    each product a ``_four_product``, each p^(W - w) the product with
    ``_prime_power``, and the sum brought to one scale and cut once."""
    weights = [sum(e * k for e, k in zip(mono, ks)) for _, mono, _ in terms]
    top = max(weights)
    residue = sum(
        c * math.prod(pow(residues[j], e, p) for j, e in pairs)
        for (c, _, pairs), w in zip(terms, weights)
        if w == top
    ) % p
    if not residue:
        return None
    parts = []
    for (c, _, pairs), w in zip(terms, weights):
        term = c, c, 0
        for j, e in pairs:
            lo, hi, s = nums[j]
            if hi < 0 and not e % 2:
                lo, hi = hi, lo
            term = _four_product(term, (lo**e, hi**e, s * e))
        parts.append(_four_product(term, tail._prime_power(p, top - w, {})))
    width = max(max(abs(lo), abs(hi)).bit_length() + s for lo, hi, s in parts)
    u = max(min(s for _, _, s in parts), width - tail.ENCLOSURE_BITS)
    lo_sum = hi_sum = 0
    for lo, hi, s in parts:
        if s >= u:
            lo, hi = lo << s - u, hi << s - u
        else:
            lo, hi = lo >> u - s, -(-hi >> u - s)
        lo_sum, hi_sum = lo_sum + lo, hi_sum + hi
    return top, residue, tail._cut(lo_sum, hi_sum, u)


@st.composite
def _component_steps(draw):
    """(terms, ks, exact numerators, p, bits): one component of at most
    four terms c x^a over up to three variables, each exponent at most 3,
    at a point whose numerators are nonzero and prime to p."""
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(1, 3))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        mono = tuple(draw(st.integers(0, 3)) for _ in range(dim))
        c = draw(st.integers(-9, 9).filter(bool))
        terms.append((c, mono, tuple((j, e) for j, e in enumerate(mono) if e)))
    ks = [draw(st.integers(1, 40)) for _ in range(dim)]
    xs = [draw(st.integers(-(2**400), 2**400).filter(lambda x: x % p)) for _ in range(dim)]
    return terms, ks, xs, p, draw(st.sampled_from([4, 16, 192]))


@settings(max_examples=300, deadline=None)
@given(case=_component_steps())
def test_the_p2_scale_shift_is_the_product_with_the_exact_power(case):
    # a component step scales a term by 2^m by moving its scale and
    # multiplies magnitudes under one sign; at any precision it gives the
    # enclosure of the term-by-term step on signed enclosures, which holds
    # the exact N' = sum_a c_a prod_j x_j^a_j p^(W - w(a)); p = 3 checks the
    # step's products with an enclosed 3^m the same way
    terms, ks, xs, p, bits = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(tail, "ENCLOSURE_BITS", bits)
        nums = [tail._cut(x, x, 0) for x in xs]
        residues = [x % p for x in xs]
        got = tail._component_step(terms, ks, residues, nums, {}, p, {})
        assert got == _reference_step(terms, ks, residues, nums, p)
    weights = [sum(e * k for e, k in zip(mono, ks)) for _, mono, _ in terms]
    exact = sum(
        c * math.prod(xs[j] ** e for j, e in pairs) * p ** (max(weights) - w)
        for (c, _, pairs), w in zip(terms, weights)
    )
    if got is None:
        assert exact % p == 0
    else:
        top, residue, (lo, hi, s) = got
        assert top == max(weights) and residue == exact % p
        assert lo << s <= exact <= hi << s
        # cut once to `bits` bits; a bound rounded up may reach 2^bits
        assert max(abs(lo), abs(hi)).bit_length() <= bits + 1


@pytest.mark.parametrize(
    "p, start", [(3, ("1/27", "1/3")), (2, ("1/256", "1/2"))], ids=["p3", "p2"]
)
def test_only_a_p3_tail_multiplies_by_an_enclosed_prime_power(monkeypatch, p, start):
    # for p = 3 a component step multiplies each term of weight w below the
    # top W by the enclosure p^(W - w); for p = 2 it only moves the scale,
    # so no component step asks for a power of p
    start = tuple(Fraction(x) for x in start)
    requested, stepping = [], []
    step, prime_power = tail._component_step, tail._prime_power

    def recording_step(*args):
        stepping.append(True)
        try:
            return step(*args)
        finally:
            stepping.pop()

    def recording_power(p, m, powers):
        power = prime_power(p, m, powers)
        if stepping:
            requested.append((m, power))
        return power

    monkeypatch.setattr(tail, "_component_step", recording_step)
    monkeypatch.setattr(tail, "_prime_power", recording_power)
    _assert_tail_is_exact(monkeypatch, E1, p, start, 9, 3)
    if p == 3:
        assert requested
        assert all(m > 0 and power == prime_power(3, m, {}) for m, power in requested)
        assert any(lo < hi for _, (lo, hi, _) in requested)  # a rounded enclosure
    else:
        assert not requested


NONNEGATIVE_ENDS = st.one_of(
    st.sampled_from([0, 1, 2**192 - 1, 2**192, 2**193 + 1]),
    st.integers(0, 2**200),
)


@settings(max_examples=400, deadline=None)
@given(
    x=st.tuples(NONNEGATIVE_ENDS, NONNEGATIVE_ENDS, st.integers(0, 300)),
    y=st.tuples(NONNEGATIVE_ENDS, NONNEGATIVE_ENDS, st.integers(0, 300)),
)
def test_mul_is_the_four_product_formula(x, y):
    # zero ends and ends on either side of a cut: on the nonnegative
    # enclosures _mul reads, its (a c, b d) is the four-product enclosure
    (a, b, s), (c, d, t) = (sorted(x[:2]) + [x[2]]), (sorted(y[:2]) + [y[2]])
    lo, hi, _ = _four_product((a, b, s), (c, d, t))
    shift = max(abs(lo), abs(hi)).bit_length() - tail.ENCLOSURE_BITS
    want = (lo, hi, s + t) if shift <= 0 else (lo >> shift, -(-hi >> shift), s + t + shift)
    assert tail._cut(*tail._mul((a, b, s), (c, d, t))) == want


def test_a_p3_tail_builds_each_prime_power_once_per_tail(monkeypatch):
    # p^(max k) built for one step's height row is the next step's sizes
    # entry: one build of p^m, a _pow of (3, 3, 0), per distinct m over the
    # whole tail, and the rows stay exact
    ms = []
    pow_ = tail._pow

    def counting(x, e):
        if x == (3, 3, 0):
            ms.append(e)
        return pow_(x, e)

    monkeypatch.setattr(tail, "_pow", counting)
    _assert_tail_is_exact(monkeypatch, E1, 3, (Fraction(1, 27), Fraction(1, 3)), 9, 3)
    assert len(ms) > tail.PREFIX
    assert len(ms) == len(set(ms))


# -- the exact prefix on (k, N) pairs ------------------------------------------


@st.composite
def _integer_orbits(draw, shortest=0, longest=tail.PREFIX):
    """(components, p, start, n_max): a triangular map with integer
    coefficients, each component a term c x_i^d (times x_j, j > i, or not)
    plus terms of lower degree in x_i, a start whose coordinates are
    N / p^k with k >= 0, and ``shortest`` <= n_max <= ``longest``.  Numerators may be 0,
    negative, or divisible by p where k = 0."""
    p = draw(st.sampled_from([2, 3, 5]))
    dim = draw(st.integers(1, 3))
    coeffs = st.integers(-3, 3).filter(bool)
    components = []
    for i in range(1, dim + 1):
        later = range(i + 1, dim + 1)
        terms = []
        degree = draw(st.integers(1, 3))
        for low in [degree] + draw(st.lists(st.integers(0, degree - 1), max_size=2)):
            factors = [f"x{i}^{low}"] + [f"x{j}" for j in later if draw(st.booleans())]
            terms.append("*".join([str(draw(coeffs))] + factors))
        components.append("+".join(terms))
    start = []
    for _ in range(dim):
        k = draw(st.integers(0, 3))
        num = draw(st.integers(-20, 20).filter(lambda n: k == 0 or n % p))
        start.append(f"{num}/{p**k}")
    return components, p, tuple(start), draw(st.integers(shortest, longest))


def _refuse(self, point):
    raise AssertionError("the prefix applied f")


@settings(max_examples=120, deadline=None)
@given(case=_integer_orbits(), cut=st.integers(0, tail.PREFIX - 1))
@example(case=(["x1^2-x1"], 2, ("1",), 5), cut=2)  # 1 -> 0 -> 0
@example(case=(["x1*x2-x2", "x2^2"], 3, ("1/9", "-3"), 5), cut=0)  # x1 reaches 0
@example(case=(["x1^3+x2", "x2^2+1"], 5, ("7/125", "10"), 5), cut=4)
def test_the_pair_prefix_is_the_fraction_walk(case, cut):
    components, p, start, n_max = case
    f = triangular_map(components)
    start = tuple(Fraction(x) for x in start)
    points = orbit(f, start, n_max)
    sigs = [valuation_signature(q, p) for q in points]
    rows = height_sequence_of_orbit(points, dynamical_degree_exact(f))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(TriangularMap, "apply", _refuse)
        assert tail.orbit_tail(f, p, start, n_max, ResourceCaps()) == (points, sigs, rows)
        if not n_max:
            return
        # a cap one bit below the bound of a step refuses that step on either walk
        bound = step_bits_bound(f)(coordinate_bits(points[min(cut, n_max - 1)]))
        caps = ResourceCaps(max_coeff_bits=bound - 1)
        with pytest.raises(ResourceLimitError) as got:
            tail.orbit_tail(f, p, start, n_max, caps)
    with pytest.raises(ResourceLimitError) as want:
        orbit(f, start, n_max, caps)
    assert got.value.metadata == want.value.metadata


@settings(max_examples=150, deadline=None)
@given(case=_integer_orbits(shortest=tail.PREFIX + 1, longest=tail.PREFIX + 3))
@example(case=(["x1^3+x2", "x2^2+1"], 2, ("1/256", "1/2"), 8))
@example(case=(["x1*x2+1", "x2^2"], 3, ("-5", "2/9"), 8))
def test_the_walk_is_the_exact_walk_enclosed_or_fallen_back(case):
    # past the prefix too: the enclosure walk at 192 bits, and at 6 bits,
    # where every tail falls back to the exact walk, give the exact orbit's
    # prefix points, signatures and height rows
    components, p, start, n_max = case
    f = triangular_map(components)
    start = tuple(Fraction(x) for x in start)
    points = orbit(f, start, n_max)
    sigs = [valuation_signature(q, p) for q in points]
    rows = height_sequence_of_orbit(points, dynamical_degree_exact(f))
    for bits in (192, 6):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(tail, "ENCLOSURE_BITS", bits)
            got_points, got_sigs, got_rows = tail.orbit_tail(f, p, start, n_max, ResourceCaps())
        assert got_points == points[: tail.PREFIX + 1]
        assert got_sigs == sigs
        assert _readout(got_rows) == _readout(rows)
        assert all(g.height_arg in (None, r.height_arg) for g, r in zip(got_rows, rows))


# -- the height read-out past the prefix --------------------------------------


def _height_aligning_all(ks, nums, p):
    """(bits, log) of the height read-out with every candidate brought to
    the finest scale, or None when it is open."""
    top = max(ks)
    candidates = [tail._prime_power(p, top, {})]
    for num, k in zip(nums, ks):
        size = tail._abs(num)
        if size is None:
            return None
        candidates.append(tail._mul(size, tail._prime_power(p, top - k, {})))
    u = min(s for _, _, s in candidates)
    lo, hi, s = tail._cut(
        max(lo << s - u for lo, _, s in candidates), max(hi << s - u for _, hi, s in candidates), u
    )
    if lo.bit_length() != hi.bit_length() or float(lo) != float(hi):
        return None
    return lo.bit_length() + s, math.log(lo << s)


# near 2^60, 2^192 and 2^193 ends straddle a bit length or a double
NEAR_ENDS = st.one_of(
    st.integers(1, 2**200),
    st.sampled_from([2**60, 2**192, 2**193]).flatmap(lambda t: st.integers(t - 300, t + 300)),
)


@st.composite
def _height_inputs(draw):
    """(ks, nums, p): signed enclosures holding 0 or not, some candidates
    tied with others or with p^max(k), some ends straddling a bit length."""
    p = draw(st.sampled_from([2, 3]))
    dim = draw(st.integers(1, 3))
    ks = [draw(st.integers(1, 8)) for _ in range(dim)]
    nums = []
    for i in range(dim):
        if i and draw(st.booleans()):  # a tie with an earlier candidate
            lo, hi, s = nums[draw(st.integers(0, i - 1))]
            nums.append((lo, hi, s) if draw(st.booleans()) else (-hi, -lo, s))
            ks[i] = ks[i - 1] if draw(st.booleans()) else ks[i]
            continue
        lo = draw(NEAR_ENDS)
        hi = lo + draw(st.sampled_from([0, 1, 2]) | st.integers(0, 2**70))
        s = draw(st.sampled_from([0, 1]) | st.integers(0, 400))
        if draw(st.booleans()):
            lo, hi = -hi, -lo
        if draw(st.integers(0, 9)) == 0:
            lo = -lo  # an enclosure that holds 0
        nums.append((min(lo, hi), max(lo, hi), s))
    return ks, nums, p


@settings(max_examples=500, deadline=None)
@given(case=_height_inputs())
@example(case=([1, 1], [(2**60, 2**60 + 1, 0), (1, 1, 0)], 2))
@example(case=([1, 1], [(2**60, 2**60 + 5, 0), (2**60 + 3, 2**60 + 3, 0)], 2))
@example(case=([2, 1], [(-(2**60) - 1, -(2**60), 3), (2**60 - 1, 2**60, 4)], 2))
@example(case=([1, 1], [(1, 1, 0), (1, 1, 0)], 3))
def test_the_height_aligns_only_the_candidates_that_can_be_largest(case):
    ks, nums, p = case
    got = tail._height(ks, nums, p, {})
    assert (None if got is None else (got.bits, got.log)) == _height_aligning_all(ks, nums, p)


# -- one step plan per map ------------------------------------------------------


def test_each_map_builds_its_step_plan_once_per_run(tmp_path, monkeypatch):
    # first_case reads E1's plan for its degree certificate and its 12
    # orbits; product reads one plan per factor; every orbit walk, the exact
    # steps and the zero-step check of a start included, reads its step
    # bound from that plan and builds none of its own
    built, bounds = [], []
    step_plan, bits_bound = maps._step_plan, maps.step_bits_bound

    def counting(f):
        built.append(f)
        return step_plan(f)

    def counting_bound(f):
        bounds.append(f)
        return bits_bound(f)

    monkeypatch.setattr(maps, "_step_plan", counting)
    monkeypatch.setattr(maps, "step_bits_bound", counting_bound)
    doc = dict(map=E1_DOC, mode="first_case", n_max=9, samples=12, seed=0)
    run_experiment(ExperimentConfig(**doc), tmp_path / "first_case")
    assert built == bounds == [triangular_map(E1)]
    del built[:], bounds[:]
    run_experiment(ExperimentConfig(**CAP_CASES["product-first-factor"][0]), tmp_path / "product")
    assert built == bounds == [triangular_map(E1), triangular_map(SECOND)]
