"""Sector orbit tails carried as enclosures agree with the exact orbit.

``orbit_tail`` walks f^n(P) past the printed prefix as (k, N mod p, an
enclosure of N) for each coordinate N / p^k.  These tests, on the sector
orbits of ``first_case``, compare every tail row with the row the exact
orbit gives, force each kind of open decision and check that it falls back
to the exact walk, and check that the resource caps refuse the same step
either way.  ``test_orbit_tail.py`` does the same for the second-case and
product orbits.
"""

import hashlib
import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import arithdyn.cli as cli
import arithdyn.orbit_tail as tail
from arithdyn.cli import main
from arithdyn.experiments import EXIT_RESOURCE, ExperimentConfig, run_experiment
from arithdyn.heights import affine_height, height_row
from arithdyn.maps import (
    ResourceCaps,
    TriangularMap,
    coordinate_bits,
    orbit,
    step_bits_bound,
    triangular_map,
)
from arithdyn.padic import sample_U, sector_config, valuation_signature
from arithdyn.qpoly import ResourceLimitError

E1 = ["x1^3+x2", "x2^2+1"]
M2 = ["x1^3+x2^5", "x2^2+1"]
PREFIX = 5
# the config of the benchmark's sector_orbits workload at seed 0
BENCH_CFG = dict(
    map={"dimension": 2, "components": E1}, mode="first_case", n_max=9, samples=12, seed=0
)


def _exact_tail(f, sector, points, delta):
    """(signatures, rows) of points[PREFIX + 1:], read from the exact points."""
    tail_points = list(enumerate(points))[PREFIX + 1 :]
    return (
        [valuation_signature(q, sector.prime) for _, q in tail_points],
        [height_row(n, affine_height(q), delta) for n, q in tail_points],
    )


def _enclosed(f, sector, point, n_max, delta):
    """The enclosure walk alone, never its exact fallback."""
    ks = list(valuation_signature(point, sector.prime))
    nums = [x.numerator for x in point]
    return tail._enclosed_tail(
        tail._term_table(f), step_bits_bound(f), sector.prime, ks, nums, PREFIX, n_max, delta,
        ResourceCaps(),
    )


@pytest.mark.parametrize(
    "components, prime, n_max",
    [(E1, 2, 9), (E1, 3, 8), (M2, 2, 8), (M2, 3, 7)],
    ids=["E1-p2", "E1-p3", "M2-p2", "M2-p3"],
)
def test_tail_rows_equal_the_exact_rows(components, prime, n_max):
    f = triangular_map(components)
    sector = sector_config(f, prime=prime)
    for seed in range(3):
        for point in sample_U(sector, 4, seed):
            points = orbit(f, point, n_max)
            want_sigs, want_rows = _exact_tail(f, sector, points, 3)
            got = _enclosed(f, sector, points[PREFIX], n_max, 3)
            assert got is not None, "the enclosure walk left a decision open"
            sigs, rows = got
            assert sigs == want_sigs
            assert [(r.n, r.arg_bits, r.h, r.h_plus, r.root, r.khat) for r in rows] == [
                (r.n, r.arg_bits, r.h, r.h_plus, r.root, r.khat) for r in want_rows
            ]
            assert all(r.height_arg is None for r in rows)


def test_enclosures_contain_the_exact_numerators():
    # the walk of _enclosed_tail, one component step at a time, against the
    # exact orbit: every enclosure holds the exact numerator
    for components, prime in [(E1, 2), (E1, 3), (M2, 2)]:
        f = triangular_map(components)
        sector = sector_config(f, prime=prime)
        terms, pairs = tail._term_table(f)
        prime_powers = {}
        for point in sample_U(sector, 3, 1):
            points = orbit(f, point, 8)
            start = points[PREFIX]
            ks = list(valuation_signature(start, sector.prime))
            residues = [x.numerator % prime for x in start]
            nums = [tail._cut(x.numerator, x.numerator, 0) for x in start]
            for exact in points[PREFIX + 1 :]:
                powers = {(j, e): tail._power(nums[j], e) for j, e in pairs}
                images = [
                    tail._component_step(t, ks, residues, powers, prime, prime_powers)
                    for t in terms
                ]
                ks, residues, nums = (list(part) for part in zip(*images))
                for x, k, r, (lo, hi, s) in zip(exact, ks, residues, nums):
                    assert x.denominator == prime**k
                    assert x.numerator % prime == r
                    assert lo << s <= x.numerator <= hi << s


INTS = st.integers(-(2**300), 2**300)


@settings(max_examples=200, deadline=None)
@given(x=INTS, y=INTS, e=st.integers(0, 5), bits=st.sampled_from([3, 8, 192]))
def test_interval_operations_contain_the_exact_result(x, y, e, bits):
    # every bound is rounded outward, at any precision; _mul and _power are
    # exact on the ends, and a sum is cut once
    saved = tail.ENCLOSURE_BITS
    tail.ENCLOSURE_BITS = bits
    try:
        ex, ey = tail._cut(x, x, 0), tail._cut(y, y, 0)
        uncut = [(tail._mul(ex, ey), x * y)]
        if x and e:  # _power reads an enclosure that holds no 0
            uncut.append((tail._power(ex, e), x**e))
        cut = [
            (ex, x),
            (tail._cut(*tail._mul(ex, ey)), x * y),
            (tail._sum([ex, ey]), x + y),
            (tail._sum([tail._mul(ex, ex), ey]), x * x + y),
            (tail._sum([tail._mul(ex, ey), ex, ey]), x * y + x + y),
            (tail._pow(ex, e), x**e),
            (tail._prime_power(3, abs(y) % 500, {}), 3 ** (abs(y) % 500)),
        ]
        for (lo, hi, s), value in uncut + cut:
            assert lo << s <= value <= hi << s
        for (lo, hi, s), _ in cut:
            # cut to `bits` bits, and a bound rounded up may reach 2^bits
            assert max(abs(lo), abs(hi)).bit_length() <= bits + 1
    finally:
        tail.ENCLOSURE_BITS = saved


def test_a_residue_that_cancels_falls_back_to_the_exact_value(monkeypatch):
    # f_1(1/2, 1/2) = 1/4 + 1/4 = 1/2: both monomials have the top weight 2
    # and their residues cancel mod 2, so k = 1, not the top weight 2
    f = triangular_map(["x1^2 + x2^2", "x2"])
    point = (Fraction(1, 2), Fraction(1, 2))
    (terms, _), pairs = tail._term_table(f)
    powers = {(j, e): tail._power((1, 1, 0), e) for j, e in pairs}
    assert tail._component_step(terms, [1, 1], [1, 1], powers, 2, {}) is None
    assert _enclosed(f, sector_config(f, prime=2), point, PREFIX + 3, 2) is None
    calls = _counting_steps(monkeypatch)
    _, sigs, rows = tail.orbit_tail(f, 2, point, PREFIX + 3, ResourceCaps())
    assert len(calls) == PREFIX + 3  # the tail past the prefix was walked exactly
    assert sigs == [(1, 1)] * (PREFIX + 4)
    assert f.apply(point) == point
    assert [r.arg_bits for r in rows] == [affine_height(point).max_abs.bit_length()] * (PREFIX + 4)


TOP = 1 << 60  # doubles are 256 apart just above it


@pytest.mark.parametrize(
    "x1, x2, certified",
    [
        ((TOP, TOP + 1, 0), (1, 1, 0), True),  # one bit length, one double
        ((TOP, TOP + 1024, 0), (1, 1, 0), False),  # two doubles
        ((TOP - 1, TOP, 0), (1, 1, 0), False),  # two bit lengths
        ((TOP, TOP + 5, 0), (TOP + 3, TOP + 3, 0), True),  # overlapping candidates, one double
        ((-TOP - 1, -TOP, 0), (1, 1, 0), True),  # a negative numerator
        ((-1, 1, 60), (1, 1, 0), False),  # a numerator enclosure that holds 0
    ],
    ids=["certified", "rounding", "bit-length", "overlap", "negative", "zero"],
)
def test_an_open_height_decision_is_not_certified(x1, x2, certified):
    height = tail._height([1, 1], [x1, x2], 2, {})
    if certified:
        assert (height.bits, height.log) == (61, math.log(TOP))
    else:
        assert height is None


@pytest.mark.parametrize(
    "components, point",
    [
        (["1/3*x1^3+x2", "x2^2+1"], (Fraction(1, 2**20), Fraction(1, 2))),  # a coefficient off Z
        (E1, (Fraction(1, 3 * 2**20), Fraction(1, 2))),  # a denominator not a power of p
        (E1, (Fraction(3, 2**20), Fraction(5))),  # a coordinate with k = 0
    ],
    ids=["rational-coefficient", "mixed-denominator", "integral-coordinate"],
)
def test_points_outside_the_case_split_walk_exactly(components, point):
    f = triangular_map(components)
    sector = sector_config(f, prime=2)  # 1/3 is a 2-adic unit
    points = orbit(f, point, PREFIX + 2)
    want = _exact_tail(f, sector, points, 3)
    _, sigs, rows = tail.orbit_tail(f, sector.prime, point, PREFIX + 2, ResourceCaps())
    assert sigs[PREFIX + 1 :] == want[0] and rows[PREFIX + 1 :] == want[1]


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out_dir.iterdir())}


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


def test_open_decisions_fall_back_to_byte_identical_outputs(tmp_path, monkeypatch):
    want = run_experiment(ExperimentConfig(**BENCH_CFG), tmp_path / "enclosed")
    calls = _counting_steps(monkeypatch)
    monkeypatch.setattr(tail, "ENCLOSURE_BITS", 6)
    got = run_experiment(ExperimentConfig(**BENCH_CFG), tmp_path / "fallback")
    assert len(calls) > 12 * PREFIX  # some orbits were recomputed exactly
    assert got.exit_code == want.exit_code
    assert _digests(tmp_path / "fallback") == _digests(tmp_path / "enclosed")


# (cap, metadata) of the bench config under a coordinate-bit cap, as the
# exact orbit walk refuses it; steps 8 and 9 are bounded from points 7 and
# 8, which the enclosure walk carries
CAP_HITS = [
    (110489, {"stage": "orbit step 8", "bits": 110490, "max_coeff_bits": 110489, "last_safe_n": 7}),
    (110490, {"stage": "orbit step 9", "bits": 330913, "max_coeff_bits": 110490, "last_safe_n": 8}),
]


def test_the_cap_hits_are_the_exact_walks():
    f = triangular_map(E1)
    points = orbit(f, sample_U(sector_config(f), 12, 0)[0], 8)
    bound = step_bits_bound(f)
    assert [bound(coordinate_bits(q)) for q in points[7:]] == [110490, 330913]


@pytest.mark.parametrize("bits", [192, 6], ids=["enclosed", "fallback"])
@pytest.mark.parametrize("cap, metadata", CAP_HITS, ids=["step8", "step9"])
def test_a_cap_in_the_tail_exits_3_with_the_exact_metadata(
    tmp_path, capsys, monkeypatch, bits, cap, metadata
):
    monkeypatch.setattr(tail, "ENCLOSURE_BITS", bits)
    calls = _counting_steps(monkeypatch)
    with pytest.raises(ResourceLimitError) as err:
        run_experiment(
            ExperimentConfig(**BENCH_CFG), tmp_path / "direct", ResourceCaps(max_coeff_bits=cap)
        )
    assert err.value.metadata == metadata
    if bits == 192:  # the enclosure walk refused the step itself
        assert len(calls) == PREFIX

    def capped(cfg, out_dir):
        return run_experiment(cfg, out_dir, ResourceCaps(max_coeff_bits=cap))

    monkeypatch.setattr(cli, "run_experiment", capped)
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps(BENCH_CFG))
    code = main(["--out-dir", str(tmp_path / "out"), "run", "--config", str(config)])
    assert code == EXIT_RESOURCE
    stderr = capsys.readouterr().err
    assert f"'stage': '{metadata['stage']}'" in stderr
    assert f"'last_safe_n': {metadata['last_safe_n']}" in stderr
    assert not (tmp_path / "direct").exists() and not (tmp_path / "out").exists()


def test_the_bench_config_applies_f_only_on_the_printed_prefix(tmp_path, monkeypatch):
    calls = _counting_steps(monkeypatch)
    run_experiment(ExperimentConfig(**BENCH_CFG), tmp_path)
    assert len(calls) <= 12 * PREFIX
