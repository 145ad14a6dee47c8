"""End-to-end experiment pipelines with deterministic CSV/JSON reports.

An experiment takes a triangular map and runs one of four modes:

  first_case      strictly decreasing diagonal degrees: dynamical degree,
                  sector construction, stability and dominant-monomial
                  verification, height sequences with the lower
                  canonical-height floor, orbit disjointness and the
                  density proxy;
  second_case_n2  N = 2 with d11 <= d22: exact second-coordinate valuation
                  growth plus height estimates;
  product         the block product of two maps: degree max-rule and
                  height additivity;
  iterate_check   consistency of symbolic iteration: the dynamical degree
                  of f^t against delta^t, and the exact orbit points of
                  f^t against every t-th point of the orbit of f.

Identical configs (same seed) produce byte-identical outputs.  Every check
in the summary names the mathematical statement it instantiates.

A mode returns its checks and its report texts and writes nothing;
run_experiment adds summary.json and hands every text to write_reports, the
package's one writer.  So a run that exits 3 or 4 writes nothing: no file
and no output directory.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction
from pathlib import Path

from . import degrees as deg
from . import heights as hts
from . import padic
from .density import density_check, density_report_csv
from .maps import (
    DEFAULT_CAPS,
    ResourceCaps,
    TriangularMap,
    as_point,
    csv_text,
    diagonal_degrees,
    iterate_symbolic,
    map_from_json_dict,
    map_to_json_dict,
    orbit,
    orbit_to_csv,
    orbits_disjoint_prefix,
)
from .orbit_tail import PREFIX, orbit_tail, start_prime

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_ASSERTION_FAILED = 2
EXIT_RESOURCE = 3
EXIT_CONFIG = 4

MODES = ("first_case", "second_case_n2", "product", "iterate_check")

ALPHA_UPPER_MARGIN = 0.05
ALPHA_MIN_N = 5
KHAT_FLOAT_MARGIN = 1e-9


class ConfigError(ValueError):
    pass


def read_json(path):
    """The JSON document in the file ``path``; nesting too deep to parse is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except RecursionError:
        raise ConfigError(f"{path}: JSON nested too deeply") from None


class ExperimentConfig:
    """A run's settings: ``map`` in the wire format {"dimension": N,
    "components": [...]} and any of the fields in DEFAULTS, checked here."""

    DEFAULTS = {
        "mode": "first_case",
        "map_b": None,  # second factor, product mode only
        "point": None,  # rational strings, modes that track one orbit
        "prime": None,
        "c_constant": None,
        "n_max": 8,
        "samples": 12,
        "seed": 0,
        "density_degree": 2,
        "degree_sequence_depth": 4,
        "iterate_power": 2,
        "out_dir": None,
    }
    NULLABLE_INTS = ("prime", "c_constant")
    INT_FIELDS = (*NULLABLE_INTS, "n_max", "samples", "seed", "density_degree",
                  "degree_sequence_depth", "iterate_power")
    POSITIVE_INTS = ("n_max", "samples", "density_degree", "degree_sequence_depth", "iterate_power")

    def __init__(self, /, map: dict, **fields):
        unknown = fields.keys() - self.DEFAULTS.keys()
        if unknown:
            raise ConfigError(f"unknown config fields: {sorted(unknown)}")
        vars(self).update(self.DEFAULTS, map=map, **fields)
        for name in self.INT_FIELDS:
            value = getattr(self, name)
            if type(value) is not int and not (value is None and name in self.NULLABLE_INTS):
                raise ConfigError(f"{name} must be an integer, got {value!r}")
        if self.point is not None and type(self.point) is not list:
            raise ConfigError(f"point must be a list of rationals, got {self.point!r}")
        if self.out_dir is not None and type(self.out_dir) is not str:
            raise ConfigError(f"out_dir must be a path string, got {self.out_dir!r}")
        if self.mode not in MODES:
            raise ConfigError(f"unknown mode {self.mode!r}; expected one of {MODES}")
        for name in self.POSITIVE_INTS:
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        doc = read_json(path)
        if not isinstance(doc, dict) or "map" not in doc:
            raise ConfigError("config must be a JSON object with a 'map' key")
        return cls(**doc)


class Check:
    def __init__(self, name: str, statement: str, passed: bool, details: dict):
        self.name, self.statement, self.passed, self.details = name, statement, passed, details


class ExperimentResult:
    def __init__(self, summary: dict, files: list, exit_code: int):
        self.summary, self.files, self.exit_code = summary, files, exit_code


def write_reports(out_dir, reports: dict) -> list:
    """Write each report text to its file name under ``out_dir``, in order,
    and return the paths written.

    The one function in the package that makes a directory or writes a
    file.  Every caller builds all of its texts first, so a run that raises
    leaves no directory and no file behind.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, text in reports.items():
        path = out_dir / name
        path.write_text(text, encoding="utf-8")
        paths.append(str(path))
    return paths


def run_experiment(
    cfg: ExperimentConfig, out_dir, caps: ResourceCaps = DEFAULT_CAPS
) -> ExperimentResult:
    """Run the config's mode, then write its reports and ``summary.json``
    (last) to ``out_dir``; nothing is written if the run raises."""
    f = map_from_json_dict(cfg.map)
    run_mode = {
        "first_case": _run_first_case,
        "second_case_n2": _run_second_case,
        "product": _run_product,
        "iterate_check": _run_iterate_check,
    }[cfg.mode]
    checks, reports, extra = run_mode(cfg, f, caps)
    all_pass = all(c.passed for c in checks)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "mode": cfg.mode,
        "seed": cfg.seed,
        "all_passed": all_pass,
        "checks": [dict(vars(c)) for c in checks],
        "map": map_to_json_dict(f),
        **extra,
    }
    reports["summary.json"] = json.dumps(summary, indent=2, sort_keys=True) + "\n"
    return ExperimentResult(
        summary=summary,
        files=write_reports(out_dir, reports),
        exit_code=EXIT_OK if all_pass else EXIT_ASSERTION_FAILED,
    )


# -- mode pipelines ----------------------------------------------------


def _degree_stage(cfg: ExperimentConfig, f: TriangularMap, caps) -> tuple:
    """(delta, checks, reports) of the degree stage that opens both sector modes."""
    delta = deg.dynamical_degree_exact(f)
    rows = deg.dynamical_degree_sequence(f, n_max=cfg.degree_sequence_depth, caps=caps)
    check = Check(
            name="degree_roots_above_exact",
            statement="deg(f^n)^(1/n) >= max diagonal degree for every computed n",
            passed=all(d >= delta**n for n, d, _ in rows),
        details={"delta_exact": delta, "rows": [list(row) for row in rows]},
    )
    return delta, [check], {"degrees.csv": deg.degrees_csv(rows)}


def _height_checks(seqs: list, delta: int, floors: list | None = None) -> list:
    """The height-sequence checks of a run: the canonical-height floor, one
    per sequence, when ``floors`` are given, then the root proxy."""
    checks = []
    if floors is not None:
        checks.append(
            Check(
                name="lower_canonical_height_positive",
                statement="delta^(-n) * h+(f^n P) >= (-v_p x_1) * log p for all computed n",
                passed=all(
                    row.khat >= floor - KHAT_FLOAT_MARGIN
                    for rows, floor in zip(seqs, floors)
                    for row in rows
                ),
                details={"margin": KHAT_FLOAT_MARGIN},
            )
        )
    worst = max((row.root for rows in seqs for row in rows if row.n >= ALPHA_MIN_N), default=None)
    checks.append(
        Check(
            name="alpha_upper_proxy",
            statement=(
                f"max of h+(f^n P)^(1/n) over n >= {ALPHA_MIN_N} stays within "
                f"{ALPHA_UPPER_MARGIN} above the exact dynamical degree"
            ),
            passed=worst is not None and worst <= delta + ALPHA_UPPER_MARGIN,
            details={"max_root": worst, "delta_exact": delta},
        )
    )
    return checks


def _run_first_case(cfg: ExperimentConfig, f: TriangularMap, caps) -> tuple:
    diag = diagonal_degrees(f)
    if diag[0] < 2 or any(diag[i] <= diag[i + 1] for i in range(len(diag) - 1)):
        raise ConfigError(
            f"first_case requires strictly decreasing diagonal degrees with d11 >= 2, got {diag}"
        )
    sector = padic.sector_config(f, prime=cfg.prime, C=cfg.c_constant)
    delta, checks, reports = _degree_stage(cfg, f, caps)

    # The last sample's x_1 has denominator p^e of at least e*(bits(p) - 1) + 1
    # bits; past the cap orbit() would refuse its first step, so refuse now,
    # before sample_U builds the power.
    base = padic.minimal_signature(sector)
    e = base[0] + cfg.samples - 1
    bits = e * (sector.prime.bit_length() - 1) + 1
    caps.check("sample_U", bits=bits, last_safe_n=0)
    samples = padic.sample_U(sector, cfg.samples, cfg.seed)

    # One capped orbit per sample feeds every check and report below.  The
    # disjointness check and orbit_sample0.csv read the exact points up to
    # n = PREFIX even when n_max is smaller; the rest read its valuation
    # signatures and height rows for n = 0..n_max.
    seqs = []
    tables = []
    prefixes = []
    for point in samples:
        points, sigs, rows = orbit_tail(f, sector.prime, point, max(cfg.n_max, PREFIX), caps)
        seqs.append(rows[: cfg.n_max + 1])
        tables.append(sigs[: cfg.n_max + 1])
        prefixes.append(points)
    d11 = diag[0]
    # e_1 = -v_p(x_1): e_1(f^n P) >= d11^n * e_1(P)
    floor_ok = all(sigs[n][0] >= d11**n * sigs[0][0] for sigs in tables for n in range(len(sigs)))
    log_p = math.log(sector.prime)
    floors = [sigs[0][0] * log_p for sigs in tables]

    stability = padic.verify_stability(sector, tables)
    checks.append(
        Check(
            name="sector_stability",
            statement=(
                "for every sample P in U: f(P) in U and the first image "
                "coordinate is p-adically largest"
            ),
            passed=all(stability),
            details={"prime": sector.prime, "C": sector.C, "samples": len(samples)},
        )
    )
    dominant = [padic.verify_dominant_value(f, sigs) for sigs in tables]
    checks.append(
        Check(
            name="dominant_monomial_valuation",
            statement=(
                "v(x_i of f(P)) = d_ii*v(x_i) + sum_l e_il*v(x_l) exactly "
                "for every sample and component"
            ),
            passed=all(dominant),
            details={},
        )
    )
    reports["sector.csv"] = padic.sector_report_csv(
        sector, tables, stability, dominant, min(cfg.n_max, 4)
    )
    reports["heights_sample0.csv"] = hts.heights_csv(seqs[0])
    checks.append(
        Check(
            name="height_growth_floor",
            statement="-v_p(x_1 of f^n(P)) >= d_11^n * (-v_p(x_1 of P)) for all computed n",
            passed=floor_ok,
            details={"n_max": cfg.n_max},
        )
    )
    checks.extend(_height_checks(seqs, delta, floors))

    # The point with the minimal signature is the witness.  By the
    # dominant-monomial identity no sector point maps to a first exponent
    # below floor = sum_l e_1l * base_l >= d11 * base[0] >= 2 * base[0], so
    # the gate's d11 >= 2 gives base[0] < floor.
    witness = tuple(Fraction(1, sector.prime**e) for e in base)
    floor = padic.image_signature(f, base)[0]
    checks.append(
        Check(
            name="sector_not_surjective_witness",
            statement=(
                "a sector point exists whose first-coordinate exponent is below "
                "the minimum achievable by one application of the map"
            ),
            passed=padic.in_U(witness, sector) and base[0] < floor,
            details={"witness": [str(c) for c in witness], "image_floor": floor},
        )
    )

    disjoint = orbits_disjoint_prefix(*prefixes)
    checks.append(
        Check(
            name="pairwise_orbit_disjointness",
            statement=f"all pairwise orbit prefixes of length {PREFIX + 1} are disjoint",
            passed=disjoint,
            details={"prefix": PREFIX},
        )
    )
    signatures = [sigs[0] for sigs in tables]
    checks.append(
        Check(
            name="distinct_valuation_signatures",
            statement="sampled points carry pairwise distinct valuation signatures",
            passed=len(set(signatures)) == len(signatures),
            details={},
        )
    )

    density = density_check(samples, cfg.density_degree, caps)
    reports["density.csv"] = density_report_csv(density)
    checks.append(
        Check(
            name="density_proxy",
            statement=(
                f"no nonzero polynomial of total degree <= {cfg.density_degree} "
                "vanishes on all sampled points"
            ),
            passed=density.dense,
            details={
                "rank": density.rank,
                "monomial_count": density.monomial_count,
                "point_count": density.point_count,
                "verdict": density.verdict,
            },
        )
    )
    reports["orbit_sample0.csv"] = orbit_to_csv(prefixes[0])
    return checks, reports, {"delta_exact": delta, "prime": sector.prime, "C": sector.C}


def _run_second_case(cfg: ExperimentConfig, f: TriangularMap, caps) -> tuple:
    if f.dimension != 2:
        raise ConfigError("second_case_n2 requires a two-variable map")
    diag = diagonal_degrees(f)
    if diag[0] > diag[1]:
        raise ConfigError("second_case_n2 requires d11 <= d22")
    sector = padic.sector_config(f, prime=cfg.prime, C=cfg.c_constant)
    if cfg.point is not None:
        point = as_point(cfg.point)
    else:
        # Default start: x1 = 1 and x2 = a/p, so |x2|_p > 1, with a the
        # numerator sample_U's first sample gives x2; x1's is not used.
        _, a = itertools.islice(padic.unit_numerators(sector.prime, cfg.seed), 2)
        point = (Fraction(1), Fraction(a, sector.prime))
    # The growth law holds on |x_2|_p > 1 only: refuse a start outside it
    # before any stage runs.
    if len(point) != 2 or padic.valuation_signature(point, sector.prime)[1] <= 0:
        raise ConfigError("second_case_n2 needs a start (x1, x2) with |x_2|_p > 1")
    delta, checks, reports = _degree_stage(cfg, f, caps)

    _, sigs, height_rows = orbit_tail(f, sector.prime, point, cfg.n_max, caps)
    growth = padic.case_n2_growth(f, sigs)
    rows = ((n, v, expected, v == expected) for n, v, expected in growth)
    reports["growth.csv"] = csv_text(["n", "v_x2", "expected", "equal"], rows)
    checks.append(
        Check(
            name="second_coordinate_valuation_growth",
            statement="v_p(x_2 of f^n P) = d_22^n * v_p(x_2 of P) exactly, and |x_2|_p > 1 is preserved",
            passed=all(v == expected for _, v, expected in growth),
            details={"rows": [list(row) for row in growth]},
        )
    )

    reports["heights.csv"] = hts.heights_csv(height_rows)
    checks.extend(_height_checks([height_rows], delta))

    extra = {"delta_exact": delta, "prime": sector.prime, "point": [str(c) for c in point]}
    return checks, reports, extra


def _run_product(cfg: ExperimentConfig, f: TriangularMap, caps) -> tuple:
    if cfg.map_b is None:
        raise ConfigError("product mode needs map_b")
    g = map_from_json_dict(cfg.map_b)
    delta_f = deg.dynamical_degree_exact(f)
    delta_g = deg.dynamical_degree_exact(g)
    fg = deg.product_map(f, g)
    delta_product = deg.dynamical_degree_exact(fg)
    checks = [
        Check(
            name="product_degree_max_rule",
            statement="the dynamical degree of the block product equals the max of the factors'",
            passed=delta_product == max(delta_f, delta_g),
            details={"delta_f": delta_f, "delta_g": delta_g, "delta_product": delta_product},
        )
    ]
    reports = {}

    if cfg.point is not None:
        point = as_point(cfg.point)
        if len(point) != f.dimension + g.dimension:
            raise ConfigError("product point must have N_f + N_g coordinates")
        halves = ((f, point[: f.dimension]), (g, point[f.dimension :]))
        rows_a, rows_b = (
            orbit_tail(h, start_prime(h, start), start, cfg.n_max, caps)[2] for h, start in halves
        )
        projections_match, sums = hts.product_height_additivity(f, rows_a, g, rows_b, fg=fg)
        alpha_a, alpha_b = rows_a[-1].root, rows_b[-1].root
        checks.append(
            Check(
                name="product_height_additivity",
                statement=(
                    "the product orbit projects exactly onto the factor orbits; the "
                    "summed height's exact argument is the product of the factors'"
                ),
                passed=projections_match,
                details={
                    "alpha_a": alpha_a,
                    "alpha_b": alpha_b,
                    "expected_limit": max(alpha_a, alpha_b),
                    "last_root": sums[-1][1],
                },
            )
        )
        reports["product_heights.csv"] = hts.product_heights_csv(rows_a, rows_b, sums)

    return checks, reports, {"map_b": map_to_json_dict(g), "delta_exact": max(delta_f, delta_g)}


def _run_iterate_check(cfg: ExperimentConfig, f: TriangularMap, caps) -> tuple:
    if cfg.point is None:
        raise ConfigError("iterate_check mode needs a point")
    if cfg.iterate_power > 3:
        raise ConfigError("iterate_power is capped at 3")
    # delta(f^t) = delta(f)^t, and (f^t)^n P = f^(tn) P exactly for n = 0..n_max.
    # Equal points have equal heights, so comparing the points is the stronger
    # check; each row reports the bit length of the point's height argument.
    t = cfg.iterate_power
    delta = deg.dynamical_degree_exact(f)
    f_t = iterate_symbolic(f, t, caps)
    delta_t = deg.dynamical_degree_exact(f_t)
    fast = orbit(f_t, cfg.point, cfg.n_max, caps)
    slow = orbit(f, cfg.point, cfg.n_max * t, caps)
    rows = [
        {
            "n": n,
            "height_arg_bits": hts.affine_height(p).bits,
            "equal": p == slow[n * t],
        }
        for n, p in enumerate(fast)
    ]
    checks = [
        Check(
            name="iterate_degree_power_law",
            statement="the dynamical degree of the t-fold iterate is the t-th power of the original",
            passed=delta_t == delta**t,
            details={"t": t, "delta": delta, "delta_iterate": delta_t},
        ),
        Check(
            name="iterate_height_rows_match",
            statement="height arguments of (f^t)^n(P) and f^(tn)(P) agree exactly row for row",
            passed=all(row["equal"] for row in rows),
            details={"rows": rows},
        ),
    ]
    return checks, {}, {"delta_exact": delta}
