"""Command-line entry points.

    arithdyn [--seed S] [--out-dir DIR] run --config cfg.json
    arithdyn [--out-dir DIR] density --points pts.csv --degree D
    arithdyn [--out-dir DIR] degrees --map map.json --nmax N

The global options --seed and --out-dir come before the subcommand.

Exit codes: 0 all assertions pass, 2 an assertion failed, 3 a resource cap
was hit, 4 the configuration, an input file or the command line is invalid
(a usage error from argparse exits 4, not argparse's 2; --help exits 0).
A cap hit anywhere is raised as ResourceLimitError by ResourceCaps.check
alone, and main() alone turns it into exit 3; no command reports a partial
result.  Python's own limits are resource caps too, and exit 3: the digits
of an int <-> str conversion, the range of a float read-out (an exact degree
whose n-th root is no float) and the recursion depth.  Every command builds
all of its report texts before experiments.write_reports writes them, so a
run that exits 3 or 4 writes nothing: no file and no output directory.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .density import density_check, density_report_csv
from .degrees import degrees_csv, dynamical_degree_exact, dynamical_degree_sequence
from .experiments import (
    EXIT_ASSERTION_FAILED,
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    ConfigError,
    ExperimentConfig,
    read_json,
    run_experiment,
    write_reports,
)
from .maps import map_from_json_dict, points_from_csv
from .qpoly import ResourceLimitError

DEFAULT_OUT_DIR = Path("arithdyn-out")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="arithdyn",
        description="Exact dynamical/arithmetic degree experiments for triangular polynomial maps",
    )
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument(
        "--out-dir", type=Path, default=None, help="directory for CSV/JSON reports"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a full experiment pipeline from a JSON config")
    run_p.add_argument("--config", type=Path, required=True)

    dens_p = sub.add_parser("density", help="exact-rank density proxy on a point set")
    dens_p.add_argument("--points", type=Path, required=True, help="CSV of num/den columns")
    dens_p.add_argument("--degree", type=int, required=True)

    degs_p = sub.add_parser("degrees", help="degree sequence of a map's iterates")
    degs_p.add_argument("--map", type=Path, required=True, help="JSON map description")
    degs_p.add_argument("--nmax", type=int, required=True)
    return parser


def _cmd_run(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    out = args.out_dir or Path(cfg.out_dir or DEFAULT_OUT_DIR)
    result = run_experiment(cfg, out)
    for check in result.summary["checks"]:
        marker = "PASS" if check["passed"] else "FAIL"
        print(f"[{marker}] {check['name']}: {check['statement']}")
    print(f"summary written to {out / 'summary.json'}")
    return result.exit_code


def _cmd_density(args) -> int:
    points = points_from_csv(args.points.read_text(encoding="utf-8"))
    report = density_check(points, args.degree)
    write_reports(args.out_dir or DEFAULT_OUT_DIR, {"density.csv": density_report_csv(report)})
    print(
        f"rank {report.rank} of {report.monomial_count} monomials on "
        f"{report.point_count} points: {report.verdict}"
    )
    return EXIT_OK if report.dense else EXIT_ASSERTION_FAILED


def _cmd_degrees(args) -> int:
    f = map_from_json_dict(read_json(args.map))
    rows = dynamical_degree_sequence(f, n_max=args.nmax)
    write_reports(args.out_dir or DEFAULT_OUT_DIR, {"degrees.csv": degrees_csv(rows)})
    print(f"exact dynamical degree: {dynamical_degree_exact(f)}")
    for n, d, r in rows:
        print(f"n={n}: deg={d} root={r:.6f}")
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exit_:
        if not exit_.code:  # --help
            raise
        return EXIT_CONFIG
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "density":
            return _cmd_density(args)
        return _cmd_degrees(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except ResourceLimitError as err:
        print(f"resource cap exceeded: {err} {err.metadata}", file=sys.stderr)
        return EXIT_RESOURCE
    except (OverflowError, RecursionError) as err:
        # a float out of range or a recursion past Python's limit: the value
        # is valid but too large
        print(f"resource cap exceeded: {err}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, KeyError, OSError) as err:
        if isinstance(err, ValueError) and "integer string conversion" in str(err):
            # Python's cap on the digits of an int <-> str conversion
            # (sys.get_int_max_str_digits): the value is valid but too large.
            print(f"resource cap exceeded: {err}", file=sys.stderr)
            return EXIT_RESOURCE
        print(f"error: {err}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
