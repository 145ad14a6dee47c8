"""Byte-identity guard: every output file of nine fixed configs, and the
``density`` subcommand's report on two point sets.

The run digests were recorded from the code before orbits were shared
between the checks of a pipeline, and the density digests from the code
before the mod-p rank certificate; refactors must leave every byte of every
report unchanged.  The run configs and their digests are ``CASES`` in
``corpus.py``, which ``test_orbit_tail.py`` reads too; a change that alters an
output on purpose must re-record the affected digests there and say why.
"""

import hashlib
import itertools
import json
from fractions import Fraction

import pytest

from corpus import CASES, DEGREES_E1, RATIONAL_DOC

from arithdyn.cli import main
from arithdyn.experiments import EXIT_ASSERTION_FAILED, EXIT_OK, ExperimentConfig, run_experiment


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_files_byte_identical(name, tmp_path):
    config, expected = CASES[name]
    run_experiment(ExperimentConfig(**config), tmp_path)
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in tmp_path.iterdir()
    }
    assert written == expected


def test_degrees_command_byte_identical_on_rational_map(tmp_path):
    doc = tmp_path / "map.json"
    doc.write_text(json.dumps(RATIONAL_DOC))
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "degrees", "--map", str(doc), "--nmax", "4"]) == EXIT_OK
    # degrees 3, 9, 27, 81: the same bytes as E1's degree table
    assert hashlib.sha256((out / "degrees.csv").read_bytes()).hexdigest() == DEGREES_E1


# 12 points at degree 2 (6 monomials): full rank.  10 points on
# x2 = x1^3 + x1 + 1 at degree 3 (10 monomials): rank 9, with the curve's
# equation as the kernel witness.
DENSITY_CASES = {
    "full_rank": (
        [(Fraction(a, 3), Fraction(b * b - a, 2)) for a, b in itertools.product(range(4), range(3))],
        2,
        EXIT_OK,
        "638ed0dbc0c3ec8300dcd41a63d7840d615588c0b0e48a276199fab54dca1f4b",
    ),
    "rank_deficient": (
        [(x, x**3 + x + 1) for x in (Fraction(k, 2) for k in range(-4, 6))],
        3,
        EXIT_ASSERTION_FAILED,
        "336751fa52351297b065f8ec4c9c0bfa0dd74578583661fdd6932f9fb4669160",
    ),
}


@pytest.mark.parametrize("name", sorted(DENSITY_CASES))
def test_density_report_byte_identical(name, tmp_path):
    points, degree, exit_code, digest = DENSITY_CASES[name]
    pts = tmp_path / "pts.csv"
    pts.write_text(
        "x1_num,x1_den,x2_num,x2_den\n"
        + "".join(f"{x.numerator},{x.denominator},{y.numerator},{y.denominator}\n" for x, y in points)
    )
    out = tmp_path / "out"
    assert main(["--out-dir", str(out), "density", "--points", str(pts), "--degree", str(degree)]) == exit_code
    assert hashlib.sha256((out / "density.csv").read_bytes()).hexdigest() == digest
