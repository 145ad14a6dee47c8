"""Workload generators: every input file of every operation, made from a seed.

A workload is a list of operations.  Each operation is one argument vector
for ``arithdyn.cli.main``; the program sees only the config, map and point
files written here.  ``--seed`` picks one of ``VARIANTS`` input variants
(``seed % VARIANTS``), so that the exit code and output digest of every
operation the benchmark can run were recorded from a reference build (see
``record.py`` and ``expected.json``).

This module imports nothing from arithdyn at import time: the set-up probe
times that import itself.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VARIANTS = 32

E1 = ["x1^3+x2", "x2^2+1"]
SECOND_CASE_MAP = ["x1*x2+1", "x2^2"]

# The ten maps of the test corpus, copied so that the benchmark does not
# depend on the test suite.
CORPUS = [
    ["x1^2"],
    ["x1^3"],
    E1,
    SECOND_CASE_MAP,
    ["x1^2+x2", "x2"],
    ["x1^3+x2", "x2^3"],
    ["x1^2", "x2^3+x3", "x3^2"],
    ["x1^2+x3", "x2^2+x3", "x3^2"],
    ["x1^3", "x2^2+x3", "x3^2+1"],
    ["x1+x2", "x2+1"],
]


@dataclass(frozen=True)
class Operation:
    """One CLI call.  ``key`` names the operation and its inputs; it indexes
    the recorded expectations, so equal keys must mean equal outputs."""

    key: str
    argv: tuple


def load_arithdyn():
    """Import arithdyn from this checkout's ``src/``, never an installed copy."""
    src = ROOT / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import arithdyn

    where = Path(arithdyn.__file__).resolve().parent.parent
    if where != src:
        raise ImportError(f"arithdyn was imported from {where}, expected {src}")
    return arithdyn


def _map_doc(components: list) -> dict:
    return {"dimension": len(components), "components": components}


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return str(path)


def _write_points(path: Path, points: list) -> str:
    dim = len(points[0])
    header = ",".join(f"x{i}_num,x{i}_den" for i in range(1, dim + 1))
    rows = [",".join(f"{c.numerator},{c.denominator}" for c in p) for p in points]
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    return str(path)


def _run_op(key: str, inputs: Path, name: str, config: dict) -> Operation:
    return Operation(key, ("run", "--config", _write_json(inputs / name, config)))


def _sector_orbits(variant: int, inputs: Path) -> list:
    config = {"map": _map_doc(E1), "mode": "first_case", "n_max": 9, "samples": 12, "seed": variant}
    return [_run_op(f"sector_orbits/first_case/seed={variant}", inputs, "sector.json", config)]


def _degree_sequences(variant: int, inputs: Path) -> list:
    ops = []
    for idx, components in enumerate(CORPUS):
        path = _write_json(inputs / f"map{idx}.json", _map_doc(components))
        ops.append(Operation(f"degree_sequences/map{idx}", ("degrees", "--map", path, "--nmax", "5")))
    return ops


def _curve_points(variant: int, count: int) -> list:
    """Distinct rational points on x2 = x1^3 + x1 + 1, seeded."""
    rng = random.Random(f"curve:{variant}")
    xs: set = set()
    while len(xs) < count:
        xs.add(Fraction(rng.randint(-40, 40), rng.randint(1, 16)))
    return [(x, x**3 + x + 1) for x in sorted(xs)]


def _density_rank(variant: int, inputs: Path) -> list:
    arithdyn = load_arithdyn()
    e1 = arithdyn.triangular_map(E1)
    sector_points = arithdyn.sample_U(arithdyn.sector_config(e1), 120, variant)
    sets = [("sample_U", sector_points), ("curve", _curve_points(variant, 80))]
    return [
        Operation(
            f"density_rank/{name}/seed={variant}",
            ("density", "--points", _write_points(inputs / f"{name}.csv", points), "--degree", "6"),
        )
        for name, points in sets
    ]


def _modes_mix(variant: int, inputs: Path) -> list:
    # An odd 7-bit numerator keeps |x2|_2 > 1 and the orbit's size the same
    # for every variant.
    numerator = random.Random(f"second_case:{variant}").randrange(65, 128, 2)
    second = {
        "map": _map_doc(SECOND_CASE_MAP),
        "mode": "second_case_n2",
        "n_max": 17,
        "point": ["1", f"{numerator}/2"],
    }
    product = {
        "map": _map_doc(E1),
        "map_b": _map_doc(SECOND_CASE_MAP),
        "mode": "product",
        "n_max": 10,
        "point": ["1/256", "1/2", "1", "1/2"],
    }
    iterate = {
        "map": _map_doc(E1),
        "mode": "iterate_check",
        "iterate_power": 3,
        "n_max": 3,
        "point": ["1/256", "1/2"],
    }
    return [
        _run_op(f"modes_mix/second_case_n2/seed={variant}", inputs, "second.json", second),
        _run_op("modes_mix/product", inputs, "product.json", product),
        _run_op("modes_mix/iterate_check", inputs, "iterate.json", iterate),
    ]


_GENERATORS = {
    "sector_orbits": _sector_orbits,
    "degree_sequences": _degree_sequences,
    "density_rank": _density_rank,
    "modes_mix": _modes_mix,
}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, inputs: Path) -> list:
    """Write the inputs of ``workload`` for ``seed`` into ``inputs``."""
    inputs.mkdir(parents=True, exist_ok=True)
    return _GENERATORS[workload](seed % VARIANTS, inputs)


def validate(ops: list) -> None:
    """Read every generated input back through arithdyn's own loaders."""
    load_arithdyn()
    from arithdyn.experiments import ExperimentConfig
    from arithdyn.maps import map_from_json_dict, points_from_csv

    for op in ops:
        command, _, path = op.argv[:3]
        text = Path(path).read_text(encoding="utf-8")
        if command == "run":
            cfg = ExperimentConfig.from_json_file(path)
            for doc in (cfg.map, cfg.map_b):
                if doc is not None:
                    map_from_json_dict(doc)
        elif command == "degrees":
            map_from_json_dict(json.loads(text))
        else:
            points = points_from_csv(text)
            if len(set(points)) != len(points):
                raise ValueError(f"{path}: duplicate points")
