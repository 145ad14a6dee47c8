"""Tests of the benchmark itself (not part of the project's test suite).

    python3 -m pytest -q bench/selftest.py

They take about a minute: the count test runs three traced workloads twice.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SEEDED = ("sector_orbits", "density_rank", "modes_mix")
workloads.load_arithdyn()


def result_line(workload: str, seed: int, trace: int, cwd=workloads.ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("workload", ["sector_orbits", "degree_sequences", "density_rank"])
def test_traced_counts_repeat_exactly(workload):
    runs = []
    for _ in range(2):
        proc = result_line(workload, 11, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0
        runs.append({k: m["value"] for k, m in result["metrics"].items() if not k.endswith("_s")})
    assert runs[0] == runs[1]
    for name in ("maps.apply.calls", "qpoly.max_terms", "maps.max_coord_bits", "density.rational_rref.calls"):
        assert name in runs[0]


def test_corrupted_digest_is_counted(tmp_path, monkeypatch):
    ops = workloads.generate("density_rank", 4, tmp_path / "probe")
    expected = run.load_expected()
    expected[ops[0].key] = dict(expected[ops[0].key], sha256="0" * 64)
    monkeypatch.setattr(run, "load_expected", lambda: expected)
    record = run.measure("density_rank", 4, 0, False, tmp_path)
    assert record["failed"] == run.MIN_PASSES
    assert record["metrics"]["ok_rate"]["value"] == 0.5


def test_exception_fails_only_its_operation(tmp_path, monkeypatch):
    from arithdyn import cli
    from arithdyn.qpoly import ResourceLimitError

    ops = workloads.generate("degree_sequences", 0, tmp_path / "inputs")[:2]
    real_main = cli.main

    def flaky(argv):
        if argv[-3].endswith("map0.json"):
            raise ResourceLimitError("injected")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", flaky)
    _, _, failures = run.run_pass(ops, tmp_path, run.load_expected())
    assert len(failures) == 1 and "ResourceLimitError" in failures[0]


def test_tracer_restores_every_patch():
    from arithdyn import cli, experiments
    from arithdyn.qpoly import Polynomial

    before = (Polynomial.__mul__, Polynomial.__rmul__, experiments.orbit, cli.run_experiment)
    with tracing.Tracer():
        assert Polynomial.__rmul__ is not before[1]
        assert experiments.orbit is not before[2]
    assert (Polynomial.__mul__, Polynomial.__rmul__, experiments.orbit, cli.run_experiment) == before


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic_in_the_seed(workload, tmp_path):
    def made(seed, name):
        ops = workloads.generate(workload, seed, tmp_path / name)
        files = {p.name: p.read_bytes() for p in (tmp_path / name).iterdir()}
        return [op.key for op in ops], files

    assert made(7, "a") == made(7, "b")
    if workload in SEEDED:
        assert made(7, "a")[1] != made(8, "c")[1]


def test_benchmark_json_names_every_metric():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = result_line("sector_orbits", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
