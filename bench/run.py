"""arithdyn benchmark: one closed-loop client calling ``arithdyn.cli.main``.

    python3 bench/run.py --workload sector_orbits --seed 1 --seconds 20 --trace 0

Each pass runs every operation of the workload once, in process, with its
stdout and stderr captured and a fresh ``--out-dir``.  After the pass, each
operation's exit code and the sha256 of its output files are checked against
``expected.json``.  Passes repeat until ``--seconds`` have gone by (at least
``MIN_PASSES``).  Times are scaled by a reference computation timed between
stretches of work (see reference.py); unscaled times are kept beside them.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics.  The last line
of stdout is the result as JSON; a copy with the environment and the pass
times is written to ``.bench_out/``.  See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = workloads.ROOT
MIN_PASSES = 3
SETUP_PROBES = 7
STRETCH_S = 0.5
E2E_UNITS = {"setup_s": "s", "pass_p50_s": "s", "ok_rate": "ratio", "peak_rss_mb": "MB"}


def load_expected() -> dict:
    return json.loads((BENCH / "expected.json").read_text(encoding="utf-8"))


def output_digest(out_dir: Path) -> str:
    """sha256 over the names and bytes of every file the operation wrote."""
    h = hashlib.sha256()
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        h.update(f"{path.name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def call_cli(op: workloads.Operation, out_dir: Path) -> tuple:
    """(exit code or None, captured output) of one operation."""
    from arithdyn import cli

    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(["--out-dir", str(out_dir), *op.argv])
    except (Exception, SystemExit):
        # One failing operation must not end the run: it is counted.
        return None, sink.getvalue() + traceback.format_exc()
    return code, sink.getvalue()


def check(op, code, output, out_dir: Path, expected: dict) -> str | None:
    """Why the operation failed, or None if it matched its record."""
    want = expected.get(op.key)
    if want is None:
        return f"{op.key}: no recorded expectation"
    if code != want["exit"]:
        return f"{op.key}: exit {code}, expected {want['exit']}\n{output}"
    digest = output_digest(out_dir)
    if digest != want["sha256"]:
        return f"{op.key}: output digest {digest}, expected {want['sha256']}"
    return None


def run_pass(ops: list, work: Path, expected: dict, tracer=None) -> tuple:
    """One pass over ``ops``: (wall seconds, scaled seconds, failure messages).

    The reference is timed before the first operation, after the last, and
    after any operation that ends a stretch of at least ``STRETCH_S`` of work.
    Each stretch is scaled by the mean of the references around it; a pass
    that spans several seconds needs several, because the machine's speed
    drifts within it.
    """
    gc.collect()
    results = []
    wall = scaled = 0.0
    ref_before = reference.reference_seconds()
    start = perf_counter()
    for i, op in enumerate(ops):
        out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=work))
        if tracer is not None:
            tracer.begin_operation()
        code, output = call_cli(op, out_dir)
        results.append((op, code, output, out_dir))
        stretch = perf_counter() - start
        if stretch >= STRETCH_S or i == len(ops) - 1:
            ref_after = reference.reference_seconds()
            wall += stretch
            scaled += reference.scaled(stretch, (ref_before + ref_after) / 2)
            ref_before = ref_after
            start = perf_counter()
    failures = []
    for op, code, output, out_dir in results:
        failure = check(op, code, output, out_dir, expected)
        if failure is not None:
            failures.append(failure)
        if tracer is not None:
            tracer.out_bytes += sum(p.stat().st_size for p in out_dir.iterdir())
        shutil.rmtree(out_dir)
    return wall, scaled, failures


def measure_setup(workload: str, seed: int, work: Path) -> list:
    """(set-up seconds, reference seconds) of ``SETUP_PROBES`` fresh
    processes (see setup_probe.py)."""
    times = []
    for i in range(SETUP_PROBES):
        inputs = work / f"setup-{i}"
        proc = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed), str(inputs)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        setup, ref = proc.stdout.split()
        times.append((float(setup), float(ref)))
        shutil.rmtree(inputs)
    return times


def environment() -> dict:
    try:
        import gmpy2  # noqa: F401

        has_gmpy2 = True
    except ImportError:
        has_gmpy2 = False
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "gmpy2": has_gmpy2,
        "machine": platform.machine(),
    }


def measure(workload: str, seed: int, seconds: float, traced: bool, work: Path) -> dict:
    expected = load_expected()
    record: dict = {"workload": workload, "seed": seed, "trace": int(traced)}
    if not traced:
        setup_times = measure_setup(workload, seed, work)
        record["setup_times_s"] = setup_times
    workloads.load_arithdyn()
    ops = workloads.generate(workload, seed, work / "inputs")
    workloads.validate(ops)

    plain, scaled, traced_scaled, layer_passes, spans, failures = [], [], [], [], [], []
    attempted = 0
    min_passes = 1 if traced else MIN_PASSES
    start = perf_counter()
    while len(plain) < min_passes or perf_counter() - start < seconds:
        elapsed, elapsed_scaled, failed = run_pass(ops, work, expected)
        plain.append(elapsed)
        scaled.append(elapsed_scaled)
        failures += failed
        attempted += len(ops)
        if traced:
            with tracing.Tracer() as tracer:
                _, elapsed_scaled, failed = run_pass(ops, work, expected, tracer)
            traced_scaled.append(elapsed_scaled)
            layer_passes.append(tracer.metrics())
            spans.append(tracer.spans)
            failures += failed
            attempted += len(ops)

    record.update(
        attempted=attempted,
        failed=len(failures),
        failures=failures,
        pass_times_s=plain,
        pass_scaled_s=scaled,
        pass_p50_wall_s=statistics.median(plain),
    )
    if traced:
        metrics = tracing.combine(layer_passes)
        metrics["trace.overhead_s"] = statistics.median(traced_scaled) - statistics.median(scaled)
        units = tracing.metric_units()
        record["traced_pass_scaled_s"] = traced_scaled
        record["spans"] = spans
    else:
        record["setup_wall_s"] = statistics.median(t for t, _ in setup_times)
        metrics = {
            "setup_s": statistics.median(reference.scaled(t, ref) for t, ref in setup_times),
            "pass_p50_s": statistics.median(scaled),
            "ok_rate": 1 - len(failures) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = E2E_UNITS
    record["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    (ROOT / ".bench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".bench_work"))
    try:
        record = measure(args.workload, args.seed, args.seconds, bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record["environment"] = environment()

    out = ROOT / ".bench_out"
    out.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if "spans" in record:
        # One list of (name, start, end, parent index) per traced pass.
        (out / f"{name}-spans.json").write_text(json.dumps(record.pop("spans")), encoding="utf-8")
    (out / f"{name}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for failure in record["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    for key, metric in record["metrics"].items():
        print(f"{key} = {metric['value']:.6g} {metric['unit']}")
    wall = {k: round(record[k], 6) for k in ("pass_p50_wall_s", "setup_wall_s") if k in record}
    print(
        f"passes={len(record['pass_times_s'])} attempted={record['attempted']} "
        f"failed={record['failed']} unscaled={json.dumps(wall)} "
        f"env={json.dumps(record['environment'], sort_keys=True)}"
    )
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
