"""Record the expected exit code and output digest of every operation.

    python3 bench/record.py

Runs each distinct operation of every workload variant once and rewrites
``expected.json``.  Run it only on a build whose outputs are known to be
right; a change that alters output bytes on purpose records again and says so.
"""

import json
import shutil
import tempfile
from pathlib import Path

import run
import workloads


def main() -> None:
    work_root = workloads.ROOT / ".bench_work"
    work_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="record-", dir=work_root))
    workloads.load_arithdyn()
    expected = {}
    try:
        for workload in workloads.WORKLOADS:
            for variant in range(workloads.VARIANTS):
                for op in workloads.generate(workload, variant, work / "inputs"):
                    if op.key in expected:
                        continue
                    out_dir = Path(tempfile.mkdtemp(prefix="out-", dir=work))
                    code, output = run.call_cli(op, out_dir)
                    if code is None:
                        raise RuntimeError(f"{op.key} raised:\n{output}")
                    expected[op.key] = {"exit": code, "sha256": run.output_digest(out_dir)}
                    print(op.key, expected[op.key], flush=True)
                    shutil.rmtree(out_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    path = run.BENCH / "expected.json"
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
