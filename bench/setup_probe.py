"""Set-up time of one workload, measured in a fresh process.

    python3 bench/setup_probe.py WORKLOAD SEED INPUT_DIR

Times importing arithdyn plus writing and validating the workload's inputs,
then one run of the reference computation, and prints both in seconds.
run.py starts several of these and reports the median scaled set-up time as
``setup_s``.
"""

import sys
from pathlib import Path
from time import perf_counter

import reference
import workloads


def main() -> None:
    workload, seed, inputs = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    start = perf_counter()
    workloads.load_arithdyn()
    workloads.validate(workloads.generate(workload, seed, inputs))
    setup = perf_counter() - start
    print(setup, reference.reference_seconds())


if __name__ == "__main__":
    main()
