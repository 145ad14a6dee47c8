"""Every benchmark input reads back through arithdyn's own loaders.

``bench/workloads.py`` writes the config, map and point files of every
benchmark operation, and its ``validate`` reads them back with
``ExperimentConfig``, ``map_from_json_dict`` and ``points_from_csv``.  A
stricter loader must never turn a benchmark operation into exit 4, so this
test runs ``validate`` on every workload's inputs for two seeds, and reads
each config's point strings, which ``validate`` leaves to the run.  Nothing
under ``bench/`` is changed.
"""

import pytest

from arithdyn.experiments import ExperimentConfig
from arithdyn.maps import as_point
from corpus import bench_workloads

workloads = bench_workloads()


@pytest.mark.parametrize("seed", [0, 31])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_workload_inputs_load(tmp_path, workload, seed):
    ops = workloads.generate(workload, seed, tmp_path)
    assert ops
    workloads.validate(ops)
    for command, _, path in (op.argv[:3] for op in ops):
        if command == "run":
            as_point(ExperimentConfig.from_json_file(path).point or [])
