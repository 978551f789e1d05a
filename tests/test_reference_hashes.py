"""The benchmark's own outputs: at seed 1, each workload's trials of each
algorithm hash as perfbench/reference_hashes.json records, so a change
that alters any output the benchmark checks fails here first. The
benchmark's modules and hash file are only read."""

import json

import pytest

from streammatch import bench
from test_benchmark_contract import PERFBENCH, _load

SEED = 1


@pytest.mark.parametrize("algo", ["greedy", "bernstein", "beats23"])
@pytest.mark.parametrize("workload", ["dense-c10", "gadget-tight", "pool-greedy"])
def test_workload_hash_equals_reference(workload, algo, tmp_path):
    workloads = _load("workloads")
    reference = json.loads((PERFBENCH / "reference_hashes.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[workload]
    inst = workloads.set_up(w, SEED, tmp_path)
    report = bench.run_trials(workloads.trial_config(w, inst, algo, SEED), max_workers=1)
    assert bench.canonical_hash(report) == reference[workload][str(SEED)][algo]
