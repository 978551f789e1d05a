"""The benchmark's own outputs: at seed 1, and at seed 7, the second seed
that speed claims are re-checked on, each workload's trials of each
algorithm hash as perfbench/reference_hashes.json records, so a change
that alters any output the benchmark checks fails here first. The
benchmark's modules and hash file are only read."""

import json

import pytest

from streammatch import bench
from test_benchmark_contract import PERFBENCH, _load

CASES = [
    pytest.param(seed, workload, algo, id=f"{workload}-{algo}" + ("" if seed == 1 else f"-seed{seed}"))
    for seed in (1, 7)
    for workload in ("dense-c10", "gadget-tight", "pool-greedy")
    for algo in ("beats23", "bernstein", "greedy")
]


@pytest.mark.parametrize("seed, workload, algo", CASES)
def test_workload_hash_equals_reference(seed, workload, algo, tmp_path):
    workloads = _load("workloads")
    reference = json.loads((PERFBENCH / "reference_hashes.json").read_text(encoding="utf-8"))
    w = workloads.WORKLOADS[workload]
    inst = workloads.set_up(w, seed, tmp_path)
    report = bench.run_trials(workloads.trial_config(w, inst, algo, seed), max_workers=1)
    assert bench.canonical_hash(report) == reference[workload][str(seed)][algo]
