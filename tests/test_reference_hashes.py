"""The benchmark's own outputs: at seed 1, and at seed 7, the second seed
that speed claims are re-checked on, each workload's trials of each
algorithm hash as perfbench/reference_hashes.json records, so a change
that alters any output the benchmark checks fails here first; and each
workload's trials take the H | U branch that its speed rests on. The
benchmark's modules and hash file are only read."""

import json

import pytest

from streammatch import bench, make_stream, run_sparsifier
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


@pytest.mark.parametrize("seed", [1, 7])
@pytest.mark.parametrize("workload, keeps_all", [
    ("dense-c10", True), ("pool-greedy", True), ("gadget-tight", False)])
def test_workload_hu_graph_is_g_only_where_every_edge_is_kept(seed, workload, keeps_all, tmp_path):
    # dense-c10 and pool-greedy's caps keep every edge, so every trial's
    # H | U is the instance graph, matched once for mu(G); gadget-tight's
    # caps drop edges, so its H | U is built
    workloads = _load("workloads")
    w = workloads.WORKLOADS[workload]
    inst = workloads.set_up(w, seed, tmp_path)
    for algo in ("bernstein", "beats23"):
        config = workloads.trial_config(w, inst, algo, seed)
        g = bench.load_instance(config)
        for i in range(config.trials):
            stream = make_stream(g, bench.trial_seeds(seed, i)[0])
            sp = run_sparsifier(stream, config.params)
            assert (sp.hu_graph is stream.graph) == keeps_all, (algo, i)
