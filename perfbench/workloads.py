"""The benchmark's workloads.

Each workload fixes an input, the algorithm parameters and checks, a
worker count and how many trials one `run_trials` call runs, both by
algorithm. It builds the same `TrialConfig` that `match-bench run` would
build from the equivalent command line. Every workload runs all three
algorithms, so every end-to-end metric exists on every workload; the
batch sizes set where each workload spends its time.

Batches take a few seconds at most because the machine's speed is probed
between batches (see speed.py): the shorter the batch, the better the
probes on either side of it describe the speed it ran at; the longer it
is, the more distinct trials stand behind its latencies.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from streammatch import bench, graph, instances
from streammatch.bench import CheckConfig, GeneratorSpec, TrialConfig
from streammatch.sparsifier import params_with_betas

ALGOS = ("greedy", "bernstein", "beats23")

# --checks edcs,dichotomy:0.1,census --gamma 0.6667 --b 500 on every workload
CHECKS = CheckConfig(edcs=True, dichotomy_deltas=(0.1,), census=True)
GAMMA = 2.0 / 3.0
B = 500
# --gen bipartite-gnp --n 400 --p 0.05
C10_GEN = GeneratorSpec("bipartite-gnp", 400, 0.05)
# match-bench hard --trivial 60 --k 3: matched_base(60) with the trivial family
GADGET_SIDE = 60
GADGET_K = 3


@dataclass(frozen=True)
class Workload:
    name: str
    source: str  # "gnp": C10_GEN; "gadget": a saved parity-gadget instance
    eps: float
    beta_plus: float
    beta_minus: float
    workers: dict[str, int]  # run_trials max_workers, by algorithm
    batch: dict[str, int]  # trials per run_trials call, by algorithm

    @property
    def pooled(self) -> bool:
        return max(self.workers.values()) > 1


# Why these three: the augmenter's Phase II.B dominates dense-c10 on one
# worker (no pool); gadget-tight is the only input where the algorithms'
# ratios separate and the only one that runs the blossom oracle; in
# pool-greedy most of greedy's time goes to the process pool, because its
# trials compute for a few ms while each pickled task carries the whole
# ~145 KB graph. bernstein and beats23 ride along in pool-greedy on one
# worker, only so that it reports every metric.
ONE = {a: 1 for a in ALGOS}
TWO = {a: 2 for a in ALGOS}
WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-c10", "gnp", 0.05, 50, 45, workers=ONE,
                 batch={"greedy": 40, "bernstein": 12, "beats23": 6}),
        Workload("gadget-tight", "gadget", 0.45, 2, 1, workers=TWO,
                 batch={"greedy": 1000, "bernstein": 100, "beats23": 100}),
        Workload("pool-greedy", "gnp", 0.05, 50, 45, workers={**ONE, "greedy": 2},
                 batch={"greedy": 200, "bernstein": 8, "beats23": 3}),
    )
}


@dataclass(frozen=True)
class Instance:
    graph: graph.Graph
    mu_g: int
    gen: GeneratorSpec | None
    path: str | None


def set_up(w: Workload, seed: int, out_dir: Path) -> Instance:
    """Build or load the workload's instance and its exact mu(G).

    Module attributes are looked up at call time so that a traced pass
    sees these calls too.
    """
    if w.source == "gnp":
        gen, path = C10_GEN, None
        g = bench.load_instance(TrialConfig("greedy", gen=gen, seed=seed))
    else:
        # as `match-bench hard --seed <seed> --save-prefix P` writes P0.edges
        base = instances.matched_base(GADGET_SIDE)
        inst = instances.build_hard_instance(
            base, instances.trivial_family(base), GADGET_K, np.random.default_rng(seed)
        )
        gen, path = None, str(out_dir / f"{w.name}-seed{seed}.edges")
        instances.save_hard_instance(inst, path)
        g = bench.load_instance(TrialConfig("greedy", instance_path=path, seed=seed))
    return Instance(g, len(graph.max_matching(g)), gen, path)


def trial_config(w: Workload, inst: Instance, algo: str, seed: int) -> TrialConfig:
    params = None
    if algo != "greedy":
        params = params_with_betas(w.eps, w.beta_plus, w.beta_minus, GAMMA, B)
    return TrialConfig(
        algo=algo,
        gen=inst.gen,
        instance_path=inst.path,
        params=params,
        trials=w.batch[algo],
        seed=seed,
        checks=CHECKS,
    )


def stored_edges(algo: str, record) -> int | None:
    """The paper's space measure for one trial: |H|+|U| for bernstein and
    |H|+|U|+|T|+|M| for beats23."""
    if algo == "bernstein":
        return record.h_size + record.u_size
    if algo == "beats23":
        return record.h_size + record.u_size + record.t_size + record.m_size
    return None
