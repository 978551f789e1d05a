"""Output validation, independent of the bench layer's own bookkeeping.

`record_problems` checks what a TrialRecord claims; `rerun_problems`
re-runs the public entry point of the trial's algorithm on the trial's
own seeds and checks the matching it returns against the graph.
"""

from __future__ import annotations

import numpy as np

from streammatch import augmenter, bench, sparsifier, stream


def record_problems(algo: str, record, mu_g: int) -> list[str]:
    problems = []
    if not all(record.checks.values()):
        failed = sorted(k for k, ok in record.checks.items() if not ok)
        problems.append(f"structural checks failed: {failed}")
    if record.mu_g != mu_g:
        problems.append(f"record mu_g {record.mu_g} != set-up mu_g {mu_g}")
    if record.output_size > mu_g:
        problems.append(f"output {record.output_size} exceeds mu(G) {mu_g}")
    if algo == "greedy" and 2 * record.output_size < mu_g:
        problems.append(f"greedy output {record.output_size} below mu(G)/2")
    return problems


def rerun_problems(algo: str, config, g, mu_g: int, record) -> list[str]:
    stream_seed, algo_seed = bench.trial_seeds(config.seed, record.trial)
    s = stream.make_stream(g, stream_seed)
    if algo == "greedy":
        m = augmenter.greedy_match(s)
    elif algo == "bernstein":
        m = sparsifier.bernstein_match(s, config.params)
    else:
        m, _ = augmenter.beats23_match(s, config.params, np.random.default_rng(algo_seed))
    edges = list(m)
    problems = []
    if any(not g.has_edge(u, v) for u, v in edges):
        problems.append("re-run matching has an edge outside G")
    ends = [v for e in edges for v in e]
    if len(set(ends)) != len(ends):
        problems.append("re-run matching shares a vertex between edges")
    if len(edges) != record.output_size:
        problems.append(f"re-run size {len(edges)} != recorded {record.output_size}")
    if len(edges) > mu_g:
        problems.append(f"re-run size {len(edges)} exceeds mu(G) {mu_g}")
    if algo == "greedy" and 2 * len(edges) < mu_g:
        problems.append(f"re-run greedy size {len(edges)} below mu(G)/2")
    return problems
