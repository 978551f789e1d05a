"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

import math
import random
import time

import numpy as np
import pytest

from streammatch import (
    CheckConfig,
    Graph,
    GeneratorSpec,
    Matching,
    Phase,
    TrialConfig,
    brute_force_matching_size,
    build_hard_instance,
    canonical_hash,
    check_dichotomy,
    check_edcs,
    classify_lucky,
    edge_key,
    gen_random,
    greedy_match,
    make_stream,
    matched_base,
    max_matching,
    mu_with_and_without_special,
    beats23_match,
    params_with_betas,
    path_census,
    removed_special_bound,
    run_sparsifier,
    run_trials,
    sample_binomial,
    trivial_family,
    xor_gadget,
)
from util import maximum_matchings, random_instance


def _report(num: int, name: str, detail: str = ""):
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: PASS{suffix}")


def test_c01_oracle_agreement():
    start = time.perf_counter()
    rnd = random.Random(10_001)
    mismatches = 0
    for _ in range(1000):
        g = random_instance(rnd, max_n=10)
        if len(max_matching(g)) != brute_force_matching_size(g):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 60.0
    _report(1, "oracle agreement", f"1000 graphs, {elapsed:.1f}s")


def test_c02_greedy_half_bound():
    rnd = random.Random(10_002)
    checked = 0
    trial = 0
    while checked < 500:
        trial += 1
        g = random_instance(rnd, max_n=24)
        if not g.edges:
            continue
        s = make_stream(g, 20_000 + trial)
        assert 2 * len(greedy_match(s)) >= len(max_matching(g))
        checked += 1
    _report(2, "greedy 1/2 bound", "500 instances")


def test_c03_edcs_invariants():
    g = gen_random("bipartite-gnp", 200, p=0.05, seed=30_001)
    params = params_with_betas(0.45, 12, 10)
    violations = 0
    for trial in range(100):
        s = make_stream(g, 30_100 + trial)
        sp = run_sparsifier(s, params)
        if not check_edcs(s, sp.h, sp.u_index, params).ok:
            violations += 1
    assert violations == 0
    _report(3, "sparsifier invariants", "100 trials, 0 violations")


def test_c04_dichotomy():
    deltas = (0.05, 0.1, 0.2)
    runs = []
    for i in range(100):
        runs.append((gen_random("bipartite-gnp", 100, p=0.05, seed=40_000 + i), True, i))
    for i in range(100):
        runs.append((gen_random("general-gnp", 200, p=0.02, seed=41_000 + i), False, i))
    violations = 0
    for g, bipartite, i in runs:
        params = (
            params_with_betas(0.3, 12, 10)
            if i % 2 == 0
            else params_with_betas(0.3, 40, 36)
        )
        s = make_stream(g, 42_000 + i + (0 if bipartite else 500))
        sp = run_sparsifier(s, params)
        mu_g = len(max_matching(g))
        if mu_g == 0:
            continue
        mu_h = len(max_matching(sp.h))
        hu = Graph(g.n, sorted(frozenset(sp.h.edges) | set(sp.stream.edges_at(sp.u_index))), g.bipartition)
        mu_hu = len(max_matching(hu))
        for delta in deltas:
            if not check_dichotomy(mu_g, mu_h, mu_hu, params.lam, delta, bipartite).holds:
                violations += 1
    assert violations == 0
    _report(4, "two-branch dichotomy", "200 runs x 3 deltas, 0 violations")


def test_c05_gadget_law_exhaustive():
    start = time.perf_counter()
    for k in (3, 5, 7):
        for code in range(1 << k):
            bits = [(code >> i) & 1 for i in range(k)]
            gadget = xor_gadget(bits)
            mu, best = maximum_matchings(gadget.graph)
            assert mu == brute_force_matching_size(gadget.graph)
            if gadget.parity == 0:
                assert mu == k
                assert len(best) == 1
                assert any(gadget.final in e for e in best[0])
            else:
                assert mu == k - 1
                assert any(
                    all(gadget.final not in e for e in m) for m in best
                )
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(5, "parity gadget law", f"k in 3,5,7 exhaustive, {elapsed:.1f}s")


def test_c06_hard_instance_bounds():
    n_side, k, r = 30, 3, 1
    base = matched_base(n_side)
    family = trivial_family(base)
    bound = removed_special_bound(n_side, r, k)
    rng = np.random.default_rng(60_001)
    mus = []
    for _ in range(100):
        inst = build_hard_instance(base, family, k=k, rng=rng)
        mu_g, mu_stripped = mu_with_and_without_special(inst)
        assert mu_stripped <= bound
        mus.append(mu_g)
    mean_mu = sum(mus) / len(mus)
    floor = bound + r / 2 - 3 * math.sqrt(r) / 2
    assert mean_mu >= floor
    _report(6, "hard-instance bounds", f"mean mu {mean_mu:.2f} >= {floor:.2f}")


@pytest.fixture(scope="module")
def beats23_runs():
    params = params_with_betas(0.1, 12, 10, b=500)
    runs = []
    for trial in range(100):
        if trial < 70:
            g = gen_random("bipartite-gnp", 100, p=0.05, seed=70_000 + trial)
        else:
            g = gen_random("general-gnp", 120, p=0.04, seed=70_000 + trial)
        s = make_stream(g, 71_000 + trial)
        out, diag = beats23_match(s, params, np.random.default_rng(72_000 + trial))
        runs.append((g, s, out, diag))
    return runs


def test_c07_augmentation_soundness(beats23_runs):

    for g, s, out, diag in beats23_runs:
        assert len(out) >= max(len(diag.m_aug), diag.mu_hu)
        assert len(diag.m_aug) == len(diag.m_h) + len(diag.applied)
        for applied in diag.applied:
            assert applied.length in (1, 3, 5)
            vs = applied.vertices
            arrival_edge = s.arrivals()[applied.arrival - 1]
            for i in range(0, len(vs) - 1, 2):
                e = edge_key(vs[i], vs[i + 1])
                assert diag.t.has_edge(*e) or e == arrival_edge
    _report(7, "augmentation soundness", "100 trials, 0 violations")


def test_c08_short_path_census_bound(beats23_runs):
    for g, s, out, diag in beats23_runs:
        suffix = Graph(g.n, s.arrivals()[diag.split.eps_cut:], g.bipartition)
        m_star = max_matching(suffix)
        census = path_census(m_star, diag.m_h)
        assert census.short_path_bound_holds
    _report(8, "short-path census bound", "100 trials, 0 violations")


def test_c09_lucky_rate_calibration():
    # census fixed once: 35 disjoint length-5 augmenting paths
    comps = 35
    m_h_edges, m_star_edges = [], []
    for c in range(comps):
        base = 6 * c
        m_h_edges += [(base + 1, base + 2), (base + 3, base + 4)]
        m_star_edges += [(base, base + 1), (base + 2, base + 3), (base + 4, base + 5)]
    n = 6 * comps
    census = path_census(Matching(n, m_star_edges), Matching(n, m_h_edges))
    assert census.counts[5] == comps >= 30
    edges = [edge_key(a, b) for w in census.walks for a, b in zip(w, w[1:])]
    gamma = 2 / 3
    rng = np.random.default_rng(90_001)
    trials = 1000
    lucky_total = 0
    for _ in range(trials):
        perm = rng.permutation(len(edges))
        tau = sample_binomial(len(edges), gamma, rng)
        phases = {
            edges[idx]: (Phase.IIA if rank < tau else Phase.IIB)
            for rank, idx in enumerate(perm)
        }
        lucky_total += classify_lucky(census, phases).lucky_counts[5]
    assert lucky_total == 5155  # exact for these seeded draws
    rate = lucky_total / (trials * comps)
    p = gamma * gamma * (1 - gamma)  # 4/27
    se = math.sqrt(p * (1 - p) / (trials * comps))
    assert abs(rate - p) <= 3 * se
    _report(9, "lucky-rate calibration", f"rate {rate:.4f} vs {p:.4f} +- {3 * se:.4f}")


def test_c10_paired_improvement():
    start = time.perf_counter()
    params = params_with_betas(0.05, 50, 45, gamma=2 / 3, b=500)
    base = dict(gen=GeneratorSpec("bipartite-gnp", 400, 0.05), trials=50, seed=100_001)
    greedy_report = run_trials(TrialConfig(algo="greedy", **base), max_workers=1)
    beats_report = run_trials(
        TrialConfig(algo="beats23", params=params, **base), max_workers=1
    )
    # identical base seed: trial i streams the same arrival order for both
    mean_beats = beats_report.aggregate.mean_ratio
    mean_greedy = greedy_report.aggregate.mean_ratio
    elapsed = time.perf_counter() - start
    assert mean_beats >= mean_greedy
    assert elapsed < 300.0
    _report(
        10,
        "paired improvement",
        f"beats23 {mean_beats:.4f} >= greedy {mean_greedy:.4f}, {elapsed:.0f}s",
    )


def test_c11_determinism_across_workers():
    cfg = TrialConfig(
        algo="beats23",
        gen=GeneratorSpec("bipartite-gnp", 50, 0.1),
        params=params_with_betas(0.1, 12, 10, b=8),
        trials=6,
        seed=110_001,
        checks=CheckConfig(edcs=True, dichotomy_deltas=(0.1,), census=True),
    )
    hashes = {canonical_hash(run_trials(cfg, max_workers=w)) for w in (1, 2, 8)}
    assert len(hashes) == 1
    _report(11, "deterministic reports", "workers 1/2/8 agree")
