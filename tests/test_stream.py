import itertools
import math

import numpy as np
import pytest

from streammatch import (
    EdgeStream,
    Graph,
    Phase,
    PhaseSplit,
    make_stream,
    phase1_cut,
    phase_map,
    sample_binomial,
    split_phases,
)
from util import random_bipartite
import random


def test_single_edge_stream():
    g = Graph(2, [(0, 1)])
    s = make_stream(g, 123)
    assert s.arrivals() == ((0, 1),)


@pytest.mark.parametrize(
    "order",
    [
        np.array([0, 1, 1, 3]),
        np.array([0, 1, 2, 4]),
        np.array([0, 1, 2]),
        np.array([[0, 1], [2, 3]]),
        np.array([0.0, 1.0, 2.0, 3.0]),
    ],
    ids=["duplicate", "out-of-range", "wrong-length", "2-d", "float"],
)
def test_edge_stream_rejects_non_permutation(order):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="permutation"):
        EdgeStream(g, order, seed=0)


@pytest.mark.parametrize(
    "order", [[2, 0, 3, 1], np.array([2, 0, 3, 1]), np.array([2, 0, 3, 1], dtype=np.uint32)],
    ids=["list", "numpy", "numpy-uint32"],
)
def test_edge_stream_accepts_permutation_as_python_ints(order):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    s = EdgeStream(g, order, seed=0)
    # numpy ints here would change pickled tasks and the reports' JSON
    assert s.order == (2, 0, 3, 1) and all(type(i) is int for i in s.order)
    assert s.arrivals() == ((2, 3), (0, 1), (3, 4), (1, 2))
    assert all(type(i) is int for i in make_stream(g, 3).order)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        make_stream(Graph(3), 0)


def test_same_seed_same_order():
    g = random_bipartite(random.Random(1), 6, 6, 0.5)
    assert make_stream(g, 99).order == make_stream(g, 99).order
    assert make_stream(g, 99).order != make_stream(g, 100).order


def test_every_edge_appears_once():
    g = random_bipartite(random.Random(2), 5, 5, 0.6)
    s = make_stream(g, 4)
    assert sorted(s.slice(1, len(s))) == sorted(g.edges)


def test_permutation_uniformity_m3():
    # 6000 seeded streams over a 3-edge graph: each of the 6 orderings
    # shows up with frequency 1/6 +- 0.02
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    counts = {perm: 0 for perm in itertools.permutations(range(3))}
    for seed in range(6000):
        counts[make_stream(g, seed).order] += 1
    for perm, c in counts.items():
        assert abs(c / 6000 - 1 / 6) < 0.02, (perm, c)


def test_slice_conventions():
    g = random_bipartite(random.Random(3), 4, 4, 0.7)
    s = make_stream(g, 5)
    m = len(s)
    assert s.slice(1, m) == s.arrivals()
    cut = phase1_cut(m, 0.3)
    assert s.slice(1, cut) == s.arrivals()[:cut]
    assert s.slice(3, 3) == (s.edge_at(3),)
    with pytest.raises(IndexError):
        s.slice(0, m)
    with pytest.raises(IndexError):
        s.slice(1, m + 1)


def test_sample_binomial_degenerate():
    rng = np.random.default_rng(0)
    assert sample_binomial(10, 0.0, rng) == 0
    assert sample_binomial(10, 1.0, rng) == 10
    assert sample_binomial(0, 0.5, rng) == 0


def test_sample_binomial_mean():
    # k=9000, p=2/3: mean of 100 samples within 6000 +- 3*sqrt(9000*2/9)
    rng = np.random.default_rng(42)
    samples = [sample_binomial(9000, 2 / 3, rng) for _ in range(100)]
    tol = 3 * math.sqrt(9000 * (2 / 3) * (1 / 3))
    assert abs(sum(samples) / 100 - 6000) < tol


def test_sample_binomial_validates():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_binomial(-1, 0.5, rng)
    with pytest.raises(ValueError):
        sample_binomial(5, 1.5, rng)


def test_phase1_cut_values():
    assert phase1_cut(2000, 0.05) == 100
    assert phase1_cut(10, 0.25) == 3
    assert phase1_cut(7, 0.3) == 3  # ceil(2.1)


def test_phase1_cut_rejects_tiny_streams():
    with pytest.raises(ValueError):
        phase1_cut(9, 0.1)  # needs at least ceil(1/eps) = 10 edges
    with pytest.raises(ValueError):
        phase1_cut(100, 0.0)
    with pytest.raises(ValueError):
        phase1_cut(100, 0.5)


def test_phase_split_partition():
    rng = np.random.default_rng(17)
    g = random_bipartite(random.Random(17), 8, 8, 0.6)
    s = make_stream(g, 17)
    split = split_phases(len(s), 0.2, 2 / 3, rng)
    phases = [split.phase_of(pos) for pos in range(1, len(s) + 1)]
    assert phases.count(Phase.I) == split.eps_cut == phase1_cut(len(s), 0.2)
    assert phases.count(Phase.IIA) == split.tau
    assert len(phases) == len(s)
    mapping = phase_map(s, split)
    assert len(mapping) == len(s)


def test_phase_split_validates():
    with pytest.raises(ValueError):
        PhaseSplit(m=10, eps_cut=11, tau=0)
    with pytest.raises(ValueError):
        PhaseSplit(m=10, eps_cut=2, tau=9)
    split = PhaseSplit(m=10, eps_cut=2, tau=3)
    with pytest.raises(IndexError):
        split.phase_of(11)


def test_per_edge_iia_frequency_matches_gamma():
    # conditioned on being in Phase II, each edge lands in II.A with
    # probability gamma: per-edge frequency within 3 sigma over 4000 trials
    gamma = 2 / 3
    g = random_bipartite(random.Random(23), 8, 8, 0.65)
    m = len(g.edges)
    trials = 4000
    in_phase2 = {e: 0 for e in g.edges}
    in_iia = {e: 0 for e in g.edges}
    for trial in range(trials):
        s = make_stream(g, 50_000 + trial)
        rng = np.random.default_rng(90_000 + trial)
        split = split_phases(m, 0.1, gamma, rng)
        for pos in range(split.eps_cut + 1, m + 1):
            e = s.edge_at(pos)
            in_phase2[e] += 1
            if split.phase_of(pos) is Phase.IIA:
                in_iia[e] += 1
    for e in g.edges:
        freq = in_iia[e] / in_phase2[e]
        sigma = math.sqrt(gamma * (1 - gamma) / in_phase2[e])
        assert abs(freq - gamma) <= 3 * sigma, (e, freq)
