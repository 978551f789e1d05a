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
        np.array([0, 1, 2, -1]),
        np.array([0, 1, 2]),
        np.array([[0, 1], [2, 3]]),
        np.array([0.0, 1.0, 2.0, 3.0]),
    ],
    ids=["duplicate", "out-of-range", "negative", "wrong-length", "2-d", "float"],
)
def test_edge_stream_rejects_non_permutation(order):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    with pytest.raises(ValueError, match="permutation"):
        EdgeStream(g, order)


@pytest.mark.parametrize(
    "order", [[2, 0, 3, 1], np.array([2, 0, 3, 1]), np.array([2, 0, 3, 1], dtype=np.uint32)],
    ids=["list", "numpy", "numpy-uint32"],
)
def test_edge_stream_keeps_permutation_as_int64_array(order):
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    s = EdgeStream(g, order)
    assert s.order.dtype == np.int64 and s.order.tolist() == [2, 0, 3, 1]
    assert not s.order.flags.writeable
    if isinstance(order, np.ndarray):
        order[0] = 3  # the stream holds its own copy
        assert s.order.tolist() == [2, 0, 3, 1]
    assert s.arrivals() == ((2, 3), (0, 1), (3, 4), (1, 2))


def test_arrivals_are_the_graphs_own_tuples():
    g = random_bipartite(random.Random(4), 8, 8, 0.4)
    s = make_stream(g, 11)
    # the stream keeps its permutation alone and gathers the arrivals'
    # tuples from the graph's object array when they are read
    assert EdgeStream.__slots__ == ("graph", "order", "_ends")
    arrivals = s.arrivals()
    assert all(arrivals[i] is g.edge_array[s.order[i]] for i in range(len(s)))
    assert s._ends is None
    index = np.array([4, 0, 7])
    assert all(e is arrivals[i] for e, i in zip(s.edges_at(index), index.tolist()))


def test_ends_are_the_slices_endpoints():
    g = random_bipartite(random.Random(5), 8, 8, 0.4)
    s = make_stream(g, 12)
    m = len(s)
    arrivals = s.arrivals()
    for a, b in [(1, m), (3, 9), (m + 1, m), (5, 4), (m, m)]:
        lows, highs = s.ends(a, b)
        assert lows.dtype == highs.dtype == np.int64
        assert list(zip(lows.tolist(), highs.tolist())) == list(arrivals[a - 1 : b])


def test_slice_conventions():
    # e_a..e_b for 1 <= a <= b + 1 <= m + 1: the whole stream, the Phase I
    # prefix, one arrival, and the empty ranges at either end
    g = random_bipartite(random.Random(3), 4, 4, 0.7)
    s = make_stream(g, 5)
    m = len(s)
    cut = phase1_cut(m, 0.3)
    arrivals = s.arrivals()

    def ends(a, b):
        lows, highs = s.ends(a, b)
        return tuple(zip(lows.tolist(), highs.tolist()))

    assert ends(1, m) == arrivals
    assert ends(1, cut) == arrivals[:cut]
    assert ends(3, 3) == (arrivals[2],)
    assert ends(1, 0) == ()
    assert ends(m + 1, m) == ()
    for a, b in [(0, m), (1, m + 1), (3, 1), (m + 2, m + 1)]:
        with pytest.raises(IndexError):
            s.ends(a, b)


def test_empty_graph_rejected():
    with pytest.raises(ValueError):
        make_stream(Graph(3), 0)


def test_same_seed_same_order():
    g = random_bipartite(random.Random(1), 6, 6, 0.5)
    assert np.array_equal(make_stream(g, 99).order, make_stream(g, 99).order)
    assert not np.array_equal(make_stream(g, 99).order, make_stream(g, 100).order)


def test_every_edge_appears_once():
    g = random_bipartite(random.Random(2), 5, 5, 0.6)
    s = make_stream(g, 4)
    assert sorted(s.arrivals()) == sorted(g.edges)


def test_permutation_uniformity_m3():
    # 6000 seeded streams over a 3-edge graph: each of the 6 orderings
    # shows up with frequency 1/6 +- 0.02
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    counts = {perm: 0 for perm in itertools.permutations(range(3))}
    for seed in range(6000):
        counts[tuple(make_stream(g, seed).order.tolist())] += 1
    for perm, c in counts.items():
        assert abs(c / 6000 - 1 / 6) < 0.02, (perm, c)


def test_sample_binomial_degenerate():
    rng = np.random.default_rng(0)
    assert sample_binomial(10, 0.0, rng) == 0
    assert sample_binomial(10, 1.0, rng) == 10
    assert sample_binomial(0, 0.5, rng) == 0


@pytest.mark.parametrize("k", [0, 1, 4095, 4096, 4097, 7554])
@pytest.mark.parametrize("p", [0.0, 2 / 3, 1.0])
def test_sample_binomial_matches_one_draw_at_a_time(k, p):
    for seed in (0, 1, 9):
        rng = np.random.default_rng(seed)
        ref = np.random.default_rng(seed)
        expected = sum(1 for _ in range(k) if ref.random() < p)
        assert sample_binomial(k, p, rng) == expected
        assert rng.random() == ref.random()


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
        for pos, e in enumerate(s.arrivals()[split.eps_cut:], split.eps_cut + 1):
            in_phase2[e] += 1
            if split.phase_of(pos) is Phase.IIA:
                in_iia[e] += 1
    for e in g.edges:
        freq = in_iia[e] / in_phase2[e]
        sigma = math.sqrt(gamma * (1 - gamma) / in_phase2[e])
        assert abs(freq - gamma) <= 3 * sigma, (e, freq)
