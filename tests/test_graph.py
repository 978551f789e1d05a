import hashlib
import pickle
import random
from collections.abc import Sequence
from itertools import chain

import numpy as np
import pytest

import streammatch.graph as graph_module
from streammatch import (
    Graph,
    Matching,
    NotAugmentingError,
    augmenter,
    beats23_match,
    brute_force_matching_size,
    build_hard_instance,
    edge_key,
    gen_random,
    make_stream,
    matched_base,
    max_matching,
    params_with_betas,
    phase1_cut,
    read_edge_list,
    run_sparsifier,
    trivial_family,
)
from streammatch.graph import (
    MAX_VERTICES,
    _ends_of,
    _graph_of_canonical,
    _blossom,
    _hopcroft_karp,
    _lacking,
    _rows,
    _vertex_ints,
    _write_edges,
)
from util import (
    apply_augmenting_path,
    checked_walk,
    exists_augmenting,
    find_augmenting_path,
    partner_dict,
    random_bipartite,
    random_general,
    random_instance,
    random_matched_graphs,
    reference_augment,
    reference_augmenting_path,
    reference_blossom,
    reference_fill,
    reference_hopcroft_karp,
)


# ---------------------------------------------------------------------------
# construction and invariants


@pytest.mark.parametrize(
    "n, edges, bipartition, message",
    [
        (3, [(1, 1)], None, "self-loop at vertex 1"),
        (3, [(0, 1), (1, 0)], None, "parallel edge (0, 1)"),
        (2, [(0, 2)], None, "edge (0, 2) out of range for n=2"),
        # the first offending edge in input order wins, whatever its kind
        (3, [(0, 1), (2, 2), (1, 0)], None, "self-loop at vertex 2"),
        (3, [(2, 1), (0, 1), (1, 2), (0, 0)], None, "parallel edge (1, 2)"),
        (3, [(0, 1), (3, 0), (1, 1)], None, "edge (3, 0) out of range for n=3"),
        (3, [(0, 2), (-1, 1), (2, 0)], None, "edge (-1, 1) out of range for n=3"),
        (3, [(1, 2), (5, 5), (-1, 0)], None, "self-loop at vertex 5"),
        (4, [(2, 0), (3, 1), (3, 2), (1, 0)], (range(2), range(2, 4)),
         "edge (2, 3) does not cross the bipartition"),
    ],
    ids=["self-loop", "parallel", "out-of-range", "mixed-self-loop", "mixed-parallel",
         "mixed-out-of-range", "mixed-negative", "self-loop-before-range", "not-crossing"],
)
def test_graph_rejects_first_bad_edge(n, edges, bipartition, message):
    with pytest.raises(ValueError) as exc:
        Graph(n, edges, bipartition)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "edges, message",
    [
        ([(0, 1), (2, 2**70)], f"edge (2, {2**70}) out of range for n=3"),
        ([(0, 1), (1.5, 2), (1, 1)], "edge (1.5, 2) has an end that is not an integer"),
        ([(0, 1), (1, "2")], "edge (1, '2') has an end that is not an integer"),
    ],
    ids=["beyond-int64", "float", "string"],
)
def test_graph_rejects_ends_that_no_int64_holds(edges, message):
    # numpy alone would wrap, truncate or parse these
    with pytest.raises(ValueError) as exc:
        Graph(3, edges)
    assert str(exc.value) == message


@pytest.mark.parametrize("n", [MAX_VERTICES + 1, 2**63, 10**20])
def test_graph_rejects_vertex_count_above_int64_codes(n):
    # checked before anything of size n is allocated
    with pytest.raises(ValueError, match=f"vertex count {n} is above the limit of {MAX_VERTICES}"):
        Graph(n, [(0, 1)])


def _fill_cases():
    yield 0, [], None
    yield 4, [], None  # no edges
    yield 7, [(5, 2), (0, 6), (2, 0)], None  # isolated vertices, unsorted, (v, u) order
    yield 6, [(4, 1), (3, 0)], (range(3), range(3, 6))
    rnd = random.Random(14)
    for _ in range(30):
        for g in (random_general(rnd, rnd.randint(1, 40), rnd.choice([0.05, 0.2, 0.6])),
                  random_bipartite(rnd, rnd.randint(1, 20), rnd.randint(1, 20), 0.3)):
            edges = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
            rnd.shuffle(edges)
            yield g.n, edges, g.bipartition


def test_fill_equals_reference_fill():
    for n, edges, bipartition in _fill_cases():
        canonical = [edge_key(u, v) for u, v in edges]
        adj = reference_fill(n, edges)
        g = Graph(n, edges, bipartition)
        assert g.adj == adj and g.edges == tuple(canonical)
        lows, highs = g.endpoints
        assert lows.tolist() == [u for u, _ in canonical]
        assert highs.tolist() == [v for _, v in canonical]
        same = _graph_of_canonical(n, g.endpoints, g.bipartition)
        assert same.adj == adj and same.edges == g.edges
        assert same.endpoints is g.endpoints and same == g
        edge_set = set(canonical)
        assert not _lacking(g, *g.endpoints).any()
        for u in range(-1, n + 1):
            for v in range(n):
                assert g.has_edge(u, v) == ((u, v) in edge_set or (v, u) in edge_set)


def test_lacking_equals_edge_set_reference():
    # every pair u < v of each graph, those that end at vertex n - 1
    # among them, against the edge set; the codes Graph keeps from its
    # duplicate check equal those a `_graph_of_canonical` graph builds on
    # first read from the same ends
    present = absent = 0
    at_last = [0, 0]  # pairs at vertex n - 1: present, absent
    for n, edges, bipartition in _fill_cases():
        g = Graph(n, edges, bipartition)
        edge_set = {edge_key(u, v) for u, v in edges}
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        lows, highs = _ends_of(pairs)
        want = [e not in edge_set for e in pairs]
        same = _graph_of_canonical(n, g.endpoints, g.bipartition)
        assert same._codes is None
        for h in (g, same):
            assert _lacking(h, lows, highs).tolist() == want
        assert same.codes.dtype == np.int64 and np.array_equal(same.codes, g.codes)
        assert g._adj is None and same._adj is None  # no rows were built
        present += want.count(False)
        absent += want.count(True)
        for (_, v), lacked in zip(pairs, want):
            if v == n - 1:
                at_last[lacked] += 1
    assert present > 1000 and absent > 1000 and min(at_last) > 50
    empty = Graph(5, [])
    assert _lacking(empty, *_ends_of([(0, 1), (3, 4)])).tolist() == [True, True]
    assert _lacking(empty, *_ends_of([])).tolist() == []


def test_fill_holds_one_int_object_per_vertex():
    # above 256 vertices, whose ints CPython does not cache on its own
    g = random_general(random.Random(15), 300, 0.03)
    flipped = Graph(g.n, [(v, u) for u, v in g.edges])
    same = _graph_of_canonical(g.n, g.endpoints)
    seen: dict[int, int] = {}
    for graph in (g, flipped, same):
        for w in chain(chain.from_iterable(graph.adj), chain.from_iterable(graph.edges)):
            assert seen.setdefault(w, w) is w
    assert len(seen) > 256


def test_graph_adjacency_consistent():
    g = Graph(4, [(2, 0), (1, 2), (2, 3)])
    assert g.edges == ((0, 2), (1, 2), (2, 3))
    assert g.adj[2] == (0, 1, 3)
    assert tuple(map(len, g.adj)) == (1, 1, 3, 1)


def test_bipartition_must_cross():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1)], (range(2), range(2, 4)))
    g = Graph(4, [(0, 2), (1, 3)], (range(2), range(2, 4)))
    assert g.bipartition is not None
    flipped = Graph(4, [(2, 0), (3, 1)], (range(2), range(2, 4)))
    assert flipped == g and flipped.edges == g.edges and flipped.adj == g.adj


def test_matching_rejects_shared_vertex():
    m = Matching(3, [(0, 1)])
    with pytest.raises(ValueError):
        m.add(1, 2)


def test_matching_partner_involution():
    m = Matching(6, [(0, 1), (2, 5)])
    mate = m.mate
    for v in range(6):
        assert mate[v] < 0 or mate[mate[v]] == v
    assert mate == [1, 0, 5, -1, -1, 2]


def test_matching_guards_vertices_outside_the_mate_list():
    # mate[-1] would read the last vertex, which is matched here
    m = Matching(4, [(1, 3)])
    assert (3, 1) in m and (1, 3) in m
    for u, v in ((-1, 1), (-3, 3), (4, 1), (0, -1), (2, -1), (1, 4)):
        assert (u, v) not in m
    for v in (-1, 4):
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
            m.is_matched(v)
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
            m.add(0, v)
        with pytest.raises(ValueError, match=f"vertex {v} out of range for n=4"):
            m.add(v, 2)
        with pytest.raises(NotAugmentingError, match=f"vertex {v} out of range"):
            m.augment([v, 0])
    assert m.mate == [-1, 3, -1, 1] and len(m) == 1
    with pytest.raises(ValueError, match="vertex 0 out of range for n=0"):
        Matching(0, [(0, 1)])
    assert len(Matching(0)) == 0 and list(Matching(0)) == []


def test_checked_walk_requires_adjacent_distinct_vertices():
    # the walk check that the test references put their paths through
    with pytest.raises(ValueError, match="at least two"):
        checked_walk([0], [(0, 1)])
    with pytest.raises(ValueError, match="not adjacent"):
        checked_walk([0, 1, 2], [(0, 1)])
    with pytest.raises(ValueError, match="distinct"):
        checked_walk([0, 1, 0], [(0, 1)])
    g = Graph(4, [(1, 0), (2, 1), (2, 3)])
    with pytest.raises(ValueError, match="not adjacent"):
        checked_walk([0, 1, 3], frozenset(g.edges))
    with pytest.raises(ValueError, match="distinct"):
        checked_walk([0, 1, 2, 1], frozenset(g.edges))
    assert checked_walk([3, 2, 1, 0], frozenset(g.edges)) == (3, 2, 1, 0)


# ---------------------------------------------------------------------------
# exact oracles


def test_max_matching_four_cycle():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert len(max_matching(g)) == 2


def test_max_matching_star():
    g = Graph(6, [(0, i) for i in range(1, 6)])
    assert len(max_matching(g)) == 1


def test_brute_force_triangle():
    assert brute_force_matching_size(Graph(3, [(0, 1), (1, 2), (0, 2)])) == 1


def test_brute_force_empty_graph():
    assert brute_force_matching_size(Graph(5)) == 0


def test_brute_force_k33():
    g = random_bipartite(random.Random(0), 3, 3, 1.1)  # p > 1: complete
    assert brute_force_matching_size(g) == 3


def test_brute_force_rejects_large():
    with pytest.raises(ValueError):
        brute_force_matching_size(Graph(17))


def test_oracle_agreement_random_sweep():
    rnd = random.Random(2024)
    for _ in range(300):
        g = random_instance(rnd, max_n=10)
        assert len(max_matching(g)) == brute_force_matching_size(g)


# SHA-256 of sorted(max_matching(g).edges) over _golden_matching_graphs().
# Report hashes hold only matching sizes; this pins which maximum matching
# the oracles pick. Re-record it only for a change meant to alter that.
GOLDEN_MATCHINGS = "482f9053d1ba3dddfbfbc50178ef011d21230e6a091d24fb7afdf025cf2e7d28"


def _edcs_tight_like(rnd, k, p, keep):
    """Perfect matchings A_i-B_i and C_2j-C_2j+1 plus each A-C pair w.p. p
    on 3k vertices, then each edge kept w.p. keep: a dense general graph
    whose maximum matching leaves many vertices free, so the blossom
    search contracts often (268 and 394 contractions for k=100, seeds 0
    and 1)."""
    edges = [(i, k + i) for i in range(k)] + [(2 * k + j, 2 * k + j + 1) for j in range(0, k, 2)]
    edges += [(i, 2 * k + j) for i in range(k) for j in range(k) if rnd.random() < p]
    return Graph(3 * k, [e for e in edges if rnd.random() < keep])


def _gadget_runs():
    """(parity-gadget instance, its sparsifier run) pairs; the instances'
    left sides are not a prefix."""
    params = params_with_betas(0.45, 2, 1, 2.0 / 3.0, 500)
    for side, seed in ((20, 0), (20, 1), (60, 2)):
        base = matched_base(side)
        g = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(seed)).graph
        yield g, run_sparsifier(make_stream(g, seed), params)


def _golden_matching_graphs():
    """200 seeded sparse random general graphs (20 <= n <= 80, mean degree
    2 to 6: a few of them change matching if blossom members are queued
    in another order), two contraction-heavy dense general graphs, then
    parity-gadget instances with the H and H | U their sparsifier keeps."""
    rnd = random.Random(77)
    for _ in range(200):
        n = rnd.randint(20, 80)
        yield random_general(rnd, n, rnd.choice([2, 3, 4, 6]) / n)
    for seed in (0, 1):
        yield _edcs_tight_like(random.Random(seed), 100, 0.4, 0.5)
    for g, sp in _gadget_runs():
        yield g
        yield sp.h
        yield Graph(g.n, sp.hu_graph.edges)  # untagged: the blossom oracle runs


def test_max_matching_golden_edges():
    digest = hashlib.sha256()
    for g in _golden_matching_graphs():
        digest.update(repr(sorted(max_matching(g).edges)).encode())
    assert digest.hexdigest() == GOLDEN_MATCHINGS


def _blossom_reference_graphs():
    """3,000 seeded sparse general graphs (4 <= n <= 60, mean degree 1 to
    6), the parity-gadget instances with their H and H | U, and, on one
    edcs-tight-like graph (k = 100, p = 0.4), H, H | U and M | H | U of
    beats23 trials at caps 4/3 and 12/11."""
    rnd = random.Random(2027)
    for _ in range(3000):
        n = rnd.randint(4, 60)
        pairs = (edge_key(*rnd.sample(range(n), 2)) for _ in range(n * rnd.randint(1, 6) // 2))
        yield Graph(n, sorted(set(pairs)))
    for g, sp in _gadget_runs():
        yield from (g, sp.h, sp.hu_graph)
    g = _edcs_tight_like(random.Random(3), 100, 0.4, 1.0)
    for caps in ((4, 3), (12, 11)):
        params = params_with_betas(0.49, *caps, 2.0 / 3.0, 500)
        for seed in (0, 1):
            _, diag = beats23_match(make_stream(g, seed), params, np.random.default_rng(seed))
            hu = diag.sparsifier.hu_graph
            yield from (diag.sparsifier.h, hu, Graph(g.n, sorted(set(hu.edges) | diag.m_aug.edges)))


def test_blossom_equals_reference():
    # the pruned search skips the trees of failed searches, which the
    # reference explores again from every later root; most graphs here
    # have such a tree
    failed = 0
    for g in _blossom_reference_graphs():
        mate = _blossom(g.n, g.adj)
        assert mate == reference_blossom(g.n, g.adj)
        failed += any(m == -1 and row for m, row in zip(mate, g.adj))
    assert failed > 1500


def _shuffled_bipartite(rnd, n, p):
    """Bipartite graph on n vertices whose left side is a random subset,
    not a prefix. About a fifth of the vertices, on either side, get no
    edge; the rest get each cross pair w.p. p, handed to `Graph`
    shuffled and in either orientation."""
    order = list(range(n))
    rnd.shuffle(order)
    cut = rnd.randint(0, n)
    left, right = order[:cut], order[cut:]
    isolated = {v for v in range(n) if rnd.random() < 0.2}
    edges = [(u, v) if rnd.random() < 0.5 else (v, u) for u in left for v in right
             if u not in isolated and v not in isolated and rnd.random() < p]
    rnd.shuffle(edges)
    return Graph(n, edges, (left, right))


def _dense_c10_matching_graphs(seeds):
    """The three bipartite graphs that a dense-c10 bernstein trial matches
    exactly, per stream seed: H, H | U and the census's Phase II suffix."""
    g = gen_random("bipartite-gnp", 400, 0.05, seed=1)
    params = params_with_betas(0.05, 50, 45, 2.0 / 3.0, 500)
    for seed in seeds:
        stream = make_stream(g, seed)
        sp = run_sparsifier(stream, params)
        cut = phase1_cut(len(stream), params.eps)
        yield sp.h
        yield sp.hu_graph
        yield Graph(g.n, stream.arrivals()[cut:], g.bipartition)


def test_hopcroft_karp_equals_reference():
    # Here a DFS meets a vertex whose free neighbour an earlier path of the
    # same phase took, and goes on to that vertex's later neighbours: the
    # BFS must have scanned every edge of the layer that first saw a free
    # vertex. About 1 in 10,000 of the random graphs below is like it.
    left = [2, 7, 8, 9, 10, 12, 13, 15]
    graphs = [Graph(16, [(2, 4), (7, 11), (11, 15), (1, 2), (0, 8), (0, 9), (1, 10), (6, 7),
                         (3, 10), (13, 14), (5, 7), (6, 8), (4, 13), (5, 12), (14, 15), (3, 12)],
                    (left, [v for v in range(16) if v not in left]))]
    rnd = random.Random(2026)
    graphs += [_shuffled_bipartite(rnd, rnd.randint(0, 60), 0.02 * 45 ** rnd.random())
               for _ in range(2000)]
    for g, sp in _gadget_runs():
        graphs += [g, sp.h, sp.hu_graph]  # all bipartite-tagged
    graphs += _dense_c10_matching_graphs((1, 2, 3))
    for g in graphs:
        left = sorted(g.bipartition[0])
        assert _hopcroft_karp(g.n, g.adj, left) == reference_hopcroft_karp(g.n, g.adj, left)


# SHA-256 of sorted(max_matching(g).edges) over _golden_hk_graphs(), which
# are all bipartite-tagged: pins which maximum matching Hopcroft-Karp picks.
# Re-record it only for a change meant to alter that.
GOLDEN_HK_MATCHINGS = "652afbd14d526fa0269b08ca03799e6dbc17612b4e231622e80760c55a249a20"


def _golden_hk_graphs():
    """300 seeded small bipartite graphs, a sparse H-like graph (800
    vertices, about 400 edges, most vertices isolated) and the three
    exactly matched graphs of one dense-c10 stream."""
    rnd = random.Random(78)
    for _ in range(300):
        yield _shuffled_bipartite(rnd, rnd.randint(0, 60), rnd.choice([0.02, 0.05, 0.1, 0.3, 0.9]))
    yield gen_random("bipartite-gnp", 400, 0.0025, seed=16)
    yield from _dense_c10_matching_graphs((1,))


def test_hopcroft_karp_golden_edges():
    digest = hashlib.sha256()
    for g in _golden_hk_graphs():
        assert g.bipartition is not None
        digest.update(repr(sorted(max_matching(g).edges)).encode())
    assert digest.hexdigest() == GOLDEN_HK_MATCHINGS


def test_rows_are_built_on_first_read_of_adj():
    # both builders store the endpoint arrays alone; the first read of adj
    # builds the rows, equal to the reference fill, and keeps them
    for n, edges, bipartition in _fill_cases():
        checked = Graph(n, edges, bipartition)
        g = _graph_of_canonical(n, checked.endpoints, checked.bipartition)
        for graph in (checked, g):
            assert graph.edges == checked.edges and graph.m == len(edges)
            assert graph._adj is None
        adj = g.adj
        assert adj == reference_fill(n, edges) and g.adj is adj and g._adj is adj


def test_left_rows_equal_adj_rows_and_give_the_same_mates():
    # Hopcroft-Karp reads left rows only: the left rows max_matching
    # builds are adj's, an empty row stands for every right vertex, and
    # the mates over either are equal, as are max_matching's whether or
    # not adj was read first
    rnd = random.Random(2028)
    graphs = [_shuffled_bipartite(rnd, rnd.randint(0, 60), 0.02 * 45 ** rnd.random())
              for _ in range(2000)]
    graphs.append(gen_random("bipartite-gnp", 200, 0.02, seed=3))  # above 256 vertices
    for g in graphs:
        left = sorted(g.bipartition[0])
        rows = _rows(g, left)
        assert g._adj is None
        adj = g.adj
        assert rows == tuple(adj[v] if v in g.bipartition[0] else () for v in range(g.n))
        vertex = _vertex_ints(g.n)
        assert all(w is vertex[w] for w in chain.from_iterable(rows))
        assert _hopcroft_karp(g.n, rows, left) == _hopcroft_karp(g.n, adj, left)
        unread = _graph_of_canonical(g.n, g.endpoints, g.bipartition)
        assert max_matching(unread) == max_matching(g) and unread._adj is None


def _assert_same_graph(got, want):
    assert got.n == want.n
    assert len(got.edges) == len(want.edges) and set(got.edges) == set(want.edges)
    assert got.adj == want.adj
    assert got.bipartition == want.bipartition


def test_graph_keeps_endpoints_and_builds_tuples_on_first_read():
    rnd = random.Random(6)
    g = random_general(rnd, 30, 0.2)
    # the endpoint arrays and the edge count are set at construction, the
    # object array of tuples on first read
    assert g._edge_array is None
    lows, highs = g.endpoints
    assert lows.dtype == highs.dtype == np.int64 and g.m == len(lows) > 0
    edges = g.edges
    assert list(zip(lows.tolist(), highs.tolist())) == list(edges)
    assert all(a is b for a, b in zip(g.edge_array, edges)) and len(g.edge_array) == g.m
    # every read of `edges` hands out the object array's own tuples
    assert g.edges == edges and all(a is b for a, b in zip(g.edge_array, g.edges))
    # a pickled copy carries the endpoints, leaves the caches out and
    # builds equal tuples and object array again
    copy = pickle.loads(pickle.dumps(g))
    assert copy._edge_array is None and copy._mate is None
    assert [a.tolist() for a in copy.endpoints] == [lows.tolist(), highs.tolist()]
    assert copy == g and copy.edges == edges and copy.edge_array.tolist() == list(edges)
    empty = Graph(3)
    assert empty.m == 0 and empty.edges == () and len(empty.edge_array) == 0
    # graphs compare and hash by their sorted adjacency: the edge order
    # and the orientation of each pair do not matter
    for h in (random_general(rnd, 40, 0.1), random_bipartite(rnd, 12, 15, 0.3)):
        pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in h.edges]
        rnd.shuffle(pairs)
        other = Graph(h.n, pairs, h.bipartition)
        assert other.edges != h.edges and other == h and hash(other) == hash(h)
        assert Graph(h.n, h.edges[1:], h.bipartition) != h


def test_beats23_trial_builds_no_tuples_for_its_own_graphs(monkeypatch):
    # at gadget-tight's caps H | U is not G, and M | H | U is built; none
    # of T, H | U and M | H | U is read as tuples
    graph_plus = augmenter._graph_plus
    plus_graphs = []

    def recorded(*args):
        plus_graphs.append(graph_plus(*args))
        return plus_graphs[-1]

    monkeypatch.setattr(augmenter, "_graph_plus", recorded)
    base = matched_base(60)
    g = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(1)).graph
    params = params_with_betas(0.45, 2, 1)
    for seed in range(10):
        stream = make_stream(g, seed)
        _, diag = augmenter.beats23_match(stream, params, np.random.default_rng(seed))
        hu = diag.sparsifier.hu_graph
        assert hu is not g and diag.t.m > 0
        for graph in (diag.t, hu, *plus_graphs):
            assert graph._edge_array is None
    assert plus_graphs  # M | H | U was built


def test_max_matching_keeps_its_mate_array_and_returns_fresh_matchings():
    rnd = random.Random(9)
    for g in (random_bipartite(rnd, 15, 15, 0.1), random_general(rnd, 30, 0.06)):
        assert g._mate is None
        first = max_matching(g)
        mate = g._mate
        second = max_matching(g)
        assert g._mate is mate is not None
        assert first == second and first is not second
        # a caller that changes its matching leaves every other call's alone
        u, v = [x for x in range(g.n) if not first.is_matched(x)][:2]
        first.augment([u, v])
        assert len(first) == len(second) + 1
        assert max_matching(g) == second and (u, v) not in second
        # a pickled copy leaves the mate array out; it and a graph rebuilt
        # from the same edges, in another order, give the same matching
        copy = pickle.loads(pickle.dumps(g))
        assert copy._mate is None
        rebuilt = Graph(g.n, list(reversed(g.edges)), g.bipartition)
        assert max_matching(copy).edges == max_matching(rebuilt).edges == second.edges


@pytest.mark.parametrize("kind", ["bipartite", "general"])
def test_hu_graph_equals_validated_graph(kind):
    # H | U equals the graph Graph builds from the sorted union, and has
    # its maximum matching: built unvalidated when tight caps drop edges,
    # and the stream's own graph when the caps lie above H's degrees (at
    # eps 0.1 the prefix is short) and every edge is kept
    rnd = random.Random(kind)
    for keeps_all, params in ((False, params_with_betas(0.4, 4, 3, b=3)),
                              (True, params_with_betas(0.1, 8, 6, b=3))):
        for seed in range(6):
            if kind == "bipartite":
                g = random_bipartite(rnd, 25, 25, 0.2)
            else:
                g = random_general(rnd, 50, 0.12)
            stream = make_stream(g, seed)
            sp = run_sparsifier(stream, params)
            hu = sp.hu_graph
            assert sp.hu_graph is hu
            assert (hu is stream.graph) == keeps_all
            union = Graph(g.n, sorted(frozenset(sp.h.edges) | set(sp.stream.edges_at(sp.u_index))), g.bipartition)
            _assert_same_graph(hu, union)
            assert max_matching(hu).edges == max_matching(union).edges


def test_matching_from_mate_array_equals_added_edges():
    rnd = random.Random(8)
    for _ in range(50):
        g = random_general(rnd, rnd.randint(2, 30), 0.2)
        m = max_matching(g)
        mate = [-1] * g.n
        for u, v in m.edges:
            mate[u], mate[v] = v, u
        expected = Matching(g.n)
        for v in range(g.n):
            if mate[v] > v:
                expected.add(v, mate[v])
        assert m == expected
        assert m.mate == expected.mate == mate
        assert len(m) == len(expected) == sum(w >= 0 for w in mate) // 2


def test_blossom_odd_cycle_with_tail():
    # triangle 0-1-2 plus tail 1-3: the greedy start matches 0=1, so the
    # size-2 matching needs the search from 2 to contract the triangle
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (1, 3)])
    m = max_matching(g)
    assert len(m) == 2 == brute_force_matching_size(g)


def test_blossom_mostly_isolated_vertices():
    # up to 6 of 12 vertices carry edges: searches skip the isolated roots
    # and must leave no state behind for the next root
    rnd = random.Random(31)
    for _ in range(200):
        live = rnd.sample(range(12), rnd.randint(2, 6))
        edges = [(a, b) for i, a in enumerate(live) for b in live[i + 1:] if rnd.random() < 0.6]
        g = Graph(12, edges)
        assert len(max_matching(g)) == brute_force_matching_size(g)


def test_blossom_nested_in_one_search():
    # greedy start 0=1, 2=3, 4=5; the search from 6 contracts the cycle
    # 6-0=1-3=2-6, then 1-4=5-3 around it, and only then reaches 7 through 4
    g = Graph(8, [(0, 1), (2, 3), (4, 5), (6, 0), (6, 2), (1, 3), (1, 4), (3, 5), (4, 7)])
    m = max_matching(g)
    assert len(m) == 4 == brute_force_matching_size(g)
    assert sorted(m.edges) == [(0, 1), (2, 6), (3, 5), (4, 7)]


def test_blossom_containing_the_root():
    # greedy start 0=1, 2=3; the search from 4 contracts the 5-cycle
    # 4-0=1-3=2-4 based at 4 itself, which makes 0 even and reaches 5
    g = Graph(6, [(0, 1), (2, 3), (4, 0), (4, 2), (1, 3), (0, 5)])
    m = max_matching(g)
    assert len(m) == 3 == brute_force_matching_size(g)
    assert sorted(m.edges) == [(0, 5), (1, 3), (2, 4)]


# ---------------------------------------------------------------------------
# augmenting paths


def test_find_augmenting_length_one():
    assert find_augmenting_path(Matching(2), [(0, 1)], 1) == (0, 1)


def test_find_augmenting_length_three():
    m = Matching(4, [(1, 2)])
    assert find_augmenting_path(m, [(0, 1), (1, 2), (2, 3)], 3) == (0, 1, 2, 3)


def test_find_augmenting_length_five():
    m = Matching(6, [(1, 2), (3, 4)])
    allowed = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    assert find_augmenting_path(m, allowed, 5) == (0, 1, 2, 3, 4, 5)
    assert find_augmenting_path(m, allowed, 3) is None


def test_find_augmenting_requires_matching_in_allowed():
    with pytest.raises(ValueError):
        find_augmenting_path(Matching(3, [(0, 1)]), [(1, 2)], 3)


def test_find_augmenting_rejects_bad_max_len():
    with pytest.raises(ValueError):
        find_augmenting_path(Matching(2), [(0, 1)], 4)


def test_find_augmenting_agrees_with_enumeration():
    rnd = random.Random(424242)
    for _ in range(200):
        g = random_instance(rnd, max_n=12)
        m = Matching(g.n)
        for u, v in g.edges:  # greedy sub-matching to augment against
            if rnd.random() < 0.4 and not m.is_matched(u) and not m.is_matched(v):
                m.add(u, v)
        for max_len in (1, 3, 5):
            found = find_augmenting_path(m, g.edges, max_len)
            assert (found is None) == (not exists_augmenting(m, g.edges, max_len))
            if found is not None:
                assert len(found) - 1 <= max_len
                assert len(apply_augmenting_path(m, found)) == len(m) + 1


def test_apply_augmenting_examples():
    assert apply_augmenting_path(Matching(2), (0, 1)).edges == frozenset({(0, 1)})
    m = Matching(4, [(1, 2)])
    assert apply_augmenting_path(m, (0, 1, 2, 3)).edges == frozenset({(0, 1), (2, 3)})
    m5 = Matching(6, [(1, 2), (3, 4)])
    assert apply_augmenting_path(m5, (0, 1, 2, 3, 4, 5)).edges == frozenset({(0, 1), (2, 3), (4, 5)})


def test_matching_augment_flips_in_place_or_leaves_it_unchanged():
    m = Matching(7, [(1, 2)])

    def flip(verts, augments):
        before = m.copy()
        if augments:
            m.augment(verts)
        else:
            with pytest.raises(NotAugmentingError):
                m.augment(verts)
        # every view of the matching agrees with its mate list
        mate = m.mate
        assert all(w < 0 or mate[w] == v for v, w in enumerate(mate))
        pairs = frozenset(edge_key(v, w) for v, w in enumerate(mate) if w >= 0)
        assert len(m) == len(pairs) and m.edges == pairs and list(m) == sorted(pairs)
        for u in range(7):
            for v in range(7):
                assert ((u, v) in m) == (edge_key(u, v) in pairs) == ((v, u) in m)
        assert m == m.copy() and hash(m) == hash(m.copy())
        assert (m == before) == (mate == before.mate) == (not augments)

    for bad in ([0, 1, 2, 1], [0, 1, 3, 4], [1, 2], [0, 1, 2]):
        flip(bad, False)
        assert m.edges == frozenset({(1, 2)})
    flip([0, 1, 2, 3], True)
    assert m.edges == frozenset({(0, 1), (2, 3)})
    assert m.mate[1] == 0 and m.mate[2] == 3
    flip([4, 0, 1, 2], False)
    flip([4, 0, 2, 3, 1, 5], False)
    flip([4, 0, 1, 2, 3, 5], True)
    assert m.edges == frozenset({(0, 4), (1, 2), (3, 5)})
    assert m == Matching(7, [(5, 3), (2, 1), (4, 0)])
    assert m != Matching(7, [(0, 5), (1, 2), (3, 4)])


def test_matching_augment_equals_reference():
    # augmenting paths, their reversals, and broken variants of them: the
    # flip gives the reference's partner table, or both reject the path
    # and the matching is left as it was
    rnd = random.Random(56)
    flipped = rejected = 0
    last_flipped = set()
    for g, m in random_matched_graphs(57, 400):
        verts = reference_augmenting_path(partner_dict(m), range(g.n), g.adj)
        if verts is None:
            continue
        broken = verts[:]
        i, j = rnd.randrange(len(verts)), rnd.randrange(g.n)
        broken[i] = j
        for seq in (verts, verts[::-1], broken, verts[:-1], verts + [rnd.randrange(g.n)]):
            try:
                want = reference_augment(partner_dict(m), seq)
            except NotAugmentingError:
                want = None
            got = m.copy()
            if want is None:
                with pytest.raises(NotAugmentingError):
                    got.augment(seq)
                assert got == m
                rejected += 1
            else:
                got.augment(seq)
                assert partner_dict(got) == want
                assert len(got) == len(m) + 1
                flipped += 1
                last_flipped.add(g.n - 1 in seq)
    assert flipped > 500 and rejected > 500 and last_flipped == {True, False}


class _RowReads(Sequence):
    """Adjacency rows that count how often a row is read."""

    def __init__(self, adj):
        self.adj = adj
        self.reads = 0

    def __getitem__(self, v):
        self.reads += 1
        return self.adj[v]

    def __len__(self):
        return len(self.adj)


def test_blossom_pruning_reads_fewer_rows():
    # a_i = 2i is matched to the leaf b_i = 2i + 1 by the greedy start,
    # and every root r_j = 2k + j sees every a_i. The search from r_0
    # fails and leaves the Hungarian tree r_0, a_i, b_i. The reference
    # reads every b_i's row again from each later root, k + 1 rows per
    # root; the pruned search skips the dead a_i and reads one row per
    # later root. The count is deterministic, so no timing is needed
    k, roots = 40, 10
    n = 2 * k + roots
    edges = [(2 * i, 2 * i + 1) for i in range(k)]
    edges += [(2 * i, 2 * k + j) for i in range(k) for j in range(roots)]
    g = Graph(n, edges)
    pruned, full = _RowReads(g.adj), _RowReads(g.adj)
    mate = _blossom(n, pruned)
    assert mate == reference_blossom(n, full)
    assert mate == [i + 1 - 2 * (i % 2) if i < 2 * k else -1 for i in range(n)]
    assert pruned.reads < full.reads


def test_apply_augmenting_rejects_matched_endpoint():
    m = Matching(3, [(0, 1)])
    with pytest.raises(NotAugmentingError):
        apply_augmenting_path(m, (1, 2))


def test_apply_augmenting_rejects_broken_alternation():
    m = Matching(4, [(1, 2)])
    assert len(apply_augmenting_path(m, (0, 3))) == 2  # length 1: no alternation to break
    with pytest.raises(NotAugmentingError):
        apply_augmenting_path(m, (0, 1, 2))  # even length


# ---------------------------------------------------------------------------
# edge-list files


def test_edge_list_round_trip(tmp_path):
    g = Graph(5, [(0, 3), (1, 3), (2, 4)], (range(3), range(3, 5)))
    path = tmp_path / "g.edges"
    # the one writer writes no tag, so the tagged header is written here
    path.write_text("5 3 bipartite 3\n" + "".join(f"{u} {v}\n" for u, v in g.edges))
    assert read_edge_list(path) == g
    _write_edges(path, g.n, g.endpoints)
    assert read_edge_list(path) == Graph(5, g.edges)


def test_edge_list_shares_one_int_per_vertex(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("1000 3\n300 700\n700 999\n1 300\n")
    g = read_edge_list(path)
    assert g.edges == ((300, 700), (700, 999), (1, 300))
    assert g.edges[0][1] is g.edges[1][0] and g.edges[0][0] is g.edges[2][1]
    # out-of-range values stay as read, so Graph names the edge
    for bad in ("300 1000", "-1 300"):
        path.write_text(f"1000 1\n{bad}\n")
        with pytest.raises(ValueError, match=f"edge \\({bad.replace(' ', ', ')}\\) out of range"):
            read_edge_list(path)


@pytest.mark.parametrize("chunk", [None, 7])
def test_write_edges_bytes_and_read_back(tmp_path, monkeypatch, chunk):
    # the bytes of one f-string per edge, also across chunk boundaries,
    # and they read back as the same graph, with and without a tag
    if chunk is not None:
        monkeypatch.setattr(graph_module, "_WRITE_CHUNK", chunk)
    rnd = random.Random(23)
    path = tmp_path / "g.edges"
    graphs = [Graph(0), Graph(5), Graph(300, [(299, 0)])]
    for _ in range(20):
        graphs.append(random_general(rnd, rnd.randint(2, 40), rnd.choice([0.05, 0.3])))
        graphs.append(random_bipartite(rnd, rnd.randint(1, 20), rnd.randint(1, 20), 0.3))
    for g in graphs:
        _write_edges(path, g.n, g.endpoints)
        text = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
        assert path.read_bytes() == text.encode()
        back = read_edge_list(path)
        assert back.edges == g.edges and back.bipartition is None
        if g.bipartition is not None:
            left = len(g.bipartition[0])  # random_bipartite's left side is 0..L-1
            path.write_text(text.replace("\n", f" bipartite {left}\n", 1))
            back = read_edge_list(path)
            assert back.edges == g.edges and back.bipartition == g.bipartition


def test_edge_list_parse_agrees_with_line_scan(tmp_path, monkeypatch):
    # random files near the format, read twice: as read, and with the
    # one-pass parse failing so that the line scan reads every file;
    # both give the same graph or the same message
    rnd = random.Random(29)
    tokens = ["0", "1", "2", "3", "7", "+1", "-1", "1_0", "x", "2.0", "1e0", "٣",
              "9223372036854775808", " ", " ", "\t", "\x0c", "\n", "\n", "\r", "\r\n",
              "\udcff"]  # the byte 0xff, which is not UTF-8
    path = tmp_path / "g.edges"
    outcomes = []
    parsed = []  # the arrays loadtxt returned, accepted or not
    loadtxt = np.loadtxt

    def recorded(*args, **kwargs):
        parsed.append(loadtxt(*args, **kwargs))
        return parsed[-1]

    for _ in range(400):
        m = rnd.randint(0, 4)
        lines = [f"{rnd.randint(0, 5)} {rnd.randint(0, 5)}" for _ in range(m)]
        body = "\n".join(lines) + "\n" * rnd.randint(0, 2)
        for _ in range(rnd.randint(0, 2)):  # a few edits of the body
            at = rnd.randint(0, len(body))
            body = body[:at] + rnd.choice(tokens) + body[at + rnd.randint(0, 2):]
        path.write_bytes(f"6 {m}\n{body}".encode(errors="surrogateescape"))
        results = []
        for scan_only in (False, True):
            with monkeypatch.context() as patch:
                patch.setattr(np, "loadtxt", _loadtxt_fails if scan_only else recorded)
                try:
                    g = read_edge_list(path)
                    results.append((g.edges, g.bipartition))
                except ValueError as exc:
                    results.append(str(exc))
        assert results[0] == results[1], (path.read_bytes(), results)
        outcomes.append(isinstance(results[0], str))
    assert 100 < sum(outcomes) < 300  # both kinds of file are common
    assert len(parsed) > 100


def _loadtxt_fails(*args, **kwargs):
    raise ValueError("parse refused")


def test_edge_list_rejects_duplicates(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 2\n0 1\n1 0\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_rejects_self_loop(tmp_path):
    path = tmp_path / "bad.edges"
    path.write_text("3 1\n2 2\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_rejects_lines_past_the_declared_count(tmp_path):
    path = tmp_path / "g.edges"
    path.write_text("3 2\n0 1\n1 2\n\n")  # trailing blank lines are fine
    assert len(read_edge_list(path).edges) == 2
    path.write_text("3 2\n0 1\n1 2\n0 2\n")
    with pytest.raises(ValueError, match="after the 2 declared edges"):
        read_edge_list(path)


# (file text, exact message); {p} stands for the path's repr
MALFORMED_EDGE_LISTS = {
    "header-one-token": ("3\n0 1\n", "bad header in {p}"),
    "header-three-tokens": ("4 1 bipartite\n0 2\n", "bad header in {p}"),
    "header-tag": ("4 1 tagged 2\n0 2\n", "bad header tag 'tagged'"),
    "header-token": ("4 x\n", "{p} line 1: expected integers, got '4 x'"),
    "header-left-size": ("4 1 bipartite 5\n0 2\n", "left side size out of range"),
    "token": ("4 2\n0 1\n2 x\n", "{p} line 3: expected integers, got '2 x'"),
    "float": ("4 2\n0 1\n2 3.0\n", "{p} line 3: expected integers, got '2 3.0'"),
    "too-few-lines": ("4 3\n0 1\n2 3\n", "expected 3 edge lines in {p}"),
    "blank-body-line": ("4 2\n0 1\n\n2 3\n", "expected 2 edge lines in {p}"),
    "one-token": ("4 2\n0 1\n2\n", "expected 2 edge lines in {p}"),
    "three-tokens": ("4 2\n0 1\n2 3 1\n", "expected 2 edge lines in {p}"),
    "line-after": ("4 1\n0 1\n2 3\n", "{p} has lines after the 1 declared edges"),
    "line-after-blank": ("4 1\n0 1\n\n2 3\n", "{p} has lines after the 1 declared edges"),
    "out-of-range": ("4 2\n0 1\n0 4\n", "edge (0, 4) out of range for n=4"),
    "negative": ("4 1\n-1 2\n", "edge (-1, 2) out of range for n=4"),
    "self-loop": ("4 2\n0 1\n2 2\n", "self-loop at vertex 2"),
    "parallel": ("4 2\n0 1\n1 0\n", "parallel edge (0, 1)"),
    "beyond-int64": ("4 1\n0 9223372036854775808\n",
                     "edge (0, 9223372036854775808) out of range for n=4"),
    "not-crossing": ("4 1 bipartite 2\n0 1\n", "edge (0, 1) does not cross the bipartition"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_EDGE_LISTS))
def test_edge_list_malformed_message(tmp_path, case):
    text, message = MALFORMED_EDGE_LISTS[case]
    path = tmp_path / "bad.edges"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        read_edge_list(path)
    assert str(info.value) == message.format(p=repr(path))


# (file text, edges in file order, left side or None)
ACCEPTED_EDGE_LISTS = {
    "crlf": ("4 2\r\n0 1\r\n3 2\r\n", ((0, 1), (2, 3)), None),
    "no-final-newline": ("4 2\n0 1\n2 3", ((0, 1), (2, 3)), None),
    "plus-sign": ("4 1\n+1 2\n", ((1, 2),), None),
    "underscore": ("11 1\n1_0 2\n", ((2, 10),), None),
    "trailing-blank-lines": ("4 1\n0 1\n\n \t\n\n", ((0, 1),), None),
    "spaces-and-tabs": ("4 1\n\t0   1 \n", ((0, 1),), None),
    "no-edges": ("4 0\n", (), None),
    "no-edges-blank-after": ("4 0\n\n", (), None),
    "bipartite": ("4 2 bipartite 2\n0 2\n3 1\n", ((0, 2), (1, 3)), 2),
}


@pytest.mark.parametrize("case", sorted(ACCEPTED_EDGE_LISTS))
def test_edge_list_accepted(tmp_path, case):
    text, edges, left = ACCEPTED_EDGE_LISTS[case]
    path = tmp_path / "g.edges"
    path.write_bytes(text.encode())
    g = read_edge_list(path)
    assert g.edges == edges
    if left is None:
        assert g.bipartition is None
    else:
        assert g.bipartition == (frozenset(range(left)), frozenset(range(left, g.n)))


@pytest.mark.parametrize("text", ["4 -1\n", "4 -1\n0 1\n"])
def test_edge_list_rejects_negative_edge_count(tmp_path, text):
    path = tmp_path / "bad.edges"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        read_edge_list(path)
    assert str(info.value) == f"{path!r}: edge count must be non-negative, got -1"


def test_edge_key_normalizes():
    assert edge_key(5, 2) == (2, 5) == edge_key(2, 5)
