import random

import pytest

from streammatch import (
    Graph,
    HallWitness,
    Matching,
    NotAugmentingError,
    NotBipartiteError,
    Path,
    apply_augmenting_path,
    brute_force_matching_size,
    edge_key,
    find_augmenting_path,
    hall_witness,
    max_matching,
    read_edge_list,
    symmetric_difference,
    write_edge_list,
)
from util import exists_augmenting, random_bipartite, random_general, random_instance


# ---------------------------------------------------------------------------
# construction and invariants


def test_graph_rejects_self_loop():
    with pytest.raises(ValueError):
        Graph(3, [(1, 1)])


def test_graph_rejects_parallel_edges():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1), (1, 0)])


def test_graph_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph(2, [(0, 2)])


def test_graph_adjacency_consistent():
    g = Graph(4, [(2, 0), (1, 2), (2, 3)])
    assert g.edges == ((0, 2), (1, 2), (2, 3))
    assert g.adj[2] == (0, 1, 3)
    assert g.degree(2) == 3 and g.degree(0) == 1


def test_bipartition_must_cross():
    with pytest.raises(ValueError):
        Graph(4, [(0, 1)], (range(2), range(2, 4)))
    g = Graph(4, [(0, 2), (1, 3)], (range(2), range(2, 4)))
    assert g.bipartition is not None


def test_matching_rejects_shared_vertex():
    m = Matching([(0, 1)])
    with pytest.raises(ValueError):
        m.add(1, 2)


def test_matching_partner_involution():
    m = Matching([(0, 1), (2, 5)])
    for v in m.vertices():
        assert m.partner(m.partner(v)) == v
    assert m.partner(3) is None


def test_path_requires_adjacent_distinct_vertices():
    with pytest.raises(ValueError):
        Path([0, 1, 2], [(0, 1)])
    with pytest.raises(ValueError):
        Path([0, 1, 0], [(0, 1)])
    p = Path([0, 1, 2], [(0, 1), (1, 2)])
    assert p.edges == ((0, 1), (1, 2))


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


def test_max_matching_deterministic():
    rnd = random.Random(5)
    g = random_general(rnd, 12, 0.4)
    assert max_matching(g) == max_matching(g)


def test_blossom_odd_cycle_with_tail():
    # triangle 0-1-2 plus tail 2-3: matching of size 2 needs the blossom step
    g = Graph(4, [(0, 1), (1, 2), (0, 2), (2, 3)])
    m = max_matching(g)
    assert len(m) == 2 == brute_force_matching_size(g)


# ---------------------------------------------------------------------------
# Hall witnesses


def test_hall_witness_two_lefts_one_neighbor():
    g = Graph(4, [(0, 2), (1, 2)], (range(2), range(2, 4)))
    w = hall_witness(g)
    assert isinstance(w, HallWitness)
    assert w.vertex_set == frozenset({0, 1})
    assert w.neighborhood == frozenset({2})
    assert w.deficiency == 1 == 2 - len(max_matching(g))


def test_hall_witness_perfect_matching():
    g = Graph(6, [(0, 3), (1, 4), (2, 5)], (range(3), range(3, 6)))
    w = hall_witness(g)
    assert w.deficiency == 0
    assert len(w.vertex_set) == len(w.neighborhood)


def test_hall_witness_requires_bipartition():
    with pytest.raises(NotBipartiteError):
        hall_witness(Graph(3, [(0, 1)]))


def test_hall_witness_requires_equal_sides():
    g = Graph(3, [(0, 2), (1, 2)], (range(2), range(2, 3)))
    with pytest.raises(ValueError):
        hall_witness(g)


def test_hall_witness_deficiency_matches_brute_force():
    rnd = random.Random(77)
    for _ in range(120):
        n = rnd.randint(1, 8)
        g = random_bipartite(rnd, n, n, rnd.choice([0.15, 0.3, 0.6]))
        w = hall_witness(g)
        mu = brute_force_matching_size(g)
        assert w.deficiency == n - mu
        # N(A) really is the neighborhood of A
        nbrs = set()
        for v in w.vertex_set:
            nbrs.update(g.adj[v])
        assert frozenset(nbrs) == w.neighborhood


# ---------------------------------------------------------------------------
# augmenting paths


def test_find_augmenting_length_one():
    p = find_augmenting_path(Matching(), [(0, 1)], 1)
    assert p.vertices == (0, 1)


def test_find_augmenting_length_three():
    m = Matching([(1, 2)])
    p = find_augmenting_path(m, [(0, 1), (1, 2), (2, 3)], 3)
    assert p.vertices == (0, 1, 2, 3)


def test_find_augmenting_length_five():
    m = Matching([(1, 2), (3, 4)])
    allowed = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)]
    p = find_augmenting_path(m, allowed, 5)
    assert p.vertices == (0, 1, 2, 3, 4, 5)
    assert find_augmenting_path(m, allowed, 3) is None


def test_find_augmenting_requires_matching_in_allowed():
    with pytest.raises(ValueError):
        find_augmenting_path(Matching([(0, 1)]), [(1, 2)], 3)


def test_find_augmenting_rejects_bad_max_len():
    with pytest.raises(ValueError):
        find_augmenting_path(Matching(), [(0, 1)], 4)


def test_find_augmenting_agrees_with_enumeration():
    rnd = random.Random(424242)
    for _ in range(200):
        g = random_instance(rnd, max_n=12)
        m = Matching()
        for u, v in g.edges:  # greedy sub-matching to augment against
            if rnd.random() < 0.4 and not m.is_matched(u) and not m.is_matched(v):
                m.add(u, v)
        for max_len in (1, 3, 5):
            found = find_augmenting_path(m, g.edges, max_len)
            assert (found is None) == (not exists_augmenting(m, g.edges, max_len))
            if found is not None:
                assert len(found.edges) <= max_len
                assert len(apply_augmenting_path(m, found)) == len(m) + 1


def test_apply_augmenting_examples():
    p1 = Path([0, 1], [(0, 1)])
    assert apply_augmenting_path(Matching(), p1).edges == frozenset({(0, 1)})
    m = Matching([(1, 2)])
    p3 = Path([0, 1, 2, 3], [(0, 1), (1, 2), (2, 3)])
    assert apply_augmenting_path(m, p3).edges == frozenset({(0, 1), (2, 3)})
    m5 = Matching([(1, 2), (3, 4)])
    p5 = Path([0, 1, 2, 3, 4, 5], [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
    assert apply_augmenting_path(m5, p5).edges == frozenset({(0, 1), (2, 3), (4, 5)})


def test_matching_augment_flips_in_place_or_leaves_it_unchanged():
    m = Matching([(1, 2)])
    for bad in ([0, 1, 2, 1], [0, 1, 3, 4], [1, 2], [0, 1, 2]):
        with pytest.raises(NotAugmentingError):
            m.augment(bad)
        assert m.edges == frozenset({(1, 2)})
    m.augment([0, 1, 2, 3])
    assert m.edges == frozenset({(0, 1), (2, 3)})
    assert m.partner(1) == 0 and m.partner(2) == 3


def test_apply_augmenting_rejects_matched_endpoint():
    m = Matching([(0, 1)])
    p = Path([1, 2], [(1, 2)])
    with pytest.raises(NotAugmentingError):
        apply_augmenting_path(m, p)


def test_apply_augmenting_rejects_broken_alternation():
    m = Matching([(1, 2)])
    p = Path([0, 3], [(0, 3)])  # fine: length 1, no alternation to break
    assert len(apply_augmenting_path(m, p)) == 2
    bad = Path([0, 1, 2], [(0, 1), (1, 2)])  # even length
    with pytest.raises(NotAugmentingError):
        apply_augmenting_path(m, bad)


# ---------------------------------------------------------------------------
# symmetric difference


def test_symmetric_difference_identity():
    m = Matching([(0, 1), (2, 3)])
    assert symmetric_difference(m, m).edges == ()


def test_symmetric_difference_path_and_cycle():
    assert symmetric_difference(Matching([(0, 1)]), Matching([(1, 2)])).edges == (
        (0, 1),
        (1, 2),
    )
    four_cycle = symmetric_difference(
        Matching([(0, 1), (2, 3)]), Matching([(1, 2), (0, 3)])
    )
    assert len(four_cycle.edges) == 4
    assert all(d == 2 for d in four_cycle.degrees)


def test_symmetric_difference_max_degree_two():
    rnd = random.Random(9)
    for _ in range(100):
        g = random_instance(rnd, max_n=12)
        m1 = max_matching(g)
        m2 = Matching()
        for u, v in g.edges:
            if rnd.random() < 0.5 and not m2.is_matched(u) and not m2.is_matched(v):
                m2.add(u, v)
        diff = symmetric_difference(m1, m2)
        assert all(d <= 2 for d in diff.degrees)


# ---------------------------------------------------------------------------
# edge-list files


def test_edge_list_round_trip(tmp_path):
    g = Graph(5, [(0, 3), (1, 3), (2, 4)], (range(3), range(3, 5)))
    path = tmp_path / "g.edges"
    write_edge_list(g, path)
    assert read_edge_list(path) == g


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


def test_edge_key_normalizes():
    assert edge_key(5, 2) == (2, 5) == edge_key(2, 5)
