import hashlib
import itertools
import json
import random

import numpy as np
import pytest

from streammatch import (
    Graph,
    NotInducedError,
    brute_force_matching_size,
    build_hard_instance,
    gen_random,
    load_family,
    matched_base,
    max_matching,
    mu_with_and_without_special,
    read_edge_list,
    removed_special_bound,
    save_hard_instance,
    trivial_family,
    verify_induced,
    xor_gadget,
)
from streammatch.graph import _graph_plus
from util import maximum_matchings, random_bipartite, random_general, reference_verify_induced


# ---------------------------------------------------------------------------
# parity gadgets


def test_gadget_shape():
    g = xor_gadget((0, 1, 0))
    assert g.graph.n == 6
    assert len(g.graph.edges) == 4  # 2k - 2
    assert len(g.bit_edges) == 3
    assert len(g.bit_edges[0]) == 1 and len(g.bit_edges[1]) == 2


def test_gadget_rejects_bad_bit_counts():
    with pytest.raises(ValueError):
        xor_gadget((0, 1))  # even
    with pytest.raises(ValueError):
        xor_gadget((0,))  # too short
    with pytest.raises(ValueError):
        xor_gadget((0, 2, 0))
    # a bit must be the integer 0 or 1, not a value that converts to one
    with pytest.raises(ValueError, match="integers 0 or 1"):
        xor_gadget((0, 1.5, 0))
    with pytest.raises(ValueError, match="integers 0 or 1"):
        xor_gadget(("1", 0, 0))


def test_gadget_parity_zero_example():
    g = xor_gadget((0, 0, 1, 0, 0, 1, 0))
    assert g.parity == 0
    mu, best = maximum_matchings(g.graph)
    assert mu == 7
    assert len(best) == 1  # unique maximum matching
    assert any(g.final in e for e in best[0])


def test_gadget_parity_one_example():
    g = xor_gadget((1, 0, 1, 1, 1, 1, 0))
    assert g.parity == 1
    mu, best = maximum_matchings(g.graph)
    assert mu == 6
    assert any(all(g.final not in e for e in m) for m in best)


def test_gadget_law_exhaustive_k3():
    for code in range(8):
        bits = [(code >> i) & 1 for i in range(3)]
        g = xor_gadget(bits)
        mu = brute_force_matching_size(g.graph)
        assert mu == (3 if g.parity == 0 else 2)


# ---------------------------------------------------------------------------
# induced matching families


def test_verify_induced_rejects_k22_perfect_matching():
    g = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)], (range(2), range(2, 4)))
    assert not verify_induced(g, [[(0, 2), (1, 3)]])


def test_verify_induced_accepts_disjoint_singletons():
    g = Graph(6, [(0, 1), (2, 3), (4, 5)])
    assert verify_induced(g, [[(0, 1)], [(2, 3)], [(4, 5)]])


def test_verify_induced_rejects_six_cycle_alternation():
    g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
    m1 = [(0, 1), (2, 3), (4, 5)]
    m2 = [(1, 2), (3, 4), (5, 0)]
    assert not verify_induced(g, [m1, m2])


def test_verify_induced_rejects_overlap_and_foreign_edges():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not verify_induced(g, [[(0, 1)], [(0, 1)]])  # shared edge
    assert not verify_induced(g, [[(0, 2)]])  # not a graph edge
    assert not verify_induced(g, [[(0, 1), (1, 2)]])  # not a matching


@pytest.mark.parametrize("edge", [(-3, 0), (6, 7), (0, 6)])
def test_verify_induced_rejects_vertices_out_of_range(edge):
    # (-3, 0) would read as the base edge (3, 0) were -3 taken as an index
    base = matched_base(3)
    assert not verify_induced(base, [[edge]])
    assert not verify_induced(base, [[(1, 4)], [edge, (2, 5)]])


def _induced_matching(rnd, g, used):
    """A random induced matching of g from edges not in `used`: edges are
    added while neither end is matched yet or adjacent to a matched
    vertex. It may share vertices with earlier matchings."""
    verts: set[int] = set()
    chosen = []
    for u, v in rnd.sample(g.edges, len(g.edges)):
        if len(chosen) == 3 or (u, v) in used:
            continue
        if verts.isdisjoint({u, v, *g.adj[u], *g.adj[v]}):
            chosen.append((u, v))
            verts.update((u, v))
    return chosen


def _random_family(rnd, g):
    """(kind, family): an induced-matching family of g, with one flaw of
    the given kind put in, or none. Pairs come in either orientation."""
    family, used = [], set()
    for _ in range(rnd.randint(1, 5)):
        m = _induced_matching(rnd, g, used)
        if m:
            family.append(m)
            used.update(m)
    kind = rnd.choice(["none", "none", "repeat", "not-matching", "not-induced",
                       "not-edge", "negative", "out-of-range"])
    i = rnd.randrange(len(family))
    u, v = rnd.choice(family[i])
    if kind == "repeat":
        family.append([(u, v)])
    elif kind == "not-matching":
        family[i].extend((w, u) for w in g.adj[u] if w != v)
    elif kind == "not-induced":  # a disjoint edge with an end next to u or v
        verts = {x for e in family[i] for x in e}
        family[i].extend([e for e in g.edges if verts.isdisjoint(e)
                          and not {u, v}.isdisjoint(g.adj[e[0]] + g.adj[e[1]])][:1])
    elif kind == "not-edge":
        family[i].append((u, next(w for w in range(g.n) if w != u and w not in g.adj[u])))
    elif kind == "negative":
        family[i].append((-1 - u, v))
    elif kind == "out-of-range":
        family[i].append((u, g.n + v))
    family = [[(y, x) if rnd.random() < 0.5 else (x, y) for x, y in m] for m in family]
    return kind, family


def test_verify_induced_matches_reference_on_random_families():
    # one pass over g's edges gives the per-matching walk's answer, on
    # families with shared vertices and with each kind of flaw
    rnd = random.Random(19)
    seen: dict[tuple[str, bool], int] = {}
    shared = 0
    for trial in range(400):
        if trial % 2:
            g = random_general(rnd, rnd.randint(6, 24), rnd.choice([0.1, 0.2, 0.35]))
        else:
            side = rnd.randint(3, 12)
            g = random_bipartite(rnd, side, side, rnd.choice([0.1, 0.2, 0.35]))
        if len(g.edges) < 2:
            continue
        kind, family = _random_family(rnd, g)
        ok = verify_induced(g, family)
        assert ok == reference_verify_induced(g, family), (trial, kind, family)
        seen[kind, ok] = seen.get((kind, ok), 0) + 1
        if ok:
            owners = [v for m in family for e in m for v in e]
            shared += len(owners) > len(set(owners))
    assert seen["none", True] > 50 and shared > 20
    for kind in ("repeat", "not-matching", "not-induced", "not-edge", "negative",
                 "out-of-range"):
        assert seen.get((kind, False), 0) > 10, kind


# ---------------------------------------------------------------------------
# hard instances


def test_hard_instance_structure():
    base = matched_base(4)
    rng = np.random.default_rng(7)
    inst = build_hard_instance(base, trivial_family(base), k=3, rng=rng)
    n_side, k = 4, 3
    assert inst.graph.n == 2 * n_side * 2 * k
    # gadget parity records membership in the special matching
    special_vs = {v for e in inst.special_matching() for v in e}
    for v in range(base.n):
        parity = 0
        for bit in inst.gadget_bits[v]:
            parity ^= bit
        assert parity == inst.parities[v] == (1 if v in special_vs else 0)
    # gadgets share only their final vertex with the base
    seen = set(range(base.n))
    for v, vs in enumerate(inst.gadget_vertices):
        assert vs[-1] == v  # final vertex is the base vertex
        fresh = set(vs[:-1])
        assert not (fresh & seen)
        seen |= fresh
    assert inst.graph.bipartition is not None


def test_hard_instance_bounds_small():
    base = matched_base(12)
    family = trivial_family(base)
    rng = np.random.default_rng(42)
    bound = removed_special_bound(12, 1, 3)
    mus = []
    for _ in range(20):
        inst = build_hard_instance(base, family, k=3, rng=rng)
        mu_g, mu_stripped = mu_with_and_without_special(inst)
        assert mu_stripped <= bound
        assert mu_g >= bound  # gadget matchings alone reach the bound
        mus.append(mu_g)
    r = 1
    assert sum(mus) / len(mus) >= bound + r / 2 - 3 * r**0.5 / 2


def test_hard_instance_rejects_bad_families():
    base = matched_base(3)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        build_hard_instance(base, [], k=3, rng=rng)
    with pytest.raises(ValueError):
        build_hard_instance(base, [[(0, 3)], [(1, 4), (2, 5)]], k=3, rng=rng)
    with pytest.raises(ValueError):
        build_hard_instance(base, trivial_family(base), k=4, rng=rng)
    k22 = Graph(4, [(0, 2), (0, 3), (1, 2), (1, 3)], (range(2), range(2, 4)))
    with pytest.raises(NotInducedError):
        build_hard_instance(k22, [[(0, 2), (1, 3)]], k=3, rng=rng)
    with pytest.raises(ValueError):
        matched_base(-1)
    # k is checked before the family is verified
    with pytest.raises(ValueError, match="gadget length k"):
        build_hard_instance(k22, [[(0, 2), (1, 3)]], k=4, rng=rng)


# (k, seed, builds) -> SHA-256 of repr((fields, state)): `fields` lists, for
# each of `builds` builds in a row on one generator over matched_base(60)
# and its trivial family, (n, edges, special_index, parities, gadget_bits,
# gadget_vertices, z_bits); `state` is the generator's bit_generator.state
# after the last build. Recorded from the per-vertex builder; a faster
# builder must draw the same numbers and emit the same edges in the same
# order. The bipartition is left out: any valid 2-colouring will do.
HARD_GOLDEN = {
    (3, 0, 1): "bb5ce2d05de575379ccaa0aad858b977a9715ae815c4373e96550f33d0f9f4a1",
    (3, 7, 1): "48b7b51ee5dcb5e49ab20cb4a3525f99edf37fff39a979c9d2425dcfabb3c360",
    (5, 0, 1): "d66289c387f91e259aaf660002f61c58982626cf54baf40d52d83dd5fd8d76d6",
    (5, 7, 1): "dfa7de31ba358a1ee4ca88b3fe41b164e6464fd741517126ca27ebfa3a69a3ab",
    (7, 0, 1): "e693f465ba7963354e385d7e024f3cd5796d057844bf0d7ad69fd47472d487b2",
    (7, 7, 1): "3f71d714c8598ca171219c4bacddfc183d652e7018ab59d3ae682c7d35692258",
    (3, 2, 2): "04a03604167f1bd7709408e7688c4326eed9ec411ce5e6654ee90f0a2ff5114e",
}


@pytest.mark.parametrize("k, seed, builds", sorted(HARD_GOLDEN))
def test_hard_instance_golden(k, seed, builds):
    base = matched_base(60)
    family = trivial_family(base)
    rng = np.random.default_rng(seed)
    fields = []
    for _ in range(builds):
        inst = build_hard_instance(base, family, k, rng)
        g = inst.graph
        left, right = g.bipartition
        assert not left & right and left | right == frozenset(range(g.n))
        assert all((u in left) != (v in left) for u, v in g.edges)
        fields.append((g.n, g.edges, inst.special_index, inst.parities, inst.gadget_bits,
                       inst.gadget_vertices, inst.z_bits))
    digest = hashlib.sha256(repr((fields, rng.bit_generator.state)).encode()).hexdigest()
    assert digest == HARD_GOLDEN[k, seed, builds]


def test_hiding_event_frequency():
    # split each gadget edge 50/50 between two holders; the chance that some
    # vertex has every bit represented on the first holder's side is at most
    # 2N * (3/4)^k
    n_side, k, trials = 3, 9, 2000
    base = matched_base(n_side)
    family = trivial_family(base)
    rng = np.random.default_rng(1234)
    inst = build_hard_instance(base, family, k=k, rng=rng)
    gadget_edge_groups = []
    for v in range(base.n):
        vs = inst.gadget_vertices[v]
        local = xor_gadget(inst.gadget_bits[v])
        groups = [
            tuple(tuple(sorted((vs[a], vs[b]))) for a, b in pair)
            for pair in local.bit_edges
        ]
        gadget_edge_groups.append(groups)
    exposed = 0
    for _ in range(trials):
        bad = False
        for groups in gadget_edge_groups:
            all_seen = True
            for pair in groups:
                if not any(rng.random() < 0.5 for _ in pair):
                    all_seen = False
                    break
            if all_seen:
                bad = True
                break
        exposed += bad
    bound = 2 * n_side * (3 / 4) ** k
    assert exposed / trials <= bound, exposed / trials


# ---------------------------------------------------------------------------
# random generators


def test_gnp_p_zero_is_empty():
    assert gen_random("general-gnp", 10, p=0.0, seed=1).edges == ()


def test_bipartite_p_one_is_complete():
    g = gen_random("bipartite-gnp", 4, p=1.0, seed=1)
    assert len(g.edges) == 16
    assert len(max_matching(g)) == 4


def test_planted_matching_guarantee():
    g = gen_random("planted-matching", 100, plant=50, seed=9)
    assert len(max_matching(g)) >= 50


def test_gen_random_deterministic():
    a = gen_random("bipartite-gnp", 10, p=0.3, seed=5)
    b = gen_random("bipartite-gnp", 10, p=0.3, seed=5)
    assert a == b


def _assert_passes_graph_checks(g):
    """g was built unchecked, so its edges must be canonical, distinct, in
    range and crossing its sides by construction: the checked constructor
    gives the same graph from the same edges, in the same edge order."""
    checked = Graph(g.n, g.edges, g.bipartition)
    assert g == checked and g.edges == checked.edges
    for ends, checked_ends in zip(g.endpoints, checked.endpoints):
        assert ends.dtype == np.int64
        assert ends.tolist() == checked_ends.tolist()


@pytest.mark.parametrize("kind", ["bipartite-gnp", "general-gnp", "planted-matching"])
def test_gen_random_gnp_graphs_pass_graph_checks(kind):
    empty = (np.zeros(0, np.int64), np.zeros(0, np.int64))
    for seed in range(4):
        n = 30 + 7 * seed
        for p in (0.0, 0.05, 1.0):
            if kind == "planted-matching":  # p sets the planted share of n // 2
                g = gen_random(kind, n, plant=max(1, int(p * (n // 2))), seed=seed)
            else:
                g = gen_random(kind, n, p, seed=seed)
            _assert_passes_graph_checks(g)
            assert _graph_plus(g, empty) is g


def test_instance_builders_pass_graph_checks():
    base = matched_base(5)
    _assert_passes_graph_checks(base)
    for k in (3, 5, 7):
        for bits in itertools.product((0, 1), repeat=k):
            _assert_passes_graph_checks(xor_gadget(bits).graph)
        inst = build_hard_instance(base, trivial_family(base), k, np.random.default_rng(k))
        _assert_passes_graph_checks(inst.graph)


# (kind, n, p, plant, seed) -> SHA-256 of repr((n, edges, sorted sides)).
# Recorded from the element-by-element generator; a faster generator must
# draw the same numbers and emit the same edges in the same order.
GOLDEN_GRAPHS = {
    ("bipartite-gnp", 400, 0.05, None, 0): "e8f11352c8a5e34f875ac4740e2ecd1310611cef4511389172c9111ff2da8e78",
    ("bipartite-gnp", 400, 0.05, None, 7): "5f4abf75581bc95bef5799fcfeedfd8f5b47a17e068d4a080a911dc4fcc90d56",
    ("bipartite-gnp", 37, 0.3, None, 0): "277f029b3764c549c983e413b487682912fc9b9e8bdf7d369c9cbec7b776f490",
    ("bipartite-gnp", 37, 0.3, None, 7): "abb58df876580dfb01c85e9d91a728a37422c2afb2697be12cd6ea550be5374c",
    ("general-gnp", 120, 0.04, None, 0): "339a7ac8b84ddcc95817f4e6fe56cc085778265ffb75dae131e4001a94a98daf",
    ("general-gnp", 120, 0.04, None, 7): "e8635c3188bc09a64e7ecf550eaa1390edcaf33b57d480cabcbf388de75ab1c7",
    ("general-gnp", 300, 0.05, None, 0): "96e83e1cd18cf7000e12557b255382d9a8c92dd50351526e1eb392770294f488",
    ("general-gnp", 300, 0.05, None, 7): "a5d4ba335ecb2b82795d47d5291f87cf1b5875284c0b2e353fe733b2b71d8668",
    ("planted-matching", 100, None, 50, 0): "5045a553e9ee0fc188b8705cb2b63ef5a76afea519f3be44ec0d4f08c822959b",
    ("planted-matching", 100, None, 50, 7): "ded76f27eb6b886c9bf7a23521b3250d45345eaa3da4f57936687af1b7a79484",
}


@pytest.mark.parametrize("kind, n, p, plant, seed", sorted(GOLDEN_GRAPHS, key=repr))
def test_gen_random_golden(kind, n, p, plant, seed):
    g = gen_random(kind, n, p, plant, seed)
    # Python ints, not numpy scalars: the repr below would differ, and
    # numpy scalars make every later dict and set lookup slower
    assert all(type(x) is int for e in g.edges for x in e)
    # and one int object per vertex, shared by its edges
    assert len({id(x) for e in g.edges for x in e}) == len({x for e in g.edges for x in e})
    sides = None if g.bipartition is None else tuple(sorted(s) for s in g.bipartition)
    digest = hashlib.sha256(repr((g.n, g.edges, sides)).encode()).hexdigest()
    assert digest == GOLDEN_GRAPHS[kind, n, p, plant, seed]


def test_gen_random_validates():
    with pytest.raises(ValueError):
        gen_random("bipartite-gnp", 1, p=0.5)
    with pytest.raises(ValueError):
        gen_random("general-gnp", 5, p=1.5)
    with pytest.raises(ValueError):
        gen_random("planted-matching", 10, plant=6)
    with pytest.raises(ValueError):
        gen_random("mystery", 10, p=0.5)


# ---------------------------------------------------------------------------
# serialization


def test_hard_instance_sidecar_round_trip(tmp_path):
    base = matched_base(4)
    rng = np.random.default_rng(11)
    inst = build_hard_instance(base, trivial_family(base), k=3, rng=rng)
    path = tmp_path / "inst.edges"
    save_hard_instance(inst, path)
    sidecar = json.loads((tmp_path / "inst.edges.json").read_text())
    assert sidecar["special_index"] == inst.special_index
    assert sidecar["parities"] == list(inst.parities)
    assert sidecar["k"] == 3 and sidecar["r"] == 1 and sidecar["t"] == len(base.edges)
    assert len(sidecar["z_bits"]) == len(base.edges)
    assert sidecar["left"] == sorted(inst.graph.bipartition[0])
    # the edges read back in the instance's order, with no bipartite tag,
    # and the file is the header `n m` and one `u v` line per edge
    loaded = read_edge_list(path)
    assert loaded.edges == inst.graph.edges and loaded.bipartition is None
    g = inst.graph
    plain = f"{g.n} {g.m}\n" + "".join(f"{u} {v}\n" for u, v in g.edges)
    assert path.read_text(encoding="utf-8") == plain


def test_load_family(tmp_path):
    family = {
        "n": 6,
        "left_size": 3,
        "edges": [[0, 3], [1, 4], [2, 5]],
        "matchings": [[[0, 3]], [[1, 4]], [[2, 5]]],
    }
    path = tmp_path / "family.json"
    path.write_text(json.dumps(family))
    base, matchings = load_family(path)
    assert base.n == 6 and len(matchings) == 3
    bad = dict(family, matchings=[[[0, 3], [0, 4]]])
    path.write_text(json.dumps(bad))
    with pytest.raises(NotInducedError):
        load_family(path)

