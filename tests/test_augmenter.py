import hashlib
import json
import random

import numpy as np
import pytest

from streammatch import (
    EdgeStream,
    Graph,
    Matching,
    augmenter,
    beats23_match,
    build_hard_instance,
    build_t,
    edge_key,
    greedy_match,
    make_stream,
    matched_base,
    max_matching,
    params_with_betas,
    phase2b,
    run_sparsifier,
    trivial_family,
)
from streammatch.augmenter import _augmenting_paths, _free_ends, _reaching
from streammatch.graph import _ends_of, _graph_of_canonical
from util import (
    find_augmenting_path,
    partner_dict,
    random_bipartite,
    random_general,
    random_matched_graphs,
    reference_augmenting_path,
    reference_beats23,
    reference_build_t,
    reference_free_ends,
    reference_phase2b,
)


# ---------------------------------------------------------------------------
# (2, b)-matching


def test_build_t_empty_matching_gives_empty_t():
    t = build_t(*_ends_of([(0, 1), (2, 3)]), Matching(4), b=5)
    assert t.edges == ()


def test_build_t_membership_rule():
    # matched edge (x, y) = (0, 1); u = 2 unmatched; uz = (2, 3) has no
    # matched endpoint and is skipped
    m_h = Matching(4, [(0, 1)])
    t = build_t(*_ends_of([(2, 0), (2, 1), (2, 3)]), m_h, b=5)
    assert t.edges == ((0, 2), (1, 2))


def _spy_admission(monkeypatch) -> list:
    """Patch `augmenter._admitted`, T's greedy admission loop, to record
    each call; the returned list grows by one entry per call."""
    calls = []
    admitted = augmenter._admitted

    def spied(*args):
        calls.append(args)
        return admitted(*args)

    monkeypatch.setattr(augmenter, "_admitted", spied)
    return calls


def test_build_t_unmatched_side_cap(monkeypatch):
    # u = 0 adjacent to five matched vertices; b = 2 keeps only the first
    # two, so the cap-free rule's five edges at 0 send build_t to its loop
    calls = _spy_admission(monkeypatch)
    m_h = Matching(11, [(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)])
    arrivals = [(0, v) for v in (1, 3, 5, 7, 9)]
    t = build_t(*_ends_of(arrivals), m_h, b=2)
    assert frozenset(t.edges) == {(0, 1), (0, 3)}
    assert len(calls) == 1
    # a hub that also sees matched vertices already full, and edges with
    # no or two matched ends between its arrivals
    m_h = Matching(12, [(1, 2), (3, 4), (5, 6), (7, 8)])
    arrivals = [(1, 9), (1, 10), (0, 1), (0, 3), (3, 4), (0, 11), (5, 0), (0, 7), (9, 10)]
    t = build_t(*_ends_of(arrivals), m_h, b=2)
    assert t.edges == reference_build_t(arrivals, m_h, 2, 12).edges == ((1, 9), (1, 10), (0, 3), (0, 5))
    assert len(calls) == 2


def test_build_t_keeps_admission_order():
    m_h = Matching(7, [(1, 2), (3, 4)])
    t = build_t(*_ends_of([(4, 5), (0, 3), (1, 6), (0, 2)]), m_h, b=2)
    assert t.edges == ((4, 5), (0, 3), (1, 6), (0, 2))
    assert t.adj[0] == (2, 3) and tuple(map(len, t.adj)) == (2, 1, 1, 1, 1, 1, 1)


def test_build_t_matched_side_cap():
    # matched vertex 1 sees three unmatched suitors; degree cap 2 binds
    m_h = Matching(6, [(1, 2)])
    t = build_t(*_ends_of([(1, 3), (1, 4), (1, 5)]), m_h, b=5)
    assert frozenset(t.edges) == {(1, 3), (1, 4)}


def test_build_t_caps_hold_on_random_runs():
    rnd = random.Random(3)
    for trial in range(20):
        g = random_bipartite(rnd, 15, 15, 0.3)
        s = make_stream(g, trial)
        m_h = max_matching(Graph(g.n, s.arrivals()[:10], g.bipartition))
        b = rnd.choice([2, 3, 5])
        arrivals = s.arrivals()[10:]
        t = build_t(*_ends_of(arrivals), m_h, b)
        matched = partner_dict(m_h)
        t_edges = frozenset(t.edges)
        for v in range(g.n):
            assert len(t.adj[v]) <= (2 if v in matched else b)
        for x, y in t_edges:
            assert (x in matched) != (y in matched), (x, y)
        # maximality: replaying the arrivals finds no admissible skipped edge
        for x, y in arrivals:
            if (x in matched) == (y in matched) or edge_key(x, y) in t_edges:
                continue
            v, u = (x, y) if x in matched else (y, x)
            # degrees at arrival time are bounded by final degrees, so a
            # skipped edge must have a saturated endpoint now
            assert len(t.adj[v]) >= 2 or len(t.adj[u]) >= b, (x, y)


@pytest.mark.parametrize("b", [2, 3, 500])
@pytest.mark.parametrize("kind", ["bipartite", "general"])
def test_build_t_matches_reference(kind, b, monkeypatch):
    # build_t builds the T of the per-arrival loop: same edges in the same
    # order, same adjacency, on pairs given in either order, over all of
    # II.A and over its edges with one matched end; b = 2 makes the
    # unmatched-side cap bind, and the admission loop runs exactly when it
    # does
    calls = _spy_admission(monkeypatch)
    rnd = random.Random(f"build_t-{kind}-{b}")
    unmatched_capped = 0
    for trial in range(25):
        if kind == "bipartite":
            side = rnd.randint(5, 20)
            g = random_bipartite(rnd, side, side, rnd.choice([0.15, 0.3, 0.6]))
        else:
            g = random_general(rnd, rnd.randint(10, 40), rnd.choice([0.1, 0.25, 0.5]))
        if len(g.edges) < 4:
            continue
        s = make_stream(g, trial)
        cut = rnd.randint(1, len(s) // 2)
        m_h = max_matching(Graph(g.n, s.arrivals()[:cut], g.bipartition))
        phase2a = [(y, x) if rnd.random() < 0.5 else (x, y) for x, y in s.arrivals()[cut:]]
        matched = partner_dict(m_h)
        one_matched = [(x, y) for x, y in phase2a if (x in matched) != (y in matched)]
        for arrivals in (phase2a, one_matched):
            del calls[:]
            t = build_t(*_ends_of(arrivals), m_h, b)
            ref = reference_build_t(arrivals, m_h, b, g.n)
            assert t.edges == ref.edges, trial
            assert t.adj == ref.adj, trial
            capped = ref.edges != reference_build_t(arrivals, m_h, g.n, g.n).edges
            assert len(calls) == capped, trial
        unmatched_capped += capped
    for m_h in (Matching(4), Matching(4, [(0, 1)])):
        assert build_t(*_ends_of([]), m_h, b).edges == reference_build_t([], m_h, b, 4).edges == ()
    if b == 2:
        assert 0 < unmatched_capped < 25
    elif b == 500:
        assert unmatched_capped == 0


@pytest.mark.parametrize("b", [2, 3, 500])
def test_build_t_matches_reference_under_heavy_ties(b, monkeypatch):
    # thousands of arrivals on eight matched ends, which their packed sort
    # keys must keep in arrival order; the first arrivals at every matched
    # end go to three unmatched hubs, so a small b sends build_t to its
    # admission loop. Arrivals with no or two matched ends lie in between
    calls = _spy_admission(monkeypatch)
    rnd = random.Random(f"ties-{b}")
    n = 1_000
    m_h = Matching(n, [(v, v + 4) for v in range(4)])
    hubs = [(v, 8 + h) for v in range(8) for h in range(3)]
    spokes = [(v, u) for v in range(8) for u in range(11, n)]
    others = [(u, u + 1) for u in range(11, n - 1, 2)] + [(0, 5), (2, 7)]
    arrivals = hubs + rnd.sample(spokes + others, 4_000)
    arrivals = [(y, x) if rnd.random() < 0.5 else (x, y) for x, y in arrivals]
    t = build_t(*_ends_of(arrivals), m_h, b)
    ref = reference_build_t(arrivals, m_h, b, n)
    assert t.edges == ref.edges and t.adj == ref.adj
    assert len(calls) == (b < 500)


def test_two_b_matching_validates():
    with pytest.raises(ValueError, match="b must be at least 2"):
        build_t(*_ends_of([(0, 1), (1, 2)]), Matching(4, [(1, 3)]), b=1)


# ---------------------------------------------------------------------------
# Phase II.B


def test_phase2b_applies_length_one_then_three():
    m_h = Matching(10, [(1, 2)])
    t = build_t(*_ends_of([(0, 1), (2, 3)]), m_h, b=5)
    m, applied = phase2b(m_h, t, 42, *_ends_of([(9, 8)]))
    assert len(m) == 3
    assert sorted(p.length for p in applied) == [1, 3]
    assert m.edges == {(0, 1), (2, 3), (8, 9)}
    assert all(p.arrival == 42 for p in applied)
    assert m_h.edges == {(1, 2)}  # phase2b augments a copy


def test_phase2b_length_five_through_current_edge():
    m_h = Matching(6, [(1, 2), (3, 4)])
    t = build_t(*_ends_of([(0, 1), (4, 5)]), m_h, b=5)
    m, applied = phase2b(m_h, t, 1, *_ends_of([(2, 3)]))
    assert len(m) == 3
    assert [p.length for p in applied] == [5]
    assert m.edges == {(0, 1), (2, 3), (4, 5)}


def test_phase2b_no_path_leaves_state_unchanged():
    m_h = Matching(5, [(1, 2), (3, 4)])
    t = build_t(*_ends_of([(0, 1)]), m_h, b=5)
    m, applied = phase2b(m_h, t, 1, *_ends_of([(2, 4)]))  # both endpoints matched, no pattern
    assert m == m_h
    assert applied == ()


def test_phase2b_rejects_a_path_outside_t(monkeypatch):
    # a search that yields a path whose unmatched edge (2, 3) T lacks
    m_h = Matching(4, [(1, 2)])
    t = build_t(*_ends_of([(0, 1)]), m_h, b=5)
    monkeypatch.setattr(augmenter, "_augmenting_paths", lambda *args: iter([[0, 1, 2, 3]]))
    with pytest.raises(ValueError, match="2, 3 are not adjacent"):
        phase2b(m_h, t, 1, *_ends_of([]))
    # the same path through the current arrival (2, 3) is applied
    m, applied = phase2b(m_h, t, 5, *_ends_of([(3, 2)]))
    assert m.edges == {(0, 1), (2, 3)} and applied[0].arrival == 5


def _phase2b_cases():
    """(trial, m_h, t, first II.B position, II.B arrivals) on seeded random
    bipartite and general graphs, with random Phase I and II.A lengths
    and b, and about half of the arrivals' pairs flipped. From trial 50 on,
    T is not `build_t`'s but a random share of the edges after Phase I
    outside M_H that have an M_H-matched end, so some of its edges have
    two matched ends, as the middle edge of a path of length 5 does, and
    the other edges are the II.B arrivals."""
    rnd = random.Random(2024)
    for trial in range(80):
        if trial % 2:
            g = random_general(rnd, rnd.randint(12, 30), rnd.choice([0.15, 0.25, 0.4]))
        else:
            side = rnd.randint(6, 15)
            g = random_bipartite(rnd, side, side, rnd.choice([0.15, 0.25, 0.4]))
        if len(g.edges) < 8:
            continue
        s = make_stream(g, trial)
        cut = rnd.randint(1, len(s) // 3)
        m_h = max_matching(Graph(g.n, s.arrivals()[:cut], g.bipartition))
        flip = random.Random(trial)
        if trial < 50:
            iia_end = rnd.randint(cut + 1, (cut + len(s)) // 2)
            t = build_t(*_ends_of(s.arrivals()[cut:iia_end]), m_h, rnd.choice([2, 3, 5]))
            rest = s.arrivals()[iia_end:]
        else:
            iia_end = cut
            in_t = [
                rnd.random() < 0.4 and (x, y) not in m_h
                and (m_h.is_matched(x) or m_h.is_matched(y))
                for x, y in s.arrivals()[cut:]
            ]
            t_edges = sorted(e for e, kept in zip(s.arrivals()[cut:], in_t) if kept)
            t = _graph_of_canonical(g.n, _ends_of(t_edges), g.bipartition)
            rest = [e for e, kept in zip(s.arrivals()[cut:], in_t) if not kept]
        arrivals = [(y, x) if flip.random() < 0.5 else (x, y) for x, y in rest]
        if arrivals:
            yield trial, m_h, t, iia_end + 1, arrivals


def test_phase2b_anchored_search_matches_reference():
    lengths = set()
    later_hits = 0
    for trial, m_h, t, first, arrivals in _phase2b_cases():
        m, applied = phase2b(m_h, t, first, *_ends_of(arrivals))
        ref_matching, ref_applied = reference_phase2b(m_h, t, enumerate(arrivals, first))

        assert [tuple(p) for p in applied] == ref_applied, trial
        assert m == ref_matching, trial
        lengths.update(p.length for p in applied)
        later_hits += sum(p.arrival != first for p in applied)
        # with no arrivals, one pass over M | T, whose paths have no position
        m, applied = phase2b(m_h, t, first, *_ends_of([]))
        ref_matching, ref_applied = reference_phase2b(m_h, t, [(None, None)])
        assert [tuple(p) for p in applied] == ref_applied, trial
        assert m == ref_matching, trial
    # the anchored search ran and found paths of every length
    assert lengths == {1, 3, 5}
    assert later_hits > 50


def test_phase2b_rejects_a_t_edge_with_two_free_ends():
    # no T from build_t has such an edge, and the search looks for no
    # path of length 1 in M | T
    m_h = Matching(6, [(1, 2)])
    t = _graph_of_canonical(6, _ends_of([(0, 1), (3, 4)]))
    for arrivals in ([], [(4, 5)], [(2, 5)]):
        with pytest.raises(ValueError, match="two ends free"):
            phase2b(m_h, t, 1, *_ends_of(arrivals))


def test_phase2b_reach_skip_is_exact():
    # after the first step, `_reaching` gives `_free_ends`' answer at every
    # vertex, and replaying the later applied paths, no vertex that did not
    # reach a free vertex then reaches one after any flip
    dead_total = later_flips = 0
    for trial, m_h, t, first, arrivals in _phase2b_cases():
        _, applied = phase2b(m_h, t, first, *_ends_of(arrivals))
        m = m_h.copy()
        first_step = [p for p in applied if p.arrival == first]
        for p in first_step:
            m.augment(p.vertices)

        def walk_reaches(v):
            return next(_free_ends(v, m.mate, t.adj), None) is not None

        reach = _reaching(m.mate, t)
        assert reach.tolist() == [walk_reaches(v) for v in range(t.n)], trial
        dead = np.flatnonzero(~reach).tolist()
        dead_total += len(dead)
        for p in applied[len(first_step):]:
            m.augment(p.vertices)
            later_flips += 1
            assert not any(walk_reaches(v) for v in dead), (trial, p)
            assert _reaching(m.mate, t).tolist() == [walk_reaches(v) for v in range(t.n)]
    assert dead_total > 100 and later_flips > 50


def test_free_ends_and_reaching_equal_reference():
    # the mate-list walk yields what the partner-table walk yields, in
    # order and with repeats, and `_reaching` is whether it yields any;
    # the matchings' edges need not lie in T
    rnd = random.Random(71)
    last_matched = set()
    reached = unreached = 0
    for g, m in random_matched_graphs(72, 400):
        t = Graph(g.n, [e for e in g.edges if rnd.random() < 0.6 and e not in m])
        partner = partner_dict(m)
        want = [reference_free_ends(v, partner, t.adj) for v in range(t.n)]
        assert [list(_free_ends(v, m.mate, t.adj)) for v in range(t.n)] == want
        reach = _reaching(m.mate, t).tolist()
        assert reach == [bool(ends) for ends in want]
        last_matched.add(m.mate[-1] >= 0)
        reached += sum(reach)
        unreached += reach.count(False)
    assert last_matched == {True, False}
    assert reached > 1000 and unreached > 500


def test_augmenting_paths_equal_reference():
    # on a maximal matching, so that no edge has two free ends, every path
    # the resumed search yields is what a fresh search over the partner
    # table finds on the matching as it stands, and none is left
    last_matched = set()
    lengths = set()
    for g, m in random_matched_graphs(55, 600):
        for u, v in g.edges:
            if not (m.is_matched(u) or m.is_matched(v)):
                m.add(u, v)
        last_matched.add(m.mate[-1] >= 0)
        for verts in _augmenting_paths(m.mate, range(g.n), g.adj):
            assert verts == reference_augmenting_path(partner_dict(m), range(g.n), g.adj)
            m.augment(verts)
            lengths.add(len(verts) - 1)
        assert reference_augmenting_path(partner_dict(m), range(g.n), g.adj) is None
    assert last_matched == {True, False}
    assert lengths == {3, 5}


def test_phase2b_anchored_start_four_steps_back_from_e():
    # the first step applies 2-1=7-8 and leaves 3-4 matched; then e=(4, 19)
    # closes 10-1=2-3=4-19, whose lower end 10 lies four steps back from 4
    m_h = Matching(20, [(1, 7), (3, 4)])
    t = build_t(*_ends_of([(1, 2), (7, 8), (1, 10), (2, 3)]), m_h, b=5)
    m, applied = phase2b(m_h, t, 1, *_ends_of([(3, 7), (4, 19)]))
    assert applied == ((1, 3, (2, 1, 7, 8)), (2, 5, (10, 1, 2, 3, 4, 19)))
    assert m.edges == {(1, 10), (2, 3), (4, 19), (7, 8)}


def test_phase2b_histogram():
    t = build_t(*_ends_of([]), Matching(2), b=2)
    _, applied = phase2b(Matching(2), t, 1, *_ends_of([(0, 1)]))
    assert [p.length for p in applied] == [1]


# ---------------------------------------------------------------------------
# greedy


def test_greedy_p4_trap():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    order = [g.edges.index((1, 2)), g.edges.index((0, 1)), g.edges.index((2, 3))]
    from streammatch import EdgeStream

    s = EdgeStream(g, order)
    m = greedy_match(s)
    assert m.edges == {(1, 2)}
    assert len(m) == 1  # ratio exactly 1/2


def test_greedy_fills_the_table_as_add_would():
    rnd = random.Random(15)
    for trial in range(20):
        g = random_general(rnd, 30, 0.2)
        if not g.edges:
            continue
        s = make_stream(g, trial)
        want = Matching(g.n)
        for u, v in s.arrivals():
            if not want.is_matched(u) and not want.is_matched(v):
                want.add(u, v)
        got = greedy_match(s)
        assert got.mate == want.mate


def test_greedy_perfect_matching_graph():
    g = Graph(12, [(2 * i, 2 * i + 1) for i in range(6)])
    assert len(greedy_match(make_stream(g, 0))) == 6


def test_greedy_is_half_approximate():
    rnd = random.Random(14)
    for trial in range(60):
        g = (
            random_general(rnd, rnd.randint(2, 20), 0.3)
            if trial % 2
            else random_bipartite(rnd, 6, 6, 0.4)
        )
        if not g.edges:
            continue
        s = make_stream(g, trial)
        assert 2 * len(greedy_match(s)) >= len(max_matching(g))


# ---------------------------------------------------------------------------
# full pipeline


def test_beats23_perfect_matching_ratio_one():
    g = Graph(24, [(2 * i, 2 * i + 1) for i in range(12)])
    s = make_stream(g, 2)
    out, diag = beats23_match(s, params_with_betas(0.2, 4, 3, b=2), np.random.default_rng(0))
    assert len(out) == 12


def test_beats23_soundness_invariants():
    rnd = random.Random(21)
    params = params_with_betas(0.1, 10, 9, b=4)
    for trial in range(15):
        g = random_bipartite(rnd, 20, 20, 0.2)
        if len(g.edges) < 10:
            continue
        s = make_stream(g, 300 + trial)
        out, diag = beats23_match(s, params, np.random.default_rng(trial))
        # output dominates both the augmented matching and mu(H | U)
        assert len(out) >= max(len(diag.m_aug), diag.mu_hu)
        assert len(diag.m_aug) >= len(diag.m_h)
        # every applied path has legal length and used the logged arrival edge
        # universe: odd-position edges lie in T or are that arrival's edge
        for applied in diag.applied:
            assert applied.length in (1, 3, 5)
            vs = applied.vertices
            arrival_edge = s.arrivals()[applied.arrival - 1]
            for i in range(0, len(vs) - 1, 2):
                e = edge_key(vs[i], vs[i + 1])
                assert diag.t.has_edge(*e) or e == arrival_edge


def test_beats23_m_nondecreasing_and_histogram_consistent():
    rnd = random.Random(77)
    g = random_bipartite(rnd, 25, 25, 0.15)
    s = make_stream(g, 9)
    out, diag = beats23_match(
        s, params_with_betas(0.1, 10, 9, b=4), np.random.default_rng(5)
    )
    hist = diag.path_length_histogram
    assert sum(hist.values()) == len(diag.applied)
    assert len(diag.m_aug) == len(diag.m_h) + len(diag.applied)


def test_beats23_general_graph():
    rnd = random.Random(4)
    g = random_general(rnd, 30, 0.15)
    s = make_stream(g, 12)
    out, diag = beats23_match(
        s, params_with_betas(0.2, 8, 7, b=3), np.random.default_rng(8)
    )
    assert len(out) >= diag.mu_hu
    assert len(out) <= len(max_matching(g))


@pytest.mark.parametrize("kind", ["bipartite", "general"])
def test_beats23_stages_match_sparsifier_and_build_t(kind):
    # beats23's H and U are the sparsifier's, and its T is build_t over
    # the II.A slice, on every gamma including the empty II.A
    rnd = random.Random(31)
    for trial in range(12):
        if kind == "bipartite":
            g = random_bipartite(rnd, 15, 15, 0.3)
        else:
            g = random_general(rnd, 30, 0.15)
        s = make_stream(g, 500 + trial)
        params = params_with_betas(0.3, 4, 3, gamma=(1e-12, 0.5, 2 / 3)[trial % 3], b=3)
        _, diag = beats23_match(s, params, np.random.default_rng(trial))
        sp = run_sparsifier(s, params)
        assert diag.sparsifier.h == sp.h
        assert diag.u == frozenset(sp.stream.edges_at(sp.u_index))
        split = diag.split
        iia = s.arrivals()[split.eps_cut : split.eps_cut + split.tau]
        assert diag.t.edges == build_t(*_ends_of(iia), diag.m_h, params.b).edges


def test_beats23_boundary_pass_when_tau_covers_phase2():
    # gamma just below 1 puts every Phase II edge into II.A, so no II.B
    # arrival runs; the boundary pass must still apply T's own paths
    rnd = random.Random(5)
    params = params_with_betas(0.1, 10, 9, gamma=1.0 - 1e-12, b=4)
    boundary = 0
    for trial in range(10):
        g = random_bipartite(rnd, 20, 20, 0.2)
        s = make_stream(g, 40 + trial)
        out, diag = beats23_match(s, params, np.random.default_rng(trial))
        assert diag.split.tau == diag.split.m - diag.split.eps_cut
        assert all(p.arrival is None for p in diag.applied)
        assert len(diag.m_aug) == len(diag.m_h) + len(diag.applied)
        allowed = frozenset(diag.t.edges) | diag.m_aug.edges
        assert find_augmenting_path(diag.m_aug, allowed) is None
        assert len(out) >= len(diag.m_aug)
        boundary += len(diag.applied)
    assert boundary > 0


def _beats23_cases(kind):
    """(stream, params) pairs: seeded bipartite and general streams, parity
    gadgets with tight caps (most II.B arrivals apply a path there),
    general graphs with tight caps (many II.B flips, after which some ends
    stop reaching a free vertex) and streams whose II.A covers Phase II
    (only the closing pass runs)."""
    rnd = random.Random(kind)
    if kind == "general-flips":
        params = params_with_betas(0.05, 2, 1, 2.0 / 3.0, 500)
        for seed in range(8):
            yield make_stream(random_general(rnd, 100, 0.04), seed), params
        return
    if kind == "gadget":
        params = params_with_betas(0.45, 2, 1, 2.0 / 3.0, 500)
        for seed in range(6):
            base = matched_base(20)
            inst = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(seed))
            yield make_stream(inst.graph, seed), params
        return
    gamma = 1.0 - 1e-12 if kind == "closing" else 2.0 / 3.0
    params = params_with_betas(0.1, 6, 5, gamma=gamma, b=3)
    for seed in range(8):
        if kind == "general":
            g = random_general(rnd, 40, 0.15)
        else:
            g = random_bipartite(rnd, 20, 20, 0.2)
        yield make_stream(g, seed), params


@pytest.mark.parametrize("kind", ["bipartite", "general", "gadget", "general-flips", "closing"])
def test_beats23_phase2b_and_output_match_reference(kind, monkeypatch):
    # beats23 resumes its first step, applies a later arrival with two free
    # ends at once, skips later arrivals by reach and builds M | H | U from
    # H | U; the reference restarts every search, visits every arrival and
    # builds M | H | U from scratch
    import streammatch.augmenter as augmenter

    # in call order: ("walk", end, found a free vertex), ("search", rows)
    # or ("apply", path vertices)
    events = []
    free_ends, augmenting_paths = augmenter._free_ends, augmenter._augmenting_paths
    augment = Matching.augment

    def walked(a, mate, adj):
        found = False
        for v in free_ends(a, mate, adj):
            found = True
            yield v
        events.append(("walk", a, found))

    def searched(mate, starts, rows):
        events.append(("search", list(rows)))
        return augmenting_paths(mate, starts, rows)

    def augmented(self, vertices):
        events.append(("apply", tuple(vertices)))
        return augment(self, vertices)

    monkeypatch.setattr(augmenter, "_free_ends", walked)
    monkeypatch.setattr(augmenter, "_augmenting_paths", searched)
    monkeypatch.setattr(Matching, "augment", augmented)
    arrivals_total = hit_arrivals = stepped = dead_ends = direct_total = direct_first = 0
    m_inside_hu = []  # per trial: whether M adds no edge to H | U
    for trial, (s, params) in enumerate(_beats23_cases(kind)):
        del events[:]
        out, diag = beats23_match(s, params, np.random.default_rng(trial))
        ours = list(events)
        split = diag.split
        iia_end = split.eps_cut + split.tau
        arrivals = list(enumerate(s.arrivals()[iia_end:], iia_end + 1))
        ref_m, ref_applied = reference_phase2b(diag.m_h, diag.t, arrivals or [(None, None)])
        assert [tuple(p) for p in diag.applied] == ref_applied, trial
        assert diag.m_aug == ref_m, trial
        g = s.graph
        hu = frozenset(diag.sparsifier.h.edges) | diag.u
        union = sorted(hu | ref_m.edges)
        assert out == max_matching(Graph(g.n, union, g.bipartition)), trial
        assert diag.mu_hu == len(max_matching(Graph(g.n, sorted(hu), g.bipartition)))
        m_inside_hu.append(ref_m.edges <= hu)
        arrivals_total += len(arrivals)
        hit_arrivals += len({p.arrival for p in diag.applied if p.arrival is not None})

        # a first arrival with two free ends is applied at once, as its
        # own path of length 1; then the first step is one search, whose
        # paths follow it
        m = diag.m_h.copy()
        first_step = [p for p in diag.applied if p.arrival in (None, iia_end + 1)]
        e1 = edge_key(*arrivals[0][1]) if arrivals else ()
        i = 0
        if e1 and not any(map(m.is_matched, e1)):
            assert ours[0] == ("apply", e1) and first_step[0].vertices == e1, trial
            m.augment(e1)
            first_step = first_step[1:]
            direct_first += 1
            i = 1
        assert ours[i][0] == "search", trial
        for i, p in enumerate(first_step, i + 1):
            assert ours[i] == ("apply", p.vertices), trial
            m.augment(p.vertices)
        i += 1
        # then each visited arrival is, in order, one of:
        # - its path of length 1 alone, both ends free: no walk, no search;
        # - a walk that finds no free vertex;
        # - a walk that finds one, then a walk that finds none;
        # - two walks that find one, its search and at most one path
        anchored, direct, dead = [], [], set()
        while i < len(ours):
            event = ours[i]
            if event[0] == "apply":
                path = event[1]
                assert len(path) == 2 and not any(map(m.is_matched, path)), (trial, path)
                direct.append(path)
                m.augment(path)
                i += 1
                continue
            ends = []
            while i < len(ours) and ours[i][0] == "walk":
                _, end, found = ours[i]
                assert end not in dead, (trial, end)  # a dead end is never walked again
                if not found:
                    dead.add(end)
                ends.append(end)
                i += 1
                if not found or len(ends) == 2:
                    break
            assert ends, (trial, event)
            if len(ends) < 2 or ends[-1] in dead:
                continue
            kind_of, rows = ours[i]
            assert kind_of == "search", (trial, ends)
            # the arrival's edge is the pair of rows that differ from T's
            edge = tuple(v for v, row in enumerate(rows) if tuple(row) != diag.t.adj[v])
            assert set(edge) == set(ends), (trial, edge)
            assert any(map(m.is_matched, edge)), (trial, edge)  # not two free ends
            anchored.append(edge)
            i += 1
            # its path runs through its edge; an apply that does not is the
            # next arrival's, applied at once
            if i < len(ours) and ours[i][0] == "apply" and set(edge) <= set(ours[i][1]):
                m.augment(ours[i][1])
                i += 1
        assert m == diag.m_aug, trial
        dead_ends += len(dead)
        direct_total += len(direct)
        if kind == "closing":
            assert len(ours) == 1 + len(diag.applied) and not anchored and not direct
        else:
            # the first arrival belongs to the first step; later ones are
            # applied at once or searched, anchored, only past the filter
            later = {e for _, e in arrivals[1:]}
            assert set(anchored) | set(direct) <= later
            assert len(anchored) + len(direct) < len(arrivals)
            stepped += 1 + len(anchored) + len(direct)
    # the answer is the H | U matching when M adds no edge, else a matching
    # of H | U extended by M's edges: the cases take both branches
    if kind == "bipartite":
        assert any(m_inside_hu)
    if kind == "gadget":
        assert not all(m_inside_hu)
        assert hit_arrivals >= arrivals_total / 2
        # most of the gadget's later paths are arrivals with two free ends
        assert direct_total > 0
    elif kind != "closing":
        assert hit_arrivals <= stepped < arrivals_total / 2
    if kind != "closing":
        # ends that passed `_reaching` but whose walk found no free vertex
        # after a later flip: each is marked dead, without a search
        assert dead_ends > 0
        # some first arrivals had two free ends
        assert direct_first > 0


def _fixed_order_cases():
    """(stream, params) pairs in chosen orders, not random ones: each
    graph's own edge order and its reverse, for a bipartite graph and a
    general one at caps 5/5 and b = 2, under which Phase I evicts and T's
    admission loop runs, and for a hard instance with tight caps."""
    rnd = random.Random("fixed-order")
    tight = params_with_betas(0.3, 5, 5, 2.0 / 3.0, 2)
    base = matched_base(12)
    inst = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(4))
    for g, params in ((random_bipartite(rnd, 20, 20, 0.25), tight),
                      (random_general(rnd, 40, 0.15), tight),
                      (inst.graph, params_with_betas(0.45, 2, 1, 2.0 / 3.0, 500))):
        yield EdgeStream(g, np.arange(g.m)), params
        yield EdgeStream(g, np.arange(g.m)[::-1]), params


@pytest.mark.parametrize("kind", ["bipartite", "general", "gadget", "general-flips", "closing",
                                  "fixed-order"])
def test_beats23_equals_one_pass_reference(kind):
    # beats23 runs its stages one after another, each over its own slice
    # of the stream; the reference reads the stream once, one arrival at a
    # time, into one state
    cases = _fixed_order_cases() if kind == "fixed-order" else _beats23_cases(kind)
    for trial, (s, params) in enumerate(cases):
        out, diag = beats23_match(s, params, np.random.default_rng(trial))
        ref = reference_beats23(s, params, np.random.default_rng(trial))
        sp = diag.sparsifier
        assert list(sp.h.edges) == ref.h, trial
        assert s.edges_at(sp.u_index) == ref.u, trial
        assert list(diag.t.edges) == ref.t, trial
        assert diag.m_aug == ref.m, trial
        assert [tuple(p) for p in diag.applied] == ref.applied, trial
        assert out == ref.output, trial
        assert ref.stored[-1] == sp.h.m + sp.u_size + diag.t.m + len(diag.m_aug), trial


# sha256 of the applied paths [(arrival, length, vertices)] and the sorted
# augmented matching of every `_beats23_cases` run, in the order of the
# kinds below; it pins which paths Phase II.B applies, and in what order
APPLIED_GOLDEN = "8f54a6865419a36f9c4c56e9794e3440d60fed59f5d57122543c8650f21fc0f8"


def test_beats23_applied_paths_golden():
    rows = []
    for kind in ("bipartite", "general", "gadget", "closing"):
        for trial, (s, params) in enumerate(_beats23_cases(kind)):
            _, diag = beats23_match(s, params, np.random.default_rng(trial))
            rows.append([[list(p) for p in diag.applied], sorted(diag.m_aug.edges)])
    assert {p[1] for applied, _ in rows for p in applied} == {1, 3, 5}
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == APPLIED_GOLDEN


def test_beats23_safety_cap_propagates(monkeypatch):
    import streammatch.sparsifier as sparsifier
    from streammatch import SafetyCapExceeded

    g = random_bipartite(random.Random(2), 12, 12, 0.5)
    s = make_stream(g, 1)
    params = params_with_betas(0.2, 50, 45, b=4)
    monkeypatch.setattr(sparsifier, "default_u_cap", lambda n: 3)
    with pytest.raises(SafetyCapExceeded):
        beats23_match(s, params, np.random.default_rng(0))


def test_beats23_trial_builds_each_graph_rows_once(monkeypatch):
    # at tight caps on a bipartite input H | U is not G. No graph of a
    # checked trial builds rows twice, and G builds none: beats23 finds M's
    # edges outside H | U, and check_edcs tests H against G, by sorted edge
    # codes. T builds full rows, as phase2b walks them; the exact matchings
    # of H, H | U and the census's Phase II graph build left rows
    import streammatch.graph as graph
    from streammatch import CheckConfig, GeneratorSpec, TrialConfig
    from streammatch.bench import load_instance, run_one_trial

    checks = CheckConfig(edcs=True, dichotomy_deltas=(0.1,), census=True)
    config = TrialConfig("beats23", gen=GeneratorSpec("bipartite-gnp", 60, 0.2),
                         params=params_with_betas(0.1, 4, 3), trials=5, seed=3, checks=checks)
    g = load_instance(config)
    mu_g = len(max_matching(g))
    builds = []
    rows = graph._rows

    def recording(h, left=None):
        builds.append((h, left is None))
        return rows(h, left)

    monkeypatch.setattr(graph, "_rows", recording)
    for index in range(config.trials):
        builds.clear()
        record = run_one_trial(config, g, mu_g, index)
        assert record.h_size + record.u_size < g.m, index  # H | U is not G
        built = [id(h) for h, _ in builds]
        assert len(set(built)) == len(built), index
        assert id(g) not in built, index
        full = [h for h, is_full in builds if is_full]
        assert len(full) == 1 and len(builds) >= 4, index  # T; H, H | U and the census
    assert g._adj is None
