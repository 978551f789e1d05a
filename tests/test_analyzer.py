import dataclasses
import hashlib
import math
import random

import numpy as np
import pytest

from streammatch import (
    Graph,
    Matching,
    Phase,
    UnknownEdgeError,
    build_hard_instance,
    check_dichotomy,
    check_edcs,
    classify_lucky,
    edge_key,
    make_stream,
    matched_base,
    max_matching,
    params_with_betas,
    path_census,
    phase1_cut,
    run_sparsifier,
    sample_binomial,
    trivial_family,
)
from util import random_bipartite, random_general, reference_path_census


def _sparsifier_run(seed: int, bipartite: bool = True):
    rnd = random.Random(seed)
    g = random_bipartite(rnd, 15, 15, 0.3) if bipartite else random_general(rnd, 25, 0.15)
    params = params_with_betas(0.3, 10, 8)
    s = make_stream(g, seed)
    sp = run_sparsifier(s, params)
    suffix = s.arrivals()[sp.eps_cut:]
    return g, s, sp, params, suffix


# ---------------------------------------------------------------------------
# sparsifier property checks


def test_check_edcs_passes_on_real_runs():
    for seed in range(10):
        g, s, sp, params, _ = _sparsifier_run(seed, bipartite=seed % 2 == 0)
        report = check_edcs(s, sp.h, sp.u_index, params)
        assert report.ok, report
        assert report.u_missing == () and report.u_extra == ()


def test_check_edcs_flags_degree_violation():
    # star with center degree 4: every edge has edge-degree 5 > beta_plus=4
    h = Graph(5, [(0, i) for i in range(1, 5)])
    params = params_with_betas(0.3, 4, 4)
    report = check_edcs(make_stream(h, 0), h, [], params)
    assert not report.degree_cap_ok
    assert report.cap_violations == ((0, 1), (0, 2), (0, 3), (0, 4))
    assert report.u_exact  # every Phase II edge has edge-degree 5 >= 4
    assert not report.ok


def test_check_edcs_lists_cap_violations_in_h_order():
    # H's edges come in shuffled, so `endpoints` order is not sorted order;
    # the violations are those of a per-edge scan in that order
    rnd = random.Random(21)
    partial = 0
    for trial in range(30):
        g = random_general(rnd, 20, rnd.choice([0.1, 0.2, 0.3]))
        if g.m < 4:
            continue
        pairs = [(v, u) if rnd.random() < 0.5 else (u, v) for u, v in g.edges]
        rnd.shuffle(pairs)
        h = Graph(g.n, pairs)
        cap = rnd.choice([4, 6, 8])
        params = params_with_betas(0.3, cap, cap)
        report = check_edcs(make_stream(g, trial), h, [], params)
        want = tuple(
            e for e in h.edges if len(h.adj[e[0]]) + len(h.adj[e[1]]) > cap
        )
        assert report.cap_violations == want, trial
        assert report.degree_cap_ok == (want == ())
        partial += 0 < len(want) < h.m
    assert partial >= 5


def test_check_edcs_flags_h_outside_g():
    g, s, sp, params, _ = _sparsifier_run(0)
    assert check_edcs(s, sp.h, sp.u_index, params).subgraph_ok
    # an H edge that G lacks: the first such pair, and one at the last vertex
    absent = [(u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)]
    for foreign in (absent[0], next(e for e in absent if e[1] == g.n - 1)):
        h = Graph(g.n, [*sp.h.edges, foreign])
        report = check_edcs(s, h, sp.u_index, params)
        assert not report.subgraph_ok and not report.ok
    # an H on more vertices than G, with G's edges only
    wide = Graph(g.n + 1, sp.h.edges)
    report = check_edcs(s, wide, sp.u_index, params)
    assert not report.subgraph_ok and not report.ok
    assert report.u_exact and report.degree_cap_ok
    # the check looked G's edges up by their codes, and built no rows
    assert g._adj is None


def test_check_edcs_accepts_h_on_fewer_vertices():
    # H on vertices 0..4 of a 6-vertex G: the Phase II edges at vertex 5
    # have H-degree 0 there, and the report is that of an H on all six
    g = Graph(6, [(5, i) for i in range(5)] + [(0, 1)])
    h = Graph(5, [(0, 1)])
    params = params_with_betas(0.3, 4, 3)
    s = make_stream(g, 3)
    cut = phase1_cut(len(s), params.eps)
    assert any(5 in e for e in s.arrivals()[cut:])
    u_index = [i for i, (a, b) in enumerate(s.arrivals()) if i >= cut and (a, b) != (0, 1)]
    report = check_edcs(s, h, u_index, params)
    assert report == check_edcs(s, Graph(6, [(0, 1)]), u_index, params)
    assert report.ok


def _nonempty_u_run(min_u: int = 1):
    for seed in range(20):
        run = _sparsifier_run(seed)
        if run[2].u_size >= min_u:
            return run
    pytest.fail("no run produced a large enough U")


def test_check_edcs_flags_tampered_u():
    g, s, sp, params, _ = _nonempty_u_run()
    dropped = sp.u_index[0]
    report = check_edcs(s, sp.h, sp.u_index[1:], params)
    assert not report.u_exact and not report.ok
    assert report.u_missing == (s.arrivals()[dropped],) and report.u_extra == ()
    assert report.subgraph_ok


def test_check_edcs_flags_repeated_and_unordered_indices():
    g, s, sp, params, _ = _nonempty_u_run(min_u=2)
    index = sp.u_index.tolist()
    for tampered in (index + index[-1:], index[::-1], [index[0]] + index):
        report = check_edcs(s, sp.h, tampered, params)
        # the same set of edges, so nothing is listed, yet the check fails
        assert not report.u_exact and not report.ok
        assert report.u_missing == () and report.u_extra == ()
        assert report.subgraph_ok


def test_check_edcs_flags_indices_outside_phase2():
    g, s, sp, params, _ = _nonempty_u_run()
    index = sp.u_index.tolist()
    arrivals = s.arrivals()
    # a Phase I index names an edge of G that is not a Phase II edge
    report = check_edcs(s, sp.h, [sp.eps_cut - 1] + index, params)
    assert not report.u_exact and report.subgraph_ok
    assert report.u_extra == (arrivals[sp.eps_cut - 1],) and report.u_missing == ()
    # an index outside the stream names no edge of G at all
    for bad in (-1, len(s)):
        report = check_edcs(s, sp.h, sorted(index + [bad]), params)
        assert not report.u_exact and not report.subgraph_ok
        assert report.u_missing == () and report.u_extra == ()


def test_check_edcs_lists_exact_missing_and_extra():
    runs = 0
    for seed in range(20):
        g, s, sp, params, _ = _sparsifier_run(seed)
        index = sp.u_index.tolist()
        outside = sorted(set(range(len(s))) - set(index))  # Phase I and II
        if len(index) < 2 or len(outside) < 2:
            continue
        dropped = index[-2:]
        added = [outside[0], outside[-1]]
        tampered = sorted(set(index[:-2]) | set(added))
        report = check_edcs(s, sp.h, tampered, params)
        assert not report.u_exact and report.subgraph_ok
        arrivals = s.arrivals()
        assert report.u_missing == tuple(sorted(arrivals[i] for i in dropped))
        assert report.u_extra == tuple(sorted(arrivals[i] for i in added))
        runs += 1
    assert runs >= 5


# ---------------------------------------------------------------------------
# dichotomy


def test_dichotomy_branch1_when_h_is_g():
    for delta in (0.05, 0.1, 0.2):
        rep = check_dichotomy(40, 40, 40, lam=0.01, delta=delta, bipartite=True)
        assert rep.branch1_holds and rep.holds


def test_dichotomy_branch2_when_h_empty():
    rep = check_dichotomy(40, 0, 40, lam=0.01, delta=0.1, bipartite=True)
    assert not rep.branch1_holds
    assert rep.branch2_holds and rep.holds


def test_dichotomy_constants_differ_by_case():
    bip = check_dichotomy(30, 15, 20, lam=0.05, delta=0.1, bipartite=True)
    gen = check_dichotomy(30, 15, 20, lam=0.05, delta=0.1, bipartite=False)
    assert bip.margin1 < gen.margin1  # (1-4lam) vs (1-8lam) thresholds
    assert bip.margin2 < gen.margin2


def test_dichotomy_margin_signs_match_flags():
    rep = check_dichotomy(50, 20, 30, lam=0.1, delta=0.2, bipartite=False)
    assert rep.branch1_holds == (rep.margin1 >= -1e-9)
    assert rep.branch2_holds == (rep.margin2 >= -1e-9)


def test_dichotomy_rejects_bad_delta():
    with pytest.raises(ValueError):
        check_dichotomy(10, 5, 5, lam=0.1, delta=0.0, bipartite=True)


def test_dichotomy_sweep_on_sparsifier_runs():
    for seed in range(40):
        bipartite = seed % 2 == 0
        g, _, sp, params, _ = _sparsifier_run(seed, bipartite=bipartite)
        mu_g = len(max_matching(g))
        if mu_g == 0:
            continue
        mu_h = len(max_matching(sp.h))
        mu_hu = len(
            max_matching(
                Graph(g.n, sorted(frozenset(sp.h.edges) | sp.u), g.bipartition)
            )
        )
        for delta in (0.05, 0.1, 0.2):
            rep = check_dichotomy(mu_g, mu_h, mu_hu, params.lam, delta, bipartite)
            assert rep.holds, (seed, delta, rep)


# ---------------------------------------------------------------------------
# path census


def test_census_identical_matchings():
    m = Matching(4, [(0, 1), (2, 3)])
    cen = path_census(m, m)
    assert cen.walks == ()
    assert cen.short_path_bound_holds  # 0 >= |M*| - (4/3)|M*|


def test_census_empty_m_h_gives_length_one_paths():
    m_star = Matching(6, [(0, 1), (2, 3), (4, 5)])
    cen = path_census(m_star, Matching(6))
    assert cen.counts == {1: 3, 3: 0, 5: 0}
    assert cen.short_path_bound_holds


def test_census_collects_three_and_five_paths():
    m_h = Matching(10, [(1, 2), (4, 5), (6, 7)])
    m_star = Matching(10, [(0, 1), (2, 3), (5, 6), (8, 9)])
    cen = path_census(m_star, m_h)
    # component 0-1-2-3 is a length-3 augmenting path; 4-5-6-7 is an
    # alternating path that starts with an M_H edge, so not augmenting
    assert cen.counts == {1: 1, 3: 1, 5: 0}
    lengths = sorted(len(w) - 1 for w in cen.walks)
    assert lengths == [1, 3]


def test_census_ignores_long_paths_and_cycles():
    # 4-cycle: m_h and m_star alternate; plus a length-7 augmenting path
    m_h = Matching(18, [(0, 1), (2, 3), (11, 12), (13, 14), (15, 16)])
    m_star = Matching(18, [(1, 2), (0, 3), (10, 11), (12, 13), (14, 15), (16, 17)])
    cen = path_census(m_star, m_h)
    assert cen.walks == ()


def test_census_structure_on_random_instances():
    rnd = random.Random(6)
    for trial in range(60):
        g = random_bipartite(rnd, 12, 13, 0.3)
        if not g.edges:
            continue
        m_star = max_matching(g)
        m_h = Matching(g.n)
        for u, v in g.edges:
            if rnd.random() < 0.4 and not m_h.is_matched(u) and not m_h.is_matched(v):
                m_h.add(u, v)
        cen = path_census(m_star, m_h)
        assert cen.short_path_bound_holds
        for w in cen.walks:
            assert len(w) - 1 in (1, 3, 5)
            assert not m_h.is_matched(w[0])
            assert not m_h.is_matched(w[-1])
            for i, e in enumerate(zip(w, w[1:])):
                assert (e in m_h) == (i % 2 == 1)


def _random_matching_pairs(seed: int, count: int):
    """(M*, M_H) pairs of independent random matchings on up to 40
    vertices, each pairing a random share of a shuffled vertex list: their
    symmetric differences hold cycles, long paths and paths of every
    parity, and neither matching is maximum in general."""
    rnd = random.Random(seed)

    def random_matching(n):
        order, q = rnd.sample(range(n), n), rnd.random()
        pairs = [(order[i], order[i + 1]) for i in range(0, n - 1, 2) if rnd.random() < q]
        return Matching(n, pairs)

    for _ in range(count):
        n = rnd.randint(2, 40)
        yield random_matching(n), random_matching(n)


def test_census_equals_reference():
    # the census walks only from M*-only vertices, for at most seven
    # vertices; the reference walks every component in full from either end
    # vertex n - 1 is matched by both, either or neither matching in some
    # pairs, so a walk that read mate[-1] for a free vertex would differ
    lengths = set()
    last_matched = set()
    for m_star, m_h in _random_matching_pairs(12, 2000):
        got, want = path_census(m_star, m_h), reference_path_census(m_star, m_h)
        assert got.walks == want.walks
        assert (got.m_star_size, got.m_h_size) == (want.m_star_size, want.m_h_size)
        assert got.counts == want.counts
        lengths.update(len(w) - 1 for w in got.walks)
        last_matched.add((m_star.mate[-1] >= 0, m_h.mate[-1] >= 0))
    assert lengths == {1, 3, 5}
    assert len(last_matched) == 4


def test_census_checks_each_walk():
    # a mate list whose step 1-2 lies in both matchings: the walk
    # 0-1-2-3 from the M*-only vertex 0 is not a path of M* ^ M_H
    m_star = Matching._of_mate([1, 2, 3, 2])
    m_h = Matching._of_mate([-1, 2, 1, -1])
    with pytest.raises(ValueError, match="1, 2 are not adjacent"):
        path_census(m_star, m_h)
    with pytest.raises(ValueError, match="on 4 and 5 vertices"):
        path_census(Matching(4), Matching(5))


def test_census_bound_holds_for_any_two_matchings():
    # neither matching is maximum: the bound is a counting fact about any
    # two matchings, so only a census fault can break it
    tight = 0
    for m_star, m_h in _random_matching_pairs(13, 2000):
        cen = path_census(m_star, m_h)
        assert cen.short_path_bound_holds, (m_star, m_h)
        tight += 3 * len(cen.walks) - 3 * len(m_star) + 4 * len(m_h) <= 2 and len(m_h) > 0
    assert tight > 0


# SHA-256 of the census path vertex sequences, in census order, over
# _golden_census_pairs(). It pins which paths the census reports, from
# which end each is walked and in which order they come; re-record it
# only for a change meant to alter that.
GOLDEN_CENSUS = "d8ec39705951a9c0bb67549be6ccb400f3d2768e5607001a20036e14519cd2a5"


def _golden_census_pairs():
    """(M*, M_H) pairs: 200 seeded random graphs with a maximum matching
    against a random maximal one, either way round, then parity-gadget
    instances with the bench's census pair, M* of the Phase II suffix
    and a maximum matching of H."""
    rnd = random.Random(91)
    for i in range(200):
        n = rnd.randint(10, 60)
        g = random_general(rnd, n, rnd.choice([2, 3, 4]) / n)
        m_star = max_matching(g)
        other = Matching(g.n)
        for u, v in rnd.sample(g.edges, len(g.edges)):
            if not other.is_matched(u) and not other.is_matched(v):
                other.add(u, v)
        yield (m_star, other) if i % 2 else (other, m_star)
    params = params_with_betas(0.45, 2, 1, 2.0 / 3.0, 500)
    for side, seed in ((20, 0), (20, 1), (60, 2)):
        base = matched_base(side)
        inst = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(seed))
        g = inst.graph
        s = make_stream(g, seed)
        sp = run_sparsifier(s, params)
        suffix = Graph(g.n, s.arrivals()[sp.eps_cut:], g.bipartition)
        yield max_matching(suffix), max_matching(sp.h)


def test_census_golden_paths():
    digest = hashlib.sha256()
    lengths = set()
    for m_star, m_h in _golden_census_pairs():
        cen = path_census(m_star, m_h)
        digest.update(repr(list(cen.walks)).encode())
        lengths.update(len(w) - 1 for w in cen.walks)
    assert lengths == {1, 3, 5}
    assert digest.hexdigest() == GOLDEN_CENSUS


# ---------------------------------------------------------------------------
# lucky classification


def _census_fixture():
    m_h = Matching(22, [(1, 2), (4, 5), (7, 8), (9, 10)])
    m_star = Matching(22, [(0, 1), (2, 3), (20, 21), (6, 7), (8, 9), (10, 11)])
    return path_census(m_star, m_h)


def test_classify_lucky_cases():
    cen = _census_fixture()
    assert cen.counts == {1: 1, 3: 1, 5: 1}
    phases = {}
    for w in cen.walks:
        es = [edge_key(a, b) for a, b in zip(w, w[1:])]
        if len(es) == 1:
            phases[es[0]] = Phase.IIB
        elif len(es) == 3:
            phases[es[0]] = Phase.IIA
            phases[es[1]] = Phase.I
            phases[es[2]] = Phase.IIB  # endpoint in II.B: not lucky
        else:
            phases[es[0]] = Phase.IIA
            phases[es[1]] = Phase.I
            phases[es[2]] = Phase.IIB
            phases[es[3]] = Phase.I
            phases[es[4]] = Phase.IIA
    out = classify_lucky(cen, phases)
    assert out.lucky_counts == {1: 1, 3: 0, 5: 1}


def test_classify_lucky_unknown_edge():
    cen = _census_fixture()
    with pytest.raises(UnknownEdgeError):
        classify_lucky(cen, {})


def test_classify_lucky_idempotent():
    cen = _census_fixture()
    phases = {edge_key(a, b): Phase.IIA for w in cen.walks for a, b in zip(w, w[1:])}
    first = classify_lucky(cen, phases)
    second = classify_lucky(first, phases)
    assert first.lucky == second.lucky
    assert first.walks == cen.walks


# SHA-256 over _random_matching_pairs(14, 800), each with a phase map
# drawn at random from I, II.A and II.B for its walks' edges, of the
# census walks, which of them classify_lucky marks lucky, and the lucky
# counts. It pins the lucky rule for every path length; re-record it only
# for a change meant to alter that rule.
LUCKY_GOLDEN = "f58c500841d9de5f4a758b41bff74e260847974de2c45491af904f36a85e5f29"


def test_classify_lucky_golden():
    rnd = random.Random(15)
    digest = hashlib.sha256()
    totals = {1: 0, 3: 0, 5: 0}
    for m_star, m_h in _random_matching_pairs(14, 800):
        cen = path_census(m_star, m_h)
        phases = {
            edge_key(a, b): rnd.choice((Phase.I, Phase.IIA, Phase.IIB))
            for w in cen.walks
            for a, b in zip(w, w[1:])
        }
        out = classify_lucky(cen, phases)
        # each walk classified on its own: the lucky entries of the whole
        # census are those of its lucky walks, in census order
        alone = [classify_lucky(dataclasses.replace(cen, walks=(w,)), phases) for w in cen.walks]
        assert out.lucky == tuple(x for one in alone for x in one.lucky)
        flags = [len(one.lucky) for one in alone]
        digest.update(repr((cen.walks, flags, sorted(out.lucky_counts.items()))).encode())
        for k, v in out.lucky_counts.items():
            totals[k] += v
    assert all(totals.values()), totals
    assert digest.hexdigest() == LUCKY_GOLDEN


def test_lucky_rate_small_monte_carlo():
    # 12 disjoint length-5 augmenting paths; random phase splits at
    # gamma=2/3 make each lucky with probability 4/27
    comps = 12
    m_h_edges, m_star_edges = [], []
    for c in range(comps):
        base = 6 * c
        m_h_edges += [(base + 1, base + 2), (base + 3, base + 4)]
        m_star_edges += [(base, base + 1), (base + 2, base + 3), (base + 4, base + 5)]
    n = 6 * comps
    cen = path_census(Matching(n, m_star_edges), Matching(n, m_h_edges))
    assert cen.counts[5] == comps
    edges = [edge_key(a, b) for w in cen.walks for a, b in zip(w, w[1:])]
    rng = np.random.default_rng(31337)
    trials = 400
    lucky_total = 0
    for _ in range(trials):
        perm = rng.permutation(len(edges))
        tau = sample_binomial(len(edges), 2 / 3, rng)
        phases = {}
        for rank, idx in enumerate(perm):
            phases[edges[idx]] = Phase.IIA if rank < tau else Phase.IIB
        lucky_total += classify_lucky(cen, phases).lucky_counts[5]
    assert lucky_total == 698  # exact for these seeded draws
    rate = lucky_total / (trials * comps)
    p = 4 / 27
    se = math.sqrt(p * (1 - p) / (trials * comps))
    assert abs(rate - p) <= 3 * se, rate
