import dataclasses
import math
import random

import numpy as np
import pytest

from streammatch import (
    AlgoParams,
    Graph,
    SafetyCapExceeded,
    bernstein_match,
    default_u_cap,
    make_stream,
    max_matching,
    params_with_betas,
    phase1_build_h,
    phase2_collect_u,
    run_sparsifier,
)
from streammatch.graph import _ends_of
from util import random_bipartite, random_general, reference_phase1_build_h


# ---------------------------------------------------------------------------
# parameters


def test_params_with_betas_back_solves_lambda():
    p = params_with_betas(0.05, 50, 45)
    assert p.lam == pytest.approx(0.1)
    assert p.beta_minus == 45 and p.beta_plus == 50
    # lam is read from the caps, not stored or set apart from them
    assert [f.name for f in dataclasses.fields(p)] == ["eps", "beta_plus", "beta_minus", "gamma", "b"]
    assert p.lam == 1 - 45 / 50
    with pytest.raises(AttributeError):
        p.lam = 0.2


def test_params_invariants_enforced():
    with pytest.raises(ValueError):
        AlgoParams(eps=0.1, beta_plus=50, beta_minus=55)
    with pytest.raises(ValueError):
        AlgoParams(eps=0.1, beta_plus=50, beta_minus=41, gamma=1.0)
    with pytest.raises(ValueError):
        AlgoParams(eps=0.1, beta_plus=50, beta_minus=41, b=1)
    with pytest.raises(ValueError, match="^beta_plus must be positive and finite$"):
        AlgoParams(0.1, float("nan"), 1.0)
    for eps in (0.0, 0.5, -0.1, 1.0):
        with pytest.raises(ValueError, match="eps must lie in"):
            params_with_betas(eps, 50, 41)


# ---------------------------------------------------------------------------
# Phase I


def star(leaves: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, leaves + 1)]


def test_phase1_star_caps_center_degree():
    # beta_plus=4, beta_minus=3: only the first three star edges fit, since
    # a center of degree d gives every star edge edge-degree d + 1
    params = params_with_betas(0.1, 4, 3)
    h = phase1_build_h(*_ends_of(star(5)), 6, params)
    assert len(h.edges) == 3
    assert len(h.adj[0]) == 3
    for u, v in h.edges:
        assert len(h.adj[u]) + len(h.adj[v]) <= 4


def test_phase1_loose_cap_keeps_everything():
    rnd = random.Random(31)
    g = random_bipartite(rnd, 10, 10, 0.4)
    cap = 2 * max(map(len, g.adj))
    params = params_with_betas(0.1, cap, cap)
    h = phase1_build_h(*_ends_of(g.edges), g.n, params)
    assert frozenset(h.edges) == frozenset(g.edges)


def test_phase1_empty_prefix():
    params = params_with_betas(0.1, 4, 3)
    assert phase1_build_h(*_ends_of(()), 5, params).edges == ()


def test_phase1_eviction_removes_new_edge():
    params = params_with_betas(0.1, 3, 3)
    h = phase1_build_h(*_ends_of([(0, 1), (2, 3), (1, 2)]), 4, params)
    assert frozenset(h.edges) == {(0, 1), (2, 3)}


def test_phase1_eviction_removes_old_edge():
    params = params_with_betas(0.1, 3, 3)
    h = phase1_build_h(*_ends_of([(1, 2), (0, 1), (2, 3)]), 4, params)
    assert frozenset(h.edges) == {(0, 1), (2, 3)}


def test_phase1_cap_invariant_random_runs():
    rnd = random.Random(8)
    for trial in range(30):
        g = random_bipartite(rnd, 20, 20, 0.3)
        s = make_stream(g, trial)
        params = params_with_betas(0.1, 8, 7)
        h = phase1_build_h(*s.ends(1, len(s)), g.n, params)
        for u, v in h.edges:
            assert len(h.adj[u]) + len(h.adj[v]) <= params.beta_plus
        assert len(h.edges) <= g.n * params.beta_plus


def _insert_only(prefix, n, params) -> list[tuple[int, int]]:
    """The edges Phase I would keep if it never evicted."""
    deg = [0] * n
    kept = []
    for a, b in prefix:
        if deg[a] + deg[b] < params.beta_minus:
            kept.append((min(a, b), max(a, b)))
            deg[a] += 1
            deg[b] += 1
    return kept


def _kept_at_first_scan(prefix, n, params) -> int | None:
    """How many edges Phase I holds when its first eviction scan runs,
    or None if none runs: up to that scan nothing is evicted, and a scan
    runs after the first insertion whose end u has deg(u) + top above
    floor(beta_plus), where top is the largest degree reached so far."""
    reject_from, cap = math.ceil(params.beta_minus), math.floor(params.beta_plus)
    deg = [0] * n
    top = kept = 0
    for a, b in prefix:
        if deg[a] + deg[b] >= reject_from:
            continue
        deg[a] += 1
        deg[b] += 1
        kept += 1
        top = max(top, deg[a], deg[b])
        if max(deg[a], deg[b]) + top > cap:
            return kept
    return None


# (beta_plus, beta_minus): caps that reject and evict, fractional caps,
# caps whose first eviction scan comes after 20 or more insertions, so that
# the neighbour sets it makes hold many edges, and loose caps that keep
# every edge, where the eviction scan is mostly skipped
LATE_SCAN_CAPS = [(12, 11), (10, 9)]
PHASE1_CAPS = [(3, 3), (4, 3), (8, 7), (5.5, 3.5), *LATE_SCAN_CAPS, (50, 45)]


@pytest.mark.parametrize("caps", PHASE1_CAPS, ids=lambda c: f"{c[0]}/{c[1]}")
def test_phase1_matches_reference(caps):
    # the skipped eviction scan and the integer caps build the H of the
    # per-edge loop that scans after every insertion: same edges in the
    # same order, same adjacency. phase1_build_h takes the canonical ends
    # of a stream prefix; the reference canonicalises each pair itself
    params = params_with_betas(0.1, *caps)
    rnd = random.Random(f"phase1-{caps}")
    rejected = evicted = late_scans = 0
    for trial in range(30):
        if trial % 2:
            g = random_general(rnd, rnd.randint(10, 40), rnd.choice([0.1, 0.3, 0.6]))
        else:
            side = rnd.randint(5, 20)
            g = random_bipartite(rnd, side, side, rnd.choice([0.1, 0.3, 0.6]))
        if not g.edges:
            continue
        arrivals = make_stream(g, trial).arrivals()
        prefix = [(b, a) if rnd.random() < 0.5 else (a, b) for a, b in arrivals]
        k = rnd.randint(1, len(prefix))
        prefix = prefix[:k]
        h = phase1_build_h(*_ends_of(arrivals[:k]), g.n, params, g.bipartition)
        ref = reference_phase1_build_h(prefix, g.n, params, g.bipartition)
        assert h.edges == ref.edges, trial
        assert h.adj == ref.adj, trial
        assert h.bipartition == ref.bipartition
        kept = _insert_only(prefix, g.n, params)
        rejected += len(kept) < len(prefix)
        evicted += list(h.edges) != kept
        first_scan = _kept_at_first_scan(prefix, g.n, params)
        late_scans += first_scan is not None and first_scan >= 20 and list(h.edges) != kept
    empty = phase1_build_h(*_ends_of(()), 4, params)
    assert empty.edges == reference_phase1_build_h((), 4, params).edges
    if caps == (50, 45):
        assert not rejected and not evicted
    else:
        assert rejected and evicted
    if caps in LATE_SCAN_CAPS:
        assert late_scans


# ---------------------------------------------------------------------------
# Phase II


def _collect(suffix, h, params) -> list[int]:
    """phase2_collect_u over the endpoint arrays of a list of edges."""
    lows, highs = np.array(suffix, dtype=np.int64).reshape(-1, 2).T
    index = phase2_collect_u(lows, highs, h, params)
    assert index.dtype == np.int64 or len(index) == 0
    return index.tolist()


def test_phase2_empty_h_takes_all():
    params = params_with_betas(0.1, 4, 3)
    h = Graph(6)
    suffix = [(0, 1), (3, 2), (4, 5)]
    assert _collect(suffix, h, params) == [0, 1, 2]


def test_phase2_threshold_never_met():
    params = params_with_betas(0.1, 4, 3)
    # H is a star: center degree 3, so any suffix edge touching the center
    # and a leaf has edge-degree 4 >= beta_minus
    h = Graph(5, star(3))
    assert _collect([(0, 4)], h, params) == []


def test_phase2_perfect_matching_h_includes_matched_pairs():
    params = params_with_betas(0.1, 4, 3)
    h = Graph(4, [(0, 1), (2, 3)])
    # edge between two matched vertices has edge-degree 2 < 3
    assert _collect([(0, 2)], h, params) == [0]


def test_phase2_exactness_rescan():
    rnd = random.Random(13)
    for trial in range(20):
        g = random_bipartite(rnd, 15, 15, 0.35)
        s = make_stream(g, 100 + trial)
        params = params_with_betas(0.3, 8, 7)
        sp = run_sparsifier(s, params)
        suffix = s.arrivals()[sp.eps_cut:]
        recomputed = {
            e for e in suffix if len(sp.h.adj[e[0]]) + len(sp.h.adj[e[1]]) < params.beta_minus
        }
        assert recomputed == set(sp.stream.edges_at(sp.u_index))


@pytest.mark.parametrize("kind", ["bipartite", "general"])
def test_u_index_equals_per_edge_rule(kind):
    # U's indices are those the per-edge scan keeps, ascending, and
    # `edges_at` gives U as the same stream tuples that scan built
    rnd = random.Random(kind)
    for trial in range(20):
        if kind == "bipartite":
            g = random_bipartite(rnd, 20, 20, rnd.choice([0.1, 0.25, 0.5]))
        else:
            g = random_general(rnd, 40, rnd.choice([0.05, 0.15, 0.3]))
        if len(g.edges) < 10:
            continue
        s = make_stream(g, trial)
        params = params_with_betas(0.2, rnd.choice([4, 8, 12]), rnd.choice([2, 3, 4]))
        sp = run_sparsifier(s, params)
        deg = tuple(map(len, sp.h.adj))
        arrivals = s.arrivals()
        want = [
            i for i in range(sp.eps_cut, len(s))
            if deg[arrivals[i][0]] + deg[arrivals[i][1]] < params.beta_minus
        ]
        assert sp.u_index.tolist() == want
        assert sp.u_size == len(want)
        u = s.edges_at(sp.u_index)
        assert u == [arrivals[i] for i in want]
        assert all(e is arrivals[i] for e, i in zip(u, want))


def test_phase2_safety_cap(monkeypatch):
    import streammatch.sparsifier as sparsifier

    params = params_with_betas(0.1, 4, 3)
    h = Graph(8)
    suffix = [(0, 1), (2, 3), (4, 5), (6, 7)]
    monkeypatch.setattr(sparsifier, "default_u_cap", lambda n: 2)
    assert _collect(suffix[:2], h, params) == [0, 1]  # |U| at the cap
    with pytest.raises(SafetyCapExceeded, match="safety cap of 2"):
        _collect(suffix[:3], h, params)  # one above it
    # edges outside U do not count towards the cap
    h_star = Graph(8, star(3))
    assert _collect([(0, 4), (4, 5), (0, 5), (6, 7)], h_star, params) == [1, 3]
    assert default_u_cap(200) == 200 * 8 * 32


# ---------------------------------------------------------------------------
# end to end


def test_bernstein_perfect_matching_graph():
    g = Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    s = make_stream(g, 3)
    out = bernstein_match(s, params_with_betas(0.2, 4, 3))
    assert len(out) == 10


def test_bernstein_huge_cap_is_exact():
    rnd = random.Random(55)
    g = random_bipartite(rnd, 15, 15, 0.3)
    s = make_stream(g, 5)
    cap = 4 * max(map(len, g.adj)) + 4
    out = bernstein_match(s, params_with_betas(0.2, cap, cap))
    assert len(out) == len(max_matching(g))


def test_bernstein_desk_scale_ratios_reported():
    # mean ratio at desk scale is recorded, not asserted against the
    # asymptotic guarantee; sanity: ratios are valid fractions
    rnd = random.Random(19)
    g = random_bipartite(rnd, 60, 60, 0.08)
    mu = len(max_matching(g))
    params = params_with_betas(0.05, 50, 45)
    ratios = []
    for seed in range(10):
        out = bernstein_match(make_stream(g, seed), params)
        ratios.append(len(out) / mu)
    mean = sum(ratios) / len(ratios)
    print(f"bernstein desk-scale mean ratio: {mean:.4f}")
    assert all(0.0 < r <= 1.0 for r in ratios)
