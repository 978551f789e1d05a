"""Shared test helpers: small random instance makers, independent
brute-force oracles, and the references that the library code must
agree with: the adjacency fill, textbook Hopcroft-Karp, the blossom
search without tree pruning, the unanchored Phase II.B loop, the
per-edge Phase I and Phase II.A loops, beats23 as one pass over the
stream, the per-matching induced-family check and the census that walks
every component in full.

The references that walk a matching walk a vertex -> partner dict
(`partner_dict`), not the library's mate list, so that a fault in a
mate-list walk, such as reading mate[-1] for a free vertex, shows up
as a disagreement."""

from __future__ import annotations

import random
from bisect import bisect_left
from collections import deque
from typing import Container, Iterable, Iterator, NamedTuple, Sequence

from streammatch import Graph, Matching, PathCensus, edge_key, phase1_cut
from streammatch.graph import (
    Edge,
    NotAugmentingError,
    _ends_of,
    _graph_of_canonical,
    _greedy_mates,
)


def checked_walk(vertices: Iterable[int], allowed: Container[Edge]) -> tuple[int, ...]:
    """The vertices as a tuple, once checked to be a simple path over the
    canonical edges of `allowed`: at least two vertices, pairwise
    distinct, and each consecutive pair an edge of `allowed`. Raises
    ValueError otherwise."""
    vs = tuple(vertices)
    if len(vs) < 2:
        raise ValueError("a path needs at least two vertices")
    if len(set(vs)) != len(vs):
        raise ValueError("path vertices must be pairwise distinct")
    for a, b in zip(vs, vs[1:]):
        if edge_key(a, b) not in allowed:
            raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")
    return vs


def partner_dict(m: Matching) -> dict[int, int]:
    """The matching's vertex -> partner table, in ascending vertex order:
    the form every matching walk in this module reads."""
    return {v: w for v, w in enumerate(m.mate) if w >= 0}


def reference_augment(partner: dict[int, int], vertices: Sequence[int]) -> dict[int, int]:
    """The partner table after flipping the augmenting path `vertices`,
    as a new dict: `Matching.augment` must give the same table. Raises
    NotAugmentingError unless the path has odd length, distinct
    vertices, unmatched endpoints and every second edge matched."""
    vs = list(vertices)
    if not vs or len(vs) % 2 or len(set(vs)) != len(vs):
        raise NotAugmentingError("not an odd path on distinct vertices")
    if vs[0] in partner or vs[-1] in partner:
        raise NotAugmentingError("path endpoints must be unmatched")
    if any(partner.get(u) != v for u, v in zip(vs[1:-1:2], vs[2:-1:2])):
        raise NotAugmentingError("alternation fails")
    out = dict(partner)
    for u, v in zip(vs[::2], vs[1::2]):
        out[u] = v
        out[v] = u
    return out


def reference_augmenting_path(partner: dict[int, int], starts, adj) -> list[int] | None:
    """First augmenting path of length 1, 3 or 5 by a fresh search over
    the partner table: shortest first, then from the lowest free start,
    then by ascending neighbour index. Every path the library's resumed
    search `augmenter._augmenting_paths` yields, where no edge has two
    free ends, must be this one, taken on the matching as it stands when
    the path is yielded."""
    free = [u for u in starts if u not in partner]
    for u in free:
        for v in adj[u]:
            if v not in partner:
                return [u, v]
    for u in free:
        for x1 in adj[u]:
            x2 = partner.get(x1)
            if x2 is None:
                continue
            for w in adj[x2]:
                if w != u and w not in partner:
                    return [u, x1, x2, w]
    for u in free:
        for x1 in adj[u]:
            x2 = partner.get(x1)
            if x2 is None:
                continue
            for x3 in adj[x2]:
                if x3 == x1 or x3 == u or x3 not in partner:
                    continue
                x4 = partner[x3]
                for w in adj[x4]:
                    if w != u and w not in partner:
                        return [u, x1, x2, x3, x4, w]
    return None


def reference_free_ends(a: int, partner: dict[int, int], adj) -> list[int]:
    """The free vertices, with repeats, that the walk from `a` over the
    partner table reaches: `a` if free, else mate -> neighbour, then once
    more mate -> neighbour. `augmenter._free_ends` must yield the same."""
    if a not in partner:
        return [a]
    ends = []
    for y in adj[partner[a]]:
        if y not in partner:
            ends.append(y)
            continue
        ends.extend(w for w in adj[partner[y]] if w not in partner)
    return ends


def reference_fill(n: int, edges: Iterable[tuple[int, int]]):
    """Adjacency of a graph on n vertices by appending each edge's
    ends to two per-vertex lists and sorting each list: the fill that
    `Graph` must agree with."""
    lists: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        lists[a].append(b)
        lists[b].append(a)
    for lst in lists:
        lst.sort()
    return tuple(map(tuple, lists))


def reference_hopcroft_karp(n: int, adj, left: list[int]) -> list[int]:
    """Hopcroft-Karp on a bipartite graph; returns the mate array (-1 = free).

    The textbook form, with a BFS in every phase and every left vertex
    as a root: `graph._hopcroft_karp` must return the same mate array."""
    mate = [-1] * n
    INF = n + 1
    dist = [INF] * n
    while True:
        queue = deque()
        for u in left:
            if mate[u] == -1:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = INF
        reach = INF
        while queue:
            u = queue.popleft()
            if dist[u] >= reach:
                continue
            for v in adj[u]:
                w = mate[v]
                if w == -1:
                    if reach == INF:
                        reach = dist[u] + 1
                elif dist[w] == INF:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        if reach == INF:
            return mate
        for root in left:
            if mate[root] == -1:
                _reference_hk_augment(root, adj, mate, dist)


def _reference_hk_augment(root: int, adj, mate: list[int], dist: list[int]) -> bool:
    """Iterative layered DFS from one free left vertex; augments in place."""
    stack: list[tuple[int, Iterator[int], int]] = [(root, iter(adj[root]), -1)]
    while stack:
        u, it, _via = stack[-1]
        pushed = False
        for v in it:
            w = mate[v]
            if w == -1:
                mate[u] = v
                mate[v] = u
                for j in range(len(stack) - 2, -1, -1):
                    uj = stack[j][0]
                    vj = stack[j + 1][2]
                    mate[uj] = vj
                    mate[vj] = uj
                return True
            if dist[w] == dist[u] + 1:
                stack.append((w, iter(adj[w]), v))
                pushed = True
                break
        if not pushed:
            dist[u] = len(dist) + 1  # dead end for this phase
            stack.pop()
    return False


def random_general(rnd: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n) if rnd.random() < p]
    return Graph(n, edges)


def random_bipartite(rnd: random.Random, left: int, right: int, p: float) -> Graph:
    edges = [
        (i, left + j) for i in range(left) for j in range(right) if rnd.random() < p
    ]
    return Graph(left + right, edges, (range(left), range(left, left + right)))


def random_instance(rnd: random.Random, max_n: int = 10) -> Graph:
    """Mixed bipartite/general instance with at most max_n vertices."""
    p = rnd.choice([0.1, 0.2, 0.4, 0.6, 0.9])
    if rnd.random() < 0.5:
        n = rnd.randint(1, max_n)
        return random_general(rnd, n, p)
    left = rnd.randint(1, max_n // 2)
    right = rnd.randint(1, max_n - left)
    return random_bipartite(rnd, left, right, p)


def random_matched_graphs(
    seed: int, count: int, max_n: int = 14
) -> Iterator[tuple[Graph, Matching]]:
    """(g, m) pairs: seeded random general and bipartite graphs with at
    least two vertices, each with a random matching of its own edges.
    In every other pair the last vertex n-1 is matched when it has an
    edge, in the others it is left free, so that a walk that reads
    mate[-1] for a free vertex would read a real mate in some pairs."""
    rnd = random.Random(seed)
    for i in range(count):
        g = random_instance(rnd, max_n)
        if g.n < 2:
            continue
        last = g.n - 1
        m = Matching(g.n)
        edges = rnd.sample(g.edges, len(g.edges))
        if i % 2:
            edges = [e for e in edges if last not in e]
        else:
            edges.sort(key=lambda e: last not in e)  # an edge at n-1 first
        q = rnd.random()
        for u, v in edges:
            if (last in (u, v) or rnd.random() < q) and not (m.is_matched(u) or m.is_matched(v)):
                m.add(u, v)
        yield g, m


def enumerate_matchings(g: Graph):
    """Yield every matching of g as a frozenset of edges (includes empty)."""
    edges = g.edges

    def rec(i: int, used: set[int], chosen: list):
        if i == len(edges):
            yield frozenset(chosen)
            return
        yield from rec(i + 1, used, chosen)
        u, v = edges[i]
        if u not in used and v not in used:
            used.add(u)
            used.add(v)
            chosen.append(edges[i])
            yield from rec(i + 1, used, chosen)
            chosen.pop()
            used.discard(u)
            used.discard(v)

    yield from rec(0, set(), [])


def maximum_matchings(g: Graph) -> tuple[int, list[frozenset]]:
    """(mu, all maximum matchings) by exhaustive enumeration."""
    best = 0
    collected: list[frozenset] = []
    for m in enumerate_matchings(g):
        if len(m) > best:
            best = len(m)
            collected = [m]
        elif len(m) == best and best > 0:
            collected.append(m)
    return best, collected


def exists_augmenting(matching: Matching, allowed, max_len: int) -> bool:
    """Exhaustive search for an augmenting path of odd length <= max_len,
    independent of the library's structured search."""
    allowed_set = {edge_key(u, v) for u, v in allowed}
    adj: dict[int, set[int]] = {}
    for u, v in allowed_set:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)

    def extend(v: int, visited: frozenset, next_matching: bool, length: int) -> bool:
        for w in sorted(adj.get(v, ())):
            if w in visited:
                continue
            if (edge_key(v, w) in matching) != next_matching:
                continue
            if length + 1 > max_len:
                continue
            if not next_matching and not matching.is_matched(w):
                return True
            if extend(w, visited | {w}, not next_matching, length + 1):
                return True
        return False

    for start in sorted(adj):
        if not matching.is_matched(start):
            if extend(start, frozenset({start}), False, 0):
                return True
    return False


def find_augmenting_path(
    matching: Matching, allowed: Iterable[tuple[int, int]], max_len: int = 5
) -> tuple[int, ...] | None:
    """Vertices of the first augmenting path for `matching` inside the
    `allowed` edge set, of odd length <= max_len, or None.

    Search order is deterministic: path lengths 1, 3, 5 in turn, and
    within a length the lowest-index free vertex first, then ascending
    neighbor index. `allowed` must contain every matching edge.
    """
    if max_len not in (1, 3, 5):
        raise ValueError("max_len must be 1, 3, or 5")
    allowed_set = {edge_key(u, v) for u, v in allowed}
    for e in matching.edges:
        if e not in allowed_set:
            raise ValueError(f"allowed set is missing matching edge {e}")
    adj: dict[int, list[int]] = {}
    for u, v in allowed_set:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    for lst in adj.values():
        lst.sort()
    # the first path found is a shortest one, so none fits when it does
    # not; every vertex that a search reaches is an end of an allowed
    # edge, so it is a key of adj
    verts = reference_augmenting_path(partner_dict(matching), sorted(adj), adj)
    if verts is None or len(verts) - 1 > max_len:
        return None
    return checked_walk(verts, allowed_set)


def apply_augmenting_path(matching: Matching, path: Sequence[int]) -> Matching:
    """Matching obtained by flipping the edges of the path `path`, given
    as its vertices, in and out of the matching; the result is one edge
    larger and `matching` is unchanged."""
    result = matching.copy()
    result.augment(path)
    return result


def _reference_augment(m: Matching, allowed: frozenset, pos, applied: list) -> Matching:
    """One Phase II.B step: apply the first augmenting path of length <= 5
    in M | allowed until none is left, appending (pos, length, vertices)
    to `applied` for each. Returns the augmented copy of m."""
    while (path := find_augmenting_path(m, allowed | m.edges)) is not None:
        m = apply_augmenting_path(m, path)
        applied.append((pos, len(path) - 1, path))
    return m


def reference_phase2b(m_h, t, arrivals):
    """Phase II.B by the definition: after each arrival e, apply the first
    augmenting path of length <= 5 in M | T | {e} until none is left. An
    arrival e of None is a pass over M | T alone."""
    m = m_h.copy()
    applied = []
    t_edges = frozenset(t.edges)
    for pos, e in arrivals:
        m = _reference_augment(m, t_edges | ({edge_key(*e)} if e else set()), pos, applied)
    return m, applied


def _reference_t_step(t: list[Edge], deg: list[int], matched: Container[int], e, b: int) -> None:
    """One Phase II.A arrival e: append it to t iff exactly one end is in
    `matched`, that end has T-degree below 2 and the other below b."""
    x, y = e
    x_in = x in matched
    if x_in == (y in matched):
        return
    v, u = (x, y) if x_in else (y, x)
    if deg[v] < 2 and deg[u] < b:
        t.append(edge_key(x, y))
        deg[v] += 1
        deg[u] += 1


def reference_build_t(phase2a, m_h: Matching, b: int, n: int) -> Graph:
    """Phase II.A by the definition, one dict lookup per arrival: keep an
    edge with exactly one M_H-matched end iff that end has T-degree below
    2 and the other below b. `augmenter.build_t` must build the same T."""
    if b < 2:
        raise ValueError("b must be at least 2")
    matched = partner_dict(m_h)
    deg = [0] * n
    chosen: list[Edge] = []
    for e in phase2a:
        _reference_t_step(chosen, deg, matched, e, b)
    return _graph_of_canonical(n, _ends_of(chosen))


def _reference_h_step(present: dict[Edge, None], adj: list[set[int]], deg: list[int],
                      e, params) -> None:
    """One Phase I arrival e: insert it iff its edge-degree in H is below
    beta_minus, then evict the lexicographically smallest edge of H above
    beta_plus until none is left, scanning every edge at e's ends."""
    u, v = e = edge_key(*e)
    if e in present:
        raise ValueError(f"parallel edge {e} in prefix")
    if deg[u] + deg[v] >= params.beta_minus:
        return
    present[e] = None
    adj[u].add(v)
    adj[v].add(u)
    deg[u] += 1
    deg[v] += 1
    while True:
        worst: Edge | None = None
        for x in (u, v):
            dx = deg[x]
            for y in adj[x]:
                if dx + deg[y] > params.beta_plus:
                    cand = edge_key(x, y)
                    if worst is None or cand < worst:
                        worst = cand
        if worst is None:
            return
        wu, wv = worst
        del present[worst]
        adj[wu].discard(wv)
        adj[wv].discard(wu)
        deg[wu] -= 1
        deg[wv] -= 1


def reference_phase1_build_h(prefix, n: int, params, bipartition=None) -> Graph:
    """Phase I with the eviction scan after every insertion:
    `sparsifier.phase1_build_h` must build the same H."""
    deg = [0] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    present: dict[Edge, None] = {}
    for e in prefix:
        _reference_h_step(present, adj, deg, e, params)
    return Graph(n, list(present), bipartition)


def _reference_max_matching(n: int, edges: Iterable[Edge], bipartition) -> Matching:
    """A maximum matching by `reference_hopcroft_karp` with a bipartition,
    else by `reference_blossom`, over the sorted rows of `edges`."""
    adj = reference_fill(n, edges)
    if bipartition is None:
        mate = reference_blossom(n, adj)
    else:
        mate = reference_hopcroft_karp(n, adj, sorted(bipartition[0]))
    return Matching(n, [(v, w) for v, w in enumerate(mate) if v < w])


class ReferenceRun(NamedTuple):
    h: list[Edge]  # in arrival order
    u: list[Edge]  # in arrival order
    t: list[Edge]  # in admission order
    m: Matching  # M after Phase II.B
    applied: list[tuple]  # (arrival position or None, length, vertices)
    output: Matching  # a maximum matching of M | H | U
    stored: list[int]  # |H| + |U| + |T| + |M| after each arrival


def reference_beats23(stream, params, rng) -> ReferenceRun:
    """beats23 as one pass over e_1..e_m in order, with one state that
    every arrival updates. The Phase II.A length tau is drawn from rng as
    `split_phases` draws it.

    - Phase I (positions up to `phase1_cut`): H takes e, with its
      evictions. After the last one, M_H is fixed as a maximum matching
      of H, and M starts as M_H.
    - Phase II: U takes e when its edge-degree in H is below beta_minus.
      In Phase II.A, the next tau positions, T takes e by the
      (2, b)-matching rule over M_H's matched vertices. In Phase II.B,
      augmenting paths of length <= 5 in M | T | {e} are applied until
      none is left; with no II.B arrival, the same step runs once over
      M | T alone after e_m.
    - The output is a maximum matching of M | H | U.

    The exact matchings come from `reference_hopcroft_karp` on a
    bipartite input and `reference_blossom` otherwise."""
    g = stream.graph
    n = g.n
    arrivals = stream.arrivals()
    cut = phase1_cut(len(arrivals), params.eps)
    tau = int((rng.random(len(arrivals) - cut) < params.gamma).sum())
    h: dict[Edge, None] = {}
    h_adj: list[set[int]] = [set() for _ in range(n)]
    h_deg = [0] * n
    u: list[Edge] = []
    t: list[Edge] = []
    t_deg = [0] * n
    m = Matching(n)
    matched: dict[int, int] = {}  # M_H's partner table
    applied: list[tuple] = []
    stored: list[int] = []
    for pos, e in enumerate(arrivals, 1):
        if pos <= cut:
            _reference_h_step(h, h_adj, h_deg, e, params)
            if pos == cut:
                m = _reference_max_matching(n, h, g.bipartition)
                matched = partner_dict(m)
        else:
            if h_deg[e[0]] + h_deg[e[1]] < params.beta_minus:
                u.append(e)
            if pos <= cut + tau:
                _reference_t_step(t, t_deg, matched, e, params.b)
            else:
                m = _reference_augment(m, frozenset(t) | {e}, pos, applied)
        if pos == len(arrivals) == cut + tau:
            m = _reference_augment(m, frozenset(t), None, applied)
        stored.append(len(h) + len(u) + len(t) + len(m))
    output = _reference_max_matching(n, set(h) | set(u) | m.edges, g.bipartition)
    return ReferenceRun(list(h), u, t, m, applied, output, stored)


def reference_verify_induced(g: Graph, matchings: Sequence[Iterable[tuple[int, int]]]) -> bool:
    """True iff the matchings are pairwise edge-disjoint induced matchings
    of g: each is a matching, no edge repeats across them, and no g-edge
    joins two vertices matched by the same M_i unless it belongs to M_i.
    This walks every g-edge once per matching: `instances.verify_induced`
    must give the same answer."""
    normed: list[frozenset[Edge]] = []
    used: set[Edge] = set()
    for matching in matchings:
        edges = frozenset(edge_key(u, v) for u, v in matching)
        # in range first: adj[-1] would read the last vertex's row
        if not all(0 <= u and v < g.n for u, v in edges):
            return False
        for u, v in edges:
            row = g.adj[u]
            i = bisect_left(row, v)
            if i == len(row) or row[i] != v:
                return False
        verts: set[int] = set()
        for u, v in edges:
            if u in verts or v in verts:
                return False
            verts.add(u)
            verts.add(v)
        if edges & used:
            return False
        used |= edges
        normed.append(edges)
    for edges in normed:
        verts = {v for e in edges for v in e}
        for u, v in g.edges:
            if u in verts and v in verts and edge_key(u, v) not in edges:
                return False
    return True


def reference_blossom(n: int, adj) -> list[int]:
    """Blossom-contraction augmenting search for general graphs, which
    explores a failed search's tree again from every later root:
    `graph._blossom` must return the same mate array.

    A greedy initial matching keeps the number of searches small. One
    search from a free root costs time in the alternating tree T it grows,
    not in n: a BFS over the adjacency lists of T's vertices, plus, per
    blossom contraction, a walk over the blossom's cycle and a relabel of
    the members of the bases it merges, so at worst O(|E(T)| + |T|^2).
    Each contraction sorts only the vertices it makes even, which puts
    them in the queue in the order a scan of T in ascending order would.
    Its state lives in three length-n arrays that are allocated once per
    call and reset only where the search wrote, plus a member list per
    contracted blossom, and roots without neighbours are skipped.
    """
    mate, roots = _greedy_mates(n, adj, range(n))
    used = [False] * n
    parent = [-1] * n
    base = list(range(n))
    tree: list[int] = []  # vertices whose entries the current search wrote
    members: dict[int, list[int]] = {}  # contracted blossom's base -> its vertices

    def lca(a: int, b: int) -> int:
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if b in seen:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stem: int, child: int, blossom: set[int]) -> None:
        while base[v] != stem:
            blossom.add(base[v])
            blossom.add(base[mate[v]])
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting(root: int) -> None:
        tree.append(root)
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    stem = lca(v, to)
                    blossom: set[int] = set()
                    mark_path(v, stem, to, blossom)
                    mark_path(to, stem, v, blossom)
                    # the stem and its members are even already, so only
                    # the other bases' members are relabeled; the newly
                    # even ones join the queue in ascending order
                    grown = members.setdefault(stem, [stem])
                    newly_even = []
                    for b in blossom:
                        if b == stem:
                            continue
                        inner = members.pop(b, None) or (b,)
                        for i in inner:
                            base[i] = stem
                            if not used[i]:
                                newly_even.append(i)
                        grown.extend(inner)
                    newly_even.sort()
                    for i in newly_even:
                        used[i] = True
                        queue.append(i)
                elif parent[to] == -1:
                    # neither to nor its mate is in the tree yet
                    tree.append(to)
                    parent[to] = v
                    if mate[to] == -1:
                        cur = to
                        while cur != -1:
                            prev = parent[cur]
                            nxt = mate[prev]
                            mate[cur] = prev
                            mate[prev] = cur
                            cur = nxt
                        return
                    tree.append(mate[to])
                    used[mate[to]] = True
                    queue.append(mate[to])

    for v in roots:
        if mate[v] == -1:
            find_augmenting(v)
            for u in tree:
                used[u] = False
                parent[u] = -1
                base[u] = u
            tree.clear()
            members.clear()
    return mate


def reference_path_census(m_star: Matching, m_h: Matching) -> PathCensus:
    """Collect the augmenting paths for m_h of length at most five in
    m_star ^ m_h, walking every component from either end in full:
    `analyzer.path_census` must return the same paths in the same order.

    Components of a symmetric difference are paths or even cycles. A path
    component ends at the vertices that only one of the two matchings
    covers, and is walked from its lower end by alternating the two
    partner tables. It augments m_h exactly when its end edges come from
    m_star, which makes its length odd. Cycles have no such end and are
    never walked.
    """
    star = partner_dict(m_star)
    h = partner_dict(m_h)
    diff = m_star.edges ^ m_h.edges
    far_ends: set[int] = set()
    walks: list[tuple[int, ...]] = []
    for v in sorted(star.keys() ^ h.keys()):
        if v in far_ends:
            continue
        seq = [v]
        this, other = (star, h) if v in star else (h, star)
        nxt = this.get(v)
        while nxt is not None:
            seq.append(nxt)
            this, other = other, this
            nxt = this.get(nxt)
        far_ends.add(seq[-1])
        if v in star and len(seq) % 2 == 0 and len(seq) <= 6:
            walks.append(checked_walk(seq, diff))
    return PathCensus(tuple(walks), m_star_size=len(m_star), m_h_size=len(m_h))
