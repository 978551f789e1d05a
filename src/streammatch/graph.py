"""Graph and matching primitives, the exact maximum-matching oracles and
the edge-list file format.

Vertices are dense integers 0..n-1. Edges are unordered pairs stored in
canonical (min, max) form; self-loops and parallel edges are rejected.
All tie-breaking is by lowest vertex index so results are reproducible.
"""

from __future__ import annotations

from collections import deque
from itertools import accumulate, chain, compress
from operator import index
from typing import Iterable, Iterator, Sequence

import numpy as np

Edge = tuple[int, int]

BRUTE_FORCE_VERTEX_LIMIT = 16


class NotBipartiteError(ValueError):
    """An operation required a bipartition tag that is absent."""


class NotAugmentingError(ValueError):
    """The supplied path does not augment the given matching."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


MAX_VERTICES = 2**31 - 1  # largest n whose adjacency codes v * n + w fit in int64


def _check_vertex_count(n: int) -> None:
    if n < 0:
        raise ValueError("vertex count must be non-negative")
    if n > MAX_VERTICES:
        raise ValueError(f"vertex count {n} is above the limit of {MAX_VERTICES}")


def _first_edge_error(n: int, edges: Iterable[tuple[int, int]]) -> ValueError:
    """Error for the first edge, in input order, that has an end that is
    not an integer, is a self-loop, is out of range for n vertices, or
    repeats an earlier edge."""
    seen: set[Edge] = set()
    for u, v in edges:
        try:
            index(u), index(v)
        except TypeError:
            return ValueError(f"edge ({u!r}, {v!r}) has an end that is not an integer")
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u}, {v}) out of range for n={n}")
        e = edge_key(u, v)
        if e in seen:
            return ValueError(f"parallel edge {e}")
        seen.add(e)
    raise AssertionError("no offending edge found")


def _ends_of(edges: Sequence[Edge]) -> tuple[np.ndarray, np.ndarray]:
    """(first ends, second ends) of a sequence of pairs as int64 arrays.
    Each end goes through `operator.index`, which raises TypeError for a
    float or a string, where numpy alone would truncate or parse it."""
    pairs = np.fromiter(map(index, chain.from_iterable(edges)), np.int64, 2 * len(edges))
    return pairs[0::2], pairs[1::2]


_vertex_table = np.arange(0).astype(object)


def _vertex_ints(n: int) -> np.ndarray:
    """Object array of the ints 0..n-1, drawn from one table for the whole
    process and extended on demand, so that every graph's edges and
    adjacency lists hold the same int object for a vertex. Dict and set
    lookups across graphs then match vertices by identity: with a table
    per graph, the exact matchings and the census of a gadget-tight trial
    ran 10-20% slower in process."""
    global _vertex_table
    have = len(_vertex_table)
    if have < n:
        _vertex_table = np.concatenate((_vertex_table, np.arange(have, n).astype(object)))
    return _vertex_table[:n]


class Graph:
    """Simple undirected graph with adjacency lists and an optional
    (left, right) bipartition tag.

    The one edge store is `endpoints`, the (low, high) ends of the edges
    as int64 arrays; `m` is the edge count. Everything else is built from
    it on first read and kept: the adjacency `adj`, the edge tuples as
    the object array `edge_array`, and, on the first `max_matching` call,
    the mate array. Adjacency lists are sorted so that every index-based
    search in this package is deterministic, and they are a canonical
    form of the edge set: graphs compare and hash by (n, adj,
    bipartition), and a vertex's degree is the length of its row. A
    bipartite graph that is only solved never builds `adj`: Hopcroft-Karp
    gets the left side's rows alone. Edge membership reads `codes`, the
    sorted edge codes low * n + high, which the constructor keeps from its
    duplicate check, and never needs the rows (`_lacking`).

    The constructor checks edges that come from outside the package;
    `_graph_of_canonical` builds a graph from the package's own arrays
    and checks nothing.
    """

    __slots__ = ("n", "m", "endpoints", "bipartition", "_adj", "_codes", "_edge_array", "_mate")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        bipartition: tuple[Iterable[int], Iterable[int]] | None = None,
    ):
        _check_vertex_count(n)
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        try:
            if edges and set(map(len, edges)) != {2}:
                raise ValueError
            firsts, seconds = _ends_of(edges)
        except (TypeError, ValueError, OverflowError):
            # not pairs of int64s: the scan names the fault
            raise _first_edge_error(n, edges) from None
        lows = np.minimum(firsts, seconds)
        highs = np.maximum(firsts, seconds)
        codes = np.sort(lows * n + highs)
        # a repeated edge gives equal neighbouring codes; the bipartition
        # is checked after the edges
        if len(codes) and (lows.min() < 0 or highs.max() >= n or (lows == highs).any()
                           or (codes[1:] == codes[:-1]).any()):
            raise _first_edge_error(n, zip(firsts.tolist(), seconds.tolist()))
        if bipartition is not None:
            left = frozenset(bipartition[0])
            right = frozenset(bipartition[1])
            if left & right:
                raise ValueError("bipartition sides overlap")
            if left | right != frozenset(range(n)):
                raise ValueError("bipartition must cover all vertices")
            side = np.zeros(n, bool)
            side[np.fromiter(left, np.int64, len(left))] = True
            same = np.flatnonzero(side[lows] == side[highs])
            if len(same):
                a, b = lows[same[0]], highs[same[0]]
                raise ValueError(f"edge ({a}, {b}) does not cross the bipartition")
            bipartition = (left, right)
        _fill_graph(self, n, (lows, highs), bipartition)
        self._codes = codes

    @property
    def adj(self) -> tuple[tuple[int, ...], ...]:
        """The sorted adjacency rows, one per vertex, built from
        `endpoints` on first read (`_rows`)."""
        adj = self._adj
        if adj is None:
            adj = self._adj = _rows(self)
        return adj

    @property
    def codes(self) -> np.ndarray:
        """The edges' codes low * n + high as one ascending int64 array,
        built from `endpoints` on first read and kept. They fit in int64
        since n <= MAX_VERTICES."""
        codes = self._codes
        if codes is None:
            lows, highs = self.endpoints
            codes = self._codes = np.sort(lows * self.n + highs)
        return codes

    @property
    def edges(self) -> tuple[Edge, ...]:
        """The canonical edges as (low, high) tuples in `endpoints` order:
        a new outer tuple on every read, holding the tuples of
        `edge_array`."""
        return tuple(self.edge_array.tolist())

    @property
    def edge_array(self) -> np.ndarray:
        """The canonical edges as a 1-D object array of (low, high) tuples
        in `endpoints` order, built on first use; a vertex is one int
        object (`_vertex_ints`)."""
        arr = self._edge_array
        if arr is None:
            vertex = _vertex_ints(self.n)
            lows, highs = self.endpoints
            pairs = zip(vertex[lows].tolist(), vertex[highs].tolist())
            arr = self._edge_array = np.fromiter(pairs, object, self.m)
        return arr

    def __reduce__(self):
        # a pickle carries the edge store alone: the caches, the adjacency
        # among them, are built again on first read (a forked trial worker
        # inherits them instead)
        return _graph_of_canonical, (self.n, self.endpoints, self.bipartition)

    def has_edge(self, u: int, v: int) -> bool:
        """Whether (u, v) is an edge: `_lacking` on the one pair, which
        reads `codes`, not the rows."""
        lo, hi = edge_key(u, v)
        if not 0 <= lo < hi < self.n:
            return False
        return not _lacking(self, np.array([lo]), np.array([hi]))[0]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.adj == other.adj
            and self.bipartition == other.bipartition
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj, self.bipartition))

    def __repr__(self) -> str:
        tag = ", bipartite" if self.bipartition is not None else ""
        return f"Graph(n={self.n}, m={self.m}{tag})"


def _lacking(g: Graph, lows: np.ndarray, highs: np.ndarray) -> np.ndarray:
    """Whether g lacks each pair (lows[i], highs[i]), as one bool array:
    one `np.searchsorted` of the pairs' codes into g's sorted `codes`, so
    no rows are built. The pairs must be on g's vertices, where each pair
    has a code of its own; only a canonical pair, low < high, is found."""
    codes = g.codes
    if not len(codes):
        return np.ones(len(lows), bool)
    want = lows * g.n + highs
    at = np.minimum(np.searchsorted(codes, want), len(codes) - 1)
    return codes[at] != want


def _graph_of_canonical(
    n: int,
    ends: tuple[np.ndarray, np.ndarray],
    bipartition: tuple[frozenset[int], frozenset[int]] | None = None,
) -> Graph:
    """Graph on edges known to be canonical, distinct, in range and, with
    a bipartition, crossing it; `ends` are their (low, high) ends as int64
    arrays and the bipartition is a `Graph.bipartition` pair. Nothing is
    validated, so use it only for edge sets the package built itself:
    `gen_random`'s draws, the gadgets and hard instances, T, H | U, a
    stream slice. Edges from outside go through `Graph`, which checks
    them."""
    g = object.__new__(Graph)
    _fill_graph(g, n, ends, bipartition)
    return g


def _graph_plus(g: Graph, ends: tuple[np.ndarray, np.ndarray]) -> Graph:
    """g with edges added after its own: canonical edges that g lacks,
    given by their (low, high) ends as int64 arrays. With none, g itself,
    so that `max_matching` reuses the mate array kept on it."""
    if not len(ends[0]):
        return g
    lows, highs = g.endpoints
    union_ends = (np.concatenate((lows, ends[0])), np.concatenate((highs, ends[1])))
    return _graph_of_canonical(g.n, union_ends, g.bipartition)


def _fill_graph(
    g: Graph,
    n: int,
    ends: tuple[np.ndarray, np.ndarray],
    bipartition: tuple[frozenset[int], frozenset[int]] | None,
) -> None:
    """Set every field of g from checked canonical edges, given by their
    (low, high) ends, and a `Graph.bipartition` pair. The rows and the
    other caches are left to be built on first read."""
    g.n = n
    g.m = len(ends[0])
    g.endpoints = ends
    g.bipartition = bipartition
    g._adj = g._codes = g._edge_array = g._mate = None


def _rows(g: Graph, left: list[int] | None = None) -> tuple[tuple[int, ...], ...]:
    """g's sorted adjacency rows, one per vertex, built from `endpoints`:
    every vertex's, or, given `left`, the vertices of that bipartition
    side, in ascending order, hold their rows and every other vertex an
    empty one. Each edge is packed as the code v * n + w once per row
    that holds it, 2m codes or, with `left`, m, and one `np.sort` of them
    orders the rows by v and each row by w. A row is a slice of one flat
    tuple of neighbours, whose vertices are the shared int objects of
    `_vertex_ints`."""
    n = g.n
    lows, highs = g.endpoints
    if left is None:
        codes = np.concatenate((lows * n + highs, highs * n + lows))
    else:
        in_left = np.zeros(n, bool)
        in_left[left] = True
        codes = np.where(in_left[lows], lows * n + highs, highs * n + lows)
    codes.sort()  # not lexsort or a stable argsort, which are 10-20x slower
    owners, others = np.divmod(codes, max(n, 1))
    degrees = np.bincount(owners, minlength=n)
    flat = tuple(_vertex_ints(n)[others].tolist())
    # isolated vertices keep the shared empty tuple; a loop that slices
    # only the others beat `map(slice, ...)` over all of them
    rows = [()] * n
    start = 0
    touched = np.flatnonzero(degrees)
    for v, stop in zip(touched.tolist(), accumulate(degrees[touched].tolist())):
        rows[v] = flat[start:stop]
        start = stop
    return tuple(rows)


class Matching:
    """Set of vertex-disjoint edges on the vertices 0..n-1, kept as one
    list `mate` of length n: mate[v] is v's partner, or -1 when v is
    free. The edge set, size, equality and order are read from it. A
    caller that walks `mate` must test an entry for < 0 before it uses
    it as an index, as mate[-1] would read the last vertex."""

    __slots__ = ("mate",)

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()):
        _check_vertex_count(n)
        self.mate = [-1] * n
        for u, v in edges:
            self.add(u, v)

    @classmethod
    def _of_mate(cls, mate: list[int]) -> "Matching":
        """Matching that takes over a valid mate list, without a copy."""
        m = object.__new__(cls)
        m.mate = mate
        return m

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self.mate):
            raise ValueError(f"vertex {v} out of range for n={len(self.mate)}")

    def add(self, u: int, v: int) -> None:
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        mate = self.mate
        if mate[u] >= 0 or mate[v] >= 0:
            raise ValueError(f"edge ({u}, {v}) shares a vertex with the matching")
        mate[u] = v
        mate[v] = u

    def augment(self, vertices: Sequence[int]) -> None:
        """Flip an augmenting path, given as its vertex sequence, in place:
        its matched edges leave the matching and its other edges join it,
        so the matching grows by one edge. Every vertex of the path gets
        its new partner, so no entry of a removed edge is left behind.

        Raises NotAugmentingError, leaving the matching unchanged, unless
        the path has odd length, distinct vertices in 0..n-1, unmatched
        endpoints and every second edge matched.
        """
        vs = vertices
        mate = self.mate
        if not vs or len(vs) % 2:
            raise NotAugmentingError("augmenting paths have odd length")
        if min(vs) < 0 or max(vs) >= len(mate):
            for v in vs:
                if not 0 <= v < len(mate):
                    raise NotAugmentingError(f"vertex {v} out of range for n={len(mate)}")
        if len(set(vs)) != len(vs):
            raise NotAugmentingError("path vertices must be pairwise distinct")
        if mate[vs[0]] >= 0 or mate[vs[-1]] >= 0:
            raise NotAugmentingError("path endpoints must be unmatched")
        for u, v in zip(vs[1:-1:2], vs[2:-1:2]):
            if mate[u] != v:
                raise NotAugmentingError(f"alternation fails at edge {edge_key(u, v)}")
        for u, v in zip(vs[::2], vs[1::2]):
            mate[u] = v
            mate[v] = u

    def is_matched(self, v: int) -> bool:
        self._check_vertex(v)
        return self.mate[v] >= 0

    @property
    def n(self) -> int:
        return len(self.mate)

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self)

    @classmethod
    def _greedy(cls, n: int, edges: Iterable[Edge]) -> "Matching":
        """Greedy maximal matching on n vertices: each edge, in order,
        joins when both of its ends are free. Filled in one pass; `edges`
        must hold no self-loop and no vertex outside 0..n-1."""
        mate = [-1] * n
        for u, v in edges:
            if mate[u] < 0 and mate[v] < 0:
                mate[u] = v
                mate[v] = u
        return cls._of_mate(mate)

    def copy(self) -> "Matching":
        return Matching._of_mate(self.mate.copy())

    def __len__(self) -> int:
        return (len(self.mate) - self.mate.count(-1)) // 2

    def __contains__(self, edge: tuple[int, int]) -> bool:
        u, v = edge
        return 0 <= u < len(self.mate) and v >= 0 and self.mate[u] == v

    def __iter__(self) -> Iterator[Edge]:
        """The edges as (low, high) pairs in ascending order."""
        return iter([(v, w) for v, w in enumerate(self.mate) if w > v])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.mate == other.mate

    def __hash__(self) -> int:
        return hash(tuple(self.mate))

    def __repr__(self) -> str:
        return f"Matching({len(self.mate)}, {list(self)})"


# ---------------------------------------------------------------------------
# exact maximum matching


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching of g, deterministic for a fixed input.

    Bipartite-tagged graphs are solved with Hopcroft-Karp; general graphs
    with a blossom-contraction augmenting search. Both break ties by
    lowest vertex index.

    Hopcroft-Karp reads the left side's rows only, so a graph whose `adj`
    was never read gets just those (`_rows`), at half the cost; one whose
    `adj` exists passes it, so that no graph builds two sets of rows.

    The first call keeps the mate array on g, so a later call on the same
    graph, such as a trial's H | U when the sparsifier kept every edge of
    G, costs one pass over it. Every call returns a new `Matching`, which
    the caller may change without touching any other call's result.
    """
    mate = g._mate
    if mate is None:
        if g.bipartition is not None:
            left = sorted(g.bipartition[0])
            rows = g._adj if g._adj is not None else _rows(g, left)
            mate = _hopcroft_karp(g.n, rows, left)
        else:
            mate = _blossom(g.n, g.adj)
        g._mate = mate
    return Matching._of_mate(mate.copy())


def _greedy_mates(n: int, adj, order: Iterable[int]) -> tuple[list[int], list[int]]:
    """(mate array, roots) after matching each vertex of `order`, in turn,
    if it is still free, to its first free neighbour in `adj` order. The
    roots are the vertices of `order` left free that have a neighbour, in
    `order`'s order: the only ones an augmenting search can start from."""
    mate = [-1] * n
    roots = []
    for v in order:
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break
            else:
                if adj[v]:
                    roots.append(v)
    return mate, roots


def _hopcroft_karp(n: int, adj, left: list[int]) -> list[int]:
    """Hopcroft-Karp on a bipartite graph; returns the mate array (-1 = free).

    `left` is the left side in ascending order, and only the rows of its
    vertices are read: the greedy pass, the BFS layers and the DFS stack
    hold left vertices only, and a right vertex is reached through an
    entry of a left row and left through `mate`. So `adj` may be the
    graph's full rows or its left rows alone. The mates are those of the
    textbook form, which in every phase runs a BFS from all free left
    vertices and then a layered DFS from each of them in ascending order
    (`tests/util.py` keeps it as `reference_hopcroft_karp`). Three of its
    steps change nothing and are skipped:

    - Phase 1. Every left vertex is free and at dist 0, so no vertex has
      dist 1 and the DFS from a root takes its first free neighbour in
      `adj` order, or dead-ends. That is the greedy pass over the left
      side in ascending order (`_greedy_mates`, which the blossom oracle
      starts with too) that runs here, without phase 1's BFS.
    - Left vertices without neighbours. None of them joins a path, and
      their dist is never read, so they are not roots.
    - Matched roots. An augmenting path from a root matches no other
      left vertex that was free, so the roots of a phase are the free
      roots of the one before whose search failed, in the same order;
      when none is left, the search returns, as the BFS would have found
      no free right vertex.

    A phase's BFS works layer by layer, and a layer that sees a free
    right vertex is its last. That assigns the same dists as a BFS queue
    cut off at the first such layer, so the DFS walks the same paths.
    Dists are reset only where the phase wrote them.
    """
    mate, roots = _greedy_mates(n, adj, left)
    INF = n + 1
    dist = [INF] * n
    while roots:
        for u in roots:
            dist[u] = 0
        reached = list(roots)
        layer = roots
        depth = 0
        found = False
        while layer and not found:
            depth += 1
            following = []
            for u in layer:
                for v in adj[u]:
                    w = mate[v]
                    if w == -1:
                        found = True
                    elif dist[w] == INF:
                        dist[w] = depth
                        following.append(w)
            reached += following
            layer = following
        if not found:
            break
        for root in roots:
            _hk_augment(root, adj, mate, dist)
        roots = [u for u in roots if mate[u] == -1]
        for u in reached:
            dist[u] = INF
    return mate


def _hk_augment(root: int, adj, mate: list[int], dist: list[int]) -> bool:
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


def _blossom(n: int, adj) -> list[int]:
    """Blossom-contraction augmenting search for general graphs.

    A greedy initial matching keeps the number of searches small. One
    search from a free root costs time in the alternating tree T it grows,
    not in n: a BFS over the adjacency lists of T's vertices, plus, per
    blossom contraction, a walk over the blossom's cycle and a relabel of
    the members of the bases it merges, so at worst O(|E(T)| + |T|^2).
    Each contraction sorts only the vertices it makes even, which puts
    them in the queue in the order a scan of T in ascending order would.
    Its state lives in four length-n arrays that are allocated once per
    call and reset only where the search wrote, plus a member list per
    contracted blossom. The greedy pass starts only from vertices with
    neighbours, so isolated vertices cost no Python step.

    A search that fails leaves a Hungarian tree, and its vertices are
    marked dead: later searches skip an edge to a dead vertex (Edmonds,
    "Paths, trees, and flowers", 1965). Call odd the tree's vertices that
    the search reached by an unmatched edge and no blossom absorbed, and
    even the rest. The even ones fall into pseudonodes, its blossoms and
    single even vertices, each with a base whose matched edge leads to an
    odd vertex, but the root's, whose base is the free root. An even
    vertex's neighbours are odd vertices of its own tree or of an earlier
    dead one (edges to those were skipped), or vertices of its own
    pseudonode: an even-even edge across pseudonodes would have made a
    blossom or an augmenting path. So an alternating path that enters the
    dead vertices, or starts at a dead root, meets an odd vertex only by
    an unmatched edge, leaves it by its matched edge into a pseudonode at
    the base, and leaves a pseudonode only by an unmatched edge to an odd
    vertex again. It never leaves the dead vertices and never reaches a
    free vertex: the only free ones are the roots, and a root's
    pseudonode is entered at no base. Hence:
    - No augmenting path, now or after later flips, holds a dead vertex.
      The flips keep off the dead vertices, so their matched edges, and
      with them the argument, stand until the call returns.
    - Skipping them leaves every later search's path as it was. Without
      the skip, a search would hang subtrees of dead vertices off edges
      from its live even vertices. Their tree paths are alternating paths
      trapped as above: an odd dead vertex stays odd there, the blossoms
      they close hold dead vertices only, and no live vertex, and no free
      one, is reached from them. So the live vertices enter the queue in
      the same order, with the same base, parent and mate entries, and
      the same free vertex is found by the same path.
    """
    mate, roots = _greedy_mates(n, adj, compress(range(n), adj))
    dead = [False] * n
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
                if base[v] == base[to] or mate[v] == to or dead[to]:
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
            failed = mate[v] == -1
            for u in tree:
                dead[u] = failed
                used[u] = False
                parent[u] = -1
                base[u] = u
            tree.clear()
            members.clear()
    return mate


def brute_force_matching_size(g: Graph) -> int:
    """Exact maximum-matching size by dynamic programming over vertex
    subsets; independent of max_matching and used as its test oracle."""
    n = g.n
    if n > BRUTE_FORCE_VERTEX_LIMIT:
        raise ValueError(f"brute force limited to {BRUTE_FORCE_VERTEX_LIMIT} vertices, got {n}")
    if n == 0:
        return 0
    nbr = [0] * n
    for u, v in g.edges:
        nbr[u] |= 1 << v
        nbr[v] |= 1 << u
    size = 1 << n
    best = bytearray(size)
    for mask in range(1, size):
        low = mask & -mask
        v = low.bit_length() - 1
        rest = mask ^ low
        b = best[rest]
        avail = nbr[v] & rest
        while avail:
            ubit = avail & -avail
            cand = best[rest ^ ubit] + 1
            if cand > b:
                b = cand
            avail ^= ubit
        best[mask] = b
    return best[size - 1]


# ---------------------------------------------------------------------------
# edge-list file format


def _line_ints(tokens: list[str], path, line_no: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        line = " ".join(tokens)
        raise ValueError(f"{path!r} line {line_no}: expected integers, got {line!r}") from None


def read_edge_list(path) -> Graph:
    """Load a graph from the edge-list format: header `n m [bipartite L]`,
    then m lines `u v` with 0-indexed endpoints and nothing but blank
    lines after them."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) not in (2, 4):
            raise ValueError(f"bad header in {path!r}")
        n, m = _line_ints(header[:2], path, 1)
        try:
            _check_vertex_count(n)
        except ValueError as exc:
            raise ValueError(f"{path!r}: {exc}") from None
        if m < 0:
            raise ValueError(f"{path!r}: edge count must be non-negative, got {m}")
        bipartition = None
        if len(header) == 4:
            if header[2] != "bipartite":
                raise ValueError(f"bad header tag {header[2]!r}")
            (left_size,) = _line_ints(header[3:], path, 1)
            if not 0 <= left_size <= n:
                raise ValueError("left side size out of range")
            bipartition = (range(left_size), range(left_size, n))
        edges = []
        for line_no in range(2, m + 2):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise ValueError(f"expected {m} edge lines in {path!r}")
            edges.append(tuple(_line_ints(parts, path, line_no)))
        if any(line.strip() for line in fh):
            raise ValueError(f"{path!r} has lines after the {m} declared edges")
    return Graph(n, edges, bipartition)


def _write_edges(path, n: int, edges: Sequence[Edge]) -> None:
    """Write n and the edges, in their order, in the edge-list format that
    read_edge_list reads, with no bipartite tag. The caller vouches for
    the edges: they are not checked."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{n} {len(edges)}\n")
        fh.writelines(f"{u} {v}\n" for u, v in edges)
