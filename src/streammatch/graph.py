"""Graph and matching primitives: exact maximum-matching oracles, Hall
witnesses, and bounded-length augmenting-path search.

Vertices are dense integers 0..n-1. Edges are unordered pairs stored in
canonical (min, max) form; self-loops and parallel edges are rejected.
All tie-breaking is by lowest vertex index so results are reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import eq, itemgetter
from typing import Container, Iterable, Iterator, Sequence

Edge = tuple[int, int]

BRUTE_FORCE_VERTEX_LIMIT = 16


class NotBipartiteError(ValueError):
    """An operation required a bipartition tag that is absent."""


class NotAugmentingError(ValueError):
    """The supplied path does not augment the given matching."""


def edge_key(u: int, v: int) -> Edge:
    """Canonical (min, max) form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _first_edge_error(n: int, edges: Sequence[tuple[int, int]]) -> ValueError:
    """Error for the first edge, in input order, that is a self-loop, out
    of range for n vertices, or a repeat of an earlier edge."""
    seen: set[Edge] = set()
    for u, v in edges:
        if u == v:
            return ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            return ValueError(f"edge ({u}, {v}) out of range for n={n}")
        e = edge_key(u, v)
        if e in seen:
            return ValueError(f"parallel edge {e}")
        seen.add(e)
    raise AssertionError("no offending edge found")


class Graph:
    """Simple undirected graph with adjacency lists and an optional
    (left, right) bipartition tag.

    Adjacency lists are kept sorted so that every index-based search in
    this package is deterministic.
    """

    __slots__ = ("n", "edges", "adj", "bipartition", "edge_set", "degrees")

    def __init__(
        self,
        n: int,
        edges: Iterable[tuple[int, int]] = (),
        bipartition: tuple[Iterable[int], Iterable[int]] | None = None,
    ):
        if n < 0:
            raise ValueError("vertex count must be non-negative")
        if not isinstance(edges, (list, tuple)):
            edges = list(edges)
        norm = [(u, v) if u < v else (v, u) for u, v in edges]
        edge_set = frozenset(norm)
        if norm:
            # not zip(*norm): it allocates an iterator per edge, which makes
            # the garbage collector run more often
            lows = list(map(itemgetter(0), norm))
            highs = list(map(itemgetter(1), norm))
            if (
                len(edge_set) != len(norm)
                or min(lows) < 0
                or max(highs) >= n
                or any(map(eq, lows, highs))
            ):
                raise _first_edge_error(n, edges)
        adj: list[list[int]] = [[] for _ in range(n)]
        for a, b in norm:
            adj[a].append(b)
            adj[b].append(a)
        for lst in adj:
            lst.sort()
        self.n = n
        self.edges: tuple[Edge, ...] = tuple(norm)
        self.adj: tuple[tuple[int, ...], ...] = tuple(map(tuple, adj))
        self.edge_set: frozenset[Edge] = edge_set
        self.degrees: tuple[int, ...] = tuple(map(len, adj))
        if bipartition is None:
            self.bipartition = None
        else:
            left = frozenset(bipartition[0])
            right = frozenset(bipartition[1])
            if left & right:
                raise ValueError("bipartition sides overlap")
            if left | right != frozenset(range(n)):
                raise ValueError("bipartition must cover all vertices")
            side = bytearray(n)
            for v in left:
                side[v] = 1
            for a, b in norm:
                if side[a] == side[b]:
                    raise ValueError(f"edge ({a}, {b}) does not cross the bipartition")
            self.bipartition = (left, right)

    def degree(self, v: int) -> int:
        return self.degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        return edge_key(u, v) in self.edge_set

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.n == other.n
            and self.edge_set == other.edge_set
            and self.bipartition == other.bipartition
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edge_set, self.bipartition))

    def __repr__(self) -> str:
        tag = ", bipartite" if self.bipartition is not None else ""
        return f"Graph(n={self.n}, m={len(self.edges)}{tag})"


def union_graph(
    n: int,
    *edge_groups: Iterable[tuple[int, int]],
    bipartition: tuple[Iterable[int], Iterable[int]] | None = None,
) -> Graph:
    """Graph on the union of the given edge collections, deduplicated."""
    merged = {(u, v) if u < v else (v, u) for group in edge_groups for u, v in group}
    return Graph(n, sorted(merged), bipartition)


class Matching:
    """Set of vertex-disjoint edges with O(1) matched-partner lookup."""

    __slots__ = ("_partner", "_edges")

    def __init__(self, edges: Iterable[tuple[int, int]] = ()):
        self._partner: dict[int, int] = {}
        self._edges: set[Edge] = set()
        for u, v in edges:
            self.add(u, v)

    def add(self, u: int, v: int) -> None:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if u in self._partner or v in self._partner:
            raise ValueError(f"edge ({u}, {v}) shares a vertex with the matching")
        self._partner[u] = v
        self._partner[v] = u
        self._edges.add(edge_key(u, v))

    def remove(self, u: int, v: int) -> None:
        e = edge_key(u, v)
        if e not in self._edges:
            raise KeyError(e)
        self._edges.discard(e)
        del self._partner[u]
        del self._partner[v]

    def augment(self, vertices: Sequence[int]) -> None:
        """Flip an augmenting path, given as its vertex sequence, in place:
        its matched edges leave the matching and its other edges join it,
        so the matching grows by one edge.

        Raises NotAugmentingError, leaving the matching unchanged, unless
        the path has odd length, distinct vertices, unmatched endpoints
        and every second edge matched.
        """
        vs = vertices
        partner = self._partner
        if not vs or len(vs) % 2:
            raise NotAugmentingError("augmenting paths have odd length")
        if len(set(vs)) != len(vs):
            raise NotAugmentingError("path vertices must be pairwise distinct")
        if vs[0] in partner or vs[-1] in partner:
            raise NotAugmentingError("path endpoints must be unmatched")
        matched = list(zip(vs[1:-1:2], vs[2:-1:2]))
        for u, v in matched:
            if partner.get(u) != v:
                raise NotAugmentingError(f"alternation fails at edge {edge_key(u, v)}")
        for u, v in matched:
            self._edges.remove(edge_key(u, v))
        for u, v in zip(vs[::2], vs[1::2]):
            partner[u] = v
            partner[v] = u
            self._edges.add(edge_key(u, v))

    def partner(self, v: int) -> int | None:
        return self._partner.get(v)

    def is_matched(self, v: int) -> bool:
        return v in self._partner

    @property
    def partner_map(self) -> dict[int, int]:
        """Internal partner table; callers must treat it as read-only."""
        return self._partner

    @property
    def edges(self) -> frozenset[Edge]:
        return frozenset(self._edges)

    def vertices(self) -> frozenset[int]:
        return frozenset(self._partner)

    def copy(self) -> "Matching":
        m = Matching()
        m._partner = dict(self._partner)
        m._edges = set(self._edges)
        return m

    def __len__(self) -> int:
        return len(self._edges)

    def __contains__(self, edge: tuple[int, int]) -> bool:
        return edge_key(*edge) in self._edges

    def __iter__(self) -> Iterator[Edge]:
        return iter(sorted(self._edges))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self._edges == other._edges

    def __hash__(self) -> int:
        return hash(frozenset(self._edges))

    def __repr__(self) -> str:
        return f"Matching({sorted(self._edges)})"


class Path:
    """Simple path given as a vertex sequence.

    `allowed` holds canonical (min, max) edges and is only probed with
    `in`, never copied: pass a set the caller already has, such as a
    `Graph.edge_set`, and a path costs O(its length). Consecutive
    vertices must be joined by an edge of `allowed`, and vertices must
    be distinct.
    """

    __slots__ = ("vertices", "edges")

    def __init__(self, vertices: Iterable[int], allowed: Container[Edge]):
        vs = tuple(vertices)
        if len(vs) < 2:
            raise ValueError("a path needs at least two vertices")
        if len(set(vs)) != len(vs):
            raise ValueError("path vertices must be pairwise distinct")
        es = []
        for a, b in zip(vs, vs[1:]):
            e = (a, b) if a < b else (b, a)
            if e not in allowed:
                raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")
            es.append(e)
        self.vertices = vs
        self.edges: tuple[Edge, ...] = tuple(es)

    def __len__(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return f"Path({list(self.vertices)})"


@dataclass(frozen=True)
class HallWitness:
    """Vertex set A on one side of a bipartite graph together with its
    neighborhood and the deficiency |A| - |N(A)|."""

    side: str
    vertex_set: frozenset[int]
    neighborhood: frozenset[int]
    deficiency: int


# ---------------------------------------------------------------------------
# exact maximum matching


def max_matching(g: Graph) -> Matching:
    """Maximum-cardinality matching of g, deterministic for a fixed input.

    Bipartite-tagged graphs are solved with Hopcroft-Karp; general graphs
    with a blossom-contraction augmenting search. Both break ties by
    lowest vertex index.
    """
    if g.bipartition is not None:
        mate = _hopcroft_karp(g.n, g.adj, sorted(g.bipartition[0]))
    else:
        mate = _blossom(g.n, g.adj)
    m = Matching()
    for v in range(g.n):
        if mate[v] > v:
            m.add(v, mate[v])
    return m


def _hopcroft_karp(n: int, adj, left: list[int]) -> list[int]:
    """Hopcroft-Karp on a bipartite graph; returns the mate array (-1 = free)."""
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
                _hk_augment(root, adj, mate, dist)


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

    O(V^3) worst case; a greedy initial matching keeps the number of
    augmenting phases small on typical inputs.
    """
    mate = [-1] * n
    for v in range(n):
        if mate[v] == -1:
            for u in adj[v]:
                if mate[u] == -1:
                    mate[v] = u
                    mate[u] = v
                    break

    parent = [-1] * n
    base = list(range(n))

    def lca(a: int, b: int) -> int:
        seen = [False] * n
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, stem: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != stem:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    def find_augmenting(root: int) -> bool:
        nonlocal parent, base
        used = [False] * n
        parent = [-1] * n
        base = list(range(n))
        used[root] = True
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for to in adj[v]:
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != -1 and parent[mate[to]] != -1):
                    stem = lca(v, to)
                    in_blossom = [False] * n
                    mark_path(v, stem, to, in_blossom)
                    mark_path(to, stem, v, in_blossom)
                    for i in range(n):
                        if in_blossom[base[i]]:
                            base[i] = stem
                            if not used[i]:
                                used[i] = True
                                queue.append(i)
                elif parent[to] == -1:
                    parent[to] = v
                    if mate[to] == -1:
                        cur = to
                        while cur != -1:
                            prev = parent[cur]
                            nxt = mate[prev]
                            mate[cur] = prev
                            mate[prev] = cur
                            cur = nxt
                        return True
                    used[mate[to]] = True
                    queue.append(mate[to])
        return False

    for v in range(n):
        if mate[v] == -1:
            find_augmenting(v)
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


def hall_witness(g: Graph) -> HallWitness:
    """Witness set A maximizing |A| - |N(A)| over either side of a
    bipartite graph with equal side sizes.

    The deficiency of the returned witness equals n_side - mu(g). Callers
    with unequal sides must pad the smaller side with isolated vertices.
    """
    if g.bipartition is None:
        raise NotBipartiteError("hall_witness needs a bipartition tag")
    left, right = g.bipartition
    if len(left) != len(right):
        raise ValueError("sides must have equal size; pad the smaller side first")
    matching = max_matching(g)

    def witness(side: frozenset[int], name: str) -> HallWitness:
        # alternating reachability from the side's unmatched vertices:
        # non-matching edges leave the side, matching edges come back
        in_side = [False] * g.n
        for v in side:
            in_side[v] = True
        visited = [False] * g.n
        queue = deque()
        for v in sorted(side):
            if not matching.is_matched(v):
                visited[v] = True
                queue.append(v)
        while queue:
            v = queue.popleft()
            for w in g.adj[v]:
                if visited[w]:
                    continue
                visited[w] = True
                mate = matching.partner(w)
                if mate is not None and not visited[mate]:
                    visited[mate] = True
                    queue.append(mate)
        a = frozenset(v for v in side if visited[v])
        nbrs = frozenset(v for v in range(g.n) if visited[v] and not in_side[v])
        return HallWitness(name, a, nbrs, len(a) - len(nbrs))

    wl = witness(left, "left")
    wr = witness(right, "right")
    return wl if wl.deficiency >= wr.deficiency else wr


# ---------------------------------------------------------------------------
# bounded-length augmenting paths


def _augmenting_search(partner_map, starts, nbrs, max_len: int) -> list[int] | None:
    """Shortest-first search for an augmenting path of odd length <= max_len.

    `starts` is an ascending iterable of candidate endpoints, `nbrs(v)`
    yields the allowed-edge neighbors of v in ascending order, and
    `partner_map` is the matching's vertex -> mate table. Matched edges
    are traversed through the partner table only, so every odd-position
    edge of a returned path comes from the allowed universe.
    """
    starts = [u for u in starts if u not in partner_map]
    if max_len >= 1:
        for u in starts:
            for v in nbrs(u):
                if v not in partner_map:
                    return [u, v]
    if max_len >= 3:
        for u in starts:
            for x1 in nbrs(u):
                if x1 not in partner_map:
                    continue
                x2 = partner_map[x1]
                for w in nbrs(x2):
                    if w != u and w not in partner_map:
                        return [u, x1, x2, w]
    if max_len >= 5:
        for u in starts:
            for x1 in nbrs(u):
                if x1 not in partner_map:
                    continue
                x2 = partner_map[x1]
                for x3 in nbrs(x2):
                    if x3 == x1 or x3 == u or x3 not in partner_map:
                        continue
                    x4 = partner_map[x3]
                    for w in nbrs(x4):
                        if w != u and w not in partner_map:
                            return [u, x1, x2, x3, x4, w]
    return None


def find_augmenting_path(
    matching: Matching, allowed: Iterable[tuple[int, int]], max_len: int = 5
) -> Path | None:
    """First augmenting path for `matching` inside the `allowed` edge set,
    of odd length <= max_len, or None.

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
    verts = _augmenting_search(
        matching.partner_map, sorted(adj), lambda v: adj.get(v, ()), max_len
    )
    if verts is None:
        return None
    return Path(verts, allowed_set)


def apply_augmenting_path(matching: Matching, path: Path) -> Matching:
    """Matching obtained by flipping the path's edges in and out of the
    matching; the result is one edge larger and `matching` is unchanged."""
    result = matching.copy()
    result.augment(path.vertices)
    return result


def symmetric_difference(m1: Matching, m2: Matching) -> Graph:
    """Graph holding exactly the edges in one matching but not the other.

    Every connected component is a path or an even cycle.
    """
    edges = m1.edges ^ m2.edges
    n = 0
    for u, v in edges:
        n = max(n, u + 1, v + 1)
    return Graph(n, sorted(edges))


# ---------------------------------------------------------------------------
# edge-list file format


def read_edge_list(path) -> Graph:
    """Load a graph from the edge-list format: header `n m [bipartite L]`,
    then m lines `u v` with 0-indexed endpoints and nothing but blank
    lines after them."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) not in (2, 4):
            raise ValueError(f"bad header in {path!r}")
        n, m = int(header[0]), int(header[1])
        bipartition = None
        if len(header) == 4:
            if header[2] != "bipartite":
                raise ValueError(f"bad header tag {header[2]!r}")
            left_size = int(header[3])
            if not 0 <= left_size <= n:
                raise ValueError("left side size out of range")
            bipartition = (range(left_size), range(left_size, n))
        edges = []
        for _ in range(m):
            parts = fh.readline().split()
            if len(parts) != 2:
                raise ValueError(f"expected {m} edge lines in {path!r}")
            edges.append((int(parts[0]), int(parts[1])))
        if any(line.strip() for line in fh):
            raise ValueError(f"{path!r} has lines after the {m} declared edges")
    return Graph(n, edges, bipartition)


def write_edge_list(g: Graph, path) -> None:
    """Write a graph in the edge-list format read by read_edge_list.

    A bipartition tag is only representable when the left side is the
    contiguous prefix 0..L-1.
    """
    header = f"{g.n} {len(g.edges)}"
    if g.bipartition is not None:
        left = g.bipartition[0]
        left_size = len(left)
        if left != frozenset(range(left_size)):
            raise ValueError("bipartition is not a contiguous prefix; cannot serialize")
        header += f" bipartite {left_size}"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for u, v in g.edges:
            fh.write(f"{u} {v}\n")
