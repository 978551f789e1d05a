"""Instance generation: seeded random graph families for benchmarking and
the parity-gadget adversarial family for hard-instance testing."""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass
from pathlib import Path as FilePath
from typing import Iterable, Sequence

import numpy as np

from .graph import (Edge, Graph, NotBipartiteError, _ends_of, _graph_of_canonical, _lacking,
                    _write_edges, edge_key, max_matching)


class NotInducedError(ValueError):
    """The supplied matchings are not pairwise disjoint induced matchings."""


@dataclass(frozen=True)
class XorGadget:
    """2k-vertex graph encoding the parity of k bits.

    Parity 0: the unique maximum matching has size k and matches the
    final vertex. Parity 1: the maximum matching size is k-1 and some
    maximum matching leaves the final vertex unmatched.
    """

    bits: tuple[int, ...]
    graph: Graph
    start: int
    final: int
    bit_edges: tuple[tuple[Edge, ...], ...]

    @property
    def parity(self) -> int:
        out = 0
        for b in self.bits:
            out ^= b
        return out


def xor_gadget(bits: Sequence[int]) -> XorGadget:
    """Build the parity gadget for an odd-length bit tuple.

    Vertices are s=0, a_i=2i-1, b_i=2i for i in 1..k-1, and t=2k-1.
    Bit 1 crosses the two rails between consecutive levels, bit 0 keeps
    them straight; the first and last bits pick which rail s and t join.
    """
    bits = tuple(int(x) for x in bits)
    if any(x not in (0, 1) for x in bits):
        raise ValueError("bits must be 0 or 1")
    k = len(bits)
    if k <= 1:
        raise ValueError("need at least 3 bits")
    if k % 2 == 0:
        raise ValueError("bit count must be odd")
    edges, bit_edges = _gadget_edges(bits)
    return XorGadget(bits, Graph(2 * k, edges), 0, 2 * k - 1, bit_edges)


def _gadget_edges(bits: tuple[int, ...]) -> tuple[list[Edge], tuple[tuple[Edge, ...], ...]]:
    """The canonical edges of `xor_gadget(bits)`, for checked bits, and
    the edges that each bit chose."""
    k = len(bits)

    def a(i: int) -> int:
        return 2 * i - 1

    def b(i: int) -> int:
        return 2 * i

    s, t = 0, 2 * k - 1
    edges: list[Edge] = []
    bit_edges: list[tuple[Edge, ...]] = []
    first = edge_key(s, a(1) if bits[0] == 0 else b(1))
    edges.append(first)
    bit_edges.append((first,))
    for i in range(2, k):
        if bits[i - 1] == 0:
            pair = (edge_key(a(i - 1), a(i)), edge_key(b(i - 1), b(i)))
        else:
            pair = (edge_key(a(i - 1), b(i)), edge_key(b(i - 1), a(i)))
        edges.extend(pair)
        bit_edges.append(pair)
    last = edge_key(t, a(k - 1) if bits[-1] == 0 else b(k - 1))
    edges.append(last)
    bit_edges.append((last,))
    return edges, tuple(bit_edges)


def verify_induced(g: Graph, matchings: Sequence[Iterable[tuple[int, int]]]) -> bool:
    """True iff the matchings are pairwise edge-disjoint induced matchings
    of g: each is a matching, no edge repeats across them, and no g-edge
    joins two vertices matched by the same M_i unless it belongs to M_i.

    One pass over g's edges: the matchings that match both ends of an
    edge are those its ends' index lists share. There may be one, the
    matching the edge belongs to, or none if it belongs to none. That
    the matchings' edges are g's is one lookup of all their codes in g's
    sorted codes."""
    used: set[Edge] = set()
    owners: dict[int, list[int]] = {}  # vertex -> the matchings that match it
    for i, matching in enumerate(matchings):
        edges = frozenset(edge_key(u, v) for u, v in matching)
        # in range first: a code is g's only for a pair on its vertices
        if not all(0 <= u and v < g.n for u, v in edges):
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
        for v in verts:
            owners.setdefault(v, []).append(i)
    if _lacking(g, *_ends_of(list(used))).any():
        return False
    for u, v in g.edges:
        if u in owners and v in owners:
            if len(set(owners[u]).intersection(owners[v])) > ((u, v) in used):
                return False
    return True


@dataclass(frozen=True)
class HardInstance:
    """Assembled adversarial instance plus its ground truth."""

    graph: Graph
    base: Graph
    matchings: tuple[frozenset[Edge], ...]
    special_index: int
    parities: tuple[int, ...]
    gadget_bits: tuple[tuple[int, ...], ...]
    gadget_vertices: tuple[tuple[int, ...], ...]
    z_bits: tuple[tuple[Edge, int], ...]
    r: int
    k: int

    @property
    def t(self) -> int:
        return len(self.matchings)

    @property
    def n_side(self) -> int:
        return self.base.n // 2

    def special_matching(self) -> frozenset[Edge]:
        return self.matchings[self.special_index]


def removed_special_bound(n_side: int, r: int, k: int) -> int:
    """Upper bound on mu(G \\ M_special): (N - r) * 2k + 2r * (k - 1)."""
    return (n_side - r) * 2 * k + 2 * r * (k - 1)


def build_hard_instance(base: Graph, matchings, k: int, rng) -> HardInstance:
    """Sample one instance: pick the special matching uniformly, force each
    vertex gadget's parity to record membership in it, and keep each base
    edge with probability one half.

    The base must be bipartite with equal sides, and the matchings must be
    pairwise disjoint induced matchings of equal size.
    """
    if base.bipartition is None:
        raise NotBipartiteError("hard instances need a bipartite base")
    left, right = base.bipartition
    if len(left) != len(right):
        raise ValueError("base sides must have equal size")
    matchings = tuple(frozenset(edge_key(u, v) for u, v in m) for m in matchings)
    if not matchings:
        raise ValueError("need at least one induced matching")
    r = len(matchings[0])
    if any(len(m) != r for m in matchings):
        raise ValueError("all matchings must have the same size")
    if r < 1:
        raise ValueError("matchings must be nonempty")
    if k % 2 == 0 or k < 3:
        raise ValueError("gadget length k must be odd and at least 3")
    if not verify_induced(base, matchings):
        raise NotInducedError("matchings must be pairwise disjoint induced matchings")

    t = len(matchings)
    j_star = int(rng.integers(t))
    special_vs = {v for e in matchings[j_star] for v in e}
    base_n = base.n
    parities = tuple(1 if v in special_vs else 0 for v in range(base_n))

    edges: list[Edge] = []
    gadget_bits: list[tuple[int, ...]] = []
    gadget_vertices: list[tuple[int, ...]] = []
    extra = 2 * k - 1  # fresh vertices per gadget; the final vertex is shared
    for v in range(base_n):
        head = tuple(int(x) for x in rng.integers(0, 2, size=k - 1))
        parity_head = 0
        for x in head:
            parity_head ^= x
        bits = head + (parities[v] ^ parity_head,)
        offset = base_n + v * extra
        final_local = 2 * k - 1

        def remap(local: int) -> int:
            return v if local == final_local else offset + local

        for x, y in _gadget_edges(bits)[0]:
            edges.append(edge_key(remap(x), remap(y)))
        gadget_bits.append(bits)
        gadget_vertices.append(tuple(remap(i) for i in range(2 * k)))

    z_bits = tuple((e, int(rng.integers(2))) for e in base.edges)
    edges.extend(e for e, z in z_bits if z == 1)

    total_n = base_n + base_n * extra
    bipartition = _two_color(total_n, edges)
    graph = Graph(total_n, edges, bipartition)
    return HardInstance(
        graph=graph,
        base=base,
        matchings=matchings,
        special_index=j_star,
        parities=parities,
        gadget_bits=tuple(gadget_bits),
        gadget_vertices=tuple(gadget_vertices),
        z_bits=z_bits,
        r=r,
        k=k,
    )


def _two_color(n: int, edges: Iterable[Edge]) -> tuple[list[int], list[int]]:
    """2-coloring by BFS from the lowest vertex of each component."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    color = [-1] * n
    for root in range(n):
        if color[root] != -1:
            continue
        color[root] = 0
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    raise ValueError("graph is not bipartite")
    left = [v for v in range(n) if color[v] == 0]
    right = [v for v in range(n) if color[v] == 1]
    return left, right


def mu_with_and_without_special(instance: HardInstance) -> tuple[int, int]:
    """(mu(G), mu(G minus the special matching)) via the exact oracle."""
    g = instance.graph
    mu_g = len(max_matching(g))
    special = instance.special_matching()
    kept = [e for e in g.edges if e not in special]
    stripped = Graph(g.n, kept, g.bipartition)
    return mu_g, len(max_matching(stripped))


def trivial_family(base: Graph) -> list[frozenset[Edge]]:
    """Every single edge as its own induced matching (r=1, t=m)."""
    return [frozenset({e}) for e in base.edges]


def matched_base(n_side: int) -> Graph:
    """Perfect-matching base graph: left i joined to right n_side + i."""
    edges = [(i, n_side + i) for i in range(n_side)]
    return Graph(2 * n_side, edges, (range(n_side), range(n_side, 2 * n_side)))


def gen_random(
    kind: str,
    n: int,
    p: float | None = None,
    plant: int | None = None,
    seed: int = 0,
) -> Graph:
    """Seeded deterministic graph generator.

    bipartite-gnp: n vertices per side, each cross pair kept w.p. p.
    general-gnp: n vertices, each pair kept w.p. p.
    planted-matching: n vertices, `plant` disjoint edges plus n random
    extra edges, so mu >= plant.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    if kind == "bipartite-gnp":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        # nonzero is row-major: pair (i, j) in nested-loop order; each
        # (i, n + j) is canonical, distinct, in range and crosses the sides
        rows, cols = np.nonzero(rng.random((n, n)) < p)
        sides = (frozenset(range(n)), frozenset(range(n, 2 * n)))
        return _graph_of_canonical(2 * n, (rows, cols + n), sides)
    if kind == "general-gnp":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        lows, highs = np.triu_indices(n, 1)  # distinct pairs i < j in nested-loop order
        keep = rng.random(len(lows)) < p
        return _graph_of_canonical(n, (lows[keep], highs[keep]))
    if kind == "planted-matching":
        if plant is None or not 1 <= plant <= n // 2:
            raise ValueError("plant size must lie in [1, n//2]")
        perm = rng.permutation(n)
        edges = {edge_key(int(perm[2 * i]), int(perm[2 * i + 1])) for i in range(plant)}
        for _ in range(n):
            u, v = int(rng.integers(n)), int(rng.integers(n))
            if u != v:
                edges.add(edge_key(u, v))
        return Graph(n, sorted(edges))
    raise ValueError(f"unknown generator kind {kind!r}")


# ---------------------------------------------------------------------------
# serialization


def save_hard_instance(instance: HardInstance, path) -> None:
    """Write the assembled graph in edge-list format (without a bipartite
    tag, since the coloring is not a contiguous prefix) plus a JSON
    sidecar with the ground truth. The sidecar has no indentation, which
    lets `json.dumps` use its C encoder: about 6x faster on a gadget-tight
    instance."""
    path = FilePath(path)
    _write_edges(path, instance.graph.n, instance.graph.edges)
    left = sorted(instance.graph.bipartition[0]) if instance.graph.bipartition else []
    sidecar = {
        "n_side": instance.n_side,
        "r": instance.r,
        "t": instance.t,
        "k": instance.k,
        "special_index": instance.special_index,
        "parities": list(instance.parities),
        "gadget_bits": [list(bits) for bits in instance.gadget_bits],
        "gadget_vertices": [list(vs) for vs in instance.gadget_vertices],
        "z_bits": [[u, v, z] for (u, v), z in instance.z_bits],
        "left": left,
        "base_edges": [list(e) for e in instance.base.edges],
        "matchings": [[list(e) for e in sorted(m)] for m in instance.matchings],
    }
    path.with_suffix(path.suffix + ".json").write_text(
        json.dumps(sidecar), encoding="utf-8"
    )


def _int_pairs(items) -> list[tuple[int, int]]:
    return [(int(u), int(v)) for u, v in items]


def load_family(path) -> tuple[Graph, list[frozenset[Edge]]]:
    """Load a base graph plus induced-matching family from JSON:
    {"n": ..., "left_size": ..., "edges": [[u, v], ...],
     "matchings": [[[u, v], ...], ...]}.

    A file of another shape raises ValueError with one line that names
    the file and the field at fault."""
    try:
        data = json.loads(FilePath(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path!r} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path!r} must hold a JSON object, not {type(data).__name__}")

    def field(key, convert):
        if key not in data:
            raise ValueError(f"{path!r} has no field {key!r}")
        try:
            return convert(data[key])
        except (TypeError, ValueError):
            raise ValueError(f"{path!r} has a malformed field {key!r}") from None

    n = field("n", int)
    left_size = field("left_size", int)
    edges = field("edges", _int_pairs)
    matchings = field(
        "matchings", lambda ms: [frozenset(edge_key(u, v) for u, v in _int_pairs(m)) for m in ms]
    )
    try:
        base = Graph(n, edges, (range(left_size), range(left_size, n)))
    except ValueError as exc:
        raise ValueError(f"{path!r}: {exc}") from None
    if not verify_induced(base, matchings):
        raise NotInducedError(f"{path!r} does not hold a valid induced-matching family")
    return base, matchings
