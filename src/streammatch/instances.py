"""Instance generation: seeded random graph families for benchmarking and
the parity-gadget adversarial family for hard-instance testing."""

from __future__ import annotations

import json
from dataclasses import dataclass
from operator import index
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
    try:
        bits = tuple(map(index, bits))
    except TypeError:
        raise ValueError("bits must be the integers 0 or 1") from None
    if any(x not in (0, 1) for x in bits):
        raise ValueError("bits must be the integers 0 or 1")
    k = len(bits)
    if k <= 1:
        raise ValueError("need at least 3 bits")
    if k % 2 == 0:
        raise ValueError("bit count must be odd")
    lows, highs = _gadget_ends(np.array([bits]))
    graph = _graph_of_canonical(2 * k, (lows[0], highs[0]))
    edges = graph.edges
    bit_edges = (edges[:1], *zip(edges[1:-1:2], edges[2:-1:2]), edges[-1:])
    return XorGadget(bits, graph, 0, 2 * k - 1, bit_edges)


def _gadget_ends(bits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The local (low, high) ends of the 2k - 2 edges of the gadget of
    each row of `bits`, a (g, k) array of checked bits, as two (g, 2k - 2)
    int64 arrays in `xor_gadget`'s edge order: s-level 1, then each
    middle bit's pair of edges from level i - 1 to level i, then level
    k - 1 to t. The pair's low ends are a_{i-1}, b_{i-1}; bit 1 swaps
    their high ends a_i, b_i. Only the last edge has t = 2k - 1 as an
    end, its high one."""
    g, k = bits.shape
    lows = np.tile(np.arange(2 * k - 2), (g, 1))
    highs = lows + 2
    middle = bits[:, 1:-1]
    highs[:, 1:-1:2] += middle
    highs[:, 2:-1:2] -= middle
    highs[:, 0] = 1 + bits[:, 0]
    lows[:, -1] = 2 * k - 3 + bits[:, -1]
    highs[:, -1] = 2 * k - 1
    return lows, highs


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
    base_n = base.n
    parity = np.zeros(base_n, np.int64)  # 1 on the special matching's vertices
    special_lows, special_highs = _ends_of(list(matchings[j_star]))
    parity[special_lows] = parity[special_highs] = 1
    # the draws in the order of a per-vertex then per-edge loop, which
    # they match number for number
    heads = rng.integers(0, 2, size=(base_n, k - 1))
    z = rng.integers(0, 2, size=base.m)
    bits = np.column_stack((heads, parity ^ np.bitwise_xor.reduce(heads, axis=1)))

    # gadget v's local vertex x < 2k - 1 is base_n + v(2k - 1) + x and its
    # t is v itself, which is below every gadget vertex, so the last
    # edge's ends trade places
    extra = 2 * k - 1
    vertices = np.arange(base_n)
    offsets = base_n + extra * vertices[:, None]
    lows, highs = _gadget_ends(bits)
    lows += offsets
    highs += offsets
    highs[:, -1] = lows[:, -1]
    lows[:, -1] = vertices
    base_lows, base_highs = base.endpoints
    kept = z == 1
    ends = (np.concatenate((lows.ravel(), base_lows[kept])),
            np.concatenate((highs.ravel(), base_highs[kept])))

    # a gadget vertex at level (x + 1) // 2 lies k minus that many edges
    # from t = v, so its side is v's side flipped that many times
    total_n = base_n + base_n * extra
    in_left = np.zeros(total_n, bool)
    in_left[list(left)] = True
    flips = (k - (np.arange(extra) + 1) // 2) % 2 == 1
    in_left[base_n:] = (in_left[:base_n, None] ^ flips).ravel()
    sides = (frozenset(np.flatnonzero(in_left).tolist()),
             frozenset(np.flatnonzero(~in_left).tolist()))
    gadget_vertices = np.column_stack((offsets + np.arange(extra), vertices))
    return HardInstance(
        graph=_graph_of_canonical(total_n, ends, sides),
        base=base,
        matchings=matchings,
        special_index=j_star,
        parities=tuple(parity.tolist()),
        gadget_bits=tuple(map(tuple, bits.tolist())),
        gadget_vertices=tuple(map(tuple, gadget_vertices.tolist())),
        z_bits=tuple(zip(base.edges, z.tolist())),
        r=r,
        k=k,
    )


def mu_with_and_without_special(instance: HardInstance) -> tuple[int, int]:
    """(mu(G), mu(G minus the special matching)) via the exact oracle."""
    g = instance.graph
    mu_g = len(max_matching(g))
    special_lows, special_highs = _ends_of(list(instance.special_matching()))
    lows, highs = g.endpoints
    kept = ~np.isin(lows * g.n + highs, special_lows * g.n + special_highs)
    stripped = _graph_of_canonical(g.n, (lows[kept], highs[kept]), g.bipartition)
    return mu_g, len(max_matching(stripped))


def trivial_family(base: Graph) -> list[frozenset[Edge]]:
    """Every single edge as its own induced matching (r=1, t=m)."""
    return [frozenset({e}) for e in base.edges]


def matched_base(n_side: int) -> Graph:
    """Perfect-matching base graph: left i joined to right n_side + i."""
    if n_side < 0:
        raise ValueError("n_side must be non-negative")
    lefts = np.arange(n_side)
    sides = (frozenset(range(n_side)), frozenset(range(n_side, 2 * n_side)))
    return _graph_of_canonical(2 * n_side, (lefts, lefts + n_side), sides)


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
    planted-matching: n vertices, `plant` disjoint edges plus up to n
    random extra edges (n pairs are drawn; a self-loop is dropped and a
    repeat merged), so mu >= plant. The edges are in ascending order.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(seed)
    if kind == "bipartite-gnp":
        if p is None or not 0.0 <= p <= 1.0:
            raise ValueError("p must lie in [0, 1]")
        # flat indices ascend: pair (i, j) in nested-loop order; each
        # (i, n + j) is canonical, distinct, in range and crosses the sides
        rows, cols = np.divmod(np.flatnonzero(rng.random((n, n)) < p), n)
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
        pairs = np.concatenate((rng.permutation(n)[:2 * plant].reshape(plant, 2),
                                rng.integers(n, size=(n, 2))))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        codes = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1))
        return _graph_of_canonical(n, np.divmod(codes, n))
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


def _json_int(value) -> int:
    """A JSON integer as an int; true and false are not integers here."""
    if isinstance(value, bool):
        raise TypeError("a JSON boolean is not an integer")
    return index(value)


def _int_pairs(items) -> list[tuple[int, int]]:
    return [(_json_int(u), _json_int(v)) for u, v in items]


def load_family(path) -> tuple[Graph, list[frozenset[Edge]]]:
    """Load a base graph plus induced-matching family from JSON:
    {"n": ..., "left_size": ..., "edges": [[u, v], ...],
     "matchings": [[[u, v], ...], ...]}.

    A file of another shape, or with a number that is not an integer
    (true and false included), raises ValueError with one line that names
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

    n = field("n", _json_int)
    left_size = field("left_size", _json_int)
    if not 0 <= left_size <= n:
        raise ValueError(
            f"{path!r} has a field 'left_size' of {left_size}, out of range for n={n}"
        )
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
