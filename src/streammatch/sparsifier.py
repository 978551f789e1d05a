"""Two-phase matching sparsifier.

Phase I maintains a subgraph H of the stream prefix in which every edge
has bounded edge-degree (deg(u) + deg(v) <= beta_plus). Phase II collects
the set U of all later edges whose edge-degree in the frozen H stays
below beta_minus, as their stream indices. A maximum matching of H | U is
the sparsifier's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .graph import (
    Edge,
    Graph,
    Matching,
    _graph_of_canonical,
    _graph_plus,
    edge_key,
    max_matching,
)
from .stream import EdgeStream, phase1_cut


class SafetyCapExceeded(RuntimeError):
    """The candidate set U outgrew its safety cap, `default_u_cap`."""


@dataclass(frozen=True)
class AlgoParams:
    """Parameter bundle shared by the streaming matching algorithms.

    The two degree caps fix the sparsifier, with 0 < beta_minus <=
    beta_plus < inf; lam, the gap between them, is derived from the caps.
    Every run names its caps: `params_with_betas` builds the bundle. They
    have no default, because the asymptotic ones, beta_plus = 64 lam^-2
    ln(1/lam) at lam = eps/128, exceed 2.3 * 10^7 at every eps in (0, 1/2),
    far above the degrees of a desk-scale graph, so H | U would be all of G.
    """

    eps: float
    beta_plus: float
    beta_minus: float
    gamma: float = 2.0 / 3.0
    b: int = 500

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        if not 0.0 < self.beta_plus < math.inf:
            raise ValueError("beta_plus must be positive and finite")
        if not 0.0 < self.beta_minus < math.inf:
            raise ValueError("beta_minus must be positive and finite")
        if self.beta_minus > self.beta_plus:
            raise ValueError("beta_minus must not exceed beta_plus")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.b < 2:
            raise ValueError("b must be at least 2")

    @property
    def lam(self) -> float:
        """1 - beta_minus/beta_plus, in [0, 1): the largest lam with
        beta_minus >= (1 - lam) * beta_plus."""
        return 1.0 - self.beta_minus / self.beta_plus


def params_with_betas(
    eps: float,
    beta_plus: float,
    beta_minus: float,
    gamma: float = 2.0 / 3.0,
    b: int = 500,
) -> AlgoParams:
    """The parameter bundle for the given degree caps, as floats; lam is
    1 - beta_minus/beta_plus."""
    return AlgoParams(eps, float(beta_plus), float(beta_minus), gamma, b)


def default_u_cap(n: int) -> int:
    """Safety cap on |U|: n * ceil(log2 n) * 32."""
    return max(n, 2) * max(1, math.ceil(math.log2(max(n, 2)))) * 32


@dataclass(frozen=True, eq=False)
class Sparsifier:
    """Frozen result of one streamed run: subgraph H, the candidate set U
    as the ascending 0-based indices of its edges in `stream.arrivals()`,
    and the prefix length that Phase I consumed."""

    stream: EdgeStream
    h: Graph
    u_index: np.ndarray
    eps_cut: int

    @property
    def u_size(self) -> int:
        return len(self.u_index)

    @cached_property
    def hu_graph(self) -> Graph:
        """H | U, built once. H holds prefix edges and U suffix edges, so
        the two are disjoint and the union needs no dedupe. |H| + |U|
        reaches m only when every edge was kept; H | U is then the stream's
        graph itself, which is returned without a build."""
        stream, index = self.stream, self.u_index
        if self.h.m + len(index) == len(stream):
            return stream.graph
        lows, highs = stream.ends(1, len(stream))
        return _graph_plus(self.h, (lows[index], highs[index]))


def phase1_build_h(
    lows: np.ndarray,
    highs: np.ndarray,
    n: int,
    params: AlgoParams,
    bipartition=None,
) -> Graph:
    """Build H from the Phase I prefix, whose edges are (lows[i],
    highs[i]) in arrival order. The ends must be canonical, distinct and
    in range for n vertices, as `EdgeStream.ends` gives them from a
    validated `Graph`, and `bipartition` is a `Graph.bipartition` pair;
    nothing is checked again.

    On arrival of (u, v): insert iff deg_H(u) + deg_H(v) < beta_minus;
    then, while any H edge has edge-degree above beta_plus, evict the
    lexicographically smallest violating edge. Insertion only raises the
    degrees of u and v and eviction only lowers degrees, so a violation
    can only sit on an edge at u or v, and the scan looks only there.

    The scan is skipped when deg(u) + top and deg(v) + top are both at
    most beta_plus, where top is the largest degree any vertex has reached
    so far. Degrees rise only by insertion, which updates top, and fall
    only by eviction, so top bounds every current degree, and no edge at u
    or v can then exceed the cap: the skipped scan would find nothing.
    With caps far above the degrees the scan never runs; with tight caps
    the skip seldom fires, and most arrivals are rejected before it. The
    per-vertex neighbour sets that the scan reads are made at the first
    scan, from the edges kept until then, and kept up to date after it.

    H's edges keep their arrival order: each kept edge maps to its index
    in the prefix, and H's ends are gathered from `lows` and `highs` at
    those indices.
    """
    # integer caps: for an integer degree sum s, s >= beta_minus iff
    # s >= ceil(beta_minus), and s > beta_plus iff s > floor(beta_plus)
    reject_from = math.ceil(params.beta_minus)
    cap = math.floor(params.beta_plus)
    deg = [0] * n
    adj: list[set[int]] | None = None  # neighbour sets, from the first scan on
    present: dict[Edge, int] = {}  # kept edge -> its index in the prefix
    top = 0  # largest degree reached so far
    for i, (u, v) in enumerate(zip(lows.tolist(), highs.tolist())):
        if deg[u] + deg[v] >= reject_from:
            continue
        present[u, v] = i
        if adj is not None:
            adj[u].add(v)
            adj[v].add(u)
        deg[u] += 1
        deg[v] += 1
        du = deg[u]
        dv = deg[v]
        if du > top:
            top = du
        if dv > top:
            top = dv
        if du + top <= cap and dv + top <= cap:
            continue
        if adj is None:
            adj = [set() for _ in range(n)]
            for a, b in present:
                adj[a].add(b)
                adj[b].add(a)
        while True:
            worst: Edge | None = None
            for x in (u, v):
                dx = deg[x]
                for y in adj[x]:
                    if dx + deg[y] > cap:
                        cand = edge_key(x, y)
                        if worst is None or cand < worst:
                            worst = cand
            if worst is None:
                break
            wu, wv = worst
            del present[worst]
            adj[wu].discard(wv)
            adj[wv].discard(wu)
            deg[wu] -= 1
            deg[wv] -= 1
    kept = np.fromiter(present.values(), np.int64, len(present))
    return _graph_of_canonical(n, (lows[kept], highs[kept]), bipartition)


def phase2_collect_u(
    lows: np.ndarray,
    highs: np.ndarray,
    h: Graph,
    params: AlgoParams,
) -> np.ndarray:
    """Ascending indices i of the Phase II edges (lows[i], highs[i]) whose
    edge-degree in the frozen H is below beta_minus: one comparison over
    the endpoint arrays. Raises SafetyCapExceeded when more than
    `default_u_cap` edges qualify."""
    deg = np.bincount(np.concatenate(h.endpoints), minlength=h.n)
    index = np.flatnonzero(deg[lows] + deg[highs] < params.beta_minus)
    cap = default_u_cap(h.n)
    if len(index) > cap:
        raise SafetyCapExceeded(f"|U| exceeded the safety cap of {cap}")
    return index


def run_sparsifier(stream: EdgeStream, params: AlgoParams) -> Sparsifier:
    """Run both phases over the stream's end arrays, Phase I over
    `phase1_cut` arrivals and Phase II over the rest, and freeze the
    result."""
    m = len(stream)
    cut = phase1_cut(m, params.eps)
    g = stream.graph
    h = phase1_build_h(*stream.ends(1, cut), g.n, params, g.bipartition)
    lows, highs = stream.ends(cut + 1, m)
    return Sparsifier(stream, h, cut + phase2_collect_u(lows, highs, h, params), cut)


def bernstein_match(stream: EdgeStream, params: AlgoParams) -> Matching:
    """Stream once, then return a maximum matching of H | U."""
    return max_matching(run_sparsifier(stream, params).hu_graph)
