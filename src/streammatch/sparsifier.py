"""Two-phase matching sparsifier.

Phase I maintains a subgraph H of the stream prefix in which every edge
has bounded edge-degree (deg(u) + deg(v) <= beta_plus). Phase II collects
the set U of all later edges whose edge-degree in the frozen H stays
below beta_minus. A maximum matching of H | U is the sparsifier's output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graph import Edge, Graph, Matching, edge_key, max_matching, union_graph
from .stream import EdgeStream, phase1_cut


class SafetyCapExceeded(RuntimeError):
    """The candidate set U outgrew its configured safety cap."""


@dataclass(frozen=True)
class AlgoParams:
    """Parameter bundle shared by the streaming matching algorithms.

    beta_minus <= beta_plus and beta_minus >= (1 - lam) * beta_plus must
    hold. `derive_params` computes the bundle from eps alone;
    `params_with_betas` back-solves lam from explicit desk-scale caps.
    """

    eps: float
    lam: float
    beta_plus: float
    beta_minus: float
    gamma: float = 2.0 / 3.0
    b: int = 500

    def __post_init__(self):
        if not 0.0 < self.eps < 0.5:
            raise ValueError("eps must lie in (0, 1/2)")
        if not 0.0 <= self.lam < 1.0:
            raise ValueError("lam must lie in [0, 1)")
        if self.beta_plus <= 0:
            raise ValueError("beta_plus must be positive")
        if self.beta_minus > self.beta_plus:
            raise ValueError("beta_minus must not exceed beta_plus")
        if self.beta_minus < (1.0 - self.lam) * self.beta_plus - 1e-9:
            raise ValueError("beta_minus must be at least (1 - lam) * beta_plus")
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if self.b < 2:
            raise ValueError("b must be at least 2")


def derive_params(eps: float, gamma: float = 2.0 / 3.0, b: int = 500) -> AlgoParams:
    """Parameters from eps alone: lam = eps/128,
    beta_plus = 64 * lam^-2 * ln(1/lam), beta_minus = (1 - lam) * beta_plus."""
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    lam = eps / 128.0
    beta_plus = 64.0 * lam**-2 * math.log(1.0 / lam)
    return AlgoParams(eps, lam, beta_plus, (1.0 - lam) * beta_plus, gamma, b)


def params_with_betas(
    eps: float,
    beta_plus: float,
    beta_minus: float,
    gamma: float = 2.0 / 3.0,
    b: int = 500,
) -> AlgoParams:
    """Desk-scale override with explicit degree caps.

    lam is set to 1 - beta_minus/beta_plus, the tightest value for which
    the bundle invariant holds with equality.
    """
    if beta_plus <= 0:
        raise ValueError("beta_plus must be positive")
    lam = 1.0 - beta_minus / beta_plus
    return AlgoParams(eps, lam, float(beta_plus), float(beta_minus), gamma, b)


def default_u_cap(n: int) -> int:
    """Safety cap on |U|: n * ceil(log2 n) * 32."""
    return max(n, 2) * max(1, math.ceil(math.log2(max(n, 2)))) * 32


@dataclass(frozen=True)
class Sparsifier:
    """Frozen result of one streamed run: subgraph H, candidate set U,
    and the prefix length that Phase I consumed."""

    h: Graph
    u: frozenset[Edge]
    eps_cut: int


def phase1_build_h(
    prefix: Sequence[tuple[int, int]],
    n: int,
    params: AlgoParams,
    bipartition=None,
) -> Graph:
    """Build H from the Phase I prefix.

    On arrival of (u, v): insert iff deg_H(u) + deg_H(v) < beta_minus;
    then, while any H edge has edge-degree above beta_plus, evict the
    lexicographically smallest violating edge. Insertion only raises the
    degrees of u and v and eviction only lowers degrees, so the violation
    scan stays local to edges incident to u or v.
    """
    deg = [0] * n
    adj: list[set[int]] = [set() for _ in range(n)]
    present: dict[Edge, None] = {}
    for a, b in prefix:
        e = edge_key(a, b)
        u, v = e
        if e in present:
            raise ValueError(f"parallel edge {e} in prefix")
        if deg[u] + deg[v] >= params.beta_minus:
            continue
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
                break
            wu, wv = worst
            del present[worst]
            adj[wu].discard(wv)
            adj[wv].discard(wu)
            deg[wu] -= 1
            deg[wv] -= 1
    return Graph(n, list(present), bipartition)


def phase2_collect_u(
    suffix: Iterable[tuple[int, int]],
    h: Graph,
    params: AlgoParams,
    safety_cap: int | None = None,
) -> set[Edge]:
    """Single scan over the suffix: keep exactly the edges whose edge-degree
    in the frozen H is below beta_minus."""
    cap = default_u_cap(h.n) if safety_cap is None else safety_cap
    deg = h.degrees
    u_set: set[Edge] = set()
    for a, b in suffix:
        if deg[a] + deg[b] < params.beta_minus:
            u_set.add(edge_key(a, b))
            if len(u_set) > cap:
                raise SafetyCapExceeded(f"|U| exceeded the safety cap of {cap}")
    return u_set


def run_sparsifier(
    stream: EdgeStream, params: AlgoParams, safety_cap: int | None = None
) -> Sparsifier:
    """Run both phases over a stream and freeze the result."""
    m = len(stream)
    cut = phase1_cut(m, params.eps)
    g = stream.graph
    h = phase1_build_h(stream.slice(1, cut), g.n, params, g.bipartition)
    suffix = stream.slice(cut + 1, m) if cut < m else ()
    u_set = phase2_collect_u(suffix, h, params, safety_cap)
    return Sparsifier(h, frozenset(u_set), cut)


def bernstein_match(
    stream: EdgeStream, params: AlgoParams, safety_cap: int | None = None
) -> Matching:
    """Stream once, then return a maximum matching of H | U."""
    sp = run_sparsifier(stream, params, safety_cap)
    g = stream.graph
    return max_matching(union_graph(g.n, sp.h.edges, sp.u, bipartition=g.bipartition))
