"""Runtime verification of the structural guarantees: sparsifier
properties, the two-branch matching-size dichotomy, and the census of
short augmenting paths with their phase-based classification."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Mapping

from .graph import Edge, Graph, Matching, Path, edge_key, symmetric_difference
from .sparsifier import AlgoParams
from .stream import Phase


class UnknownEdgeError(KeyError):
    """A census edge has no phase assignment."""


@dataclass(frozen=True)
class EdcsReport:
    """Outcome of re-checking the sparsifier's two defining properties."""

    degree_cap_ok: bool
    u_exact: bool
    subgraph_ok: bool
    cap_violations: tuple[Edge, ...]
    u_missing: tuple[Edge, ...]
    u_extra: tuple[Edge, ...]

    @property
    def ok(self) -> bool:
        return self.degree_cap_ok and self.u_exact and self.subgraph_ok


def check_edcs(
    g: Graph,
    h: Graph,
    u: Iterable[Edge],
    params: AlgoParams,
    suffix: Iterable[tuple[int, int]],
) -> EdcsReport:
    """Verify on the finished run that (i) every H edge has edge-degree at
    most beta_plus and (ii) U is exactly the set of suffix edges whose
    H-edge-degree is below beta_minus."""
    u_set = {(a, b) if a < b else (b, a) for a, b in u}
    deg = h.degrees
    cap_violations = tuple(
        e for e in h.edges if deg[e[0]] + deg[e[1]] > params.beta_plus
    )
    expected = {
        (a, b) if a < b else (b, a)
        for a, b in suffix
        if deg[a] + deg[b] < params.beta_minus
    }
    missing = tuple(sorted(expected - u_set))
    extra = tuple(sorted(u_set - expected))
    subgraph_ok = h.edge_set <= g.edge_set and u_set <= g.edge_set
    return EdcsReport(
        degree_cap_ok=not cap_violations,
        u_exact=not missing and not extra,
        subgraph_ok=subgraph_ok,
        cap_violations=cap_violations,
        u_missing=missing,
        u_extra=extra,
    )


@dataclass(frozen=True)
class DichotomyReport:
    """Evaluation of the two-branch lower bound for mu(H) / mu(H|U).

    Margins are the signed slack of each branch (value minus threshold),
    so near-violations remain visible even when the booleans pass.
    """

    mu_g: int
    mu_h: int
    mu_hu: int
    lam: float
    delta: float
    bipartite: bool
    branch1_holds: bool
    branch2_holds: bool
    margin1: float
    margin2: float

    @property
    def holds(self) -> bool:
        return self.branch1_holds or self.branch2_holds


def check_dichotomy(
    mu_g: int,
    mu_h: int,
    mu_hu: int,
    lam: float,
    delta: float,
    bipartite: bool,
) -> DichotomyReport:
    """Either mu(H) clears (1-c1*lam)(2/3 - delta)*mu(G) or mu(H|U) clears
    (1-c2*lam)(2/3 + delta^2/18)*mu(G); constants (4, 2) in the bipartite
    case and (8, 4) in general."""
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    c1, c2 = (4.0, 2.0) if bipartite else (8.0, 4.0)
    thresh1 = (1.0 - c1 * lam) * (2.0 / 3.0 - delta) * mu_g
    thresh2 = (1.0 - c2 * lam) * (2.0 / 3.0 + delta * delta / 18.0) * mu_g
    margin1 = mu_h - thresh1
    margin2 = mu_hu - thresh2
    return DichotomyReport(
        mu_g=mu_g,
        mu_h=mu_h,
        mu_hu=mu_hu,
        lam=lam,
        delta=delta,
        bipartite=bipartite,
        branch1_holds=margin1 >= -1e-9,
        branch2_holds=margin2 >= -1e-9,
        margin1=margin1,
        margin2=margin2,
    )


@dataclass(frozen=True)
class PathCensus:
    """Augmenting paths of length at most five for m_h inside the
    symmetric difference of a reference matching and m_h."""

    paths: tuple[Path, ...]
    m_star_size: int
    m_h_size: int
    lucky: tuple[Path, ...] | None = None

    @property
    def counts(self) -> dict[int, int]:
        out = {1: 0, 3: 0, 5: 0}
        for p in self.paths:
            out[len(p.edges)] += 1
        return out

    @property
    def lucky_counts(self) -> dict[int, int]:
        out = {1: 0, 3: 0, 5: 0}
        if self.lucky:
            for p in self.lucky:
                out[len(p.edges)] += 1
        return out

    @property
    def short_path_bound_holds(self) -> bool:
        """|paths| >= |M*| - (4/3) mu(H), checked with exact integers."""
        return 3 * len(self.paths) >= 3 * self.m_star_size - 4 * self.m_h_size


def path_census(m_star: Matching, m_h: Matching) -> PathCensus:
    """Decompose m_star ^ m_h into components and collect the augmenting
    paths for m_h of length at most five.

    Components of a symmetric difference are paths or even cycles; a path
    component augments m_h exactly when its end edges come from m_star,
    which makes its length odd. Cycle components are never walked: no
    vertex of a cycle has degree one.
    """
    diff = symmetric_difference(m_star, m_h)
    star_edges = m_star.edges
    visited = [False] * diff.n
    paths: list[Path] = []
    for v in range(diff.n):
        if visited[v] or len(diff.adj[v]) != 1:
            continue
        # walk the path component from its lowest-index endpoint
        seq = [v]
        visited[v] = True
        cur = v
        while True:
            nxt = None
            for w in diff.adj[cur]:
                if not visited[w]:
                    nxt = w
                    break
            if nxt is None:
                break
            visited[nxt] = True
            seq.append(nxt)
            cur = nxt
        length = len(seq) - 1
        if length % 2 == 1 and length <= 5:
            first = edge_key(seq[0], seq[1])
            if first in star_edges:
                paths.append(Path(seq, diff.edge_set))
    return PathCensus(tuple(paths), m_star_size=len(m_star), m_h_size=len(m_h))


def classify_lucky(census: PathCensus, phase_of: Mapping[Edge, Phase]) -> PathCensus:
    """Mark the census paths whose decisive edges landed in the right
    phases: a length-1 path needs its edge in II.B, a length-3 path needs
    both end edges in II.A, and a length-5 path needs both end edges in
    II.A and its middle edge in II.B."""
    for p in census.paths:
        for e in p.edges:
            if e not in phase_of:
                raise UnknownEdgeError(e)
    lucky: list[Path] = []
    for p in census.paths:
        es = p.edges
        if len(es) == 1:
            good = phase_of[es[0]] is Phase.IIB
        elif len(es) == 3:
            good = phase_of[es[0]] is Phase.IIA and phase_of[es[2]] is Phase.IIA
        else:
            good = (
                phase_of[es[0]] is Phase.IIA
                and phase_of[es[4]] is Phase.IIA
                and phase_of[es[2]] is Phase.IIB
            )
        if good:
            lucky.append(p)
    return replace(census, lucky=tuple(lucky))
