"""Runtime verification of the structural guarantees: sparsifier
properties, the two-branch matching-size dichotomy, and the census of
short augmenting paths with their phase-based classification.

A verifier may read what the trial holds, but it re-derives every
result it checks."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

import numpy as np

from .graph import Edge, Graph, Matching, _lacking, edge_key
from .sparsifier import AlgoParams
from .stream import EdgeStream, Phase, phase1_cut


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
    stream: EdgeStream,
    h: Graph,
    u_index,
    params: AlgoParams,
) -> EdcsReport:
    """Verify on the finished run that (i) every H edge has edge-degree at
    most beta_plus and (ii) `u_index` holds exactly the ascending 0-based
    indices, in `stream.arrivals()`, of the Phase II edges whose
    H-edge-degree is below beta_minus.

    H's degrees are counted from its endpoint arrays, and the cap
    violations are listed in H's `endpoints` order. Phase II starts at
    `phase1_cut`, and the expected indices come from a comparison of its
    own over the stream's endpoint arrays. Indices out of order, repeated
    or outside Phase II fail (ii); one outside the stream names no edge of
    G and fails the subgraph check as well, as does an H edge that G
    lacks, found by one lookup of H's edge codes in G's sorted codes
    (`graph._lacking`), so the check builds no rows of G. The missing and
    extra edges are listed, canonical and sorted, only on a mismatch."""
    g = stream.graph
    m = len(stream)
    cut = phase1_cut(m, params.eps)
    h_lows, h_highs = h.endpoints
    # sized for G too: the Phase II ends index it, and H may have fewer
    # vertices than G
    deg = np.bincount(np.concatenate(h.endpoints), minlength=max(h.n, g.n))
    over = np.flatnonzero(deg[h_lows] + deg[h_highs] > params.beta_plus)
    cap_violations = tuple(zip(h_lows[over].tolist(), h_highs[over].tolist()))
    lows, highs = stream.ends(cut + 1, m)
    expected = cut + np.flatnonzero(deg[lows] + deg[highs] < params.beta_minus)
    got = np.asarray(u_index, dtype=np.int64)
    u_exact = np.array_equal(got, expected)
    missing = extra = ()
    in_stream = True
    if not u_exact:
        inside = got[(got >= 0) & (got < m)]
        in_stream = len(inside) == len(got)
        missing = tuple(sorted(stream.edges_at(np.setdiff1d(expected, got))))
        extra = tuple(sorted(stream.edges_at(np.setdiff1d(inside, expected))))
    return EdcsReport(
        degree_cap_ok=not cap_violations,
        u_exact=u_exact,
        subgraph_ok=in_stream and h.n <= g.n and not _lacking(g, h_lows, h_highs).any(),
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
    symmetric difference of a reference matching and m_h, each kept as
    its vertex sequence (`walks`)."""

    walks: tuple[tuple[int, ...], ...]
    m_star_size: int
    m_h_size: int
    lucky: tuple[tuple[int, ...], ...] | None = None

    @property
    def counts(self) -> dict[int, int]:
        out = {1: 0, 3: 0, 5: 0}
        for w in self.walks:
            out[len(w) - 1] += 1
        return out

    @property
    def lucky_counts(self) -> dict[int, int]:
        out = {1: 0, 3: 0, 5: 0}
        if self.lucky:
            for w in self.lucky:
                out[len(w) - 1] += 1
        return out

    @property
    def short_path_bound_holds(self) -> bool:
        """|paths| >= |M*| - (4/3) |M_H|, checked with exact integers.

        This holds for any two matchings M* and M_H, maximum or not. The
        components of M* ^ M_H that augment M_H hold one more M* edge than
        M_H edge each, and the others at least as many M_H edges as M*
        edges, so at least |M*| - |M_H| of them augment M_H. Those of
        length seven or more use at least three M_H edges each, so there
        are at most |M_H| / 3 of them, and at least |M*| - (4/3) |M_H|
        are of length at most five. So False means a fault in the census
        code, never one in the sparsifier, and 3 |paths| - 3 |M*| +
        4 |M_H| is the slack worth reporting."""
        return 3 * len(self.walks) >= 3 * self.m_star_size - 4 * self.m_h_size


def path_census(m_star: Matching, m_h: Matching) -> PathCensus:
    """Collect the augmenting paths for m_h of length at most five in
    m_star ^ m_h, in the order of their lower ends. The two matchings
    must be on the same vertices 0..n-1.

    Components of a symmetric difference are paths or even cycles. A path
    component ends at the vertices that only one of the two matchings
    covers. It augments m_h exactly when its end edges come from m_star,
    which makes its length odd and puts both of its ends among the
    vertices that m_star alone covers. So only those are walked, by
    alternating the two mate lists, for at most seven vertices: a walk
    that ends within six, on an even number of vertices, is an augmenting
    path of length at most five, and it is recorded from its lower end,
    whose walk comes first. Cycles have no such end and are never walked.

    Each recorded walk is checked to be a path of m_star ^ m_h: its
    vertices are distinct, and each step is an edge of exactly one of the
    two matchings; ValueError names the first fault.
    """
    star, h = m_star.mate, m_h.mate
    if len(star) != len(h):
        raise ValueError(f"matchings on {len(star)} and {len(h)} vertices")
    walks: list[tuple[int, ...]] = []
    for v, x1 in enumerate(star):
        if x1 < 0 or h[v] >= 0:
            continue  # not covered by m_star alone
        x2 = h[x1]
        if x2 < 0:
            seq = (v, x1)
        elif (x3 := star[x2]) < 0:
            continue  # ends at x2, which m_h alone covers
        elif (x4 := h[x3]) < 0:
            seq = (v, x1, x2, x3)
        elif (x5 := star[x4]) < 0 or h[x5] >= 0:
            continue  # ends at x4, or goes on past six vertices
        else:
            seq = (v, x1, x2, x3, x4, x5)
        if v < seq[-1]:
            _check_walk(seq, star, h)
            walks.append(seq)
    return PathCensus(tuple(walks), m_star_size=len(m_star), m_h_size=len(m_h))


def _check_walk(seq: tuple[int, ...], star: list[int], h: list[int]) -> None:
    """Raise ValueError unless the vertices of seq are distinct and each
    step joins two vertices matched to each other by exactly one of the
    mate lists star and h."""
    if len(set(seq)) != len(seq):
        raise ValueError("path vertices must be pairwise distinct")
    for a, b in zip(seq, seq[1:]):
        if (star[a] == b) == (h[a] == b):
            raise ValueError(f"consecutive vertices {a}, {b} are not adjacent")


def classify_lucky(census: PathCensus, phase_of: Mapping[Edge, Phase]) -> PathCensus:
    """Mark the census walks whose decisive edges landed in the right
    phases: a length-1 path needs its edge in II.B, a length-3 path needs
    both end edges in II.A, and a length-5 path needs both end edges in
    II.A and its middle edge in II.B. Every edge of every walk must have a
    phase, or UnknownEdgeError names the first that has none."""
    walk_edges = [[edge_key(a, b) for a, b in zip(w, w[1:])] for w in census.walks]
    for es in walk_edges:
        for e in es:
            if e not in phase_of:
                raise UnknownEdgeError(e)
    lucky = []
    for w, es in zip(census.walks, walk_edges):
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
            lucky.append(w)
    return replace(census, lucky=tuple(lucky))
