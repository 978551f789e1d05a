"""Streaming augmentation on top of the sparsifier.

beats23 is Bernstein's two-phase sparsifier with two stages added, each
in one place:

- H (Phase I) and U (all of Phase II) come from `run_sparsifier`, and
  M_H is a maximum matching of H;
- Phase II.A: `build_t` greedily stores a maximal (2, b)-matching T
  between M_H-matched and unmatched vertices;
- Phase II.B: `phase2b_step` repeatedly applies augmenting paths of
  length up to five inside M | T | {current edge};
- the answer is a maximum matching of M | H | U.

The stages run one after another, each over its own slice of the
stream, yet build the same sets as one interleaved pass would: U reads
only the frozen H and each Phase II edge, T reads only M_H and the II.A
arrivals, and II.B reads only T, M and its own arrivals, so no stage
feeds a decision at an earlier stream position. The one visible
difference from an interleaved pass is that `SafetyCapExceeded` is
raised before II.B starts.
"""

from __future__ import annotations

import bisect
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

from .graph import (
    Edge,
    Graph,
    Matching,
    _augmenting_paths,
    _graph_of_canonical,
    edge_key,
    max_matching,
)
from .sparsifier import AlgoParams, run_sparsifier
from .stream import EdgeStream, PhaseSplit, split_phases


class TwoBMatching:
    """The (2, b)-matching T as `build_t` built it: its edges in admission
    order, their set, and sorted adjacency."""

    __slots__ = ("edges", "edge_set", "vertices", "_adj")

    def __init__(self, edges: tuple[Edge, ...], adj: dict[int, list[int]]):
        self.edges = edges
        self.edge_set: frozenset[Edge] = frozenset(edges)
        self.vertices: tuple[int, ...] = tuple(sorted(adj))
        self._adj = {v: tuple(sorted(lst)) for v, lst in adj.items()}

    def degree(self, v: int) -> int:
        return len(self._adj.get(v, ()))

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj.get(v, ())

    def __len__(self) -> int:
        return len(self.edges)


def build_t(
    phase2a: Sequence[tuple[int, int]], m_h: Matching, b: int
) -> TwoBMatching:
    """Greedy maximal (2, b)-matching over the Phase II.A arrivals: degree
    <= 2 at M_H-matched vertices, degree <= b elsewhere.

    Edges with zero or two endpoints matched by m_h are ignored; an edge
    is kept iff the matched endpoint has T-degree below 2 and the
    unmatched endpoint has T-degree below b at its arrival.
    """
    if b < 2:
        raise ValueError("b must be at least 2")
    matched = m_h.partner_map
    adj: dict[int, list[int]] = {}
    chosen: list[Edge] = []
    for x, y in phase2a:
        x_in = x in matched
        if x_in == (y in matched):
            continue
        v, u = (x, y) if x_in else (y, x)
        if len(adj.get(v, ())) < 2 and len(adj.get(u, ())) < b:
            chosen.append(edge_key(x, y))
            adj.setdefault(v, []).append(u)
            adj.setdefault(u, []).append(v)
    return TwoBMatching(tuple(chosen), adj)


class AppliedPath(NamedTuple):
    arrival: int | None
    length: int
    vertices: tuple[int, ...]


@dataclass
class AugmentationState:
    """Matching under augmentation plus the log of applied paths.

    `settled_t` is the (2, b)-matching T for which M | T is known to hold
    no augmenting path of length <= 5: phase2b_step sets it when a step
    ends, and it stays None until then. Replacing `matching` from outside
    must reset it.
    """

    matching: Matching
    applied: list[AppliedPath] = field(default_factory=list)
    settled_t: TwoBMatching | None = None


def _free_ends(a: int, partner_map, nbrs) -> Iterator[int]:
    """Free vertices that the walk from `a` reaches: `a` itself if free,
    else mate -> neighbour, then once more mate -> neighbour. An
    augmenting path of length <= 5 with `a` at an even position from
    one end leaves `a` by its matched edge (unless `a` is that end) and
    reaches the end this way. The walk does not check that vertices are
    distinct, so it may yield vertices that begin no such path, and it
    may yield a vertex more than once."""
    mate = partner_map.get(a)
    if mate is None:
        yield a
        return
    for y in nbrs(mate):
        z = partner_map.get(y)
        if z is None:
            yield y
            continue
        for w in nbrs(z):
            if w not in partner_map:
                yield w


def _path_ends_through(edge, partner_map, nbrs) -> list[int]:
    """Ascending free vertices that begin an augmenting path of length
    <= 5 through `edge` (an empty tuple gives none).

    On a path u x1 x2 x3 x4 w the interior vertices are matched, and one
    end of the edge sits at an even position in either direction. From
    position 0 that end is u itself; from position 2 or 4 the walk back to
    u crosses a matched edge by `partner_map`, then an unmatched one by
    `nbrs`, once or twice (`_free_ends`). The search discards the
    vertices that begin no path.
    """
    ends: set[int] = set()
    for a in edge:
        ends.update(_free_ends(a, partner_map, nbrs))
    return sorted(ends)


def _reaches_free(a: int, partner_map, t_nbrs) -> bool:
    """Whether `a` is free or its walk over M | T reaches a free vertex.

    An arrival e = (x, y) for which this fails at x or at y starts no
    augmenting path in M | T | {e}: a path through e, which is unmatched,
    continues from each of its ends along that end's matched edge unless
    the end is the path's own free endpoint, and a simple path crosses e
    only once, so both ends reach the path's endpoints by walks that use
    M and T alone. So the filter has no false negatives. It depends only
    on M and T, so it stays valid until a path is applied.
    """
    return next(_free_ends(a, partner_map, t_nbrs), None) is not None


def phase2b_step(
    state: AugmentationState,
    t: TwoBMatching,
    e: tuple[int, int] | None,
    arrival: int | None = None,
) -> AugmentationState:
    """Process one Phase II.B arrival e, or with e None a pass over M | T.

    Repeatedly finds and applies augmenting paths of length up to five in
    M | T | {e} (shortest first, lowest vertex index first) until none
    remains, then returns the updated state. The matching is flipped in
    place. A step that searches from every vertex of T resumes its search
    after each applied path instead of restarting it (see
    `graph._augmenting_paths`).

    The search is anchored at e when an earlier step over the same T has
    ended (`state.settled_t is t`). That step left no augmenting path of
    length <= 5 in M | T | {e_prev}, so M | T holds none either and every
    path in M | T | {e} uses e. Only free vertices that begin a path
    through e are tried, in the full search's order, so the same path is
    found. At most one is applied: were Q another after P, P ^ Q would
    hold two disjoint augmenting paths for the old matching, and the one
    without e would lie in M | T and have length <= |Q| <= 5, since a path
    through e is no shorter than P. The first step over a T (it applies
    T's own Phase II.A paths) and steps on a fresh state search from every
    vertex of T.
    """
    if e is None:
        edge = ()
        nbrs = t.neighbors
    else:
        edge = ea, eb = edge_key(*e)

        def nbrs(v: int):
            base = t.neighbors(v)
            if v == ea:
                merged = list(base)
                bisect.insort(merged, eb)
                return merged
            if v == eb:
                merged = list(base)
                bisect.insort(merged, ea)
                return merged
            return base

    partner_map = state.matching.partner_map
    anchored = state.settled_t is t
    if anchored:
        starts = _path_ends_through(edge, partner_map, nbrs)
    else:
        starts = sorted(set(t.vertices).union(edge))
    for verts in _augmenting_paths(partner_map, starts, nbrs, 5):
        for u, v in zip(verts[::2], verts[1::2]):
            uv = edge_key(u, v)
            if uv != edge and uv not in t.edge_set:
                raise ValueError(f"consecutive vertices {u}, {v} are not adjacent")
        state.matching.augment(verts)
        state.applied.append(AppliedPath(arrival, len(verts) - 1, tuple(verts)))
        if anchored:
            break
    state.settled_t = t
    return state


def greedy_match(stream: EdgeStream) -> Matching:
    """Maximal matching: accept each arriving edge with both endpoints free."""
    m = Matching()
    for u, v in stream.arrivals():
        if not m.is_matched(u) and not m.is_matched(v):
            m.add(u, v)
    return m


@dataclass(frozen=True)
class TrialDiagnostics:
    """Artifacts and measurements from one full streamed run."""

    split: PhaseSplit
    h: Graph
    u: frozenset[Edge]
    t: TwoBMatching
    m_h: Matching
    m_aug: Matching
    mu_hu: int
    applied: tuple[AppliedPath, ...]

    @property
    def path_length_histogram(self) -> dict[int, int]:
        """Number of applied paths of each length 1, 3 and 5."""
        hist = {1: 0, 3: 0, 5: 0}
        hist.update(Counter(p.length for p in self.applied))
        return hist


def beats23_match(
    stream: EdgeStream,
    params: AlgoParams,
    rng,
    safety_cap: int | None = None,
) -> tuple[Matching, TrialDiagnostics]:
    """Bernstein's sparsifier plus T and II.B: H and U from
    `run_sparsifier`, T from `build_t` over Phase II.A, length-<=5
    augmentation over Phase II.B, returning a maximum matching of
    M | H | U."""
    g = stream.graph
    m = len(stream)
    split = split_phases(m, params.eps, params.gamma, rng)
    sp = run_sparsifier(stream, params, safety_cap)
    m_h = max_matching(sp.h)
    iia_end = split.eps_cut + split.tau
    phase2a = stream.slice(split.eps_cut + 1, iia_end)
    t = build_t(phase2a, m_h, params.b)

    state = AugmentationState(matching=m_h.copy())
    partner_map = state.matching.partner_map
    reach: dict[int, bool] = {}

    def reaches(v: int) -> bool:
        r = reach.get(v)
        if r is None:
            r = reach[v] = _reaches_free(v, partner_map, t.neighbors)
        return r

    phase2b = stream.slice(iia_end + 1, m)
    for pos, e in enumerate(phase2b, iia_end + 1):
        # once a step has settled T, arrivals that start no path are skipped
        if state.settled_t is t and not (reaches(e[0]) and reaches(e[1])):
            continue
        applied = len(state.applied)
        phase2b_step(state, t, e, arrival=pos)
        if len(state.applied) != applied:
            reach.clear()
    if iia_end == m:
        # tau covered all of Phase II: no arrival applied T's own paths
        phase2b_step(state, t, None)

    # M | H | U is H | U plus the at most |M| edges of M outside it
    hu = sp.hu_graph
    extra = sorted(state.matching.edges - hu.edge_set)
    final = max_matching(_graph_of_canonical(g.n, extra, hu.bipartition, base=hu))
    diag = TrialDiagnostics(
        split=split,
        h=sp.h,
        u=sp.u,
        t=t,
        m_h=m_h,
        m_aug=state.matching,
        mu_hu=len(sp.hu_matching()),
        applied=tuple(state.applied),
    )
    return final, diag
