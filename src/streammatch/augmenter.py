"""Streaming augmentation on top of the sparsifier: the greedy baseline,
and beats23, Bernstein's two-phase sparsifier with two stages added,
Phase II.A (`build_t`) and Phase II.B (`phase2b`), each one function
with one code path, which `beats23_match` calls by its module name.

The stages run one after another, each over the end arrays of its own
range of the stream (`EdgeStream.ends`), yet build the same sets as one
interleaved pass would: U reads only the frozen H and each Phase II
edge, T reads only M_H and the II.A arrivals, and II.B reads only T, M
and its own arrivals, so no stage feeds a decision at an earlier stream
position. `tests/test_augmenter.py::test_beats23_equals_one_pass_reference`
checks this against one pass that reads the stream an arrival at a time
into one state. The one visible difference from an interleaved pass is
that `SafetyCapExceeded` is raised before II.B starts.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .graph import (
    Edge,
    Graph,
    Matching,
    _graph_of_canonical,
    _graph_plus,
    _lacking,
    edge_key,
    max_matching,
)
from .sparsifier import AlgoParams, Sparsifier, run_sparsifier
from .stream import EdgeStream, PhaseSplit, split_phases


def build_t(firsts: np.ndarray, seconds: np.ndarray, m_h: Matching, b: int) -> Graph:
    """Greedy maximal (2, b)-matching over the Phase II.A arrivals
    (firsts[i], seconds[i]): degree <= 2 at M_H-matched vertices, degree
    <= b elsewhere. The ends are int64 arrays in either orientation, such
    as a stream slice's `ends`, on m_h's vertices; T is on those vertices
    too. T's edges are in admission order.

    Edges with zero or two endpoints matched by m_h are ignored; an edge
    is kept iff the matched endpoint has T-degree below 2 and the
    unmatched endpoint has T-degree below b at its arrival. The others
    are never kept and change no degree, so one numpy mask drops them
    first. Without the b cap, the rule keeps the first two remaining
    arrivals at each matched end. One `np.sort` of the keys
    ins[i] * k + i, over the k remaining arrivals with matched ends ins,
    finds them: the keys are distinct, so their order is that of a stable
    argsort of ins (which took 4-6 times as long in process), and since
    ins[i] < n <= MAX_VERTICES they fit in int64 for every k below 2**32.
    The greedy rule agrees with that up to the first arrival the b cap
    rejects, and that arrival would be the b+1-th one the cap-free rule
    keeps at its unmatched end. So when no unmatched end holds more than
    b of the cap-free edges, they are T; otherwise the admission loop
    runs over the remaining arrivals.
    """
    if b < 2:
        raise ValueError("b must be at least 2")
    n = m_h.n
    lows, highs = np.minimum(firsts, seconds), np.maximum(firsts, seconds)
    matched = np.array(m_h.mate, np.int64) >= 0
    low_in = matched[lows]
    one = np.flatnonzero(low_in != matched[highs])  # exactly one matched end
    lows, highs, low_in = lows[one], highs[one], low_in[one]
    # each remaining edge's matched end and unmatched end
    ins, outs = np.where(low_in, lows, highs), np.where(low_in, highs, lows)
    k = len(ins)
    sorted_ins, by_in = np.divmod(np.sort(ins * k + np.arange(k)), max(k, 1))
    first_two = np.ones(k, bool)
    first_two[2:] = sorted_ins[2:] != sorted_ins[:-2]
    kept = np.sort(by_in[first_two])
    if len(kept) > b and np.bincount(outs[kept]).max() > b:
        kept = _admitted(ins.tolist(), outs.tolist(), b, n)
    return _graph_of_canonical(n, (lows[kept], highs[kept]))


def _admitted(ins: list[int], outs: list[int], b: int, n: int) -> list[int]:
    """Indices of the arrivals (ins[i], outs[i]), matched end first, that
    T's greedy rule admits: in turn, each one whose matched end has degree
    below 2 and whose unmatched end has degree below b."""
    deg = [0] * n
    kept = []
    for i, (v, u) in enumerate(zip(ins, outs)):
        if deg[v] < 2 and deg[u] < b:
            kept.append(i)
            deg[v] += 1
            deg[u] += 1
    return kept


class AppliedPath(NamedTuple):
    arrival: int | None
    length: int
    vertices: tuple[int, ...]


def _free_ends(a: int, mate: Sequence[int], adj) -> Iterator[int]:
    """Free vertices that the walk from `a` reaches: `a` itself if free,
    else mate -> neighbour, then once more mate -> neighbour. An
    augmenting path of length <= 5 with `a` at an even position from
    one end leaves `a` by its matched edge (unless `a` is that end) and
    reaches the end this way. The walk does not check that vertices are
    distinct, so it may yield vertices that begin no such path, and it
    may yield a vertex more than once."""
    x = mate[a]
    if x < 0:
        yield a
        return
    for y in adj[x]:
        z = mate[y]
        if z < 0:
            yield y
            continue
        for w in adj[z]:
            if mate[w] < 0:
                yield w


def _reaching(mate: Sequence[int], t: Graph) -> np.ndarray:
    """For every vertex v of t, whether `_free_ends(v, mate, t.adj)`
    yields anything, as one bool array worked out by numpy over T's
    endpoint arrays and the mate list, which covers t's n vertices."""
    n = t.n
    mate = np.array(mate, np.int64)
    free = mate < 0
    lows, highs = t.endpoints

    def has_nbr_in(mask: np.ndarray) -> np.ndarray:
        out = np.zeros(n, bool)
        out[lows[mask[highs]]] = True
        out[highs[mask[lows]]] = True
        return out

    # a free vertex's mate entry is -1, which reads the last vertex's
    # value; `free |` discards that read
    step = free | has_nbr_in(free)[mate]  # y free, or mate(y) has a free neighbour
    return free | has_nbr_in(step)[mate]


def _row_with(row: Sequence[int], v: int) -> list[int]:
    """A copy of the sorted adjacency row with v put in its place."""
    merged = list(row)
    insort(merged, v)
    return merged


def _path3(u, mate, adj) -> list[int] | None:
    for x1 in adj[u]:
        x2 = mate[x1]
        if x2 < 0:
            continue
        for w in adj[x2]:
            if w != u and mate[w] < 0:
                return [u, x1, x2, w]
    return None


def _path5(u, mate, adj) -> list[int] | None:
    for x1 in adj[u]:
        x2 = mate[x1]
        if x2 < 0:
            continue
        for x3 in adj[x2]:
            if x3 == x1 or x3 == u:
                continue
            x4 = mate[x3]
            if x4 < 0:
                continue
            for w in adj[x4]:
                if w != u and mate[w] < 0:
                    return [u, x1, x2, x3, x4, w]
    return None


def _augmenting_paths(mate, starts, adj) -> Iterator[list[int]]:
    """Augmenting paths of length 3 or 5, shortest first; within a
    length, from the lowest free start first, then by ascending
    neighbour index. No allowed edge may have two free ends, so there is
    no path of length 1 to look for.

    `starts` is an ascending iterable of candidate endpoints, `adj[v]`
    holds the allowed-edge neighbours of v in ascending order, and
    `mate` is the matching's mate list (-1 = free). Matched edges are
    traversed through `mate` only, so every odd-position edge of a
    yielded path comes from the allowed universe.

    The first yield is what a fresh search returns. A caller that flips
    each yielded path in `mate` before resuming, with `starts` holding
    every endpoint of an allowed edge, gets from each later yield what a
    fresh search on the flipped matching would return, without
    rescanning. The search resumes at the same length and the next start:
    - No shorter path appears. The flipped path P is a shortest one, and
      by the Hopcroft-Karp lemma, which holds in general graphs too, an
      augmenting path Q of the new matching has |Q| >= |P| + |P & Q|.
    - A new Q of the same length shares no edge with P, so it shares no
      vertex either: every vertex of P is now matched along an edge of P,
      and Q would have to use that edge. So Q augmented the old matching
      as well, and a start before P's (P's own start is now matched) that
      ends Q would have yielded it already.
    """
    starts = [u for u in starts if mate[u] < 0]
    for first_from in (_path3, _path5):
        for u in starts:
            if mate[u] < 0:
                path = first_from(u, mate, adj)
                if path is not None:
                    yield path


def phase2b(
    m_h: Matching, t: Graph, first: int, firsts: np.ndarray, seconds: np.ndarray
) -> tuple[Matching, tuple[AppliedPath, ...]]:
    """Phase II.B over the arrivals (firsts[i], seconds[i]) at stream
    positions first + i: after each arrival e, apply augmenting paths of
    length up to five in M | T | {e} (shortest first, lowest vertex index
    first) until none remains. The ends are int64 arrays in either
    orientation, such as a stream slice's `ends`. Returns the augmented
    copy of m_h and the applied paths in order. With no arrivals it makes
    one pass over M | T alone, whose paths have no arrival position.

    No edge of t may have two ends free in m_h, as no edge of a T from
    `build_t` does; phase2b raises ValueError before it applies anything
    otherwise. Free vertices only become matched, so this stays true, and
    after an arrival e the one possible augmenting path of length 1 is e
    itself.
    - An arrival whose two ends are free, the first one included, is
      applied as the path [low, high] at once, with no walk, no row copy
      and no search. It is the only path of length 1, and a search tries
      the shortest paths first, from the lowest end first.
    - The first step then searches from every vertex of T, and from e_1's
      ends if e_1 was not applied, and applies T's own Phase II.A paths
      too; it resumes its search after each applied path instead of
      restarting it (see `_augmenting_paths`). The step leaves no
      augmenting path of length <= 5 in M | T | {e_1}, so from then on
      M | T holds none and every path in M | T | {e} uses e. The loop
      below visits every later arrival with two free ends, since a free
      vertex reaches itself and is never marked as not reaching.
    - An arrival is skipped unless both of its ends are free or walk over
      M | T to a free vertex (`_free_ends`). A path through e, which is
      unmatched, leaves each end of e along that end's matched edge unless
      the end is the path's own free endpoint, and crosses e only once, so
      both ends reach the path's endpoints by walks in M | T. The answers
      depend only on M and T. Right after the first step they are worked
      out for every vertex at once (`_reaching`), and an arrival with an
      end that does not reach is skipped before any walk; most vertices
      are such ends. A flip can make a "reaches" answer stale, as it
      matches the ends of the applied path P, so every other arrival
      walks each of its ends once, and an end whose walk finds nothing is
      marked as not reaching. A "does not reach" answer stays true, so
      the skip is exact for every later arrival, and the loop visits only
      the arrivals whose two ends reached right after the first step:
      every other one has an end already marked.
      Say M' = M ^ P (e is in neither T nor M), and v, whose walks in
      M | T all end at matched vertices, walks in M' | T to a free w. The
      walk crosses an edge (a, b) that P added to the matching, or it was
      a walk in M | T already; take the last one, crossed from a to b. P
      from its end beyond b back to b, then the walk on from b to w, is an
      augmenting path Q for M (w is free in M', so off P). By cases on
      |P| in {1, 3, 5} and on where (a, b) and v lie on P, either Q lies
      in M | T with length <= 5, or Q uses e and is shorter than P, or
      v's walk in M | T reaches an end of P, or M | T holds an augmenting
      path of length 1 or 3 from an end of P. The search has left none of
      these, so v does not reach in M' | T either.
    - Only the free vertices those two walks found are tried, in the
      full search's order, so the same path is found: on a path
      u x1 x2 x3 x4 w through e, one end of e sits at an even position
      from u, and the walk from it back to u crosses a matched edge, then
      an unmatched one, once or twice, or it is u itself. The walks read
      T's rows, not the search's rows that hold e, and find the same
      vertices: a walk from x leaves by M(x), which is not y since e is
      not in M, so the only row with e it can read is y's, at its second
      step, and the extra neighbour there is x, which is matched once the
      walk gets that far (a free x yields itself and stops). The same
      holds from y. At most one path is applied: were Q another after P,
      P ^ Q would hold two disjoint augmenting paths for the old
      matching, and the one without e would lie in M | T and have length
      <= |Q| <= 5, since a path through e is no shorter than P.

    Raises ValueError if an edge of t has two free ends, or if a path
    uses an edge outside T | {e} | M.
    """
    m = m_h.copy()
    mate = m.mate
    t_adj = t.adj
    lows, highs = t.endpoints
    free = np.array(mate, np.int64) < 0
    if (free[lows] & free[highs]).any():
        raise ValueError("an edge of T has two ends free in m_h")
    # the searches read T's rows, with the current arrival's two rows
    # swapped for sorted copies that hold it while its search runs
    rows = list(t_adj)
    applied: list[AppliedPath] = []

    def apply(verts: list[int], edge: tuple, pos: int | None) -> None:
        # the path's unmatched edges, but for the arrival, must lie in T:
        # one bisection each into T's sorted adjacency rows, which a II.B
        # arrival is never in
        for j in range(0, len(verts) - 1, 2):
            u, v = verts[j], verts[j + 1]
            row = t_adj[u]
            k = bisect_left(row, v)
            if (k == len(row) or row[k] != v) and edge_key(u, v) != edge:
                raise ValueError(f"consecutive vertices {u}, {v} are not adjacent")
        m.augment(verts)
        applied.append(AppliedPath(pos, len(verts) - 1, tuple(verts)))

    def apply_if_free(x: int, y: int, pos: int) -> bool:
        # the arrival (x, y) as the path [low, high], if its ends are free
        if mate[x] >= 0 or mate[y] >= 0:
            return False
        edge = edge_key(x, y)
        apply(list(edge), edge, pos)
        return True

    pos, edge = None, ()
    starts = np.zeros(t.n, bool)  # the vertices of T, and e_1's ends
    starts[lows] = starts[highs] = True
    if len(firsts):
        pos = first
        x, y = int(firsts[0]), int(seconds[0])
        if not apply_if_free(x, y, pos):
            edge = ea, eb = edge_key(x, y)
            starts[[ea, eb]] = True
            rows[ea], rows[eb] = _row_with(t_adj[ea], eb), _row_with(t_adj[eb], ea)
    for verts in _augmenting_paths(mate, np.flatnonzero(starts).tolist(), rows):
        apply(verts, edge, pos)
    for v in edge:
        rows[v] = t_adj[v]

    reaching = _reaching(mate, t)
    later = 1 + np.flatnonzero(reaching[firsts[1:]] & reaching[seconds[1:]])
    alive = reaching.tolist()  # False: reaches none, now or after a flip

    def walk(v: int) -> set[int]:
        ends = set(_free_ends(v, mate, t_adj))
        alive[v] = bool(ends)
        return ends

    for i, x, y in zip(later.tolist(), firsts[later].tolist(), seconds[later].tolist()):
        if apply_if_free(x, y, first + i):
            continue
        if not (alive[x] and alive[y] and (ends_x := walk(x)) and (ends_y := walk(y))):
            continue
        edge = ea, eb = edge_key(x, y)
        rows[ea], rows[eb] = _row_with(t_adj[ea], eb), _row_with(t_adj[eb], ea)
        verts = next(_augmenting_paths(mate, sorted(ends_x | ends_y), rows), None)
        rows[ea], rows[eb] = t_adj[ea], t_adj[eb]
        if verts is not None:
            apply(verts, edge, first + i)
    return m, tuple(applied)


def greedy_match(stream: EdgeStream) -> Matching:
    """Maximal matching: accept each arriving edge with both endpoints free.
    It reads the arrivals as the graph's own tuples: a pass over the end
    arrays measured slower (1.0 against 0.6-0.8 ms per dense-c10 stream,
    in process), as every arrival then makes two fresh ints."""
    return Matching._greedy(stream.graph.n, stream.arrivals())


@dataclass(frozen=True)
class TrialDiagnostics:
    """Artifacts and measurements from one full streamed run."""

    split: PhaseSplit
    sparsifier: Sparsifier
    t: Graph
    m_h: Matching
    m_aug: Matching
    mu_hu: int
    applied: tuple[AppliedPath, ...]

    @property
    def u(self) -> frozenset[Edge]:
        """U as a set of the stream's edge tuples, built on every read."""
        sp = self.sparsifier
        return frozenset(sp.stream.edges_at(sp.u_index))

    @property
    def path_length_histogram(self) -> dict[int, int]:
        """Number of applied paths of each length 1, 3 and 5."""
        hist = {1: 0, 3: 0, 5: 0}
        hist.update(Counter(p.length for p in self.applied))
        return hist


def beats23_match(
    stream: EdgeStream, params: AlgoParams, rng
) -> tuple[Matching, TrialDiagnostics]:
    """Bernstein's sparsifier plus T and II.B: H and U from
    `run_sparsifier`, T from `build_t` over Phase II.A, `phase2b` over
    Phase II.B, returning a maximum matching of M | H | U."""
    m = len(stream)
    split = split_phases(m, params.eps, params.gamma, rng)
    sp = run_sparsifier(stream, params)
    m_h = max_matching(sp.h)
    iia_end = split.eps_cut + split.tau
    t = build_t(*stream.ends(split.eps_cut + 1, iia_end), m_h, params.b)
    m_aug, applied = phase2b(m_h, t, iia_end + 1, *stream.ends(iia_end + 1, m))

    # M | H | U is H | U plus the at most |M| edges of M outside it; with
    # none outside it is H | U itself, whose mates max_matching kept. M's
    # pairs (v, mate[v]) with v < mate[v] are canonical and ascending, and
    # H | U's sorted codes tell which of them it lacks, with no rows built
    hu = sp.hu_graph
    mate = np.array(m_aug.mate, np.int64)
    lows = np.flatnonzero(mate > np.arange(len(mate)))
    highs = mate[lows]
    outside = _lacking(hu, lows, highs)
    m_hu = max_matching(hu)
    final = max_matching(_graph_plus(hu, (lows[outside], highs[outside])))
    diag = TrialDiagnostics(
        split=split,
        sparsifier=sp,
        t=t,
        m_h=m_h,
        m_aug=m_aug,
        mu_hu=len(m_hu),
        applied=applied,
    )
    return final, diag
