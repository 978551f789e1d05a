"""Seeded random-order edge streams and phase bookkeeping.

Streams are backed by PCG64 so that identical (graph, seed) pairs give
identical permutations, and trial-level substreams can be spawned
independently for parallel runs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .graph import Edge, Graph


class Phase(enum.Enum):
    I = "I"
    IIA = "IIA"
    IIB = "IIB"


class EdgeStream:
    """Random-order arrival sequence over a graph's edges.

    Positions are 1-indexed: the stream is e_1, ..., e_m. `order` is the
    permutation as a read-only int64 array: e_i is the graph's edge
    `order[i - 1]`. The algorithms' stages read e_a..e_b as int64 end
    arrays (`ends`); only `arrivals` and `edges_at` gather the graph's
    own edge tuples.
    """

    __slots__ = ("graph", "order", "_ends")

    def __init__(self, graph: Graph, order):
        arr = np.asarray(order)
        m = graph.m
        ok = arr.shape == (m,) and (
            m == 0  # () comes out as float64
            or (arr.dtype.kind in "iu" and arr.min() >= 0 and arr.max() < m)
        )
        if ok and m:
            # m indices in range are a permutation iff they hit every index
            hit = np.zeros(m, bool)
            hit[arr] = True
            ok = hit.all()
        if not ok:
            raise ValueError("order must be a 1-D integer permutation of the edge indices")
        self.graph = graph
        self.order: np.ndarray = arr.astype(np.int64)
        self.order.flags.writeable = False
        self._ends: tuple[np.ndarray, np.ndarray] | None = None

    def __len__(self) -> int:
        return len(self.order)

    def ends(self, a: int, b: int) -> tuple[np.ndarray, np.ndarray]:
        """(low ends, high ends) of e_a..e_b as int64 arrays, for
        1 <= a <= b + 1 <= m + 1: empty for b = a - 1, so ends(m + 1, m)
        is the empty suffix. The stream's endpoint arrays are gathered
        from the graph's on first use."""
        if not (1 <= a <= b + 1 <= len(self.order) + 1):
            raise IndexError(f"positions ({a}, {b}) out of range 1..{len(self.order)}")
        ends = self._ends
        if ends is None:
            lows, highs = self.graph.endpoints
            ends = self._ends = (lows[self.order], highs[self.order])
        return ends[0][a - 1 : b], ends[1][a - 1 : b]

    def arrivals(self) -> tuple[Edge, ...]:
        """Every edge in arrival order, as the graph's own tuples."""
        return tuple(self.graph.edge_array[self.order].tolist())

    def edges_at(self, index: np.ndarray) -> list[Edge]:
        """The arrivals at 0-based indices `index` (e_{i+1} for each i),
        in the order given, gathered with one take."""
        return self.graph.edge_array[self.order[index]].tolist()


def make_stream(g: Graph, seed: int) -> EdgeStream:
    """Uniform-random arrival order for g's edges under the given seed."""
    m = g.m
    if m == 0:
        raise ValueError("cannot stream an empty graph")
    rng = np.random.default_rng(seed)
    return EdgeStream(g, rng.permutation(m))


def sample_binomial(k: int, p: float, rng) -> int:
    """Number of successes in k independent Bernoulli(p) trials: the count
    of `rng.random() < p` over k draws. The numpy Generator `rng` gives
    the k doubles in one call, the same doubles and the same state after
    them as k single draws. O(k) time and space.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    return int(np.count_nonzero(rng.random(k) < p))


def phase1_cut(m: int, eps: float) -> int:
    """Length of the stream prefix processed in the first phase: ceil(eps*m).

    Streams shorter than ceil(1/eps) are rejected rather than guessing a
    boundary for them.
    """
    if not 0.0 < eps < 0.5:
        raise ValueError("eps must lie in (0, 1/2)")
    if m < math.ceil(1.0 / eps):
        raise ValueError(f"need at least ceil(1/eps)={math.ceil(1.0 / eps)} edges, got {m}")
    # round before ceil: guards float noise when eps*m sits on an integer
    return math.ceil(round(eps * m, 9))


@dataclass(frozen=True)
class PhaseSplit:
    """Partition of stream positions into Phase I / II.A / II.B."""

    m: int
    eps_cut: int
    tau: int

    def __post_init__(self):
        if not 0 <= self.eps_cut <= self.m:
            raise ValueError("eps_cut out of range")
        if not 0 <= self.tau <= self.m - self.eps_cut:
            raise ValueError("tau out of range")

    def phase_of(self, pos: int) -> Phase:
        if not 1 <= pos <= self.m:
            raise IndexError(f"position {pos} out of range 1..{self.m}")
        if pos <= self.eps_cut:
            return Phase.I
        if pos <= self.eps_cut + self.tau:
            return Phase.IIA
        return Phase.IIB


def split_phases(m: int, eps: float, gamma: float, rng) -> PhaseSplit:
    """Draw the Phase II.A length from a binomial over the Phase II edges."""
    cut = phase1_cut(m, eps)
    tau = sample_binomial(m - cut, gamma, rng)
    return PhaseSplit(m, cut, tau)
