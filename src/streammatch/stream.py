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

    Positions are 1-indexed: the stream is e_1, ..., e_m.
    """

    __slots__ = ("graph", "seed", "order", "_arrivals")

    def __init__(self, graph: Graph, order, seed: int):
        arr = np.asarray(order)
        m = len(graph.edges)
        if (
            arr.shape != (m,)
            or (m and arr.dtype.kind not in "iu")  # () comes out as float64
            or not np.array_equal(np.sort(arr), np.arange(m))
        ):
            raise ValueError("order must be a 1-D integer permutation of the edge indices")
        self.graph = graph
        self.seed = seed
        self.order: tuple[int, ...] = tuple(arr.tolist())
        self._arrivals: tuple[Edge, ...] = tuple(map(graph.edges.__getitem__, self.order))

    def __len__(self) -> int:
        return len(self.order)

    def edge_at(self, pos: int) -> Edge:
        if not 1 <= pos <= len(self.order):
            raise IndexError(f"position {pos} out of range 1..{len(self.order)}")
        return self._arrivals[pos - 1]

    def slice(self, a: int, b: int) -> tuple[Edge, ...]:
        """Edges e_a..e_b in arrival order (1-indexed, inclusive)."""
        if not (1 <= a <= b <= len(self.order)):
            raise IndexError(f"slice ({a}, {b}) out of range 1..{len(self.order)}")
        return self._arrivals[a - 1 : b]

    def arrivals(self) -> tuple[Edge, ...]:
        return self._arrivals


def make_stream(g: Graph, seed: int) -> EdgeStream:
    """Uniform-random arrival order for g's edges under the given seed."""
    m = len(g.edges)
    if m == 0:
        raise ValueError("cannot stream an empty graph")
    rng = np.random.default_rng(seed)
    return EdgeStream(g, rng.permutation(m), seed)


def sample_binomial(k: int, p: float, rng) -> int:
    """Number of successes in k independent Bernoulli(p) trials.

    Counter loop: O(k) time, O(1) extra space.
    """
    if k < 0:
        raise ValueError("k must be non-negative")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    count = 0
    for _ in range(k):
        if rng.random() < p:
            count += 1
    return count


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


def phase_map(stream: EdgeStream, split: PhaseSplit) -> dict[Edge, Phase]:
    """Phase of every edge of the stream, keyed by canonical edge."""
    if split.m != len(stream):
        raise ValueError("split does not belong to this stream")
    return {stream.edge_at(pos): split.phase_of(pos) for pos in range(1, len(stream) + 1)}
