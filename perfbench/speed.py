"""Machine-speed probe for a shared machine.

On the 2-vCPU machine this benchmark was tuned on, the same pure-Python
work ran at two speeds that alternated every few seconds and sometimes
stayed at the slow one for over a minute: a bernstein trial on dense-c10
took 40-45 ms in fast stretches and 65-77 ms in slow ones, and a single
30-second run could fall entirely in a slow stretch. No statistic taken
within one run removes that.

The probe is a fixed pure-Python graph kernel (adjacency sets, a greedy
matching over a fixed edge order, a BFS) that imports nothing from
streammatch, so no change to the program can change its time. The harness
times it on each CPU the run uses, between consecutive batches; a batch's
speed factor is REFERENCE_S divided by the mean of the probes on either
side of it (see Clock for which CPUs count), and every timing of the
batch is multiplied by that factor. The timings it reports are therefore
the times the batch would have taken at the reference speed.

On the tuning machine the ratio of a bernstein trial's time to the
probe's stayed within about 6% across fast and slow stretches while each
alone moved by 65%. The pooled greedy batches of pool-greedy, which spend
much of their time pickling tasks and in the process pool, moved only
about half as much as the probe, so their scaled rate still moves by up
to about 15% between stretches (the other way from their raw rate).
"""

from __future__ import annotations

import os
import random
import statistics
import time
from collections import deque

# The probe's time in the fast stretches of the tuning machine (Intel Xeon
# at 2.1 GHz, 2 vCPUs, Python 3.11.7). Only the ratio between two runs of
# the benchmark matters, so any fixed value would do.
REFERENCE_S = 0.0105
REPEATS = 3  # one probe is the fastest of this many kernel runs
CPUS = sorted(os.sched_getaffinity(0))  # before any Clock pins the process

_N = 2000
_rng = random.Random(20200707)
_EDGES = [(_rng.randrange(_N), _N + _rng.randrange(_N)) for _ in range(12000)]


def _kernel() -> int:
    adj: dict[int, set[int]] = {}
    for u, v in _EDGES:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    matched: set[int] = set()
    size = 0
    for u, v in sorted(_EDGES, key=lambda e: (e[1] * 7919 + e[0]) % 10007):
        if u not in matched and v not in matched:
            matched.update((u, v))
            size += 1
    seen = {_EDGES[0][0]}
    queue = deque(seen)
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return size + len(seen)


def probe() -> float:
    """Seconds for one kernel run, the fastest of REPEATS."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        _kernel()
        best = min(best, time.perf_counter() - start)
    return best


class Clock:
    """Probes the CPUs of the run between batches and turns a batch's
    measured seconds into seconds at the reference speed.

    The slow stretches hit one vCPU at a time, and a process that the
    scheduler moves between vCPUs changes speed with it. So the run keeps
    to at most `workers` CPUs, a one-worker batch is pinned to the first of
    them and scaled by that CPU's probes, and a pooled batch may use all of
    them and is scaled by the mean of their speed factors.
    """

    def __init__(self, workers: int):
        self.cpus = CPUS[:workers]
        self.probes = [self._probe_all()]

    def _probe_all(self) -> dict[int, float]:
        out = {}
        for cpu in self.cpus:
            os.sched_setaffinity(0, {cpu})
            out[cpu] = probe()
        return out

    def pin(self, workers: int) -> None:
        """Call before a batch that runs on this many workers."""
        os.sched_setaffinity(0, set(self.cpus[:1] if workers == 1 else self.cpus))

    def factor(self, workers: int) -> float:
        """Probe now; the speed factor of the batch that ran since the
        previous probe on this many workers."""
        self.probes.append(self._probe_all())
        before, after = self.probes[-2], self.probes[-1]
        cpus = self.cpus[:1] if workers == 1 else self.cpus
        return statistics.fmean(REFERENCE_S / ((before[c] + after[c]) / 2) for c in cpus)

    def median_factor(self) -> float:
        return statistics.median(REFERENCE_S / t for p in self.probes for t in p.values())
