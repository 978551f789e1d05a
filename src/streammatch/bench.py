"""Trial orchestration and reporting.

run_trials executes seeded independent trials of one algorithm over one
instance, optionally re-checking structural properties per trial, and
produces a report whose canonical hash is identical for identical
configs regardless of the worker count.
"""

from __future__ import annotations

import csv
import gc
import hashlib
import json
import multiprocessing
import os
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .analyzer import check_dichotomy, check_edcs, path_census
from .augmenter import beats23_match, greedy_match
from .graph import Graph, _graph_of_canonical, max_matching, read_edge_list
from .instances import gen_random
from .sparsifier import AlgoParams, run_sparsifier
from .stream import make_stream

ALGORITHMS = ("greedy", "bernstein", "beats23")


@dataclass(frozen=True)
class GeneratorSpec:
    kind: str
    n: int
    p: float | None = None
    plant: int | None = None


@dataclass(frozen=True)
class CheckConfig:
    edcs: bool = False
    dichotomy_deltas: tuple[float, ...] = ()
    census: bool = False

    def __post_init__(self):
        for d in self.dichotomy_deltas:
            if not 0.0 < d < 1.0:
                raise ValueError("dichotomy deltas must lie in (0, 1)")


@dataclass(frozen=True)
class TrialConfig:
    algo: str
    gen: GeneratorSpec | None = None
    instance_path: str | None = None
    params: AlgoParams | None = None
    trials: int = 1
    seed: int = 0
    checks: CheckConfig = field(default_factory=CheckConfig)

    def __post_init__(self):
        if self.algo not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algo!r}")
        if self.trials < 1:
            raise ValueError("trial count must be at least 1")
        if self.seed < 0:
            raise ValueError(f"seed must be non-negative, got {self.seed}")
        if (self.gen is None) == (self.instance_path is None):
            raise ValueError("exactly one of gen / instance_path is required")
        if self.algo != "greedy" and self.params is None:
            raise ValueError(f"{self.algo} needs algorithm parameters")


@dataclass(frozen=True)
class TrialRecord:
    trial: int
    seed: int
    output_size: int
    mu_g: int
    ratio: float
    h_size: int | None
    u_size: int | None
    t_size: int | None
    m_h_size: int | None
    m_size: int | None
    mu_hu: int | None
    path_hist: dict[str, int] | None
    checks: dict[str, bool]
    wall_time: float


@dataclass(frozen=True)
class Aggregate:
    mean_ratio: float
    min_ratio: float
    max_ratio: float
    stderr_ratio: float


@dataclass(frozen=True)
class TrialReport:
    algo: str
    seed: int
    trials: int
    records: tuple[TrialRecord, ...]
    aggregate: Aggregate

    def all_checks_passed(self) -> bool:
        return all(ok for r in self.records for ok in r.checks.values())


# ---------------------------------------------------------------------------
# seed derivation: pure functions of (base seed, trial index)


def _spawned_seeds(base_seed: int, spawn_index: int, count: int) -> list[int]:
    ss = np.random.SeedSequence(base_seed, spawn_key=(spawn_index,))
    return [int(x) for x in ss.generate_state(count, np.uint64)]


def instance_seed(base_seed: int) -> int:
    return _spawned_seeds(base_seed, 0, 1)[0]


def trial_seeds(base_seed: int, trial_index: int) -> tuple[int, int]:
    """(stream seed, algorithm seed) for one trial."""
    a, b = _spawned_seeds(base_seed, trial_index + 1, 2)
    return a, b


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector for code that makes no reference
    cycles: collections there would free nothing, yet its tens of
    thousands of edge tuples would trigger them every few hundred
    allocations, each pass walking the live graphs. The caller's collector
    setting is restored on exit, also on error."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def load_instance(config: TrialConfig) -> Graph:
    """The config's graph, read or generated with the collector paused."""
    with _collector_paused():
        if config.instance_path is not None:
            return read_edge_list(config.instance_path)
        spec = config.gen
        return gen_random(spec.kind, spec.n, spec.p, spec.plant, instance_seed(config.seed))


# ---------------------------------------------------------------------------
# per-trial execution


def _run_checks(config, g, stream, sp, m_h, mu_g, mu_hu) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    if config.checks.edcs:
        checks["edcs"] = check_edcs(stream, sp.h, sp.u_index, config.params).ok
    if config.checks.dichotomy_deltas:
        for delta in config.checks.dichotomy_deltas:
            rep = check_dichotomy(
                mu_g, len(m_h), mu_hu, config.params.lam, delta,
                bipartite=g.bipartition is not None,
            )
            checks[f"dichotomy:{float(delta)!r}"] = rep.holds
    if config.checks.census:
        # stream edges are g's own: canonical, distinct and in range
        suffix = _graph_of_canonical(g.n, stream.ends(sp.eps_cut + 1, len(stream)), g.bipartition)
        m_star = max_matching(suffix)
        checks["census"] = path_census(m_star, m_h).short_path_bound_holds
    return checks


def run_one_trial(config: TrialConfig, g: Graph, mu_g: int, index: int) -> TrialRecord:
    """One seeded trial, with the cyclic garbage collector paused."""
    with _collector_paused():
        return _run_one_trial(config, g, mu_g, index)


def _run_one_trial(config: TrialConfig, g: Graph, mu_g: int, index: int) -> TrialRecord:
    start = time.perf_counter()
    stream_seed, algo_seed = trial_seeds(config.seed, index)
    stream = make_stream(g, stream_seed)
    h_size = u_size = t_size = m_h_size = m_size = mu_hu = None
    path_hist = None
    checks: dict[str, bool] = {}

    if config.algo == "greedy":
        out = greedy_match(stream)
    else:
        if config.algo == "bernstein":
            sp = run_sparsifier(stream, config.params)
            out = max_matching(sp.hu_graph)
            m_h, mu_hu = max_matching(sp.h), len(out)
        else:
            rng = np.random.default_rng(algo_seed)
            out, diag = beats23_match(stream, config.params, rng)
            sp, m_h, mu_hu = diag.sparsifier, diag.m_h, diag.mu_hu
            t_size, m_size = diag.t.m, len(diag.m_aug)
            path_hist = {str(k): v for k, v in sorted(diag.path_length_histogram.items())}
        h_size, u_size, m_h_size = sp.h.m, sp.u_size, len(m_h)
        checks = _run_checks(config, g, stream, sp, m_h, mu_g, mu_hu)

    return TrialRecord(
        trial=index,
        seed=stream_seed,
        output_size=len(out),
        mu_g=mu_g,
        ratio=len(out) / mu_g,
        h_size=h_size,
        u_size=u_size,
        t_size=t_size,
        m_h_size=m_h_size,
        m_size=m_size,
        mu_hu=mu_hu,
        path_hist=path_hist,
        checks=checks,
        wall_time=time.perf_counter() - start,
    )


def resolve_workers(max_workers: int | None = None) -> int:
    """Worker count: `max_workers`, else the CPU count where processes can
    be forked and 1 where they cannot. An explicit count below 1 is an
    error, not a clamp."""
    if max_workers is None:
        return max(1, os.cpu_count() or 1) if _can_fork() else 1
    if max_workers < 1:
        raise ValueError(f"worker count must be at least 1, got {max_workers}")
    return max_workers


def _can_fork() -> bool:
    return "fork" in multiprocessing.get_all_start_methods()


class WorkerDied(RuntimeError):
    """A forked trial worker exited without reporting its trials."""


def _take_trials(config: TrialConfig, g: Graph, mu_g: int, counter) -> list[TrialRecord]:
    """Run the trial at the shared counter's next index until every index
    is taken."""
    records = []
    while True:
        with counter.get_lock():
            index = counter.value
            counter.value = index + 1
        if index >= config.trials:
            return records
        records.append(run_one_trial(config, g, mu_g, index))


def _worker(config: TrialConfig, g: Graph, mu_g: int, counter, conn) -> None:
    """A forked worker's whole life: its trials' records, or the error of
    the trial that raised, sent back in one message. An error also uses up
    the counter, so the other processes stop after their current trial."""
    try:
        result = _take_trials(config, g, mu_g, counter)
    except Exception as exc:
        with counter.get_lock():
            counter.value = config.trials
        result = exc
    conn.send(result)


def _forked_trials(config: TrialConfig, g: Graph, mu_g: int, workers: int) -> list[TrialRecord]:
    """Every trial, run by this process and `workers - 1` forked ones, in
    trial order. The workers inherit config, g and mu_g through the fork,
    so nothing is pickled on the way in. A trial that raised in a worker
    raises the same error here; a worker that exits without reporting
    raises WorkerDied. Every worker is killed if still alive and joined
    before this returns or raises."""
    ctx = multiprocessing.get_context("fork")
    counter = ctx.Value("q", 0)  # the next trial index
    procs, pipes = [], []
    try:
        for _ in range(workers - 1):
            receiver, sender = ctx.Pipe(duplex=False)
            pipes.append(receiver)
            proc = ctx.Process(target=_worker, args=(config, g, mu_g, counter, sender),
                               daemon=True)
            proc.start()
            procs.append(proc)
            sender.close()  # so that a worker's exit reads as EOF here
        records = _take_trials(config, g, mu_g, counter)
        for receiver in pipes:
            try:
                result = receiver.recv()
            except EOFError:
                raise WorkerDied("a trial worker exited without reporting its trials") from None
            if isinstance(result, BaseException):
                raise result
            records += result
    finally:
        for proc in procs:
            proc.kill()  # a worker that has reported is done already
            proc.join()
        for receiver in pipes:
            receiver.close()
    return sorted(records, key=lambda r: r.trial)


def run_trials(config: TrialConfig, max_workers: int | None = None) -> TrialReport:
    """Execute all trials; the report is byte-identical for a fixed config
    (wall-time fields excluded) no matter how many workers run.

    With W = min(workers, trials) > 1, this process forks W - 1 workers
    and runs trials too; each process takes its next trial index from one
    shared counter. W = 1 runs every trial here in order. More than one
    worker needs the 'fork' start method; without it that is an error."""
    workers = min(resolve_workers(max_workers), config.trials)
    if workers > 1 and not _can_fork():
        raise ValueError(f"{workers} workers need the 'fork' start method, "
                         "which this platform lacks; run with one worker")
    g = load_instance(config)
    if not g.m:
        raise ValueError("instance has no edges")
    mu_g = len(max_matching(g))
    if workers == 1:
        records = [run_one_trial(config, g, mu_g, i) for i in range(config.trials)]
    else:
        records = _forked_trials(config, g, mu_g, workers)
    ratios = [r.ratio for r in records]
    mean = sum(ratios) / len(ratios)
    if len(ratios) > 1:
        var = sum((x - mean) ** 2 for x in ratios) / (len(ratios) - 1)
        stderr = (var / len(ratios)) ** 0.5
    else:
        stderr = 0.0
    agg = Aggregate(mean, min(ratios), max(ratios), stderr)
    return TrialReport(config.algo, config.seed, config.trials, tuple(records), agg)


# ---------------------------------------------------------------------------
# serialization


def report_to_dict(report: TrialReport) -> dict[str, Any]:
    return {
        "algo": report.algo,
        "seed": report.seed,
        "trials": report.trials,
        "records": [asdict(r) for r in report.records],
        "aggregate": asdict(report.aggregate),
    }


def canonical_hash(report: TrialReport) -> str:
    """SHA-256 of the report with wall-time fields stripped."""
    payload = report_to_dict(report)
    for record in payload["records"]:
        record.pop("wall_time", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


_CSV_COLUMNS = [
    "trial", "seed", "output_size", "mu_g", "ratio",
    "h_size", "u_size", "t_size", "m_h_size", "m_size", "mu_hu",
    "hist1", "hist3", "hist5", "checks_ok", "checks", "wall_time",
    "ratio_min", "ratio_max", "ratio_stderr",
]


def emit_report(report: TrialReport, fmt: str, path) -> None:
    """Write the report as JSON or as CSV with one row per trial plus a
    trailing aggregate row marked #agg."""
    if not report.records:
        raise ValueError("reports require at least one trial")
    if fmt == "json":
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(report_to_dict(report), fh, indent=1)
            fh.write("\n")
        return
    if fmt != "csv":
        raise ValueError(f"unknown report format {fmt!r}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        for r in report.records:
            hist = r.path_hist or {}
            writer.writerow([
                r.trial, r.seed, r.output_size, r.mu_g, repr(r.ratio),
                _opt(r.h_size), _opt(r.u_size), _opt(r.t_size),
                _opt(r.m_h_size), _opt(r.m_size), _opt(r.mu_hu),
                hist.get("1", ""), hist.get("3", ""), hist.get("5", ""),
                all(r.checks.values()) if r.checks else "",
                json.dumps(r.checks, sort_keys=True) if r.checks else "",
                repr(r.wall_time), "", "", "",
            ])
        agg = report.aggregate
        writer.writerow([
            "#agg", report.seed, "", "", repr(agg.mean_ratio),
            "", "", "", "", "", "", "", "", "",
            report.all_checks_passed(), "", "",
            repr(agg.min_ratio), repr(agg.max_ratio), repr(agg.stderr_ratio),
        ])


def _opt(value) -> Any:
    return "" if value is None else value
