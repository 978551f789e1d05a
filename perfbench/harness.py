"""Measurement passes for one workload and seed.

Import this only after `checkout.use_checkout_source()`, since it imports
streammatch.
"""

from __future__ import annotations

import pickle
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from functools import partial

import speed
import tracing
import validate
import workloads
from checkout import OUT_DIR
from streammatch import bench

WARMUP_ROUNDS = 1  # run and checked, but not timed
MIN_ROUNDS = 3  # timed rounds, however short --seconds is
SETUPS_PER_ROUND = 2
RERUNS_PER_ALGO = 2  # trials per algorithm re-run after the timed rounds


class Tally:
    """Trials attempted for one seed, and the problems found in them keyed
    by (pass, round, algorithm, trial), so a trial fails at most once."""

    def __init__(self):
        self.attempted = 0
        self.problems: dict[tuple, list[str]] = {}
        self.hashes: dict[str, str] = {}  # algorithm -> first report hash

    def add(self, key: tuple, problems: list[str]) -> None:
        if problems:
            self.problems.setdefault(key, []).extend(problems)

    @property
    def failed(self) -> int:
        return len(self.problems)

    def check(self, algo: str, report, report_hash: str, mu_g: int, key: tuple) -> None:
        """Record-level checks, plus the same hash on every run of a config
        (any round, any worker count)."""
        first = self.hashes.setdefault(algo, report_hash)
        for r in report.records:
            problems = validate.record_problems(algo, r, mu_g)
            if report_hash != first:
                problems.append("report hash differs from the first run of this config")
            self.add(key + (r.trial,), problems)


def run_batch(config, workers: int, tally: Tally, key: tuple):
    """One run_trials call and its wall time. A raised error fails every
    trial of the batch and the run goes on."""
    tally.attempted += config.trials
    start = time.perf_counter()
    try:
        report = bench.run_trials(config, max_workers=workers)
    except Exception as exc:
        traceback.print_exc(file=sys.stderr)
        for i in range(config.trials):
            tally.add(key + (i,), [f"run_trials raised {type(exc).__name__}: {exc}"])
        return None, time.perf_counter() - start
    return report, time.perf_counter() - start


def rerun(algo: str, config, inst, records, tally: Tally, key: tuple) -> None:
    for r in records:
        tally.add(key + (r.trial,),
                  validate.rerun_problems(algo, config, inst.graph, inst.mu_g, r))


def measure_end_to_end(w, seed: int, seconds: int, tally: Tally):
    """Timed rounds with tracing off; returns {metric: (value, samples)},
    the report hashes and the number of rounds.

    Every round repeats the same set-ups and trials, and the machine-speed
    probe runs between batches (see speed.py). Each batch's times are
    scaled to the reference speed by its own factor. Set-up time is the
    median of every set-up in the run, a rate is the median over rounds,
    and a latency quantile is taken over every trial run in the run. The
    same metrics unscaled are reported as raw.<name>. The first round only
    warms up (imports, caches, the first process pool) and is not timed;
    --seconds counts from its start.
    """
    clock = speed.Clock(max(w.workers.values()))
    setups = []  # (raw, scaled) seconds
    rates: dict[str, list[tuple[float, float]]] = {a: [] for a in workloads.ALGOS}
    lat_ms: dict[str, list[tuple[float, float]]] = {a: [] for a in workloads.ALGOS}
    first = {}
    deadline = time.perf_counter() + seconds
    rnd = 0
    while rnd < WARMUP_ROUNDS + MIN_ROUNDS or time.perf_counter() < deadline:
        timed = rnd >= WARMUP_ROUNDS
        round_setups = []
        clock.pin(1)
        for _ in range(SETUPS_PER_ROUND):
            start = time.perf_counter()
            inst = workloads.set_up(w, seed, OUT_DIR)
            round_setups.append(time.perf_counter() - start)
        f = clock.factor(1)
        if timed:
            setups += [(s, s * f) for s in round_setups]
        for algo in workloads.ALGOS:
            config = workloads.trial_config(w, inst, algo, seed)
            key = ("timed", rnd, algo)
            clock.pin(w.workers[algo])
            report, wall = run_batch(config, w.workers[algo], tally, key)
            f = clock.factor(w.workers[algo])
            if report is None:
                continue
            n = len(report.records)
            if timed:
                rates[algo].append((n / wall, n / (wall * f)))
                lat_ms[algo] += [(1000.0 * r.wall_time, 1000.0 * r.wall_time * f)
                                 for r in report.records]
            tally.check(algo, report, bench.canonical_hash(report), inst.mu_g, key)
            first.setdefault(algo, (config, report))
        rnd += 1
    for algo, (config, report) in first.items():
        rerun(algo, config, inst, report.records[:RERUNS_PER_ALGO], tally, ("timed", 0, algo))

    timings = {"setup_s": setups}
    metrics = {}
    for algo, (_config, report) in first.items():
        timings[f"{algo}.trials_per_s"] = rates[algo]
        metrics[f"{algo}.ratio"] = (report.aggregate.mean_ratio, len(report.records))
        if algo != "greedy":
            timings[f"{algo}.trial_ms.p50"] = lat_ms[algo]
            timings[f"{algo}.trial_ms.p90"] = lat_ms[algo]
            sizes = [workloads.stored_edges(algo, r) for r in report.records]
            metrics[f"{algo}.stored_edges"] = (statistics.fmean(sizes), len(sizes))
    for name, pairs in timings.items():
        if not pairs:  # every timed batch of the algorithm failed
            continue
        for col, prefix in ((1, ""), (0, "raw.")):
            values = [p[col] for p in pairs]
            if name.endswith(".p90"):
                value = statistics.quantiles(values, n=10, method="inclusive")[8]
            else:
                value = statistics.median(values)
            metrics[prefix + name] = (value, len(values))
    metrics["speed.factor"] = (clock.median_factor(), len(clock.probes))
    metrics["peak_rss_mb"] = (peak_rss_mb(), 1)
    metrics["failed_frac"] = (tally.failed / max(tally.attempted, 1), tally.attempted)
    return metrics, {a: tally.hashes[a] for a in first}, rnd


def one_pass(w, seed: int, pooled: bool, tally: Tally, key: tuple, tracer=None):
    """Set-up plus one run_trials call per algorithm, on the workload's
    worker counts if pooled and on one worker otherwise, each report hashed
    and written out. Returns the wall time, the instance and, by algorithm,
    (config, report, run_trials wall time, workers)."""
    span = tracer.span if tracer is not None else (lambda name: nullcontext())
    start = time.perf_counter()
    with span("bench.set_up"):
        inst = workloads.set_up(w, seed, OUT_DIR)
    batches = {}
    for algo in workloads.ALGOS:
        config = workloads.trial_config(w, inst, algo, seed)
        workers = w.workers[algo] if pooled else 1
        with span("bench.run_trials"):
            report, wall = run_batch(config, workers, tally, key + (algo,))
        if report is None:
            continue
        with span("bench.canonical_hash"):
            report_hash = bench.canonical_hash(report)
        with span("bench.emit_report"):
            bench.emit_report(report, "json", OUT_DIR / f"{w.name}-{algo}.report.json")
        tally.check(algo, report, report_hash, inst.mu_g, key + (algo,))
        batches[algo] = (config, report, wall, workers)
    return time.perf_counter() - start, inst, batches


def pool_overhead(batches) -> float:
    """run_trials wall time not explained by the trials themselves."""
    return sum(wall - sum(r.wall_time for r in report.records) / workers
               for _config, report, wall, workers in batches.values())


def measure_layers(w, seed: int, seconds: int, tally: Tally, spans_path):
    """Traced rounds; returns {metric: (value, samples)}, the report hashes,
    the number of rounds and the metrics that are absent.

    Each round runs an untraced pass on one worker, an untraced pass on the
    workload's worker counts when any is larger, and a traced pass on one
    worker; the traced pass goes first in every other round. Values are
    per traced pass, median over rounds. The tracing overhead compares the
    fastest traced and untraced passes.
    """
    rounds = []
    pass_s = {"untraced": [], "traced": []}
    absent: set[str] = set()
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        rnd = len(rounds)
        tracer = tracing.Tracer()
        for kind in ("untraced", "traced")[::1 if rnd % 2 == 0 else -1]:
            if kind == "untraced":
                wall, inst, batches = one_pass(w, seed, False, tally, ("untraced", rnd))
            else:
                with tracer.installed():
                    wall, _, traced = one_pass(w, seed, False, tally, ("traced", rnd), tracer)
            pass_s[kind].append(wall)
        if w.pooled:
            _, _, batches = one_pass(w, seed, True, tally, ("pool", rnd))
        values, missing = tracing.layer_metrics(tracer)
        absent |= missing
        values["bench.pool_overhead_s"] = pool_overhead(batches)
        rounds.append(values)
        if rnd == 0:
            first_tracer = tracer
            for algo, (config, report, _wall, _workers) in traced.items():
                rerun(algo, config, inst, report.records, tally, ("traced", rnd, algo))
            task_bytes = max(
                len(pickle.dumps(partial(bench.run_one_trial, config, inst.graph, inst.mu_g)))
                for config, _report, _wall, _workers in traced.values())
    first_tracer.dump(spans_path, {"workload": w.name, "seed": seed, "round": 0})
    metrics = {name: (statistics.median(r[name] for r in rounds), len(rounds))
               for name in rounds[0]}
    metrics["bench.task_bytes"] = (task_bytes, 1)
    metrics["trace.overhead_s"] = (min(pass_s["traced"]) - min(pass_s["untraced"]), len(rounds))
    return metrics, dict(tally.hashes), len(rounds), absent


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux
