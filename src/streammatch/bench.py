"""Trial orchestration and reporting.

run_trials executes seeded independent trials of one algorithm over one
instance, optionally re-checking structural properties per trial, and
produces a report whose canonical hash is identical for identical
configs regardless of the worker count.
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any

import numpy as np

from .analyzer import check_dichotomy, check_edcs, path_census
from .augmenter import beats23_match, greedy_match
from .graph import Graph, _graph_of_canonical, max_matching, read_edge_list
from .instances import gen_random
from .sparsifier import AlgoParams, run_sparsifier
from .stream import make_stream, phase1_cut

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

    @property
    def any(self) -> bool:
        return self.edcs or bool(self.dichotomy_deltas) or self.census


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


def load_instance(config: TrialConfig) -> Graph:
    if config.instance_path is not None:
        return read_edge_list(config.instance_path)
    spec = config.gen
    return gen_random(spec.kind, spec.n, spec.p, spec.plant, instance_seed(config.seed))


# ---------------------------------------------------------------------------
# per-trial execution


def _run_checks(config, g, stream, h, u_set, m_h, mu_g, mu_hu) -> dict[str, bool]:
    checks: dict[str, bool] = {}
    cut = phase1_cut(len(stream), config.params.eps)
    suffix = stream.slice(cut + 1, len(stream))
    if config.checks.edcs:
        checks["edcs"] = check_edcs(g, h, u_set, config.params, suffix).ok
    if config.checks.dichotomy_deltas:
        for delta in config.checks.dichotomy_deltas:
            rep = check_dichotomy(
                mu_g, len(m_h), mu_hu, config.params.lam, delta,
                bipartite=g.bipartition is not None,
            )
            checks[f"dichotomy:{delta:g}"] = rep.holds
    if config.checks.census:
        # stream edges are g's own: canonical, distinct and in range
        m_star = max_matching(_graph_of_canonical(g.n, suffix, g.bipartition))
        checks["census"] = path_census(m_star, m_h).short_path_bound_holds
    return checks


def run_one_trial(config: TrialConfig, g: Graph, mu_g: int, index: int) -> TrialRecord:
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
            out = sp.hu_matching()
            h, u_set, m_h, mu_hu = sp.h, sp.u, max_matching(sp.h), len(out)
        else:
            rng = np.random.default_rng(algo_seed)
            out, diag = beats23_match(stream, config.params, rng)
            h, u_set, m_h, mu_hu = diag.h, diag.u, diag.m_h, diag.mu_hu
            t_size, m_size = len(diag.t), len(diag.m_aug)
            path_hist = {str(k): v for k, v in sorted(diag.path_length_histogram.items())}
        h_size, u_size, m_h_size = len(h.edges), len(u_set), len(m_h)
        if config.checks.any:
            checks = _run_checks(config, g, stream, h, u_set, m_h, mu_g, mu_hu)

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
    """Worker count: `max_workers`, else MATCH_BENCH_THREADS, else the
    CPU count. An explicit count below 1 is an error, not a clamp."""
    if max_workers is not None:
        if max_workers < 1:
            raise ValueError(f"worker count must be at least 1, got {max_workers}")
        return max_workers
    env = os.environ.get("MATCH_BENCH_THREADS")
    if env:
        try:
            workers = int(env)
        except ValueError:
            raise ValueError(f"MATCH_BENCH_THREADS must be an integer, got {env!r}") from None
        if workers < 1:
            raise ValueError(f"MATCH_BENCH_THREADS must be at least 1, got {env!r}")
        return workers
    return max(1, os.cpu_count() or 1)


# (config, g, mu_g) of the run this pool worker serves; set once per
# worker by the pool's initializer, never in the parent process.
_worker_instance: tuple[TrialConfig, Graph, int] | None = None


def _init_worker(config: TrialConfig, g: Graph, mu_g: int) -> None:
    global _worker_instance
    _worker_instance = (config, g, mu_g)


def _run_trial_in_worker(index: int) -> TrialRecord:
    return run_one_trial(*_worker_instance, index)


def run_trials(config: TrialConfig, max_workers: int | None = None) -> TrialReport:
    """Execute all trials; the report is byte-identical for a fixed config
    (wall-time fields excluded) no matter how many workers run.

    A pool gets the instance once per worker, through its initializer,
    and maps trial indices in chunks of about a quarter of a worker's
    share; it never starts more workers than there are trials."""
    workers = min(resolve_workers(max_workers), config.trials)
    g = load_instance(config)
    if not g.edges:
        raise ValueError("instance has no edges")
    mu_g = len(max_matching(g))
    if workers == 1:
        records = [run_one_trial(config, g, mu_g, i) for i in range(config.trials)]
    else:
        chunksize = -(-config.trials // (4 * workers))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker,
                                 initargs=(config, g, mu_g)) as pool:
            records = list(pool.map(_run_trial_in_worker, range(config.trials),
                                    chunksize=chunksize))
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


def report_from_dict(data: dict[str, Any]) -> TrialReport:
    records = tuple(TrialRecord(**r) for r in data["records"])
    return TrialReport(
        algo=data["algo"],
        seed=data["seed"],
        trials=data["trials"],
        records=records,
        aggregate=Aggregate(**data["aggregate"]),
    )


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
