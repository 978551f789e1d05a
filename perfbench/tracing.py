"""Span tracing from outside the program.

A Tracer replaces public names in the streammatch modules with wrappers,
at the module where the caller looks them up at call time (for example
`streammatch.augmenter.phase2b_step`), and records one span per call:
name, start, end, parent span, trial index and a few counters. Spans stay
in memory until the run ends. A name that a later refactor removed is
reported as absent instead of failing the run.

Wrappers are closures, which cannot be pickled, so traced passes run on
one worker.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    trial: int | None = None
    counts: dict[str, int] = field(default_factory=dict)


def _matching_kind(args, kwargs) -> str:
    g = args[0] if args else kwargs.get("g")
    return "bipartite" if getattr(g, "bipartition", None) is not None else "general"


def _edge_count(args, kwargs):
    return lambda result: {"edges": len(result.edges)}


def _phase1_counts(args, kwargs):
    return lambda result: {"prefix": len(args[0]), "kept": len(result.edges)}


def _phase2_counts(args, kwargs):
    return lambda result: {"phase2": len(args[0]), "u": len(result)}


def _beats23_counts(args, kwargs):
    def finish(result):
        diag = result[1]
        return {"phase2": diag.split.m - diag.split.eps_cut, "u": len(diag.u)}

    return finish


def _step_counts(args, kwargs):
    before = len(args[0].applied)

    def finish(result):
        new = result.applied[before:]
        counts = {"applied": len(new), "len1": 0, "len3": 0, "len5": 0}
        for p in new:
            counts[f"len{p.length}"] = counts.get(f"len{p.length}", 0) + 1
        return counts

    return finish


# (module, attribute looked up at call time, span name, counter hook).
# A span name of None means "graph.max_matching.<bipartite|general>".
TARGETS = (
    ("bench", "load_instance", "bench.load_instance", None),
    ("bench", "run_one_trial", "bench.run_one_trial", None),
    ("bench", "gen_random", "instances.gen_random", None),
    ("bench", "read_edge_list", "graph.read_edge_list", None),
    ("bench", "make_stream", "stream.make_stream", None),
    ("bench", "greedy_match", "augmenter.greedy_match", None),
    ("bench", "run_sparsifier", "sparsifier.run_sparsifier", None),
    ("bench", "beats23_match", "augmenter.beats23_match", _beats23_counts),
    ("bench", "max_matching", None, None),
    ("bench", "union_graph", "graph.union_graph", _edge_count),
    ("bench", "check_edcs", "analyzer.check_edcs", None),
    ("bench", "check_dichotomy", "analyzer.check_dichotomy", None),
    ("bench", "path_census", "analyzer.path_census", None),
    ("sparsifier", "phase1_build_h", "sparsifier.phase1_build_h", _phase1_counts),
    ("sparsifier", "phase2_collect_u", "sparsifier.phase2_collect_u", _phase2_counts),
    ("sparsifier", "max_matching", None, None),
    ("sparsifier", "union_graph", "graph.union_graph", _edge_count),
    ("augmenter", "split_phases", "stream.split_phases", None),
    ("augmenter", "phase1_build_h", "sparsifier.phase1_build_h", _phase1_counts),
    ("augmenter", "max_matching", None, None),
    ("augmenter", "union_graph", "graph.union_graph", _edge_count),
    ("augmenter", "TwoBMatching", "augmenter.TwoBMatching", None),
    ("augmenter", "phase2b_step", "augmenter.phase2b_step", _step_counts),
    ("instances", "build_hard_instance", "instances.build_hard_instance", None),
    ("instances", "save_hard_instance", "instances.save_hard_instance", None),
    ("graph", "max_matching", None, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.present: set[str] = set()  # span names with at least one wrapped target
        self.broken: set[str] = set()  # span names whose counter hook failed
        self._stack: list[int] = []
        self._trial: int | None = None

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, trial=self._trial))
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name: str | None, hook, sets_trial: bool):
        tracer = self

        def wrapper(*args, **kwargs):
            span_name = name or f"graph.max_matching.{_matching_kind(args, kwargs)}"
            finish = None
            if hook is not None:
                try:
                    finish = hook(args, kwargs)
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.broken.add(span_name)
            prev_trial = tracer._trial
            if sets_trial:
                tracer._trial = args[3] if len(args) > 3 else kwargs.get("index")
            idx = tracer._open(span_name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
                tracer._trial = prev_trial
            if finish is not None:
                try:
                    tracer.spans[idx].counts = finish(result)
                except (AttributeError, TypeError, IndexError, KeyError):
                    tracer.broken.add(span_name)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit."""
        undo = []
        try:
            for mod_name, attr, name, hook in TARGETS:
                try:
                    module = importlib.import_module(f"streammatch.{mod_name}")
                except ImportError:
                    module = None
                original = getattr(module, attr, None)
                if original is None:
                    continue
                sets_trial = (mod_name, attr) == ("bench", "run_one_trial")
                setattr(module, attr, self._wrap(original, name, hook, sets_trial))
                undo.append((module, attr, original))
                if name is None:
                    self.present.update(("graph.max_matching.bipartite", "graph.max_matching.general"))
                else:
                    self.present.add(name)
            yield self
        finally:
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, summed counters."""
        child_time = [0.0] * len(self.spans)
        for sp in self.spans:
            if sp.parent is not None:
                child_time[sp.parent] += sp.end - sp.start
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for i, sp in enumerate(self.spans):
            row = out[sp.name]
            row["calls"] += 1
            row["s"] += sp.end - sp.start
            row["self_s"] += sp.end - sp.start - child_time[i]
            for k, v in sp.counts.items():
                row[k] += v
        return out

    def dump(self, path: Path, meta: dict) -> None:
        rows = [
            [sp.name, sp.start, sp.end, sp.parent, sp.trial, sp.counts or None]
            for sp in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "columns": ["name", "start", "end", "parent", "trial",
                                                 "counts"], "spans": rows}, fh)


MM = ("graph.max_matching.bipartite", "graph.max_matching.general")
STEP = ("augmenter.phase2b_step",)
INSTANCES = ("instances.gen_random", "instances.build_hard_instance", "instances.save_hard_instance")

# Per-layer metrics: name -> (unit, kind, span names it reads, field).
# The field is summed over those spans; a (numerator, denominator) pair
# gives the ratio of two sums.
LAYER_METRICS = {
    "graph.max_matching.calls": ("count", "count", MM, "calls"),
    "graph.max_matching.s": ("s", "timing", MM, "s"),
    "graph.max_matching.bipartite.calls": ("count", "count", MM[:1], "calls"),
    "graph.max_matching.bipartite.s": ("s", "timing", MM[:1], "s"),
    "graph.max_matching.general.calls": ("count", "count", MM[1:], "calls"),
    "graph.max_matching.general.s": ("s", "timing", MM[1:], "s"),
    "graph.union_graph.calls": ("count", "count", ("graph.union_graph",), "calls"),
    "graph.union_graph.s": ("s", "timing", ("graph.union_graph",), "s"),
    "graph.union_graph.edges": ("count", "count", ("graph.union_graph",), "edges"),
    "graph.read_edge_list.s": ("s", "timing", ("graph.read_edge_list",), "s"),
    "stream.make_stream.s": ("s", "timing", ("stream.make_stream",), "s"),
    "stream.split_phases.s": ("s", "timing", ("stream.split_phases",), "s"),
    "sparsifier.phase1_build_h.s": ("s", "timing", ("sparsifier.phase1_build_h",), "s"),
    "sparsifier.phase2_collect_u.s": ("s", "timing", ("sparsifier.phase2_collect_u",), "s"),
    "sparsifier.h_kept_ratio": ("ratio", "count", ("sparsifier.phase1_build_h",), ("kept", "prefix")),
    "sparsifier.u_ratio": ("ratio", "count", ("sparsifier.phase2_collect_u", "augmenter.beats23_match"),
                           ("u", "phase2")),
    "augmenter.phase2b_step.calls": ("count", "count", STEP, "calls"),
    "augmenter.phase2b_step.s": ("s", "timing", STEP, "s"),
    "augmenter.phase2b_step.hit_ratio": ("ratio", "count", STEP, ("applied", "calls")),
    "augmenter.paths.len1": ("count", "count", STEP, "len1"),
    "augmenter.paths.len3": ("count", "count", STEP, "len3"),
    "augmenter.paths.len5": ("count", "count", STEP, "len5"),
    "augmenter.beats23_match.self_s": ("s", "timing", ("augmenter.beats23_match",), "self_s"),
    "augmenter.TwoBMatching.s": ("s", "timing", ("augmenter.TwoBMatching",), "s"),
    "augmenter.greedy_match.s": ("s", "timing", ("augmenter.greedy_match",), "s"),
    "analyzer.check_edcs.s": ("s", "timing", ("analyzer.check_edcs",), "s"),
    "analyzer.path_census.s": ("s", "timing", ("analyzer.path_census",), "s"),
    "analyzer.check_dichotomy.s": ("s", "timing", ("analyzer.check_dichotomy",), "s"),
    "instances.s": ("s", "timing", INSTANCES, "s"),
    "instances.gen_random.calls": ("count", "count", INSTANCES[:1], "calls"),
    "instances.gen_random.s": ("s", "timing", INSTANCES[:1], "s"),
    "instances.build_hard_instance.calls": ("count", "count", INSTANCES[1:2], "calls"),
    "instances.build_hard_instance.s": ("s", "timing", INSTANCES[1:2], "s"),
    "bench.run_one_trial.self_s": ("s", "timing", ("bench.run_one_trial",), "self_s"),
    "bench.canonical_hash.s": ("s", "timing", ("bench.canonical_hash",), "s"),
    "bench.emit_report.s": ("s", "timing", ("bench.emit_report",), "s"),
}
BENCH_SPANS = {"bench.canonical_hash", "bench.emit_report"}  # spanned by the benchmark itself


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], set[str]]:
    """Values of LAYER_METRICS for one traced pass, and the names that are
    absent because no target feeding them exists or a counter hook failed."""
    summary = tracer.summary()

    def total(spans, key):
        return sum(summary[n][key] for n in spans if n in summary)

    values = {}
    absent = set()
    for name, (_unit, _kind, spans, field) in LAYER_METRICS.items():
        if isinstance(field, tuple):
            den = total(spans, field[1])
            values[name] = total(spans, field[0]) / den if den else 0.0
        else:
            values[name] = total(spans, field)
        if (not any(n in tracer.present or n in BENCH_SPANS for n in spans)
                or any(n in tracer.broken for n in spans)):
            absent.add(name)
    return values, absent
