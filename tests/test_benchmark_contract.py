"""The benchmark's validation and workload modules still run against the
library: every name they read of it must exist and behave as they
expect (for example `Graph.has_edge`, which no library code calls).
The modules are imported from their files, unchanged."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

from streammatch import (
    GeneratorSpec,
    TrialConfig,
    augmenter,
    bench,
    make_stream,
    max_matching,
    params_with_betas,
    phase1_cut,
)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def _tiny(workloads):
    """A tiny one-worker workload of two trials per algorithm, and its
    instance."""
    tiny = workloads.Workload(
        "tiny", "gnp", 0.3, 6, 5,
        workers={a: 1 for a in workloads.ALGOS},
        batch={a: 2 for a in workloads.ALGOS},
    )
    gen = GeneratorSpec("bipartite-gnp", 12, 0.3)
    g = bench.load_instance(TrialConfig("greedy", gen=gen, seed=1))
    return tiny, workloads.Instance(g, len(max_matching(g)), gen, None)


def test_benchmark_validation_runs_on_every_algorithm():
    validate = _load("validate")
    workloads = _load("workloads")
    tiny, inst = _tiny(workloads)
    g = inst.graph
    for algo in workloads.ALGOS:
        config = workloads.trial_config(tiny, inst, algo, seed=1)
        report = bench.run_trials(config, max_workers=1)
        assert len(report.records) == 2
        for record in report.records:
            assert validate.record_problems(algo, record, inst.mu_g) == []
            assert validate.rerun_problems(algo, config, g, inst.mu_g, record) == []
            stored = workloads.stored_edges(algo, record)
            if algo == "greedy":
                assert stored is None
            else:
                assert stored >= record.h_size + record.u_size > 0


def test_tracer_targets_that_no_longer_resolve():
    # The tracer skips a target whose name is gone and reports the metrics
    # it fed as ABSENT. Pin the names that are gone, so that a rename
    # cannot silently blank another per-layer metric.
    tracing = _load("tracing")
    gone = {
        (mod_name, attr)
        for mod_name, attr, _span, _hook in tracing.TARGETS
        if getattr(importlib.import_module(f"streammatch.{mod_name}"), attr, None) is None
    }
    assert gone == {
        ("bench", "union_graph"),
        ("sparsifier", "union_graph"),
        ("augmenter", "union_graph"),
        ("augmenter", "phase1_build_h"),  # still traced at sparsifier.phase1_build_h
        ("augmenter", "TwoBMatching"),
        ("augmenter", "phase2b_step"),
    }


def test_tracer_counter_hooks_read_names_that_exist():
    # A counter hook that reads a renamed attribute (say `Graph.edges` or
    # `TrialDiagnostics.u`) marks its span as broken, and the per-layer
    # metrics it feeds as ABSENT. Run every algorithm traced and require
    # that no hook broke and that every hook that exists counted.
    tracing = _load("tracing")
    workloads = _load("workloads")
    tiny, inst = _tiny(workloads)
    tracer = tracing.Tracer()
    with tracer.installed():
        for algo in workloads.ALGOS:
            bench.run_trials(workloads.trial_config(tiny, inst, algo, seed=1), max_workers=1)
    assert tracer.spans and tracer.broken == set()
    hooked = {span for _mod, _attr, span, hook in tracing.TARGETS
              if hook is not None and span in tracer.present}
    counted = {sp.name for sp in tracer.spans if sp.counts}
    assert hooked == counted == {
        "sparsifier.phase1_build_h", "sparsifier.phase2_collect_u", "augmenter.beats23_match",
    }


def test_tracer_phase1_counts_are_the_trials_own():
    # sparsifier.h_kept_ratio sums the `kept` and `prefix` counts of the
    # phase1_build_h spans. Pin them to each traced trial's Phase I prefix
    # length and |H|, so that a change to phase1_build_h's arguments cannot
    # skew the ratio silently.
    tracing = _load("tracing")
    workloads = _load("workloads")
    tiny, inst = _tiny(workloads)
    for algo in ("bernstein", "beats23"):
        config = workloads.trial_config(tiny, inst, algo, seed=1)
        tracer = tracing.Tracer()
        with tracer.installed():
            report = bench.run_trials(config, max_workers=1)
        spans = [sp for sp in tracer.spans if sp.name == "sparsifier.phase1_build_h"]
        assert [sp.trial for sp in spans] == [r.trial for r in report.records]
        cut = phase1_cut(inst.graph.m, config.params.eps)
        for sp, record in zip(spans, report.records):
            assert sp.counts == {"prefix": cut, "kept": record.h_size}, algo


def test_beats23_looks_its_phase2_stages_up_by_name(monkeypatch):
    # The tracer wraps module attributes, so a stage that beats23 reaches
    # under another name goes unseen. One trial calls the module's
    # `build_t` (Phase II.A) and `phase2b` (Phase II.B) once each.
    calls = {}
    for name in ("build_t", "phase2b"):
        stage = getattr(augmenter, name)

        def counted(*args, _stage=stage, _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _stage(*args)

        monkeypatch.setattr(augmenter, name, counted)
    g = bench.load_instance(TrialConfig("greedy", gen=GeneratorSpec("bipartite-gnp", 12, 0.3), seed=1))
    params = params_with_betas(0.2, 6, 5, b=3)
    augmenter.beats23_match(make_stream(g, 1), params, np.random.default_rng(1))
    assert calls == {"build_t": 1, "phase2b": 1}
