"""streammatch benchmark: one workload per run, closed-loop batches of
seeded trials through `streammatch.bench.run_trials`.

    python3 perfbench/run.py --workload dense-c10 --seed 1 --seconds 35 --trace 0

A run repeats rounds (the workload's set-up, then one `run_trials` call
per algorithm) until --seconds have passed; a round starts only after the
previous one ended. --trace 0 reports the
end-to-end metrics with tracing off. --trace 1 reports the per-layer
metrics: each round runs an untraced pass on one worker, a pass on the
workload's own worker counts when any is larger, and a traced pass on
one worker. Every metric is printed by name with its unit; the last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics, holding the metrics that BENCHMARK.json declares for
the chosen trace mode. A results file with the full detail is written
under perfbench/out/.

--seed2 measures a second workload seed after the first, with identical
settings, so that a claim can be re-checked on a seed that was not used
while the change was written. Its metrics are printed and stored, and its
failures count, but the final JSON line holds the first seed's metrics.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import sys

from checkout import OUT_DIR, ROOT, use_checkout_source

END_TO_END = {  # name -> (unit, kind)
    "setup_s": ("s", "timing"),
    "peak_rss_mb": ("MB", "memory"),
    **{f"{a}.trials_per_s": ("1/s", "timing") for a in ("greedy", "bernstein", "beats23")},
    **{f"{a}.trial_ms.{q}": ("ms", "timing")
       for a in ("bernstein", "beats23") for q in ("p50", "p90")},
    **{f"{a}.ratio": ("ratio", "count") for a in ("greedy", "bernstein", "beats23")},
    **{f"{a}.stored_edges": ("edges", "count") for a in ("bernstein", "beats23")},
    "failed_frac": ("ratio", "count"),
    "speed.factor": ("x", "speed"),
}
END_TO_END.update({f"raw.{name}": (unit, "timing, unscaled")
                   for name, (unit, kind) in list(END_TO_END.items()) if kind == "timing"})
EXTRA_LAYER = {  # per-layer metrics measured here rather than from spans
    "bench.task_bytes": ("bytes", "count"),
    "bench.pool_overhead_s": ("s", "timing"),
    "trace.overhead_s": ("s", "timing"),
}


def load_reference_hashes() -> dict:
    path = ROOT / "perfbench" / "reference_hashes.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}


def hash_lines(workload: str, seed: int, hashes: dict[str, str], refs: dict):
    out = {}
    for algo, h in hashes.items():
        ref = refs.get(workload, {}).get(str(seed), {}).get(algo)
        verdict = "NOREF" if ref is None else ("MATCH" if ref == h else "DIFF")
        out[algo] = {"hash": h, "reference": ref, "verdict": verdict}
        print(f"hash {workload}/{algo} seed={seed} {h} {verdict}")
    return out


def print_metrics(tag: str, metrics: dict, units: dict, absent=frozenset()):
    for name in sorted(metrics):
        value, samples = metrics[name]
        unit, kind = units[name]
        if name in absent:
            print(f"{tag} {name} = ABSENT")
        else:
            print(f"{tag} {name} = {value!r} {unit}  [{kind}, n={samples}]")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seed2", type=int, help="second workload seed (see above)")
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    use_checkout_source()
    import harness
    import numpy
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload]
    layer_units = {name: (unit, kind) for name, (unit, kind, *_rest) in tracing.LAYER_METRICS.items()}
    layer_units.update(EXTRA_LAYER)
    units = layer_units if args.trace else END_TO_END
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    for entry in declared:
        if units.get(entry["name"], (None,))[0] != entry["unit"]:
            sys.exit(f"perfbench: BENCHMARK.json declares {entry['name']} in {entry['unit']!r}, "
                     f"which this benchmark does not measure")
    OUT_DIR.mkdir(parents=True, exist_ok=True)

    stamp = {
        "workload": w.name,
        "seed": args.seed,
        "seed2": args.seed2,
        "seconds": args.seconds,
        "trace": args.trace,
        "workers": w.workers,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "start_method": multiprocessing.get_start_method(),
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    refs = load_reference_hashes()
    results = {"stamp": stamp, "seeds": {}}
    tallies = []
    seeds = [args.seed] + ([args.seed2] if args.seed2 is not None else [])
    for i, seed in enumerate(seeds):
        tally = harness.Tally()
        tallies.append(tally)
        tag = "metric" if i == 0 else "seed2-metric"
        if args.trace:
            metrics, hashes, rounds, absent = harness.measure_layers(
                w, seed, args.seconds, tally, OUT_DIR / f"{w.name}-seed{seed}.spans.json")
        else:
            metrics, hashes, rounds = harness.measure_end_to_end(w, seed, args.seconds, tally)
            absent = set()
        print_metrics(tag, metrics, units, absent)
        for key, problems in sorted(tally.problems.items(), key=repr)[:20]:
            print(f"FAILED {key}: {'; '.join(problems)}")
        results["seeds"][str(seed)] = {
            "rounds": rounds,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {n: {"value": v, "unit": units[n][0], "kind": units[n][1], "samples": k}
                        for n, (v, k) in metrics.items()},
            "absent": sorted(absent),
            "hashes": hash_lines(w.name, seed, hashes, refs),
            "problems": [[repr(k), p] for k, p in sorted(tally.problems.items(), key=repr)],
        }
        if i == 0:
            primary, primary_absent = metrics, absent

    out_file = OUT_DIR / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results written to {out_file.relative_to(ROOT)}")

    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    final = {}
    for entry in declared:
        name = entry["name"]
        if name in primary:  # missing only when every batch of its algorithm failed
            value = 0 if name in primary_absent else primary[name][0]
            final[name] = {"value": value, "unit": entry["unit"]}
    correct = failed == 0 and len(final) == len(declared)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": final}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
