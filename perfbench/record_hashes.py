"""Record the reference canonical hashes that run.py compares against.

    python3 perfbench/record_hashes.py --seeds 0-10

For every workload, seed and algorithm this runs the workload's
TrialConfig once through `run_trials` on one worker (the hash does not
depend on the worker count) and stores `canonical_hash` of the report in
perfbench/reference_hashes.json, keeping entries for other seeds. Run it
only on a commit whose outputs are the reference; run.py then prints
MATCH or DIFF for each (workload, algorithm) pair.
"""

from __future__ import annotations

import argparse
import json
import sys

from checkout import OUT_DIR, ROOT, use_checkout_source

REF_PATH = ROOT / "perfbench" / "reference_hashes.json"


def parse_seeds(spec: str) -> list[int]:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/record_hashes.py", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", required=True, help="one seed or an inclusive range, e.g. 0-10")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)

    use_checkout_source()
    import workloads
    from streammatch import bench

    OUT_DIR.mkdir(parents=True, exist_ok=True)
    refs = json.loads(REF_PATH.read_text(encoding="utf-8")) if REF_PATH.is_file() else {}
    for w in workloads.WORKLOADS.values():
        for seed in seeds:
            inst = workloads.set_up(w, seed, OUT_DIR)
            entry = refs.setdefault(w.name, {}).setdefault(str(seed), {})
            for algo in workloads.ALGOS:
                config = workloads.trial_config(w, inst, algo, seed)
                entry[algo] = bench.canonical_hash(bench.run_trials(config, max_workers=1))
            print(f"{w.name} seed={seed} {entry}", flush=True)
    REF_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
