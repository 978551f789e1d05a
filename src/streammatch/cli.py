"""match-bench command line interface.

Exit codes: 0 = all structural checks passed, 1 = operational error,
2 = a structural check failed.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import instances
from .bench import (
    ALGORITHMS,
    CheckConfig,
    GeneratorSpec,
    TrialConfig,
    WorkerDied,
    canonical_hash,
    emit_report,
    run_trials,
)
from .graph import BRUTE_FORCE_VERTEX_LIMIT, brute_force_matching_size, max_matching
from .sparsifier import SafetyCapExceeded, params_with_betas


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # operational errors exit with code 1
        self.print_usage(sys.stderr)
        raise SystemExit(f"{self.prog}: error: {message}")


# the flag, besides --n, that each generator kind needs
_GEN_PARAM_FLAG = {"bipartite-gnp": "p", "general-gnp": "p", "planted-matching": "plant"}


def _build_parser() -> _Parser:
    parser = _Parser(prog="match-bench", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run seeded trials of one algorithm")
    run.add_argument("--algo", required=True, choices=ALGORITHMS)
    run.add_argument("--gen", choices=sorted(_GEN_PARAM_FLAG))
    run.add_argument("--n", type=int)
    run.add_argument("--p", type=float)
    run.add_argument("--plant", type=int)
    run.add_argument("--instance", help="edge-list file instead of a generator")
    run.add_argument("--eps", type=float, default=0.05)
    run.add_argument("--beta-plus", type=float)
    run.add_argument("--beta-minus", type=float)
    run.add_argument("--gamma", type=float, default=2.0 / 3.0)
    run.add_argument("--b", type=int, default=500)
    run.add_argument("--trials", type=int, default=1)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--checks", default="", help="e.g. edcs,dichotomy:0.1,census")
    run.add_argument("--out", help="report file path")
    run.add_argument("--format", default="json", choices=["json", "csv"])
    run.add_argument("--workers", type=int)
    run.add_argument("--print-hash", action="store_true",
                     help="print the canonical report hash")

    gadgets = sub.add_parser("verify-gadgets", help="exhaustive parity-gadget check")
    gadgets.add_argument("--kmax", type=int, default=7)

    hard = sub.add_parser("hard", help="sample hard instances and check their bounds")
    hard.add_argument("--base", help="JSON family file (base graph + matchings)")
    hard.add_argument("--trivial", type=int,
                      help="use a perfect-matching base of this side size instead")
    hard.add_argument("--k", type=int, default=3)
    hard.add_argument("--trials", type=int, default=100)
    hard.add_argument("--seed", type=int, default=0)
    hard.add_argument("--save-prefix", help="write each sampled instance here")
    return parser


def _parse_checks(spec: str) -> CheckConfig:
    edcs = census = False
    deltas: list[float] = []
    for item in filter(None, (s.strip() for s in spec.split(","))):
        if item == "edcs":
            edcs = True
        elif item == "census":
            census = True
        elif item.startswith("dichotomy:"):
            try:
                deltas.append(float(item.split(":", 1)[1]))
            except ValueError:
                raise ValueError(f"check {item!r} needs a number after 'dichotomy:'") from None
        else:
            raise ValueError(f"unknown check {item!r}")
    return CheckConfig(edcs=edcs, dichotomy_deltas=tuple(deltas), census=census)


def _cmd_run(args) -> int:
    params = None
    if args.algo != "greedy":
        if args.beta_plus is None or args.beta_minus is None:
            raise ValueError(f"--algo {args.algo} needs --beta-plus and --beta-minus")
        params = params_with_betas(args.eps, args.beta_plus, args.beta_minus,
                                   args.gamma, args.b)
    gen = None
    if args.gen:
        if args.n is None:
            raise ValueError(f"--gen {args.gen} needs --n")
        flag = _GEN_PARAM_FLAG[args.gen]
        if getattr(args, flag) is None:
            raise ValueError(f"--gen {args.gen} needs --{flag}")
        gen = GeneratorSpec(args.gen, args.n, args.p, args.plant)
    config = TrialConfig(
        algo=args.algo,
        gen=gen,
        instance_path=args.instance,
        params=params,
        trials=args.trials,
        seed=args.seed,
        checks=_parse_checks(args.checks),
    )
    report = run_trials(config, max_workers=args.workers)
    if args.out:
        emit_report(report, args.format, args.out)
    agg = report.aggregate
    print(f"{args.algo}: trials={report.trials} mean_ratio={agg.mean_ratio:.4f} "
          f"min={agg.min_ratio:.4f} max={agg.max_ratio:.4f}")
    if args.print_hash:
        print(f"hash={canonical_hash(report)}")
    return 0 if report.all_checks_passed() else 2


def _cmd_verify_gadgets(args) -> int:
    if args.kmax < 3:
        raise ValueError("gadget length k must be odd and at least 3")
    limit = BRUTE_FORCE_VERTEX_LIMIT
    if args.kmax > limit // 2:  # a gadget of length k has 2k vertices
        raise ValueError(f"--kmax must be at most {limit // 2}, got {args.kmax}: "
                         f"brute force is limited to {limit} vertices")
    failures = 0
    for k in range(3, args.kmax + 1, 2):
        bad = 0
        for code in range(1 << k):
            bits = [(code >> i) & 1 for i in range(k)]
            gadget = instances.xor_gadget(bits)
            mu = brute_force_matching_size(gadget.graph)
            want = k if gadget.parity == 0 else k - 1
            if mu != want:
                bad += 1
                continue
            best = max_matching(gadget.graph)
            if gadget.parity == 0 and not best.is_matched(gadget.final):
                bad += 1
        status = "OK" if bad == 0 else f"{bad} FAILURES"
        print(f"k={k}: {1 << k} bit tuples, {status}")
        failures += bad
    return 0 if failures == 0 else 2


def _cmd_hard(args) -> int:
    if (args.base is None) == (args.trivial is None):
        raise ValueError("exactly one of --base / --trivial is required")
    if args.trivial is not None and args.trivial < 1:
        raise ValueError("--trivial must be at least 1")
    if args.trials < 1:
        raise ValueError("--trials must be at least 1")
    if args.seed < 0:
        raise ValueError(f"--seed must be non-negative, got {args.seed}")
    if args.base:
        base, matchings = instances.load_family(args.base)
        if not matchings:
            raise ValueError(f"{args.base!r} holds no matchings")
    else:
        base = instances.matched_base(args.trivial)
        matchings = instances.trivial_family(base)
    # the family is checked once, then every trial samples from it
    family = instances._checked_family(base, matchings, args.k)
    n_side = base.n // 2
    r = len(family[0])
    bound = instances.removed_special_bound(n_side, r, args.k)
    rng = np.random.default_rng(args.seed)
    mus = []
    violations = 0
    for i in range(args.trials):
        inst = instances._sample_hard_instance(base, family, args.k, rng)
        mu_g, mu_stripped = instances.mu_with_and_without_special(inst)
        mus.append(mu_g)
        if mu_stripped > bound:
            violations += 1
        if args.save_prefix:
            instances.save_hard_instance(inst, f"{args.save_prefix}{i}.edges")
    mean_mu = sum(mus) / len(mus)
    floor = bound + r / 2.0 - 3.0 * (r ** 0.5) / 2.0
    mean_ok = mean_mu >= floor
    print(f"hard: trials={args.trials} N={n_side} r={r} k={args.k}")
    print(f"  removal bound {bound}: {violations} violations")
    print(f"  mean mu = {mean_mu:.2f}, floor {floor:.2f}: {'OK' if mean_ok else 'FAIL'}")
    return 0 if violations == 0 and mean_ok else 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "verify-gadgets":
            return _cmd_verify_gadgets(args)
        return _cmd_hard(args)
    except (ValueError, OSError, KeyError, SafetyCapExceeded, WorkerDied,
            MemoryError) as exc:
        print(f"match-bench: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
