"""Golden hashes: pin the canonical report hash of small fixed configs.

A refactor or speed-up that must leave outputs unchanged has to keep
these hashes. Re-record one only for a change that is meant to alter
outputs, and say so where the change is described.
"""

import numpy as np
import pytest

from streammatch import (
    CheckConfig,
    GeneratorSpec,
    TrialConfig,
    build_hard_instance,
    canonical_hash,
    matched_base,
    params_with_betas,
    run_trials,
    save_hard_instance,
    trivial_family,
)

CHECKS = CheckConfig(edcs=True, dichotomy_deltas=(0.1,), census=True)

# (instance, algorithm) -> hash of `run_trials` with trials=4, seed=3.
# "gnp" is bipartite-gnp n=60 per side, p=0.1, eps=0.05, caps 12/10: its
# beats23 report applies paths of length 1, 3 and 5. "gadget" is the
# parity-gadget instance of matched_base(20), trivial family, k=3, sampled
# with seed 5 (a general graph, so the blossom oracle runs), eps=0.45,
# caps 2/1.
GOLDEN = {
    ("gnp", "greedy"): "439c9891d64beb25e2e209f320138557bdd41828cde40e482677da0010f465cb",
    ("gnp", "bernstein"): "096d915f3f8174181b3f7ac044810a9fa258cf4ea7bc2092f7ca1e2748cc964f",
    ("gnp", "beats23"): "8d79a966d61e08b3f2ff3021794507b21b77230d49ffb8d68ed659e357d470f8",
    ("gadget", "greedy"): "eebf31f7f6c80de050f830714e0e19e87faf4b73bff8b18e2ec2b2790cc57d57",
    ("gadget", "bernstein"): "f89f1347b629a6e2d16deadf465fe9f04a3ee9a5403cad440a3a54e5af407561",
    ("gadget", "beats23"): "fe5fef1c214e99de6f5460f8d49e2f97e997f30e42ec75310f93f30585454b5b",
}

# gamma -> hash of beats23 on "gnp" at the two ends of the Phase II.A draw.
# gamma = 1e-12 draws tau = 0, so II.A is empty and T has no edges;
# gamma = 1 - 1e-12 puts all of Phase II into II.A, so no II.B arrival
# runs and only the closing pass over M | T augments.
BOUNDARY = {
    1e-12: "cc4e5be88eb6097d5383ee791d35e2e1cf4e26c9fe2ab24bc61000278d50e2e2",
    1.0 - 1e-12: "9dfe71600729b5e89da0c19281d47dcd6d7b4a6a41af4eeeca629c0f0c77d51f",
}


def _config(instance: str, algo: str, tmp_path, gamma: float = 2.0 / 3.0) -> TrialConfig:
    if instance == "gnp":
        source = {"gen": GeneratorSpec("bipartite-gnp", 60, 0.1)}
        eps, beta_plus, beta_minus = 0.05, 12, 10
    else:
        base = matched_base(20)
        inst = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(5))
        path = tmp_path / "gadget.edges"
        save_hard_instance(inst, path)
        source = {"instance_path": str(path)}
        eps, beta_plus, beta_minus = 0.45, 2, 1
    params = None
    if algo != "greedy":
        params = params_with_betas(eps, beta_plus, beta_minus, gamma, 500)
    return TrialConfig(algo=algo, params=params, trials=4, seed=3, checks=CHECKS, **source)


@pytest.mark.parametrize("instance, algo", sorted(GOLDEN))
def test_golden_hash(instance, algo, tmp_path):
    report = run_trials(_config(instance, algo, tmp_path), max_workers=1)
    assert report.all_checks_passed()
    if (instance, algo) == ("gnp", "beats23"):
        assert all(r.path_hist["3"] and r.path_hist["5"] for r in report.records)
    assert canonical_hash(report) == GOLDEN[instance, algo]


@pytest.mark.parametrize("gamma", sorted(BOUNDARY))
def test_golden_hash_beats23_boundary(gamma, tmp_path):
    report = run_trials(_config("gnp", "beats23", tmp_path, gamma), max_workers=1)
    assert report.all_checks_passed()
    if gamma < 0.5:
        assert all(r.t_size == 0 for r in report.records)
    else:
        assert all(sum(r.path_hist.values()) for r in report.records)
    assert canonical_hash(report) == BOUNDARY[gamma]
