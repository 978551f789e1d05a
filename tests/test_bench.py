import dataclasses
import gc
import hashlib
import json
import multiprocessing
import os
import random
import re
import shlex
import time
from pathlib import Path

import pytest

from streammatch import (
    CheckConfig,
    GeneratorSpec,
    TrialConfig,
    canonical_hash,
    emit_report,
    max_matching,
    params_with_betas,
    report_to_dict,
    run_trials,
)
from streammatch.bench import trial_seeds
from streammatch.cli import main
from streammatch.graph import BRUTE_FORCE_VERTEX_LIMIT, _ends_of, _write_edges, edge_key
from util import reference_fill


@pytest.fixture(autouse=True)
def _no_child_left():
    # every run_trials call reaps its workers, whether it returns or raises
    yield
    assert multiprocessing.active_children() == []


def _config(algo="beats23", trials=4, checks=CheckConfig(), kind="bipartite-gnp", n=30, p=0.2):
    params = None if algo == "greedy" else params_with_betas(0.1, 12, 10, b=4)
    return TrialConfig(
        algo=algo,
        gen=GeneratorSpec(kind, n, p),
        params=params,
        trials=trials,
        seed=7,
        checks=checks,
    )


# ---------------------------------------------------------------------------
# configuration


def test_config_validation():
    with pytest.raises(ValueError):
        TrialConfig(algo="magic", gen=GeneratorSpec("bipartite-gnp", 4, 0.5))
    with pytest.raises(ValueError):
        TrialConfig(algo="greedy", gen=GeneratorSpec("bipartite-gnp", 4, 0.5), trials=0)
    with pytest.raises(ValueError, match="seed must be non-negative"):
        TrialConfig(algo="greedy", gen=GeneratorSpec("bipartite-gnp", 4, 0.5), seed=-1)
    with pytest.raises(ValueError):
        TrialConfig(algo="greedy")  # neither generator nor file
    with pytest.raises(ValueError):
        TrialConfig(algo="beats23", gen=GeneratorSpec("bipartite-gnp", 4, 0.5))
    with pytest.raises(ValueError):
        CheckConfig(dichotomy_deltas=(1.5,))


def test_trial_seeds_are_stable_and_distinct():
    assert trial_seeds(7, 0) == trial_seeds(7, 0)
    assert trial_seeds(7, 0) != trial_seeds(7, 1)
    assert trial_seeds(7, 0) != trial_seeds(8, 0)


# ---------------------------------------------------------------------------
# runs


def test_greedy_on_perfect_matching_all_ratio_one(tmp_path):
    path = tmp_path / "pm.edges"
    _write_edges(path, 20, _ends_of([(2 * i, 2 * i + 1) for i in range(10)]))
    cfg = TrialConfig(algo="greedy", instance_path=str(path), trials=10, seed=3)
    report = run_trials(cfg, max_workers=1)
    assert all(r.ratio == 1.0 for r in report.records)


def test_greedy_min_ratio_at_least_half():
    report = run_trials(_config(algo="greedy", trials=20), max_workers=1)
    assert report.aggregate.min_ratio >= 0.5


def test_checks_recorded_and_pass():
    checks = CheckConfig(edcs=True, dichotomy_deltas=(0.05, 0.2), census=True)
    report = run_trials(_config(trials=3, checks=checks), max_workers=1)
    assert report.all_checks_passed()
    for r in report.records:
        assert set(r.checks) == {"edcs", "dichotomy:0.05", "dichotomy:0.2", "census"}


def test_dichotomy_checks_keep_distinct_names():
    # deltas equal to 6 significant digits get one key each, and a delta
    # just below 1 is not named as 1
    deltas = (0.1, 0.10000001, 0.9999999)
    config = _config(trials=1, checks=CheckConfig(dichotomy_deltas=deltas))
    report = run_trials(config, max_workers=1)
    assert set(report.records[0].checks) == {
        "dichotomy:0.1", "dichotomy:0.10000001", "dichotomy:0.9999999"
    }


def test_stages_and_checks_leave_g_without_edge_tuples():
    # every stage of bernstein and beats23, and every check, reads the
    # stream's int64 end arrays: none gathers G's edge tuples
    from streammatch.bench import load_instance, run_one_trial

    checks = CheckConfig(edcs=True, dichotomy_deltas=(0.1,), census=True)
    for algo in ("bernstein", "beats23"):
        config = _config(algo=algo, trials=1, checks=checks)
        g = load_instance(config)
        assert g._edge_array is None
        record = run_one_trial(config, g, len(max_matching(g)), 0)
        assert set(record.checks) == {"edcs", "dichotomy:0.1", "census"}
        assert g._edge_array is None, algo


def test_aggregate_matches_records():
    report = run_trials(_config(trials=5), max_workers=1)
    ratios = [r.ratio for r in report.records]
    assert report.aggregate.mean_ratio == pytest.approx(sum(ratios) / len(ratios))
    assert report.aggregate.min_ratio == min(ratios)
    assert report.aggregate.max_ratio == max(ratios)


def test_determinism_across_worker_counts():
    cfg = _config(trials=4, checks=CheckConfig(edcs=True))
    h1 = canonical_hash(run_trials(cfg, max_workers=1))
    h2 = canonical_hash(run_trials(cfg, max_workers=2))
    assert h1 == h2


def _refuse_pickle(self):
    raise AssertionError("a graph was pickled")


@pytest.mark.parametrize("max_workers, trials, forks",
                         [(2, 10, 1), (8, 3, 2), (3, 7, 2), (6, 48, 5), (8, 1, 0)])
def test_pool_forks_one_worker_fewer_than_it_runs(max_workers, trials, forks, monkeypatch):
    # this process runs trials too, and the workers inherit the instance
    # through the fork instead of unpickling it; with more processes than
    # CPUs, an index the shared counter handed out twice, or never, would
    # show in the records' trial numbers
    from streammatch.graph import Graph

    made = []
    real_fork = os.fork

    def counting_fork():
        made.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(Graph, "__reduce__", _refuse_pickle)
    cfg = _config(trials=trials, checks=CheckConfig(edcs=True))
    report = run_trials(cfg, max_workers=max_workers)
    assert len(made) == forks
    assert [r.trial for r in report.records] == list(range(trials))
    assert canonical_hash(report) == canonical_hash(run_trials(cfg, max_workers=1))


def test_bernstein_records_have_sparsifier_sizes():
    report = run_trials(_config(algo="bernstein", trials=2), max_workers=1)
    for r in report.records:
        assert r.h_size is not None and r.u_size is not None
        assert r.mu_hu == r.output_size
        assert r.t_size is None and r.path_hist is None


def _instance_configs(kind, tmp_path):
    """One all-checks config per algorithm over a bipartite G(n, p) or a
    saved parity-gadget instance, with the instance and its mu."""
    import numpy as np

    from streammatch import build_hard_instance, matched_base, save_hard_instance, trivial_family
    from streammatch.bench import ALGORITHMS, load_instance

    checks = CheckConfig(edcs=True, dichotomy_deltas=(0.1,), census=True)
    if kind == "gnp":
        configs = [_config(algo, trials=3, checks=checks) for algo in ALGORITHMS]
    else:
        base = matched_base(20)
        inst = build_hard_instance(base, trivial_family(base), 3, np.random.default_rng(1))
        path = str(tmp_path / "gadget.edges")
        save_hard_instance(inst, path)
        params = params_with_betas(0.45, 2, 1)
        configs = [TrialConfig(algo, instance_path=path, trials=3, checks=checks,
                               params=None if algo == "greedy" else params)
                   for algo in ALGORITHMS]
    g = load_instance(configs[0])
    return configs, g, len(max_matching(g))


@pytest.mark.parametrize("kind", ["gnp", "gadget"])
def test_trials_leave_no_cyclic_garbage(kind, tmp_path):
    # run_one_trial pauses the cycle collector; that is safe only while
    # everything a trial allocates is freed by reference counting
    import streammatch.bench as bench

    configs, g, mu_g = _instance_configs(kind, tmp_path)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        for config in configs:
            for i in range(config.trials):
                assert all(bench.run_one_trial(config, g, mu_g, i).checks.values())
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("kind, keeps_all", [("gnp", True), ("gadget", False)])
def test_trial_solves_each_graph_at_most_once(kind, keeps_all, tmp_path, monkeypatch):
    # max_matching keeps a graph's mate array on it: a trial solves no
    # graph twice, and where H | U is G it reads the mates of the set-up's
    # mu(G) solve instead of solving G again. Hopcroft-Karp gets a graph's
    # left rows, or its full rows where adj was read first, so a solve is
    # compared by the edge set its rows hold, which either form gives
    import streammatch.bench as bench
    import streammatch.graph as graph
    from streammatch import make_stream, run_sparsifier

    solved = []
    for name in ("_hopcroft_karp", "_blossom"):
        def recording(n, adj, *rest, solve=getattr(graph, name)):
            solved.append(adj)
            return solve(n, adj, *rest)

        monkeypatch.setattr(graph, name, recording)
    configs, g, mu_g = _instance_configs(kind, tmp_path)
    assert len(solved) == 1
    if g.bipartition is not None:  # set-up solves G over its left rows alone
        left = g.bipartition[0]
        full = reference_fill(g.n, g.edges)
        assert solved[0] == tuple(row if v in left else () for v, row in enumerate(full))
    else:
        assert solved[0] is g.adj

    def edge_set(adj):
        return frozenset(edge_key(v, w) for v, row in enumerate(adj) for w in row)

    g_edges = frozenset(g.edges)
    assert edge_set(solved[0]) == g_edges
    for config in (c for c in configs if c.algo != "greedy"):
        assert config.checks.census
        stream = make_stream(g, trial_seeds(config.seed, 0)[0])
        assert (run_sparsifier(stream, config.params).hu_graph is g) == keeps_all
        solved.clear()
        bench.run_one_trial(config, g, mu_g, 0)
        # by content, so that a rebuilt copy of a solved graph counts too
        edge_sets = [edge_set(adj) for adj in solved]
        assert len(set(edge_sets)) == len(edge_sets), config.algo
        assert g_edges not in edge_sets, config.algo
        if keeps_all:  # H and the census's Phase II graph only
            assert len(solved) == 2, config.algo


@pytest.mark.parametrize("source", ["bipartite-gnp", "general-gnp", "edge-list"])
def test_load_instance_leaves_no_cyclic_garbage(source, tmp_path):
    # load_instance pauses the cycle collector too; "bipartite-gnp" is the
    # dense-c10 instance, bipartite G(n, p) with n=400 per side and p=0.05
    import streammatch.bench as bench

    gen = {"bipartite-gnp": GeneratorSpec("bipartite-gnp", 400, 0.05),
           "general-gnp": GeneratorSpec("general-gnp", 300, 0.05)}
    if source == "edge-list":
        path = tmp_path / "g.edges"
        g = bench.load_instance(TrialConfig("greedy", gen=gen["general-gnp"]))
        _write_edges(path, g.n, g.endpoints)
        config = TrialConfig("greedy", instance_path=str(path))
    else:
        config = TrialConfig("greedy", gen=gen[source], seed=1)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        g = bench.load_instance(config)
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
    assert g.edges


@pytest.mark.parametrize("enabled_before", [True, False])
@pytest.mark.parametrize("p", [0.2, 1.5], ids=["valid-p", "bad-p"])
def test_load_instance_restores_collector_state(enabled_before, p, monkeypatch):
    import streammatch.bench as bench

    seen = []  # the collector's state inside the generator
    gen_random = bench.gen_random

    def recording(*args):
        seen.append(gc.isenabled())
        return gen_random(*args)

    monkeypatch.setattr(bench, "gen_random", recording)
    config = _config(algo="greedy", p=p)
    was_enabled = gc.isenabled()
    (gc.enable if enabled_before else gc.disable)()
    try:
        if p > 1:
            with pytest.raises(ValueError, match="p must lie in"):
                bench.load_instance(config)
        else:
            assert bench.load_instance(config).edges
        assert gc.isenabled() == enabled_before
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]


@pytest.mark.parametrize("enabled_before, raises", [(True, False), (False, False), (True, True)])
def test_run_one_trial_restores_collector_state(enabled_before, raises, monkeypatch):
    import streammatch.bench as bench
    import streammatch.sparsifier as sparsifier
    from streammatch import SafetyCapExceeded

    seen = []  # the collector's state inside the trial
    run_sparsifier = bench.run_sparsifier

    def recording(*args):
        seen.append(gc.isenabled())
        return run_sparsifier(*args)

    monkeypatch.setattr(bench, "run_sparsifier", recording)
    if raises:
        monkeypatch.setattr(sparsifier, "default_u_cap", lambda n: 0)
    config = _config(algo="bernstein", trials=1)
    g = bench.load_instance(config)
    mu_g = len(max_matching(g))
    was_enabled = gc.isenabled()
    (gc.enable if enabled_before else gc.disable)()
    try:
        if raises:
            with pytest.raises(SafetyCapExceeded):
                bench.run_one_trial(config, g, mu_g, 0)
        else:
            bench.run_one_trial(config, g, mu_g, 0)
        assert gc.isenabled() == enabled_before
    finally:
        (gc.enable if was_enabled else gc.disable)()
    assert seen == [False]


# ---------------------------------------------------------------------------
# reports


def test_json_round_trip(tmp_path):
    report = run_trials(_config(trials=2), max_workers=1)
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    assert json.loads(path.read_text()) == report_to_dict(report)


def test_csv_row_count(tmp_path):
    report = run_trials(_config(trials=1), max_workers=1)
    path = tmp_path / "report.csv"
    emit_report(report, "csv", path)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3  # header + one trial + #agg
    assert lines[-1].startswith("#agg")


def test_emit_rejects_empty_and_bad_format(tmp_path):
    report = run_trials(_config(trials=1), max_workers=1)
    empty = report.__class__(
        algo=report.algo, seed=report.seed, trials=0, records=(), aggregate=report.aggregate
    )
    with pytest.raises(ValueError):
        emit_report(empty, "json", tmp_path / "x.json")
    with pytest.raises(ValueError):
        emit_report(report, "yaml", tmp_path / "x.yaml")


def test_hash_ignores_wall_time():
    report = run_trials(_config(trials=2), max_workers=1)
    records = tuple(dataclasses.replace(r, wall_time=123.456) for r in report.records)
    changed = dataclasses.replace(report, records=records)
    assert changed != report
    assert canonical_hash(changed) == canonical_hash(report)


# ---------------------------------------------------------------------------
# CLI


def test_cli_run_writes_report(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main([
        "run", "--algo", "beats23", "--gen", "bipartite-gnp", "--n", "30", "--p", "0.2",
        "--eps", "0.1", "--beta-plus", "12", "--beta-minus", "10", "--b", "4",
        "--trials", "2", "--seed", "1", "--checks", "edcs,dichotomy:0.1,census",
        "--out", str(out), "--workers", "1",
    ])
    assert code == 0
    assert out.exists()
    assert "mean_ratio" in capsys.readouterr().out


def test_cli_verify_gadgets(capsys):
    assert main(["verify-gadgets", "--kmax", "5"]) == 0
    assert "k=5" in capsys.readouterr().out


# SHA-256 of the five .edges files that the run below writes, recorded
# from the per-vertex instance builder
HARD_TRIVIAL_EDGES = [
    "931f0ac9b55949151fc5eb78a9075221892cecbd9e521ce85384c9f213ef3db4",
    "dd0553ce9f40a79af421de44a6f84095342ad44683d5654d5a16f8f52e33c31d",
    "ce313b82bc80a848efbce9e2ca5e838c5e06210cc612a0da21312ff8d497160c",
    "c81e6f624003a5bb5de8f2199a45c23e74cdceeac81730a7423b3554829b0706",
    "4ce4f75102f591d8264528c89d183c9b49f7e7de42fb1b05620933e2db3f8f81",
]


def test_cli_hard_trivial(tmp_path, capsys):
    prefix = str(tmp_path / "inst")
    assert main(["hard", "--trivial", "6", "--k", "3", "--trials", "5", "--seed", "2",
                 "--save-prefix", prefix]) == 0
    assert capsys.readouterr().out == (
        "hard: trials=5 N=6 r=1 k=3\n"
        "  removal bound 34: 0 violations\n"
        "  mean mu = 34.40, floor 33.00: OK\n"
    )
    digests = [hashlib.sha256(Path(f"{prefix}{i}.edges").read_bytes()).hexdigest()
               for i in range(5)]
    assert digests == HARD_TRIVIAL_EDGES


def test_cli_hard_checks_the_family_once(tmp_path, monkeypatch, capsys):
    # one family check per command, and each saved instance byte for byte
    # the one that build_hard_instance, which checks on every call, samples
    import numpy as np

    from streammatch import (build_hard_instance, instances, matched_base, save_hard_instance,
                             trivial_family)

    calls = []
    verify = instances.verify_induced
    monkeypatch.setattr(instances, "verify_induced", lambda *a: calls.append(a) or verify(*a))
    prefix = str(tmp_path / "inst")
    assert main(["hard", "--trivial", "4", "--trials", "5", "--seed", "3",
                 "--save-prefix", prefix]) == 0
    assert len(calls) == 1
    base = matched_base(4)
    rng = np.random.default_rng(3)
    for i in range(5):
        want = tmp_path / f"want{i}.edges"
        save_hard_instance(build_hard_instance(base, trivial_family(base), 3, rng), want)
        for suffix in ("", ".json"):
            got = Path(f"{prefix}{i}.edges{suffix}").read_bytes()
            assert got == Path(f"{want}{suffix}").read_bytes(), (i, suffix)


def test_cli_operational_error_exit_code(tmp_path, capsys):
    code = main(["run", "--algo", "beats23", "--instance", str(tmp_path / "nope.edges"),
                 "--eps", "0.1", "--beta-plus", "12", "--beta-minus", "10",
                 "--trials", "1", "--workers", "1"])
    assert code == 1
    assert "nope.edges" in _assert_one_line_error(capsys).err


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("match-bench: error:") and captured.err.count("\n") == 1
    return captured


def _readme_run_lines():
    """The `match-bench run` command lines of README's CLI block, with
    their continuation lines joined."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("match-bench run ")]


def test_readme_run_examples_exit_0(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the examples write their --out files here
    examples = _readme_run_lines()
    assert examples
    for argv in examples:
        assert main(argv) == 0, argv


@pytest.mark.parametrize("algo", ["bernstein", "beats23"])
@pytest.mark.parametrize("caps", [[], ["--beta-plus", "12"], ["--beta-minus", "10"]],
                         ids=["no-caps", "plus-only", "minus-only"])
def test_cli_run_without_both_caps_exits_1(algo, caps, capsys):
    code = main(["run", "--algo", algo, "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
                 "--workers", "1"] + caps)
    assert code == 1
    message = f"--algo {algo} needs --beta-plus and --beta-minus"
    assert _assert_one_line_error(capsys).err == f"match-bench: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--p", "0.2"],
    ["hard", "--trivial", "0"],
    ["hard", "--trivial", "3", "--trials", "0"],
    ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
     "--workers", "0"],
    ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
     "--workers", "-2"],
])
def test_cli_bad_arguments_exit_1_without_traceback(argv, capsys):
    assert main(argv) == 1
    _assert_one_line_error(capsys)


def test_cli_out_of_memory_exits_1_without_traceback(capsys):
    # n = 10^8 asks numpy for 8.9 PiB, a request that fails at once
    argv = ["run", "--algo", "greedy", "--gen", "general-gnp", "--n", "100000000",
            "--p", "0"]
    assert main(argv) == 1
    assert "Unable to allocate" in _assert_one_line_error(capsys).err


def _cap_case(plus, minus, cap, breaks):
    """A bad pair of caps, with an id that names the half of the cap's
    rule that it breaks; a NaN breaks both."""
    return pytest.param(plus, minus, f"{cap} must be positive and finite",
                        id=f"{plus}-{minus}-{cap} must be {breaks}")


@pytest.mark.parametrize("plus, minus, message", [
    ("5", "6", "beta_minus must not exceed beta_plus"),
    _cap_case("5", "0", "beta_minus", "positive"),
    _cap_case("5", "-2", "beta_minus", "positive"),
    _cap_case("-3", "-4", "beta_plus", "positive"),
    _cap_case("inf", "3", "beta_plus", "finite"),
    _cap_case("5", "inf", "beta_minus", "finite"),
    _cap_case("inf", "inf", "beta_plus", "finite"),
    _cap_case("nan", "3", "beta_plus", "positive and finite"),
    _cap_case("5", "nan", "beta_minus", "positive and finite"),
])
def test_cli_bad_beta_caps_name_the_cap(plus, minus, message, capsys):
    code = main(["run", "--algo", "bernstein", "--gen", "bipartite-gnp", "--n", "10",
                 "--p", "0.3", "--beta-plus", plus, "--beta-minus", minus, "--workers", "1"])
    assert code == 1
    assert _assert_one_line_error(capsys).err == f"match-bench: error: {message}\n"


_GNP = ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
        "--workers", "1"]


@pytest.mark.parametrize("argv, message", [
    (_GNP + ["--seed", "-1"], "seed must be non-negative, got -1"),
    (["hard", "--trivial", "3", "--trials", "1", "--seed", "-4"],
     "--seed must be non-negative, got -4"),
    (_GNP + ["--checks", "edcs,dichotomy:x"],
     "check 'dichotomy:x' needs a number after 'dichotomy:'"),
    (_GNP + ["--checks", "dichotomy:"], "check 'dichotomy:' needs a number after 'dichotomy:'"),
    (_GNP[:-4] + ["--workers", "1"], "--gen bipartite-gnp needs --p"),
    (["run", "--algo", "greedy", "--gen", "general-gnp", "--n", "10"],
     "--gen general-gnp needs --p"),
    (["run", "--algo", "greedy", "--gen", "planted-matching", "--n", "10"],
     "--gen planted-matching needs --plant"),
])
def test_cli_bad_values_name_the_flag(argv, message, capsys):
    assert main(argv) == 1
    assert _assert_one_line_error(capsys).err == f"match-bench: error: {message}\n"


@pytest.mark.parametrize("algo", ["bernstein", "beats23"])
def test_cli_safety_cap_exits_1_without_traceback(algo, monkeypatch, capsys):
    import streammatch.sparsifier as sparsifier

    monkeypatch.setattr(sparsifier, "default_u_cap", lambda n: 0)
    code = main([
        "run", "--algo", algo, "--gen", "bipartite-gnp", "--n", "20", "--p", "0.3",
        "--eps", "0.2", "--beta-plus", "10", "--beta-minus", "9", "--workers", "1",
    ])
    assert code == 1
    _assert_one_line_error(capsys)


def _in_worker_only(monkeypatch, act):
    """Patch run_one_trial so that a forked worker calls act(index) before
    each of its trials, while this process holds its own trials back until
    a worker has started one."""
    import streammatch.bench as bench

    parent = os.getpid()
    reached = multiprocessing.get_context("fork").Event()
    real = bench.run_one_trial

    def trial(config, g, mu_g, index):
        if os.getpid() == parent:
            reached.wait(30)
        else:
            reached.set()
            act(index)
        return real(config, g, mu_g, index)

    monkeypatch.setattr(bench, "run_one_trial", trial)


def _cap_hit(index):
    from streammatch import SafetyCapExceeded

    raise SafetyCapExceeded(f"trial {index} hit the safety cap")


def test_cli_safety_cap_in_pool_worker_exits_1(monkeypatch, capsys):
    _in_worker_only(monkeypatch, _cap_hit)
    code = main([
        "run", "--algo", "bernstein", "--gen", "bipartite-gnp", "--n", "20", "--p", "0.3",
        "--eps", "0.2", "--beta-plus", "10", "--beta-minus", "9",
        "--workers", "2", "--trials", "4",
    ])
    assert code == 1
    assert re.fullmatch(r"match-bench: error: trial \d hit the safety cap\n",
                        _assert_one_line_error(capsys).err)


def test_worker_error_raises_the_same_error_in_the_caller(monkeypatch):
    from streammatch import SafetyCapExceeded

    _in_worker_only(monkeypatch, _cap_hit)
    with pytest.raises(SafetyCapExceeded, match=r"trial \d hit the safety cap"):
        run_trials(_config(algo="greedy", trials=6), max_workers=3)


def test_cli_broken_pool_exits_1(monkeypatch, capsys):
    # a worker that dies without reporting
    _in_worker_only(monkeypatch, lambda index: os._exit(3))
    code = main(["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
                 "--workers", "2", "--trials", "4"])
    assert code == 1
    assert "exited without reporting" in _assert_one_line_error(capsys).err


def test_caller_trial_error_kills_and_reaps_the_workers(monkeypatch):
    # the workers would sleep for a minute: they are killed, not waited for
    import streammatch.bench as bench

    parent = os.getpid()

    def trial(config, g, mu_g, index):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyError(f"trial {index} in the caller")

    monkeypatch.setattr(bench, "run_one_trial", trial)
    start = time.perf_counter()
    with pytest.raises(KeyError, match="in the caller"):
        run_trials(_config(algo="greedy", trials=6), max_workers=3)
    assert time.perf_counter() - start < 30
    assert multiprocessing.active_children() == []


def test_cli_workers_without_fork(monkeypatch, capsys):
    # where processes cannot be forked, one worker still runs and more exit 1
    from streammatch.bench import resolve_workers

    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
    assert resolve_workers() == 1
    args = ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
            "--trials", "4", "--workers"]
    assert main(args + ["2"]) == 1
    assert "'fork' start method" in _assert_one_line_error(capsys).err
    assert main(args + ["1"]) == 0
    assert main(args[:-1]) == 0


@pytest.mark.parametrize("n", ["99999999999999999999", "2147483648"])
def test_cli_vertex_count_above_limit_exits_1(tmp_path, capsys, n):
    # rejected before anything of size n is allocated
    path = tmp_path / "g.edges"
    path.write_text(f"{n} 1\n0 1\n")
    assert main(["run", "--algo", "greedy", "--instance", str(path), "--workers", "1"]) == 1
    message = f"{str(path)!r}: vertex count {n} is above the limit of 2147483647"
    assert _assert_one_line_error(capsys).err == f"match-bench: error: {message}\n"


def test_cli_extra_edge_lines_exit_1(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("4 2\n0 1\n2 3\n1 2\n")
    assert main(["run", "--algo", "greedy", "--instance", str(path), "--workers", "1"]) == 1
    _assert_one_line_error(capsys)


@pytest.mark.parametrize("text, line_no, line", [
    ("4 2\n0 1\n1 x\n", 3, "1 x"),
    ("4 2\n0.5 1\n2 3\n", 2, "0.5 1"),
    ("four 2\n0 1\n2 3\n", 1, "four 2"),
    ("4 2 bipartite two\n0 2\n1 3\n", 1, "two"),
], ids=["edge-token", "edge-float", "header-count", "header-left-size"])
def test_cli_non_integer_edge_list_token_names_the_line(tmp_path, capsys, text, line_no, line):
    path = tmp_path / "g.edges"
    path.write_text(text)
    assert main(["run", "--algo", "greedy", "--instance", str(path), "--workers", "1"]) == 1
    message = f"{str(path)!r} line {line_no}: expected integers, got {line!r}"
    assert _assert_one_line_error(capsys).err == f"match-bench: error: {message}\n"


def test_resolve_workers_explicit_else_cpu_count():
    # `--workers 0` exiting 1 is pinned by
    # test_cli_bad_arguments_exit_1_without_traceback
    from streammatch.bench import resolve_workers

    assert resolve_workers(max_workers=5) == 5
    assert resolve_workers() == max(1, os.cpu_count() or 1)
    with pytest.raises(ValueError, match="worker count must be at least 1, got 0"):
        resolve_workers(0)


def test_cli_structural_failure_exit_code(monkeypatch, capsys):
    # force the sparsifier re-check to report a violation: the run must
    # finish but exit with status 2
    import streammatch.bench as bench

    class FailingReport:
        ok = False

    monkeypatch.setattr(bench, "check_edcs", lambda *a, **k: FailingReport())
    code = main([
        "run", "--algo", "bernstein", "--gen", "bipartite-gnp", "--n", "20",
        "--p", "0.3", "--eps", "0.2", "--beta-plus", "10", "--beta-minus", "9",
        "--trials", "1", "--checks", "edcs", "--workers", "1",
    ])
    assert code == 2


@pytest.mark.parametrize("content, field", [
    ("[1, 2]", "JSON object"),
    ('{"n": null, "left_size": 3, "edges": [[0, 3]], "matchings": [[[0, 3]]]}', "'n'"),
    ('{"n": 6, "left_size": 3, "edges": [5], "matchings": [[[0, 3]]]}', "'edges'"),
    ('{"n": 6, "edges": [[0, 3]], "matchings": [[[0, 3]]]}', "'left_size'"),
    # a matching vertex out of range: -3 would read as vertex 3, and 6
    # would index past the adjacency
    ('{"n": 6, "left_size": 3, "edges": [[0, 3], [1, 4], [2, 5]], "matchings": [[[-3, 0]]]}',
     "induced-matching family"),
    ('{"n": 6, "left_size": 3, "edges": [[0, 3], [1, 4], [2, 5]], "matchings": [[[6, 7]]]}',
     "induced-matching family"),
    # numbers that are not integers, and strings, are rejected rather than
    # truncated or parsed
    ('{"n": 4.9, "left_size": 2, "edges": [[0, 2], [1, 3]], "matchings": [[[0, 2]]]}', "'n'"),
    ('{"n": 4, "left_size": 2, "edges": [[0.7, 2.2], [1, 3]], "matchings": [[[0, 2]]]}',
     "'edges'"),
    ('{"n": 4, "left_size": 2, "edges": [[0, 2], ["1", 3]], "matchings": [[[0, 2]]]}', "'edges'"),
    ('{"n": 4, "left_size": 2.0, "edges": [[0, 2], [1, 3]], "matchings": [[[0, 2]]]}',
     "'left_size'"),
    ('{"n": 4, "left_size": 2, "edges": [[0, 2], [1, 3]], "matchings": [[[0, "2"]]]}',
     "'matchings'"),
    # JSON true and false are not vertices 1 and 0
    ('{"n": 4, "left_size": 2, "edges": [[false, 2], [true, 3]], "matchings": [[[0, 2]]]}',
     "'edges'"),
    ('{"n": 4, "left_size": 2, "edges": [[0, 2], [1, 3]], "matchings": [[[false, 2]]]}',
     "'matchings'"),
    ('{"n": 4, "left_size": true, "edges": [[0, 2], [1, 3]], "matchings": [[[0, 2]]]}',
     "'left_size'"),
    # a left side larger than the graph is named as such
    ('{"n": 4, "left_size": 5, "edges": [[0, 2], [1, 3]], "matchings": [[[0, 2]]]}',
     "'left_size' of 5, out of range for n=4"),
    ('{"n": 4, "left_size": -1, "edges": [[0, 2], [1, 3]], "matchings": [[[0, 2]]]}',
     "'left_size' of -1, out of range for n=4"),
])
def test_cli_malformed_family_file_exits_1(tmp_path, capsys, content, field):
    path = tmp_path / "family.json"
    path.write_text(content)
    assert main(["hard", "--base", str(path), "--trials", "1"]) == 1
    err = _assert_one_line_error(capsys).err
    assert str(path) in err and field in err


@pytest.mark.parametrize("kmax", ["1", "-5", "2"])
def test_cli_verify_gadgets_small_kmax_exits_1(capsys, kmax):
    assert main(["verify-gadgets", "--kmax", kmax]) == 1
    captured = _assert_one_line_error(capsys)
    assert captured.out == ""
    assert "k must be odd and at least 3" in captured.err


@pytest.mark.parametrize("kmax", ["9", "10", "100"])
def test_cli_verify_gadgets_large_kmax_exits_1(capsys, kmax):
    # a gadget of length k has 2k vertices, above the brute-force limit
    # from k = 9 on; nothing is checked or printed first
    assert BRUTE_FORCE_VERTEX_LIMIT // 2 == 8
    assert main(["verify-gadgets", "--kmax", kmax]) == 1
    captured = _assert_one_line_error(capsys)
    assert captured.out == ""
    assert f"--kmax must be at most 8, got {kmax}" in captured.err


# ---------------------------------------------------------------------------
# fuzzed bad input: exit 1 or 2, never a traceback

_RUN = ["run", "--algo", "beats23", "--gen", "bipartite-gnp", "--n", "12", "--p", "0.3",
        "--eps", "0.2", "--beta-plus", "6", "--beta-minus", "5", "--b", "3",
        "--trials", "1", "--workers", "1"]
# values that each flag rejects, alone or (beta caps) against its partner
_BAD_VALUES = {
    "--algo": ["", "greed", "Bernstein"],
    "--gen": ["gnp", "planted"],
    "--n": ["-1", "0", "1", "x", "2.5"],
    "--p": ["-0.1", "1.5", "nan", "x"],
    "--eps": ["0", "0.5", "0.7", "-1", "nan", "x"],
    "--beta-plus": ["0", "-3", "4", "x", "inf"],
    "--beta-minus": ["7", "x"],
    "--b": ["1", "0", "-2", "x"],
    "--trials": ["0", "-1", "x"],
    "--workers": ["0", "-1", "x"],
    "--gamma": ["0", "1", "1.5", "nan"],
    "--seed": ["-1", "x"],
    "--checks": ["bogus", "edcs,,nope", "dichotomy:2", "dichotomy:x", "dichotomy:0"],
    "--format": ["xml", ""],
}
_HARD = ["hard", "--trivial", "3", "--k", "3", "--trials", "2"]
_HARD_BAD = {"--trivial": ["0", "-2", "x"], "--k": ["1", "2", "-3", "x"],
             "--trials": ["0", "x"], "--seed": ["-1", "x"]}


def _with_bad_value(rnd, argv, bad_values):
    argv = list(argv)
    flag = rnd.choice(sorted(bad_values))
    value = rnd.choice(bad_values[flag])
    if flag in argv:
        argv[argv.index(flag) + 1] = value
    else:
        argv += [flag, value]
    return argv


def _bad_argv(rnd):
    kind = rnd.randrange(5)
    if kind == 0:  # one value of a run made bad
        return _with_bad_value(rnd, _RUN, _BAD_VALUES)
    if kind == 1:  # one value of hard made bad
        return _with_bad_value(rnd, _HARD, _HARD_BAD)
    if kind == 2:  # a required flag missing, or the last flag without its value
        argv = list(rnd.choice([_RUN, _HARD]))
        if rnd.random() < 0.5:
            return argv[:rnd.randrange(1, len(argv) - 1, 2) + 1]
        i = argv.index(rnd.choice(["--algo", "--n", "--beta-plus", "--beta-minus"]
                                  if argv[0] == "run" else ["--trivial"]))
        return argv[:i] + argv[i + 2:]
    if kind == 3:  # an unknown flag or subcommand
        return rnd.choice([["runn"], [], ["run", "--bogus", "1"] + _RUN[1:],
                           ["verify-gadgets", "--bits", "3"], ["hard", "--trivial", "3", "--base"]])
    return ["verify-gadgets", "--kmax", rnd.choice(["1", "-5", "0", "x", ""])]


def _bad_edge_list(rnd):
    n, edges = 6, [(0, 3), (1, 4), (2, 5), (0, 4)]
    header = f"{n} {len(edges)}"
    lines = [f"{u} {v}" for u, v in edges]
    kind = rnd.randrange(11)
    if kind == 0:
        header = rnd.choice(["6", "6 4 bipartite", "", "six 4", "6 4 tripartite 3"])
    elif kind == 1:
        header = f"{n} {len(edges) + rnd.randint(1, 3)}"  # too few edge lines
    elif kind == 2:
        lines.append(f"{rnd.randrange(3)} {rnd.randrange(3, 6)}")  # undeclared line
    elif kind == 3:
        lines[rnd.randrange(4)] = f"{rnd.randrange(6)} {rnd.randint(6, 99)}"
    elif kind == 4:
        lines[rnd.randrange(4)] = f"-{rnd.randint(1, 5)} 3"
    elif kind == 5:
        v = rnd.randrange(6)
        lines[rnd.randrange(4)] = f"{v} {v}"
    elif kind == 6:
        lines[1] = lines[0] if rnd.random() < 0.5 else " ".join(reversed(lines[0].split()))
    elif kind == 7:
        lines[rnd.randrange(4)] = rnd.choice(["a b", "1", "1 2 3", "1.5 4"])
    elif kind == 8:
        header += rnd.choice([" bipartite 7", " bipartite -1", " bipartite 1"])
    elif kind == 9:
        return b"\xff\xfe\x00garbage"
    else:
        return b"0 0\n"  # a graph without edges
    return ("\n".join([header] + lines) + "\n").encode()


def _bad_family(rnd):
    good = {"n": 6, "left_size": 3, "edges": [[0, 3], [1, 4], [2, 5]],
            "matchings": [[[0, 3]], [[1, 4]], [[2, 5]]]}
    kind = rnd.randrange(6)
    if kind == 0:
        return json.dumps(rnd.choice([[1, 2], "family", 7, None, []]))
    if kind == 1:
        data = dict(good)
        del data[rnd.choice(sorted(good))]
        return json.dumps(data)
    if kind == 2:
        data = dict(good)
        data[rnd.choice(sorted(good))] = rnd.choice([None, "x", 5, [5], [[1, 2, 3]], {}])
        if data == good:
            data["n"] = None
        return json.dumps(data)
    if kind == 3:
        return json.dumps(dict(good, left_size=rnd.choice([7, -1]), n=rnd.choice([6, -6])))
    if kind == 4:
        return json.dumps(dict(good, matchings=rnd.choice([[], [[[0, 3], [0, 4]]], [[[0, 5]]]])))
    return json.dumps(good)[:-rnd.randint(1, 10)]  # cut short


def _exit(argv, capsys):
    """Exit code and standard error of `match-bench argv`; a SystemExit
    message, which the interpreter would print on exit, joins the error."""
    try:
        code, message = main(argv), ""
    except SystemExit as exc:  # argparse usage errors
        code, message = (1, exc.code + "\n") if isinstance(exc.code, str) else (exc.code, "")
    return code, capsys.readouterr().err + message


def test_cli_fuzzed_bad_input_exits_1_or_2_without_traceback(tmp_path, capsys):
    rnd = random.Random(20261018)
    edges_path = tmp_path / "g.edges"
    family_path = tmp_path / "family.json"
    seen = set()
    for case in range(120):
        source = case % 3
        if source == 0:
            argv = _bad_argv(rnd)
        elif source == 1:
            edges_path.write_bytes(_bad_edge_list(rnd))
            argv = ["run", "--algo", rnd.choice(["greedy", "bernstein", "beats23"]),
                    "--instance", str(edges_path), "--eps", "0.2",
                    "--beta-plus", "6", "--beta-minus", "5", "--workers", "1"]
        else:
            family_path.write_text(_bad_family(rnd))
            argv = ["hard", "--base", str(family_path), "--trials", "1"]
        code, err = _exit(argv, capsys)
        assert code in (1, 2), (argv, code)
        assert "Traceback" not in err, argv
        if code == 1:
            assert err.splitlines()[-1].startswith("match-bench"), (argv, err)
        seen.add((source, code))
    assert seen == {(0, 1), (1, 1), (2, 1)}
