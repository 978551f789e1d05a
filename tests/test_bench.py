import json
import multiprocessing
import os
import pickle
import random
from concurrent.futures import ProcessPoolExecutor
from functools import partial

import pytest

from streammatch import (
    CheckConfig,
    GeneratorSpec,
    TrialConfig,
    canonical_hash,
    emit_report,
    params_with_betas,
    report_from_dict,
    report_to_dict,
    run_trials,
)
from streammatch.bench import trial_seeds
from streammatch.cli import main


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
    import streammatch

    g = streammatch.Graph(20, [(2 * i, 2 * i + 1) for i in range(10)])
    path = tmp_path / "pm.edges"
    streammatch.write_edge_list(g, path)
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


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records what a real pool would
    be sent, then runs the initializer and the mapped calls in this
    process."""

    def __init__(self, made, max_workers, initializer, initargs):
        self.max_workers = max_workers
        self.initializer, self.initargs = initializer, initargs
        made.append(self)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        self.fn, self.items = fn, list(iterable)
        self.initializer(*self.initargs)
        return map(fn, self.items)


@pytest.mark.parametrize("max_workers, trials, pool_workers", [(2, 10, 2), (8, 3, 3), (8, 1, None)])
def test_pool_ships_instance_once_and_maps_indices(max_workers, trials, pool_workers, monkeypatch):
    import streammatch.bench as bench

    pools = []
    monkeypatch.setattr(bench, "ProcessPoolExecutor", partial(_RecordingPool, pools))
    monkeypatch.setattr(bench, "_worker_instance", None)
    cfg = _config(trials=trials, checks=CheckConfig(edcs=True))
    report = run_trials(cfg, max_workers=max_workers)
    if pool_workers is None:  # one trial runs in this process, no pool
        assert pools == []
    else:
        (pool,) = pools
        assert pool.max_workers == pool_workers
        assert len(pickle.dumps(pool.fn)) < 1024  # by reference, not with the graph
        assert all(type(i) is int for i in pool.items)
        assert pool.items == list(range(trials))
    assert canonical_hash(report) == canonical_hash(run_trials(cfg, max_workers=1))


def test_bernstein_records_have_sparsifier_sizes():
    report = run_trials(_config(algo="bernstein", trials=2), max_workers=1)
    for r in report.records:
        assert r.h_size is not None and r.u_size is not None
        assert r.mu_hu == r.output_size
        assert r.t_size is None and r.path_hist is None


# ---------------------------------------------------------------------------
# reports


def test_json_round_trip(tmp_path):
    report = run_trials(_config(trials=2), max_workers=1)
    path = tmp_path / "report.json"
    emit_report(report, "json", path)
    loaded = report_from_dict(json.loads(path.read_text()))
    assert loaded == report


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
    payload = report_to_dict(report)
    for rec in payload["records"]:
        rec["wall_time"] = 123.456
    assert canonical_hash(report_from_dict(payload)) == canonical_hash(report)


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


def test_cli_hard_trivial(capsys):
    assert main(["hard", "--trivial", "6", "--k", "3", "--trials", "5", "--seed", "2"]) == 0
    assert "0 violations" in capsys.readouterr().out


def test_cli_operational_error_exit_code(tmp_path, capsys):
    code = main(["run", "--algo", "beats23", "--instance", str(tmp_path / "nope.edges"),
                 "--eps", "0.1", "--trials", "1", "--workers", "1"])
    assert code == 1
    assert "error" in capsys.readouterr().err


def _assert_one_line_error(capsys):
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    assert captured.err.startswith("match-bench: error:") and captured.err.count("\n") == 1
    return captured


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


def _forked_pool(monkeypatch):
    # forked workers inherit this process's monkeypatches
    import streammatch.bench as bench

    fork = multiprocessing.get_context("fork")
    monkeypatch.setattr(bench, "ProcessPoolExecutor", partial(ProcessPoolExecutor, mp_context=fork))


def test_cli_safety_cap_in_pool_worker_exits_1(monkeypatch, capsys):
    import streammatch.sparsifier as sparsifier

    _forked_pool(monkeypatch)
    monkeypatch.setattr(sparsifier, "default_u_cap", lambda n: 0)
    code = main([
        "run", "--algo", "bernstein", "--gen", "bipartite-gnp", "--n", "20", "--p", "0.3",
        "--eps", "0.2", "--beta-plus", "10", "--beta-minus", "9",
        "--workers", "2", "--trials", "2",
    ])
    assert code == 1
    assert "safety cap" in _assert_one_line_error(capsys).err


def _die(*args):
    os._exit(3)


def test_cli_broken_pool_exits_1(monkeypatch, capsys):
    import streammatch.bench as bench

    _forked_pool(monkeypatch)
    monkeypatch.setattr(bench, "_init_worker", _die)
    code = main(["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3",
                 "--workers", "2", "--trials", "4"])
    assert code == 1
    _assert_one_line_error(capsys)


def test_cli_extra_edge_lines_exit_1(tmp_path, capsys):
    path = tmp_path / "g.edges"
    path.write_text("4 2\n0 1\n2 3\n1 2\n")
    assert main(["run", "--algo", "greedy", "--instance", str(path), "--workers", "1"]) == 1
    _assert_one_line_error(capsys)


def test_worker_env_cap(monkeypatch):
    from streammatch.bench import resolve_workers

    monkeypatch.setenv("MATCH_BENCH_THREADS", "3")
    assert resolve_workers() == 3
    assert resolve_workers(max_workers=5) == 5
    monkeypatch.delenv("MATCH_BENCH_THREADS")
    assert resolve_workers() >= 1


def test_cli_zero_worker_env_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("MATCH_BENCH_THREADS", "0")
    argv = ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3"]
    assert main(argv) == 1
    _assert_one_line_error(capsys)


def test_cli_non_integer_worker_env_exits_1(monkeypatch, capsys):
    monkeypatch.setenv("MATCH_BENCH_THREADS", "x")
    argv = ["run", "--algo", "greedy", "--gen", "bipartite-gnp", "--n", "10", "--p", "0.3"]
    assert main(argv) == 1
    assert "MATCH_BENCH_THREADS" in _assert_one_line_error(capsys).err


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
    "--beta-plus": ["0", "-3", "4", "x"],
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
                    "--instance", str(edges_path), "--eps", "0.2", "--workers", "1"]
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
