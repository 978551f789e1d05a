import json

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
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("match-bench: error:") and err.count("\n") == 1


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


def test_cli_safety_cap_exits_1_without_traceback(monkeypatch, capsys):
    import streammatch.augmenter as augmenter

    monkeypatch.setattr(augmenter, "default_u_cap", lambda n: 0)
    code = main([
        "run", "--algo", "beats23", "--gen", "bipartite-gnp", "--n", "20", "--p", "0.3",
        "--eps", "0.2", "--beta-plus", "10", "--beta-minus", "9", "--workers", "1",
    ])
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
