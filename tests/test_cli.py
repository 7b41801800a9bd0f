"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


def test_cli_info(capsys):
    assert main(["info"]) == 0
    out = capsys.readouterr().out
    assert "FTM catalog (6)" in out
    assert "scenario graph" in out


def test_cli_tables(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    assert "Table 1" in out
    assert "Figure 8" in out


def test_cli_demo(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "state survived" in out


def test_cli_requires_command():
    with pytest.raises(SystemExit):
        main([])


def _reproduce_json(capsys, tmp_path, *extra):
    argv = [
        "reproduce", "--runs", "1", "--jobs", "1",
        "--store", str(tmp_path), "--json", *extra,
    ]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_cli_reproduce_json_reports_run_config(capsys, tmp_path):
    report = _reproduce_json(capsys, tmp_path)
    assert report["runs"] == 1
    assert report["jobs"] == 1
    assert report["failures"] == []
    assert report["total_executed"] > 0
    titles = [a["title"] for a in report["artifacts"]]
    assert any("Table 3" in t for t in titles)


def test_cli_reproduce_second_run_hits_the_store(capsys, tmp_path):
    first = _reproduce_json(capsys, tmp_path)
    second = _reproduce_json(capsys, tmp_path)
    # acceptance criterion: warm store means zero trials simulated
    assert first["total_executed"] > 0
    assert second["total_executed"] == 0
    assert all(a["cached"] for a in second["artifacts"])
    assert [a["hash"] for a in first["artifacts"]] == [
        a["hash"] for a in second["artifacts"]
    ]


def test_cli_reproduce_fresh_ignores_the_store(capsys, tmp_path):
    baseline = _reproduce_json(capsys, tmp_path)
    forced = _reproduce_json(capsys, tmp_path, "--fresh")
    assert forced["total_executed"] == baseline["total_executed"] > 0


def test_cli_reproduce_resume_rejects_no_store_and_fresh(capsys, tmp_path):
    assert main(["reproduce", "--resume", "--no-store"]) == 2
    assert main(["reproduce", "--resume", "--fresh",
                 "--store", str(tmp_path)]) == 2
    capsys.readouterr()


def test_cli_reproduce_resume_reports_cached_cells(capsys, tmp_path):
    first = _reproduce_json(capsys, tmp_path)
    resumed = _reproduce_json(capsys, tmp_path, "--resume")
    assert first["total_executed"] > 0
    assert resumed["total_executed"] == 0
    assert resumed["cells_cached"] > 0
    assert resumed["cells_executed"] == 0


def test_cli_campaign_reports_wilson_cis(capsys, tmp_path):
    argv = [
        "campaign", "--missions", "4", "--cell-size", "2",
        "--requests", "8", "--jobs", "1", "--store", str(tmp_path), "--json",
    ]
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["problems"] == []
    assert report["campaign"]["missions"] == 4
    assert report["campaign"]["shards"] == 2
    low, high = report["campaign"]["exactly_once_ci95"]
    assert 0.0 <= low <= high <= 1.0
    # a second invocation streams everything from the store
    assert main(argv) == 0
    cached = json.loads(capsys.readouterr().out)
    assert cached["trials_executed"] == 0
    assert cached["campaign"] == report["campaign"]


def test_cli_campaign_two_jobs_matches_sequential(capsys, tmp_path):
    base = [
        "campaign", "--missions", "6", "--cell-size", "3", "--requests", "6",
        "--no-store", "--json",
    ]
    assert main(base + ["--jobs", "1"]) == 0
    sequential = json.loads(capsys.readouterr().out)
    assert main(base + ["--jobs", "2"]) == 0
    parallel = json.loads(capsys.readouterr().out)
    assert parallel["campaign"] == sequential["campaign"]
    assert parallel["jobs"] == 2
    assert sequential["jobs"] == 1


def test_cli_profile_prints_hot_spots(capsys):
    assert main(["profile", "table3", "--top", "5"]) == 0
    captured = capsys.readouterr()
    assert "function calls" in captured.out
    assert "cumulative" in captured.out
    assert "profiling spec 'table3'" in captured.err
    assert "units/s" in captured.err


def test_cli_profile_campaign_reports_event_sources(capsys):
    assert main([
        "profile", "campaign", "--missions", "4",
        "--requests", "3", "--top", "3",
    ]) == 0
    captured = capsys.readouterr()
    assert "events by source" in captured.err
    assert "units/s" in captured.err
    assert "function calls" in captured.out


class _Built(Exception):
    """Raised by the stubbed runner once a command has built its spec."""


@pytest.mark.parametrize("argv", [
    ["campaign"],
    ["gray-matrix", "--requests", "21"],
    ["transition-matrix", "--smoke"],
], ids=lambda argv: argv[0])
def test_cli_profile_builds_the_spec_its_command_runs(monkeypatch, argv):
    from repro import exp

    hashes = []

    def built(spec, **_how):
        hashes.append(exp.spec_hash(spec))
        raise _Built

    monkeypatch.setattr(exp, "run", built)
    with pytest.raises(_Built):
        main(argv + ["--no-store"])
    with pytest.raises(_Built):
        main(["profile"] + argv)
    assert len(hashes) == 2 and hashes[0] == hashes[1]


def test_cli_profile_rejects_unknown_spec(capsys):
    with pytest.raises(SystemExit):
        main(["profile", "nonsense"])
    capsys.readouterr()


def test_cli_store_list_gc_clear(capsys, tmp_path):
    _reproduce_json(capsys, tmp_path)
    assert main(["store", "--store", str(tmp_path)]) == 0
    listing = capsys.readouterr().out
    assert "table3" in listing and "cells" in listing
    assert main(["store", "--gc", "--store", str(tmp_path)]) == 0
    assert "gc: removed 0" in capsys.readouterr().out
    assert main(["store", "--clear", "--store", str(tmp_path)]) == 0
    assert "removed" in capsys.readouterr().out
    assert main(["store", "--store", str(tmp_path)]) == 0
    assert "empty" in capsys.readouterr().out


def test_cli_reproduce_seed_changes_results(capsys, tmp_path):
    base = _reproduce_json(capsys, tmp_path)
    shifted = _reproduce_json(capsys, tmp_path, "--seed", "1")
    # a different base seed must re-simulate under different spec hashes
    assert shifted["total_executed"] > 0
    assert [a["hash"] for a in base["artifacts"]] != [
        a["hash"] for a in shifted["artifacts"]
    ]


@pytest.mark.parametrize("argv, reason", [
    (["campaign", "--backend", "remote", "--wire", "digest"], "workers"),
    (["gray-matrix", "--workers", "nonsense"], "host:port"),
    (["gray-matrix", "--workers", "127.0.0.1:1,127.0.0.1:2"], "died"),
    (["campaign", "--missions", "2", "--workers", "127.0.0.1:0"], "port 0"),
])
def test_cli_experiment_errors_exit_2_without_a_traceback(
        capsys, monkeypatch, argv, reason):
    from repro.exp import distributed

    monkeypatch.setattr(distributed, "CONNECT_ATTEMPTS", 1)
    assert main(argv + ["--no-store"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and reason in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["gray-matrix", "--factors", "abc"],
    ["gray-matrix", "--ftms", "bogus"],
    ["campaign", "--wire", "full"],
    ["campaign", "--backend", "serial", "--workers", "127.0.0.1:1"],
    ["campaign", "--backend", "local", "--workers", "127.0.0.1:1"],
    ["gray-matrix", "--backend", "serial", "--workers", "127.0.0.1:1"],
    ["gray-matrix", "--resources", "bogus"],
    ["gray-matrix", "--factors", "0.5"],
    ["gray-matrix", "--factors", "inf"],
    ["gray-matrix", "--ftms", ","],
    ["gray-matrix", "--slo-ms", "nan"],
    ["gray-matrix", "--slo-ms", "0"],
    ["gray-matrix", "--slo-ms", "-5"],
    ["bench", "--report"],
    ["profile", "table3", "--missions", "3"],
    ["gray-matrix", "--requests", "20"],
])
def test_cli_malformed_flags_are_usage_errors(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv + ["--no-store"])
    assert exit_info.value.code == 2
    assert "usage: repro" in capsys.readouterr().err
