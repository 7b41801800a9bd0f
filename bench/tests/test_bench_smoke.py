"""The harness end to end at smoke size, the gate's JSON line, a failing stub."""

import dataclasses
import json
import subprocess
import sys
import time

import harness
from workloads import BY_NAME


def _contract():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_smoke_runs_every_workload_and_names_every_metric(tmp_path):
    out = tmp_path / "smoke.json"
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(harness.BENCH_DIR / "run.py"), "--smoke", "--trace",
         "--out", str(out)],
        cwd=harness.ROOT, capture_output=True, text=True, timeout=180)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert elapsed < 90, f"smoke took {elapsed:.0f}s"

    contract = _contract()
    report = json.loads(out.read_text(encoding="utf-8"))
    assert set(report["fingerprint"]) >= {"cpu_count", "python", "platform", "commit",
                                          "loadavg_start", "loadavg_end"}
    for workload in contract["workloads"]:
        assert workload["name"] in proc.stdout
        result = report["workloads"][workload["name"]]
        assert result["failed"] == 0 and result["correct"], result["info"]["problems"]
        assert set(result["metrics"]) == set(harness.END_TO_END)
        assert result["metrics"]["fail_ratio"]["median"] == 0.0
        assert set(result["per_layer"]) == {m["name"] for m in contract["per_layer"]}
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert metric["name"] in proc.stdout, metric["name"]
    # the three campaign workloads share one spec and seed: one store digest
    digests = {report["workloads"][name]["info"]["store_digest"]
               for name in ("campaign_serial", "campaign_pool2", "campaign_remote2")}
    assert len(digests) == 1
    # nothing is left behind but the result file, the span files and out/ itself
    assert not list(harness.OUT.glob("tmp-*"))


def test_gate_form_ends_with_the_contracts_json_line():
    contract = _contract()
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(harness.BENCH_DIR / "run.py"), "--workload",
             "table3_transitions", "--seed", "3", "--seconds", "0", "--trace", str(trace)],
            cwd=harness.ROOT, capture_output=True, text=True, timeout=180)
        assert proc.returncode == 0, proc.stderr[-3000:]
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        assert {name: row["unit"] for name, row in last["metrics"].items()} == {
            m["name"]: m["unit"] for m in contract[section]}
        assert all(isinstance(row["value"], float) for row in last["metrics"].values())


def test_failing_program_is_a_fail_ratio_not_an_exception():
    class Stub(type(BY_NAME["table3_transitions"])):
        def argv(self, size, seed, store, fresh, workers=None):
            return [sys.executable, "-c", "import sys; sys.exit(3)"]

    fields = dataclasses.asdict(BY_NAME["table3_transitions"])
    stub = Stub(**{**fields, "name": "stub_exit3"})
    with harness.Session() as session:
        result = harness.run_workload(session, stub, seed=0, seconds=0.0, size="smoke",
                                      min_runs=1, setup_repeats=1)
    assert result["metrics"]["fail_ratio"]["median"] == 1.0
    assert result["failed"] == result["attempted"] > 0
    assert result["correct"] is False
    assert any("exit code 3" in p for p in result["info"]["problems"])


def test_missing_program_exits_non_zero(tmp_path):
    import shutil

    shutil.copytree(harness.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "campaign_serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_store_digest_ignores_manifest_meta_only(tmp_path):
    def write(root, meta, value):
        spec = root / "campaign-sharded"
        spec.mkdir(parents=True)
        (spec / "manifest.json").write_text(json.dumps(
            {"hash": "h", "fingerprint": {}, "meta": meta, "cells": {}}))
        (spec / "shard-00000-abc.json").write_text(json.dumps(
            {"cell_hash": "c", "fingerprint": {"cell": {"key": "shard-00000"}},
             "meta": {}, "values": value}))

    write(tmp_path / "a", {"backend": "serial", "elapsed_s": 1.0}, {"clean": 50})
    write(tmp_path / "b", {"backend": "local", "elapsed_s": 2.0}, {"clean": 50})
    write(tmp_path / "c", {"backend": "serial", "elapsed_s": 1.0}, {"clean": 49})
    a, b, c = (harness.store_digests(tmp_path / name) for name in "abc")
    assert a["store_digest"] == b["store_digest"] != c["store_digest"]
    assert a["results_digest"] == b["results_digest"] != c["results_digest"]
    assert a["cell_files"] == 1
