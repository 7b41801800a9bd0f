"""``BENCHMARK.json`` against the gate's contract and the benchmark's own tables."""

import json
import re

import harness
import trace as bench_trace
from workloads import WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def _contract():
    return json.loads((harness.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_top_level_keys_and_limits():
    contract = _contract()
    assert set(contract) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert contract["command"] == ["python3", "bench/run.py"]
    assert contract["paths"] == ["bench"]
    assert isinstance(contract["run_seconds"], int) and 1 <= contract["run_seconds"] <= 60
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    assert (harness.ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_units_and_whys():
    contract = _contract()
    names = []
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
        names.append(metric["name"])
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        names.append(metric["name"])
    for metric in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    assert all(NAME.match(name) for name in names), names
    assert len(set(names)) == len(names)


def test_contract_matches_the_benchmarks_tables():
    contract = _contract()
    assert [(w["name"], w["why"]) for w in contract["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS]
    gated = {m["name"]: (m["unit"], m["better"]) for m in contract["end_to_end"]}
    # fail_ratio is always 0 on a healthy tree, and the gate wants metrics
    # that are never 0: it travels as the JSON line's failed/attempted
    assert gated == {name: row for name, row in harness.END_TO_END.items()
                     if name != "fail_ratio"}
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])
    assert list(bench_trace.per_layer_units()) == [m["name"] for m in contract["per_layer"]]
