"""The transition-survival matrix: cells, grid plumbing, shape checks."""

from repro import exp
from repro.eval import transition_matrix
from repro.kernel import run_solo


def test_fault_free_cell_survives_cleanly():
    cell = run_solo(transition_matrix.cell_task(7001, "pbr", "lfr", "none"))
    assert cell["status"] == "S"
    assert cell["outcome"] == "success"
    assert cell["all_ok"] and cell["exactly_once"]
    assert cell["converged"]
    assert cell["final_ftm"] == "lfr"
    assert cell["faults_injected"] == 0


def test_fetch_corrupt_cell_detects_and_survives():
    cell = run_solo(transition_matrix.cell_task(7002, "pbr", "lfr", "fetch/corrupt"))
    assert "!" not in cell["status"]
    assert cell["faults_injected"] > 0
    assert cell["corrupt_detected"] > 0  # checksum caught the tampered chunk
    assert cell["converged"]


def test_script_crash_cell_rolls_back_and_recovers():
    cell = run_solo(transition_matrix.cell_task(7003, "pbr", "lfr", "script/crash"))
    assert cell["status"] == "R"
    assert cell["rolled_back"]
    assert cell["converged"]  # quarantine/recovery brought the replica back
    assert cell["replicas_alive"] == 2


def test_smoke_grid_runs_green_end_to_end():
    spec = transition_matrix.spec(runs=1, base_seed=7100, smoke=True)
    result = exp.run(spec, jobs=1, store=None)
    data = transition_matrix.from_results(result.results)
    assert data["transitions"] == ["pbr->lfr"]
    assert data["faults"] == [f for f in transition_matrix.FAULT_LABELS
                              if f in transition_matrix.SMOKE_LABELS]
    assert transition_matrix.shape_checks(data) == []
    rendered = transition_matrix.render(data)
    assert "Transition-survival matrix" in rendered
    assert "pbr->lfr" in rendered
    assert "!" not in rendered.split("=requests lost")[0].split("S=survived")[0]


def test_full_spec_covers_every_cell():
    spec = transition_matrix.spec(runs=2, base_seed=7000)
    expected = len(transition_matrix.TRANSITIONS) * len(
        transition_matrix.FAULT_LABELS
    )
    assert len(spec.trials) == expected
    for trial in spec.trials:
        assert len(trial.seeds) == 2
        assert len(set(trial.seeds)) == 2
    # seeds differ across cells so runs aren't accidentally correlated
    assert len({t.seeds for t in spec.trials}) == expected


def test_hash_label_is_deterministic_across_calls():
    assert (transition_matrix.hash_label("pbr->lfr|none")
            == transition_matrix.hash_label("pbr->lfr|none"))
    assert (transition_matrix.hash_label("pbr->lfr|none")
            != transition_matrix.hash_label("pbr->lfr|fetch/crash"))


def test_shape_checks_flag_lost_requests():
    raw = run_solo(transition_matrix.cell_task(7001, "pbr", "lfr", "none"))
    raw["status"] = "S!"
    raw["all_ok"] = False
    data = transition_matrix.from_results({"pbr->lfr|none": [raw]})
    problems = transition_matrix.shape_checks(data)
    assert any("lost/duplicated" in p for p in problems)
    assert any("not clean" in p for p in problems)
