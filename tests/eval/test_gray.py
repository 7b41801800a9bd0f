"""Tests for the gray-failure matrix (`repro.eval.gray`)."""

from dataclasses import asdict

import pytest

from repro import exp
from repro.eval import gray
from repro.eval.mission import run_solo


def mission(seed, **kwargs):
    """One gray mission; fully determined by its seed and parameters."""
    return gray.GrayOutcome(**run_solo(gray.gray_task(seed, **kwargs)))


def test_spec_covers_the_full_grid_with_unique_keys_and_seeds():
    spec = gray.spec(missions=2, base_seed=41_000)
    expected = (len(gray.GRAY_FTMS) * len(("cpu", "link", "disk"))
                * len(gray.GRAY_FACTORS))
    assert len(spec.trials) == expected == 12
    keys = [t.key for t in spec.trials]
    assert len(set(keys)) == expected
    for trial in spec.trials:
        assert len(set(trial.seeds)) == 2
        assert trial.params["proactive"] is True


def test_gray_task_rejects_unknown_resource():
    with pytest.raises(ValueError, match="unknown slow resource"):
        gray.gray_task(1, resource="gpu")


@pytest.mark.parametrize("requests", [gray.GRAY_WARMUP, 5])
def test_gray_task_rejects_requests_that_end_with_the_warmup(requests):
    """A mission must send requests after its limp starts."""
    with pytest.raises(ValueError, match="must exceed the warm-up"):
        gray.gray_task(1, requests=requests)


def test_mission_is_deterministic_for_a_seed():
    kwargs = dict(ftm="pbr", resource="disk", factor=8.0, requests=60)
    first = mission(41_000, **kwargs)
    second = mission(41_000, **kwargs)
    assert asdict(first) == asdict(second)
    assert first.trace_digest == second.trace_digest


def test_limping_primary_is_slow_not_dead():
    """The full-stack discrimination claim on the flagship scenario."""
    outcome = mission(41_000, ftm="pbr", resource="disk", factor=8.0)
    assert outcome.peer_suspected == 0      # never tripped the crash path
    assert outcome.detected                 # but the latency probe saw it
    assert outcome.detection_latency_ms is not None
    assert outcome.transitioned             # and the stack escaped...
    assert outcome.final_ftm == "lfr"       # ...to the limp-tolerant FTM
    assert outcome.ok == outcome.sent       # masking never broke
    assert outcome.masked


def test_lfr_rides_out_a_disk_limp_invisibly():
    """LFR never touches the disk: the limp is invisible *and* harmless."""
    outcome = mission(41_000, ftm="lfr", resource="disk", factor=8.0,
                      requests=60)
    assert not outcome.detected
    assert outcome.peer_suspected == 0
    assert outcome.ok == outcome.sent
    assert outcome.masked


def test_proactive_beats_reactive_on_the_limping_primary():
    scenario = dict(ftm="pbr", resource="disk", factor=8.0, slo_ms=10.0)
    for seed in (41_000, 41_211, 41_422):
        reactive = mission(seed, proactive=False, **scenario)
        proactive = mission(seed, proactive=True, **scenario)
        assert not reactive.detected  # no probe, no detection — only crashes
        assert proactive.detected and proactive.transitioned
        # the post-limp SLO-miss fraction: gray-failure 'downtime'
        assert (proactive.slo_misses / proactive.post_requests
                < reactive.slo_misses / reactive.post_requests), seed
        for outcome in (reactive, proactive):
            assert outcome.peer_suspected == 0, seed  # slow, not dead
            assert outcome.ok == outcome.sent, seed  # no request lost


def test_small_matrix_is_byte_identical_serial_vs_local_pool():
    grid = dict(ftms=("pbr",), resources=("disk",), factors=(8.0,),
                requests=60)
    serial = exp.run(gray.spec(missions=2, **grid), jobs=1,
                     backend="serial")
    local = exp.run(gray.spec(missions=2, **grid), jobs=2,
                    backend="local", batch=1)
    assert serial.results == local.results


def test_from_results_and_render_report_the_headlines():
    grid = dict(ftms=("pbr",), resources=("disk",), factors=(8.0,))
    result = exp.run(gray.spec(missions=2, **grid), jobs=1,
                     backend="serial")
    data = gray.from_results(result.results)
    assert gray.shape_checks(data) == []
    cell = data["cells"]["pbr|disk|x8"]
    assert cell["detected"] == 2
    assert cell["transitioned"] == 2
    assert cell["mean_detection_latency_ms"] is not None
    assert cell["final_ftms"] == ["lfr"]
    rendered = gray.render(data)
    assert "Gray-failure matrix" in rendered
    assert "pbr|disk|x8" in rendered
    assert "0 crash suspicions (must be 0)" in rendered


def _clean_cell(**overrides):
    cell = {
        "ftm": "pbr", "resource": "disk", "factor": 8.0,
        "missions": 2, "sent": 400, "ok": 400, "errors": 0,
        "detected": 2, "detection_latency_sum_ms": 500.0,
        "detection_latency_count": 2, "transitioned": 2,
        "pending_proposals": 0, "peer_suspected": 0,
        "post_requests": 360, "slo_misses": 0, "masked": 2,
        "final_ftms": ["lfr"], "trace_digests": ["a", "b"],
    }
    cell.update(overrides)
    return cell


def test_shape_checks_pass_on_clean_cells():
    data = gray.from_results({"pbr|disk|x8": _clean_cell()})
    assert gray.shape_checks(data) == []


def test_shape_checks_flag_crash_suspicion():
    data = gray.from_results({"pbr|disk|x8": _clean_cell(peer_suspected=1)})
    assert any("slow must not look dead" in p
               for p in gray.shape_checks(data))


def test_shape_checks_flag_lost_requests_and_missed_limplock():
    data = gray.from_results({
        "pbr|disk|x8": _clean_cell(ok=399, detected=1, transitioned=1),
    })
    problems = gray.shape_checks(data)
    assert any("lost requests" in p for p in problems)
    assert any("undetected" in p for p in problems)
    assert any("proactive" in p for p in problems)


def test_shape_checks_exempt_lfr_disk_and_mild_limps():
    data = gray.from_results({
        "lfr|disk|x8": _clean_cell(ftm="lfr", detected=0, transitioned=0,
                                   detection_latency_count=0,
                                   detection_latency_sum_ms=0.0,
                                   final_ftms=["lfr"]),
        "pbr|disk|x4": _clean_cell(factor=4.0, detected=0, transitioned=0,
                                   detection_latency_count=0,
                                   detection_latency_sum_ms=0.0,
                                   final_ftms=["pbr"]),
    })
    assert gray.shape_checks(data) == []


def test_shape_checks_flag_empty_matrix():
    assert gray.shape_checks(gray.from_results({})) == [
        "gray matrix ran no missions"
    ]
