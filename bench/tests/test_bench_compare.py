"""``compare.py``: bounds per row, unresolved rows, refusal across hosts."""

import copy

import compare
import harness


def _row(values, unit="units/s", better="higher"):
    row = harness.summarise(values)
    row.update(unit=unit, better=better)
    return row


def _report(units_per_s, fail_ratio=0.0):
    metrics = {
        "units_per_s": _row(units_per_s),
        "cpu_ms_per_unit": _row([10.0, 10.1, 10.2], "ms", "lower"),
        "peak_rss_mb": _row([26.0, 26.0, 26.1], "MB", "lower"),
        "setup_s": _row([0.50, 0.52, 0.51], "s", "lower"),
        "fail_ratio": _row([fail_ratio], "ratio", "lower"),
    }
    return {"schema": 1, "seed": 0, "mode": "full",
            "fingerprint": {"cpu_count": 2, "python": "3.11.7", "platform": "Linux-x86_64",
                            "commit": "abc", "loadavg_start": 0.1, "loadavg_end": 0.2},
            "workloads": {"campaign_serial": {"metrics": metrics}}}


def _verdicts(a, b):
    lines, regressions = compare.compare(a, b)
    return {line.split()[1]: line.split()[-1] for line in lines[3:]}, regressions


def test_same_numbers_are_ok():
    verdicts, regressions = _verdicts(_report([100, 101, 102]), _report([100, 101, 102]))
    assert regressions == 0 and set(verdicts.values()) == {"ok"}


def test_regression_beyond_the_row_bound():
    verdicts, regressions = _verdicts(_report([100, 101, 102]), _report([90, 91, 92]))
    assert verdicts["units_per_s"] == "REGRESSION" and regressions == 1
    # 8% on a one-process workload: -5% passes
    verdicts, regressions = _verdicts(_report([100, 101, 102]), _report([95, 96, 97]))
    assert verdicts["units_per_s"] == "ok" and regressions == 0


def test_wide_base_spread_is_unresolved_unless_every_run_is_better():
    noisy = _report([80, 100, 120])
    verdicts, regressions = _verdicts(noisy, _report([85, 90, 95]))
    assert verdicts["units_per_s"] == "unresolved" and regressions == 0
    verdicts, _ = _verdicts(noisy, _report([130, 131, 132]))
    assert verdicts["units_per_s"] == "ok"


def test_any_failure_increase_regresses():
    verdicts, regressions = _verdicts(_report([100, 101, 102]),
                                      _report([100, 101, 102], fail_ratio=0.01))
    assert verdicts["fail_ratio"] == "REGRESSION" and regressions == 1


def test_setup_bound_is_at_least_half_a_second():
    share, _label = compare.bound_for("setup_s", "campaign_serial", 0.5)
    assert share == 1.0
    share, _label = compare.bound_for("setup_s", "store_replay", 10.0)
    assert share == 0.20


def test_other_host_is_refused(tmp_path, capsys):
    import json

    a = _report([100, 101, 102])
    b = copy.deepcopy(a)
    b["fingerprint"]["cpu_count"] = 64
    assert "cpu_count" in compare.check_comparable(a, b)
    paths = []
    for name, report in (("a.json", a), ("b.json", b)):
        path = tmp_path / name
        path.write_text(json.dumps(report))
        paths.append(str(path))
    assert compare.main(paths) == 2
    assert "refused" in capsys.readouterr().err
