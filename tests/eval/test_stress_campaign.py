"""Opt-in stress campaigns (``pytest -m stress``) — excluded from tier-1.

These back the statistical claims with enough missions that the Wilson
95% intervals become tight: across a thousand randomised missions with
crashes, transient value faults, and on-line transitions, no request is
ever lost or duplicated and the deployed FTM masks what its fault model
covers.
"""

import pytest

from repro import exp
from repro.eval import campaign, transition_matrix


@pytest.mark.stress
def test_thousand_mission_campaign_is_clean_with_tight_cis():
    spec = campaign.sharded_spec(missions=1000, base_seed=5000)
    result = exp.run(spec, jobs=exp.default_jobs(), store=None)
    data = campaign.from_shard_results(result.results)

    assert campaign.shard_shape_checks(data) == []
    assert data["clean_missions"] == data["missions"] == 1000

    low, high = data["exactly_once_ci95"]
    assert data["exactly_once_rate"] == 1.0
    assert high == 1.0
    # 1000/1000 successes: the Wilson lower bound passes 0.996
    assert low > 0.996

    # masking is statistical (crashes can pre-empt a shot) but the CI
    # must sit well above the 0.5 floor the shape check enforces
    m_low, _m_high = data["masking_ci95"]
    assert data["total_injected"] > 500
    assert m_low > 0.5


@pytest.mark.stress
def test_full_matrix_many_seeds_never_loses_requests():
    spec = transition_matrix.spec(runs=10, base_seed=7000)
    result = exp.run(spec, jobs=exp.default_jobs(), store=None)
    data = transition_matrix.from_results(result.results)
    assert transition_matrix.shape_checks(data) == []
