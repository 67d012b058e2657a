"""Pluggable dispatch/admission policies for the serving DES."""

import pytest

from repro.errors import ConfigError
from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim import (
    DeadlineFlushPolicy,
    FullBatchPolicy,
    GreedyAdmission,
    ServingSimulator,
    SizeCappedPolicy,
    TokenBudgetAdmission,
)
from repro.sim.policies import (
    resolve_admission_policy,
    resolve_dispatch_policy,
)
from repro.workloads import poisson_trace, trace_from_arrivals


@pytest.fixture(scope="module")
def setup():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )
    return pm, schedule


@pytest.fixture(scope="module")
def trace():
    return poisson_trace(100, 3.0, seed=3)


# -- policy decision logic (unit level) ---------------------------------


def test_deadline_flush_take():
    policy = DeadlineFlushPolicy(max_wait=1.0)
    assert policy.take(queued=4, batch_size=4, waited=0.0) == 4
    assert policy.take(queued=2, batch_size=4, waited=0.5) == 0
    assert policy.take(queued=2, batch_size=4, waited=1.0) == 2
    assert policy.take(queued=9, batch_size=4, waited=0.0) == 4
    assert policy.flush_delay(waited=0.25) == pytest.approx(0.75)


def test_full_batch_never_flushes():
    policy = FullBatchPolicy()
    assert policy.take(queued=3, batch_size=4, waited=1e9) == 0
    assert policy.take(queued=4, batch_size=4, waited=0.0) == 4
    assert policy.flush_delay(waited=1e9) is None
    # resolve() leaves it deadline-free
    assert policy.resolve(0.5).flush_delay(waited=1.0) is None


def test_size_capped_take():
    policy = SizeCappedPolicy(cap=2, max_wait=1.0)
    assert policy.take(queued=2, batch_size=8, waited=0.0) == 2
    assert policy.take(queued=1, batch_size=8, waited=0.0) == 0
    assert policy.take(queued=1, batch_size=8, waited=1.0) == 1
    assert policy.flush_take(queued=7, batch_size=8) == 2


def test_policy_validation():
    with pytest.raises(ConfigError):
        DeadlineFlushPolicy(max_wait=-1.0)
    with pytest.raises(ConfigError):
        SizeCappedPolicy(cap=0)
    with pytest.raises(ConfigError):
        TokenBudgetAdmission(max_tokens=0)


def test_admission_decisions():
    greedy = GreedyAdmission()
    assert greedy.admit([64, 64, 64], [10], capacity=2) == 1
    assert greedy.admit([64], [10, 10], capacity=2) == 0
    budget = TokenBudgetAdmission(max_tokens=100)
    assert budget.admit([40, 40, 40], [], capacity=8) == 2
    assert budget.admit([40], [90], capacity=8) == 0
    assert budget.admit([40, 40], [10], capacity=2) == 1  # slot-capped


def test_registry_resolution():
    assert isinstance(resolve_dispatch_policy(None), DeadlineFlushPolicy)
    assert isinstance(resolve_dispatch_policy("full-batch"),
                      FullBatchPolicy)
    policy = SizeCappedPolicy(cap=4)
    assert resolve_dispatch_policy(policy) is policy
    assert isinstance(resolve_admission_policy("greedy"), GreedyAdmission)
    with pytest.raises(ConfigError):
        resolve_dispatch_policy("bogus")
    with pytest.raises(ConfigError):
        resolve_admission_policy("bogus")


# -- behavior in the simulator ------------------------------------------


def test_default_policy_is_deadline_flush(setup, trace):
    pm, schedule = setup
    implicit = ServingSimulator(pm, schedule).run(trace)
    explicit = ServingSimulator(pm, schedule,
                                dispatch=DeadlineFlushPolicy()).run(trace)
    assert implicit == explicit


def test_full_batch_strands_the_tail(setup, trace):
    pm, schedule = setup
    report = ServingSimulator(pm, schedule, dispatch="full-batch").run(trace)
    stranded = report.offered - report.completed
    assert 0 < stranded < schedule.batches[Stage.PREFIX]
    assert report.completed % schedule.batches[Stage.PREFIX] == 0


def test_size_capped_cuts_batching_delay(setup, trace):
    pm, schedule = setup
    capped = ServingSimulator(pm, schedule,
                              dispatch=SizeCappedPolicy(cap=8)).run(trace)
    default = ServingSimulator(pm, schedule).run(trace)
    assert capped.ttft["mean"] < default.ttft["mean"]


def test_per_stage_dispatch_mapping(setup, trace):
    pm, schedule = setup
    mixed = ServingSimulator(
        pm, schedule,
        dispatch={Stage.PREFIX: SizeCappedPolicy(cap=8)}).run(trace)
    default = ServingSimulator(pm, schedule).run(trace)
    # Retrieval (unmapped) keeps its default queueing; prefix speeds up.
    assert mixed.queueing["prefix"]["mean_wait"] \
        < default.queueing["prefix"]["mean_wait"]
    assert mixed.completed == mixed.offered


def test_token_budget_admission_throttles_decode(setup, trace):
    pm, schedule = setup
    throttled = ServingSimulator(
        pm, schedule,
        admission=TokenBudgetAdmission(max_tokens=4096)).run(trace)
    default = ServingSimulator(pm, schedule).run(trace)
    assert throttled.completed == throttled.offered
    assert throttled.queueing["decode"]["mean_wait"] \
        > default.queueing["decode"]["mean_wait"]


def test_unknown_policy_name_rejected_at_build(setup):
    pm, schedule = setup
    with pytest.raises(ConfigError):
        ServingSimulator(pm, schedule, dispatch="warp-speed")
    with pytest.raises(ConfigError):
        ServingSimulator(pm, schedule, admission="warp-speed")


def test_token_budget_oversized_request_fails_loudly(setup):
    """A decode length that can never fit the budget must raise, not
    silently wedge the executor and strand the queue behind it."""
    pm, schedule = setup
    sim = ServingSimulator(pm, schedule,
                           admission=TokenBudgetAdmission(max_tokens=256))
    with pytest.raises(ConfigError, match="token budget"):
        sim.run(trace_from_arrivals([0.0, 0.1], decode_lens=[512, 8]))


# ---------------------------------------------------------------------------
# Parameterized admission specs: the `--admission token-budget=<int>`
# front-end syntax and its --json round trip.
# ---------------------------------------------------------------------------


def test_parse_admission_policy_names_and_values():
    from repro.sim.policies import (
        GreedyAdmission,
        admission_spec,
        parse_admission_policy,
    )

    assert parse_admission_policy(None) == GreedyAdmission()
    assert parse_admission_policy("greedy") == GreedyAdmission()
    budget = parse_admission_policy("token-budget=4096")
    assert budget == TokenBudgetAdmission(max_tokens=4096)
    # Instances pass through untouched.
    assert parse_admission_policy(budget) is budget
    # The spec spelling round-trips exactly.
    for policy in (GreedyAdmission(), TokenBudgetAdmission(max_tokens=7)):
        assert parse_admission_policy(admission_spec(policy)) == policy


def test_parse_admission_policy_rejects_malformed_specs():
    from repro.sim.policies import parse_admission_policy

    with pytest.raises(ConfigError, match="needs a budget"):
        parse_admission_policy("token-budget")
    with pytest.raises(ConfigError, match="token-budget=<int>"):
        parse_admission_policy("token-budget=lots")
    with pytest.raises(ConfigError, match="token-budget=<int>"):
        parse_admission_policy("token-budget=")
    with pytest.raises(ConfigError, match="takes no value"):
        parse_admission_policy("greedy=3")
    with pytest.raises(ConfigError, match="unknown admission"):
        parse_admission_policy("bogus")
    with pytest.raises(ConfigError, match="unknown admission"):
        parse_admission_policy("bogus=3")
    # A non-positive budget fails the policy's own validation.
    with pytest.raises(ConfigError, match="positive"):
        parse_admission_policy("token-budget=0")
