"""Capacity-provisioning tests."""

import math

import pytest

from repro.errors import ConfigError, ScheduleError
from repro.hardware import ClusterSpec
from repro.pipeline import RAGPerfModel
from repro.rago.objectives import ServiceObjective
from repro.rago.provisioning import provision
from repro.schema import case_i_hyperscale, llm_only


@pytest.fixture(scope="module")
def perf_model():
    return RAGPerfModel(llm_only("8B"), ClusterSpec(num_servers=32))


def test_provision_meets_target(perf_model):
    result = provision(perf_model, target_qps=100.0)
    assert result.total_qps >= 100.0
    assert result.budget_xpus <= 128


def test_larger_target_needs_more_chips(perf_model):
    small = provision(perf_model, target_qps=50.0)
    large = provision(perf_model, target_qps=3000.0)
    assert large.budget_xpus > small.budget_xpus
    assert large.replicas >= small.replicas


def test_chip_accounting_consistent(perf_model):
    result = provision(perf_model, target_qps=500.0)
    assert result.budget_xpus == \
        result.replicas * result.perf.charged_chips
    assert result.replicas == math.ceil(result.target_qps
                                        / result.perf.qps)


def test_slo_constrains_provisioning(perf_model):
    loose = provision(perf_model, target_qps=200.0)
    tight = provision(perf_model, target_qps=200.0,
                      objective=ServiceObjective(max_ttft=0.02))
    assert tight.perf.ttft <= 0.02
    assert tight.budget_xpus >= loose.budget_xpus


def test_impossible_target_raises(perf_model):
    with pytest.raises(ScheduleError):
        provision(perf_model, target_qps=1e9)


def test_impossible_slo_raises(perf_model):
    with pytest.raises(ScheduleError):
        provision(perf_model, target_qps=10.0,
                  objective=ServiceObjective(max_ttft=1e-9))


def test_invalid_target_rejected(perf_model):
    with pytest.raises(ConfigError):
        provision(perf_model, target_qps=0)


@pytest.mark.parametrize("target", [math.nan, math.inf])
def test_non_finite_target_rejected(perf_model, target):
    """Regression: NaN and inf passed the ``<= 0`` check and crashed
    in the replica count after the whole search."""
    with pytest.raises(ConfigError, match="finite and positive"):
        provision(perf_model, target_qps=target)


def test_retrieval_workload_provisioning():
    pm = RAGPerfModel(case_i_hyperscale("8B"), ClusterSpec(num_servers=32))
    result = provision(pm, target_qps=500.0)
    assert result.total_qps >= 500.0
    # Retrieval floor: each replica carries the database's 16 hosts.
    assert result.perf.retrieval_servers >= 16
    assert result.perf.charged_chips >= 64
