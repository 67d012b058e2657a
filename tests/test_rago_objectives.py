"""Objective-selection and cost-model tests."""

import pytest

from repro import ClusterSpec, OptimizerSession
from repro.errors import ConfigError, ScheduleError
from repro.rago import (
    PriceBook,
    ServiceObjective,
    cheapest_point,
    estimate_cost,
    knee_point,
    select_max_throughput,
    select_min_ttft,
)
from repro.schema import case_i_hyperscale


@pytest.fixture(scope="module")
def result():
    return OptimizerSession(case_i_hyperscale("8B"),
                            ClusterSpec(num_servers=32)).optimize()


def test_unconstrained_max_throughput_is_frontier_max(result):
    perf = select_max_throughput(result, ServiceObjective())
    assert perf.qps_per_chip == result.max_qps_per_chip.qps_per_chip


def test_ttft_slo_limits_selection(result):
    slo = ServiceObjective(max_ttft=0.05)
    perf = select_max_throughput(result, slo)
    assert perf.ttft <= 0.05
    assert perf.qps_per_chip <= result.max_qps_per_chip.qps_per_chip


def test_impossible_slo_raises(result):
    with pytest.raises(ScheduleError):
        select_max_throughput(result, ServiceObjective(max_ttft=1e-9))


def test_min_ttft_with_throughput_floor(result):
    floor = result.max_qps_per_chip.qps_per_chip * 0.5
    perf = select_min_ttft(result,
                           ServiceObjective(min_qps_per_chip=floor))
    assert perf.qps_per_chip >= floor
    assert perf.ttft >= result.min_ttft.ttft


def test_knee_point_is_on_frontier(result):
    knee = knee_point(result)
    assert knee in result.frontier


def test_objective_validation():
    with pytest.raises(ConfigError):
        ServiceObjective(max_ttft=0)
    # Regression: NaN passed the old ``value <= 0`` check.
    for name in ("max_ttft", "max_tpot", "min_qps_per_chip"):
        for value in (float("nan"), float("inf")):
            with pytest.raises(ConfigError, match=f"^{name} must be finite "
                               f"and positive when set, got {value}$"):
                ServiceObjective(**{name: value})


def test_tpot_slo(result):
    perf = select_max_throughput(result, ServiceObjective(max_tpot=1.0))
    assert perf.tpot <= 1.0


class TestCostModel:
    def test_estimate_positive(self, result):
        estimate = estimate_cost(result.max_qps_per_chip)
        assert estimate.dollars_per_hour > 0
        assert estimate.dollars_per_million_requests > 0

    def test_cost_scales_with_prices(self, result):
        cheap = estimate_cost(result.max_qps_per_chip,
                              PriceBook(xpu_hour=1.0, server_hour=1.0))
        pricey = estimate_cost(result.max_qps_per_chip,
                               PriceBook(xpu_hour=10.0, server_hour=10.0))
        assert pricey.dollars_per_hour == pytest.approx(
            10 * cheap.dollars_per_hour)

    def test_cheapest_point_minimizes(self, result):
        best = cheapest_point(result)
        for perf in result.frontier:
            if perf.qps > 0:
                other = estimate_cost(perf)
                assert best.dollars_per_million_requests <= \
                    other.dollars_per_million_requests + 1e-12

    def test_invalid_prices(self):
        with pytest.raises(ConfigError):
            PriceBook(xpu_hour=0)

    def test_charged_chips_priced(self, result):
        # Cost must cover the database hosts even for tiny allocations.
        perf = result.frontier[0]
        estimate = estimate_cost(perf)
        floor = perf.charged_chips * PriceBook().xpu_hour
        assert estimate.dollars_per_hour >= floor
