"""Energy-model tests."""

import pytest

from repro import ClusterSpec, OptimizerSession
from repro.errors import ConfigError
from repro.hardware.power import EnergyEstimate, PowerProfile, estimate_energy
from repro.schema import case_i_hyperscale


@pytest.fixture(scope="module")
def frontier():
    return OptimizerSession(case_i_hyperscale("8B"),
                            ClusterSpec(num_servers=32)).optimize().frontier


def test_energy_positive(frontier):
    estimate = estimate_energy(frontier[-1])
    assert estimate.watts > 0
    assert estimate.joules_per_request > 0
    assert estimate.requests_per_kwh > 0


def test_joules_and_kwh_consistent(frontier):
    estimate = estimate_energy(frontier[-1])
    assert estimate.requests_per_kwh == pytest.approx(
        3.6e6 / estimate.joules_per_request)


def test_throughput_end_is_more_energy_efficient(frontier):
    # The latency end burns many chips for few requests.
    low_qps = estimate_energy(frontier[0])
    high_qps = estimate_energy(frontier[-1])
    assert high_qps.joules_per_request <= low_qps.joules_per_request


def test_idle_chips_draw_partial_power(frontier):
    perf = frontier[-1]
    full = estimate_energy(perf, PowerProfile(idle_fraction=1.0))
    none = estimate_energy(perf, PowerProfile(idle_fraction=0.0))
    assert full.watts >= none.watts


def test_profile_validation():
    with pytest.raises(ConfigError):
        PowerProfile(xpu_watts=0)
    with pytest.raises(ConfigError):
        PowerProfile(idle_fraction=1.5)


def test_energy_scales_with_power_draw(frontier):
    perf = frontier[-1]
    base = estimate_energy(perf, PowerProfile(xpu_watts=100,
                                              server_watts=100,
                                              idle_fraction=0.0))
    double = estimate_energy(perf, PowerProfile(xpu_watts=200,
                                                server_watts=200,
                                                idle_fraction=0.0))
    assert double.watts == pytest.approx(2 * base.watts)
