"""CPU server specification tests."""

import pytest

from repro.errors import ConfigError
from repro.hardware import EPYC_MILAN, EPYC_7R13_CALIBRATION, CPUServerSpec


def test_epyc_milan_matches_paper():
    assert EPYC_MILAN.cores == 96
    assert EPYC_MILAN.memory_bytes == pytest.approx(384e9)
    assert EPYC_MILAN.mem_bandwidth == pytest.approx(460e9)


def test_calibrated_scan_rate_is_18_gbps():
    assert EPYC_MILAN.pq_scan_rate_per_core == pytest.approx(18e9)


def test_scan_is_memory_bound_on_milan():
    # Aggregate core scan rate exceeds DRAM bandwidth, so large batches
    # are memory-bound -- the paper's ScaNN characterization.
    assert EPYC_MILAN.aggregate_scan_rate > EPYC_MILAN.effective_mem_bandwidth


def test_calibration_server_has_24_cores():
    assert EPYC_7R13_CALIBRATION.cores == 24


def test_invalid_core_count_rejected():
    with pytest.raises(ConfigError):
        CPUServerSpec(name="bad", cores=0, memory_bytes=1e9,
                      mem_bandwidth=1e9)


def test_invalid_utilization_rejected():
    with pytest.raises(ConfigError):
        CPUServerSpec(name="bad", cores=4, memory_bytes=1e9,
                      mem_bandwidth=1e9, mem_utilization=0.0)
