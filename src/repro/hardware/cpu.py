"""CPU server specifications used for retrieval.

The paper's host servers are modelled after AMD EPYC Milan processors with
96 cores, 384 GB of memory and 460 GB/s of memory bandwidth (§4). The
retrieval model additionally needs the per-core product-quantization scan
throughput, which the paper calibrates at 18 GB/s per core on an AMD EPYC
7R13 with roughly 80% memory-bandwidth utilization.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.units import gb, gb_per_s


@dataclass(frozen=True)
class CPUServerSpec:
    """Specification of one retrieval host server.

    Attributes:
        name: Human-readable identifier.
        cores: Number of physical cores available for query scan threads.
        memory_bytes: Host DRAM capacity in bytes (bounds the database
            shard each server can hold).
        mem_bandwidth: Peak DRAM bandwidth in bytes/s.
        pq_scan_rate_per_core: Calibrated per-core PQ-code scan throughput
            in bytes/s (18 GB/s in the paper's ScaNN measurement).
        mem_utilization: Fraction of peak DRAM bandwidth achievable by the
            scan workload (~0.8 in the paper's measurement).
    """

    name: str
    cores: int
    memory_bytes: float
    mem_bandwidth: float
    pq_scan_rate_per_core: float = gb_per_s(18)
    mem_utilization: float = 0.8

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ConfigError(f"{self.name}: cores must be positive")
        if self.memory_bytes <= 0:
            raise ConfigError(f"{self.name}: memory_bytes must be positive")
        if self.mem_bandwidth <= 0:
            raise ConfigError(f"{self.name}: mem_bandwidth must be positive")
        if self.pq_scan_rate_per_core <= 0:
            raise ConfigError(
                f"{self.name}: pq_scan_rate_per_core must be positive"
            )
        if not 0 < self.mem_utilization <= 1:
            raise ConfigError(f"{self.name}: mem_utilization must be in (0, 1]")

    @property
    def effective_mem_bandwidth(self) -> float:
        """Achievable bytes/s of DRAM scan traffic for the whole server."""
        return self.mem_bandwidth * self.mem_utilization

    @property
    def aggregate_scan_rate(self) -> float:
        """Compute-side scan throughput with every core busy (bytes/s).

        The effective server scan rate is the min of this and
        :attr:`effective_mem_bandwidth`; ScaNN-style low-precision PQ is
        memory-bound on this server (aggregate core rate exceeds DRAM
        bandwidth), matching the paper's characterization.
        """
        return self.cores * self.pq_scan_rate_per_core


EPYC_MILAN = CPUServerSpec(
    name="EPYC-Milan",
    cores=96,
    memory_bytes=gb(384),
    mem_bandwidth=gb_per_s(460),
)

#: The smaller instance the paper used to calibrate ScaNN scan throughput.
EPYC_7R13_CALIBRATION = CPUServerSpec(
    name="EPYC-7R13",
    cores=24,
    memory_bytes=gb(192),
    mem_bandwidth=gb_per_s(540),
)
