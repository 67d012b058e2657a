"""Heterogeneous accelerator selection (resource-*type* allocation).

RAGO's resource allocation assigns "the type and quantity of resources
to each component" (§1). The main search fixes one XPU generation for
the whole pipeline; this extension explores *split-generation* plans:
the pre-prefix stages (compute-bound prefill work) on one generation and
decode (memory-bandwidth-bound) on another. Because different chips cost
differently, plans are compared by QPS per dollar rather than QPS per
chip.

It adds no search of its own: each (prefill, decode) generation pair is
one run of the one Algorithm 1 loop,
:func:`~repro.rago.search.search_schedules`, on a perf model with decode
on its own generation, charged in dollars instead of chips.

The motivating insight is the paper's own Fig. 7a: faster accelerators
mostly shift the bottleneck, so spending premium chips where the
workload is compute-bound and cheaper high-bandwidth-per-dollar chips on
decode can beat a homogeneous fleet.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.errors import ConfigError, ScheduleError
from repro.hardware.accelerator import XPU_GENERATIONS
from repro.hardware.cluster import ClusterSpec
from repro.pipeline.stage_perf import RAGPerfModel
from repro.rago.pareto import pareto_front
from repro.rago.search import SearchConfig, search_schedules
from repro.schema.ragschema import RAGSchema
from repro.schema.stages import Stage

#: Default hourly prices per generation (scaled with capability).
DEFAULT_XPU_PRICES: Dict[str, float] = {
    "XPU-A": 1.40,
    "XPU-B": 2.20,
    "XPU-C": 4.20,
}
#: Retrieval-host hourly price.
DEFAULT_SERVER_PRICE = 5.00


@dataclass(frozen=True)
class HeteroPoint:
    """One split-generation operating point.

    Attributes:
        prefill_xpu / decode_xpu: Generation names per tier.
        ttft: Time-to-first-token in seconds.
        qps: Requests per second.
        dollars_per_hour: Fleet price.
        qps_per_dollar: Throughput per hourly dollar.
        prefill_chips / decode_chips: Chips per tier.
        servers: Retrieval hosts.
    """

    prefill_xpu: str
    decode_xpu: str
    ttft: float
    qps: float
    dollars_per_hour: float
    qps_per_dollar: float
    prefill_chips: int
    decode_chips: int
    servers: int


@dataclass
class HeteroResult:
    """Frontier of split-generation plans.

    Attributes:
        frontier: Pareto points over (ttft, qps_per_dollar).
        best_homogeneous: The best single-generation point.
        best: The overall best-throughput-per-dollar point.
    """

    frontier: List[HeteroPoint]
    best_homogeneous: HeteroPoint
    best: HeteroPoint

    @property
    def hetero_gain(self) -> float:
        """QPS-per-dollar gain of the best plan over homogeneous."""
        return self.best.qps_per_dollar / self.best_homogeneous.qps_per_dollar


def split_generation_search(schema: RAGSchema, cluster: ClusterSpec,
                            prices: Optional[Dict[str, float]] = None,
                            server_price: float = DEFAULT_SERVER_PRICE,
                            config: Optional[SearchConfig] = None) -> HeteroResult:
    """Search split-generation plans for a schema.

    For every (prefill generation, decode generation) pair, runs
    :func:`~repro.rago.search.search_schedules` with the decode group on
    the decode generation and every other group on the prefill one,
    prices each plan, and returns the (TTFT, QPS/$) frontier. The
    search honours ``config`` (budget and placement restrictions
    included); placements must end with the decode group, as
    :func:`~repro.rago.placement.enumerate_placements` builds them.

    Raises:
        ScheduleError: when no feasible plan exists.
        ConfigError: on unpriced generations.
    """
    prices = dict(DEFAULT_XPU_PRICES if prices is None else prices)
    config = config or SearchConfig(max_batch=64, max_decode_batch=512)
    for xpu in XPU_GENERATIONS:
        if xpu.name not in prices:
            raise ConfigError(f"no price for generation {xpu.name}")
    if server_price <= 0:
        raise ConfigError("server_price must be positive")
    for placement in config.placements or ():
        if placement[-1:] != ((Stage.DECODE,),):
            raise ConfigError(f"placement {placement} does not end with "
                              f"the decode group")

    points: List[HeteroPoint] = []
    for prefill in XPU_GENERATIONS:
        for decode in XPU_GENERATIONS:
            def dollars(allocation: Tuple[int, ...], servers: int) -> float:
                hosts = max(servers, cluster.servers_for_xpus(sum(allocation)))
                return (sum(allocation[:-1]) * prices[prefill.name]
                        + allocation[-1] * prices[decode.name]
                        + hosts * server_price)

            perf_model = RAGPerfModel(
                schema, dataclasses.replace(cluster, xpu=prefill),
                decode_xpu=decode)
            try:
                result = search_schedules(perf_model, config, charge=dollars)
            except ScheduleError:  # no feasible plan on this pair
                continue
            for perf in result.frontier:
                allocation = tuple(group.num_xpus
                                   for group in perf.schedule.groups)
                price = dollars(allocation, perf.retrieval_servers)
                points.append(HeteroPoint(
                    prefill_xpu=prefill.name,
                    decode_xpu=decode.name,
                    ttft=perf.ttft,
                    qps=perf.qps,
                    dollars_per_hour=price,
                    qps_per_dollar=perf.qps / price,
                    prefill_chips=sum(allocation[:-1]),
                    decode_chips=allocation[-1],
                    servers=max(perf.retrieval_servers,
                                cluster.servers_for_xpus(perf.total_xpus)),
                ))

    if not points:
        raise ScheduleError(f"no feasible hetero plan for {schema.name}")
    frontier = pareto_front(points, cost=lambda point: point.ttft,
                            value=lambda point: point.qps_per_dollar)
    best = max(frontier, key=lambda point: point.qps_per_dollar)
    best_homogeneous = max(
        (point for point in points if point.prefill_xpu == point.decode_xpu),
        key=lambda point: point.qps_per_dollar)
    return HeteroResult(frontier=frontier,
                        best_homogeneous=best_homogeneous, best=best)
