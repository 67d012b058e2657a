"""Ablation: batch-dispatch wait policy in the serving simulator.

Stations dispatch when their batch fills or a partial batch has waited
the dispatch policy's ``max_wait``. This bench sweeps the wait bound at
moderate load and shows the throughput/latency tradeoff the policy
controls: tiny waits dispatch small inefficient batches; long waits add
queueing latency for no throughput once batches already fill.
"""

from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule, assemble
from repro.reporting.tables import format_table
from repro.schema import Stage, case_i_hyperscale
from repro.sim import DeadlineFlushPolicy, ServingSimulator
from repro.workloads import poisson_trace


def _sweep():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )
    analytical = assemble(pm, schedule)
    trace = poisson_trace(0.6 * analytical.qps, duration=10.0, seed=21)
    rows = []
    ttfts = {}
    for max_wait in (0.001, 0.01, 0.1, 1.0):
        sim = ServingSimulator(
            pm, schedule, dispatch=DeadlineFlushPolicy(max_wait=max_wait))
        report = sim.run(trace)
        rows.append((max_wait, report.throughput, report.ttft["mean"],
                     report.ttft["p99"]))
        ttfts[max_wait] = report.ttft["mean"]
    return rows, ttfts, analytical


def test_bench_ablation_batch_wait(benchmark):
    rows, ttfts, analytical = benchmark.pedantic(_sweep, iterations=1,
                                                 rounds=1)
    print()
    print(format_table(
        ("max wait (s)", "throughput", "mean TTFT (s)", "p99 TTFT (s)"),
        rows,
        title="Ablation: batch-dispatch wait bound (C-I, 60% load)"))
    print(f"analytical reference: qps={analytical.qps:.0f} "
          f"ttft={analytical.ttft * 1e3:.0f} ms")
    # Excessive patience adds latency without throughput at this load.
    assert ttfts[1.0] > ttfts[0.01]
    # All configurations complete the offered load (60% of capacity).
    for _, throughput, _, _ in rows:
        assert throughput > 0.4 * analytical.qps
