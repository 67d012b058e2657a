"""Validation: analytical assembly vs request-level simulation.

The paper's results rest on the closed-form composition (throughput =
min over stage groups; TTFT = sum along the request path). This bench
replays Poisson traffic through the discrete-event serving simulator and
checks that measured saturation throughput and light-load TTFT track the
analytical predictions for Case I and Case IV schedules.
"""

from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule, assemble
from repro.reporting.tables import format_table
from repro.schema import Stage, case_i_hyperscale, case_iv_rewriter_reranker
from repro.sim import ServingSimulator
from repro.workloads import poisson_trace


def _case_i_schedule():
    return Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512, Stage.RETRIEVAL: 64},
    )


def _case_iv_schedule():
    return Schedule(
        groups=(PlacementGroup((Stage.REWRITE_PREFIX,
                                Stage.REWRITE_DECODE), 8),
                PlacementGroup((Stage.RERANK, Stage.PREFIX), 16),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.REWRITE_PREFIX: 16, Stage.REWRITE_DECODE: 16,
                 Stage.RERANK: 16, Stage.PREFIX: 16, Stage.RETRIEVAL: 32,
                 Stage.DECODE: 512},
    )


def _validate():
    cluster = ClusterSpec(num_servers=32)
    cases = (
        ("C-I 8B", RAGPerfModel(case_i_hyperscale("8B"), cluster),
         _case_i_schedule()),
        ("C-IV 8B", RAGPerfModel(case_iv_rewriter_reranker("8B"), cluster),
         _case_iv_schedule()),
    )
    rows = []
    for name, pm, schedule in cases:
        analytical = assemble(pm, schedule)
        saturated = ServingSimulator(pm, schedule).run(poisson_trace(
            1.5 * analytical.qps, duration=12.0, seed=13))
        light = ServingSimulator(pm, schedule).run(poisson_trace(
            0.3 * analytical.qps, duration=8.0, seed=13))
        rows.append((name, analytical.qps, saturated.throughput,
                     saturated.throughput / analytical.qps,
                     analytical.ttft, light.ttft["mean"]))
    return rows


def test_bench_validation_des(benchmark):
    rows = benchmark.pedantic(_validate, iterations=1, rounds=1)
    print()
    print(format_table(
        ("case", "analytical qps", "measured qps", "ratio",
         "analytical ttft", "light-load ttft"),
        rows, title="Validation: closed-form model vs DES"))
    for _, analytical_qps, measured_qps, ratio, a_ttft, m_ttft in rows:
        # Saturation throughput within 20% of the analytical bottleneck.
        assert 0.8 <= ratio <= 1.05
        # Light-load TTFT within a small multiple (batching wait adds
        # bounded delay on top of the service-time sum).
        assert m_ttft <= 4 * a_ttft
