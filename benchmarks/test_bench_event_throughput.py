"""DES hot-path throughput guard (the CI events/sec floor).

Replays the canonical ~100k-request trace -- a Case I hyperscale
network serving a seeded 800 QPS poisson stream -- through the
slab-backed engine under pytest-benchmark and pins an absolute
events/sec floor, generous enough for slow shared CI runners but far
above what any accidental reintroduction of per-event allocation churn
would produce. The event count is fixed by the workload: one arrival
per request, one free + one complete per batch dispatch, and one decode
advance per step at which a sequence finishes or a waiting request can
join (the decode executor sleeps through the other steps). The parity
suite (``tests/test_sim_hotpath_parity.py``) pins that count, restated
as one advance per decode step, against the closure-per-event reference
engine, so events/sec moves only with wall clock. Since the executor
stopped scheduling idle steps, each event does more work on average,
so events/sec fell with the count; the decode steps simulated per
second are printed alongside. For where the time goes, profile the
engine in context with ``python3 bench/run.py --workload replay
--trace 1``.

The gate takes the best of several rounds so one noisy-neighbor round
cannot fail it; a real regression slows every round.
"""

import time

from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim import ServingEngine, submit_trace
from repro.workloads import poisson_trace

#: Absolute floor, roughly half the slowest replay observed on a
#: loaded development box (and ~20% of a quiet one) -- headroom for
#: CI hardware, not for regressions.
EVENTS_PER_SEC_FLOOR = 25_000.0

#: Arrival rate of the canonical trace (requests per second). The
#: loaded regime is deliberate: a busy decode batch is where per-step
#: bookkeeping costs show, so a lightly loaded trace would hide (and a
#: saturated one exaggerate) what a real sweep sees.
CANONICAL_RATE_QPS = 800.0

#: Requests of the canonical replay (approximate: the trace is a
#: seeded poisson draw over ``requests / rate`` seconds).
CANONICAL_REQUESTS = 100_000


def _canonical_network():
    """The benchmark deployment: Case I hyperscale 8B on 32 servers."""
    pm = RAGPerfModel(case_i_hyperscale("8B"), ClusterSpec(num_servers=32))
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 32)),
        batches={Stage.PREFIX: 32, Stage.DECODE: 512,
                 Stage.RETRIEVAL: 64},
    )
    return pm, schedule


def _replay(perf_model, schedule, trace):
    """Feed the whole trace the way ``ServingSimulator.run`` does
    (streamed by ``submit_trace``), drain, and time it: (completed,
    events, decode steps, wall seconds)."""
    engine = ServingEngine(perf_model, schedule)
    start = time.perf_counter()
    submit_trace(engine, trace)
    engine.drain()
    wall = max(time.perf_counter() - start, 1e-9)
    return (engine.completed, engine.events_processed,
            engine._decode._step_index, wall)


def test_bench_canonical_replay_floor(benchmark):
    perf_model, schedule = _canonical_network()
    trace = poisson_trace(CANONICAL_RATE_QPS,
                          CANONICAL_REQUESTS / CANONICAL_RATE_QPS,
                          seed=42, mean_decode_len=128)

    runs = []

    def run():
        runs.append(_replay(perf_model, schedule, trace))

    benchmark.pedantic(run, iterations=1, rounds=3)
    completed, events, steps, wall = min(runs, key=lambda r: r[3])
    events_per_sec = events / wall

    print()
    print(f"canonical replay (best of 3): {trace.num_requests} requests, "
          f"{completed} completed, {events} events, {wall:.3f} s, "
          f"{events_per_sec:,.0f} events/sec, "
          f"{steps / wall:,.0f} decode steps/sec, "
          f"{completed / wall:,.0f} requests/sec")

    assert completed == trace.num_requests
    assert events_per_sec >= EVENTS_PER_SEC_FLOOR, (
        f"hot path regressed below the CI floor: "
        f"{events_per_sec:,.0f} < {EVENTS_PER_SEC_FLOOR:,.0f} "
        f"events/sec")
