"""DES hot-path throughput guard (the CI events/sec floor).

Replays the canonical 100k-request trace (see :mod:`repro.sim.bench`)
through the slab-backed engine under pytest-benchmark and pins an
absolute events/sec floor, generous enough for slow shared CI runners
but far above what any accidental reintroduction of per-event
allocation churn would produce. The event count itself is pinned
against the closure-per-event reference engine by the parity suite
(``tests/test_sim_hotpath_parity.py``), so events/sec moves only with
wall clock.

The gate takes the best of several rounds so one noisy-neighbor round
cannot fail it; a real regression slows every round.
"""

from repro.sim.bench import (
    canonical_network,
    canonical_trace,
    format_result,
    replay_trace,
)

#: Absolute floor, roughly half the slowest replay observed on a
#: loaded development box (and ~20% of a quiet one) -- headroom for
#: CI hardware, not for regressions.
EVENTS_PER_SEC_FLOOR = 25_000.0


def test_bench_canonical_replay_floor(benchmark):
    perf_model, schedule = canonical_network()
    trace = canonical_trace()

    runs = []

    def run():
        result = replay_trace(perf_model, schedule, trace)
        runs.append(result)
        return result

    benchmark.pedantic(run, iterations=1, rounds=3)
    best = max(runs, key=lambda r: r.events_per_sec)

    print()
    print(format_result(best, "canonical replay (best of 3)"))

    assert best.completed == trace.num_requests
    assert best.events_per_sec >= EVENTS_PER_SEC_FLOOR, (
        f"hot path regressed below the CI floor: "
        f"{best.events_per_sec:,.0f} < {EVENTS_PER_SEC_FLOOR:,.0f} "
        f"events/sec")
