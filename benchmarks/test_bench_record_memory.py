"""Per-request memory guard for a replay.

The engine keeps every request's per-stage enqueue, completion and
queue-wait times in three flat ``array('d')`` slabs, and a finished
:class:`~repro.sim.metrics.RequestRecord` reads its stage maps from
its row there on access instead of holding three dicts of its own.

This guard replays 8,000 evenly spaced arrivals at 0.7x the Case I 8B
schedule's QPS on 16 servers through one engine (a numpy-free trace,
so it runs on every CI Python) and counts heap bytes with
``tracemalloc``:

* the peak traced over submit + drain + report, per request;
* what the report still holds per request once the engine is dropped
  and ``gc.collect()`` has run.

Both are byte counts, not timings, so the guard cannot flake on a
noisy host. Storing the maps as per-record dicts costs about 1,400
and 1,000 B/request; the slab-backed records about 720 and 300.
"""

import gc
import tracemalloc

from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.schema.paradigms import case_i_hyperscale
from repro.sim import ServingEngine, submit_trace
from repro.workloads import trace_from_arrivals

REQUESTS = 8_000
PEAK_BYTES_PER_REQUEST = 1_000
HELD_BYTES_PER_REQUEST = 500


def test_replay_heap_per_request_stays_bounded():
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=16))
    chosen = session.optimize().max_qps_per_chip
    gap = 1.0 / (0.7 * chosen.qps)
    trace = trace_from_arrivals([index * gap for index in range(REQUESTS)])
    engine = ServingEngine(session.perf_model, chosen.schedule)

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        submit_trace(engine, trace)
        engine.drain()
        report = engine.report(trace)
        peak = tracemalloc.get_traced_memory()[1] - base
        del engine
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()

    assert report.offered == report.completed == REQUESTS
    assert len(report.records[-1].queue_waits) > 0
    peak_per_request = peak / REQUESTS
    held_per_request = held / REQUESTS
    print(f"\nrequests={REQUESTS} peak={peak_per_request:.0f} B/request "
          f"held={held_per_request:.0f} B/request")
    assert peak_per_request <= PEAK_BYTES_PER_REQUEST
    assert held_per_request <= HELD_BYTES_PER_REQUEST
