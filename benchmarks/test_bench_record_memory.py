"""Per-request memory guards for a replay and for a trace.

The engine keeps every request's per-stage enqueue, completion and
queue-wait times in three flat ``array('d')`` slabs, and its
first-token and completion times in two per-request ``array('d')``
columns; a :class:`~repro.sim.metrics.RequestRecord` reads its stage
maps and both times from its row there on access instead of holding
dicts and floats of its own. ``submit_trace`` streams the trace into
the engine, so only one arrival event is queued at a time.
The :class:`~repro.sim.metrics.MetricsAccumulator` keeps its TTFT,
TPOT and per-stage wait reservoirs as ``array('d')`` columns, and a
:class:`~repro.workloads.RequestTrace` stores its requests as columns
rather than one ``Request`` object each.

The replay guard sends 8,000 evenly spaced arrivals at 0.7x the Case
I 8B schedule's QPS on 16 servers through one engine (a numpy-free
trace, so it runs on every CI Python) and counts heap bytes with
``tracemalloc``:

* the peak traced over submit + drain + report, per request;
* what the report still holds per request once the engine is dropped
  and ``gc.collect()`` has run.

The trace guard counts what an 8,000-request ``trace_from_arrivals``
trace with decode lengths holds per request, its float and int values
included.

All are byte counts, not timings, so the guards cannot flake on a
noisy host. Storing the stage maps as per-record dicts cost about
1,400 and 1,000 B/request; slab-backed records with index-tagged
latency tuples and boxed waits about 720 and 300; the column
reservoirs about 550 and 300; the streamed feed with both lifecycle
times in columns about 400 and 230. A trace of ``Request`` records
holds about 190 B/request; the columns about 72.
"""

import gc
import tracemalloc

from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.schema.paradigms import case_i_hyperscale
from repro.sim import ServingEngine, submit_trace
from repro.workloads import trace_from_arrivals

REQUESTS = 8_000
PEAK_BYTES_PER_REQUEST = 480
HELD_BYTES_PER_REQUEST = 270
TRACE_BYTES_PER_REQUEST = 100


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


def test_trace_heap_per_request_stays_bounded():
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        # Lengths past 256 are not CPython's cached small ints, so each
        # is an object the trace keeps alive.
        trace = trace_from_arrivals(
            [index * 0.01 for index in range(REQUESTS)],
            decode_lens=[257 + (index * 37) % 4096
                         for index in range(REQUESTS)])
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()

    assert trace.num_requests == REQUESTS
    held_per_request = held / REQUESTS
    print(f"\ntrace requests={REQUESTS} held={held_per_request:.0f} "
          f"B/request")
    assert held_per_request <= TRACE_BYTES_PER_REQUEST
