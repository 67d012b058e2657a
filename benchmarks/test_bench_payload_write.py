"""Memory guard for writing a ``--json`` payload that holds a trace.

``repro replay --json`` embeds the replayed trace in its payload. The
writer renders the trace's request rows from its columns, 1,024 rows
at a time, and splices them into the stock ``indent=1`` text of the
rest of the payload, so the write holds no dict per request and no
whole-payload string: its heap peak does not grow with the trace.

The guard writes a closed-loop-shaped payload (a tiered population's
recorded trace: decode lengths plus user, session and tier on every
request, next to the workload, cluster, policies and population
sections) of 8,000 and of 32,000 requests, and counts heap bytes with
``tracemalloc`` over the write alone:

* the peak stays under :data:`PEAK_BYTES`;
* the peak at 32,000 requests is at most :data:`GROWTH` x the peak at
  8,000.

Byte counts, not timings, so the guard cannot flake on a noisy host.
Encoding ``config.to_config(trace)`` with ``json.dump(indent=1)``
held about 190 B/request in the row dicts alone, and its peak grew
fourfold between the two sizes (1.6 -> 6.2 MB); the spliced write
peaks at about 540 kB at both.
"""

import tracemalloc

from repro import cli, config
from repro.hardware.cluster import ClusterSpec
from repro.schema.paradigms import case_i_hyperscale
from repro.workloads import RequestTrace

PEAK_BYTES = 1_000_000
GROWTH = 1.1
USERS = 2048


def tiered_trace(count):
    """A recorded closed-loop trace of ``count`` requests."""
    return RequestTrace.from_columns(
        [index * 0.000125 for index in range(count)],
        decode_lens=[32 + index % 97 for index in range(count)],
        user_ids=[f"u{index % USERS}" for index in range(count)],
        session_ids=[f"u{index % USERS}-{index // USERS}"
                     for index in range(count)],
        tiers=[("free", "paid")[index % USERS % 2]
               for index in range(count)],
        metadata={"scenario": "sessions", "tiers": "free-paid"})


def write_peak(path, count):
    """Heap peak, in bytes, of writing a ``count``-request payload."""
    payload = {
        "report": {"offered": count, "completed": count},
        "workload": config.to_config(case_i_hyperscale("8B")),
        "cluster": config.to_config(ClusterSpec(num_servers=16)),
        "trace": tiered_trace(count),
        "policies": {"dispatch": "deadline-flush", "admission": "fifo",
                     "routing": "session-affine"},
        "population": {"spec": f"users={USERS},think=0.5,"
                               f"tiers=free-paid"},
    }
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        cli._write_json(str(path), payload)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak


def test_payload_write_peak_is_flat_in_trace_length(tmp_path):
    small = write_peak(tmp_path / "small.json", 8_000)
    large = write_peak(tmp_path / "large.json", 32_000)
    print(f"\nwrite peak: 8,000 requests {small / 1e3:.0f} kB, "
          f"32,000 requests {large / 1e3:.0f} kB "
          f"(x{large / small:.2f})")
    assert large <= PEAK_BYTES
    assert large <= GROWTH * small
