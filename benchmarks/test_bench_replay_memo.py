"""Trace-replay memo guard.

``repro replay`` checks a searched schedule against traffic by
replaying a trace through :meth:`OptimizerSession.evaluate_trace`,
which memoizes every (schedule, trace, SLO, policies) cell. The engine
seals each request record when it finishes, so a memo hit hands back
the cached records themselves, not a per-call deep copy of them.

This guard replays the ``bench/`` ``replay`` workload's trace -- Case I
8B on 16 servers, poisson at 0.7x the schedule's QPS for 20 s, seed 0,
~13.5k requests -- twice through one session. It asserts that the hit
returns the identical records tuple and that ``copy.deepcopy`` never
runs inside ``evaluate_trace``: both deterministic, so the guard cannot
flake on a noisy host. The miss and hit times are printed, not bounded.
"""

import copy
import time

from repro.hardware.cluster import ClusterSpec
from repro.rago.session import OptimizerSession
from repro.schema.paradigms import case_i_hyperscale
from repro.sim import SLOTarget
from repro.workloads import scenario_trace


def test_replay_memo_hit_shares_records_without_copies(monkeypatch):
    session = OptimizerSession(case_i_hyperscale("8B"),
                               ClusterSpec(num_servers=16))
    chosen = session.optimize().max_qps_per_chip
    trace = scenario_trace(
        "poisson", rate_qps=0.7 * chosen.qps, duration=20.0, seed=0,
        mean_decode_len=session.schema.sequences.decode_len)
    slo = SLOTarget(ttft=5.0 * chosen.ttft, tpot=2.0 * chosen.tpot)

    deep_copies = []
    real_deepcopy = copy.deepcopy

    def counting_deepcopy(*args, **kwargs):
        deep_copies.append(type(args[0]).__name__)
        return real_deepcopy(*args, **kwargs)

    monkeypatch.setattr(copy, "deepcopy", counting_deepcopy)

    start = time.perf_counter()
    miss = session.evaluate_trace(chosen.schedule, trace, slo=slo)
    miss_seconds = time.perf_counter() - start
    start = time.perf_counter()
    hit = session.evaluate_trace(chosen.schedule, trace, slo=slo)
    hit_seconds = time.perf_counter() - start

    assert session.cache_info()["trace_reports"] == 1
    assert hit.records is miss.records
    assert deep_copies == [], (
        f"evaluate_trace deep-copied: {deep_copies[:5]}")
    assert miss.offered == miss.completed == trace.num_requests
    assert hit == miss
    print(f"\nrequests={trace.num_requests} miss={miss_seconds:.3f}s "
          f"hit={hit_seconds * 1e3:.2f}ms")
