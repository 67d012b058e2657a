#!/usr/bin/env python3
"""Autoscaled serving: track a diurnal rate curve with an elastic fleet.

RAGO picks schedules per QPS rating, but day/night traffic has no
single rating: a fleet provisioned for the trough violates SLOs at the
peak, one provisioned for the peak burns replicas all night. This
example puts the autoscaling control loop (`repro.sim.autoscale`) on
trial: `OptimizerSession.autoscaled_fleet` seeds the replica bounds
from the provisioning model (trough -> min, peak -> max), a
queue-depth controller grows and shrinks the fleet through zero-loss
drains while a diurnal trace replays, and the outcome is scored on the
two axes that matter -- SLO attainment and replica-seconds -- against
both static fleets. The acceptance claims (pinned by
tests/test_sim_autoscale.py):

* the elastic fleet's attainment is at least the trough-provisioned
  fleet's, and
* it spends fewer replica-seconds than the peak-provisioned fleet, and
* zero requests are lost across every scale event.

Run:
    python examples/autoscale_serving.py
"""

from repro import ClusterSpec, OptimizerSession, case_i_hyperscale
from repro.reporting import (
    format_scaling_timeline,
    format_serving_report,
    format_table,
)
from repro.sim import AutoscaleConfig, SLOTarget, build_fleet, submit_trace
from repro.workloads import diurnal_trace

TROUGH_QPS = 300.0   # the night shift the fleet must not over-serve
PEAK_QPS = 2100.0    # the rush hour it must not under-serve
MEAN_QPS = 1200.0    # diurnal mean; amplitude 0.8 swings 240..2160
SLO = SLOTarget(ttft=0.5, tpot=0.005)


def replay_static(session, schedule, replicas, trace):
    """Replay the trace through a fixed-size fleet; return (report,
    replica-seconds)."""
    fleet = build_fleet(session.perf_model, schedule, replicas=replicas,
                        routing="join-idle-queue")[0]
    submit_trace(fleet, trace)
    fleet.drain()
    return fleet.report(trace, slo=SLO), replicas * fleet.now


def main() -> None:
    session = (OptimizerSession(case_i_hyperscale("1B"),
                                ClusterSpec(num_servers=64))
               .with_search(budget_xpus=16))

    # 1. An elastic fleet, bounds seeded by the provisioning model.
    #    Depth thresholds bracket the healthy steady state (a loaded
    #    replica here carries ~40-55 in-flight requests): above 64 per
    #    replica the queue is building, below 16 the load fits in a
    #    smaller fleet.
    autoscaler = session.autoscaled_fleet(
        TROUGH_QPS, PEAK_QPS,
        autoscale=AutoscaleConfig(policy="queue-depth", interval=0.5,
                                  cooldown=2.0, scale_up=64.0,
                                  scale_down=16.0),
        routing="join-idle-queue", slo=SLO)
    print(f"provisioned bounds: {autoscaler.min_replicas} (trough "
          f"{TROUGH_QPS:.0f} QPS) .. {autoscaler.max_replicas} (peak "
          f"{PEAK_QPS:.0f} QPS)")
    schedule = autoscaler.fleet.schedules[0]
    print(f"per-replica schedule: {schedule.describe()}")
    print()

    # 2. One compressed day of traffic: a sinusoidal rate curve from
    #    240 to 2160 QPS inside a 24-second window.
    trace = diurnal_trace(MEAN_QPS, duration=24.0, seed=11,
                          mean_decode_len=64, amplitude=0.8)
    print(f"traffic: {trace.describe()}")
    print()

    # 3. Replay with the control loop in the driver's seat.
    autoscaler.run_trace(trace)
    auto_report = autoscaler.fleet.report(trace, slo=SLO)
    auto_seconds = autoscaler.replica_seconds
    print(format_serving_report(auto_report))
    print()
    print(format_scaling_timeline(autoscaler.timeline(),
                                  replica_seconds=auto_seconds))
    # The zero-loss invariant: every scale event drained, none dropped.
    assert autoscaler.fleet.completed == autoscaler.fleet.offered \
        == trace.num_requests, "requests lost across scale events"
    print()

    # 4. The two static baselines on the identical trace.
    trough_report, trough_seconds = replay_static(
        session, schedule, autoscaler.min_replicas, trace)
    peak_report, peak_seconds = replay_static(
        session, schedule, autoscaler.max_replicas, trace)

    rows = [
        ["autoscaled",
         f"{autoscaler.min_replicas}..{autoscaler.max_replicas}",
         auto_report.slo_attainment["joint"], auto_seconds],
        ["static trough", autoscaler.min_replicas,
         trough_report.slo_attainment["joint"], trough_seconds],
        ["static peak", autoscaler.max_replicas,
         peak_report.slo_attainment["joint"], peak_seconds],
    ]
    print(format_table(
        ("fleet", "replicas", "joint SLO attainment", "replica-seconds"),
        rows, title="one diurnal day, three fleets"))
    print()

    # 5. The acceptance claims.
    auto_attainment = auto_report.slo_attainment["joint"]
    trough_attainment = trough_report.slo_attainment["joint"]
    assert auto_attainment >= trough_attainment, (
        f"autoscaled attainment {auto_attainment:.3f} fell below the "
        f"trough-provisioned fleet's {trough_attainment:.3f}")
    assert auto_seconds < peak_seconds, (
        f"autoscaled fleet spent {auto_seconds:.1f} replica-seconds; "
        f"expected less than the peak-provisioned {peak_seconds:.1f}")
    print(f"-> elastic fleet attains {100 * auto_attainment:.1f}% "
          f"(trough-provisioned: {100 * trough_attainment:.1f}%) "
          f"while spending {auto_seconds:.1f} replica-seconds "
          f"(peak-provisioned: {peak_seconds:.1f}) -- better latency "
          f"than the cheap fleet, cheaper than the safe one")


if __name__ == "__main__":
    main()
