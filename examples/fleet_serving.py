#!/usr/bin/env python3
"""Fleet serving: validate the provisioning model under live traffic.

The provisioning model answers "how many replicas sustain this load"
analytically; this example puts the answer on trial. It sizes a fleet
with ``OptimizerSession.provision``, builds exactly that fleet as a
multi-replica DES (``repro.sim.autoscale.build_fleet``), replays a
bursty trace offered *above* the fleet's rated capacity, and asserts
the attained throughput lands within tolerance of the provisioning
model's ``total_qps`` -- the saturation check that turns a sizing
formula into a tested claim. Along the way it demos the per-replica
breakdown and a zero-loss rolling schedule swap.

Run:
    python examples/fleet_serving.py
"""

from repro import ClusterSpec, OptimizerSession, case_i_hyperscale
from repro.reporting import format_fleet_breakdown, format_serving_report
from repro.sim import build_fleet, submit_trace
from repro.workloads import bursty_trace

TARGET_QPS = 1000.0
TOLERANCE = 0.20  # DES saturation vs analytical rating


def main() -> None:
    # Cap each replica at 16 accelerator chips: fleets built from
    # modest replicated cells are the provisioning model's sweet spot
    # (and force a genuinely multi-replica answer on this cluster).
    session = (OptimizerSession(case_i_hyperscale("1B"),
                                ClusterSpec(num_servers=32))
               .with_search(budget_xpus=16))

    # 1. Size the fleet analytically.
    sizing = session.provision(TARGET_QPS)
    print(f"provisioned: {sizing.replicas} replica(s) x "
          f"{sizing.perf.charged_chips} chips = {sizing.budget_xpus} "
          f"XPUs ({sizing.total_qps:.1f} QPS rated, target "
          f"{TARGET_QPS:.0f})")
    print(f"per-replica schedule: {sizing.perf.schedule.describe()}")
    print()

    # 2. Build that exact fleet and overload it with bursty traffic.
    #    The burst shape keeps even the off-state rate above the
    #    fleet's rating (2x mean, 1.5x bursts, 40% duty), so attained
    #    throughput measures capacity, not the generator.
    fleet = build_fleet(session.perf_model, sizing.perf.schedule,
                        replicas=sizing.replicas,
                        routing="least-in-flight")[0]
    trace = bursty_trace(2.0 * sizing.total_qps, duration=8.0, seed=7,
                         mean_decode_len=64, burst_factor=1.5,
                         on_fraction=0.4)
    submit_trace(fleet, trace)
    fleet.drain()
    report = fleet.report(trace)
    print(format_serving_report(report))
    print()
    print(format_fleet_breakdown(fleet.replica_stats()))
    print()

    # 3. The acceptance check: measured saturation within tolerance of
    #    the provisioning model's rating.
    attained = report.throughput
    error = abs(attained - sizing.total_qps) / sizing.total_qps
    print(f"attained {attained:.1f} QPS vs rated "
          f"{sizing.total_qps:.1f} QPS ({100 * error:.1f}% off)")
    assert error <= TOLERANCE, (
        f"fleet attained {attained:.1f} QPS; expected within "
        f"{100 * TOLERANCE:.0f}% of the rated {sizing.total_qps:.1f}")
    print(f"-> provisioning validated: within {100 * TOLERANCE:.0f}% "
          f"of the analytical rating under live bursty load")
    print()

    # 4. Bonus: a rolling schedule swap mid-fleet loses nothing.
    swap_fleet = build_fleet(session.perf_model, sizing.perf.schedule,
                             replicas=sizing.replicas,
                             routing="round-robin")[0]
    pairs = list(zip(trace.arrivals, trace.decode_lens))
    half = len(pairs) // 2
    for arrival, decode_len in pairs[:half]:
        swap_fleet.submit(arrival, decode_len=decode_len)
    swap_fleet.step(until=pairs[half - 1][0])
    swap_fleet.swap_replica(0, sizing.perf.schedule)
    for arrival, decode_len in pairs[half:]:
        swap_fleet.submit(max(arrival, swap_fleet.now),
                          decode_len=decode_len)
    swap_fleet.drain()
    assert swap_fleet.completed == swap_fleet.offered == len(pairs)
    states = [row["state"] for row in swap_fleet.replica_stats()]
    print(f"rolling swap: {swap_fleet.completed}/{swap_fleet.offered} "
          f"requests completed across generations {states} -- zero "
          f"requests lost")


if __name__ == "__main__":
    main()
