#!/usr/bin/env python3
"""Validate RAGO's analytical predictions with request-level simulation.

Takes the schedule RAGO selects for Case I, replays Poisson request
streams through the discrete-event serving simulator at increasing load,
and compares measured saturation throughput and latency against the
closed-form predictions. Also shows what the analytical model cannot:
queueing delay growth and p99 tails as the deployment approaches its
capacity.

Run:
    python examples/serving_simulation.py
"""

from repro import ClusterSpec, OptimizerSession, case_i_hyperscale
from repro.sim import ServingSimulator
from repro.workloads import poisson_trace


def main() -> None:
    cluster = ClusterSpec(num_servers=32)
    schema = case_i_hyperscale("8B")
    session = OptimizerSession(schema, cluster)
    result = session.optimize()
    chosen = result.max_qps_per_chip
    print("schedule under test (RAGO's throughput-optimal point):")
    print(f"  {chosen.schedule.describe()}")
    print(f"analytical prediction: qps={chosen.qps:.0f} "
          f"ttft={chosen.ttft * 1e3:.1f} ms tpot={chosen.tpot * 1e3:.2f} ms")
    print()

    print(f"{'load':>6} {'offered':>8} {'measured':>9} {'mean TTFT':>10} "
          f"{'p99 TTFT':>10} {'TPOT':>7}")
    for load in (0.3, 0.6, 0.9, 1.1, 1.5):
        simulator = ServingSimulator(session.perf_model, chosen.schedule)
        trace = poisson_trace(load * chosen.qps, duration=15.0, seed=11)
        report = simulator.run(trace)
        busiest = max(report.utilization.items(),
                      key=lambda item: item[1])
        print(f"{load:>6.1f} {trace.num_requests:>8d} "
              f"{report.throughput:>8.0f}/s "
              f"{report.ttft['mean'] * 1e3:>8.1f}ms "
              f"{report.ttft['p99'] * 1e3:>8.1f}ms "
              f"{report.tpot['mean'] * 1e3:>6.2f}ms   "
              f"hottest={busiest[0]} ({100 * busiest[1]:.0f}%)")
    print()
    print("reading: below load 1.0 the measured throughput tracks the")
    print("offered rate and TTFT stays near the analytical prediction;")
    print("past saturation, throughput pins at the analytical QPS while")
    print("queueing inflates TTFT -- the closed-form bottleneck holds.")


if __name__ == "__main__":
    main()
