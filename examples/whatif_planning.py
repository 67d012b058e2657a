#!/usr/bin/env python3
"""What-if planning: replay one recorded day against a policy grid.

The provisioning-review workflow end to end: record (here: generate) a
diurnal day of traffic, sweep a 3-axis policy grid over it --
replica counts x routing policies x an autoscale controller -- and
read the answer off the Pareto frontier over (chip-seconds, SLO
attainment). The same study from the command line:

    python -m repro whatif --case i --llm 8B --scenario diurnal \\
        --replicas 1,2,3 --routing "none;least-in-flight" \\
        --autoscale "none;policy=queue-depth,min=1,max=3" \\
        --cache .whatif

Cells are cached content-keyed on disk, so re-running after editing
one axis recomputes only the new cells -- the second run below proves
it by replaying the whole grid from cache.

Run:
    python examples/whatif_planning.py
"""

import tempfile

from repro import case_i_hyperscale
from repro.rago.session import OptimizerSession
from repro.rago.whatif import WhatIfGrid, run_whatif
from repro.sim.metrics import SLOTarget
from repro.workloads.traces import diurnal_trace


def describe_cell(cell) -> str:
    fleet = ("autoscaled" if cell.replicas is None
             else f"{cell.replicas} replica(s)")
    routing = cell.routing or "default routing"
    return f"{fleet}, {routing}"


def main() -> None:
    session = OptimizerSession(case_i_hyperscale("8B"))
    best = session.optimize().max_qps_per_chip

    # One compressed diurnal "day": the mean rate sits at 60% of the
    # best schedule's analytical saturation, so the daily peak
    # overloads a single replica and the trough wastes a large fleet
    # -- exactly the regime where the policy choice matters.
    trace = diurnal_trace(rate_qps=0.6 * best.qps, duration=60.0,
                          seed=7)
    slo = SLOTarget(ttft=5 * best.ttft, tpot=2 * best.tpot)
    print(f"traffic : {trace.describe()}")
    print(f"slo     : TTFT <= {slo.ttft * 1e3:.0f} ms, "
          f"TPOT <= {slo.tpot * 1e3:.1f} ms")

    # Three axes: fixed fleets of 1-3 replicas, two routing policies,
    # and a queue-depth autoscale controller as the elastic contender.
    grid = WhatIfGrid(
        schedules=(best.schedule,),
        replicas=(1, 2, 3),
        routing=(None, "least-in-flight"),
        autoscale=(None, "policy=queue-depth,min=1,max=3"),
    )
    print(f"grid    : {grid.num_cells} cells "
          f"(replicas x routing x autoscale)")

    with tempfile.TemporaryDirectory() as cache_dir:
        result = run_whatif(session.schema, session.cluster, trace, grid,
                            slo, cache=cache_dir)
        print()
        print(result.to_table())

        print()
        print("=== the Pareto frontier (chip-seconds vs attainment) ===")
        for cell in result.frontier():
            print(f"  {describe_cell(cell):34s} "
                  f"{cell.metric('attainment') * 100:5.1f}% attained  "
                  f"{cell.metric('chip_seconds'):8.1f} chip-s")

        # "Chosen provisioning": the cheapest frontier cell that still
        # clears 90% joint attainment; fall back to the best attained.
        viable = [cell for cell in result.frontier()
                  if cell.metric("attainment") >= 0.90]
        chosen = viable[0] if viable else max(
            result.ok_cells, key=lambda c: c.metric("attainment"))
        print()
        print(f"  -> provision: {describe_cell(chosen)} "
              f"({chosen.metric('attainment') * 100:.1f}% attained at "
              f"{chosen.metric('chip_seconds'):.1f} chip-seconds)")

        # The cache makes iteration cheap: the same study again is
        # pure cache hits, bit-identical to the fresh run.
        again = run_whatif(session.schema, session.cluster, trace, grid,
                           slo, cache=cache_dir)
        assert again == result
        assert again.cache_hits == grid.num_cells
        print(f"  -> re-run: {again.cache_hits}/{grid.num_cells} "
              f"cells from cache, result identical")


if __name__ == "__main__":
    main()
