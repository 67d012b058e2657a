"""Sweep-executor scaling guard (the CI blocking gate).

Replays one recorded trace over a 64-cell what-if policy grid twice --
once through :func:`~repro.distrib.run_cells`' in-process ``serial``
oracle, once through its ``process`` pool with four workers -- and
pins the parallel path's wall-time at <= 40% of the
serial wall (a >= 2.5x speedup on 4 cores; the slack absorbs pool
start-up and the guided-chunking tail).

Both sides take the best of two runs so one noisy-neighbor round
cannot fail the gate, and the parallel result must equal the serial
oracle bit for bit -- a backend that gets fast by dropping or
reordering cells fails here before it fails parity.

Skipped below four CPU cores: a 4-worker pool on fewer cores measures
the scheduler, not the executor.
"""

import os
import time

import pytest

from repro import case_i_hyperscale
from repro.rago.session import OptimizerSession
from repro.rago.whatif import WhatIfGrid, run_whatif
from repro.sim.metrics import SLOTarget
from repro.workloads.traces import poisson_trace

#: Grid size floor -- small enough to finish in CI minutes, large
#: enough that per-cell work dominates pool start-up.
GRID_CELLS = 64

#: Pool width the gate is calibrated for (CI runners have 4 vCPUs).
POOL_WORKERS = 4

#: The acceptance bar: 4-worker wall <= 40% of serial wall (>= 2.5x).
WALL_RATIO_CEILING = 0.40


def _build_grid():
    schema = case_i_hyperscale("8B")
    session = OptimizerSession(schema)
    frontier = session.optimize().frontier
    assert frontier, "optimizer produced an empty frontier"
    # Cycle the frontier up to 4 schedules so the grid shape is stable
    # even when the frontier is short.
    schedules = tuple(frontier[i % len(frontier)].schedule
                      for i in range(4))
    grid = WhatIfGrid(
        schedules=schedules,
        replicas=(1, 2, 3, 4),
        routing=(None, "least-in-flight", "round-robin",
                 "power-of-two-choices"),
    )
    assert grid.num_cells == GRID_CELLS
    trace = poisson_trace(4.0, 60.0, seed=23)
    slo = SLOTarget(ttft=5.0, tpot=0.5)
    return session, grid, trace, slo


def _timed_whatif(session, grid, trace, slo, backend, workers=1):
    started = time.monotonic()
    result = run_whatif(session.schema, session.cluster, trace, grid,
                        slo, backend=backend, workers=workers)
    return time.monotonic() - started, result


def test_bench_sweep_scaling(benchmark):
    cores = os.cpu_count() or 1
    if cores < POOL_WORKERS:
        pytest.skip(f"needs >= {POOL_WORKERS} CPU cores to measure "
                    f"pool scaling, have {cores}")

    session, grid, trace, slo = _build_grid()

    serial_walls = []
    serial_results = []
    for _ in range(2):
        wall, result = _timed_whatif(session, grid, trace, slo,
                                     "serial")
        serial_walls.append(wall)
        serial_results.append(result)
    serial_wall = min(serial_walls)
    oracle = serial_results[0]
    assert len(oracle.ok_cells) == GRID_CELLS, (
        f"{len(oracle.errors)} infeasible cell(s) in the scaling "
        f"grid; the gate needs uniform per-cell work")

    process_walls = []
    process_results = []

    def run():
        wall, result = _timed_whatif(
            session, grid, trace, slo, "process", workers=POOL_WORKERS)
        process_walls.append(wall)
        process_results.append(result)
        return result

    benchmark.pedantic(run, iterations=1, rounds=2)
    process_wall = min(process_walls)

    ratio = process_wall / serial_wall
    print()
    print(f"  grid          : {GRID_CELLS} cells, "
          f"{trace.num_requests} requests/cell trace")
    print(f"  serial wall   : {serial_wall:6.2f}s (best of 2)")
    print(f"  process wall  : {process_wall:6.2f}s "
          f"(best of 2, {POOL_WORKERS} workers)")
    print(f"  wall ratio    : {ratio:.2f} "
          f"(ceiling {WALL_RATIO_CEILING:.2f}, "
          f"speedup {1.0 / ratio:.2f}x)")

    for result in process_results:
        assert result == oracle, (
            "process backend result differs from the serial oracle")
    assert ratio <= WALL_RATIO_CEILING, (
        f"4-worker sweep only {1.0 / ratio:.2f}x serial "
        f"(wall ratio {ratio:.2f} > ceiling {WALL_RATIO_CEILING})")
