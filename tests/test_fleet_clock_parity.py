"""Fleet-clock parity pins: closed loops, autoscaling and mid-run
membership changes produce the same per-request lifecycles as the
per-replica-clock lockstep they replaced.

Every digest below was recorded with the lockstep driver (one
``Simulation`` per replica, co-simulated round by round). A fleet now
runs all replicas on one shared event queue; these pins prove that,
away from exact cross-replica timestamp ties, the two orders are the
same -- request for request, replica for replica.

Each digest hashes every record's ``(request_id, replica slot,
arrival, first_token_time, completion_time, tier)``. To print the
digests of the current tree::

    PYTHONPATH=src python tests/test_fleet_clock_parity.py
"""

import hashlib

import pytest

from repro.hardware import ClusterSpec
from repro.pipeline import PlacementGroup, RAGPerfModel, Schedule
from repro.schema import Stage, case_i_hyperscale
from repro.sim.autoscale import AutoscaleConfig, Autoscaler
from repro.sim.fleet import FleetEngine
from repro.workloads import (
    ClosedLoopDriver,
    UserPopulation,
    poisson_trace,
    resolve_tier_policy,
)

ROUTINGS = ("session-affine", "least-in-flight", "round-robin",
            "power-of-two-choices")
REPLICAS = (1, 2, 4)


def _network():
    cluster = ClusterSpec(num_servers=32)
    pm = RAGPerfModel(case_i_hyperscale("8B"), cluster)
    # Decode-light deployment: a few dozen users queue at decode, so
    # routing decisions depend on live replica state.
    schedule = Schedule(
        groups=(PlacementGroup((Stage.PREFIX,), 32),
                PlacementGroup((Stage.DECODE,), 8)),
        batches={Stage.PREFIX: 16, Stage.DECODE: 16,
                 Stage.RETRIEVAL: 32},
    )
    return pm, schedule


@pytest.fixture(scope="module")
def network():
    return _network()


def fleet_digest(fleet):
    """sha256 over every record's lifecycle, keyed by fleet slot.

    Times are rounded to the nanosecond, so a last-bit difference in a
    platform's libm cannot flip a pin; a changed event order moves
    them by far more.
    """
    rows = []
    for entry in fleet._engines:
        for record in entry.engine.records:
            rows.append((record.request_id, entry.slot,
                         round(record.arrival, 9),
                         round(record.first_token_time, 9),
                         round(record.completion_time, 9), record.tier))
    rows.sort(key=lambda row: row[0])
    assert [row[0] for row in rows] == list(range(len(rows)))
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def closed_loop(pm, schedule, routing, replicas, tiered):
    population = UserPopulation(
        users=24, think_time=0.05, concurrency=2, session_len=3, seed=3,
        tiers=resolve_tier_policy("free-paid" if tiered else "single"))
    fleet = FleetEngine(pm, schedule, replicas=replicas, routing=routing,
                        admission="priority" if tiered else None)
    driver = ClosedLoopDriver(population, fleet, horizon=1.5)
    driver.run()
    assert driver.submitted == driver.completed == fleet.completed
    return fleet


def autoscaled(pm, schedule):
    trace = poisson_trace(400.0, 3.0, seed=9, mean_decode_len=64)
    fleet = FleetEngine(pm, schedule, replicas=1,
                        routing="least-in-flight")
    scaler = Autoscaler(fleet, AutoscaleConfig(
        policy="queue-depth", min_replicas=1, max_replicas=3,
        interval=0.25, cooldown=0.5))
    scaler.run_trace(trace)
    assert fleet.completed == fleet.offered == trace.num_requests
    assert {event.action for event in scaler.events} == {"up", "down"}
    return fleet


def membership(pm, schedule):
    """Swap, add and remove replicas while requests are in flight."""
    trace = poisson_trace(300.0, 2.0, seed=5, mean_decode_len=64)
    requests = trace.requests
    fleet = FleetEngine(pm, schedule, replicas=2,
                        routing="least-in-flight")
    cuts = [len(requests) * k // 4 for k in range(5)]
    actions = [lambda: fleet.swap_replica(0, schedule),
               fleet.add_replica,
               lambda: fleet.remove_replica(1)]
    for index in range(4):
        chunk = requests[cuts[index]:cuts[index + 1]]
        if index:
            fleet.step(until=chunk[0].arrival)
            assert fleet.in_flight > 0  # a genuinely mid-flight change
            actions[index - 1]()
        for request in chunk:
            fleet.submit(request.arrival, decode_len=request.decode_len)
    fleet.drain()
    assert fleet.completed == fleet.offered == trace.num_requests
    return fleet


#: Digests recorded with the per-replica-clock lockstep.
PINS = {
    "autoscaled":
        "d88a1e586434a231987f05b550f0039640c16aa84b2ccd5518aca0986fb88ca1",
    "closed-least-in-flight-1-tiered":
        "ca65f510097cf5d80eaf177ac0ba25b6298b550762c6c3772273b6bf511092e4",
    "closed-least-in-flight-1-untiered":
        "909a13937fb56482e26feee6a70561395af172dbe7366f8d067af3a906464274",
    "closed-least-in-flight-2-tiered":
        "f46b883526afb3f5210653bd279917584996540e4d6b0d2b1f696c78b0b3d650",
    "closed-least-in-flight-2-untiered":
        "041b1c3d0cc124fcb7950d2d4a9f910bca476314f6c87d98221e66e88a465443",
    "closed-least-in-flight-4-tiered":
        "de64ca00d829b7bc03e091cf02596008c40ed9ce88ca0361fb060adc22ffb4ba",
    "closed-least-in-flight-4-untiered":
        "e8e08cd308c537e435eb38b7d2ac8b76c24b0832c5792896f1fc8fdafed327b7",
    "closed-power-of-two-choices-1-tiered":
        "ca65f510097cf5d80eaf177ac0ba25b6298b550762c6c3772273b6bf511092e4",
    "closed-power-of-two-choices-1-untiered":
        "909a13937fb56482e26feee6a70561395af172dbe7366f8d067af3a906464274",
    "closed-power-of-two-choices-2-tiered":
        "f46b883526afb3f5210653bd279917584996540e4d6b0d2b1f696c78b0b3d650",
    "closed-power-of-two-choices-2-untiered":
        "041b1c3d0cc124fcb7950d2d4a9f910bca476314f6c87d98221e66e88a465443",
    "closed-power-of-two-choices-4-tiered":
        "d3d781ceceac432c293b93a9c2aa7b89c883407a0686c75e1d0e6fe01f9c58e5",
    "closed-power-of-two-choices-4-untiered":
        "2a5da7c5043acb170f40832d16144378049544a0e052bbf404d471d954fe78a2",
    "closed-round-robin-1-tiered":
        "ca65f510097cf5d80eaf177ac0ba25b6298b550762c6c3772273b6bf511092e4",
    "closed-round-robin-1-untiered":
        "909a13937fb56482e26feee6a70561395af172dbe7366f8d067af3a906464274",
    "closed-round-robin-2-tiered":
        "d788c5b30c3a81c3edd26a8d97cf20aecaf33593228f5b990aaf734851620ac8",
    "closed-round-robin-2-untiered":
        "1ca3f36387a108e498495d9bced866aadee1d0e8960a17c57a0e2ea3b222b595",
    "closed-round-robin-4-tiered":
        "8dd68c82ba9cd1b7e99acd17cd869f05b40d1850b27356ae4590a34518353f21",
    "closed-round-robin-4-untiered":
        "8adfa85b358a963d3b7ffb33676ef7efb9071f17ec037096acf99f49da3ba25b",
    "closed-session-affine-1-tiered":
        "ca65f510097cf5d80eaf177ac0ba25b6298b550762c6c3772273b6bf511092e4",
    "closed-session-affine-1-untiered":
        "909a13937fb56482e26feee6a70561395af172dbe7366f8d067af3a906464274",
    "closed-session-affine-2-tiered":
        "faa1e0ef16da9376efb8ab2be89d860cb36b79ee92fbda3f6d6ec07f2c4cdfc5",
    "closed-session-affine-2-untiered":
        "e97f2cbae754f5a8386e484433693477bb039bb5347edd3be29c3bed6b9c010c",
    "closed-session-affine-4-tiered":
        "0d30a328b80763cb89fcd335e8d7fdc5604bc1ccfa95df1f6dbe0577ddf995c3",
    "closed-session-affine-4-untiered":
        "ed7034316fb950ba5ea35972ae81e6db3da105a3c6794ed78b08548056da1ba1",
    "membership":
        "1846059ddedf153f7ba33dc7a6a3d4f49585cba537eb3aada6af05b13ac735a8",
}


def _cases():
    for routing in ROUTINGS:
        for replicas in REPLICAS:
            for tiered in (False, True):
                yield (f"closed-{routing}-{replicas}-"
                       f"{'tiered' if tiered else 'untiered'}",
                       lambda pm, s, r=routing, n=replicas, t=tiered:
                       closed_loop(pm, s, r, n, t))
    yield "autoscaled", autoscaled
    yield "membership", membership


CASES = dict(_cases())


@pytest.mark.parametrize("name", sorted(CASES))
def test_fleet_clock_matches_lockstep_pin(network, name):
    pm, schedule = network
    assert fleet_digest(CASES[name](pm, schedule)) == PINS[name]


if __name__ == "__main__":
    pm, schedule = _network()
    for name in sorted(CASES):
        print(f'    "{name}":\n        '
              f'"{fleet_digest(CASES[name](pm, schedule))}",')
