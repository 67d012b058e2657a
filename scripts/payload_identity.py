#!/usr/bin/env python3
"""Compare the CLI's ``--json`` payloads of two source trees.

A refactor must not move what the CLI computes. This runs the same 14
commands -- replay (r1-r8: scenarios, a recorded trace, closed loops,
fleets, autoscaling, routing and admission policies), whatif (w1),
optimize (o1-o3), a Case III replay (c3) and a sweep on the process
pool (s1) -- once against each tree
and checks that every ``--json`` payload is byte-equal and that stdout
is equal apart from ``wrote ...`` lines. It prints ``<name> same`` or
``<name> DIFF`` per payload and exits 1 on any DIFF that is not
allowed. A change that re-pins a payload on purpose says so with
``--allow NAME``.

Run (from the repository root; ~1 min per tree on 2 vCPUs)::

    P=$(mktemp -d); git archive HEAD~1 | tar -x -C "$P"
    python scripts/payload_identity.py "$P/src" src [--allow w1]
"""

import argparse
import os
import subprocess
import sys
import tempfile

W = ["--case", "i", "--llm", "1B", "--servers", "16"]
POP = ["--population", "users=16,think=0.3,tiers=free-paid"]
AUTO = "policy=queue-depth,min=1,max=3,up=32,down=8"
#: Payload name -> CLI argv (``{trace}`` is the recorded-trace path).
COMMANDS = {
    "r1": ["replay", "--scenario", "bursty", "--duration", "3", *W],
    "r2": ["replay", "--trace", "{trace}", *W],
    "r3": ["replay", "--duration", "6", *POP, *W],
    "r4": ["replay", "--duration", "4", *POP, "--replicas", "2",
           "--routing", "session-affine", *W],
    "r5": ["replay", "--scenario", "diurnal", "--duration", "6",
           "--load", "2.0", "--autoscale", AUTO, *W],
    "r6": ["replay", "--duration", "3", "--replicas", "3", "--routing",
           "least-in-flight", "--admission", "token-budget=4096", *W],
    "r7": ["replay", "--duration", "3", "--routing",
           "power-of-two-choices", *W],
    "r8": ["replay", "--duration", "4", *POP, "--replicas", "3",
           "--routing", "power-of-two-choices", "--admission", "priority",
           *W],
    "w1": ["whatif", "--scenario", "diurnal", "--duration", "4",
           "--schedules", "2", "--replicas", "1,2", "--routing",
           "none;least-in-flight", "--autoscale", f"none;{AUTO}", *W],
    "o1": ["optimize", *W],
    # o2 is the bench `search` workload; o3 is Case II (the brute-force
    # retrieval path and the encoder); c3 is Case III.
    "o2": ["optimize", "--case", "iv", "--llm", "70B", "--servers", "16"],
    "o3": ["optimize", "--case", "ii", "--llm", "70B", "--servers", "16"],
    "c3": ["replay", "--case", "iii", "--llm", "8B", "--servers", "16",
           "--duration", "3"],
    # s1 runs OptimizerSession.sweep's cells through the process pool
    # (pickling, the initializer, chunking). One worker keeps its
    # worker table byte-stable: with two, the per-worker cell split
    # varies from run to run.
    "s1": ["sweep", "--case", "i", "--llms", "1B,8B", "--servers", "8,16",
           "--backend", "process", "--workers", "1"],
}


def run_cli(src: str, argv, cwd: str) -> subprocess.CompletedProcess:
    """``python -m repro ARGV`` with ``src`` first on ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    return subprocess.run([sys.executable, "-m", "repro", *argv], cwd=cwd,
                          env=env, capture_output=True, text=True,
                          check=False)


def run_side(src: str, workdir: str, trace: str) -> None:
    """Every command against ``src``, its payload and stdout in
    ``workdir``."""
    for name, argv in COMMANDS.items():
        argv = [token.format(trace=trace) for token in argv]
        run = run_cli(src, argv + ["--json", f"{name}.json"], workdir)
        with open(os.path.join(workdir, f"{name}.out"), "w",
                  encoding="utf-8") as handle:
            handle.write(run.stdout + run.stderr)


def read(path: str) -> bytes:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except FileNotFoundError:
        return b""


def same(parent: str, change: str, name: str) -> bool:
    """Equal payloads (a missing one compares as empty) and equal
    stdout apart from ``wrote`` lines."""
    def stdout(side):
        return [line for line in read(os.path.join(
            side, f"{name}.out")).splitlines()
            if not line.startswith(b"wrote")]

    payload = read(os.path.join(parent, f"{name}.json"))
    return bool(payload) \
        and payload == read(os.path.join(change, f"{name}.json")) \
        and stdout(parent) == stdout(change)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_src", help="the base tree's src/")
    parser.add_argument("change_src", help="the changed tree's src/")
    parser.add_argument("--allow", action="append", default=[],
                        choices=sorted(COMMANDS), metavar="NAME",
                        help="a payload this change re-pins on purpose "
                             "(repeatable)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as root:
        trace = os.path.join(root, "anon.jsonl")
        make_trace = ("from repro.workloads import poisson_trace\n"
                      f"poisson_trace(100, 2.0, seed=5).to_jsonl({trace!r})")
        subprocess.run([sys.executable, "-c", make_trace], check=True,
                       env=dict(os.environ, PYTHONPATH=os.path.abspath(
                           args.change_src)))
        sides = []
        for side, src in (("parent", args.parent_src),
                          ("change", args.change_src)):
            workdir = os.path.join(root, side)
            os.mkdir(workdir)
            run_side(src, workdir, trace)
            sides.append(workdir)
        failed = False
        for name in COMMANDS:
            if same(*sides, name):
                print(f"{name} same")
                continue
            allowed = name in args.allow
            failed = failed or not allowed
            print(f"{name} DIFF" + (" (allowed)" if allowed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
