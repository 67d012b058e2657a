"""Benchmark: the full interprocedural lint vs the syntactic pass.

The interprocedural rules (callgraph + fixpoint effect inference) must
not make ``repro lint`` noticeably slower than the original per-module
rule corpus. Each module's callgraph is extracted once per run, in
memory; after one warm-up pass (imports, first-use compiles) the full
12-rule lint of the shipped tree has a 1.5x budget against the
original 8-rule syntactic pass.
"""

import time
from pathlib import Path

from repro.analysis import lint_paths

SRC_REPRO = str(Path(__file__).resolve().parent.parent / "src" / "repro")

#: The syntactic rule corpus as of the per-module linter (the
#: comparison baseline: everything that runs without the callgraph).
SYNTACTIC_RULES = [
    "no-wallclock-in-sim",
    "seeded-rng-required",
    "listener-rebind",
    "registry-drift",
    "mutable-default-arg",
    "unsorted-dict-iteration-in-reporting",
    "no-per-event-allocation-in-hot-loop",
    "no-blocking-io-in-coordinator",
]


def _best_of(runs, fn):
    elapsed = []
    for _ in range(runs):
        start = time.perf_counter()
        fn()
        elapsed.append(time.perf_counter() - start)
    return min(elapsed)


def test_bench_lint_cache_warm(benchmark):
    first = _best_of(1, lambda: lint_paths([SRC_REPRO]))
    syntactic = _best_of(
        2, lambda: lint_paths([SRC_REPRO], rules=SYNTACTIC_RULES))
    full = benchmark.pedantic(
        lambda: _best_of(2, lambda: lint_paths([SRC_REPRO])),
        iterations=1, rounds=1)
    print()
    print(f"syntactic 8-rule pass: {syntactic * 1e3:.0f} ms")
    print(f"full 12-rule pass, first run: {first * 1e3:.0f} ms")
    print(f"full 12-rule pass: {full * 1e3:.0f} ms "
          f"({full / syntactic:.2f}x syntactic)")
    # Acceptance budget: the full interprocedural lint within 1.5x of
    # the syntactic pass.
    assert full <= 1.5 * syntactic
