"""Test-only references for the schedule search.

:func:`reference_serial_merge` is the brute-force composition the
shipped :func:`repro.rago.search._serial_merge` replaces: the full
``(i, j)``-ordered cross product, then :func:`~repro.rago.search._prune`.
:func:`reference_merge_count` is the length of those merges, which the
shipped :func:`repro.rago.search._merge_count` walks without building
them. :func:`reference_allocations` is the recursive generator the flat
:func:`repro.rago.allocation.enumerate_allocations` replaces.
:class:`CollectAllFront` is the candidate pile the shipped
:class:`repro.rago.search._Staircase` replaces: every offered candidate
is kept, and one :func:`~repro.rago.pareto.pareto_front` runs at the
end. ``tests/test_properties.py`` pins each pair on random inputs, and
``tests/test_rago_search.py`` pins whole searches run with either
member of a pair to equal results.
"""

from repro.errors import ConfigError
from repro.rago.allocation import power_of_two_options
from repro.rago.pareto import pareto_front
from repro.rago.search import _prune


def reference_serial_merge(left, right):
    """TTFT adds, QPS takes the min, over every pair; then prune."""
    return _prune([(a_ttft + b_ttft, min(a_qps, b_qps), a_choices + b_choices)
                   for a_ttft, a_qps, a_choices in left
                   for b_ttft, b_qps, b_choices in right])


def reference_merge_count(left, right=None, tail=None):
    """``len`` of ``left`` merged with ``right``, then with ``tail``,
    each merge by :func:`reference_serial_merge`."""
    merged = left
    for operand in (right, tail):
        if operand is not None:
            merged = reference_serial_merge(merged, operand)
    return len(merged)


def reference_allocations(group_minimums, budget):
    """Power-of-two allocations per group within a budget, one nested
    generator per group. A minimum whose next power of two is over the
    budget (3 in a 3-XPU budget) raises IndexError here."""
    if budget <= 0:
        raise ConfigError("budget must be positive")
    if not group_minimums:
        yield ()
        return
    floors = [power_of_two_options(minimum, budget)[0]
              if minimum <= budget else budget + 1
              for minimum in group_minimums]
    if sum(floors) > budget:
        raise ConfigError(
            f"group minimums {list(group_minimums)} cannot fit in a "
            f"{budget}-XPU budget"
        )

    def recurse(index, remaining):
        floor_rest = sum(floors[index + 1:])
        options = power_of_two_options(group_minimums[index],
                                       remaining - floor_rest) \
            if remaining - floor_rest >= floors[index] else []
        for chips in options:
            if index == len(group_minimums) - 1:
                yield (chips,)
            else:
                for tail in recurse(index + 1, remaining - chips):
                    yield (chips,) + tail

    yield from recurse(0, budget)


class CollectAllFront:
    """Keeps every offered candidate; covers no plan corner."""

    def __init__(self):
        self._stream = []

    def covers(self, ttft, qps):
        return False

    def offer(self, ttft, qps, item):
        self._stream.append((ttft, qps, item))

    @property
    def items(self):
        return [item for _, _, item in pareto_front(
            self._stream, cost=lambda c: c[0], value=lambda c: c[1])]
