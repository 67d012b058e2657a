"""Resource-allocation enumeration (§6.1 [II]).

XPU counts are assigned per placement group in powers-of-two scaling
factors (§4); an allocation is feasible when every group gets at least
the chips its largest model needs for weight capacity and the total stays
within the budget.
"""

from __future__ import annotations

from typing import Iterator, List, Sequence, Tuple

from repro.errors import ConfigError


def power_of_two_options(minimum: int, maximum: int) -> List[int]:
    """Powers of two in ``[minimum, maximum]`` (minimum rounded up)."""
    if minimum <= 0 or maximum <= 0:
        raise ConfigError("bounds must be positive")
    options: List[int] = []
    value = 1
    while value < minimum:
        value *= 2
    while value <= maximum:
        options.append(value)
        value *= 2
    return options


def enumerate_allocations(group_minimums: Sequence[int],
                          budget: int) -> Iterator[Tuple[int, ...]]:
    """Yield power-of-two chip allocations per group within a budget.

    Allocations come in lexicographic order: each step doubles the last
    group that can still double (the groups after it back at their
    floors), so the search's prefix reuse and its staircase's "exact
    ties keep the first seen" rule see a fixed order.

    Args:
        group_minimums: Minimum chips each group needs (model capacity).
        budget: Total XPUs available.

    Yields:
        Tuples of chips per group, same order as ``group_minimums``.

    Raises:
        ConfigError: when even the minimums exceed the budget (no yield
            would ever happen -- surfacing it is friendlier).
    """
    if budget <= 0:
        raise ConfigError("budget must be positive")
    if not group_minimums:
        yield ()
        return
    # Each group's floor: its smallest power of two within the budget.
    floors = []
    for minimum in group_minimums:
        options = power_of_two_options(minimum, budget)
        floors.append(options[0] if options else budget + 1)
    if sum(floors) > budget:
        raise ConfigError(
            f"group minimums {list(group_minimums)} cannot fit in a "
            f"{budget}-XPU budget"
        )
    chips = list(floors)
    spare = budget - sum(floors)
    while True:
        yield tuple(chips)
        # Doubling group ``index`` costs its chips and frees what the
        # groups after it hold above their floors.
        index = len(chips) - 1
        freed = 0
        while chips[index] > spare + freed:
            freed += chips[index] - floors[index]
            index -= 1
            if index < 0:
                return
        spare += freed - chips[index]
        chips[index] *= 2
        chips[index + 1:] = floors[index + 1:]
