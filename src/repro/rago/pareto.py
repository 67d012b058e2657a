"""Pareto-frontier utilities.

RAGO's objective space is (TTFT, QPS/chip): minimize the first, maximize
the second. A point is dominated when another point is at least as good
on both axes and strictly better on one.
"""

from __future__ import annotations

from typing import Callable, List, Sequence, TypeVar

T = TypeVar("T")


def pareto_front(items: Sequence[T], cost: Callable[[T], float],
                 value: Callable[[T], float]) -> List[T]:
    """Non-dominated subset of ``items``, sorted by ascending cost.

    Minimizes ``cost`` and maximizes ``value``. Duplicate-cost points keep
    only the best value; a point equal on both axes to a kept point is
    dropped (any one representative suffices).
    """
    if not items:
        return []
    ordered = sorted(items, key=lambda item: (cost(item), -value(item)))
    front: List[T] = []
    best_value = float("-inf")
    last_cost = None
    for item in ordered:
        item_cost = cost(item)
        item_value = value(item)
        if item_value <= best_value:
            continue
        if last_cost is not None and item_cost == last_cost:
            # Same cost, higher value than kept? impossible given sort.
            continue
        front.append(item)
        best_value = item_value
        last_cost = item_cost
    return front


def dominates(cost_a: float, value_a: float, cost_b: float,
              value_b: float) -> bool:
    """Whether point A dominates point B (min cost, max value)."""
    at_least_as_good = cost_a <= cost_b and value_a >= value_b
    strictly_better = cost_a < cost_b or value_a > value_b
    return at_least_as_good and strictly_better
