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

    Minimizes ``cost`` and maximizes ``value``. The stable sort by
    ``(cost, -value)`` puts each duplicate-cost group's best value
    first, so keeping every point whose value beats all before it keeps
    one point per cost; of points equal on both axes, the first given.
    """
    ordered = sorted(items, key=lambda item: (cost(item), -value(item)))
    front: List[T] = []
    best_value = float("-inf")
    for item in ordered:
        item_value = value(item)
        if item_value > best_value:
            front.append(item)
            best_value = item_value
    return front


def dominates(cost_a: float, value_a: float, cost_b: float,
              value_b: float) -> bool:
    """Whether point A dominates point B (min cost, max value)."""
    at_least_as_good = cost_a <= cost_b and value_a >= value_b
    strictly_better = cost_a < cost_b or value_a > value_b
    return at_least_as_good and strictly_better
