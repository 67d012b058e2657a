"""Pareto-frontier utility tests."""

from repro.rago import pareto_front
from repro.rago.pareto import dominates


def front_of(points):
    return pareto_front(points, cost=lambda p: p[0], value=lambda p: p[1])


def test_single_point():
    assert front_of([(1.0, 2.0)]) == [(1.0, 2.0)]


def test_dominated_point_removed():
    points = [(1.0, 10.0), (2.0, 5.0)]
    assert front_of(points) == [(1.0, 10.0)]


def test_incomparable_points_kept():
    points = [(1.0, 5.0), (2.0, 10.0)]
    assert front_of(points) == points


def test_sorted_by_cost():
    points = [(3.0, 30.0), (1.0, 10.0), (2.0, 20.0)]
    assert front_of(points) == [(1.0, 10.0), (2.0, 20.0), (3.0, 30.0)]


def test_duplicate_costs_keep_best_value():
    points = [(1.0, 5.0), (1.0, 9.0), (2.0, 10.0)]
    assert front_of(points) == [(1.0, 9.0), (2.0, 10.0)]


def test_equal_points_deduplicated():
    points = [(1.0, 5.0), (1.0, 5.0)]
    assert front_of(points) == [(1.0, 5.0)]


def test_empty_input():
    assert front_of([]) == []


def test_classic_staircase():
    points = [(1, 1), (2, 3), (3, 2), (4, 5), (5, 4)]
    assert front_of(points) == [(1, 1), (2, 3), (4, 5)]


def test_dominates_relation():
    assert dominates(1.0, 10.0, 2.0, 5.0)
    assert not dominates(2.0, 5.0, 1.0, 10.0)
    assert not dominates(1.0, 10.0, 1.0, 10.0)  # equal: no strict gain
    assert dominates(1.0, 10.0, 1.0, 9.0)
