"""Test-only references for the schedule search.

:func:`reference_serial_merge` is the brute-force composition the
shipped :func:`repro.rago.search._serial_merge` replaces: the full
``(i, j)``-ordered cross product, then :func:`~repro.rago.search._prune`.
:class:`CollectAllFront` is the candidate pile the shipped
:class:`repro.rago.search._Staircase` replaces: every offered candidate
is kept, and one :func:`~repro.rago.pareto.pareto_front` runs at the
end. ``tests/test_properties.py`` pins each pair on random inputs, and
``tests/test_rago_search.py`` pins whole searches run with either
member of a pair to equal results.
"""

from repro.rago.pareto import pareto_front
from repro.rago.search import _prune


def reference_serial_merge(left, right):
    """TTFT adds, QPS takes the min, over every pair; then prune."""
    return _prune([(a_ttft + b_ttft, min(a_qps, b_qps), a_choices + b_choices)
                   for a_ttft, a_qps, a_choices in left
                   for b_ttft, b_qps, b_choices in right])


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
