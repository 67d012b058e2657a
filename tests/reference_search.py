"""Test-only reference for the schedule search's serial merge.

:func:`reference_serial_merge` is the brute-force composition the
shipped :func:`repro.rago.search._serial_merge` replaces: the full
``(i, j)``-ordered cross product, then :func:`~repro.rago.search._prune`.
``tests/test_properties.py`` pins the two to equal lists on random
fronts, and ``tests/test_rago_search.py`` pins whole searches run with
either merge to equal results.
"""

from repro.rago.search import _prune


def reference_serial_merge(left, right):
    """TTFT adds, QPS takes the min, over every pair; then prune."""
    return _prune([(a_ttft + b_ttft, min(a_qps, b_qps), a_choices + b_choices)
                   for a_ttft, a_qps, a_choices in left
                   for b_ttft, b_qps, b_choices in right])
