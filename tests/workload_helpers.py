"""Arrival patterns the tests build by hand (not a library surface)."""

from typing import List

import numpy as np

from repro.errors import ConfigError


def burst_arrivals(burst_size: int, period: float, num_bursts: int = 1,
                   jitter: float = 0.0, seed: int = 0) -> List[float]:
    """Arrival times of periodic request bursts.

    Args:
        burst_size: Requests arriving (near-)simultaneously per burst.
        period: Seconds between bursts.
        num_bursts: Number of bursts.
        jitter: Uniform per-request arrival jitter within a burst, in
            seconds (0 = truly simultaneous).
        seed: RNG seed.

    Returns:
        Sorted arrival times.
    """
    if burst_size <= 0 or num_bursts <= 0:
        raise ConfigError("burst_size and num_bursts must be positive")
    if period < 0 or jitter < 0:
        raise ConfigError("period and jitter must be non-negative")
    rng = np.random.default_rng(seed)
    times: List[float] = []
    for burst in range(num_bursts):
        base = burst * period
        for _ in range(burst_size):
            offset = rng.uniform(0.0, jitter) if jitter else 0.0
            times.append(base + offset)
    return sorted(times)
