"""Samplers for sequence-length and retrieval-position distributions.

The paper fixes representative lengths (32-token questions, 256-token
generations) derived from QA and chatbot datasets whose question lengths
range from 6 to 42 tokens (§4); these samplers generate matching
distributions for the discrete-event experiments. Iterative retrievals
trigger "at random intervals ... uniformly distributed across token
positions" (§5.3).
"""

from __future__ import annotations

import math
from typing import List

from repro.errors import ConfigError
from repro.sim.rng import PCG64Stream


def sample_question_lengths(count: int, low: int = 6, high: int = 42,
                            seed: int = 0) -> List[int]:
    """Question lengths drawn uniformly from the QA-dataset range."""
    if count <= 0:
        raise ConfigError("count must be positive")
    if not 0 < low <= high:
        raise ConfigError("need 0 < low <= high")
    rng = PCG64Stream(seed)
    return [rng.integers(low, high + 1) for _ in range(count)]


def sample_decode_lengths(count: int, mean: int = 256, minimum: int = 16,
                          seed: int = 0) -> List[int]:
    """Generation lengths with a geometric tail around the mean.

    Long-form QA / chatbot generation lengths are right-skewed; a shifted
    geometric distribution reproduces that while keeping the configured
    mean.
    """
    if count <= 0:
        raise ConfigError("count must be positive")
    if not 0 < minimum < mean < math.inf:
        raise ConfigError("need 0 < minimum < mean (finite)")
    rng = PCG64Stream(seed)
    p = 1.0 / (mean - minimum)
    # A geometric draw counts trials from 1, so the tail starts at 0.
    return [minimum - 1 + rng.geometric(p) for _ in range(count)]


def sample_retrieval_positions(decode_len: int, num_retrievals: int,
                               seed: int = 0) -> List[int]:
    """Token positions at which one sequence triggers iterative retrievals.

    Positions are distinct, uniform over ``[1, decode_len - 1]`` and
    sorted, matching §5.3's uniform-at-random trigger model. The initial
    (pre-decode) retrieval is not included. Zero retrievals place
    nothing (``[]``), whatever the length.
    """
    if decode_len < 1:
        raise ConfigError("decode_len must be positive")
    if num_retrievals < 0:
        raise ConfigError("num_retrievals must be non-negative")
    if num_retrievals == 0:
        return []
    if decode_len == 1:
        raise ConfigError("decode_len must exceed 1 to place a retrieval")
    count = min(num_retrievals, decode_len - 1)
    picks = PCG64Stream(seed).choice(decode_len - 1, count)
    return sorted(pick + 1 for pick in picks)
