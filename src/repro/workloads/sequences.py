"""Samplers for sequence-length and retrieval-position distributions.

The paper fixes representative lengths (32-token questions, 256-token
generations) derived from QA and chatbot datasets whose question lengths
range from 6 to 42 tokens (§4); these samplers generate matching
distributions for the discrete-event experiments. Iterative retrievals
trigger "at random intervals ... uniformly distributed across token
positions" (§5.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List

from repro.errors import ConfigError

if TYPE_CHECKING:  # pragma: no cover - typing only
    # numpy is imported inside the samplers, so importing this module
    # (every trace type does) stays cheap.
    import numpy as np


def sample_question_lengths(count: int, low: int = 6, high: int = 42,
                            seed: int = 0) -> np.ndarray:
    """Question lengths drawn uniformly from the QA-dataset range."""
    import numpy as np

    if count <= 0:
        raise ConfigError("count must be positive")
    if not 0 < low <= high:
        raise ConfigError("need 0 < low <= high")
    rng = np.random.default_rng(seed)
    return rng.integers(low, high + 1, size=count)


def sample_decode_lengths(count: int, mean: int = 256, minimum: int = 16,
                          seed: int = 0) -> np.ndarray:
    """Generation lengths with a geometric tail around the mean.

    Long-form QA / chatbot generation lengths are right-skewed; a shifted
    geometric distribution reproduces that while keeping the configured
    mean.
    """
    import numpy as np

    if count <= 0:
        raise ConfigError("count must be positive")
    if minimum <= 0 or mean <= minimum:
        raise ConfigError("need 0 < minimum < mean")
    rng = np.random.default_rng(seed)
    tail_mean = mean - minimum
    tail = rng.geometric(1.0 / tail_mean, size=count) - 1
    return minimum + tail


def sample_retrieval_positions(decode_len: int, num_retrievals: int,
                               seed: int = 0) -> List[int]:
    """Token positions at which one sequence triggers iterative retrievals.

    Positions are distinct, uniform over ``[1, decode_len - 1]`` and
    sorted, matching §5.3's uniform-at-random trigger model. The initial
    (pre-decode) retrieval is not included. Zero retrievals place
    nothing (``[]``), whatever the length.
    """
    import numpy as np

    if decode_len < 1:
        raise ConfigError("decode_len must be positive")
    if num_retrievals < 0:
        raise ConfigError("num_retrievals must be non-negative")
    if num_retrievals == 0:
        return []
    if decode_len == 1:
        raise ConfigError("decode_len must exceed 1 to place a retrieval")
    count = min(num_retrievals, decode_len - 1)
    rng = np.random.default_rng(seed)
    positions = rng.choice(np.arange(1, decode_len), size=count,
                           replace=False)
    return sorted(int(p) for p in positions)
