"""Seeded, dependency-free randomness for simulation and workloads.

Simulation paths must not touch the process-global RNG (the
``seeded-rng-required`` lint rule enforces this): every random draw a
policy or a workload generator makes has to flow from an explicitly
injected seed so two runs of the same configuration are bit-identical.
This module owns the two sanctioned streams, both pure Python, small
enough to need no imports and stable across platforms and Python
versions:

* :class:`DeterministicRNG` -- a SplitMix64 integer stream, the
  standard seed-expansion generator. Routing and user populations draw
  from it.
* :class:`PCG64Stream` -- a draw-for-draw copy of
  ``numpy.random.default_rng(seed)`` (``SeedSequence`` seeding, the
  PCG64 XSL-RR generator, numpy's ziggurat exponential, Lemire-bounded
  integers) for the few draws the trace generators, the sequence
  samplers and the iterative-decode model make. It keeps every seeded
  trace, and so every pinned payload digest, identical to the numpy
  streams they were defined by, without loading numpy into the serving
  process; and this module, not a numpy release, now fixes them.

There are two because moving the trace draws onto SplitMix64 changes
every seeded trace and so every pinned benchmark digest; that re-pin
waits for the next change to the benchmark.
"""

from __future__ import annotations

import math
import operator
from typing import List, Optional, Sequence, Tuple

__all__ = ["DeterministicRNG", "PCG64Stream"]

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1


class DeterministicRNG:
    """A seeded SplitMix64 stream with the few draws policies need.

    Deterministic per seed by construction: the same seed always
    yields the same draw sequence, and nearby seeds diverge after one
    step (SplitMix64's avalanche constant mixes the counter fully).
    """

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        """The next 64-bit draw of the stream."""
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        mixed = self._state
        mixed = ((mixed ^ (mixed >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        mixed = ((mixed ^ (mixed >> 27)) * 0x94D049BB133111EB) & _MASK64
        return mixed ^ (mixed >> 31)

    def randrange(self, bound: int) -> int:
        """A draw in ``[0, bound)`` (rejection-sampled, unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        # Reject the tail that would bias small residues.
        limit = _MASK64 - (_MASK64 + 1) % bound
        while True:
            draw = self.next_u64()
            if draw <= limit:
                return draw % bound

    def sample_pair(self, count: int) -> Tuple[int, int]:
        """Two distinct indices from ``range(count)`` (count >= 2)."""
        if count < 2:
            raise ValueError("need at least two candidates")
        first = self.randrange(count)
        second = self.randrange(count - 1)
        if second >= first:
            second += 1
        return first, second


# ---------------------------------------------------------------------------
# numpy's SeedSequence, for one non-negative integer of entropy.
# ---------------------------------------------------------------------------

_INIT_A = 0x43B0D7E5
_MULT_A = 0x931E8875
_INIT_B = 0x8B51F9DD
_MULT_B = 0x58F38DED
_MIX_MULT_L = 0xCA01F9DD
_MIX_MULT_R = 0x4973F715
_POOL_SIZE = 4


def _hash_chain(start: int, mult: int, steps: int) -> List[int]:
    """``start`` and its ``steps`` successive 32-bit products by
    ``mult``: the hash constant before and after each hash step."""
    chain = [start]
    for _ in range(steps):
        chain.append(chain[-1] * mult & _MASK32)
    return chain


#: The pool hash for one to four entropy words: 4 seeding steps plus
#: 12 cross-mixing steps.
_CHAIN_A = _hash_chain(_INIT_A, _MULT_A, 16)
#: The output hash of ``generate_state(4, uint64)``: 8 32-bit words.
_CHAIN_B = _hash_chain(_INIT_B, _MULT_B, 8)
#: The cross-mixing order: every pool word into every other one.
_MIXES = tuple((src, dst) for src in range(_POOL_SIZE)
               for dst in range(_POOL_SIZE) if src != dst)


def _seed_words(seed: int) -> List[int]:
    """``SeedSequence(seed).generate_state(4, uint64)`` as ints.

    The hash constant evolves independently of the data, so its chain
    is precomputed and each hash step (value ^ h[k], times h[k + 1],
    xor-shift 16) is written inline.
    """
    entropy = [seed & _MASK32]
    seed >>= 32
    while seed:
        entropy.append(seed & _MASK32)
        seed >>= 32
    extra = entropy[_POOL_SIZE:]
    chain = _CHAIN_A if not extra else _hash_chain(
        _INIT_A, _MULT_A, 16 + _POOL_SIZE * len(extra))
    entropy += [0] * (_POOL_SIZE - len(entropy))
    pool = []
    for k in range(_POOL_SIZE):
        value = (entropy[k] ^ chain[k]) * chain[k + 1] & _MASK32
        pool.append(value ^ value >> 16)
    k = _POOL_SIZE
    for src, dst in _MIXES:
        value = (pool[src] ^ chain[k]) * chain[k + 1] & _MASK32
        k += 1
        mixed = (_MIX_MULT_L * pool[dst]
                 - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
        pool[dst] = mixed ^ mixed >> 16
    for word in extra:
        for dst in range(_POOL_SIZE):
            value = (word ^ chain[k]) * chain[k + 1] & _MASK32
            k += 1
            mixed = (_MIX_MULT_L * pool[dst]
                     - _MIX_MULT_R * (value ^ value >> 16)) & _MASK32
            pool[dst] = mixed ^ mixed >> 16
    halves = []
    for k in range(2 * _POOL_SIZE):
        value = (pool[k % _POOL_SIZE] ^ _CHAIN_B[k]) * _CHAIN_B[k + 1] \
            & _MASK32
        halves.append(value ^ value >> 16)
    # Little-endian pairs of 32-bit words make the 64-bit words.
    return [halves[i] | halves[i + 1] << 32 for i in range(0, 8, 2)]


# ---------------------------------------------------------------------------
# numpy's 256-layer exponential ziggurat.
# ---------------------------------------------------------------------------

#: The ziggurat's rightmost layer edge, as numpy's tables define it.
_ZIGGURAT_R = "7.6971174701310497140446280481"
_ZIGGURAT_R_FLOAT = float(_ZIGGURAT_R)

#: ``(ke, we, fe)``; built on the first exponential draw, not at import
#: (the build takes tens of milliseconds and routing imports this module).
_exp_tables: Optional[Tuple[Sequence[int], Sequence[float],
                            Sequence[float]]] = None


def _exponential_tables() -> Tuple[Sequence[int], Sequence[float],
                                   Sequence[float]]:
    """numpy's ``ke_double`` / ``we_double`` / ``fe_double``.

    Marsaglia and Tsang's recurrence, carried in 40-digit decimals and
    rounded once: carried in doubles it lands an ulp off numpy's tables
    and changes draws. Each layer's ``exp(-x)`` is the recurrence's own
    ``v / x + exp(-x_prev)``, so only one logarithm per layer is taken.
    """
    global _exp_tables
    if _exp_tables is None:
        from decimal import Context, Decimal

        context = Context(prec=40)
        r = Decimal(_ZIGGURAT_R)
        scale = Decimal(2) ** 53  # the 53-bit draw each layer scales
        f = context.exp(-r)
        v = context.multiply(f, 1 + r)  # every layer's area
        ke = [0] * 256
        we = [0.0] * 256
        fe = [0.0] * 256
        ke[0] = int(context.multiply(context.divide(r, 1 + r), scale))
        we[0] = float(context.divide(1 + r, scale))
        we[255] = float(context.divide(r, scale))
        fe[0] = 1.0
        fe[255] = float(f)
        edge = previous = r
        for i in range(254, 0, -1):
            f = context.add(context.divide(v, edge), f)
            edge = -context.ln(f)
            ke[i + 1] = int(context.multiply(context.divide(edge, previous),
                                             scale))
            previous = edge
            fe[i] = float(f)
            we[i] = float(context.divide(edge, scale))
        _exp_tables = (tuple(ke), tuple(we), tuple(fe))
    return _exp_tables


class PCG64Stream:
    """``numpy.random.default_rng(seed)``'s stream, draw for draw.

    Implements only the draws this repository makes, each matching the
    numpy ``Generator`` method of the same name on the same seed and
    call sequence (the parity suite pins this against numpy, and pins
    the first draws without it). Like numpy's ``PCG64`` it keeps the
    unused high half of a 64-bit draw for the next 32-bit one.
    """

    __slots__ = ("_state", "_inc", "_half")

    _MULTIPLIER = 0x2360ED051FC65DA44385DF649FCCF645

    def __init__(self, seed: int) -> None:
        seed = operator.index(seed)
        if seed < 0:
            raise ValueError(f"seed must be non-negative, got {seed}")
        s0, s1, s2, s3 = _seed_words(seed)
        self._inc = ((s2 << 64 | s3) << 1 | 1) & _MASK128
        state = self._inc  # state 0, one step
        state = (state + (s0 << 64 | s1)) & _MASK128
        self._state = (state * self._MULTIPLIER + self._inc) & _MASK128
        self._half: Optional[int] = None

    def next_u64(self) -> int:
        """The next 64-bit output (one LCG step, then XSL-RR)."""
        state = self._state = ((self._state * self._MULTIPLIER + self._inc)
                               & _MASK128)
        rot = state >> 122
        word = ((state >> 64) ^ state) & _MASK64
        return ((word >> rot) | (word << (64 - rot))) & _MASK64

    def next_u32(self) -> int:
        """The next 32-bit output: the low half of a fresh 64-bit draw,
        then its high half."""
        half = self._half
        if half is not None:
            self._half = None
            return half
        word = self.next_u64()
        self._half = word >> 32
        return word & _MASK32

    def random(self) -> float:
        """A double in ``[0, 1)`` (``Generator.random`` and
        ``Generator.uniform()``)."""
        return (self.next_u64() >> 11) * (1.0 / 9007199254740992.0)

    def standard_exponential(self) -> float:
        """An Exp(1) draw from numpy's 256-layer ziggurat."""
        ke, we, fe = _exp_tables or _exponential_tables()
        while True:
            bits = self.next_u64() >> 3
            idx = bits & 0xFF
            bits >>= 8
            x = bits * we[idx]
            if bits < ke[idx]:
                return x
            if idx == 0:
                return _ZIGGURAT_R_FLOAT - math.log1p(-self.random())
            if (fe[idx - 1] - fe[idx]) * self.random() + fe[idx] \
                    < math.exp(-x):
                return x

    def exponential(self, scale: float = 1.0) -> float:
        """An exponential draw with mean ``scale``."""
        return scale * self.standard_exponential()

    def geometric(self, p: float) -> int:
        """Trials to the first success, success probability ``p``
        (search for large ``p``, inversion below 1/3)."""
        if p >= 1.0 / 3.0:
            draw = self.random()
            trials = 1
            total = prod = p
            q = 1.0 - p
            while draw > total:
                prod *= q
                total += prod
                trials += 1
            return trials
        z = math.ceil(-self.standard_exponential() / math.log1p(-p))
        # 9.223372036854776e18 is the smallest double above INT64_MAX.
        return (1 << 63) - 1 if z >= 9.223372036854776e18 else int(z)

    def _bounded(self, top: int) -> int:
        """A draw in ``[0, top]`` by Lemire's multiply-and-reject, on
        32-bit draws when ``top`` fits in 32 bits."""
        if top == 0:
            return 0
        if top == _MASK32:
            return self.next_u32()
        if top == _MASK64:
            return self.next_u64()
        if top < _MASK32:
            draw, bits, mask = self.next_u32, 32, _MASK32
        else:
            draw, bits, mask = self.next_u64, 64, _MASK64
        bound = top + 1
        product = draw() * bound
        if product & mask < bound:
            threshold = (mask - top) % bound
            while product & mask < threshold:
                product = draw() * bound
        return product >> bits

    def integers(self, low: int, high: int) -> int:
        """An integer in ``[low, high)``."""
        if high <= low:
            raise ValueError("high must exceed low")
        return low + self._bounded(high - 1 - low)

    def choice(self, population: int, size: int) -> List[int]:
        """``size`` distinct draws from ``range(population)`` in
        numpy's order (``Generator.choice(population, size,
        replace=False)``)."""
        if not 0 <= size <= population:
            raise ValueError("need 0 <= size <= population")
        bounded = self._bounded
        if population > 10000 and size > population // 50:
            # A partial Fisher-Yates shuffle of the tail.
            pool = list(range(population))
            for i in range(population - 1, max(population - size, 1) - 1,
                           -1):
                j = bounded(i)
                pool[i], pool[j] = pool[j], pool[i]
            return pool[population - size:]
        # Floyd's algorithm, then a shuffle of the picks.
        picks: List[int] = []
        seen = set()
        for j in range(population - size, population):
            value = bounded(j)
            if value in seen:
                value = j
            seen.add(value)
            picks.append(value)
        for i in range(size - 1, 0, -1):
            j = bounded(i)
            picks[i], picks[j] = picks[j], picks[i]
        return picks
