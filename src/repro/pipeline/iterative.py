"""Discrete-event model of iterative retrievals during decoding (Case III).

§5.3 of the paper: sequences pause token generation when they issue a
retrieval; the retrieval is dispatched only once ``iterative_batch``
requests have accumulated, so decoding slots sit idle while peers finish
filling the batch. Fig. 9 studies TPOT under this process and Fig. 10
isolates the idleness by setting the retrieval+prefix latency to zero.

The simulation advances in decode-step ticks: every tick, all actively
decoding sequences emit one token; sequences that hit one of their
(uniform-random) retrieval positions block until the retrieval batch has
been dispatched and completed; queues dispatch in FIFO batches of
``iterative_batch``; a partial batch is flushed only when nothing else
can make progress (the last stragglers must not deadlock).

**Prefetching extension (§8).** The paper observes that PipeRAG-style
data prefetching "will reduce decoding engine idleness during retrieval
operations". With ``prefetch_tokens > 0``, a sequence *issues* its
retrieval that many tokens before the integration position and keeps
decoding while the retrieval is in flight; it only blocks if the result
has not arrived by the time it reaches the position.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigError


@dataclass(frozen=True)
class IterativeDecodeResult:
    """Outcome of one iterative-decoding cohort simulation.

    Attributes:
        total_time: Seconds until every sequence finished decoding.
        normalized_latency: ``total_time`` divided by the no-retrieval
            decoding time (Fig. 10's metric).
        mean_tpot: Mean per-sequence completion time divided by tokens.
        worst_tpot: Cohort completion time divided by tokens (the paper
            reports worst-case TPOT under continuous batching).
        idle_sequence_steps: Total sequence-steps spent blocked on
            retrieval (the idleness Fig. 10 visualizes).
        dispatches: Number of retrieval batches issued.
    """

    total_time: float
    normalized_latency: float
    mean_tpot: float
    worst_tpot: float
    idle_sequence_steps: float
    dispatches: int


_ACTIVE, _BLOCKED, _DONE = range(3)


class _Sequence:
    """Per-sequence simulation state."""

    __slots__ = ("positions", "next_event", "tokens", "status",
                 "queued", "resume_time", "completion")

    def __init__(self, positions: List[int]) -> None:
        self.positions = positions
        self.next_event = 0
        self.tokens = 0
        self.status = _ACTIVE
        self.queued = False        # issued, waiting for batch dispatch
        self.resume_time: Optional[float] = None  # completion of dispatch
        self.completion = 0.0

    @property
    def pending_position(self) -> Optional[int]:
        if self.next_event < len(self.positions):
            return self.positions[self.next_event]
        return None


def simulate_iterative_decode(decode_batch: int, iterative_batch: int,
                              decode_len: int, retrievals_per_seq: int,
                              step_latency: float = 1.0,
                              iteration_latency: float = 0.0,
                              prefetch_tokens: int = 0,
                              seed: int = 0) -> IterativeDecodeResult:
    """Simulate one cohort of sequences decoding with iterative retrievals.

    Args:
        decode_batch: Sequences decoding concurrently.
        iterative_batch: Retrieval requests batched per dispatch.
        decode_len: Tokens each sequence generates.
        retrievals_per_seq: Retrievals triggered *during* decoding (the
            paper's "N retrievals" includes the initial one, so pass
            ``frequency - 1``).
        step_latency: Seconds per decode step.
        iteration_latency: Seconds for one retrieval + prefix iteration
            (0 isolates batching idleness, Fig. 10).
        prefetch_tokens: Issue each retrieval this many tokens before
            its integration position and keep decoding meanwhile (0 =
            the paper's blocking behaviour; >0 = PipeRAG-style
            prefetching, §8).
        seed: RNG seed for retrieval positions.

    Raises:
        ConfigError: on non-positive sizes or too many retrievals to fit
            distinct token positions.
    """
    if decode_batch <= 0 or iterative_batch <= 0:
        raise ConfigError("batch sizes must be positive")
    if decode_len < 1:
        raise ConfigError("decode_len must be positive")
    if retrievals_per_seq < 0:
        raise ConfigError("retrievals_per_seq must be non-negative")
    if retrievals_per_seq > decode_len - 1:
        raise ConfigError("more retrievals than decodable positions")
    if step_latency <= 0:
        raise ConfigError("step_latency must be positive")
    if iteration_latency < 0:
        raise ConfigError("iteration_latency must be non-negative")
    if prefetch_tokens < 0:
        raise ConfigError("prefetch_tokens must be non-negative")

    rng = np.random.default_rng(seed)
    sequences: List[_Sequence] = []
    for _ in range(decode_batch):
        if retrievals_per_seq:
            chosen = rng.choice(np.arange(1, decode_len),
                                size=retrievals_per_seq, replace=False)
            sequences.append(_Sequence(sorted(int(p) for p in chosen)))
        else:
            sequences.append(_Sequence([]))

    paused_queue: List[int] = []
    now = 0.0
    idle_steps = 0.0
    dispatches = 0
    finished = 0

    def dispatch(batch_ids: List[int]) -> None:
        nonlocal dispatches
        dispatches += 1
        for index in batch_ids:
            sequences[index].resume_time = now + iteration_latency

    while finished < decode_batch:
        # Wake sequences whose retrieval iteration has completed.
        for seq in sequences:
            if seq.status == _BLOCKED and seq.resume_time is not None \
                    and seq.resume_time <= now:
                seq.status = _ACTIVE
                seq.queued = False
                seq.resume_time = None
                seq.next_event += 1

        active = [i for i, seq in enumerate(sequences)
                  if seq.status == _ACTIVE]
        if active:
            now += step_latency
            idle_steps += sum(1 for seq in sequences
                              if seq.status == _BLOCKED)
            for index in active:
                seq = sequences[index]
                # A woken sequence may still sit exactly at a completed
                # position; it advances normally below.
                seq.tokens += 1
                position = seq.pending_position
                if position is not None and not seq.queued \
                        and seq.tokens >= max(position - prefetch_tokens, 1):
                    seq.queued = True
                    paused_queue.append(index)
                if position is not None and seq.tokens >= position:
                    if seq.resume_time is not None \
                            and seq.resume_time <= now:
                        # Prefetched result already arrived: integrate
                        # and continue without blocking.
                        seq.queued = False
                        seq.resume_time = None
                        seq.next_event += 1
                        position = None
                    else:
                        seq.status = _BLOCKED
                        continue
                if seq.tokens >= decode_len:
                    seq.status = _DONE
                    seq.completion = now
                    finished += 1
            while len(paused_queue) >= iterative_batch:
                dispatch(paused_queue[:iterative_batch])
                del paused_queue[:iterative_batch]
            continue

        # Nothing is decoding: either jump to the next retrieval
        # completion, or flush a partial batch so stragglers finish.
        in_flight = [seq.resume_time for seq in sequences
                     if seq.status == _BLOCKED
                     and seq.resume_time is not None]
        future = [t for t in in_flight if t > now]
        if future:
            next_wake = min(future)
            idle_steps += ((next_wake - now) / step_latency
                           * sum(1 for seq in sequences
                                 if seq.status == _BLOCKED))
            now = next_wake
        elif paused_queue:
            dispatch(list(paused_queue))
            paused_queue.clear()
        else:  # pragma: no cover - defensive; loop invariant prevents it
            raise ConfigError("iterative simulation stalled")

    baseline = decode_len * step_latency
    completions = [seq.completion for seq in sequences]
    total = now
    return IterativeDecodeResult(
        total_time=total,
        normalized_latency=total / baseline,
        mean_tpot=float(np.mean(completions)) / decode_len,
        worst_tpot=total / decode_len,
        idle_sequence_steps=idle_steps,
        dispatches=dispatches,
    )
