"""Request traces: first-class workloads for the serving simulator.

A :class:`RequestTrace` stores one stream of requests as columns, one
entry per request in arrival order: ``arrivals``, ``decode_lens``
(None when the workload profile's default length applies to every
request) and the identity columns ``user_ids`` / ``session_ids`` /
``tiers`` (each None when no request carries that field). Metadata
records how the trace was generated (scenario name, rate, seed).
Traces are the currency of the traffic subsystem -- every scenario is
a seeded generator returning one, :meth:`ServingSimulator.run
<repro.sim.ServingSimulator.run>` consumes one, and
:mod:`repro.config` round-trips one, so an experiment's exact traffic
is a reproducible artifact. The columns are the only store: a
:class:`Request` record per request exists only while a caller reads
:attr:`RequestTrace.requests`, and :meth:`RequestTrace.rows` walks the
columns as plain tuples. :func:`trace_from_arrivals` builds a trace
from loose arrival (and decode-length) arrays.

Built-in scenario generators (all seeded):

* :func:`poisson_trace` -- the paper's memoryless baseline,
* :func:`bursty_trace` -- a Markov-modulated (on/off) Poisson process,
  the classic model for flash crowds,
* :func:`diurnal_trace` -- an inhomogeneous Poisson process following a
  sinusoidal rate curve (day/night load), sampled by thinning,
* :meth:`RequestTrace.from_jsonl` -- replay of a recorded trace file.

``SCENARIOS`` maps scenario names to generators for the ``repro
replay`` front-end.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import islice, repeat, starmap
from operator import gt
from typing import (Any, Dict, Iterable, Iterator, List, Mapping, Optional,
                    Sequence, Tuple)

from repro.errors import ConfigError, lookup, parse_json
from repro.sim.rng import PCG64Stream
from repro.workloads.sequences import sample_decode_lengths


@dataclass(frozen=True)
class Request:
    """One request of a trace: arrival, shape, and optional identity.

    Attributes:
        arrival: Non-negative arrival timestamp in seconds.
        decode_len: Optional generation length; None means the
            workload profile's default decode length.
        user_id: Originating user, when the trace models a population.
        session_id: Conversation the request belongs to (correlated
            requests share one), when known.
        tier: The user's SLO tier name (``free`` / ``paid`` / ...),
            when known.
    """

    arrival: float
    decode_len: Optional[int] = None
    user_id: Optional[str] = None
    session_id: Optional[str] = None
    tier: Optional[str] = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.arrival) or self.arrival < 0:
            raise ConfigError("arrival times must be finite and "
                              "non-negative")
        if self.decode_len is not None and self.decode_len <= 0:
            raise ConfigError("decode lengths must be positive")


#: One request as a row of a trace's columns: ``(arrival, decode_len,
#: user_id, session_id, tier)``, None where unset.
Row = Tuple[float, Optional[int], Optional[str], Optional[str],
            Optional[str]]

#: The optional fields of a row, after ``arrival``, in column order.
_OPTIONAL_FIELDS = ("decode_len", "user_id", "session_id", "tier")

#: Rows per ``json.dumps`` call while digesting: bounds the transient
#: text without one encoder call per row.
_DIGEST_CHUNK = 1024


def _transpose(rows: Sequence[Row]) -> Tuple[Sequence[Any], ...]:
    """Five columns from a list of rows (five empty ones from none)."""
    return tuple(zip(*rows)) if rows else ((),) * 5


@dataclass(frozen=True, init=False)
class RequestTrace:
    """One stream of requests plus how it was produced, as columns.

    Attributes:
        arrivals: Arrival timestamps in seconds, sorted.
        decode_lens: Per-request decode lengths, or None when no
            request carries one (the profile default applies).
        user_ids / session_ids / tiers: Per-request identity, one
            column per field; a column is None when no request
            carries that field, so anonymous traces hold arrivals
            (and decode lengths) only.
        metadata: How the trace was produced (scenario name, rate,
            seed, source file ...). JSON-scalar values only, so traces
            serialize exactly.

    ``RequestTrace(requests, metadata)`` transposes :class:`Request`
    records into the columns; :meth:`from_columns` and
    :meth:`from_rows` take them directly. Every way in checks the
    columns once. :attr:`requests` builds the records on each read and
    keeps none. :attr:`requests_digest` caches a content digest of the
    requests (not of the mutable ``metadata``); it takes no part in
    equality, repr or the config envelope.
    """

    arrivals: Tuple[float, ...]
    decode_lens: Optional[Tuple[int, ...]]
    user_ids: Optional[Tuple[Optional[str], ...]]
    session_ids: Optional[Tuple[Optional[str], ...]]
    tiers: Optional[Tuple[Optional[str], ...]]
    metadata: Dict[str, Any]

    def __init__(self, requests: Iterable[Request],
                 metadata: Optional[Dict[str, Any]] = None) -> None:
        rows = []
        for record in requests:
            if not isinstance(record, Request):
                raise ConfigError(
                    f"requests must be Request records, got "
                    f"{type(record).__name__}")
            rows.append((record.arrival, record.decode_len,
                         record.user_id, record.session_id, record.tier))
        self._fill(*_transpose(rows), metadata)

    @classmethod
    def from_columns(cls, arrivals: Iterable[float],
                     decode_lens: Optional[Iterable[Optional[int]]] = None,
                     user_ids: Optional[Iterable[Optional[str]]] = None,
                     session_ids: Optional[Iterable[Optional[str]]] = None,
                     tiers: Optional[Iterable[Optional[str]]] = None,
                     metadata: Optional[Dict[str, Any]] = None,
                     ) -> "RequestTrace":
        """A trace from its columns, checked once.

        Every column other than ``arrivals`` may be None (no request
        carries the field) or hold None entries; a column whose
        entries are all None is stored as None.

        Raises:
            ConfigError: on a column longer or shorter than
                ``arrivals``, a bool, negative or non-finite arrival, a
                non-positive decode length, no requests, unsorted
                arrivals, or decode lengths on some requests only.
        """
        trace = cls.__new__(cls)
        trace._fill(arrivals, decode_lens, user_ids, session_ids, tiers,
                    metadata)
        return trace

    @classmethod
    def from_rows(cls, rows: Sequence[Row],
                  metadata: Optional[Dict[str, Any]] = None,
                  ) -> "RequestTrace":
        """A trace from ``(arrival, decode_len, user_id, session_id,
        tier)`` rows, transposed into the columns (see
        :meth:`from_columns`)."""
        return cls.from_columns(*_transpose(rows), metadata=metadata)

    def _fill(self, arrivals: Iterable[float],
              decode_lens: Optional[Iterable[Optional[int]]],
              user_ids: Optional[Iterable[Optional[str]]],
              session_ids: Optional[Iterable[Optional[str]]],
              tiers: Optional[Iterable[Optional[str]]],
              metadata: Optional[Dict[str, Any]]) -> None:
        """Check the columns and store them (the one column check)."""
        arrivals = tuple(arrivals)
        count = len(arrivals)
        columns = {}
        for name, column in (("decode_lens", decode_lens),
                             ("user_ids", user_ids),
                             ("session_ids", session_ids),
                             ("tiers", tiers)):
            if column is not None:
                column = tuple(column)
                if len(column) != count:
                    raise ConfigError(
                        f"{name} must match arrivals in length")
                if column.count(None) == count:
                    column = None
            columns[name] = column
        lens = columns["decode_lens"]
        if bool in set(map(type, arrivals)):
            arrival = next(value for value in arrivals
                           if type(value) is bool)
            raise ConfigError(
                f"arrival must be a number, got {arrival!r}")
        if not all(0.0 <= arrival < math.inf for arrival in arrivals):
            raise ConfigError("arrival times must be finite and "
                              "non-negative")
        with_lens = 0 if lens is None else count - lens.count(None)
        if with_lens and any(length is not None and length <= 0
                             for length in lens):
            raise ConfigError("decode lengths must be positive")
        if not count:
            raise ConfigError("a trace needs at least one request")
        if any(map(gt, arrivals, islice(arrivals, 1, None))):
            raise ConfigError("arrivals must be sorted")
        if with_lens not in (0, count):
            raise ConfigError(
                f"either every request carries decode_len or none does "
                f"({with_lens} of {count} do)")
        object.__setattr__(self, "arrivals", arrivals)
        for name, column in columns.items():
            object.__setattr__(self, name, column)
        object.__setattr__(self, "metadata",
                           {} if metadata is None else metadata)

    # -- introspection -------------------------------------------------

    def rows(self) -> Iterator[Row]:
        """The requests as ``(arrival, decode_len, user_id,
        session_id, tier)`` tuples in arrival order, read off the
        columns (None where a field is unset)."""
        unset = repeat(None)
        return zip(self.arrivals,
                   *(unset if column is None else column
                     for column in (self.decode_lens, self.user_ids,
                                    self.session_ids, self.tiers)))

    def row_dicts(self) -> Iterator[Dict[str, Any]]:
        """The requests as JSON objects: ``arrival`` plus each other
        field that is set, in column order (the row shape of JSONL
        files and config envelopes)."""
        for row in self.rows():
            entry: Dict[str, Any] = {"arrival": row[0]}
            for key, value in zip(_OPTIONAL_FIELDS, row[1:]):
                if value is not None:
                    entry[key] = value
            yield entry

    @property
    def requests(self) -> Tuple[Request, ...]:
        """The :class:`Request` records, sorted by arrival (built from
        the columns on each read, not kept)."""
        return tuple(starmap(Request, self.rows()))

    @property
    def requests_digest(self) -> str:
        """SHA-256 hex digest of the requests, computed once.

        Two traces share a digest exactly when their requests
        serialize identically in the config envelope: the digest is
        that of the JSON list of rows, each the list of its five
        fields, so ``None`` (JSON ``null``) stays apart from ``""``,
        an unset ``decode_len`` from a set one, and ``-0.0`` from
        ``0.0``. The text is hashed in chunks of rows, so the whole
        list is never built. Safe to cache because the columns are
        immutable tuples; ``metadata`` is a mutable dict and is not
        covered.
        """
        digest = self.__dict__.get("_requests_digest")
        if digest is None:
            hasher = hashlib.sha256(b"[")
            rows = self.rows()
            separator = b""
            while True:
                chunk = list(islice(rows, _DIGEST_CHUNK))
                if not chunk:
                    break
                # json.dumps(rows)'s text, split between rows: drop
                # each chunk's brackets and rejoin with its separator.
                hasher.update(separator
                              + json.dumps(chunk)[1:-1].encode("ascii"))
                separator = b", "
            hasher.update(b"]")
            digest = hasher.hexdigest()
            object.__setattr__(self, "_requests_digest", digest)
        return digest

    @property
    def has_identity(self) -> bool:
        """Whether any request carries user/session/tier identity."""
        return not (self.user_ids is None and self.session_ids is None
                    and self.tiers is None)

    @property
    def num_requests(self) -> int:
        """How many requests the trace injects."""
        return len(self.arrivals)

    @property
    def duration(self) -> float:
        """Seconds from time zero to the last arrival."""
        return self.arrivals[-1]

    @property
    def mean_rate(self) -> float:
        """Average offered load in requests per second."""
        span = self.metadata.get("duration", self.duration)
        if not span:
            return float(len(self.arrivals))
        return len(self.arrivals) / float(span)

    @property
    def scenario(self) -> str:
        """The generating scenario's name (``custom`` when unknown)."""
        return str(self.metadata.get("scenario", "custom"))

    def describe(self) -> str:
        """One-line summary for logs and CLI output."""
        return (f"{self.scenario} trace: {self.num_requests} requests "
                f"over {self.duration:.2f}s (~{self.mean_rate:.1f} QPS)")

    def with_metadata(self, **entries: Any) -> "RequestTrace":
        """A copy with extra metadata entries merged in."""
        merged = dict(self.metadata)
        merged.update(entries)
        return RequestTrace.from_columns(
            self.arrivals, self.decode_lens, self.user_ids,
            self.session_ids, self.tiers, metadata=merged)

    # -- replay files --------------------------------------------------

    def to_jsonl(self, path: str) -> None:
        """Write the trace as JSON Lines.

        The first line carries the metadata; every following line is
        one request (``{"arrival": t}`` plus ``"decode_len"`` and the
        identity fields when set). The format is append-friendly, so
        recorded production logs convert line by line.
        """
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"metadata": self.metadata}) + "\n")
            for row in self.row_dicts():
                handle.write(json.dumps(row) + "\n")

    @classmethod
    def from_jsonl(cls, path: str) -> "RequestTrace":
        """Load a trace written by :meth:`to_jsonl` (or recorded in the
        same shape). Pre-identity files -- bare ``arrival`` /
        ``decode_len`` rows -- load bit-identically.

        Raises:
            ConfigError: on malformed lines (see :func:`request_row`),
                a malformed metadata ``duration``, unsorted arrivals,
                or a mix of requests with and without ``decode_len``.
        """
        metadata: Dict[str, Any] = {}
        rows: List[Row] = []
        try:
            with open(path, "r", encoding="utf-8") as handle:
                lines = handle.readlines()
        except (OSError, UnicodeDecodeError) as error:
            raise ConfigError(f"cannot read trace file: {error}") from error
        for number, line in enumerate(lines, start=1):
            line = line.strip()
            if not line:
                continue
            row = parse_json(line, f"{path}:{number}: invalid JSON")
            if not isinstance(row, dict):
                raise ConfigError(f"{path}:{number}: expected an object")
            if "metadata" in row:
                if not isinstance(row["metadata"], dict):
                    raise ConfigError(
                        f"{path}:{number}: metadata must be an object")
                metadata.update(row["metadata"])
                continue
            rows.append(request_row(row, f"{path}:{number}"))
        if not rows:
            raise ConfigError(f"{path}: trace file holds no requests")
        check_metadata(metadata, path)
        metadata.setdefault("scenario", "replay")
        metadata.setdefault("source", path)
        try:
            return cls.from_rows(rows, metadata)
        except ConfigError as error:
            raise ConfigError(f"{path}: {error}") from None


def request_row(row: Mapping[str, Any], where: str) -> Row:
    """One serialized request -- a JSONL line or a config-envelope
    record -- checked and converted to a :data:`Row`.

    ``arrival`` must be a number that fits a float; ``decode_len``,
    when present, an integer; identity fields are kept as strings
    (None when absent or null). Unknown keys are ignored here (the
    envelope decoder rejects them itself).

    Raises:
        ConfigError: naming ``where`` (the file line or record) on a
            missing or malformed field.
    """
    if "arrival" not in row:
        raise ConfigError(f"{where}: request needs an 'arrival'")
    arrival = row["arrival"]
    if isinstance(arrival, bool) or not isinstance(arrival, (int, float)):
        raise ConfigError(
            f"{where}: arrival must be a number, got {arrival!r}")
    try:
        arrival = float(arrival)
    except OverflowError:
        raise ConfigError(
            f"{where}: arrival is too large for a float") from None
    decode_len = None
    if "decode_len" in row:
        decode_len = row["decode_len"]
        if isinstance(decode_len, bool) or not isinstance(decode_len, int):
            raise ConfigError(
                f"{where}: decode_len must be an integer, got "
                f"{decode_len!r}")
    return (arrival, decode_len,
            *(None if row.get(key) is None else str(row[key])
              for key in _OPTIONAL_FIELDS[1:]))


def check_metadata(metadata: Mapping[str, Any], where: str) -> None:
    """Reject loaded trace metadata whose ``duration`` (the observation
    window rates are taken over) is not a finite non-negative number.

    Raises:
        ConfigError: naming ``where`` on a bool, non-number, NaN,
            infinite, too-large or negative ``duration``.
    """
    if "duration" not in metadata:
        return
    span = metadata["duration"]
    try:
        valid = (not isinstance(span, bool)
                 and isinstance(span, (int, float))
                 and math.isfinite(span) and span >= 0)
    except OverflowError:
        valid = False
    if not valid:
        raise ConfigError(
            f"{where}: metadata duration must be a finite non-negative "
            f"number, got {span!r}")


# ---------------------------------------------------------------------------
# Seeded scenario generators.
# ---------------------------------------------------------------------------

#: sample_decode_lengths' shifted-geometric floor: means at or below it
#: cannot be sampled, so such traces fall back to fixed lengths.
_MIN_SAMPLED_DECODE_LEN = 16


def _decode_lens_for(count: int, mean_decode_len: Optional[int],
                     seed: int) -> Optional[Tuple[int, ...]]:
    """Per-request decode lengths (geometric tail) when a mean is set."""
    if mean_decode_len is None or count == 0:
        return None
    if mean_decode_len <= 0:
        raise ConfigError("mean_decode_len must be positive")
    if mean_decode_len <= _MIN_SAMPLED_DECODE_LEN:
        return (int(mean_decode_len),) * count
    # minimum is passed explicitly so this floor and the sampler's can
    # never drift apart.
    return tuple(sample_decode_lengths(count, mean=mean_decode_len,
                                       minimum=_MIN_SAMPLED_DECODE_LEN,
                                       seed=seed))


def _check_positive(**knobs: float) -> None:
    """Each knob must be a finite positive number: a NaN or infinite
    rate, window or cycle would keep a generator's sampling loop from
    ever terminating."""
    for name, value in knobs.items():
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"{name} must be finite and positive, "
                              f"got {value}")


def _check_core_knobs(rate_qps: float, duration: float, seed: int) -> None:
    """The knobs every generator shares. The seed must be a
    non-negative integer: :class:`~repro.sim.rng.PCG64Stream` would
    refuse anything else with a bare ``TypeError`` or ``ValueError``."""
    _check_positive(rate_qps=rate_qps, duration=duration)
    if isinstance(seed, bool) or not hasattr(type(seed), "__index__"):
        raise ConfigError(f"seed must be an integer, got {seed!r}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _scenario_result(scenario: str, arrivals: List[float],
                     rate_qps: float, duration: float, seed: int,
                     mean_decode_len: Optional[int],
                     **knobs: Any) -> RequestTrace:
    """The shared tail of every scenario generator: reject an empty
    draw, then pack the arrivals with their decode lengths and the
    generator's metadata (core knobs first, then ``knobs`` in order)."""
    if not arrivals:
        raise ConfigError(
            f"{scenario} scenario produced no arrivals (rate {rate_qps} "
            f"over {duration}s with seed {seed}); raise rate or duration")
    return trace_from_arrivals(
        arrivals, _decode_lens_for(len(arrivals), mean_decode_len, seed),
        scenario=scenario, rate_qps=rate_qps, duration=duration,
        seed=seed, mean_decode_len=mean_decode_len, **knobs)


def poisson_trace(rate_qps: float, duration: float, seed: int = 0,
                  mean_decode_len: Optional[int] = None) -> RequestTrace:
    """A homogeneous Poisson request stream.

    Args:
        rate_qps: Mean requests per second.
        duration: Observation window in seconds.
        seed: RNG seed (arrivals and decode lengths both derive from it).
        mean_decode_len: When set, sample per-request decode lengths
            with this mean instead of using the workload default.
    """
    _check_core_knobs(rate_qps, duration, seed)
    rng = PCG64Stream(seed)
    arrivals = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / rate_qps)
        if now >= duration:
            break
        arrivals.append(now)
    return _scenario_result("poisson", arrivals, rate_qps, duration, seed,
                            mean_decode_len)


def bursty_trace(rate_qps: float, duration: float, seed: int = 0,
                 mean_decode_len: Optional[int] = None,
                 burst_factor: float = 4.0, on_fraction: float = 0.2,
                 mean_cycle: float = 2.0) -> RequestTrace:
    """A Markov-modulated on/off Poisson stream (flash-crowd traffic).

    The process alternates between an *on* state serving
    ``burst_factor`` times the baseline rate and an *off* state whose
    rate is scaled down so the long-run average stays ``rate_qps``.
    Sojourn times are exponential, making this a two-state MMPP.

    Args:
        rate_qps: Long-run average requests per second.
        duration: Observation window in seconds.
        seed: RNG seed.
        mean_decode_len: Optional per-request decode-length mean.
        burst_factor: On-state rate as a multiple of ``rate_qps``
            (must exceed 1).
        on_fraction: Long-run fraction of time spent bursting, in
            (0, 1).
        mean_cycle: Mean seconds of one on+off cycle.
    """
    _check_core_knobs(rate_qps, duration, seed)
    if burst_factor <= 1.0:
        raise ConfigError("burst_factor must exceed 1")
    if not 0.0 < on_fraction < 1.0:
        raise ConfigError("on_fraction must be in (0, 1)")
    _check_positive(mean_cycle=mean_cycle)
    on_rate = burst_factor * rate_qps
    off_rate = rate_qps * (1.0 - burst_factor * on_fraction) \
        / (1.0 - on_fraction)
    if off_rate < 0:
        raise ConfigError(
            "burst_factor * on_fraction must not exceed 1 (the off state "
            "cannot have a negative rate)")
    mean_on = on_fraction * mean_cycle
    mean_off = (1.0 - on_fraction) * mean_cycle
    rng = PCG64Stream(seed)
    arrivals = []
    now = 0.0
    bursting = False
    while now < duration:
        sojourn = rng.exponential(mean_on if bursting else mean_off)
        end = min(now + sojourn, duration)
        rate = on_rate if bursting else off_rate
        if rate > 0:
            t = now
            while True:
                t += rng.exponential(1.0 / rate)
                if t >= end:
                    break
                arrivals.append(t)
        now = end
        bursting = not bursting
    return _scenario_result("bursty", arrivals, rate_qps, duration, seed,
                            mean_decode_len, burst_factor=burst_factor,
                            on_fraction=on_fraction, mean_cycle=mean_cycle)


def diurnal_trace(rate_qps: float, duration: float, seed: int = 0,
                  mean_decode_len: Optional[int] = None,
                  amplitude: float = 0.8,
                  period: Optional[float] = None) -> RequestTrace:
    """An inhomogeneous Poisson stream following a sinusoidal rate curve.

    The instantaneous rate is ``rate_qps * (1 + amplitude *
    sin(2*pi*t/period))``, sampled exactly by thinning a homogeneous
    process at the peak rate -- the standard day/night load model
    compressed into the simulated window.

    Args:
        rate_qps: Mean requests per second over one period.
        duration: Observation window in seconds.
        seed: RNG seed.
        mean_decode_len: Optional per-request decode-length mean.
        amplitude: Peak-to-mean swing in [0, 1); 0 degenerates to
            Poisson.
        period: Seconds per day/night cycle; defaults to ``duration``
            (one full cycle inside the window).
    """
    _check_core_knobs(rate_qps, duration, seed)
    if not 0.0 <= amplitude < 1.0:
        raise ConfigError("amplitude must be in [0, 1)")
    cycle = duration if period is None else period
    _check_positive(period=cycle)
    peak = rate_qps * (1.0 + amplitude)
    rng = PCG64Stream(seed)
    arrivals = []
    now = 0.0
    while True:
        now += rng.exponential(1.0 / peak)
        if now >= duration:
            break
        rate = rate_qps * (1.0 + amplitude
                           * math.sin(2.0 * math.pi * now / cycle))
        if rng.random() <= rate / peak:
            arrivals.append(now)
    return _scenario_result("diurnal", arrivals, rate_qps, duration, seed,
                            mean_decode_len, amplitude=amplitude,
                            period=cycle)


#: Scenario name -> generator; every generator shares the
#: (rate_qps, duration, seed, mean_decode_len) core signature.
SCENARIOS = {
    "poisson": poisson_trace,
    "bursty": bursty_trace,
    "diurnal": diurnal_trace,
}


def scenario_trace(name: str, rate_qps: float, duration: float,
                   seed: int = 0, mean_decode_len: Optional[int] = None,
                   **knobs: Any) -> RequestTrace:
    """Generate a built-in scenario by name (the ``repro replay``
    front-end).

    Args:
        name: One of ``poisson``, ``bursty``, ``diurnal``.
        rate_qps / duration / seed / mean_decode_len: Shared core knobs.
        **knobs: Scenario-specific extras (e.g. ``burst_factor``).

    Raises:
        ConfigError: for unknown scenario names or bad knobs.
    """
    generator = lookup(SCENARIOS, name, "scenario")
    try:
        return generator(rate_qps, duration, seed=seed,
                         mean_decode_len=mean_decode_len, **knobs)
    except TypeError as error:
        raise ConfigError(
            f"bad knobs for scenario {name!r}: {error}") from error


def trace_from_arrivals(arrivals: Iterable[float],
                        decode_lens: Optional[Sequence[int]] = None,
                        **metadata: Any) -> RequestTrace:
    """Wrap loose arrival (and optional decode-length) arrays into a
    trace; keyword arguments become its metadata. Arrivals convert
    with ``float`` and lengths with ``int``."""
    return RequestTrace.from_columns(
        tuple(float(arrival) for arrival in arrivals),
        None if decode_lens is None
        else tuple(int(length) for length in decode_lens),
        metadata=metadata)


# ---------------------------------------------------------------------------
# Trace analytics (the `repro trace` inspection subcommand).
# ---------------------------------------------------------------------------


def rate_curve(trace: RequestTrace,
               bins: int = 24) -> List[Tuple[float, float]]:
    """The trace's arrival-rate curve as (bin center, QPS) points.

    The observation window is the trace's generating ``duration`` when
    recorded in metadata (so trailing silence shows up as a zero-rate
    tail), otherwise the span to the last arrival.

    Raises:
        ConfigError: on a non-positive bin count.
    """
    if bins < 1:
        raise ConfigError("bins must be at least 1")
    span = float(trace.metadata.get("duration", trace.duration))
    if span <= 0:
        # All arrivals at one instant: a single spike bin.
        return [(trace.arrivals[0], float(trace.num_requests))]
    width = span / bins
    counts = [0] * bins
    for time in trace.arrivals:
        counts[min(int(time / width), bins - 1)] += 1
    return [((index + 0.5) * width, count / width)
            for index, count in enumerate(counts)]


def burstiness_cv(trace: RequestTrace) -> float:
    """Coefficient of variation of the trace's inter-arrival times.

    The classic burstiness scalar: ~1 for a memoryless Poisson stream,
    >1 for bursty (clustered) traffic, <1 for smoother-than-Poisson
    pacing.

    Raises:
        ConfigError: with fewer than two arrivals (no inter-arrival
            sample) or a zero mean inter-arrival (all arrivals
            coincident).
    """
    import numpy as np

    if trace.num_requests < 2:
        raise ConfigError(
            "burstiness needs at least two arrivals to form an "
            "inter-arrival sample")
    gaps = np.diff(np.asarray(trace.arrivals, dtype=float))
    mean = float(gaps.mean())
    if mean <= 0:
        raise ConfigError(
            "all arrivals are coincident; inter-arrival burstiness is "
            "undefined")
    return float(gaps.std() / mean)


def trace_stats(trace: RequestTrace, bins: int = 24) -> Dict[str, Any]:
    """One flat record of a trace's shape, for tables and comparisons.

    Keys: ``scenario``, ``requests``, ``duration``, ``mean_qps``,
    ``peak_qps`` (highest rate-curve bin), ``burstiness_cv`` (None when
    undefined), and -- when per-request lengths travel with the trace
    -- ``decode_mean`` / ``decode_p50`` / ``decode_p95`` /
    ``decode_max``.
    """
    import numpy as np

    curve = rate_curve(trace, bins=bins)
    try:
        cv: Optional[float] = burstiness_cv(trace)
    except ConfigError:
        cv = None
    stats: Dict[str, Any] = {
        "scenario": trace.scenario,
        "requests": trace.num_requests,
        "duration": float(trace.metadata.get("duration", trace.duration)),
        "mean_qps": trace.mean_rate,
        "peak_qps": max(rate for _, rate in curve),
        "burstiness_cv": cv,
        "decode_mean": None,
        "decode_p50": None,
        "decode_p95": None,
        "decode_max": None,
    }
    if trace.decode_lens is not None:
        lens = np.asarray(trace.decode_lens, dtype=float)
        stats.update(
            decode_mean=float(lens.mean()),
            decode_p50=float(np.percentile(lens, 50)),
            decode_p95=float(np.percentile(lens, 95)),
            decode_max=float(lens.max()),
        )
    return stats


def tier_stats(trace: RequestTrace) -> Dict[str, Dict[str, Any]]:
    """Per-tier request shape, keyed by tier name in sorted order.

    Each entry reports the attainment-relevant load the tier offers:
    request count, share of the trace, distinct users, and the decode
    length mean/p95 (None when lengths do not travel with the trace).
    Requests without a tier are grouped under ``(untiered)``. Empty
    when the trace carries no identity at all.
    """
    import numpy as np

    grouped: Dict[str, List[Request]] = {}
    if trace.has_identity:
        for request in trace.requests:
            tier = request.tier if request.tier is not None \
                else "(untiered)"
            grouped.setdefault(tier, []).append(request)
    stats: Dict[str, Dict[str, Any]] = {}
    total = trace.num_requests
    for tier in sorted(grouped):
        requests = grouped[tier]
        users = {request.user_id for request in requests
                 if request.user_id is not None}
        lens = [request.decode_len for request in requests
                if request.decode_len is not None]
        arr = np.asarray(lens, dtype=float) if lens else None
        stats[tier] = {
            "requests": len(requests),
            "share": len(requests) / total,
            "users": len(users),
            "decode_mean": None if arr is None else float(arr.mean()),
            "decode_p95": None if arr is None
            else float(np.percentile(arr, 95)),
        }
    return stats


def session_stats(trace: RequestTrace) -> Dict[str, Any]:
    """Session-structure summary of an identity-carrying trace.

    Keys: ``users``, ``sessions``, ``sessions_per_user`` (mean over
    users with at least one session), ``requests_per_session`` (mean),
    and ``max_session_len``. Zeroed when no request carries a
    ``session_id``.
    """
    sessions: Dict[str, int] = {}
    user_sessions: Dict[str, set] = {}
    for _, _, user_id, session_id, _ in trace.rows():
        if session_id is None:
            continue
        sessions[session_id] = sessions.get(session_id, 0) + 1
        if user_id is not None:
            user_sessions.setdefault(user_id, set()).add(session_id)
    users = set(trace.user_ids or ()) - {None}
    if not sessions:
        return {"users": len(users), "sessions": 0,
                "sessions_per_user": 0.0, "requests_per_session": 0.0,
                "max_session_len": 0}
    per_user = [len(owned) for owned in user_sessions.values()]
    return {
        "users": len(users),
        "sessions": len(sessions),
        "sessions_per_user": (sum(per_user) / len(per_user))
        if per_user else 0.0,
        "requests_per_session":
            sum(sessions.values()) / len(sessions),
        "max_session_len": max(sessions.values()),
    }
