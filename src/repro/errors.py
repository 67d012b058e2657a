"""Exception hierarchy for the :mod:`repro` library.

All library-raised exceptions derive from :class:`ReproError` so callers can
catch everything from this package with a single ``except`` clause while
still being able to distinguish configuration mistakes from infeasible
schedules.

It also owns the one rejection path every external input shares: a
named choice resolves through :func:`lookup`, every ``*_from_dict``
envelope decoder is wrapped by :func:`decoder`, and every JSON text
(a file, a socket line, a cache entry) is parsed by :func:`parse_json`,
so a bad name, a malformed payload or hostile JSON fails with a
one-line :class:`ConfigError` (or the caller's error type), never a
traceback.
"""

from __future__ import annotations

import functools
import json
from typing import Any, Callable, Iterable, Mapping, Type, TypeVar, Union

_V = TypeVar("_V")
_Decoded = TypeVar("_Decoded")


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigError(ReproError):
    """A user-supplied configuration value is invalid or inconsistent."""


class CapacityError(ReproError):
    """A placement/allocation does not fit in the available hardware.

    Raised, for example, when a model's weights exceed the aggregate HBM of
    the accelerators assigned to it, or when a database shard does not fit
    in a CPU server's host memory.
    """


class ScheduleError(ReproError):
    """No feasible schedule exists for the given constraints."""


class DistribError(ReproError):
    """A parallel sweep failed in its executor.

    Raised by the :mod:`repro.distrib` process backend when a worker
    process dies mid-sweep (a crash, ``os._exit``, the OOM killer): its
    chunk is lost, so the sweep stops with the count of cells still
    outstanding instead of waiting for them. Never raised for a cell
    whose *search* failed; those are recorded as error cells in the
    result table instead.
    """


def lookup(table: Mapping[str, _V], key: Any, what: str,
           hint: str = "") -> _V:
    """``table[key]``, or a :class:`ConfigError` listing the known keys.

    Any key the table lacks is rejected the same way, an unhashable one
    (a list or dict from a hand-edited file) included; ``hint`` is
    appended to the message.
    """
    try:
        return table[key]
    except (KeyError, TypeError):
        known = ", ".join(sorted(table))
        raise ConfigError(
            f"unknown {what} {key!r}; known: {known}{hint}") from None


def reject_unknown(data: Any, fields: Iterable[str], label: str) -> None:
    """Raise :class:`ConfigError` when ``data`` is not a mapping or has
    keys outside ``fields`` (a typo'd knob must not silently fall back
    to its default)."""
    if not isinstance(data, Mapping):
        raise ConfigError(f"malformed {label} dict: expected a mapping, "
                          f"got {type(data).__name__}")
    unknown = set(data) - set(fields)
    if unknown:
        raise ConfigError(f"unknown {label} fields: {sorted(unknown)}")


def decoder(label: str) -> Callable[[Callable[[Any], _Decoded]],
                                    Callable[[Any], _Decoded]]:
    """Wrap a ``*_from_dict`` decoder so a ``LookupError`` (a missing
    key or a short list), ``TypeError``, ``ValueError`` or
    ``AttributeError`` raised while decoding becomes
    ``ConfigError("malformed <label> dict: ...")``.

    A :class:`ConfigError` raised inside passes through unchanged, so
    the innermost decoder's label names the broken section.
    """
    def decorate(decode: Callable[[Any], _Decoded]
                 ) -> Callable[[Any], _Decoded]:
        @functools.wraps(decode)
        def wrapped(data: Any) -> _Decoded:
            try:
                return decode(data)
            except (LookupError, TypeError, ValueError,
                    AttributeError) as error:
                raise ConfigError(
                    f"malformed {label} dict: {error}") from error
        return wrapped
    return decorate


def parse_json(data: Union[bytes, str], label: str = "invalid JSON",
               error: Type[Exception] = ConfigError) -> Any:
    """``json.loads(data)``, or ``error(f"{label}: ...")``.

    Bytes are decoded as UTF-8 here, so every way a hostile text fails
    takes this one path: ``ValueError`` covers a ``JSONDecodeError``, a
    ``UnicodeDecodeError`` and an integer literal past the
    int-conversion digit limit, and ``RecursionError`` a document
    nested deeper than the interpreter's recursion limit.
    """
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise error(f"{label}: {exc}") from exc


def read_json(path: str) -> Any:
    """Parse the JSON file at ``path`` with :func:`parse_json`, its
    errors labelled with the path; an ``OSError`` passes through."""
    with open(path, "rb") as handle:
        data = handle.read()
    return parse_json(data, f"{path}: invalid JSON")
