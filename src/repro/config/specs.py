"""The shared ``key=value,...`` spec grammar behind CLI selections.

Several front-end flags select a parameterized policy with one compact
string -- ``--autoscale policy=queue-depth,min=1,max=4``,
``--admission token-budget=4096``, ``--population users=32,think=0.5``.
They all speak the same micro-grammar: comma-separated tokens, each a
``key=value`` pair, with a bare token optionally acting as a shortcut
for one designated key. The tokenizing, unknown-key, duplicate-key and
malformed-value handling used to be duplicated per parser; this module
is the single implementation every parser delegates to, so the error
surface stays uniform as new specs are added.

Each caller supplies its *key table* -- ``spec key -> (kwargs name,
converter)`` -- and a human label used in every diagnostic.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Mapping, Optional, Sequence, Tuple

from repro.errors import ConfigError, lookup

__all__ = [
    "parse_kv_spec",
    "convert_spec_value",
    "format_kv_spec",
]

#: A spec key table: spec key -> (kwargs field name, value converter).
SpecKeys = Mapping[str, Tuple[str, Callable[[str], Any]]]


def convert_spec_value(value: str, convert: Callable[[str], Any], *,
                       label: str, key: str,
                       expected: Optional[str] = None) -> Any:
    """Convert one spec value, normalizing the failure diagnostic.

    Args:
        value: The raw (possibly padded) value text.
        convert: The converter; a :class:`ValueError` marks a
            malformed value.
        label: Which spec family the diagnostic belongs to
            (``"autoscale"``, ``"admission"``, ...).
        key: The key being converted, spelled as the diagnostic should
            show it.
        expected: What the diagnostic promises instead of the default
            ``convert.__name__``.

    Raises:
        ConfigError: when the converter rejects the value.
    """
    try:
        return convert(value.strip())
    except ValueError:
        hint = expected if expected is not None else convert.__name__
        raise ConfigError(
            f"malformed {label} value {value!r} for key {key!r}; "
            f"expected {hint}") from None


def parse_kv_spec(spec: str, keys: SpecKeys, *, label: str,
                  example: str,
                  bare_key: Optional[str] = None) -> Dict[str, Any]:
    """Parse a ``key=value,...`` spec string into constructor kwargs.

    Args:
        spec: The raw spec text.
        keys: The caller's key table (spec key -> (field, converter)).
        label: Spec family name used in every diagnostic.
        example: A valid spelling quoted by the empty-spec diagnostic.
        bare_key: Spec key a bare (``=``-less) token is shorthand for;
            None rejects bare tokens.

    Returns:
        Converted values keyed by their kwargs field names.

    Raises:
        ConfigError: on an empty spec, an unknown or duplicate key, a
            bare token without a ``bare_key``, or a value the
            converter rejects.
    """
    kwargs: Dict[str, Any] = {}
    tokens = [token.strip() for token in spec.split(",") if token.strip()]
    if not tokens:
        raise ConfigError(
            f"empty --{label} spec; pass key=value pairs such as "
            f"{example}")
    for token in tokens:
        key, equals, value = token.partition("=")
        key = key.strip()
        if not equals:
            if bare_key is None:
                raise ConfigError(
                    f"malformed {label} token {token!r}; expected "
                    f"key=value")
            # A bare token is a shortcut for the designated key; its
            # own converter still validates the value.
            key, value = bare_key, key
        field_name, convert = lookup(keys, key, f"{label} key")
        if field_name in kwargs:
            raise ConfigError(f"duplicate {label} key {key!r}")
        kwargs[field_name] = convert_spec_value(
            value, convert, label=label, key=key)
    return kwargs


def format_kv_spec(pairs: Sequence[Tuple[str, object]]) -> str:
    """Spell ``(key, value)`` pairs back as a spec string.

    The inverse direction of :func:`parse_kv_spec` -- callers
    stringify their values first (floats typically via ``repr`` so the
    round trip is exact) and this joins them in the canonical
    ``key=value,...`` form.
    """
    return ",".join(f"{key}={value}" for key, value in pairs)
