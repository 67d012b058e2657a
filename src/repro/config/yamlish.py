"""A stdlib-only loader for the YAML subset config files actually use.

Sweep and what-if grids are written by hand, and hand-written files
want comments and less punctuation than JSON allows -- but this repo
takes no third-party dependencies, so full YAML is off the table.
:func:`loads` parses the subset that covers every config in this
repository:

* scalars: integers, floats, booleans (``true``/``false``), ``null``
  / ``~``, quoted and bare strings;
* nested mappings via indentation (``key: value`` / ``key:`` + block);
* block lists (``- item``, including ``- key: value`` compound items)
  and single-line flow lists of scalars (``[a, b, c]``);
* ``#`` comments, full-line and trailing.

Everything else -- anchors, aliases, tags, multi-document streams,
flow mappings, block scalars, tab indentation -- raises
:class:`~repro.errors.ConfigError` naming the construct and line, so
a file leaning on real YAML fails loudly instead of parsing wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["loads", "load"]

#: Leading characters whose YAML meaning this subset does not
#: implement; value text starting with one of these is an error, never
#: a silently-wrong bare string.
_UNSUPPORTED = {
    "&": "anchors",
    "*": "aliases",
    "!": "tags",
    "|": "block scalars",
    ">": "folded scalars",
    "{": "flow mappings",
    "%": "directives",
    "@": "reserved indicators",
    "`": "reserved indicators",
}


@dataclass(frozen=True)
class _Line:
    number: int
    indent: int
    text: str


def _fail(number: int, message: str) -> "ConfigError":
    return ConfigError(f"yamlish: line {number}: {message}")


def _strip_comment(text: str, number: int) -> str:
    """Drop a trailing ``#`` comment, respecting quoted strings."""
    quote: Optional[str] = None
    for position, char in enumerate(text):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char == "#" and (position == 0
                              or text[position - 1] in " \t"):
            return text[:position].rstrip()
    if quote is not None:
        raise _fail(number, f"unterminated {quote} quote")
    return text.rstrip()


def _scan(text: str) -> List[_Line]:
    lines: List[_Line] = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.rstrip()
        if not stripped:
            continue
        body = stripped.lstrip(" ")
        indent = len(stripped) - len(body)
        if body.startswith("\t") or "\t" in stripped[:indent + 1]:
            raise _fail(number, "tab indentation is not allowed")
        if body == "---" or body.startswith("--- ") or body == "...":
            raise _fail(
                number, "multi-document streams are not supported")
        body = _strip_comment(body, number)
        if not body:
            continue
        lines.append(_Line(number=number, indent=indent, text=body))
    return lines


def _parse_scalar(text: str, number: int) -> Any:
    text = text.strip()
    head = text[:1]
    if head in _UNSUPPORTED:
        raise _fail(
            number,
            f"{_UNSUPPORTED[head]} ({head!r}) are not supported")
    if head == "[":
        if not text.endswith("]"):
            raise _fail(number, "flow list must close on the same line")
        inner = text[1:-1].strip()
        if not inner:
            return []
        items = []
        for part in inner.split(","):
            part = part.strip()
            if not part:
                raise _fail(number, "empty flow-list element")
            if part[:1] in ("[", "{"):
                raise _fail(
                    number, "nested flow collections are not supported")
            items.append(_parse_scalar(part, number))
        return items
    if head == '"':
        try:
            return json.loads(text)
        except json.JSONDecodeError as error:
            raise _fail(number, f"bad double-quoted string: {error}")
    if head == "'":
        if len(text) < 2 or not text.endswith("'"):
            raise _fail(number, "unterminated single-quoted string")
        return text[1:-1].replace("''", "'")
    if text in ("null", "Null", "NULL", "~"):
        return None
    if text in ("true", "True", "TRUE"):
        return True
    if text in ("false", "False", "FALSE"):
        return False
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _split_key(text: str, number: int) -> Optional[Tuple[str, str]]:
    """Split ``key: rest`` (rest may be empty); None when the line has
    no mapping separator outside quotes."""
    quote: Optional[str] = None
    for position, char in enumerate(text):
        if quote is not None:
            if char == quote:
                quote = None
        elif char in ("'", '"'):
            quote = char
        elif char == ":":
            if position + 1 == len(text) \
                    or text[position + 1] in " \t":
                return text[:position].strip(), text[position + 1:].strip()
    return None


class _Parser:
    def __init__(self, lines: List[_Line]) -> None:
        self._lines = lines
        self._pos = 0

    def _peek(self) -> Optional[_Line]:
        if self._pos < len(self._lines):
            return self._lines[self._pos]
        return None

    def parse_block(self, indent: int) -> Any:
        line = self._peek()
        if line is None or line.indent < indent:
            return None
        if line.indent > indent:
            raise _fail(line.number, "unexpected indentation")
        if line.text == "-" or line.text.startswith("- "):
            return self._parse_list(indent)
        if _split_key(line.text, line.number) is None:
            # A one-line scalar document.
            self._pos += 1
            return _parse_scalar(line.text, line.number)
        return self._parse_map(indent)

    def _block_value(self, parent_indent: int, number: int) -> Any:
        """The value introduced by a ``key:`` / ``-`` with nothing on
        the line: the following deeper block, or null when absent."""
        nxt = self._peek()
        if nxt is not None and nxt.indent > parent_indent:
            return self.parse_block(nxt.indent)
        return None

    def _parse_map(self, indent: int) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                return out
            if line.indent > indent:
                raise _fail(line.number, "unexpected indentation")
            if line.text == "-" or line.text.startswith("- "):
                raise _fail(line.number,
                            "list item inside a mapping block")
            split = _split_key(line.text, line.number)
            if split is None:
                raise _fail(line.number,
                            f"expected 'key: value', got {line.text!r}")
            key_text, rest = split
            if not key_text:
                raise _fail(line.number, "empty mapping key")
            if key_text[:1] == "?":
                raise _fail(line.number,
                            "complex mapping keys are not supported")
            key = _parse_scalar(key_text, line.number)
            if not isinstance(key, str):
                key = key_text
            if key in out:
                raise _fail(line.number, f"duplicate key {key!r}")
            self._pos += 1
            if rest:
                out[key] = _parse_scalar(rest, line.number)
            else:
                out[key] = self._block_value(indent, line.number)

    def _parse_list(self, indent: int) -> List[Any]:
        out: List[Any] = []
        while True:
            line = self._peek()
            if line is None or line.indent < indent:
                return out
            if line.indent > indent:
                raise _fail(line.number, "unexpected indentation")
            if not (line.text == "-" or line.text.startswith("- ")):
                raise _fail(line.number,
                            "mapping entry inside a list block")
            rest = line.text[1:].strip()
            if not rest:
                self._pos += 1
                out.append(self._block_value(indent, line.number))
                continue
            if _split_key(rest, line.number) is not None:
                # Compound item (`- key: value`): re-anchor the
                # remainder as the first line of a nested map whose
                # indent is the remainder's true column.
                item_indent = line.indent + (len(line.text)
                                             - len(rest))
                self._lines[self._pos] = _Line(
                    number=line.number, indent=item_indent, text=rest)
                out.append(self.parse_block(item_indent))
                continue
            self._pos += 1
            out.append(_parse_scalar(rest, line.number))


def loads(text: str) -> Any:
    """Parse one yamlish document.

    Returns:
        The document root (mapping, list, or scalar); an empty or
        comment-only document parses to None.

    Raises:
        ConfigError: on malformed input or any YAML construct outside
            the supported subset, with the offending line number.
    """
    lines = _scan(text)
    if not lines:
        return None
    parser = _Parser(lines)
    try:
        root = parser.parse_block(lines[0].indent)
    except RecursionError:
        raise ConfigError("yamlish: the document nests too deeply") \
            from None
    leftover = parser._peek()
    if leftover is not None:
        raise _fail(leftover.number,
                    "content after the document root "
                    "(indentation shallower than the root?)")
    return root


def load(path: str) -> Any:
    """Parse one yamlish file (see :func:`loads`)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as error:
        raise ConfigError(f"cannot read {path}: {error}") from error
    return loads(text)
