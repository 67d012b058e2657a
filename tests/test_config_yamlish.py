"""The yamlish loader: the supported YAML subset parses exactly, and
every construct outside it fails loudly with a line number."""

import pytest

from repro.config import yamlish
from repro.errors import ConfigError


def test_full_grid_document():
    doc = """\
# a sweep grid, as a user would write one
case: i
llms: [1B, 8B]          # flow list of bare strings
servers:
  - 16
  - 32
backend: sockets
processes: 2
search:
  max_batch: 32
  nested:
    deep: true
slo:
  ttft: 0.5
  tpot: null
notes: 'it''s fine'
label: "quoted # not a comment"
"""
    assert yamlish.loads(doc) == {
        "case": "i",
        "llms": ["1B", "8B"],
        "servers": [16, 32],
        "backend": "sockets",
        "processes": 2,
        "search": {"max_batch": 32, "nested": {"deep": True}},
        "slo": {"ttft": 0.5, "tpot": None},
        "notes": "it's fine",
        "label": "quoted # not a comment",
    }


def test_scalar_coercions():
    doc = """\
int: 7
neg: -3
float: 2.5
exp: 1e-3
yes: true
no: False
nil: ~
bare: least-in-flight
numeric_string: "42"
empty_list: []
"""
    parsed = yamlish.loads(doc)
    assert parsed["int"] == 7 and isinstance(parsed["int"], int)
    assert parsed["neg"] == -3
    assert parsed["float"] == 2.5
    assert parsed["exp"] == 1e-3
    assert parsed["yes"] is True and parsed["no"] is False
    assert parsed["nil"] is None
    assert parsed["bare"] == "least-in-flight"
    assert parsed["numeric_string"] == "42"
    assert parsed["empty_list"] == []


def test_compound_list_items():
    doc = """\
cells:
  - name: a
    replicas: 1
  - name: b
    replicas: 2
"""
    assert yamlish.loads(doc) == {"cells": [
        {"name": "a", "replicas": 1},
        {"name": "b", "replicas": 2},
    ]}


def test_scalar_and_list_documents():
    assert yamlish.loads("just a string") == "just a string"
    assert yamlish.loads("- 1\n- 2\n") == [1, 2]
    assert yamlish.loads("") is None
    assert yamlish.loads("# only comments\n") is None


def test_null_valued_key_and_flow_list_of_nulls():
    assert yamlish.loads("routing:\n") == {"routing": None}
    assert yamlish.loads("routing: [null, round-robin]") \
        == {"routing": [None, "round-robin"]}


@pytest.mark.parametrize("snippet,construct", [
    ("key: &anchor 1", "anchors"),
    ("key: *alias", "aliases"),
    ("key: !!int 5", "tags"),
    ("key: |\n  block", "block scalars"),
    ("key: >\n  folded", "folded scalars"),
    ("key: {a: 1}", "flow mappings"),
    ("%YAML 1.2", "directives"),
    ("---\nkey: 1", "multi-document"),
    ("key: 1\n...", "multi-document"),
    ("key:\n\tvalue: 1", "tab indentation"),
    ("a: 1\na: 2", "duplicate key"),
    ("key: [1, [2, 3]]", "nested flow collections"),
    ("key: 'unterminated", "unterminated"),
    ("key: \"bad \\q escape\"", "double-quoted"),
    ("? complex: 1", "complex mapping keys"),
    ("a: 1\n  b: 2", "unexpected indentation"),
    ("a: 1\n- item", "list item inside a mapping"),
    ("- item\nkey: 1", "mapping entry inside a list"),
    ("key: [1,, 2]", "empty flow-list element"),
    (": novalue", "empty mapping key"),
], ids=lambda value: value if " " not in str(value) else None)
def test_unsupported_constructs_fail_with_line_numbers(snippet,
                                                       construct):
    with pytest.raises(ConfigError) as excinfo:
        yamlish.loads(snippet)
    message = str(excinfo.value)
    assert message.startswith("yamlish: line ")
    assert construct.split()[0].rstrip("-") in message


def test_error_names_the_offending_line():
    doc = "a: 1\nb: 2\nc: &oops 3\n"
    with pytest.raises(ConfigError, match="line 3"):
        yamlish.loads(doc)


def test_content_after_root_rejected():
    # A shallower line after the root block cannot be grafted anywhere.
    doc = "  a: 1\nb: 2\n"
    with pytest.raises(ConfigError, match="document root"):
        yamlish.loads(doc)


@pytest.mark.parametrize("step", ["k{}:", "-"])
def test_deep_nesting_rejected(step):
    text = "".join(" " * depth + step.format(depth) + "\n"
                   for depth in range(3000))
    with pytest.raises(ConfigError, match="nests too deeply"):
        yamlish.loads(text + " " * 3000 + "v: 1")


def test_load_reads_files(tmp_path):
    path = tmp_path / "grid.yaml"
    path.write_text("case: i\nservers: [16]\n", encoding="utf-8")
    assert yamlish.load(str(path)) == {"case": "i", "servers": [16]}
    with pytest.raises(OSError):
        yamlish.load(str(tmp_path / "missing.yaml"))
