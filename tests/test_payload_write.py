"""The ``--json`` payload writer.

A payload whose ``"trace"`` is a :class:`~repro.workloads.RequestTrace`
is written with the trace's request rows rendered from its columns and
spliced into the stock encoder's text; the bytes must be those of
``json.dumps(payload, indent=1)`` with the trace's config envelope in
its place. Every ``--json`` path is checked before any work, and a
write replaces the file at the path only once it is complete.
"""

import io
import json
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import cli, config
from repro.cli import _COMMANDS, main
from repro.rago.session import OptimizerSession
from repro.workloads import RequestTrace


def stock_text(payload):
    """What ``json.dump(payload, handle, indent=1)`` wrote before the
    splice: the trace as its config envelope."""
    return json.dumps({**payload, "trace": config.to_config(
        payload["trace"])}, indent=1)


def written_text(payload, chunk=cli._ROW_CHUNK):
    handle = io.StringIO()
    with mock.patch.object(cli, "_ROW_CHUNK", chunk):
        cli._dump_traced(payload, payload["trace"], handle)
    return handle.getvalue()


# -- byte identity -------------------------------------------------------

ARRIVALS = st.lists(
    st.one_of(st.floats(min_value=0.0, max_value=1e9),
              st.integers(min_value=0, max_value=10**12),
              st.just(-0.0)),
    min_size=1, max_size=24).map(sorted)
DECODE_LEN = st.one_of(st.integers(min_value=1, max_value=10**12),
                       st.floats(min_value=1.0, max_value=1e6))
IDENTITY = st.one_of(st.none(), st.text(max_size=6),
                     st.sampled_from(['"', "\\", "\n\x00\x1f", "ü", "🙂"]))
SCALAR = st.one_of(st.none(), st.booleans(), st.integers(),
                   st.floats(allow_nan=False, allow_infinity=False),
                   st.text(max_size=8), st.just(cli._ROWS_MARKER))
METADATA = st.dictionaries(st.text(max_size=6), SCALAR, max_size=4)


@st.composite
def traces(draw):
    arrivals = draw(ARRIVALS)
    count = len(arrivals)

    def column(values):
        return draw(st.one_of(st.none(), st.lists(
            values, min_size=count, max_size=count)))

    return RequestTrace.from_columns(
        arrivals, decode_lens=column(DECODE_LEN),
        user_ids=column(IDENTITY), session_ids=column(IDENTITY),
        tiers=column(IDENTITY), metadata=draw(METADATA))


@settings(deadline=None, max_examples=300)
@given(trace=traces(), chunk=st.integers(min_value=1, max_value=5),
       before=METADATA, after=METADATA)
@example(trace=RequestTrace.from_columns(
    [0, 1.5], metadata={"note": cli._ROWS_MARKER}),
    chunk=1, before={}, after={})
def test_writer_bytes_equal_the_stock_encoder(trace, chunk, before, after):
    payload = {"before": before, "trace": trace, "after": after}
    assert written_text(payload, chunk) == stock_text(payload)


def identity_trace(count, user_ids=None):
    return RequestTrace.from_columns(
        [index * 0.25 for index in range(count)],
        decode_lens=[16 + index % 7 for index in range(count)],
        user_ids=user_ids or [f"ué{index % 5}\"\n"
                              for index in range(count)],
        session_ids=[f"s{index % 3}" for index in range(count)],
        tiers=[("free", "paid")[index % 2] for index in range(count)],
        metadata={"scenario": "sessions", "seed": 3})


@pytest.mark.parametrize("trace", [
    RequestTrace.from_columns([0.0, 0.5, 2]),
    RequestTrace.from_columns([0.0, 0.5], decode_lens=[3, 4],
                              metadata={"rate_qps": 2.0}),
    identity_trace(9),
    identity_trace(9, user_ids=["a", None, "b", None, None, "c", "d",
                                "e", "f"]),
    RequestTrace.from_columns([0.0, 0.5, 1.0], decode_lens=[3, 4.0, 5]),
], ids=["anonymous", "decode-lens", "identity", "partial-identity",
        "float-decode-len"])
@pytest.mark.parametrize("chunk", [1, 2, 1024])
def test_trace_kinds_write_the_stock_bytes(trace, chunk):
    payload = {"report": {"offered": 3}, "trace": trace}
    assert written_text(payload, chunk) == stock_text(payload)


def test_marker_in_the_metadata_takes_the_plain_path():
    trace = RequestTrace.from_columns(
        [0.0, 1.0], metadata={"source": cli._ROWS_MARKER})
    payload = {"trace": trace}
    with mock.patch.object(cli, "_request_rows") as rows:
        assert written_text(payload) == stock_text(payload)
    rows.assert_not_called()


W = ["--case", "i", "--llm", "1B", "--servers", "16"]
RUNS = {
    "replay": ["replay", "--duration", "2", *W],
    "closed-loop": ["replay", "--duration", "2", "--population",
                    "users=8,think=0.3,tiers=free-paid", "--replicas",
                    "2", *W],
    "whatif": ["whatif", "--scenario", "diurnal", "--duration", "2",
               "--replicas", "1,2", *W],
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_cli_payloads_nest_the_trace_byte_identically(tmp_path, monkeypatch,
                                                      name):
    """In replay- and whatif-shaped payloads the spliced text is the
    stock encoder's, and the write builds no request row as a dict."""
    payloads = []
    walked = []
    write = cli._write_json
    row_dicts = RequestTrace.row_dicts

    def counted(trace):
        walked.append(trace.num_requests)
        return row_dicts(trace)

    def keep(path, payload):
        payloads.append(payload)
        with mock.patch.object(RequestTrace, "row_dicts", counted):
            write(path, payload)

    monkeypatch.setattr(cli, "_write_json", keep)
    path = tmp_path / "out.json"
    assert main([*RUNS[name], "--json", str(path)]) == 0
    (payload,) = payloads
    assert isinstance(payload["trace"], RequestTrace)
    assert payload["trace"].num_requests > 1
    # The only row dict is that of the one-request stand-in the
    # envelope around the rows comes from.
    assert walked == [1]
    assert path.read_text(encoding="utf-8") == stock_text(payload)


def test_traceless_payloads_take_the_plain_path(tmp_path):
    path = tmp_path / "out.json"
    payload = {"rows": [{"llm": "1B", "qps": 1.5}], "trace": None}
    cli._write_json(str(path), payload)
    assert path.read_text() == json.dumps(payload, indent=1)


# -- the --json path -----------------------------------------------------

#: One argv per subcommand that takes --json.
JSON_RUNS = {
    "run": ["run", "table2"],
    "optimize": ["optimize", *W],
    "sweep": ["sweep", "--case", "i", "--llms", "1B", "--servers", "16"],
    "whatif": ["whatif", *W],
    "replay": ["replay", *W],
    "serve": ["serve", *W],
    "lint": ["lint", "src/repro/units.py"],
}


def test_every_json_flag_is_covered():
    covered = set()
    for name in _COMMANDS:
        try:
            args = cli._build_parser(name).parse_args(
                [*JSON_RUNS.get(name, [name]), "--json", "x.json"])
        except SystemExit:
            continue
        covered.add(name)
        assert args.json_path == "x.json"
    assert covered == set(JSON_RUNS)


@pytest.mark.parametrize("name", sorted(JSON_RUNS))
@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unusable_json_path_fails_before_any_work(tmp_path, monkeypatch,
                                                  capsys, name, where):
    def never(args):
        raise AssertionError("the subcommand ran")

    help_text, flags, _ = _COMMANDS[name]
    monkeypatch.setitem(_COMMANDS, name, (help_text, flags, never))
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" \
        else tmp_path
    assert main([*JSON_RUNS[name], "--json", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: --json ") and out.count("\n") == 1


def test_bad_json_path_fails_before_the_search(monkeypatch, capsys):
    def never(self):
        raise AssertionError("searched before checking --json")

    monkeypatch.setattr(OptimizerSession, "optimize", never)
    assert main(["replay", *W, "--duration", "3", "--json",
                 "/nonexistent/x.json"]) == 1
    out = capsys.readouterr().out
    assert out == ("error: --json /nonexistent/x.json: no such directory "
                   "/nonexistent\n")


def test_failed_write_leaves_the_old_file_whole(tmp_path, monkeypatch):
    path = tmp_path / "out.json"
    path.write_text("old artifact\n")
    rows = cli._request_rows

    def fail_after_first_chunk(trace, depth):
        chunks = rows(trace, depth)
        yield next(chunks)
        raise RuntimeError("renderer failed")

    monkeypatch.setattr(cli, "_request_rows", fail_after_first_chunk)
    monkeypatch.setattr(cli, "_ROW_CHUNK", 2)
    with pytest.raises(RuntimeError, match="renderer failed"):
        cli._write_json(str(path), {"trace": identity_trace(9)})
    assert path.read_text() == "old artifact\n"
    assert [entry.name for entry in tmp_path.iterdir()] == ["out.json"]


def test_write_replaces_the_old_file(tmp_path, capsys):
    path = tmp_path / "out.json"
    path.write_text("old artifact\n")
    payload = {"trace": identity_trace(3)}
    cli._write_json(str(path), payload)
    assert path.read_text() == stock_text(payload)
    assert [entry.name for entry in tmp_path.iterdir()] == ["out.json"]
    assert capsys.readouterr().out == f"wrote {path}\n"
