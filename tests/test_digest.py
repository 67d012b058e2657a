"""SHA-256 parity: ``repro._digest`` against ``hashlib``.

Trace digests key the ``evaluate_trace`` memo, and what-if digests key
the cell cache and tie a saved result to its trace. All of them hash
with the interpreter's built-in SHA-256 instead of OpenSSL's, so each
must match what ``hashlib.sha256`` gives for the same bytes, with or
without the built-in module.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.rago import whatif
from repro.workloads.traces import RequestTrace, poisson_trace

SRC = Path(__file__).resolve().parent.parent / "src"


def plain_trace():
    """More rows than one digest chunk, so chunk joins are covered."""
    return poisson_trace(3000, 2.0, seed=4, mean_decode_len=64)


def identity_trace():
    base = poisson_trace(40, 2.0, seed=6, mean_decode_len=32)
    n = base.num_requests
    return RequestTrace.from_columns(
        base.arrivals, base.decode_lens,
        user_ids=[f"u{i % 5}" for i in range(n)],
        session_ids=[f"u{i % 5}-{i // 8}" for i in range(n)],
        tiers=[("free", "paid")[i % 2] for i in range(n)])


def edge_trace():
    """``-0.0`` next to ``0.0``, no decode lengths, and ``""`` next to
    None in every identity column."""
    return RequestTrace.from_columns(
        [-0.0, 0.0, 1.5], None,
        user_ids=["", "u", None], session_ids=["", None, "s"],
        tiers=["", "paid", None])


TRACES = {"plain": plain_trace, "identity": identity_trace,
          "edge": edge_trace}


def hashlib_requests_digest(trace):
    """The documented digest: that of the JSON list of rows."""
    text = json.dumps(list(trace.rows()))
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("name", sorted(TRACES))
def test_requests_digest_matches_hashlib(name):
    trace = TRACES[name]()
    assert trace.requests_digest == hashlib_requests_digest(trace)


def test_whatif_digests_match_hashlib(tmp_path, monkeypatch):
    """The same study keys its trace and cells identically with the
    built-in hash and with ``hashlib``'s."""
    from repro.hardware.cluster import ClusterSpec
    from repro.rago.session import OptimizerSession
    from repro.schema import case_i_hyperscale

    session = OptimizerSession(case_i_hyperscale("1B"),
                               ClusterSpec(num_servers=16))
    schedule = session.optimize().frontier[0].schedule
    grid = whatif.WhatIfGrid(schedules=(schedule,), replicas=(1, 2))
    trace = poisson_trace(1.0, 4.0, seed=2, mean_decode_len=16)

    def study(cache_dir):
        result = whatif.run_whatif(session.schema, session.cluster, trace,
                                   grid, cache=str(cache_dir))
        return result.trace_digest, sorted(os.listdir(cache_dir))

    builtin = study(tmp_path / "builtin")
    monkeypatch.setattr(whatif, "sha256", hashlib.sha256)
    assert study(tmp_path / "hashlib") == builtin
    assert len(builtin[1]) == grid.num_cells


def test_falls_back_to_hashlib_without_builtin_modules(tmp_path):
    """With ``_sha2`` and ``_sha256`` unimportable the helper is
    ``hashlib.sha256``, and every digest is unchanged."""
    script = (
        "import sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "import hashlib, json\n"
        "from repro import _digest\n"
        "assert _digest.sha256 is hashlib.sha256\n"
        "from repro.rago import whatif\n"
        "from test_digest import TRACES\n"
        "print(json.dumps({\n"
        "    'traces': {name: make().requests_digest\n"
        "               for name, make in TRACES.items()},\n"
        "    'whatif': whatif._digest('cell \\u00e9')}))\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (
        str(SRC), str(Path(__file__).parent),
        os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", script], cwd=tmp_path,
                         env=env, capture_output=True, text=True,
                         check=True)
    fallback = json.loads(out.stdout.splitlines()[-1])
    assert fallback == {
        "traces": {name: hashlib_requests_digest(make())
                   for name, make in TRACES.items()},
        "whatif": hashlib.sha256("cell \u00e9".encode("utf-8")).hexdigest(),
    }

