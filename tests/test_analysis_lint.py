"""The simlint rule corpus, suppression grammar, findings model, and
``repro lint`` CLI.

Fixture snippets are written under a ``repro/...`` directory layout in
tmp_path so the scope-limited rules (sim paths, reporting paths) see
the same dotted module names the real tree produces.
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Finding,
    LINT_RULES,
    build_index,
    finding_to_dict,
    lint_paths,
    resolve_lint_rules,
)
from repro.cli import main
from repro.errors import ConfigError

#: The repository root, independent of the test runner's cwd.
REPO = Path(__file__).resolve().parent.parent
#: The shipped source tree.
SRC_REPRO = str(REPO / "src" / "repro")


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


# ---------------------------------------------------------------------------
# no-wallclock-in-sim
# ---------------------------------------------------------------------------


def test_wallclock_flagged_in_sim_paths(tmp_path):
    path = write(tmp_path, "repro/sim/clock.py", """\
        import time
        from datetime import datetime

        def stamp():
            return time.time(), datetime.now()
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"] * 2
    assert findings[0].line == 5


def test_wallclock_allowed_outside_sim_paths(tmp_path):
    path = write(tmp_path, "repro/rago/timing.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert lint_paths([path], rules=["no-wallclock-in-sim"]) == []


def test_wallclock_resolves_import_aliases(tmp_path):
    path = write(tmp_path, "repro/workloads/alias.py", """\
        from time import monotonic as clock

        def stamp():
            return clock()
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"]
    assert "time.monotonic" in findings[0].message


# ---------------------------------------------------------------------------
# seeded-rng-required
# ---------------------------------------------------------------------------


def test_global_random_import_flagged_in_sim(tmp_path):
    path = write(tmp_path, "repro/sim/chaos.py", """\
        import random

        def pick(options):
            return random.choice(options)
    """)
    findings = lint_paths([path], rules=["seeded-rng-required"])
    # Both the module-level import and the global-RNG draw are flagged.
    assert rule_ids(findings) == ["seeded-rng-required"] * 2
    assert findings[0].line == 1


def test_unseeded_constructors_flagged_seeded_ones_clean(tmp_path):
    flagged = write(tmp_path, "repro/sim/unseeded.py", """\
        import numpy as np
        from random import Random

        def build():
            return Random(), np.random.default_rng()
    """)
    clean = write(tmp_path, "repro/sim/seeded.py", """\
        import numpy as np
        from random import Random

        def build(seed):
            return Random(seed), np.random.default_rng(seed)
    """)
    assert len(lint_paths([flagged], rules=["seeded-rng-required"])) == 2
    assert lint_paths([clean], rules=["seeded-rng-required"]) == []


def test_numpy_global_randomstate_flagged(tmp_path):
    path = write(tmp_path, "repro/workloads/legacy.py", """\
        import numpy as np

        def draw(n):
            return np.random.rand(n)
    """)
    findings = lint_paths([path], rules=["seeded-rng-required"])
    assert rule_ids(findings) == ["seeded-rng-required"]
    assert "repro.sim.rng" in findings[0].message


def test_rng_rules_ignore_non_sim_paths(tmp_path):
    path = write(tmp_path, "repro/retrieval/shuffle.py", """\
        import random

        def pick(options):
            return random.choice(options)
    """)
    assert lint_paths([path], rules=["seeded-rng-required"]) == []


# ---------------------------------------------------------------------------
# listener-rebind (the PR 5 LiveServer completion-drop bug)
# ---------------------------------------------------------------------------

#: Minimal reproduction of the PR 5 bug: the engine listener holds
#: self._completions.append, then flush() rebinds the attribute --
#: every completion after the first flush is silently dropped.
PR5_LISTENER_REBIND = """\
    class LiveThing:
        def __init__(self, engine):
            self._completions = []
            engine.add_listener(self._completions.append)

        def flush(self):
            done = self._completions
            self._completions = []
            return done
"""


def test_pr5_listener_rebind_bug_is_flagged(tmp_path):
    path = write(tmp_path, "server.py", PR5_LISTENER_REBIND)
    findings = lint_paths([path], rules=["listener-rebind"])
    assert rule_ids(findings) == ["listener-rebind"]
    assert findings[0].line == 8
    assert "_completions" in findings[0].message
    assert "__init__" in findings[0].message


def test_drain_in_place_fix_is_clean(tmp_path):
    path = write(tmp_path, "server.py", """\
        class LiveThing:
            def __init__(self, engine):
                self._completions = []
                engine.add_listener(self._completions.append)

            def flush(self):
                done = list(self._completions)
                del self._completions[:len(done)]
                return done
    """)
    assert lint_paths([path], rules=["listener-rebind"]) == []


def test_rebind_without_escape_is_clean(tmp_path):
    path = write(tmp_path, "plain.py", """\
        class Counter:
            def __init__(self):
                self._items = []

            def reset(self):
                self._items = []
    """)
    assert lint_paths([path], rules=["listener-rebind"]) == []


# ---------------------------------------------------------------------------
# registry-drift
# ---------------------------------------------------------------------------


def test_phantom_dunder_all_export_flagged(tmp_path):
    path = write(tmp_path, "exports.py", """\
        __all__ = ["exists", "phantom"]

        def exists():
            return 1
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    assert rule_ids(findings) == ["registry-drift"]
    assert "phantom" in findings[0].message


def test_registry_needs_entry_point_and_resolvable_values(tmp_path):
    path = write(tmp_path, "drifted.py", """\
        FOO_POLICIES = {
            "real": RealPolicy,
        }
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    messages = " | ".join(finding.message for finding in findings)
    assert len(findings) == 2
    assert "RealPolicy" in messages  # unresolvable factory
    assert "parse_foo" in messages  # missing entry point


def test_registry_entry_point_found_cross_module(tmp_path):
    write(tmp_path, "pkg/registry.py", """\
        class RealPolicy:
            pass

        FOO_POLICIES = {
            "real": RealPolicy,
        }
    """)
    write(tmp_path, "pkg/frontend.py", """\
        def resolve_foo_policy(name):
            return name
    """)
    assert lint_paths([str(tmp_path / "pkg")],
                      rules=["registry-drift"]) == []


def test_registry_duplicate_key_flagged(tmp_path):
    path = write(tmp_path, "dupes.py", """\
        class A:
            pass

        def resolve_bar_policy(name):
            return name

        BAR_POLICIES = {
            "a": A,
            "a": A,
        }
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    assert rule_ids(findings) == ["registry-drift"]
    assert "repeats key" in findings[0].message


def test_registry_must_appear_in_dunder_all(tmp_path):
    path = write(tmp_path, "hidden.py", """\
        __all__ = ["resolve_baz_policy"]

        class B:
            pass

        def resolve_baz_policy(name):
            return name

        BAZ_POLICIES = {
            "b": B,
        }
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    assert rule_ids(findings) == ["registry-drift"]
    assert "__all__" in findings[0].message


LAZY_PACKAGE = """\
    from repro._lazy import lazy_exports

    __all__ = ["real", "ghost", "impl"]

    _EXPORTS = {
        "real": "repro.pkg.impl",
        "ghost": "repro.pkg.impl",
        "impl": "repro.pkg.impl",
    }
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
"""


def test_lazy_table_entry_must_name_a_defining_module(tmp_path):
    write(tmp_path, "repro/pkg/__init__.py", LAZY_PACKAGE)
    write(tmp_path, "repro/pkg/impl.py", """\
        def real():
            return 1
    """)
    findings = lint_paths([str(tmp_path / "repro")],
                          rules=["registry-drift"])
    # The table binds its names, so __all__ is truthful; only the
    # entry whose module never defines the name is drift. "impl"
    # exports the submodule itself.
    assert rule_ids(findings) == ["registry-drift"]
    assert findings[0].line == 7
    assert "'ghost'" in findings[0].message
    assert "repro.pkg.impl" in findings[0].message


def test_lazy_table_entries_are_bindings_and_import_origins(tmp_path):
    path = write(tmp_path, "repro/pkg/__init__.py", LAZY_PACKAGE)
    module = build_index([path]).modules[0]
    assert {"real", "ghost", "impl"} <= module.bindings
    assert module.imports["real"] == "repro.pkg.impl.real"
    assert module.imports["impl"] == "repro.pkg.impl"
    # The defining module is outside this lint run: nothing to check.
    assert lint_paths([path], rules=["registry-drift"]) == []


# ---------------------------------------------------------------------------
# mutable-default-arg / unsorted-dict-iteration-in-reporting
# ---------------------------------------------------------------------------


def test_mutable_defaults_flagged(tmp_path):
    path = write(tmp_path, "defaults.py", """\
        def collect(items=[], *, index={}):
            return items, index

        def fine(items=(), index=None):
            return items, index
    """)
    findings = lint_paths([path], rules=["mutable-default-arg"])
    assert rule_ids(findings) == ["mutable-default-arg"] * 2


def test_unsorted_dict_iteration_in_reporting_paths(tmp_path):
    flagged = write(tmp_path, "repro/reporting/loose.py", """\
        def render(stats):
            return [key for key, value in stats.items()]
    """)
    sorted_ok = write(tmp_path, "repro/reporting/stable.py", """\
        def render(stats):
            return [key for key, value in sorted(stats.items())]
    """)
    assert rule_ids(lint_paths(
        [flagged], rules=["unsorted-dict-iteration-in-reporting"])) \
        == ["unsorted-dict-iteration-in-reporting"]
    assert lint_paths(
        [sorted_ok], rules=["unsorted-dict-iteration-in-reporting"]) == []


def test_format_functions_checked_outside_reporting(tmp_path):
    path = write(tmp_path, "repro/rago/tables.py", """\
        def format_cells(cells):
            for key in cells.keys():
                yield key

        def internal_walk(cells):
            for key in cells.keys():
                yield key
    """)
    findings = lint_paths(
        [path], rules=["unsorted-dict-iteration-in-reporting"])
    # Only the format_* function is report-output scope.
    assert [finding.line for finding in findings] == [2]


# ---------------------------------------------------------------------------
# no-per-event-allocation-in-hot-loop
# ---------------------------------------------------------------------------


def test_hotpath_marker_flags_dict_list_and_lambda(tmp_path):
    path = write(tmp_path, "repro/sim/loop.py", """\
        class Station:
            # simlint: hotpath
            def dispatch(self, batch):
                extras = {}
                order = [batch]
                key = lambda item: item.slab
                return extras, order, key
    """)
    findings = lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"])
    assert rule_ids(findings) == \
        ["no-per-event-allocation-in-hot-loop"] * 3
    assert [finding.line for finding in findings] == [4, 5, 6]
    assert "dispatch()" in findings[0].message


def test_hotpath_marker_works_on_the_def_line(tmp_path):
    path = write(tmp_path, "repro/sim/loop.py", """\
        def advance(events):  # simlint: hotpath
            return {event: True for event in events} and []
    """)
    findings = lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"])
    # The dict comprehension is allowed (no literal); the list is not.
    assert rule_ids(findings) == ["no-per-event-allocation-in-hot-loop"]


def test_unmarked_functions_may_allocate(tmp_path):
    path = write(tmp_path, "repro/sim/setup.py", """\
        def build():
            return {"stations": [], "handlers": [lambda s: s]}
    """)
    assert lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"]) == []


def test_hotpath_clean_function_passes(tmp_path):
    path = write(tmp_path, "repro/sim/loop.py", """\
        # simlint: hotpath
        def drain(heap, out):
            while heap:
                out.append(heap.pop())
            return tuple(out)
    """)
    assert lint_paths(
        [path], rules=["no-per-event-allocation-in-hot-loop"]) == []


# ---------------------------------------------------------------------------
# no-blocking-io-in-coordinator
# ---------------------------------------------------------------------------


def test_blocking_calls_flagged_in_coordinator_coroutines(tmp_path):
    path = write(tmp_path, "repro/distrib/bad_coord.py", """\
        import socket
        import time
        from select import select

        async def handle(reader):
            time.sleep(0.1)
            conn = socket.create_connection(("h", 1))
            select([conn], [], [])
            return reader
    """)
    findings = lint_paths([path],
                          rules=["no-blocking-io-in-coordinator"])
    assert rule_ids(findings) == ["no-blocking-io-in-coordinator"] * 3
    assert [finding.line for finding in findings] == [6, 7, 8]
    assert "asyncio.sleep" in findings[0].message
    assert "handle()" in findings[0].message
    assert "socket.create_connection" in findings[1].message


def test_blocking_calls_allowed_in_sync_functions_and_nested_defs(
        tmp_path):
    path = write(tmp_path, "repro/distrib/worker_side.py", """\
        import socket
        import time

        def run_worker(host, port):
            # The sync worker *should* block on its socket.
            conn = socket.create_connection((host, port))
            time.sleep(0.01)
            return conn

        async def spawn(loop):
            def blocking_probe():
                # Runs on an executor thread, not the event loop.
                return socket.create_connection(("h", 1))

            return await loop.run_in_executor(None, blocking_probe)
    """)
    assert lint_paths(
        [path], rules=["no-blocking-io-in-coordinator"]) == []


def test_blocking_calls_allowed_outside_coordinator_scopes(tmp_path):
    path = write(tmp_path, "repro/workloads/loader.py", """\
        import time

        async def fetch():
            time.sleep(1.0)
    """)
    assert lint_paths(
        [path], rules=["no-blocking-io-in-coordinator"]) == []


def test_serve_scope_is_also_coordinator_side(tmp_path):
    path = write(tmp_path, "repro/serve.py", """\
        import time

        async def tick():
            time.sleep(0.5)
    """)
    findings = lint_paths([path],
                          rules=["no-blocking-io-in-coordinator"])
    assert rule_ids(findings) == ["no-blocking-io-in-coordinator"]
    assert "event loop" in findings[0].message


# ---------------------------------------------------------------------------
# suppression grammar
# ---------------------------------------------------------------------------


def test_suppression_silences_one_rule_on_one_line(tmp_path):
    path = write(tmp_path, "repro/sim/mapped.py", """\
        import time

        def epoch():
            return time.time()  # simlint: allow[no-wallclock-in-sim]

        def leak():
            return time.time()
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert [finding.line for finding in findings] == [7]


def test_suppression_list_and_wildcard(tmp_path):
    path = write(tmp_path, "repro/sim/multi.py", """\
        import random  # simlint: allow[seeded-rng-required, other-rule]
        import time

        def both():
            return time.time(), random.choice([1])  # simlint: allow[*]
    """)
    findings = lint_paths(
        [path], rules=["no-wallclock-in-sim", "seeded-rng-required"])
    assert findings == []


def test_wrong_rule_id_does_not_suppress(tmp_path):
    path = write(tmp_path, "repro/sim/wrong.py", """\
        import time

        def stamp():
            return time.time()  # simlint: allow[seeded-rng-required]
    """)
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"]


# ---------------------------------------------------------------------------
# findings model, rule registry
# ---------------------------------------------------------------------------


def test_finding_round_trips_and_orders():
    finding = Finding(path="a.py", line=3, rule_id="registry-drift",
                      severity="error", message="m")
    payload = finding_to_dict(finding)
    assert payload == {"path": "a.py", "line": 3,
                       "rule": "registry-drift", "severity": "error",
                       "message": "m"}
    later = Finding(path="a.py", line=9, rule_id="registry-drift",
                    severity="error", message="m")
    assert sorted([later, finding]) == [finding, later]
    with pytest.raises(ConfigError):
        Finding(path="a.py", line=0, rule_id="x", severity="error",
                message="m")
    with pytest.raises(ConfigError):
        Finding(path="a.py", line=1, rule_id="x", severity="fatal",
                message="m")


def test_listener_rebind_message_is_line_insensitive(tmp_path):
    # Shifting the escape site down a file must not change the finding
    # message: messages are meant to be stable across line shifts.
    snippet = """\
        class Server:
            def __init__(self, engine):
                self._done = []

            def hook(self, engine):
                engine.add_listener(self._done.append)

            def flush(self):
                self._done = []
    """
    messages = []
    for name, prefix in (("plain.py", ""), ("padded.py", "# pad\n\n")):
        path = write(tmp_path, f"repro/{name}",
                     prefix + textwrap.dedent(snippet))
        findings = lint_paths([path], rules=["listener-rebind"])
        assert rule_ids(findings) == ["listener-rebind"]
        messages.append(findings[0].message)
    assert messages[0] == messages[1]


def test_rule_registry_resolves_names_and_rejects_unknown():
    assert {rule.rule_id for rule in resolve_lint_rules(None)} \
        == set(LINT_RULES)
    only = resolve_lint_rules(["listener-rebind"])
    assert [rule.rule_id for rule in only] == ["listener-rebind"]
    with pytest.raises(ConfigError) as excinfo:
        resolve_lint_rules(["no-such-rule"])
    assert "listener-rebind" in str(excinfo.value)


# ---------------------------------------------------------------------------
# the repro lint CLI
# ---------------------------------------------------------------------------


def test_cli_lint_exit_codes_and_json_report(tmp_path, capsys):
    clean = write(tmp_path, "repro/sim/clean.py", "X = 1\n")
    assert main(["lint", clean]) == 0
    assert "simlint: no findings" in capsys.readouterr().out
    # Any finding fails the run: this is what the CI lint job enforces.
    dirty = write(tmp_path, "repro/sim/dirty.py", """\
        import time

        def stamp():
            return time.time()

        def another():
            return time.monotonic()
    """)
    json_path = str(tmp_path / "report.json")
    assert main(["lint", dirty, "--json", json_path]) == 1
    out = capsys.readouterr().out
    assert "no-wallclock-in-sim" in out
    assert "2 finding(s)" in out
    with open(json_path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    assert list(payload) == ["findings", "paths"]
    assert payload["paths"] == [dirty]
    assert [finding["rule"] for finding in payload["findings"]] \
        == ["no-wallclock-in-sim"] * 2
    assert "monotonic" in payload["findings"][1]["message"]


def test_cli_lint_rule_selection_and_unknown_rule(tmp_path, capsys):
    path = write(tmp_path, "repro/sim/mixed.py", """\
        import time

        def f(x=[]):
            return time.time(), x
    """)
    assert main(["lint", path, "--rule", "mutable-default-arg"]) == 1
    out = capsys.readouterr().out
    assert "mutable-default-arg" in out
    assert "no-wallclock-in-sim" not in out
    assert main(["lint", path, "--rule", "no-such-rule"]) == 1
    assert "unknown lint rule" in capsys.readouterr().out


def test_cli_lint_list_rules(capsys):
    assert main(["lint", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in LINT_RULES:
        assert rule_id in out


def test_cli_lint_rejects_missing_path(tmp_path, capsys):
    assert main(["lint", str(tmp_path / "nope")]) == 1
    assert "no such file" in capsys.readouterr().out


def test_cli_lint_honours_a_coding_cookie(tmp_path, capsys):
    path = tmp_path / "repro" / "sim" / "latin.py"
    path.parent.mkdir(parents=True)
    path.write_bytes(b'# -*- coding: latin-1 -*-\nNAME = "caf\xe9"\n')
    assert lint_paths([str(path)]) == []
    assert main(["lint", str(path)]) == 0
    captured = capsys.readouterr()
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("payload", [
    b"\xff\xfeX = 1\n",
    b"X = 1\nY = 2\nZ = '\xff'\n",
], ids=["first-line", "past-the-cookie-lines"])
def test_cli_lint_undecodable_file_is_one_error_line(tmp_path, capsys,
                                                     payload):
    path = tmp_path / "bad.py"
    path.write_bytes(payload)
    assert main(["lint", str(path)]) == 1
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: {path}: cannot lint ")
    assert "Traceback" not in captured.out + captured.err


def test_unparseable_file_without_a_line_number(tmp_path):
    path = tmp_path / "nul.py"
    path.write_bytes(b"X = 1\n\x00\n")
    with pytest.raises(ConfigError) as excinfo:
        build_index([str(path)])
    message = str(excinfo.value)
    assert message.startswith(f"{path}:")
    assert "cannot lint unparseable file" in message
    assert "None" not in message


# ---------------------------------------------------------------------------
# the acceptance pin: the shipped tree lints clean
# ---------------------------------------------------------------------------


def test_shipped_tree_lints_clean(capsys):
    """`repro lint src/repro` exits 0: every real finding is fixed or
    carries an audited inline suppression. The CI lint gate's run over
    ``src/repro scripts examples`` with the suppression audit exits 0
    too."""
    assert lint_paths([SRC_REPRO]) == []
    ci_paths = [SRC_REPRO, str(REPO / "scripts"), str(REPO / "examples")]
    assert main(["lint", *ci_paths, "--audit-suppressions"]) == 0
    out = capsys.readouterr().out
    assert "simlint: no findings" in out
    assert "every allow[...] comment still shields a finding" in out


def test_shipped_tree_suppressions_are_audited():
    """The tree's inline allowances stay limited to the known audited
    sites: the serve wall->sim mapping, the two insertion-order
    reporting tables, and the serving report's utilization map (which
    keeps the engine's resource order). The engine needs none: its decode executor registers its handlers
    from a local before the single ``self._decode`` binding.

    No module is excluded: suppressions are parsed from COMMENT
    tokens, so the analysis package and CLI docstrings/help text that
    *mention* the grammar no longer register as live allowances."""
    from repro.analysis import build_index

    index = build_index([SRC_REPRO])
    allowed = {}
    for module in index.modules:
        for line, rules in sorted(module.suppressions.items()):
            allowed.setdefault(module.name, []).append(sorted(rules))
    assert allowed == {
        "repro.serve": [["no-wallclock-in-sim"],
                        ["no-wallclock-in-sim"]],
        "repro.reporting.figures":
            [["unsorted-dict-iteration-in-reporting"]],
        "repro.reporting.tables":
            [["unsorted-dict-iteration-in-reporting"]],
        "repro.sim.metrics":
            [["unsorted-dict-iteration-in-reporting"]],
    }


def test_shipped_tree_suppression_audit_is_clean():
    """Every inline allowance in the shipped tree still shields a
    finding (the CLI's --audit-suppressions promise)."""
    from repro.analysis import audit_suppressions, build_index

    assert audit_suppressions(build_index([SRC_REPRO])) == []
