"""The interprocedural simlint layer: callgraph extraction, fixpoint
effect inference, the transitive/async-race/exception-contract rules,
re-linting, and the suppression audit.

Fixture snippets are written under a ``repro/...`` directory layout in
tmp_path so the scope-limited rules see the same dotted module names
the real tree produces (same convention as test_analysis_lint).
"""

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Callgraph,
    STALE_SUPPRESSION_ID,
    audit_suppressions,
    build_index,
    extract_module_graph,
    finding_to_dict,
    lint_paths,
    resolve_lint_rules,
    run_rules,
)
from repro.analysis.findings import Finding
from repro.cli import main
from repro.errors import ConfigError


def write(tmp_path, rel, source):
    path = tmp_path / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source), encoding="utf-8")
    return str(path)


def rule_ids(findings):
    return [finding.rule_id for finding in findings]


def graph_of(tmp_path, rel, source):
    """Extract the ModuleGraph of a single written fixture module."""
    path = write(tmp_path, rel, source)
    module = build_index([path]).modules[0]
    return module, extract_module_graph(module)


# ---------------------------------------------------------------------------
# callgraph extraction and linking
# ---------------------------------------------------------------------------


def test_callgraph_self_method_resolution(tmp_path):
    _, graph = graph_of(tmp_path, "repro/box.py", """\
        class Box:
            def outer(self):
                return self.inner()

            def inner(self):
                return 1
    """)
    outer = graph.functions["repro.box.Box.outer"]
    assert [site.target for site in outer.calls] == ["self:inner"]
    callgraph = Callgraph({"repro.box": graph})
    assert callgraph.resolve(outer, "self:inner") \
        == "repro.box.Box.inner"


def test_callgraph_inherited_method_resolution(tmp_path):
    _, graph = graph_of(tmp_path, "repro/kinds.py", """\
        class Base:
            def run(self):
                return 0

        class Child(Base):
            def go(self):
                return self.run()
    """)
    go = graph.functions["repro.kinds.Child.go"]
    callgraph = Callgraph({"repro.kinds": graph})
    assert callgraph.resolve(go, "self:run") == "repro.kinds.Base.run"


def test_callgraph_expands_import_aliases(tmp_path):
    _, graph = graph_of(tmp_path, "repro/alias.py", """\
        from repro.util.timing import mid_helper as mh

        def use():
            return mh()
    """)
    use = graph.functions["repro.alias.use"]
    assert [site.target for site in use.calls] \
        == ["repro.util.timing.mid_helper"]


def test_callgraph_expands_function_local_imports(tmp_path):
    """An import deferred into a function body (to keep module import
    cheap) resolves like a module-level one, and shadows it."""
    _, graph = graph_of(tmp_path, "repro/deferred.py", """\
        from repro.util.other import helper

        def use():
            from repro.util.timing import mid_helper as mh
            from repro.util.timing import helper

            return mh(), helper()

        def plain():
            return helper()
    """)
    use = graph.functions["repro.deferred.use"]
    assert [site.target for site in use.calls] \
        == ["repro.util.timing.mid_helper", "repro.util.timing.helper"]
    plain = graph.functions["repro.deferred.plain"]
    assert [site.target for site in plain.calls] \
        == ["repro.util.other.helper"]


def test_callgraph_chases_lazy_package_exports(tmp_path):
    """A lazy package's export table links re-exported names exactly
    as eager ``from x import y`` bindings did."""
    write(tmp_path, "repro/util/__init__.py", """\
        from repro._lazy import lazy_exports

        _EXPORTS = {"mid_helper": "repro.util.timing"}
        __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    """)
    three_hop_fixture(tmp_path)
    write(tmp_path, "repro/sim/engine.py", """\
        from repro.util import mid_helper

        def tick():
            return mid_helper()
    """)
    index = build_index([str(tmp_path)])
    callgraph = Callgraph({module.name: extract_module_graph(module)
                           for module in index.modules})
    tick = callgraph.functions["repro.sim.engine.tick"]
    assert [callgraph.resolve(tick, site.target) for site in tick.calls] \
        == ["repro.util.timing.mid_helper"]
    findings = lint_paths([str(tmp_path)],
                          rules=["transitive-wallclock-in-sim"])
    assert rule_ids(findings) == ["transitive-wallclock-in-sim"]


def test_callgraph_nested_defs_get_their_own_nodes(tmp_path):
    _, graph = graph_of(tmp_path, "repro/nest.py", """\
        def outer():
            def inner():
                return 1
            return inner()
    """)
    outer = graph.functions["repro.nest.outer"]
    inner = graph.functions["repro.nest.outer.inner"]
    assert [site.target for site in outer.calls] \
        == ["repro.nest.outer.inner"]
    assert inner.is_nested and not outer.is_nested


def test_callgraph_constructor_edges(tmp_path):
    _, graph = graph_of(tmp_path, "repro/ctor.py", """\
        from dataclasses import dataclass

        class Plain:
            def __init__(self):
                self.x = 1

        @dataclass
        class Cfg:
            def __post_init__(self):
                self.y = 2

        def build():
            return Plain(), Cfg()
    """)
    build = graph.functions["repro.ctor.build"]
    callgraph = Callgraph({"repro.ctor": graph})
    resolved = sorted(callgraph.resolve(build, site.target)
                      for site in build.calls)
    assert resolved == ["repro.ctor.Cfg.__post_init__",
                        "repro.ctor.Plain.__init__"]


# ---------------------------------------------------------------------------
# transitive-wallclock-in-sim
# ---------------------------------------------------------------------------


def three_hop_fixture(tmp_path):
    write(tmp_path, "repro/util/timing.py", """\
        import time

        def deep_helper():
            return time.time()

        def mid_helper():
            return deep_helper()
    """)
    return write(tmp_path, "repro/sim/engine.py", """\
        from repro.util.timing import mid_helper

        def tick():
            return mid_helper()
    """)


def test_three_hop_wallclock_chain_flagged(tmp_path):
    three_hop_fixture(tmp_path)
    findings = lint_paths([str(tmp_path)],
                          rules=["transitive-wallclock-in-sim"])
    assert rule_ids(findings) == ["transitive-wallclock-in-sim"]
    finding = findings[0]
    assert finding.path.endswith("engine.py")
    assert finding.line == 4
    assert ("repro.sim.engine.tick -> repro.util.timing.mid_helper "
            "-> repro.util.timing.deep_helper -> time.time()"
            ) in finding.message
    assert len(finding.evidence) == 3
    assert finding.evidence[0].endswith(
        "repro.sim.engine.tick -> repro.util.timing.mid_helper")
    assert finding.evidence[-1].endswith(
        "repro.util.timing.deep_helper -> time.time()")


def test_chain_reported_once_at_the_scope_boundary(tmp_path):
    write(tmp_path, "repro/util/clock.py", """\
        import time

        def read():
            return time.time()
    """)
    write(tmp_path, "repro/sim/mid.py", """\
        from repro.util.clock import read

        def grab():
            return read()
    """)
    write(tmp_path, "repro/sim/top.py", """\
        from repro.sim.mid import grab

        def run():
            return grab()
    """)
    findings = lint_paths([str(tmp_path)],
                          rules=["transitive-wallclock-in-sim"])
    # Only the boundary-crossing frame fires; top.run's first hop is
    # in-scope (mid.grab gets the shorter-chained finding itself).
    assert [Path(f.path).name for f in findings] == ["mid.py"]


def test_direct_atom_left_to_the_syntactic_rule(tmp_path):
    path = write(tmp_path, "repro/sim/direct.py", """\
        import time

        def now():
            return time.time()
    """)
    assert lint_paths([path],
                      rules=["transitive-wallclock-in-sim"]) == []
    assert rule_ids(lint_paths([path], rules=["no-wallclock-in-sim"])) \
        == ["no-wallclock-in-sim"]


def test_allow_on_atom_line_sanitizes_taint(tmp_path):
    write(tmp_path, "repro/util/audited.py", """\
        import time

        def read():
            return time.time()  # simlint: allow[no-wallclock-in-sim]
    """)
    write(tmp_path, "repro/sim/user.py", """\
        from repro.util.audited import read

        def grab():
            return read()
    """)
    assert lint_paths([str(tmp_path)],
                      rules=["transitive-wallclock-in-sim"]) == []


def test_allow_on_call_site_sanitizes_and_audits_live(tmp_path):
    write(tmp_path, "repro/util/clock.py", """\
        import time

        def read():
            return time.time()
    """)
    write(tmp_path, "repro/sim/user.py", """\
        from repro.util.clock import read

        def grab():
            return read()  # simlint: allow[transitive-wallclock-in-sim]
    """)
    index = build_index([str(tmp_path)])
    from repro.analysis import run_rules, resolve_lint_rules
    assert run_rules(index, resolve_lint_rules(None)) == []
    # The allowance still shields a (blinded) finding: not stale.
    assert audit_suppressions(index) == []


# ---------------------------------------------------------------------------
# transitive-unseeded-rng
# ---------------------------------------------------------------------------


def test_transitive_unseeded_rng_through_helper(tmp_path):
    write(tmp_path, "repro/util/jitter.py", """\
        import random

        def draw():
            return random.random()
    """)
    write(tmp_path, "repro/sim/arrivals.py", """\
        from repro.util.jitter import draw

        def sample():
            return draw()
    """)
    findings = lint_paths([str(tmp_path)],
                          rules=["transitive-unseeded-rng"])
    assert rule_ids(findings) == ["transitive-unseeded-rng"]
    assert "random.random()" in findings[0].message
    assert findings[0].path.endswith("arrivals.py")


def test_unseeded_constructor_is_an_atom_only_without_args(tmp_path):
    write(tmp_path, "repro/util/gen.py", """\
        import random

        def seeded(seed):
            return random.Random(seed)

        def unseeded():
            return random.Random()
    """)
    write(tmp_path, "repro/sim/use.py", """\
        from repro.util.gen import seeded, unseeded

        def good():
            return seeded(7)

        def bad():
            return unseeded()
    """)
    findings = lint_paths([str(tmp_path)],
                          rules=["transitive-unseeded-rng"])
    assert len(findings) == 1
    assert "repro.sim.use.bad" in findings[0].message


# ---------------------------------------------------------------------------
# SCC / recursion convergence
# ---------------------------------------------------------------------------


def test_mutual_recursion_converges_and_taints_callers(tmp_path):
    write(tmp_path, "repro/util/rec.py", """\
        import time

        def ping(n):
            if n:
                return pong(n - 1)
            return time.time()

        def pong(n):
            return ping(n)
    """)
    write(tmp_path, "repro/sim/loop.py", """\
        from repro.util.rec import ping

        def run():
            return ping(3)
    """)
    index = build_index([str(tmp_path)])
    effects = index.effects()
    # Both members of the cycle carry the wallclock taint.
    for qualname in ("repro.util.rec.ping", "repro.util.rec.pong"):
        assert "wallclock" in effects.summary(qualname).chains
    findings = lint_paths([str(tmp_path)],
                          rules=["transitive-wallclock-in-sim"])
    assert rule_ids(findings) == ["transitive-wallclock-in-sim"]
    assert "time.time()" in findings[0].message


def test_self_recursion_terminates(tmp_path):
    path = write(tmp_path, "repro/util/selfy.py", """\
        def spin(n):
            return spin(n - 1) if n else 0
    """)
    index = build_index([path])
    summary = index.effects().summary("repro.util.selfy.spin")
    assert summary is not None and summary.chains == {}


# ---------------------------------------------------------------------------
# await-shards-shared-state
# ---------------------------------------------------------------------------


def test_await_race_true_positive(tmp_path):
    path = write(tmp_path, "repro/distrib/pool.py", """\
        import asyncio

        class Pool:
            async def admit(self, job):
                jobs = self.jobs
                await asyncio.sleep(0)
                self.jobs = jobs + [job]
    """)
    findings = lint_paths([path], rules=["await-shards-shared-state"])
    assert rule_ids(findings) == ["await-shards-shared-state"]
    finding = findings[0]
    assert finding.line == 7
    assert "self.jobs" in finding.message
    assert len(finding.evidence) == 2
    assert "captured into a local" in finding.evidence[0]
    assert "rebound after an await" in finding.evidence[1]


def test_await_race_reread_refreshes_the_snapshot(tmp_path):
    path = write(tmp_path, "repro/distrib/pool.py", """\
        import asyncio

        class Pool:
            async def admit(self, job):
                jobs = self.jobs
                await asyncio.sleep(0)
                jobs = self.jobs
                self.jobs = jobs + [job]
    """)
    assert lint_paths([path], rules=["await-shards-shared-state"]) == []


def test_await_race_augassign_is_self_guarding(tmp_path):
    path = write(tmp_path, "repro/distrib/count.py", """\
        import asyncio

        class Counter:
            async def bump(self):
                count = self.count
                await asyncio.sleep(0)
                self.count += 1
                return count
    """)
    assert lint_paths([path], rules=["await-shards-shared-state"]) == []


def test_await_race_in_place_mutation_is_not_a_rebind(tmp_path):
    path = write(tmp_path, "repro/distrib/mut.py", """\
        import asyncio

        class Pool:
            async def admit(self, job):
                jobs = self.jobs
                await asyncio.sleep(0)
                self.jobs.append(job)
                return jobs
    """)
    assert lint_paths([path], rules=["await-shards-shared-state"]) == []


def test_await_race_on_declared_module_global(tmp_path):
    path = write(tmp_path, "repro/distrib/state.py", """\
        import asyncio

        PENDING = []

        async def flush():
            global PENDING
            snapshot = PENDING
            await asyncio.sleep(0)
            PENDING = snapshot[1:]
    """)
    findings = lint_paths([path], rules=["await-shards-shared-state"])
    assert rule_ids(findings) == ["await-shards-shared-state"]
    assert "PENDING" in findings[0].message


def test_await_race_scoped_to_coordinator_packages(tmp_path):
    path = write(tmp_path, "repro/rago/pool.py", """\
        import asyncio

        class Pool:
            async def admit(self, job):
                jobs = self.jobs
                await asyncio.sleep(0)
                self.jobs = jobs + [job]
    """)
    assert lint_paths([path], rules=["await-shards-shared-state"]) == []


# ---------------------------------------------------------------------------
# exception-contract
# ---------------------------------------------------------------------------


def test_contract_flags_foreign_escape(tmp_path):
    path = write(tmp_path, "repro/distrib/api.py", """\
        def submit(job):
            raise ValueError("bad job")
    """)
    findings = lint_paths([path], rules=["exception-contract"])
    assert rule_ids(findings) == ["exception-contract"]
    assert "ValueError" in findings[0].message
    assert "repro.distrib" in findings[0].message


def test_contract_allows_declared_errors_and_subclasses(tmp_path):
    path = write(tmp_path, "repro/distrib/api.py", """\
        from repro.errors import ConfigError, DistribError

        class ShardError(DistribError):
            pass

        def submit(job):
            raise ShardError("no shard")

        def configure(spec):
            raise ConfigError("bad spec")
    """)
    assert lint_paths([path], rules=["exception-contract"]) == []


def test_contract_respects_try_except_interception(tmp_path):
    path = write(tmp_path, "repro/distrib/api.py", """\
        def submit(job):
            try:
                return _validate(job)
            except ValueError:
                return None

        def _validate(job):
            raise ValueError("bad")
    """)
    assert lint_paths([path], rules=["exception-contract"]) == []


def test_contract_traces_escape_through_private_helper(tmp_path):
    path = write(tmp_path, "repro/distrib/api.py", """\
        def submit(job):
            return _validate(job)

        def _validate(job):
            raise KeyError(job)
    """)
    findings = lint_paths([path], rules=["exception-contract"])
    assert rule_ids(findings) == ["exception-contract"]
    assert ("repro.distrib.api.submit -> repro.distrib.api._validate "
            "-> raise KeyError") in findings[0].message
    assert len(findings[0].evidence) == 2


def test_contract_exempts_abstract_guards_and_private_fns(tmp_path):
    path = write(tmp_path, "repro/distrib/base.py", """\
        class Backend:
            def run(self):
                raise NotImplementedError

        def _probe():
            raise RuntimeError("internal only")
    """)
    assert lint_paths([path], rules=["exception-contract"]) == []


# ---------------------------------------------------------------------------
# re-linting and one extraction per module
# ---------------------------------------------------------------------------


def test_warm_relint_reflects_cross_module_edit(tmp_path):
    write(tmp_path, "repro/util/h.py", """\
        import time

        def read():
            return time.time()
    """)
    write(tmp_path, "repro/sim/s.py", """\
        from repro.util.h import read

        def grab():
            return read()
    """)
    tree = str(tmp_path / "repro")
    first = lint_paths([tree], rules=["transitive-wallclock-in-sim"])
    assert rule_ids(first) == ["transitive-wallclock-in-sim"]
    # Fix the helper: the re-lint sees the taint gone from its caller.
    write(tmp_path, "repro/util/h.py", """\
        def read():
            return 0.0
    """)
    assert lint_paths([tree], rules=["transitive-wallclock-in-sim"]) == []


def test_lint_and_audit_extract_each_module_once(tmp_path, monkeypatch):
    import repro.analysis.callgraph as callgraph

    three_hop_fixture(tmp_path)
    write(tmp_path, "repro/sim/quiet.py", """\
        import time

        def stamp():
            return time.time()  # simlint: allow[no-wallclock-in-sim]
    """)
    extracted = []
    real = callgraph.extract_module_graph

    def counting(module):
        extracted.append(module.name)
        return real(module)

    monkeypatch.setattr(callgraph, "extract_module_graph", counting)
    index = build_index([str(tmp_path)])
    findings = run_rules(index, resolve_lint_rules(None))
    assert "transitive-wallclock-in-sim" in rule_ids(findings)
    assert audit_suppressions(index) == []
    assert sorted(extracted) == sorted(
        module.name for module in index.modules)
    assert len(extracted) == 3


# ---------------------------------------------------------------------------
# widened registry suffixes (satellite 1)
# ---------------------------------------------------------------------------


def test_registry_suffixes_cover_backends_and_runners(tmp_path):
    path = write(tmp_path, "repro/plugins.py", """\
        PLUGIN_BACKENDS = {"thread": make_thread}
    """)
    findings = lint_paths([path], rules=["registry-drift"])
    messages = " / ".join(f.message for f in findings)
    assert "PLUGIN_BACKENDS" in messages
    assert "make_thread" in messages  # unbound factory
    assert "parse_plugin" in messages  # no entry point anywhere


def test_registry_with_entry_point_and_factories_is_clean(tmp_path):
    path = write(tmp_path, "repro/runners.py", """\
        def run_local():
            return 0

        def resolve_job_runner(name):
            return JOB_RUNNERS[name]

        JOB_RUNNERS = {"local": run_local}
    """)
    assert lint_paths([path], rules=["registry-drift"]) == []


# ---------------------------------------------------------------------------
# module naming outside the repro tree (satellite 5 groundwork)
# ---------------------------------------------------------------------------


def test_bare_stem_outside_repro_tree_is_not_scope_matched(tmp_path):
    # A file literally named serve.py must not be mistaken for
    # repro.serve by the scope-gated rules.
    path = write(tmp_path, "serve.py", """\
        import time

        def stamp():
            return time.time()
    """)
    assert lint_paths([path], rules=["no-wallclock-in-sim",
                                     "transitive-wallclock-in-sim"]) == []


def test_same_stem_files_in_different_dirs_do_not_collide(tmp_path):
    first = write(tmp_path, "scripts/tool.py", "A = 1\n")
    second = write(tmp_path, "examples/tool.py", "B = 2\n")
    index = build_index([first, second])
    names = sorted(module.name for module in index.modules)
    # The directory chain stays in the dotted name, so the two stems
    # get distinct keys (a bare-stem fallback would collide on "tool").
    assert len(set(names)) == 2
    assert names[0].endswith("examples.tool")
    assert names[1].endswith("scripts.tool")


# ---------------------------------------------------------------------------
# tokenized suppression parsing
# ---------------------------------------------------------------------------


def test_docstring_mention_of_grammar_is_not_a_suppression(tmp_path):
    path = write(tmp_path, "repro/sim/doc.py", '''\
        """Use ``# simlint: allow[no-wallclock-in-sim]`` to suppress."""

        import time

        def stamp():
            return time.time()
    ''')
    index = build_index([path])
    assert index.modules[0].suppressions == {}
    findings = lint_paths([path], rules=["no-wallclock-in-sim"])
    assert rule_ids(findings) == ["no-wallclock-in-sim"]


# ---------------------------------------------------------------------------
# suppression audit (satellite 2)
# ---------------------------------------------------------------------------


def test_stale_suppression_reported(tmp_path):
    path = write(tmp_path, "repro/sim/ok.py", """\
        def f():
            return 1  # simlint: allow[no-wallclock-in-sim]
    """)
    stale = audit_suppressions(build_index([path]))
    assert rule_ids(stale) == [STALE_SUPPRESSION_ID]
    assert stale[0].line == 2
    assert "allow[no-wallclock-in-sim]" in stale[0].message


def test_empty_suppression_reported(tmp_path):
    """An empty ``allow[]`` shields nothing, whatever the selection."""
    path = write(tmp_path, "repro/sim/empty.py", """\
        import time

        def f():
            return time.time()  # simlint: allow[]
    """)
    assert rule_ids(lint_paths([path], rules=["no-wallclock-in-sim"])) \
        == ["no-wallclock-in-sim"]
    index = build_index([path])
    for rules in (None, ["registry-drift"]):
        stale = audit_suppressions(index, rules=rules)
        assert [(f.line, f.rule_id) for f in stale] \
            == [(4, STALE_SUPPRESSION_ID)]
        assert "allow[]" in stale[0].message


def test_live_suppression_not_reported(tmp_path):
    path = write(tmp_path, "repro/sim/live.py", """\
        import time

        def f():
            return time.time()  # simlint: allow[no-wallclock-in-sim]
    """)
    assert audit_suppressions(build_index([path])) == []


def test_stale_wildcard_vs_live_wildcard(tmp_path):
    path = write(tmp_path, "repro/sim/wild.py", """\
        import time

        def f():
            return time.time()  # simlint: allow[*]

        def g():
            return 1  # simlint: allow[*]
    """)
    stale = audit_suppressions(build_index([path]))
    assert [(f.line, f.rule_id) for f in stale] \
        == [(7, STALE_SUPPRESSION_ID)]


def test_audit_skips_ids_outside_an_explicit_selection(tmp_path):
    path = write(tmp_path, "repro/sim/sel.py", """\
        def f():
            return 1  # simlint: allow[no-wallclock-in-sim]
    """)
    index = build_index([path])
    # Under a selection that excludes the rule, the allowance cannot
    # be audited and is not flagged.
    assert audit_suppressions(index, rules=["registry-drift"]) == []
    assert rule_ids(audit_suppressions(index)) == [STALE_SUPPRESSION_ID]


# ---------------------------------------------------------------------------
# CLI: --audit-suppressions / --explain
# ---------------------------------------------------------------------------


def test_cli_audit_exit_codes(tmp_path, capsys):
    path = write(tmp_path, "repro/sim/ok.py", """\
        def f():
            return 1  # simlint: allow[no-wallclock-in-sim]
    """)
    assert main(["lint", path]) == 0
    capsys.readouterr()
    assert main(["lint", path, "--audit-suppressions"]) == 1
    assert "stale-suppression" in capsys.readouterr().out


def test_cli_audit_clean_tree_stays_green(tmp_path, capsys):
    path = write(tmp_path, "repro/sim/live.py", """\
        import time

        def f():
            return time.time()  # simlint: allow[no-wallclock-in-sim]
    """)
    assert main(["lint", path, "--audit-suppressions"]) == 0
    assert ("every allow[...] comment still shields a finding"
            in capsys.readouterr().out)


def test_cli_explain_prints_evidence_chain(tmp_path, capsys):
    three_hop_fixture(tmp_path)
    code = main(["lint", str(tmp_path),
                 "--rule", "transitive-wallclock-in-sim",
                 "--explain", "transitive-wallclock-in-sim"])
    assert code == 1  # the finding is real
    out = capsys.readouterr().out
    assert "evidence for transitive-wallclock-in-sim" in out
    assert "repro.util.timing.deep_helper -> time.time()" in out


def test_cli_explain_without_findings(tmp_path, capsys):
    path = write(tmp_path, "repro/sim/clean.py", "X = 1\n")
    assert main(["lint", path,
                 "--explain", "transitive-wallclock-in-sim"]) == 0
    assert ("no findings from this rule"
            in capsys.readouterr().out)


def test_cli_explain_rejects_an_unknown_rule(tmp_path, capsys):
    path = write(tmp_path, "repro/sim/clean.py", "X = 1\n")
    assert main(["lint", path, "--explain", "NOPE"]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: unknown lint rule 'NOPE'; known: ")
    assert "no findings from this rule" not in out


def test_cli_explain_rejects_a_rule_outside_the_selection(tmp_path, capsys):
    """Regression: ``--explain`` of a rule ``--rule`` leaves out printed
    "no findings from this rule" for a rule that never ran."""
    path = write(tmp_path, "repro/sim/clean.py", "X = 1\n")
    assert main(["lint", path, "--rule", "mutable-default-arg",
                 "--explain", "registry-drift"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error: --explain registry-drift names a rule the --rule "
        "selection leaves out; add --rule registry-drift"]


def test_cli_json_report_carries_evidence(tmp_path):
    three_hop_fixture(tmp_path)
    report = tmp_path / "lint-report.json"
    main(["lint", str(tmp_path / "repro"),
          "--rule", "transitive-wallclock-in-sim",
          "--json", str(report)])
    payload = json.loads(report.read_text(encoding="utf-8"))
    finding = payload["findings"][0]
    assert finding["rule"] == "transitive-wallclock-in-sim"
    assert len(finding["evidence"]) == 3


# ---------------------------------------------------------------------------
# Finding.evidence plumbing
# ---------------------------------------------------------------------------


def test_finding_evidence_round_trips_through_json():
    finding = Finding(path="a.py", line=3, rule_id="exception-contract",
                      severity="error", message="m",
                      evidence=("a.py:3: f -> g", "b.py:9: g -> raise X"))
    payload = finding_to_dict(finding)
    assert payload["evidence"] == ["a.py:3: f -> g", "b.py:9: g -> raise X"]
    assert json.loads(json.dumps(payload)) == payload


def test_finding_without_evidence_omits_the_key():
    finding = Finding(path="a.py", line=3, rule_id="r",
                      severity="error", message="m")
    assert "evidence" not in finding_to_dict(finding)


def test_finding_evidence_excluded_from_baseline_identity():
    bare = Finding(path="a.py", line=3, rule_id="r", severity="error",
                   message="m")
    chained = Finding(path="a.py", line=3, rule_id="r", severity="error",
                      message="m", evidence=("a.py:3: f -> g",))
    assert bare == chained  # compare=False: evidence is not identity


def test_finding_rejects_non_string_evidence():
    with pytest.raises(ConfigError):
        Finding(path="a.py", line=3, rule_id="r", severity="error",
                message="m", evidence=(1, 2))
