"""CLI tests."""

import pytest

from repro.cli import _COMMANDS, _build_parser, main


def test_list_shows_all_artifacts(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for exp_id in ("fig5", "fig10", "table2", "table4"):
        assert exp_id in out


def test_run_table2(capsys):
    assert main(["run", "table2"]) == 0
    out = capsys.readouterr().out
    assert "XPU-C" in out
    assert "459" in out


def test_run_unknown_experiment_fails_cleanly(capsys):
    assert main(["run", "fig99"]) == 1
    assert "error:" in capsys.readouterr().out


def test_optimize_case_i(capsys):
    assert main(["optimize", "--case", "i", "--llm", "8B"]) == 0
    out = capsys.readouterr().out
    assert "frontier" in out
    assert "throughput-optimal schedule" in out


def test_optimize_with_ttft_slo(capsys):
    assert main(["optimize", "--case", "i", "--llm", "8B",
                 "--max-ttft", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "TTFT <= 0.1" in out


def test_optimize_case_ii(capsys):
    assert main(["optimize", "--case", "ii", "--llm", "70B",
                 "--context", "100000"]) == 0
    out = capsys.readouterr().out
    assert "case-ii" in out


def test_optimize_impossible_slo_reports_error(capsys):
    assert main(["optimize", "--case", "i", "--llm", "8B",
                 "--max-ttft", "0.000001"]) == 1
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(_COMMANDS))
def test_every_command_builds_its_parser(name, capsys):
    """Flags are declared for the running subcommand only, so each
    subcommand's declarer runs here once."""
    with pytest.raises(SystemExit) as exited:
        main([name, "--help"])
    assert exited.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: repro {name}")


@pytest.mark.parametrize("name", ["sweep", "whatif"])
def test_backend_choices_follow_the_registry(name):
    from repro.distrib import SWEEP_BACKENDS

    args = _build_parser(name).parse_args([name])
    backend, = [action for action in args.subparser._actions
                if action.dest == "backend"]
    assert backend.choices == tuple(SWEEP_BACKENDS)


def test_unknown_command_exits():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_provision_command(capsys):
    assert main(["provision", "--case", "i", "--llm", "8B",
                 "--qps", "500"]) == 0
    out = capsys.readouterr().out
    assert "fleet" in out
    assert "replica" in out


def test_provision_with_slo(capsys):
    assert main(["provision", "--case", "i", "--llm", "8B",
                 "--qps", "100", "--max-ttft", "0.2"]) == 0
    assert "TTFT <= 0.2" in capsys.readouterr().out


def test_provision_impossible_target(capsys):
    assert main(["provision", "--case", "i", "--llm", "8B",
                 "--qps", "1000000000"]) == 1
    assert "error:" in capsys.readouterr().out


def test_run_with_json_export(tmp_path, capsys):
    path = tmp_path / "fig10.json"
    assert main(["run", "fig10", "--json", str(path)]) == 0
    import json
    payload = json.loads(path.read_text())
    assert payload["exp_id"] == "fig10"
    assert "data" in payload and payload["data"]["diagonal"]


def test_optimize_xpu_generation(capsys):
    assert main(["optimize", "--case", "i", "--llm", "8B",
                 "--xpu", "A"]) == 0
    out = capsys.readouterr().out
    assert "XPU-A" in out


def test_optimize_json_export(tmp_path, capsys):
    path = tmp_path / "opt.json"
    assert main(["optimize", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--json", str(path)]) == 0
    import json
    payload = json.loads(path.read_text())
    assert payload["workload"]["kind"] == "rag_schema"
    assert payload["frontier"]
    assert payload["chosen"]["schedule"]["kind"] == "schedule"
    assert payload["chosen"]["qps_per_chip"] > 0


def test_optimize_from_schema_config(tmp_path, capsys):
    from repro import config
    from repro.schema import case_i_hyperscale

    path = tmp_path / "workload.json"
    config.save(str(path), case_i_hyperscale("1B"))
    assert main(["optimize", "--config", str(path),
                 "--servers", "16"]) == 0
    out = capsys.readouterr().out
    assert "case-i-llama3-1b" in out
    assert "frontier" in out


def test_optimize_from_full_config_reproduces_frontier(tmp_path, capsys):
    """Acceptance: a serialized optimization config reproduces the same
    frontier the in-process session finds."""
    from repro import ClusterSpec, OptimizerSession, config
    from repro.rago.search import SearchConfig
    from repro.schema import case_iv_rewriter_reranker

    schema = case_iv_rewriter_reranker("70B")
    cluster = ClusterSpec(num_servers=16)
    search = SearchConfig(max_batch=32, max_decode_batch=128)
    expected = OptimizerSession(schema, cluster).frontier(search)

    path = tmp_path / "caseiv.json"
    config.save(str(path), config.OptimizationConfig(
        schema=schema, cluster=cluster, search=search))
    out_path = tmp_path / "result.json"
    assert main(["optimize", "--config", str(path),
                 "--json", str(out_path)]) == 0
    assert "case-iv-llama3-70b" in capsys.readouterr().out

    import json
    payload = json.loads(out_path.read_text())
    got = [(point["ttft"], point["qps_per_chip"])
           for point in payload["frontier"]]
    assert got == [(perf.ttft, perf.qps_per_chip) for perf in expected]


def test_optimize_max_ttft_merges_with_config_objective(tmp_path, capsys):
    """--max-ttft tightens the loaded objective instead of discarding
    its other constraints."""
    from repro import ClusterSpec, config
    from repro.rago.objectives import ServiceObjective
    from repro.rago.search import SearchConfig
    from repro.schema import case_i_hyperscale

    path = tmp_path / "exp.json"
    config.save(str(path), config.OptimizationConfig(
        schema=case_i_hyperscale("1B"),
        cluster=ClusterSpec(num_servers=16),
        search=SearchConfig(max_batch=32, max_decode_batch=128),
        objective=ServiceObjective(max_tpot=1e-12)))  # unsatisfiable
    # Without the merge fix, --max-ttft would drop the tpot bound and
    # happily pick a schedule; with it, the run must report failure.
    assert main(["optimize", "--config", str(path),
                 "--max-ttft", "10.0"]) == 1
    assert "error:" in capsys.readouterr().out


def test_optimize_explicit_flags_override_config_cluster(tmp_path, capsys):
    from repro import ClusterSpec, config
    from repro.schema import case_i_hyperscale

    path = tmp_path / "w.json"
    config.save(str(path), config.OptimizationConfig(
        schema=case_i_hyperscale("1B"),
        cluster=ClusterSpec(num_servers=32)))
    assert main(["optimize", "--config", str(path),
                 "--servers", "16", "--xpu", "A"]) == 0
    out = capsys.readouterr().out
    assert "16 servers" in out
    assert "XPU-A" in out


def test_optimize_config_wrong_kind_fails_cleanly(tmp_path, capsys):
    from repro import ClusterSpec, config

    path = tmp_path / "cluster.json"
    config.save(str(path), ClusterSpec(num_servers=16))
    assert main(["optimize", "--config", str(path)]) == 1
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("knobs", [
    {"max_batch": "8"},
    {"allocations": [[1.5, 2]]},
    {"budget_xpus": 2.5},
    {"collect_per_plan": "no"},
    {"max_frontier_points": 0},
], ids=["max_batch-str", "allocations-float", "budget_xpus-float",
        "collect_per_plan-str", "max_frontier_points-zero"])
def test_optimize_config_malformed_search_knob_fails_cleanly(
        tmp_path, capsys, knobs):
    import json

    from repro import ClusterSpec, config
    from repro.schema import case_i_hyperscale

    path = tmp_path / "bad.json"
    config.save(str(path), config.OptimizationConfig(
        schema=case_i_hyperscale("1B"), cluster=ClusterSpec(num_servers=16)))
    envelope = json.loads(path.read_text())
    envelope["spec"]["search"] = knobs
    path.write_text(json.dumps(envelope))
    assert main(["optimize", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and out.count("\n") == 1
    assert next(iter(knobs)) in out


def test_optimize_missing_config_fails_cleanly(capsys):
    assert main(["optimize", "--config", "/nonexistent/x.json"]) == 1
    assert "error:" in capsys.readouterr().out


def test_sweep_command(capsys):
    assert main(["sweep", "--case", "i", "--llms", "1B,8B",
                 "--servers", "16"]) == 0
    out = capsys.readouterr().out
    assert "swept 2 cells" in out
    assert "llama3-1b" in out and "llama3-8b" in out
    assert "best_qps_per_chip" in out


def test_sweep_json_export(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    assert main(["sweep", "--case", "i", "--llms", "1B",
                 "--servers", "16", "--json", str(path)]) == 0
    import json
    payload = json.loads(path.read_text())
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["llm"] == "llama3-1b"
    assert payload["rows"][0]["ok"] is True


def test_sweep_bad_axis_fails_cleanly(capsys):
    assert main(["sweep", "--llms", " ", "--servers", "16"]) == 1
    assert "error:" in capsys.readouterr().out


def test_sweep_all_cells_infeasible_exits_nonzero(capsys):
    # 405B cannot fit (nor can the hyperscale database) on one server.
    assert main(["sweep", "--case", "i", "--llms", "405B",
                 "--servers", "1"]) == 1
    out = capsys.readouterr().out
    assert "infeasible" in out


# ---------------------------------------------------------------------------
# replay: trace-driven serving reports from the command line.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("scenario", ["poisson", "bursty", "diurnal"])
def test_replay_builtin_scenarios_emit_reports(tmp_path, capsys, scenario):
    import json

    path = tmp_path / f"{scenario}.json"
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--scenario", scenario,
                 "--duration", "3", "--load", "0.5",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert f"scenario {scenario}" in out
    assert "TTFT (ms)" in out and "attainment" in out
    payload = json.loads(path.read_text())
    report = payload["report"]
    assert report["kind"] == "serving_report"
    spec = report["spec"]
    assert set(spec["slo_attainment"]) == {"ttft", "tpot", "joint"}
    for key in ("p50", "p95", "p99"):
        assert spec["ttft"][key] > 0
    assert payload["trace"]["spec"]["metadata"]["scenario"] == scenario
    assert payload["schedule"]["kind"] == "schedule"


def test_replay_from_recorded_trace_file(tmp_path, capsys):
    import json

    from repro.workloads import poisson_trace

    trace_path = tmp_path / "recorded.jsonl"
    poisson_trace(100, 2.0, seed=5).to_jsonl(str(trace_path))
    out_path = tmp_path / "replayed.json"
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--trace", str(trace_path),
                 "--json", str(out_path)]) == 0
    out = capsys.readouterr().out
    # A recorded poisson trace keeps its provenance through replay.
    assert "scenario poisson" in out
    payload = json.loads(out_path.read_text())
    spec = payload["report"]["spec"]
    assert spec["scenario"] == "poisson"
    assert spec["trace_metadata"]["source"] == str(trace_path)
    assert spec["slo_attainment"]["joint"] >= 0.0


def test_replay_respects_slo_flags(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--duration", "2",
                 "--slo-ttft", "1e-9"]) == 0
    out = capsys.readouterr().out
    assert "0.0%" in out  # nothing meets a nanosecond TTFT target


def test_replay_missing_trace_file_fails_cleanly(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--trace", "/nonexistent.jsonl"]) == 1
    assert "error:" in capsys.readouterr().out


def test_replay_bad_rate_fails_cleanly(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--rate", "-5"]) == 1
    assert "error:" in capsys.readouterr().out


def test_replay_trace_conflicts_with_scenario_flags(tmp_path, capsys):
    from repro.workloads import poisson_trace

    trace_path = tmp_path / "t.jsonl"
    poisson_trace(50, 2.0, seed=1).to_jsonl(str(trace_path))
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--trace", str(trace_path), "--rate", "200"]) == 1
    out = capsys.readouterr().out
    assert "error:" in out and "--rate" in out


def test_replay_admission_flag_and_json_policies(tmp_path, capsys):
    import json

    path = tmp_path / "admitted.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--duration", "2", "--admission", "greedy",
                 "--dispatch", "size-capped", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scenario poisson" in out
    payload = json.loads(path.read_text())
    # The policy selections travel in the artifact, so the report can be
    # regenerated faithfully from this file alone.
    assert payload["policies"] == {"dispatch": "size-capped",
                                   "admission": "greedy"}


def test_replay_unknown_admission_rejected(capsys):
    # --admission is free-form (parameterized values are legal), so an
    # unknown name is a clean ConfigError, not an argparse exit.
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--admission", "bogus"]) == 1
    out = capsys.readouterr().out
    assert "unknown admission policy" in out


def test_replay_malformed_admission_value_rejected(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16",
                 "--admission", "token-budget=lots"]) == 1
    assert "token-budget=<int>" in capsys.readouterr().out
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--admission", "token-budget"]) == 1
    assert "needs a budget" in capsys.readouterr().out
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--admission", "greedy=3"]) == 1
    assert "takes no value" in capsys.readouterr().out


def test_replay_token_budget_value_roundtrips_json(tmp_path, capsys):
    import json

    from repro.sim.policies import TokenBudgetAdmission, \
        parse_admission_policy

    path = tmp_path / "budgeted.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--duration", "2", "--admission", "token-budget=4096",
                 "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    spec = payload["policies"]["admission"]
    assert spec == "token-budget=4096"
    assert parse_admission_policy(spec) == \
        TokenBudgetAdmission(max_tokens=4096)


def test_replay_fleet_breakdown_and_json(tmp_path, capsys):
    import json

    path = tmp_path / "fleet.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--duration", "2", "--replicas", "3",
                 "--routing", "round-robin", "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "per-replica breakdown" in out
    payload = json.loads(path.read_text())
    assert payload["fleet"]["replicas"] == 3
    assert payload["policies"]["routing"] == "round-robin"
    per_replica = payload["fleet"]["per_replica"]
    assert len(per_replica) == 3
    assert sum(row["offered"] for row in per_replica) \
        == payload["report"]["spec"]["offered"]
    assert sum(row["completed"] for row in per_replica) \
        == payload["report"]["spec"]["completed"]


def test_replay_rejects_non_positive_replicas(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--replicas", "0"]) == 1
    assert "--replicas" in capsys.readouterr().out


def test_replay_schedule_flag_closes_the_loop(tmp_path, capsys):
    """An emitted --json artifact replays through its own embedded
    schedule to the same report (the serve -> replay round trip)."""
    import json

    from repro.workloads import poisson_trace

    trace_path = tmp_path / "t.jsonl"
    poisson_trace(100, 2.0, seed=5, mean_decode_len=64).to_jsonl(
        str(trace_path))
    first = tmp_path / "first.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--trace", str(trace_path), "--json", str(first)]) == 0
    second = tmp_path / "second.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--trace", str(trace_path), "--schedule", str(first),
                 "--json", str(second)]) == 0
    a = json.loads(first.read_text())
    b = json.loads(second.read_text())
    assert a["schedule"] == b["schedule"]
    assert a["report"] == b["report"]


def test_replay_schedule_accepts_bare_envelope(tmp_path, capsys):
    from repro import ClusterSpec, OptimizerSession, config
    from repro.schema import case_i_hyperscale

    session = OptimizerSession(case_i_hyperscale("1B"),
                               ClusterSpec(num_servers=16))
    schedule = session.optimize().max_qps_per_chip.schedule
    path = tmp_path / "schedule.json"
    config.save(str(path), schedule)
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--duration", "2", "--schedule", str(path)]) == 0
    assert schedule.describe() in capsys.readouterr().out


def test_replay_schedule_wrong_kind_fails_cleanly(tmp_path, capsys):
    from repro import ClusterSpec, config

    path = tmp_path / "cluster.json"
    config.save(str(path), ClusterSpec(num_servers=16))
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--schedule", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error:" in out and "expected a schedule" in out


# ---------------------------------------------------------------------------
# trace: JSONL trace inspection and comparison.
# ---------------------------------------------------------------------------


def test_trace_inspects_recorded_file(tmp_path, capsys):
    from repro.workloads import bursty_trace

    path = tmp_path / "bursty.jsonl"
    bursty_trace(80, 6.0, seed=3, mean_decode_len=128).to_jsonl(str(path))
    assert main(["trace", str(path)]) == 0
    out = capsys.readouterr().out
    assert "bursty trace" in out
    assert "burstiness CV" in out
    assert "QPS" in out  # the rate-curve plot renders
    assert "decode mean" in out


def test_trace_compares_multiple_files(tmp_path, capsys):
    from repro.workloads import bursty_trace, poisson_trace

    smooth = tmp_path / "poisson.jsonl"
    spiky = tmp_path / "bursty.jsonl"
    poisson_trace(80, 6.0, seed=3).to_jsonl(str(smooth))
    bursty_trace(80, 6.0, seed=3).to_jsonl(str(spiky))
    assert main(["trace", str(smooth), str(spiky), "--bins", "12"]) == 0
    out = capsys.readouterr().out
    assert "poisson" in out and "bursty" in out
    # Both series land in one comparison plot legend.
    assert "poisson.jsonl" in out and "bursty.jsonl" in out


def test_trace_missing_file_fails_cleanly(capsys):
    assert main(["trace", "/nonexistent.jsonl"]) == 1
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("row", ['{"arrival": 0.0, "decode_len": null}',
                                 '{"arrival": "soon"}',
                                 pytest.param('{"arrival": ' + "9" * 400
                                              + "}", id="int-past-float")])
def test_trace_malformed_field_fails_cleanly(tmp_path, capsys, row):
    path = tmp_path / "typed.jsonl"
    path.write_text(row + "\n")
    assert main(["trace", str(path)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error:") and out.count("\n") == 1
    assert f"{path}:1:" in out


@pytest.mark.parametrize("argv", [
    ["trace"],
    ["replay", "--case", "i", "--llm", "1B", "--servers", "16", "--trace"],
])
@pytest.mark.parametrize("duration", ['"abc"', "null"])
def test_trace_bad_metadata_duration_fails_cleanly(tmp_path, capsys, argv,
                                                   duration):
    path = tmp_path / "window.jsonl"
    path.write_text('{"metadata": {"duration": ' + duration + '}}\n'
                    '{"arrival": 0.0}\n')
    assert main([*argv, str(path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[-1].startswith(
        f"error: {path}: metadata duration must be")


def test_trace_bad_bins_fails_cleanly(tmp_path, capsys):
    from repro.workloads import poisson_trace

    path = tmp_path / "p.jsonl"
    poisson_trace(50, 2.0, seed=1).to_jsonl(str(path))
    assert main(["trace", str(path), "--bins", "0"]) == 1
    assert "error:" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# serve: the live front-end (socket-level coverage lives in
# tests/test_serve.py and scripts/serve_smoke.py; here the CLI wiring).
# ---------------------------------------------------------------------------


def test_serve_bad_serve_config_kind_fails_cleanly(tmp_path, capsys):
    from repro import ClusterSpec, config

    path = tmp_path / "cluster.json"
    config.save(str(path), ClusterSpec(num_servers=16))
    assert main(["serve", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--serve-config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "error:" in out and "serve_config" in out


def _run_cli_with_timeout(tmp_path, argv):
    """``python -m repro <argv>`` in a child process, whose 60 s timeout
    turns a hang into a failure."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv, "--case", "i", "--llm", "8B",
         "--servers", "16"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)


def test_serve_rejects_fractional_replicas_envelope(tmp_path):
    """Regression: ``"replicas": 2.5`` in a --serve-config envelope
    reached `build_fleet` and died with a TypeError traceback."""
    import json

    from repro import config
    from repro.serve import ServeConfig

    path = tmp_path / "serve.json"
    config.save(str(path), ServeConfig())
    envelope = json.loads(path.read_text())
    envelope["spec"]["replicas"] = 2.5
    path.write_text(json.dumps(envelope))
    run = _run_cli_with_timeout(tmp_path,
                                ["serve", "--serve-config", str(path)])
    assert run.returncode == 1
    assert run.stdout.splitlines() == [
        "error: replicas must be an integer, got 2.5"]
    assert "Traceback" not in run.stderr


def test_serve_rejects_bad_tick(capsys):
    assert main(["serve", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--tick", "-1"]) == 1
    assert "error:" in capsys.readouterr().out


@pytest.mark.parametrize("argv, message", [
    (["--tick", "nan"], "tick must be finite and positive, got nan"),
    (["--time-scale", "inf"],
     "time_scale must be finite and positive, got inf"),
], ids=["tick-nan", "time-scale-inf"])
def test_serve_rejects_non_finite_clock(tmp_path, argv, message):
    """Regression: a NaN tick made the pump's ``asyncio.sleep`` never
    return, so ``serve`` acked submits it never completed; an infinite
    or NaN time scale broke the wall-to-simulated clock mapping."""
    run = _run_cli_with_timeout(tmp_path, ["serve", *argv])
    assert run.returncode == 1
    assert run.stdout.splitlines() == [f"error: {message}"]


def test_replay_json_payload_is_self_contained(tmp_path):
    import json

    path = tmp_path / "self.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--duration", "2", "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    assert payload["workload"]["kind"] == "rag_schema"
    assert payload["cluster"]["kind"] == "cluster_spec"
    # The embedded envelopes reconstruct the exact simulator inputs.
    from repro import config
    from repro.pipeline import RAGPerfModel
    from repro.sim import ServingSimulator, SLOTarget

    pm = RAGPerfModel(config.from_config(payload["workload"]),
                      config.from_config(payload["cluster"]))
    slo = config.from_config(payload["report"]).slo
    regenerated = ServingSimulator(
        pm, config.from_config(payload["schedule"])).run(
        config.from_config(payload["trace"]), slo=slo)
    assert config.to_config(regenerated) == payload["report"]


def test_replay_autoscale_emits_timeline_and_json(tmp_path, capsys):
    import json

    path = tmp_path / "auto.json"
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--scenario", "bursty",
                 "--duration", "2", "--load", "2.0",
                 "--autoscale",
                 "policy=queue-depth,min=1,max=2,interval=0.25,"
                 "cooldown=0.5",
                 "--json", str(path)]) == 0
    out = capsys.readouterr().out
    assert "scaling timeline" in out
    assert "replica-seconds" in out
    payload = json.loads(path.read_text())
    auto = payload["autoscale"]
    assert auto["config"]["kind"] == "autoscale_config"
    assert auto["config"]["spec"]["max_replicas"] == 2
    assert auto["replica_seconds"] > 0
    # Zero-loss conservation, counted per engine generation.
    per_replica = payload["fleet"]["per_replica"]
    assert sum(row["completed"] for row in per_replica) \
        == payload["report"]["spec"]["completed"]


def test_replay_autoscale_conflicts_with_replicas(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--replicas", "2",
                 "--autoscale", "policy=queue-depth"]) == 1
    assert "drop --replicas" in capsys.readouterr().out


def test_replay_malformed_autoscale_specs_rejected(capsys):
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16",
                 "--autoscale", "policy=queue-depth,bogus=3"]) == 1
    assert "unknown autoscale key" in capsys.readouterr().out
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--autoscale", "min=two"]) == 1
    assert "malformed autoscale value" in capsys.readouterr().out
    assert main(["replay", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--autoscale", "no-such-policy"]) == 1
    assert "unknown autoscale policy" in capsys.readouterr().out


def test_serve_autoscale_conflicts_with_replicas(capsys):
    assert main(["serve", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--replicas", "2",
                 "--autoscale", "policy=queue-depth"]) == 1
    assert "drop --replicas" in capsys.readouterr().out


def test_serve_config_file_autoscale_still_conflicts_with_replicas(
        tmp_path, capsys):
    """An autoscale envelope arriving via --serve-config must refuse an
    explicit --replicas just as loudly as the flag form does."""
    from repro import config
    from repro.serve import ServeConfig
    from repro.sim import AutoscaleConfig

    path = tmp_path / "serve.json"
    config.save(str(path), ServeConfig(
        autoscale=AutoscaleConfig(max_replicas=2)))
    assert main(["serve", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--serve-config", str(path),
                 "--replicas", "4"]) == 1
    assert "drop --replicas" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# whatif: Pareto replay of one trace against a policy grid.
# ---------------------------------------------------------------------------


def test_whatif_command(capsys):
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--duration", "2",
                 "--schedules", "2", "--replicas", "1,2"]) == 0
    out = capsys.readouterr().out
    assert "what-if policy grid" in out
    assert "4 cell(s)" in out
    assert "chip-seconds" in out
    assert "traffic :" in out


def test_whatif_json_round_trips_through_config(tmp_path, capsys):
    import json

    from repro import config
    from repro.rago.whatif import WhatIfResult

    path = tmp_path / "whatif.json"
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--duration", "2",
                 "--schedules", "1", "--replicas", "1,2",
                 "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    restored = config.from_config(payload["result"])
    assert isinstance(restored, WhatIfResult)
    assert len(restored.cells) == 2
    assert restored.ok_cells
    assert payload["result"]["kind"] == "whatif_result"
    # The companion envelopes are loadable artifacts in their own right.
    assert config.from_config(payload["trace"]).num_requests > 0
    config.from_config(payload["workload"])
    config.from_config(payload["cluster"])


def test_whatif_cache_hits_on_second_run(tmp_path, capsys):
    cache = str(tmp_path / "cells")
    argv = ["whatif", "--case", "i", "--llm", "1B", "--servers", "16",
            "--duration", "2", "--rate", "2.0", "--schedules", "1",
            "--replicas", "1,2", "--cache", cache]
    assert main(argv) == 0
    assert "0 cached" in capsys.readouterr().out
    assert main(argv) == 0
    assert "2 cached" in capsys.readouterr().out


def test_whatif_replays_recorded_trace(tmp_path, capsys):
    from repro.workloads import poisson_trace

    trace_path = tmp_path / "recorded.jsonl"
    poisson_trace(2.0, 3.0, seed=5).to_jsonl(str(trace_path))
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--schedules", "1",
                 "--trace", str(trace_path)]) == 0
    assert "what-if policy grid" in capsys.readouterr().out
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--trace", str(trace_path),
                 "--scenario", "bursty"]) == 1
    assert "drop --scenario" in capsys.readouterr().out


def test_whatif_validates_axes_before_searching(capsys):
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--routing", "bogus"]) == 1
    assert "unknown routing policy" in capsys.readouterr().out
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16",
                 "--autoscale", "policy=bogus,min=1,max=2"]) == 1
    assert "unknown autoscale policy" in capsys.readouterr().out
    assert main(["whatif", "--case", "i", "--llm", "1B",
                 "--servers", "16", "--replicas", "one"]) == 1
    assert "bad --replicas axis" in capsys.readouterr().out


@pytest.fixture
def search_forbidden(monkeypatch):
    """Make any schedule search fail loudly: a flag the argv already
    proves wrong must be rejected before the search runs."""
    import repro.rago.session

    def forbidden(*args, **kwargs):
        raise AssertionError("the schedule search ran")

    monkeypatch.setattr(repro.rago.session, "search_schedules", forbidden)


@pytest.mark.parametrize("argv, message", [
    (["whatif", "--replicas", "0"],
     "whatif replicas must be positive ints, got 0"),
    (["whatif", "--replicas", "1,-2"],
     "whatif replicas must be positive ints, got -2"),
    (["whatif", "--rate", "-1"], "offered --rate must be positive"),
    (["whatif", "--duration", "0"],
     "rate_qps and duration must be positive"),
    (["replay", "--duration", "0"],
     "rate_qps and duration must be positive"),
    (["replay", "--rate", "-1"],
     "offered rate must be positive; pass a positive --rate or --load"),
    (["replay", "--load", "0"],
     "offered rate must be positive; pass a positive --rate or --load"),
    (["replay", "--duration", "0", "--population", "users=4"],
     "closed-loop horizon must be positive and finite"),
    (["replay", "--seed", "-1"], "--seed must be non-negative, got -1"),
    (["whatif", "--seed", "-1"], "--seed must be non-negative, got -1"),
])
def test_bad_traffic_flags_fail_before_the_search(search_forbidden, capsys,
                                                  argv, message):
    assert main(argv + ["--case", "i", "--llm", "1B",
                        "--servers", "16"]) == 1
    out = capsys.readouterr().out
    assert f"error: {message}" in out
    assert "workload:" not in out  # no session was even opened


@pytest.mark.parametrize("argv, message", [
    (["replay", "--duration", "nan"], "--duration must be finite, got nan"),
    (["replay", "--rate", "inf", "--duration", "1"],
     "--rate must be finite, got inf"),
    (["replay", "--duration", "inf"], "--duration must be finite, got inf"),
    (["whatif", "--duration", "nan", "--backend", "serial"],
     "--duration must be finite, got nan"),
])
def test_non_finite_traffic_flags_fail_fast(tmp_path, argv, message):
    """Regression: NaN/inf rates and windows reached the trace
    generators, whose sampling loops never terminated. Each command must
    now print one error line and exit 1 (the timeout turns a hang into
    a failure)."""
    run = _run_cli_with_timeout(tmp_path, argv)
    assert run.returncode == 1
    assert run.stdout.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("argv, message", [
    (["optimize", "--servers", "16", "--max-ttft", "nan"],
     "max_ttft must be finite and positive when set, got nan"),
    (["optimize", "--servers", "16", "--max-ttft", "inf"],
     "max_ttft must be finite and positive when set, got inf"),
    (["provision", "--qps", "100", "--max-ttft", "nan"],
     "max_ttft must be finite and positive when set, got nan"),
    (["provision", "--qps", "100", "--max-ttft", "inf"],
     "max_ttft must be finite and positive when set, got inf"),
    (["provision", "--qps", "nan"], "--qps must be finite, got nan"),
    (["provision", "--qps", "inf"], "--qps must be finite, got inf"),
    (["replay", "--servers", "16", "--duration", "0.5", "--slo-ttft", "nan"],
     "SLO ttft must be finite and positive when set, got nan"),
    (["whatif", "--servers", "16", "--duration", "0.5", "--backend",
      "serial", "--slo-ttft", "nan"],
     "SLO ttft must be finite and positive when set, got nan"),
], ids=["optimize-nan", "optimize-inf", "provision-nan", "provision-inf",
        "provision-qps-nan", "provision-qps-inf", "replay-nan",
        "whatif-nan"])
def test_non_finite_bounds_are_rejected(capsys, argv, message):
    """Regression: a NaN bound passed the ``<= 0`` check, so ``optimize``
    returned the unconstrained schedule "under TTFT <= nan s" and
    ``replay`` reported a "nan ms" target with 0 % attainment."""
    assert main(argv + ["--case", "i", "--llm", "1B"]) == 1
    errors = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("error:")]
    assert errors == [f"error: {message}"]


@pytest.mark.parametrize("command", ["replay", "serve"])
@pytest.mark.parametrize("flags", [
    ["--replicas", "0"],
    ["--replicas", "2", "--autoscale", "policy=queue-depth"],
    ["--admission", "bogus"],
    ["--tiers", "bogus"],
], ids=["replicas-0", "replicas-with-autoscale", "admission", "tiers"])
def test_serving_setup_flags_fail_before_the_search(search_forbidden, capsys,
                                                    command, flags):
    """replay and serve share one serving setup, which refuses a bad
    fleet size or admission policy before it opens a session."""
    assert main([command, "--case", "i", "--llm", "1B", "--servers", "16"]
                + flags) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ")
    assert "workload:" not in out


def test_search_forbidden_fixture_catches_a_search(search_forbidden):
    with pytest.raises(AssertionError, match="search ran"):
        main(["optimize", "--case", "i", "--llm", "1B", "--servers", "16"])


def test_whatif_config_file_drives_the_grid(tmp_path, capsys):
    path = tmp_path / "whatif.yaml"
    path.write_text("""\
# a provisioning review grid
llm: 1B
servers: 16
duration: 2
schedules: 1
replicas: [1, 2]
routing: [null, round-robin]
""", encoding="utf-8")
    assert main(["whatif", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "4 cell(s)" in out
    assert "round-robin" in out


def test_whatif_explicit_flags_override_config_file(tmp_path, capsys):
    path = tmp_path / "whatif.yaml"
    path.write_text("llm: 1B\nservers: 16\nduration: 2\n"
                    "schedules: 1\nreplicas: [1, 2, 3]\n",
                    encoding="utf-8")
    assert main(["whatif", "--config", str(path),
                 "--replicas", "2"]) == 0
    assert "1 cell(s)" in capsys.readouterr().out


def test_whatif_config_unknown_key_rejected(tmp_path, capsys):
    path = tmp_path / "whatif.yaml"
    path.write_text("llm: 1B\nreplica_counts: [1, 2]\n",
                    encoding="utf-8")
    assert main(["whatif", "--config", str(path)]) == 1
    out = capsys.readouterr().out
    assert "unknown whatif config key" in out
    assert "replica_counts" in out


def test_sweep_config_file_selects_backend(tmp_path, capsys):
    path = tmp_path / "grid.yaml"
    path.write_text("case: i\nllms: [1B]\nservers: [16]\n"
                    "backend: serial\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "swept 1 cells" in out
    assert "serial backend" in out
    assert "worker utilization" in out


def test_sweep_config_bad_backend_rejected(tmp_path, capsys):
    path = tmp_path / "grid.yaml"
    path.write_text("backend: smoke-signals\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 1
    assert "bad backend" in capsys.readouterr().out


@pytest.mark.parametrize("name", ["sweep", "whatif"])
@pytest.mark.parametrize("backend", ["smoke-signals", "sockets"])
def test_grid_config_bad_choice_names_the_file(tmp_path, capsys, name,
                                               backend):
    """Regression: a bad choice in a grid file printed its error
    without the file's path, unlike a bad type in the same file."""
    path = tmp_path / "grid.yaml"
    path.write_text(f"backend: {backend}\n", encoding="utf-8")
    assert main([name, "--config", str(path)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        f"error: {path}: bad backend {backend!r}; expected one of "
        f"serial, process"]


@pytest.mark.parametrize("name", ["sweep", "whatif"])
def test_sockets_backend_flag_is_rejected(capsys, name):
    with pytest.raises(SystemExit) as exited:
        main([name, "--backend", "sockets"])
    assert exited.value.code == 2
    err = capsys.readouterr().err
    assert "argument --backend: invalid choice: 'sockets'" in err
    choices = err.split("choose from", 1)[1]
    assert "serial" in choices and "process" in choices


def test_sweep_config_processes_key_is_unknown(tmp_path, capsys):
    path = tmp_path / "grid.yaml"
    path.write_text("processes: 2\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert out[0].startswith(
        f"error: {path}: unknown sweep config key(s) processes; known: ")
    assert "workers" in out[0]


def test_sweep_rejects_non_positive_workers(capsys):
    assert main(["sweep", "--case", "i", "--llms", "1B", "--servers", "16",
                 "--workers", "0"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "error: --workers must be at least 1"]


_NON_UTF8 = b"case: i\n\xff\n"
_DEEP = b"[" * 100_000 + b"]" * 100_000
_BIG_INT = b'{"config_version": ' + b"1" * 5000 + b"}"
# replay prints its workload and cluster lines before it loads the
# schedule, so its error is the third line.
_REPLAY = ["replay", "--case", "i", "--llm", "1B", "--servers", "16",
           "--duration", "1", "--schedule"]
_LINT = ["lint", "mod.py", "--baseline"]


@pytest.mark.parametrize("argv, content", [
    pytest.param(["optimize", "--config"], _NON_UTF8, id="optimize"),
    pytest.param(["sweep", "--config"], _NON_UTF8, id="sweep"),
    pytest.param(["optimize", "--config"], _DEEP, id="optimize-deep"),
    pytest.param(["optimize", "--config"], _BIG_INT, id="optimize-big-int"),
    pytest.param(_REPLAY, _NON_UTF8, id="replay-schedule"),
    pytest.param(_REPLAY, _DEEP, id="replay-schedule-deep"),
    pytest.param(_REPLAY, _BIG_INT, id="replay-schedule-big-int"),
    pytest.param(_LINT, _NON_UTF8, id="lint-baseline"),
    pytest.param(_LINT, _DEEP, id="lint-baseline-deep"),
    pytest.param(_LINT, _BIG_INT, id="lint-baseline-big-int"),
])
def test_non_utf8_config_file_fails_in_one_line(tmp_path, argv, content):
    """Regression: an input file that is not UTF-8 text, nests deeper
    than the recursion limit or holds an integer past the digit limit
    escaped the JSON/yamlish loaders (``UnicodeDecodeError``,
    ``RecursionError``, ``ValueError``) and the CLI printed a
    traceback."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    path = tmp_path / "bad.yaml"
    path.write_bytes(content)
    (tmp_path / "mod.py").write_text("x = 1\n", encoding="utf-8")
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    run = subprocess.run(
        [sys.executable, "-m", "repro", *argv, str(path)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 1
    assert run.stderr == ""
    lines = run.stdout.splitlines()
    if argv[0] == "replay":
        assert [line.split()[0] for line in lines[:2]] \
            == ["workload:", "cluster"]
        lines = lines[2:]
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert str(path) in lines[0]


@pytest.mark.parametrize("flags", [["--rate", "5"], ["--seed", "9"],
                                   ["--duration", "3"]],
                         ids=["rate", "seed", "duration"])
def test_whatif_trace_rejects_generator_flags(tmp_path, capsys, flags):
    """Generator knobs next to a recording would be silently dead, so
    whatif refuses them as replay does (each checked against whatif's
    own default: --duration 20, not replay's 10)."""
    from repro.workloads import poisson_trace

    trace_path = tmp_path / "recorded.jsonl"
    poisson_trace(2.0, 3.0, seed=5).to_jsonl(str(trace_path))
    assert main(["whatif", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--trace", str(trace_path)] + flags) == 1
    out = capsys.readouterr().out
    assert "error:" in out and f"drop {flags[0]}" in out


# ---------------------------------------------------------------------------
# One serving setup: identity through fleets, the shared --tiers rule.
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "fleet", [["--replicas", "2", "--routing", "session-affine"],
              ["--autoscale", "policy=queue-depth,min=1,max=3"]],
    ids=["fleet", "autoscaled"])
def test_replay_tiered_trace_through_fleet_keeps_identity(tmp_path, capsys,
                                                          fleet):
    """A recorded multi-user trace keeps its users through a fleet:
    per-tier rows, the fairness line and the per-tier --json sections,
    exactly as through one engine."""
    import json

    from repro.workloads import UserPopulation, resolve_tier_policy

    trace_path = tmp_path / "tiered.jsonl"
    UserPopulation(users=16, think_time=0.3,
                   tiers=resolve_tier_policy("free-paid")).trace(
        4.0).to_jsonl(str(trace_path))
    path = tmp_path / "tiered.json"
    assert main(["replay", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--trace", str(trace_path), "--json", str(path)]
                + fleet) == 0
    out = capsys.readouterr().out
    assert "per-replica breakdown" in out
    rows = [line.split()[0] for line in out.splitlines() if line.strip()]
    assert "free" in rows and "paid" in rows
    assert "fairness: 16 user(s)" in out
    spec = json.loads(path.read_text())["report"]["spec"]
    assert set(spec["tiers"]) == {"free", "paid"}
    assert spec["fairness"]["users"] == 16


def test_serve_explicit_admission_wins_over_tiers(tmp_path, capsys,
                                                  monkeypatch):
    """--tiers derives priority admission only when --admission is
    absent -- the rule replay applies -- so serve accepts both and
    serves with the explicit policy."""
    import asyncio
    import json

    from repro.serve import LiveServer

    serve = LiveServer.run

    async def run_one_request(self, ready=None):
        # Serve as usual while one client submits a request and asks
        # for shutdown.
        address = asyncio.get_running_loop().create_future()

        def started(host, port):
            ready(host, port)
            address.set_result((host, port))

        serving = asyncio.ensure_future(serve(self, ready=started))
        reader, writer = await asyncio.open_connection(
            *await asyncio.wait_for(address, timeout=60))
        writer.write(b'{"op": "submit", "id": 1, "tier": "paid", '
                     b'"decode_len": 8}\n')
        await reader.readline()  # the ack
        writer.write(b'{"op": "shutdown"}\n')
        report = await serving
        await reader.read()  # completion and report lines, then EOF
        writer.close()
        return report

    monkeypatch.setattr(LiveServer, "run", run_one_request)
    path = tmp_path / "served.json"
    assert main(["serve", "--case", "i", "--llm", "1B", "--servers", "16",
                 "--tiers", "free-paid", "--admission", "greedy",
                 "--time-scale", "100", "--tick", "0.005",
                 "--json", str(path)]) == 0
    assert "serving on" in capsys.readouterr().out
    payload = json.loads(path.read_text())
    assert payload["policies"]["admission"] == "greedy"
    assert payload["report"]["spec"]["completed"] == 1
