"""Command-line interface.

Subcommands::

    python -m repro list                      # registered experiments
    python -m repro run fig5 [--full]         # regenerate an artifact
    python -m repro optimize --case iv --llm 70B [--max-ttft 0.2]
    python -m repro optimize --config workload.json [--json out.json]
    python -m repro sweep --case i --llms 1B,8B --servers 16,32
    python -m repro whatif --trace recorded.jsonl --replicas 1,2,4
    python -m repro replay --case i --scenario bursty [--json out.json]
    python -m repro serve --case i --port 8707 [--time-scale 100]
    python -m repro trace recorded.jsonl [other.jsonl ...]
    python -m repro provision --case i --qps 500
    python -m repro lint src/repro [--baseline .simlint-baseline.json]

``optimize`` runs RAGO on one of the four paradigm presets or on a
serialized :mod:`repro.config` file (a schema or a full optimization
config) and prints the Pareto frontier plus the schedules selected for
each objective; ``sweep`` searches a grid of (LLM size, cluster size)
cells over a :mod:`repro.distrib` executor backend (``--backend
serial/process``, ``--workers N``), with a hand-written grid file via
``--config grid.yaml`` (the :mod:`repro.config.yamlish` subset);
``whatif`` replays one recorded trace against a policy grid
(schedules x replicas x routing x autoscale) and prints the
chip-seconds vs SLO-attainment Pareto table, caching cell outcomes
content-keyed on disk (``--cache DIR``) so edited grids recompute
only changed cells; ``replay`` exercises the
selected schedule under live traffic -- a seeded scenario (poisson /
bursty / diurnal) or a recorded JSONL trace -- through the
discrete-event simulator and reports SLO attainment, latency
percentiles and queueing breakdowns (``--replicas N`` routes the same
traffic across an N-engine fleet; ``--autoscale policy=...,min=...,
max=...`` replays through an elastic fleet whose control loop
grows/shrinks the replica count and prints the scaling timeline);
``serve`` puts the same engine -- or, with ``--replicas``, a routed
multi-replica fleet, or, with ``--autoscale``, an elastic one -- behind
a live asyncio JSON-lines socket (requests stream in, per-request
completions stream out, the observed traffic is recorded as a
replayable trace);
``trace`` inspects and compares recorded JSONL traces (rate curves,
burstiness, decode-length stats) before replay;
``lint`` runs the :mod:`repro.analysis` determinism & drift linter
(simlint) over the source tree -- wall-clock/unseeded-RNG leaks into
sim paths, listener rebinds, registry drift -- with per-line
``# simlint: allow[rule-id]`` suppressions and a committed baseline so
CI fails only on *new* findings; it extracts each module's callgraph
once per run, in memory, and leaves no cache on disk.

``replay`` and ``serve`` share one serving setup (``_serving_setup``
returns a frozen ``_ServingSetup`` that builds the engine or fleet and
emits the report), and ``replay`` and ``whatif`` one open-loop traffic
path (``_traffic_flags``, ``_check_traffic``, ``_open_loop_trace``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from typing import TYPE_CHECKING, List, NamedTuple, Optional

from repro.errors import ConfigError, ReproError, lookup, read_json

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cluster import ClusterSpec
    from repro.pipeline.assembly import PipelinePerf
    from repro.rago.session import OptimizerSession
    from repro.sim.autoscale import AutoscaleConfig
    from repro.sim.metrics import SLOTarget
    from repro.sim.policies import AdmissionPolicy
    from repro.workloads import RequestTrace
    from repro.workloads.sessions import TierPolicy

# Subcommands import what they use inside their handlers and helpers:
# `repro optimize` must never load the serving stack, asyncio or numpy,
# nor `repro lint` the models (tests/test_startup.py pins this).

#: Open-loop traffic-generator flags (each subcommand has a subset).
_GENERATOR_FLAGS = ("scenario", "rate", "load", "duration", "seed")
#: Grid-file list axes: key -> separator of the flag's string form.
_GRID_LIST_SEPARATORS = {"llms": ",", "servers": ",", "replicas": ",",
                         "routing": ";", "autoscale": ";"}


# -- flag declarations (see _build_parser) -------------------------------


def _preset_flags(preset: argparse.ArgumentParser) -> None:
    """The paradigm preset every searching subcommand takes."""
    preset.add_argument("--case", choices=("i", "ii", "iii", "iv"),
                        default="i", help="paradigm (Table 3)")
    preset.add_argument("--context", type=int, default=1_000_000,
                        help="context length for case ii")
    preset.add_argument("--retrievals", type=int, default=4,
                        help="retrieval frequency for case iii")


def _workload_flags(workload: argparse.ArgumentParser) -> None:
    """The preset workload and its cluster (--case, --llm, ...)."""
    _preset_flags(workload)
    workload.add_argument("--llm", default="8B",
                          help="generative LLM size label (1B/8B/70B/405B)")
    workload.add_argument("--servers", type=int, default=None,
                          help="cluster host servers (4 XPUs each, "
                               "default 32)")
    workload.add_argument("--xpu", choices=("A", "B", "C"), default=None,
                          help="accelerator generation (Table 2, "
                               "default C)")


def _config_flags(config: argparse.ArgumentParser) -> None:
    """A --config file and the --max-ttft bound."""
    config.add_argument("--config", dest="config_path", default=None,
                        help="serialized workload or optimization config "
                             "(repro.config JSON); overrides --case/--llm, "
                             "and explicit --servers/--xpu override its "
                             "cluster")
    config.add_argument("--max-ttft", type=float, default=None,
                        help="TTFT SLO in seconds for the schedule "
                             "search; overrides --config's TTFT bound "
                             "(other bounds stay in force)")


def _serving_flags(serving: argparse.ArgumentParser) -> None:
    """Policy and fleet knobs of replay and serve; their choices and
    help name registry keys, so the registries are imported here."""
    from repro.sim.autoscale import AUTOSCALE_POLICIES
    from repro.sim.policies import ADMISSION_POLICIES, DISPATCH_POLICIES
    from repro.sim.routing import ROUTING_POLICIES

    serving.add_argument("--schedule", dest="schedule_path", default=None,
                         help="run this exact schedule -- a schedule "
                              "envelope or a replay/serve --json artifact "
                              "-- instead of searching")
    serving.add_argument("--dispatch", choices=sorted(DISPATCH_POLICIES),
                         default=None,
                         help="batch-dispatch policy for pre-decode stages "
                              "(default deadline-flush)")
    # --admission is free-form (parameterized values like
    # token-budget=4096 are legal), so its help lists the named ones.
    serving.add_argument("--admission", default=None, metavar="POLICY",
                         help=f"decode admission policy: "
                              f"{'/'.join(sorted(ADMISSION_POLICIES))} or "
                              f"token-budget=<int> (default greedy)")
    serving.add_argument("--tiers", default=None, metavar="SPEC",
                         help="SLO tier set: a registry name "
                              "(single/free-paid) or custom=<name>:<rank>"
                              "[:<share>]|...; multi-tier sets derive a "
                              "priority admission policy unless "
                              "--admission overrides it (replay: sets "
                              "--population's tiers)")
    serving.add_argument("--replicas", type=int, default=None,
                         help="run a fleet of N engine replicas "
                              "(default 1: a single engine)")
    serving.add_argument("--routing", choices=sorted(ROUTING_POLICIES),
                         default=None,
                         help="fleet request-routing policy (default "
                              "round-robin); naming one serves a fleet "
                              "even at one replica")
    serving.add_argument("--autoscale", default=None, metavar="SPEC",
                         help=f"elastic fleet: policy=NAME,min=N,max=N"
                              f"[,interval=S,cooldown=S,up=X,down=X]; "
                              f"policies: "
                              f"{'/'.join(sorted(AUTOSCALE_POLICIES))} "
                              f"(exclusive with --replicas)")
    serving.add_argument("--slo-ttft", type=float, default=None,
                         help="TTFT target in seconds for attainment "
                              "accounting (default: the TTFT bound in "
                              "force, else 5x analytical TTFT)")
    serving.add_argument("--slo-tpot", type=float, default=None,
                         help="TPOT target in seconds for attainment "
                              "accounting (default: the TPOT bound in "
                              "force, else 2x analytical TPOT)")


def _traffic_flags(traffic: argparse.ArgumentParser,
                   duration: float) -> None:
    """Open-loop traffic of replay and whatif: a recorded trace or a
    seeded scenario, ``duration`` seconds long by default."""
    from repro.workloads.traces import SCENARIOS

    traffic.add_argument("--trace", dest="trace_path", default=None,
                         help="replay a recorded JSONL trace (exclusive "
                              "with the generator flags)")
    traffic.add_argument("--scenario", choices=sorted(SCENARIOS),
                         default=None,
                         help="built-in traffic scenario to generate "
                              "(default poisson)")
    traffic.add_argument("--rate", type=float, default=None,
                         help="absolute offered QPS of a generated "
                              "scenario (default: a fraction of the "
                              "schedule's analytical saturation QPS -- "
                              "replay's --load, whatif's 0.7)")
    traffic.add_argument("--duration", type=float, default=duration,
                         help=f"generated scenario length in seconds "
                              f"(default {duration:g})")
    traffic.add_argument("--seed", type=int, default=0,
                         help="scenario RNG seed")


def _run_flags(run: argparse.ArgumentParser) -> None:
    run.add_argument("experiment", help="artifact id, e.g. fig5 or table4")
    run.add_argument("--full", action="store_true",
                     help="use the paper's full sweep densities")
    run.add_argument("--json", dest="json_path", default=None,
                     help="also dump the structured data to a JSON file")


def _optimize_flags(optimize: argparse.ArgumentParser) -> None:
    _workload_flags(optimize)
    _config_flags(optimize)
    optimize.add_argument("--json", dest="json_path", default=None,
                          help="also dump the frontier and chosen schedule "
                               "to a JSON file")


def _sweep_flags(sweep: argparse.ArgumentParser) -> None:
    from repro.distrib import SWEEP_BACKENDS

    _preset_flags(sweep)
    sweep.add_argument("--llms", default="1B,8B",
                       help="comma-separated LLM size labels")
    sweep.add_argument("--servers", default="32",
                       help="comma-separated host-server counts")
    sweep.add_argument("--xpu", choices=("A", "B", "C"), default="C")
    sweep.add_argument("--workers", type=int, default=1,
                       help="executor worker count (default 1)")
    sweep.add_argument("--backend", choices=tuple(SWEEP_BACKENDS),
                       default=None,
                       help="sweep executor backend (default: process "
                            "when --workers > 1, else serial); both "
                            "backends produce identical tables")
    sweep.add_argument("--config", dest="grid_config_path", default=None,
                       help="grid file (yamlish subset: scalars, nested "
                            "maps, lists); keys mirror the flags, and "
                            "explicit flags override the file")
    sweep.add_argument("--json", dest="json_path", default=None,
                       help="also dump the tidy result table to a JSON file")


def _whatif_flags(whatif: argparse.ArgumentParser) -> None:
    from repro.distrib import SWEEP_BACKENDS

    _workload_flags(whatif)
    _traffic_flags(whatif, duration=20.0)
    whatif.add_argument("--schedules", type=int, default=3,
                        help="grid over the top-N frontier schedules by "
                             "QPS/chip (default 3)")
    whatif.add_argument("--replicas", default="1",
                        help="comma-separated fixed fleet sizes "
                             "(default 1)")
    whatif.add_argument("--routing", default="none",
                        help="semicolon-separated routing policies; "
                             "'none' = engine default")
    whatif.add_argument("--autoscale", default="none",
                        help="semicolon-separated autoscale specs "
                             "(policy=NAME,min=N,max=N...); 'none' = "
                             "fixed fleet (specs contain commas, hence "
                             "semicolons)")
    whatif.add_argument("--slo-ttft", type=float, default=None,
                        help="TTFT target in seconds (default: 5x the "
                             "best schedule's analytical TTFT)")
    whatif.add_argument("--slo-tpot", type=float, default=None,
                        help="TPOT target in seconds (default: 2x "
                             "analytical TPOT)")
    whatif.add_argument("--backend", choices=tuple(SWEEP_BACKENDS),
                        default=None,
                        help="executor backend (default: process when "
                             "--workers > 1, else serial)")
    whatif.add_argument("--workers", type=int, default=1,
                        help="executor worker count (default 1)")
    whatif.add_argument("--cache", dest="cache_dir", default=None,
                        help="content-keyed cell cache directory; "
                             "edited grids recompute only changed cells")
    whatif.add_argument("--config", dest="grid_config_path", default=None,
                        help="grid file (yamlish subset); keys mirror "
                             "the flags, and explicit flags override "
                             "the file")
    whatif.add_argument("--json", dest="json_path", default=None,
                        help="dump the whatif_result envelope (plus "
                             "workload/cluster/trace) to a JSON file")


def _replay_flags(replay: argparse.ArgumentParser) -> None:
    _workload_flags(replay)
    _config_flags(replay)
    _serving_flags(replay)
    _traffic_flags(replay, duration=10.0)
    replay.add_argument("--load", type=float, default=0.7,
                        help="offered load as a fraction of the schedule's "
                             "analytical saturation QPS (default 0.7; "
                             "--rate overrides it)")
    replay.add_argument("--population", default=None, metavar="SPEC",
                        help="closed-loop user population: users=N"
                             "[,think=S,concurrency=N,session=N,decode=N,"
                             "seed=N,tiers=NAME]; replaces the open-loop "
                             "scenario (users submit, think, resubmit "
                             "until --duration)")
    replay.add_argument("--json", dest="json_path", default=None,
                        help="dump the serving report (plus schedule and "
                             "trace envelopes) to a JSON file")


def _serve_flags(serve: argparse.ArgumentParser) -> None:
    _workload_flags(serve)
    _config_flags(serve)
    _serving_flags(serve)
    serve.add_argument("--serve-config", dest="serve_config_path",
                       default=None,
                       help="serve_config envelope (repro.config JSON) "
                            "with server settings; explicit flags "
                            "override individual fields")
    serve.add_argument("--host", default=None,
                       help="interface to bind (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=None,
                       help="TCP port; 0 binds an ephemeral port and "
                            "prints it (default 0)")
    serve.add_argument("--tick", type=float, default=None,
                       help="wall seconds between engine advances "
                            "(default 0.02)")
    serve.add_argument("--time-scale", type=float, default=None,
                       help="simulated seconds per wall second "
                            "(default 1.0; raise to fast-forward)")
    serve.add_argument("--record", dest="record_path", default=None,
                       help="write the observed arrivals as a replayable "
                            "JSONL trace on shutdown")
    serve.add_argument("--json", dest="json_path", default=None,
                       help="dump the final serving report (plus "
                            "schedule, trace and server envelopes) to a "
                            "JSON file on shutdown")


def _trace_flags(trace_cmd: argparse.ArgumentParser) -> None:
    trace_cmd.add_argument("paths", nargs="+", metavar="TRACE",
                           help="recorded JSONL trace files "
                                "(RequestTrace.to_jsonl / repro serve "
                                "--record output)")
    trace_cmd.add_argument("--bins", type=int, default=24,
                           help="rate-curve resolution (default 24 bins)")


def _lint_flags(lint: argparse.ArgumentParser) -> None:
    lint.add_argument("paths", nargs="*", default=["src/repro"],
                      metavar="PATH",
                      help="files/directories to lint "
                           "(default src/repro)")
    lint.add_argument("--rule", action="append", dest="rules",
                      metavar="RULE-ID", default=None,
                      help="run only this rule (repeatable; default: "
                           "every registered rule)")
    lint.add_argument("--list-rules", action="store_true",
                      help="print the rule table and exit")
    lint.add_argument("--baseline", dest="baseline_path", default=None,
                      help="committed baseline JSON; only findings "
                           "absent from it fail the run")
    lint.add_argument("--write-baseline", action="store_true",
                      help="snapshot the current findings into "
                           "--baseline and exit 0 (adopting them)")
    lint.add_argument("--json", dest="json_path", default=None,
                      help="dump the findings (and baseline verdict) "
                           "to a JSON report file")
    lint.add_argument("--explain", dest="explain_rule", default=None,
                      metavar="RULE-ID",
                      help="print the evidence chain behind every "
                           "finding of this rule (the call path an "
                           "interprocedural rule walked)")
    lint.add_argument("--audit-suppressions", action="store_true",
                      help="also report stale # simlint: allow[...] "
                           "comments that no longer shield a finding")
    lint.add_argument("--strict", action="store_true",
                      help="exit 1 on stale suppressions too (with "
                           "--audit-suppressions)")


def _provision_flags(prov: argparse.ArgumentParser) -> None:
    _preset_flags(prov)
    prov.add_argument("--llm", default="8B")
    prov.add_argument("--servers", type=int, default=32)
    prov.add_argument("--qps", type=float, required=True,
                      help="target requests per second")
    prov.add_argument("--max-ttft", type=float, default=None)


def _schema_for(args: argparse.Namespace, llm: Optional[str] = None):
    from repro.schema.paradigms import (
        case_i_hyperscale,
        case_ii_long_context,
        case_iii_iterative,
        case_iv_rewriter_reranker,
    )

    llm = llm or args.llm
    if args.case == "i":
        return case_i_hyperscale(llm)
    if args.case == "ii":
        return case_ii_long_context(args.context, llm)
    if args.case == "iii":
        return case_iii_iterative(llm, retrieval_frequency=args.retrievals)
    return case_iv_rewriter_reranker(llm)


def _command_list(args: argparse.Namespace) -> int:
    from repro.reporting.experiments import EXPERIMENTS

    width = max(len(exp_id) for exp_id in EXPERIMENTS)
    for exp_id, exp in sorted(EXPERIMENTS.items()):
        print(f"{exp_id.ljust(width)}  {exp.title}")
        print(f"{' ' * width}  claim: {exp.paper_claim}")
    return 0


def _jsonable(value):
    """Convert experiment data (tuple keys, dataclasses) to JSON types."""
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return str(value)


def _command_run(args: argparse.Namespace) -> int:
    from repro.reporting.experiments import get_experiment

    experiment = get_experiment(args.experiment)
    output = experiment.runner()(fast=not args.full)
    print(output)
    if args.json_path:
        payload = {
            "exp_id": output.exp_id,
            "title": output.title,
            "notes": output.notes,
            "data": _jsonable(output.data),
        }
        _write_json(args.json_path, payload)
    return 0


def _load_envelope(path: str, kinds, data=None):
    """The artifact of the config envelope in ``path`` (or ``data``, an
    envelope already read from it), refused unless its kind is one of
    ``kinds``."""
    from repro import config as config_module

    if data is None:
        data = read_json(path)
    loaded = config_module.from_config(data)
    if data["kind"] not in kinds:
        raise ConfigError(f"{path} holds a {data['kind']}; expected a "
                          f"{' or '.join(kinds)}")
    return loaded


def _xpu(letter: str):
    """The accelerator generation of a --xpu letter (Table 2)."""
    from repro.hardware import accelerator

    return {"A": accelerator.XPU_A, "B": accelerator.XPU_B,
            "C": accelerator.XPU_C}[letter]


def _resolve_cluster(args: argparse.Namespace,
                     loaded: Optional[ClusterSpec]) -> ClusterSpec:
    """The run's cluster: --config's, with explicit flags overriding."""
    from repro.hardware.cluster import ClusterSpec

    cluster = loaded or ClusterSpec(num_servers=args.servers or 32,
                                    xpu=_xpu(args.xpu or "C"))
    overrides = {}
    if args.servers is not None and cluster.num_servers != args.servers:
        overrides["num_servers"] = args.servers
    if args.xpu is not None and cluster.xpu != _xpu(args.xpu):
        overrides["xpu"] = _xpu(args.xpu)
    return dataclasses.replace(cluster, **overrides) if overrides \
        else cluster


def _open_session(schema, cluster: ClusterSpec) -> OptimizerSession:
    """A session, announced by the workload/cluster header every
    searching command leads with."""
    from repro.rago.session import OptimizerSession

    print(f"workload: {schema.describe()}")
    print(f"cluster : {cluster.num_servers} servers x "
          f"{cluster.xpus_per_server} {cluster.xpu.name}")
    return OptimizerSession(schema, cluster)


def _resolve_session(args: argparse.Namespace) -> OptimizerSession:
    """One constrained session from --config / preset flags.

    Shared by ``optimize``, ``replay`` and ``serve``: loads the workload
    (file or preset), resolves the cluster, and merges constraints --
    the config file's bounds first, then an explicit ``--max-ttft``
    flag replaces the file's TTFT bound only.
    """
    search = None
    objective = None
    if args.config_path:
        from repro.config import OptimizationConfig

        # A full optimization config, or a bare workload schema.
        loaded = _load_envelope(args.config_path,
                                ("optimization_config", "rag_schema"))
        if not isinstance(loaded, OptimizationConfig):
            loaded = OptimizationConfig(schema=loaded)
        schema = loaded.schema
        cluster = _resolve_cluster(args, loaded.cluster)
        search = loaded.search
        objective = loaded.objective
    else:
        schema = _schema_for(args)
        cluster = _resolve_cluster(args, None)
    session = _open_session(schema, cluster)
    if search is not None:
        session = session.with_search(search)
    if objective is not None:
        session = session.with_constraint(
            max_ttft=objective.max_ttft,
            max_tpot=objective.max_tpot,
            min_qps_per_chip=objective.min_qps_per_chip)
    if args.max_ttft is not None:
        session = session.with_constraint(max_ttft=args.max_ttft)
    return session


def _load_schedule(path: str, session: OptimizerSession):
    """Load an explicit schedule for replay/serve and evaluate it.

    Accepts either a bare ``schedule`` config envelope or a replay/serve
    ``--json`` artifact (whose ``"schedule"`` key holds one), so a
    recorded session closes the loop without extracting envelopes by
    hand.
    """
    data = read_json(path)
    if isinstance(data, dict) and "config_version" not in data:
        data = data.get("schedule")
    if not isinstance(data, dict):
        raise ConfigError(
            f"{path} holds neither a schedule envelope nor a --json "
            f"artifact with a 'schedule' key")
    return session.evaluate(_load_envelope(path, ("schedule",), data))


def _session_constrained(session: OptimizerSession) -> bool:
    """Whether any serving bound is in force on the session."""
    objective = session.objective
    return any(bound is not None for bound in
               (objective.max_ttft, objective.max_tpot,
                objective.min_qps_per_chip))


def _command_optimize(args: argparse.Namespace) -> int:
    from repro import config as config_module

    session = _resolve_session(args)
    objective = session.objective
    constrained = _session_constrained(session)
    result = session.optimize()
    print(f"searched {result.num_plans} plans; frontier:")
    for perf in result.frontier:
        print(f"  ttft={perf.ttft * 1e3:9.1f} ms  "
              f"qps/chip={perf.qps_per_chip:8.3f}  xpus={perf.total_xpus}")
    if len(result.frontier) >= 2:
        from repro.reporting.ascii_plot import ascii_scatter

        points = [(perf.ttft, perf.qps_per_chip)
                  for perf in result.frontier]
        print()
        print(ascii_scatter({"frontier": points}, width=60, height=12,
                            x_label="TTFT (s)", y_label="QPS/chip",
                            log_x=True))
    if constrained:
        chosen = session.best()
        constraint = (f"TTFT <= {objective.max_ttft} s"
                      if objective.max_ttft is not None else f"{objective}")
        print(f"best schedule under {constraint}:")
    else:
        chosen = result.max_qps_per_chip
        print("throughput-optimal schedule:")
    print(f"  {chosen.schedule.describe()}")
    print(f"  ttft={chosen.ttft * 1e3:.1f} ms  "
          f"qps/chip={chosen.qps_per_chip:.3f}  "
          f"tpot={chosen.tpot * 1e3:.2f} ms")
    if args.json_path:
        payload = {
            "workload": config_module.to_config(session.schema),
            "cluster": config_module.to_config(session.cluster),
            "num_plans": result.num_plans,
            "num_candidates": result.num_candidates,
            "frontier": [
                {"ttft": perf.ttft, "tpot": perf.tpot,
                 "qps_per_chip": perf.qps_per_chip,
                 "total_xpus": perf.total_xpus}
                for perf in result.frontier
            ],
            "chosen": {
                "ttft": chosen.ttft,
                "tpot": chosen.tpot,
                "qps_per_chip": chosen.qps_per_chip,
                "schedule": config_module.to_config(chosen.schedule),
            },
        }
        _write_json(args.json_path, payload)
    return 0


def _write_json(path: str, payload: dict) -> None:
    """Dump a command's ``--json`` payload and say where it went."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1)
    print(f"wrote {path}")


def _reject_dead_flags(args: argparse.Namespace, names, context: str,
                       applies_to: str, clashing=()) -> None:
    """Refuse flags ``context`` makes dead: those of ``names`` the
    subcommand has and the user moved off the subcommand's own
    defaults (plus any ``clashing`` the caller found)."""
    parser = args.subparser
    clashing = list(clashing) + [
        f"--{name}" for name in names
        if name in vars(args)
        and getattr(args, name) != parser.get_default(name)]
    if clashing:
        raise ConfigError(f"{context}; drop {', '.join(clashing)} (they "
                          f"only apply to {applies_to})")


def _check_finite(args: argparse.Namespace, names) -> None:
    """Refuse a NaN or infinite knob before the search: no generated
    scenario can cover an unbounded window or rate. Names the
    subcommand lacks are skipped."""
    for name in names:
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise ConfigError(f"--{name} must be finite, got {value}")


# -- the open-loop traffic replay and whatif share ------------------------


def _check_traffic(args: argparse.Namespace,
                   closed_loop: bool = False) -> None:
    """Refuse traffic flags the argv already proves wrong, before the
    (expensive) search: dead generator flags, then non-finite values,
    then a non-positive rate or window or a negative seed."""
    if closed_loop:
        # Closed-loop traffic self-generates against the live engine,
        # so open-loop generator knobs (and recorded traces) cannot mix
        # in. --duration doubles as the submission horizon.
        _reject_dead_flags(
            args, ("scenario", "rate", "load", "seed"),
            "--population drives a closed loop", "open-loop traffic",
            clashing=["--trace"] if args.trace_path else [])
    elif args.trace_path:
        # A recorded trace fixes the traffic entirely.
        _reject_dead_flags(args, _GENERATOR_FLAGS,
                           "--trace replays a recorded stream",
                           "generated scenarios")
    _check_finite(args, ("rate", "load", "duration"))
    if closed_loop and not args.duration > 0:
        raise ConfigError("closed-loop horizon must be positive and finite")
    if closed_loop or args.trace_path:
        return
    # A generated scenario: --load scales the schedule's (positive)
    # saturation QPS, so the offered rate's sign and the window are
    # known before the search.
    if "load" in vars(args):
        offered = args.rate if args.rate is not None else args.load
        if offered <= 0:
            raise ConfigError("offered rate must be positive; pass a "
                              "positive --rate or --load")
    elif args.rate is not None and args.rate <= 0:
        raise ConfigError("offered --rate must be positive")
    if args.duration <= 0:
        raise ConfigError("rate_qps and duration must be positive")
    if args.seed < 0:
        raise ConfigError(f"--seed must be non-negative, got {args.seed}")


def _open_loop_trace(args: argparse.Namespace, session: OptimizerSession,
                     saturation_qps: float, load: float) -> RequestTrace:
    """The --trace recording, else the --scenario at --rate or ``load``
    x ``saturation_qps``; announced on a ``traffic :`` line."""
    from repro.workloads import RequestTrace, scenario_trace

    if args.trace_path:
        trace = RequestTrace.from_jsonl(args.trace_path)
    else:
        rate = args.rate if args.rate is not None \
            else load * saturation_qps
        # Generators fall back to fixed lengths for means too small for
        # the geometric sampler, so the schema's length passes through.
        trace = scenario_trace(
            args.scenario or "poisson", rate_qps=rate,
            duration=args.duration, seed=args.seed,
            mean_decode_len=session.schema.sequences.decode_len)
    print(f"traffic : {trace.describe()}")
    return trace


# -- the serving setup replay and serve share -----------------------------


def _slo(ttft: Optional[float], tpot: Optional[float],
         session: OptimizerSession, chosen) -> SLOTarget:
    """Explicit targets, else the session's bounds, else 5x / 2x the
    schedule's analytical TTFT / TPOT."""
    from repro.sim.metrics import SLOTarget

    objective = session.objective
    return SLOTarget(
        ttft=ttft if ttft is not None
        else (objective.max_ttft or 5.0 * chosen.ttft),
        tpot=tpot if tpot is not None
        else (objective.max_tpot or 2.0 * chosen.tpot))


class _ServingSetup(NamedTuple):
    """What replay and serve run: the session, the chosen schedule, its
    SLO and the engine/fleet policies, resolved once (a NamedTuple: a
    frozen dataclass would cost ``import repro.cli`` a millisecond)."""

    session: OptimizerSession
    chosen: PipelinePerf
    slo: SLOTarget
    dispatch: Optional[str]
    admission: AdmissionPolicy
    replicas: int
    routing: Optional[str]
    autoscale: Optional[AutoscaleConfig]
    json_path: Optional[str]

    @property
    def fleet(self) -> bool:
        """A fleet, not one engine: several replicas, a named routing
        policy (never silently ignored), or an elastic fleet."""
        return self.replicas > 1 or self.routing is not None \
            or self.autoscale is not None

    def build(self):
        """The engine or fleet to drive, plus its autoscaler (or None):
        one engine, else :func:`~repro.sim.autoscale.build_fleet`'s
        pair."""
        from repro.sim.autoscale import build_fleet
        from repro.sim.engine import ServingEngine

        if not self.fleet:
            return ServingEngine(self.session.perf_model,
                                 self.chosen.schedule,
                                 dispatch=self.dispatch,
                                 admission=self.admission), None
        return build_fleet(self.session.perf_model, self.chosen.schedule,
                           replicas=self.replicas, routing=self.routing,
                           dispatch=self.dispatch, admission=self.admission,
                           autoscale=self.autoscale, slo=self.slo)

    def emit(self, report, trace: RequestTrace, target=None,
             autoscaler=None, serve=None, population=None) -> None:
        """Print the report, a fleet's per-replica breakdown and the
        scaling timeline. With ``--json``, write them too, next to the
        workload, cluster, schedule and trace envelopes, so the report
        can be regenerated from the file alone (serve's config and
        replay's ``population`` section ride along)."""
        from repro import config as config_module
        from repro.reporting import (
            format_fleet_breakdown,
            format_scaling_timeline,
            format_serving_report,
        )
        from repro.sim.autoscale import autoscale_spec
        from repro.sim.policies import admission_spec

        payload = None
        if self.json_path:
            payload = {
                "report": config_module.to_config(report),
                "workload": config_module.to_config(self.session.schema),
                "cluster": config_module.to_config(self.session.cluster),
                "schedule": config_module.to_config(self.chosen.schedule),
                "trace": config_module.to_config(trace),
            }
            if serve is not None:
                payload["serve"] = config_module.to_config(serve)
            payload["policies"] = {
                "dispatch": self.dispatch or "deadline-flush",
                "admission": admission_spec(self.admission),
            }
        print()
        print(format_serving_report(report))
        if self.fleet:
            per_replica = target.replica_stats()
            print()
            print(format_fleet_breakdown(per_replica))
            if payload is not None:
                payload["policies"]["routing"] = target.routing.name
                payload["fleet"] = {"replicas": target.replicas,
                                    "routing": target.routing.name,
                                    "per_replica": per_replica}
        if autoscaler is not None:
            timeline = autoscaler.timeline()
            print()
            print(format_scaling_timeline(
                timeline, replica_seconds=autoscaler.replica_seconds))
            if payload is not None:
                payload["autoscale"] = {
                    "spec": autoscale_spec(self.autoscale),
                    "config": config_module.to_config(self.autoscale),
                    "replica_seconds": autoscaler.replica_seconds,
                    "events": timeline,
                }
        if payload is not None:
            if population is not None:
                payload["population"] = population
            _write_json(self.json_path, payload)


def _serving_setup(args: argparse.Namespace, *,
                   tiers: Optional[TierPolicy], replicas: int,
                   routing: Optional[str],
                   autoscale: Optional[AutoscaleConfig],
                   slo_ttft: Optional[float], slo_tpot: Optional[float],
                   knee: bool = False) -> _ServingSetup:
    """Resolve replay's or serve's serving setup.

    ``--replicas`` and decode admission are checked before the
    (expensive) search. Then the session, the schedule and the SLO are
    resolved: the schedule is ``--schedule``'s, else the knee of the
    admissible frontier (``knee``, live serving's balanced point), else
    the best admissible point (throughput-optimal when unconstrained).
    """
    from repro.sim.policies import PriorityAdmission, parse_admission_policy

    if autoscale is not None and args.replicas is not None:
        raise ConfigError(
            "--autoscale manages the fleet size (min/max in the "
            "spec); drop --replicas")
    if args.replicas is not None and args.replicas < 1:
        raise ConfigError("--replicas must be at least 1")
    # An explicit --admission wins; otherwise a multi-tier set derives
    # priority admission by tier rank.
    if args.admission is None and tiers is not None \
            and len(tiers.tiers) > 1:
        admission = PriorityAdmission(tier_priority=tuple(
            (tier.name, tier.rank) for tier in tiers.tiers))
    else:
        admission = parse_admission_policy(args.admission)
    session = _resolve_session(args)
    if args.schedule_path:
        chosen = _load_schedule(args.schedule_path, session)
    elif knee:
        chosen = session.with_objective("knee").best()
    elif _session_constrained(session):
        chosen = session.best()
    else:
        chosen = session.optimize().max_qps_per_chip
    print(f"schedule: {chosen.schedule.describe()}")
    print(f"analytical: qps={chosen.qps:.1f}  "
          f"ttft={chosen.ttft * 1e3:.1f} ms  "
          f"tpot={chosen.tpot * 1e3:.2f} ms")
    return _ServingSetup(
        session=session, chosen=chosen,
        slo=_slo(slo_ttft, slo_tpot, session, chosen),
        dispatch=args.dispatch, admission=admission, replicas=replicas,
        routing=routing, autoscale=autoscale, json_path=args.json_path)


def _command_replay(args: argparse.Namespace) -> int:
    from repro.sim.autoscale import parse_autoscale_spec, replay_open_loop
    from repro.workloads.sessions import parse_tiers_spec

    # Policy/fleet/traffic knobs must fail before the (expensive)
    # search.
    population = None
    if args.population is not None:
        from repro.workloads import parse_population_spec

        population = parse_population_spec(args.population)
        if args.tiers is not None:
            population = dataclasses.replace(
                population, tiers=parse_tiers_spec(args.tiers))
    elif args.tiers is not None:
        raise ConfigError(
            "--tiers shapes a closed-loop population; pass --population "
            "too")
    _check_traffic(args, closed_loop=population is not None)
    autoscale = None
    if args.autoscale is not None:
        if population is not None:
            raise ConfigError(
                "--autoscale replays an open-loop trace; a closed-loop "
                "--population drives the engine directly -- drop one")
        autoscale = parse_autoscale_spec(args.autoscale)
    setup = _serving_setup(
        args, tiers=None if population is None else population.tiers,
        replicas=args.replicas or 1, routing=args.routing,
        autoscale=autoscale, slo_ttft=args.slo_ttft,
        slo_tpot=args.slo_tpot)

    if population is not None:
        # The population submits, thinks, and resubmits through the
        # target's completion listeners; the recorded (identity-
        # carrying) trace becomes the report's traffic.
        from repro.workloads import (ClosedLoopDriver, population_spec,
                                     tiers_spec)

        print(f"traffic : closed loop, {population.users} user(s), "
              f"tiers {population.tiers.name}, horizon "
              f"{args.duration:g}s")
        target, autoscaler = setup.build()
        driver = ClosedLoopDriver(population, target, horizon=args.duration)
        driver.run()
        trace = target.recorded_trace(
            scenario="sessions", population=population_spec(population),
            tiers=tiers_spec(population.tiers))
        print(f"observed: {trace.describe()}")
        setup.emit(target.report(trace, slo=setup.slo), trace, target,
                   autoscaler, population={
                       "spec": population_spec(population),
                       "tiers": tiers_spec(population.tiers),
                       "per_tier": driver.tier_counts(),
                   })
        return 0
    trace = _open_loop_trace(args, setup.session, setup.chosen.qps,
                             args.load)
    if not setup.fleet:
        # One engine, open loop: the session's memoized replay.
        setup.emit(setup.session.evaluate_trace(
            setup.chosen.schedule, trace, slo=setup.slo,
            dispatch=setup.dispatch, admission=setup.admission), trace)
        return 0
    target, autoscaler = setup.build()
    replay_open_loop(target, autoscaler, trace)
    setup.emit(target.report(trace, slo=setup.slo), trace, target,
               autoscaler)
    return 0


def _command_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.reporting import format_live_summary
    from repro.serve import LiveServer, ServeConfig
    from repro.sim.autoscale import parse_autoscale_spec
    from repro.workloads.sessions import parse_tiers_spec

    # Resolve and validate the server settings before the (expensive)
    # schedule search: a bad --tick must fail in milliseconds.
    base = ServeConfig()
    if args.serve_config_path:
        base = _load_envelope(args.serve_config_path, ("serve_config",))
    overrides = {
        name: value for name, value in (
            ("host", args.host), ("port", args.port),
            ("tick", args.tick), ("time_scale", args.time_scale),
            ("slo_ttft", args.slo_ttft), ("slo_tpot", args.slo_tpot),
            ("replicas", args.replicas), ("routing", args.routing),
        ) if value is not None
    }
    if args.autoscale is not None:
        overrides["autoscale"] = parse_autoscale_spec(args.autoscale)
    serve_config = dataclasses.replace(base, **overrides)
    # The fleet shape comes from the resolved config, not just the
    # flags: an autoscale envelope inside --serve-config must also
    # refuse an explicit --replicas rather than silently discarding it.
    setup = _serving_setup(
        args, tiers=parse_tiers_spec(args.tiers),
        replicas=serve_config.replicas, routing=serve_config.routing,
        autoscale=serve_config.autoscale, slo_ttft=serve_config.slo_ttft,
        slo_tpot=serve_config.slo_tpot, knee=True)
    serve_config = dataclasses.replace(serve_config, slo_ttft=setup.slo.ttft,
                                       slo_tpot=setup.slo.tpot)
    target, autoscaler = setup.build()
    server = LiveServer(target, serve_config, autoscaler=autoscaler)

    def ready(host: str, port: int) -> None:
        routing = serve_config.routing or "round-robin"
        autoscale = serve_config.autoscale
        fleet_note = ""
        if autoscale is not None:
            fleet_note = (f"; autoscaled fleet {autoscale.min_replicas}.."
                          f"{autoscale.max_replicas} replica(s) "
                          f"({autoscale.policy}), {routing} routing")
        elif setup.fleet:
            fleet_note = (f"; fleet of {serve_config.replicas} "
                          f"replica(s), {routing} routing")
        print(f"serving on {host}:{port} "
              f"(time scale {serve_config.time_scale:g}x; JSON-lines "
              f"ops: submit / stats / shutdown; Ctrl-C stops"
              f"{fleet_note})",
              flush=True)

    report = asyncio.run(server.run(ready=ready))
    if args.record_path and server.trace is not None:
        # The observed arrivals are worth keeping even when the session
        # was too degenerate to produce a report.
        server.trace.to_jsonl(args.record_path)
        print(f"recorded trace -> {args.record_path}")
    if report is None:
        if server.trace is None:
            print("shut down with zero submissions; no report to emit")
        else:
            print("shut down before any request completed; no report "
                  "to emit")
        return 0
    print()
    print(format_live_summary(server.snapshot()))
    setup.emit(report, server.trace, target, autoscaler, serve=serve_config)
    return 0


def _command_trace(args: argparse.Namespace) -> int:
    from repro.reporting import format_table
    from repro.reporting.ascii_plot import ascii_scatter
    from repro.workloads import (RequestTrace, rate_curve, session_stats,
                                 tier_stats, trace_stats)

    if args.bins < 1:
        raise ConfigError("--bins must be at least 1")
    traces = [(path, RequestTrace.from_jsonl(path)) for path in args.paths]
    for path, trace in traces:
        print(f"{path}: {trace.describe()}")
    rows = []
    series = {}
    for path, trace in traces:
        stats = trace_stats(trace, bins=args.bins)
        rows.append([
            stats["scenario"], stats["requests"], stats["duration"],
            stats["mean_qps"], stats["peak_qps"],
            "-" if stats["burstiness_cv"] is None
            else stats["burstiness_cv"],
            "-" if stats["decode_mean"] is None else stats["decode_mean"],
            "-" if stats["decode_p95"] is None else stats["decode_p95"],
        ])
        if len(traces) == 1:
            label = "rate"
        else:
            import os

            label = os.path.basename(path)
            if label in series:
                label = f"{label}#{len(series)}"
        series[label] = rate_curve(trace, bins=args.bins)
    print()
    print(format_table(
        ("scenario", "requests", "duration (s)", "mean QPS", "peak QPS",
         "burstiness CV", "decode mean", "decode p95"),
        rows, title="trace statistics (CV ~1 poisson, >1 bursty)"))
    # Identity-carrying traces get the multi-user view: per-tier load
    # shares and the session structure (sorted, so diffs are stable).
    for path, trace in traces:
        tiers = tier_stats(trace)
        if not tiers:
            continue
        tier_rows = [
            [tier,
             stats["requests"],
             f"{stats['share'] * 100.0:.1f}%",
             stats["users"],
             "-" if stats["decode_mean"] is None
             else f"{stats['decode_mean']:.1f}",
             "-" if stats["decode_p95"] is None
             else f"{stats['decode_p95']:.1f}"]
            for tier, stats in sorted(tiers.items())
        ]
        print()
        print(format_table(
            ("tier", "requests", "share", "users", "decode mean",
             "decode p95"),
            tier_rows, title=f"tiers: {path}"))
        sessions = session_stats(trace)
        if sessions["sessions"]:
            print(f"sessions: {sessions['users']} user(s), "
                  f"{sessions['sessions']} session(s), "
                  f"{sessions['sessions_per_user']:.1f} sessions/user, "
                  f"{sessions['requests_per_session']:.1f} "
                  f"requests/session, longest {sessions['max_session_len']}")
    print()
    print(ascii_scatter(series, width=60, height=12,
                        x_label="time (s)", y_label="QPS"))
    return 0


def _grid_value(key: str, action: argparse.Action, value):
    """One grid-file value coerced the way its flag parses: the flag's
    type, a list axis joined into the flag's string form ('none' for
    null entries), and the flag's choices enforced (file values bypass
    argparse)."""
    separator = _GRID_LIST_SEPARATORS.get(key)
    if action.type is not None:
        value = action.type(value)
    elif separator is not None and isinstance(value, list):
        value = separator.join(
            "none" if item is None else str(item) for item in value)
    elif action.choices is None:
        value = str(value)
    if action.choices is not None and value not in action.choices:
        raise ConfigError(f"bad {key} {value!r}; expected one of "
                          f"{', '.join(action.choices)}")
    return value


def _apply_grid_config(args: argparse.Namespace) -> None:
    """Fold a ``--config`` grid file (yamlish subset) into ``args``.

    Keys are the subcommand's own flags (``slo-ttft`` spelled
    ``slo_ttft``). File values fill flags still at their argparse
    defaults; explicitly-passed flags win. Unknown keys are rejected,
    so a typo'd axis fails instead of silently sweeping the default.
    """
    from repro.config import yamlish

    command = args.command
    data = yamlish.load(args.grid_config_path)
    if data is None:
        return
    if not isinstance(data, dict):
        raise ConfigError(
            f"{args.grid_config_path}: {command} config must be a "
            f"mapping of {command} keys")
    flags = {action.option_strings[0][2:].replace("-", "_"): action
             for action in args.subparser._actions
             if action.option_strings and action.dest not in (
                 "help", "grid_config_path", "json_path")}
    unknown = set(data) - set(flags)
    if unknown:
        raise ConfigError(
            f"{args.grid_config_path}: unknown {command} config "
            f"key(s) {', '.join(sorted(map(str, unknown)))}; known: "
            f"{', '.join(sorted(flags))}")
    for key, value in data.items():
        action = flags[key]
        if getattr(args, action.dest) != action.default:
            continue
        try:
            setattr(args, action.dest, _grid_value(key, action, value))
        except ConfigError as error:
            raise ConfigError(
                f"{args.grid_config_path}: {error}") from error
        except (TypeError, ValueError) as error:
            raise ConfigError(
                f"{args.grid_config_path}: bad value for "
                f"{key!r}: {error}") from error


def _split_tokens(text: str, separator: str):
    return [token.strip() for token in str(text).split(separator)
            if token.strip()]


def _parse_whatif_axes(args: argparse.Namespace):
    """The (replicas, routing, autoscale) axis tuples from their flag
    strings, validated before the (expensive) schedule search."""
    from repro.sim.autoscale import parse_autoscale_spec
    from repro.sim.routing import ROUTING_POLICIES

    try:
        replicas = tuple(int(token)
                         for token in _split_tokens(args.replicas, ","))
    except ValueError as error:
        raise ConfigError(f"bad --replicas axis: {error}") from error
    for count in replicas:
        if count < 1:
            raise ConfigError(
                f"whatif replicas must be positive ints, got {count!r}")
    routing = tuple(None if token == "none" else token
                    for token in _split_tokens(args.routing, ";"))
    for name in routing:
        if name is not None:
            lookup(ROUTING_POLICIES, name, "routing policy", " (or 'none')")
    autoscale = tuple(None if token == "none" else token
                      for token in _split_tokens(args.autoscale, ";"))
    for spec in autoscale:
        if spec is not None:
            parse_autoscale_spec(spec)  # fail fast on a bad spec
    if not replicas or not routing or not autoscale:
        raise ConfigError("whatif axes must be non-empty")
    return replicas, routing, autoscale


def _command_whatif(args: argparse.Namespace) -> int:
    from repro import config as config_module
    from repro.rago.whatif import WhatIfGrid, run_whatif
    from repro.reporting import (
        format_whatif_table,
        format_worker_utilization,
    )

    if args.grid_config_path:
        _apply_grid_config(args)
    replicas, routing, autoscale = _parse_whatif_axes(args)
    if args.schedules < 1:
        raise ConfigError("--schedules must be at least 1")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    _check_traffic(args)
    session = _open_session(_schema_for(args),
                            _resolve_cluster(args, None))
    optimized = session.optimize()
    best = optimized.max_qps_per_chip
    candidates = sorted(optimized.frontier,
                        key=lambda perf: perf.qps_per_chip,
                        reverse=True)[:args.schedules]
    schedules = tuple(perf.schedule for perf in candidates)
    trace = _open_loop_trace(args, session, best.qps, load=0.7)
    slo = _slo(args.slo_ttft, args.slo_tpot, session, best)
    grid = WhatIfGrid(schedules=schedules, replicas=replicas,
                      routing=routing, autoscale=autoscale)
    print(f"grid    : {len(schedules)} schedule(s) x policies = "
          f"{grid.num_cells} cell(s)")
    result = run_whatif(session.schema, session.cluster, trace, grid, slo,
                        backend=args.backend, workers=args.workers,
                        cache=args.cache_dir)
    print()
    print(format_whatif_table(result))
    if result.workers:
        print()
        print(format_worker_utilization(result.workers))
    if args.json_path:
        payload = {
            "result": config_module.to_config(result),
            "workload": config_module.to_config(session.schema),
            "cluster": config_module.to_config(session.cluster),
            "trace": config_module.to_config(trace),
        }
        _write_json(args.json_path, payload)
    if result.ok_cells:
        return 0
    print("error: every whatif cell was infeasible")
    return 1


def _command_sweep(args: argparse.Namespace) -> int:
    from repro.hardware.cluster import ClusterSpec
    from repro.rago.session import OptimizerSession

    if args.grid_config_path:
        _apply_grid_config(args)
    try:
        llms = [label.strip() for label in args.llms.split(",")
                if label.strip()]
        server_counts = [int(token) for token in args.servers.split(",")
                         if token.strip()]
    except ValueError as error:
        raise ConfigError(f"bad sweep axis: {error}") from error
    if not llms or not server_counts:
        raise ConfigError("sweep needs at least one LLM and server count")
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    schemas = [_schema_for(args, llm) for llm in llms]
    clusters = [ClusterSpec(num_servers=count, xpu=_xpu(args.xpu))
                for count in server_counts]
    session = OptimizerSession(schemas[0], clusters[0])
    sweep = session.sweep(schemas=schemas, clusters=clusters,
                          workers=args.workers,
                          backend=args.backend)
    print(f"swept {len(sweep)} cells "
          f"({len(llms)} LLMs x {len(server_counts)} cluster sizes, "
          f"{args.backend or 'default'} backend, "
          f"{args.workers} worker(s)):")
    print(sweep.to_table())
    if sweep.workers:
        from repro.reporting import format_worker_utilization

        print()
        print(format_worker_utilization(sweep.workers))
    failed = [cell for cell in sweep if not cell.ok]
    if failed:
        print(f"{len(failed)} cell(s) infeasible")
    if args.json_path:
        _write_json(args.json_path, {"rows": sweep.rows})
    if failed and len(failed) == len(sweep):
        print("error: every sweep cell was infeasible")
        return 1
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from repro.analysis import (
        audit_suppressions,
        baseline_payload,
        build_index,
        diff_against_baseline,
        finding_to_dict,
        iter_rule_table,
        load_baseline,
        resolve_lint_rules,
        run_rules,
        write_baseline,
    )
    from repro.reporting import (
        format_explanations,
        format_findings,
        format_table,
    )

    if args.list_rules:
        print(format_table(
            ("rule", "severity", "description"),
            [[rule.rule_id, rule.severity, rule.description]
             for rule in iter_rule_table()],
            title="simlint rules"))
        return 0
    rules = resolve_lint_rules(args.rules)
    if args.explain_rule:  # an unknown id fails here, as --rule's does
        resolve_lint_rules([args.explain_rule])
    index = build_index(args.paths)
    findings = run_rules(index, rules)
    if args.write_baseline:
        if not args.baseline_path:
            raise ConfigError("--write-baseline needs --baseline FILE")
        write_baseline(args.baseline_path, findings)
        print(f"wrote {len(findings)} finding(s) to "
              f"{args.baseline_path}")
        return 0
    new = findings
    new_count = None
    if args.baseline_path:
        baseline = load_baseline(args.baseline_path)
        new, _ = diff_against_baseline(findings, baseline)
        new_count = len(new)
    stale = []
    if args.audit_suppressions:
        stale = audit_suppressions(index, rules=args.rules)
    print(f"linted {', '.join(args.paths)} with simlint")
    print()
    print(format_findings(findings, new_count=new_count))
    if args.explain_rule:
        print()
        print(format_explanations(findings, args.explain_rule))
    if args.audit_suppressions:
        print()
        if stale:
            print(format_findings(stale))
        else:
            print("suppression audit: every allow[...] comment still "
                  "shields a finding")
    if args.json_path:
        payload = baseline_payload(findings)
        payload["paths"] = list(args.paths)
        if args.baseline_path:
            payload["baseline"] = args.baseline_path
            payload["new_findings"] = [finding_to_dict(finding)
                                       for finding in new]
        if args.audit_suppressions:
            payload["stale_suppressions"] = [finding_to_dict(finding)
                                             for finding in stale]
        _write_json(args.json_path, payload)
    if new:
        return 1
    if stale and args.strict:
        return 1
    return 0


def _command_provision(args: argparse.Namespace) -> int:
    from repro.hardware.cluster import ClusterSpec
    from repro.pipeline.stage_perf import RAGPerfModel
    from repro.rago.objectives import ServiceObjective
    from repro.rago.provisioning import provision

    _check_finite(args, ("qps",))
    schema = _schema_for(args)
    cluster = ClusterSpec(num_servers=args.servers)
    objective = ServiceObjective(max_ttft=args.max_ttft) \
        if args.max_ttft is not None else ServiceObjective()
    perf_model = RAGPerfModel(schema, cluster)
    result = provision(perf_model, target_qps=args.qps,
                       objective=objective)
    print(f"workload: {schema.describe()}")
    print(f"target  : {args.qps:.1f} QPS"
          + (f" with TTFT <= {args.max_ttft} s"
             if args.max_ttft is not None else ""))
    print(f"fleet   : {result.replicas} replica(s) x "
          f"{result.perf.charged_chips} chips = "
          f"{result.budget_xpus} XPUs total "
          f"({result.total_qps:.1f} QPS sustained)")
    print(f"per-replica schedule: {result.perf.schedule.describe()}")
    print(f"  ttft={result.perf.ttft * 1e3:.1f} ms  "
          f"tpot={result.perf.tpot * 1e3:.2f} ms")
    return 0


#: Subcommand -> (help line, flag declarer, handler), in ``repro
#: --help`` order.
_COMMANDS = {
    "list": ("list regenerable paper artifacts", None, _command_list),
    "run": ("regenerate one table/figure", _run_flags, _command_run),
    "optimize": ("run RAGO on a preset or config file", _optimize_flags,
                 _command_optimize),
    "sweep": ("search a grid of LLM sizes x cluster sizes", _sweep_flags,
              _command_sweep),
    "whatif": ("replay a recorded trace against a policy grid",
               _whatif_flags, _command_whatif),
    "replay": ("replay live traffic through a searched schedule",
               _replay_flags, _command_replay),
    "serve": ("serve a live request stream over a socket", _serve_flags,
              _command_serve),
    "trace": ("inspect/compare recorded JSONL traces", _trace_flags,
              _command_trace),
    "lint": ("run the determinism & drift linter (simlint)", _lint_flags,
             _command_lint),
    "provision": ("size a fleet for a target load", _provision_flags,
                  _command_provision),
}


def _build_parser(command: Optional[str]) -> argparse.ArgumentParser:
    """The CLI parser, with flags declared for ``command`` only.

    Every subcommand is listed, so ``repro --help`` and unknown-command
    errors read as before. Flags are declared for the running
    subcommand alone: some spell registry names in their choices or
    help, and parsing ``optimize`` must not import the serving stack
    to list them.
    """
    parser = argparse.ArgumentParser(
        prog="repro",
        description="RAGO reproduction: experiments and schedule search",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, _) in _COMMANDS.items():
        command_parser = commands.add_parser(name, help=help_text)
        if name == command and add_flags is not None:
            add_flags(command_parser)
        # Commands read their own flag table back (grid-file keys,
        # dead-flag defaults), so each namespace carries its
        # subcommand's parser.
        command_parser.set_defaults(subparser=command_parser)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    argv = sys.argv[1:] if argv is None else list(argv)
    # The top-level parser has no options of its own besides --help, so
    # the first bare token names the subcommand (or is an error argparse
    # reports as before).
    command = next((token for token in argv if not token.startswith("-")),
                   None)
    args = _build_parser(command).parse_args(argv)
    try:
        return _COMMANDS[args.command][2](args)
    except (ReproError, OSError) as error:
        print(f"error: {error}")
        return 1
