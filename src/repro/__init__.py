"""repro: a reproduction of RAGO (ISCA 2025).

RAGO -- Retrieval-Augmented Generation Optimizer -- is a systematic
performance-optimization framework for RAG serving. This library
implements the paper end to end:

* :mod:`repro.schema` -- RAGSchema, the structured workload abstraction,
  with presets for the paper's four case-study paradigms.
* :mod:`repro.hardware`, :mod:`repro.models`, :mod:`repro.inference`,
  :mod:`repro.retrieval` -- the calibrated analytical cost models
  (operator-roofline XPU inference; ScaNN-style scan-roofline retrieval).
* :mod:`repro.pipeline` -- end-to-end TTFT/TPOT/QPS assembly, breakdowns,
  the iterative-retrieval discrete-event model and micro-batching.
* :mod:`repro.rago` -- the scheduling-policy search (placement x
  allocation x batching -> Pareto frontier).
* :mod:`repro.baselines`, :mod:`repro.experiments` -- the paper's
  comparison systems and one runner per evaluation table/figure.
* :mod:`repro.config` -- versioned JSON serialization of every
  optimizer artifact (schemas, clusters, schedules, found frontiers).

Quickstart -- declare a pipeline, open a session, constrain, solve::

    from repro import ClusterSpec, OptimizerSession
    from repro.schema import pipeline
    from repro.schema.paradigms import HYPERSCALE_DATABASE

    schema = (pipeline("my-rag")
              .rewrite("8B")
              .retrieve(HYPERSCALE_DATABASE, neighbors=5)
              .rerank("120M")
              .generate("70B")
              .build())
    session = (OptimizerSession(schema, ClusterSpec())
               .with_constraint(max_ttft=0.2))
    print(session.best().schedule.describe())

The paper's presets remain one call away (``case_i_hyperscale("8B")``,
...), and any schema/result round-trips through :mod:`repro.config`
for reproducible experiment files.

Start-up: this package and its subpackages resolve their public names
when they are read (:mod:`repro._lazy`), so ``import repro`` loads no
submodule and ``from repro import ClusterSpec`` loads only the modules
``ClusterSpec`` needs. A schedule search never imports asyncio or the
serving simulator; they load when a trace is generated or a replay,
sweep or live server runs. The package has no third-party runtime
dependency: numpy is used by the test suite only.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read. The
#: builder entry point ``pipeline()`` is exported from repro.schema
#: only: binding it here would shadow the repro.pipeline submodule
#: attribute on this package.
_EXPORTS = {
    "CapacityError": "repro.errors",
    "ConfigError": "repro.errors",
    "ReproError": "repro.errors",
    "ScheduleError": "repro.errors",
    "XPU_A": "repro.hardware.accelerator",
    "XPU_B": "repro.hardware.accelerator",
    "XPU_C": "repro.hardware.accelerator",
    "ClusterSpec": "repro.hardware.cluster",
    "CPUServerSpec": "repro.hardware.cpu",
    "EPYC_MILAN": "repro.hardware.cpu",
    "XPUSpec": "repro.hardware.accelerator",
    "ENCODER_120M": "repro.models.catalog",
    "LLAMA3_1B": "repro.models.catalog",
    "LLAMA3_8B": "repro.models.catalog",
    "LLAMA3_70B": "repro.models.catalog",
    "LLAMA3_405B": "repro.models.catalog",
    "TransformerConfig": "repro.models.transformer",
    "model_by_params": "repro.models.catalog",
    "DatabaseConfig": "repro.retrieval.scann_model",
    "PipelineBuilder": "repro.schema.builder",
    "RAGSchema": "repro.schema.ragschema",
    "Stage": "repro.schema.stages",
    "case_i_hyperscale": "repro.schema.paradigms",
    "case_ii_long_context": "repro.schema.paradigms",
    "case_iii_iterative": "repro.schema.paradigms",
    "case_iv_rewriter_reranker": "repro.schema.paradigms",
    "llm_only": "repro.schema.paradigms",
    "RequestTrace": "repro.workloads.traces",
    "SequenceProfile": "repro.workloads.profile",
    "bursty_trace": "repro.workloads.traces",
    "diurnal_trace": "repro.workloads.traces",
    "poisson_trace": "repro.workloads.traces",
    "scenario_trace": "repro.workloads.traces",
    "PipelinePerf": "repro.pipeline.assembly",
    "PlacementGroup": "repro.pipeline.assembly",
    "RAGPerfModel": "repro.pipeline.stage_perf",
    "Schedule": "repro.pipeline.assembly",
    "assemble": "repro.pipeline.assembly",
    "simulate_iterative_decode": "repro.pipeline.iterative",
    "time_breakdown": "repro.pipeline.breakdown",
    "OptimizerSession": "repro.rago.session",
    "PriceBook": "repro.rago.cost",
    "SearchConfig": "repro.rago.search",
    "SearchResult": "repro.rago.search",
    "ServiceObjective": "repro.rago.objectives",
    "SweepCell": "repro.rago.session",
    "SweepResult": "repro.rago.session",
    "estimate_cost": "repro.rago.cost",
    "pareto_front": "repro.rago.pareto",
    "config": "repro.config",
    "OptimizationConfig": "repro.config",
    "ProvisioningResult": "repro.rago.provisioning",
    "provision": "repro.rago.provisioning",
    "PowerProfile": "repro.hardware.power",
    "estimate_energy": "repro.hardware.power",
    "FleetEngine": "repro.sim.fleet",
    "LiveSnapshot": "repro.sim.metrics",
    "RoutingPolicy": "repro.sim.routing",
    "ServingEngine": "repro.sim.engine",
    "ServingReport": "repro.sim.metrics",
    "ServingSimulator": "repro.sim.serving",
    "SLOTarget": "repro.sim.metrics",
    "LiveServer": "repro.serve",
    "ServeConfig": "repro.serve",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__version__ = "1.0.0"

__all__ = [*_EXPORTS, "__version__"]
