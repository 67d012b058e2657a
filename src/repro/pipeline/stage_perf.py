"""Per-stage performance evaluation.

:class:`RAGPerfModel` answers, for every stage of a schema's pipeline:
"at batch size B with R resources, what latency and sustained request
throughput can this stage deliver?" -- the quantity Algorithm 1's step 1
profiles. Prefill-flavoured stages return a small Pareto frontier over
sharding plans (tensor-parallel plans minimize latency, pipeline-parallel
plans maximize throughput); decode and retrieval return a single point.
The model calls the phase models (:class:`PrefillModel`,
:class:`DecodeModel`, :class:`DistributedRetrievalModel`) directly and
is the one memo above them: RAGO's exhaustive search hits the same
points repeatedly.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigError
from repro.hardware.accelerator import XPUSpec
from repro.hardware.cluster import ClusterSpec
from repro.inference.decode import DecodeModel
from repro.inference.memory import MemoryModel
from repro.inference.parallelism import ShardingPlan
from repro.inference.prefill import PrefillModel
from repro.models.transformer import TransformerConfig
from repro.retrieval.distributed import DistributedRetrievalModel
from repro.schema.ragschema import RAGSchema
from repro.schema.stages import Stage

#: Stages whose cost is a prefill pass of some model.
_PREFILL_STAGES = (Stage.DATABASE_ENCODE, Stage.REWRITE_PREFIX,
                   Stage.RERANK, Stage.PREFIX)


@dataclass(frozen=True)
class StagePerf:
    """Performance of one stage at one (batch, resource, plan) point.

    Attributes:
        stage: Which pipeline stage.
        latency: Seconds for one request batch to clear the stage.
        request_qps: Requests per second the stage sustains.
        batch: Request batch size evaluated.
        resource_amount: XPUs (inference stages) or CPU servers
            (retrieval).
        resource_type: ``"xpu"`` or ``"cpu_server"``.
        plan: Sharding plan used (None for retrieval).
        tpot: Worst-case time-per-output-token; only set for decode-like
            stages.
    """

    stage: Stage
    latency: float
    request_qps: float
    batch: int
    resource_amount: int
    resource_type: str
    plan: Optional[ShardingPlan] = None
    tpot: Optional[float] = None


class RAGPerfModel:
    """Stage-level cost model for one schema on one cluster.

    ``decode_xpu`` puts :attr:`Stage.DECODE` alone on another accelerator
    generation (a split-generation fleet); every other stage, the
    rewriter's decode included, runs on ``cluster.xpu``. None means
    ``cluster.xpu``.
    """

    def __init__(self, schema: RAGSchema, cluster: ClusterSpec,
                 memory: Optional[MemoryModel] = None, *,
                 decode_xpu: Optional[XPUSpec] = None) -> None:
        self._schema = schema
        self._cluster = cluster
        self._memory = memory or MemoryModel()
        self._prefill = PrefillModel(cluster.xpu, self._memory)
        self._rewrite_decode = DecodeModel(cluster.xpu, self._memory)
        self._decode = DecodeModel(decode_xpu or cluster.xpu, self._memory)
        self._retrieval: Optional[DistributedRetrievalModel] = None
        if schema.has_retrieval:
            database = schema.database
            if schema.brute_force_retrieval:
                # Brute-force kNN scans every vector: no tree levels.
                database = dataclasses.replace(database, scan_fraction=1.0,
                                               tree_levels=1)
            self._retrieval = DistributedRetrievalModel(database,
                                                        cluster.cpu)
        self._cache: Dict[Tuple[Stage, int, int],
                          Tuple[StagePerf, ...]] = {}
        self._plan_cache: Dict[Tuple[Stage, int, int, ShardingPlan],
                               StagePerf] = {}
        self._hits = 0
        self._misses = 0

    @property
    def schema(self) -> RAGSchema:
        """Workload being modelled."""
        return self._schema

    @property
    def cluster(self) -> ClusterSpec:
        """Hardware pool being modelled."""
        return self._cluster

    def stage_model(self, stage: Stage) -> TransformerConfig:
        """The transformer a given XPU stage runs.

        Raises:
            ConfigError: for retrieval (no model) or stages absent from
                the schema.
        """
        schema = self._schema
        if stage is Stage.DATABASE_ENCODE and schema.document_encoder:
            return schema.document_encoder
        if stage in (Stage.REWRITE_PREFIX, Stage.REWRITE_DECODE) \
                and schema.query_rewriter:
            return schema.query_rewriter
        if stage is Stage.RERANK and schema.query_reranker:
            return schema.query_reranker
        if stage in (Stage.PREFIX, Stage.DECODE):
            return schema.generative_llm
        raise ConfigError(f"stage {stage} is not part of {schema.name}")

    def min_resource(self, stage: Stage) -> int:
        """Smallest resource count at which the stage is feasible:
        servers holding the database, or chips holding the weights."""
        if stage is Stage.RETRIEVAL:
            return self._retrieval_model().min_servers()
        xpu = self._decode.xpu if stage is Stage.DECODE else self._cluster.xpu
        return self._memory.min_chips(self.stage_model(stage), xpu)

    def perf_options(self, stage: Stage, batch: int,
                     resource: int) -> Tuple[StagePerf, ...]:
        """Pareto performance points at a (batch, resource) pair (cached).

        Sorted by ascending latency (and ascending QPS -- the frontier is
        monotone), so the first entry is latency-optimal and the last is
        throughput-optimal.

        Raises:
            CapacityError: infeasible resource count (weights/KV/database
                do not fit).
            ConfigError: invalid sizes or absent stage.
        """
        if batch <= 0:
            raise ConfigError("batch must be positive")
        if resource <= 0:
            raise ConfigError("resource must be positive")
        key = (stage, batch, resource)
        if key not in self._cache:
            self._misses += 1
            self._cache[key] = self._evaluate(stage, batch, resource)
        else:
            self._hits += 1
        return self._cache[key]

    @property
    def cache_stats(self) -> Dict[str, int]:
        """Cache effectiveness counters (hits/misses across the stage
        frontier cache and the off-frontier plan cache)."""
        return {"hits": self._hits, "misses": self._misses,
                "stage_points": len(self._cache),
                "plan_points": len(self._plan_cache)}

    def perf(self, stage: Stage, batch: int, resource: int,
             plan: Optional[ShardingPlan] = None) -> StagePerf:
        """One performance point.

        Args:
            plan: Evaluate this exact sharding plan; None picks the
                throughput-optimal frontier point (serving systems run
                prefill pipelined at steady state).
        """
        options = self.perf_options(stage, batch, resource)
        if plan is None:
            return options[-1]
        for option in options:
            if option.plan == plan:
                return option
        # Off-frontier plans recur across search candidates and repeated
        # assemblies (every frontier re-evaluation in search_schedules),
        # so they get their own cache.
        key = (stage, batch, resource, plan)
        if key not in self._plan_cache:
            self._misses += 1
            self._plan_cache[key] = self._evaluate_plan(stage, batch,
                                                        resource, plan)
        else:
            self._hits += 1
        return self._plan_cache[key]

    # ------------------------------------------------------------------

    def _prefill_seq(self, stage: Stage) -> Tuple[int, int]:
        """(sequences per request, tokens per sequence) for a prefill
        stage."""
        seq = self._schema.sequences
        if stage is Stage.DATABASE_ENCODE:
            chunks = seq.num_chunks
            if chunks <= 0:
                raise ConfigError("encode stage needs a context length")
            return chunks, seq.chunk_len
        if stage is Stage.REWRITE_PREFIX:
            return 1, seq.question_len
        if stage is Stage.RERANK:
            return seq.rerank_candidates, seq.passage_len
        if stage is Stage.PREFIX:
            return 1, seq.prefix_len
        raise ConfigError(f"{stage} is not a prefill stage")

    def _retrieval_model(self) -> DistributedRetrievalModel:
        if self._retrieval is None:
            raise ConfigError("schema has no retrieval stage")
        return self._retrieval

    def _evaluate(self, stage: Stage, batch: int,
                  resource: int) -> Tuple[StagePerf, ...]:
        seq = self._schema.sequences
        if stage is Stage.RETRIEVAL:
            # Each request fans out to queries_per_retrieval query
            # vectors in one physical search batch.
            search = self._retrieval_model().search_perf(
                batch * self._schema.queries_per_retrieval, resource)
            return (StagePerf(stage=stage, latency=search.latency,
                              request_qps=batch / search.latency,
                              batch=batch, resource_amount=resource,
                              resource_type="cpu_server"),)
        model = self.stage_model(stage)
        if stage in _PREFILL_STAGES:
            per_request, tokens = self._prefill_seq(stage)
            frontier = self._prefill.pareto_perfs(
                model, resource, batch * per_request, tokens)
            return tuple(
                StagePerf(stage=stage, latency=pf.latency,
                          request_qps=pf.throughput / per_request,
                          batch=batch, resource_amount=resource,
                          resource_type="xpu", plan=pf.plan)
                for pf in frontier)
        if stage in (Stage.REWRITE_DECODE, Stage.DECODE):
            if stage is Stage.REWRITE_DECODE:
                prompt, output = seq.question_len, seq.rewrite_output_len
                phase = self._rewrite_decode
            else:
                prompt, output = seq.prefix_len, seq.decode_len
                phase = self._decode
            decode = phase.best_perf(model, resource, batch, prompt, output)
            return (StagePerf(stage=stage, latency=decode.sequence_latency,
                              request_qps=decode.throughput, batch=batch,
                              resource_amount=resource, resource_type="xpu",
                              plan=decode.plan, tpot=decode.tpot),)
        raise ConfigError(f"unhandled stage {stage}")

    def _evaluate_plan(self, stage: Stage, batch: int, resource: int,
                       plan: ShardingPlan) -> StagePerf:
        """Evaluate a specific plan that is off the cached frontier."""
        if stage not in _PREFILL_STAGES:
            raise ConfigError(
                f"stage {stage} does not accept explicit sharding plans"
            )
        model = self.stage_model(stage)
        per_request, tokens = self._prefill_seq(stage)
        pf = self._prefill.plan_perf(model, plan, batch * per_request,
                                     tokens)
        return StagePerf(stage=stage, latency=pf.latency,
                         request_qps=pf.throughput / per_request,
                         batch=batch, resource_amount=resource,
                         resource_type="xpu", plan=pf.plan)
