"""Workload generation: sequence-length profiles, request traces
(seeded arrival scenarios + replay files) and closed-loop user
sessions."""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "SequenceProfile": "repro.workloads.profile",
    "sample_decode_lengths": "repro.workloads.sequences",
    "sample_question_lengths": "repro.workloads.sequences",
    "sample_retrieval_positions": "repro.workloads.sequences",
    "SCENARIOS": "repro.workloads.traces",
    "Request": "repro.workloads.traces",
    "RequestTrace": "repro.workloads.traces",
    "bursty_trace": "repro.workloads.traces",
    "burstiness_cv": "repro.workloads.traces",
    "diurnal_trace": "repro.workloads.traces",
    "poisson_trace": "repro.workloads.traces",
    "rate_curve": "repro.workloads.traces",
    "scenario_trace": "repro.workloads.traces",
    "session_stats": "repro.workloads.traces",
    "tier_stats": "repro.workloads.traces",
    "trace_from_arrivals": "repro.workloads.traces",
    "trace_stats": "repro.workloads.traces",
    "TIER_POLICIES": "repro.workloads.sessions",
    "ClosedLoopDriver": "repro.workloads.sessions",
    "Tier": "repro.workloads.sessions",
    "TierPolicy": "repro.workloads.sessions",
    "UserPopulation": "repro.workloads.sessions",
    "parse_population_spec": "repro.workloads.sessions",
    "parse_tiers_spec": "repro.workloads.sessions",
    "population_spec": "repro.workloads.sessions",
    "resolve_tier_policy": "repro.workloads.sessions",
    "tiers_spec": "repro.workloads.sessions",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
