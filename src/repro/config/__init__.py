"""repro.config: versioned, JSON-serializable optimizer artifacts.

Every object a RAGO run consumes or produces -- the workload
(:class:`~repro.schema.RAGSchema`), the hardware budget
(:class:`~repro.hardware.ClusterSpec`), the search knobs
(:class:`~repro.rago.SearchConfig`), the service objective, a chosen
:class:`~repro.pipeline.Schedule` and the full
:class:`~repro.rago.SearchResult` frontier -- round-trips through a
plain dict with a ``{"config_version", "kind", "spec"}`` envelope::

    from repro import config, case_iv_rewriter_reranker

    config.save("workload.json", case_iv_rewriter_reranker("70B"))
    schema = config.load("workload.json")

:class:`OptimizationConfig` bundles schema + cluster + search +
objective into one reproducible experiment file, the format behind
``repro optimize --config file.json``. Round-trip equality is
guaranteed (and tested): ``from_config(to_config(x)) == x``.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Tuple

from repro.errors import ConfigError, decoder, lookup, parse_json, read_json
from repro.config.serializers import (
    autoscale_config_from_dict,
    autoscale_config_to_dict,
    cluster_from_dict,
    cluster_to_dict,
    serve_config_from_dict,
    serve_config_to_dict,
    objective_from_dict,
    objective_to_dict,
    schedule_from_dict,
    schedule_to_dict,
    schema_from_dict,
    schema_to_dict,
    search_config_from_dict,
    search_config_to_dict,
    search_result_from_dict,
    search_result_to_dict,
    serving_report_from_dict,
    serving_report_to_dict,
    sweep_result_from_dict,
    sweep_result_to_dict,
    trace_from_dict,
    trace_to_dict,
    whatif_result_from_dict,
    whatif_result_to_dict,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.hardware.cluster import ClusterSpec
    from repro.rago.objectives import ServiceObjective
    from repro.rago.search import SearchConfig
    from repro.schema.ragschema import RAGSchema

#: Version stamped into every envelope; bump on incompatible layout
#: changes and keep loaders accepting older stamps where possible.
#: v2: traces serialize per-request records (``requests``) instead of
#: parallel ``arrivals``/``decode_lens`` arrays; the v1 shape still
#: loads through the legacy branch of ``trace_from_dict``.
CONFIG_VERSION = 2


@dataclass(frozen=True)
class OptimizationConfig:
    """One self-contained, reproducible optimizer run.

    Attributes:
        schema: The workload to optimize (required).
        cluster: Hardware budget; None means the library default.
        search: Search-space knobs; None means defaults.
        objective: Serving constraints used to pick the reported
            schedule; None means unconstrained (throughput-optimal).
    """

    schema: RAGSchema
    cluster: Optional[ClusterSpec] = None
    search: Optional[SearchConfig] = None
    objective: Optional[ServiceObjective] = None


def _optimization_config_to_dict(config: OptimizationConfig) -> Dict:
    return {
        "schema": schema_to_dict(config.schema),
        "cluster": (None if config.cluster is None
                    else cluster_to_dict(config.cluster)),
        "search": (None if config.search is None
                   else search_config_to_dict(config.search)),
        "objective": (None if config.objective is None
                      else objective_to_dict(config.objective)),
    }


@decoder("optimization config")
def _optimization_config_from_dict(data: Dict) -> OptimizationConfig:
    if "schema" not in data:
        raise ConfigError("optimization config needs a schema")
    # `is not None` (not truthiness): an empty {} sub-payload is a
    # malformed file and must fail that section's validation, not
    # silently fall back to library defaults.
    cluster = data.get("cluster")
    search = data.get("search")
    objective = data.get("objective")
    return OptimizationConfig(
        schema=schema_from_dict(data["schema"]),
        cluster=(cluster_from_dict(cluster)
                 if cluster is not None else None),
        search=(search_config_from_dict(search)
                if search is not None else None),
        objective=(objective_from_dict(objective)
                   if objective is not None else None),
    )


#: kind tag -> (defining module, type name, to_dict, from_dict). Types
#: are named, not imported: an instance cannot exist before its class's
#: module is loaded, so :func:`to_config` only tests the types whose
#: module already is, and serializing a schema never drags in the
#: serving stack. Dispatch order matters only for those isinstance
#: checks.
_KINDS: Dict[str, Tuple[str, str, Callable[[Any], Dict],
                        Callable[[Dict], Any]]] = {
    "rag_schema": ("repro.schema.ragschema", "RAGSchema", schema_to_dict,
                   schema_from_dict),
    "cluster_spec": ("repro.hardware.cluster", "ClusterSpec",
                     cluster_to_dict, cluster_from_dict),
    "search_config": ("repro.rago.search", "SearchConfig",
                      search_config_to_dict, search_config_from_dict),
    "service_objective": ("repro.rago.objectives", "ServiceObjective",
                          objective_to_dict, objective_from_dict),
    "schedule": ("repro.pipeline.assembly", "Schedule", schedule_to_dict,
                 schedule_from_dict),
    "search_result": ("repro.rago.search", "SearchResult",
                      search_result_to_dict, search_result_from_dict),
    "optimization_config": (__name__, "OptimizationConfig",
                            _optimization_config_to_dict,
                            _optimization_config_from_dict),
    "request_trace": ("repro.workloads.traces", "RequestTrace",
                      trace_to_dict, trace_from_dict),
    "serving_report": ("repro.sim.metrics", "ServingReport",
                       serving_report_to_dict, serving_report_from_dict),
    "sweep_result": ("repro.rago.session", "SweepResult",
                     sweep_result_to_dict, sweep_result_from_dict),
    "whatif_result": ("repro.rago.whatif", "WhatIfResult",
                      whatif_result_to_dict, whatif_result_from_dict),
    "serve_config": ("repro.serve", "ServeConfig", serve_config_to_dict,
                     serve_config_from_dict),
    "autoscale_config": ("repro.sim.autoscale", "AutoscaleConfig",
                         autoscale_config_to_dict,
                         autoscale_config_from_dict),
}


def to_config(obj: Any) -> Dict:
    """Wrap any supported artifact in its versioned envelope.

    Raises:
        ConfigError: for unsupported object types.
    """
    for kind, (module, type_name, encode, _) in _KINDS.items():
        loaded = sys.modules.get(module)
        cls = getattr(loaded, type_name, None)
        if cls is not None and isinstance(obj, cls):
            return {"config_version": CONFIG_VERSION, "kind": kind,
                    "spec": encode(obj)}
    raise ConfigError(
        f"cannot serialize {type(obj).__name__}; supported kinds: "
        f"{', '.join(sorted(_KINDS))}"
    )


def from_config(data: Dict) -> Any:
    """Reconstruct an artifact from its envelope.

    Raises:
        ConfigError: on missing/unknown kind, or a version newer than
            this library understands.
    """
    if not isinstance(data, dict):
        raise ConfigError("config payload must be a mapping")
    version = data.get("config_version")
    if version is None:
        raise ConfigError("config envelope is missing config_version")
    if type(version) is not int or version < 1:  # bool is not a version
        raise ConfigError(f"invalid config_version {version!r}")
    if version > CONFIG_VERSION:
        raise ConfigError(
            f"config_version {version} is newer than the supported "
            f"{CONFIG_VERSION}; upgrade the library"
        )
    kind = data.get("kind")
    decode = lookup(_KINDS, kind, "config kind")[3]
    spec = data.get("spec")
    if not isinstance(spec, dict):
        raise ConfigError(f"config envelope for {kind!r} has no spec")
    return decode(spec)


def dumps(obj: Any) -> str:
    """Serialize an artifact to a JSON string (envelope included)."""
    return json.dumps(to_config(obj), indent=1)


def loads(text: str) -> Any:
    """Reconstruct an artifact from :func:`dumps` output."""
    return from_config(parse_json(text))


def save(path: str, obj: Any) -> None:
    """Write one artifact to a JSON file."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(obj))
        handle.write("\n")


def load(path: str) -> Any:
    """Load an artifact written by :func:`save`."""
    return from_config(read_json(path))


__all__ = [
    "CONFIG_VERSION",
    "OptimizationConfig",
    "to_config",
    "from_config",
    "dumps",
    "loads",
    "save",
    "load",
    "schema_to_dict",
    "schema_from_dict",
    "cluster_to_dict",
    "cluster_from_dict",
    "search_config_to_dict",
    "search_config_from_dict",
    "objective_to_dict",
    "objective_from_dict",
    "schedule_to_dict",
    "schedule_from_dict",
    "search_result_to_dict",
    "search_result_from_dict",
    "trace_to_dict",
    "trace_from_dict",
    "serving_report_to_dict",
    "serving_report_from_dict",
    "sweep_result_to_dict",
    "sweep_result_from_dict",
    "whatif_result_to_dict",
    "whatif_result_from_dict",
    "serve_config_to_dict",
    "serve_config_from_dict",
    "autoscale_config_to_dict",
    "autoscale_config_from_dict",
]
