"""Experiment registry: one entry per paper table/figure.

Each experiment is a callable returning an
:class:`~repro.experiments.base.ExperimentOutput`; the registry gives the
benchmarks, tests and documentation a single source of truth for what can
be regenerated and how.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from repro.errors import lookup


@dataclass(frozen=True)
class Experiment:
    """A regenerable paper artifact.

    Attributes:
        exp_id: Paper identifier ("fig5", "table4", ...).
        title: What the artifact shows.
        module: Dotted module path exposing a ``run(fast=True)`` callable.
        paper_claim: The qualitative result the reproduction must match.
    """

    exp_id: str
    title: str
    module: str
    paper_claim: str

    def runner(self) -> Callable:
        """Import and return the experiment's ``run`` function."""
        return importlib.import_module(self.module).run


_ENTRIES: Tuple[Experiment, ...] = (
    Experiment("table2", "XPU generation specifications",
               "repro.experiments.table2",
               "three XPU generations with published spec numbers"),
    Experiment("fig5", "RAG vs LLM-only QPS/chip-TTFT Pareto",
               "repro.experiments.fig05",
               "RAG 8B beats LLM-only 70B QPS/chip ~1.5x; RAG 1B ~ RAG 8B"),
    Experiment("fig6", "Hyperscale retrieval: query-count sweep + breakdown",
               "repro.experiments.fig06",
               "retrieval dominates 8B and halves QPS per query doubling; "
               "70B inference-bound until ~4 queries"),
    Experiment("fig7", "Retrieval share vs XPU gen / scan fraction / lengths",
               "repro.experiments.fig07",
               "retrieval share grows with better XPUs and scan fraction, "
               "shrinks with longer sequences (86%->31% for 8B)"),
    Experiment("fig8", "Long-context performance and breakdown",
               "repro.experiments.fig08",
               "encoding dominates at >=1M tokens; retrieval <1%"),
    Experiment("fig9", "Iterative retrieval TPOT sensitivity",
               "repro.experiments.fig09",
               "TPOT grows with retrieval frequency and decode batch; "
               "optimal iterative batch depends on decode batch"),
    Experiment("fig10", "Decode idleness from batched iterative queries",
               "repro.experiments.fig10",
               "normalized decode latency peaks ~2.8-3x when iterative "
               "batch ~ decode batch"),
    Experiment("fig11", "Rewriter/reranker impact",
               "repro.experiments.fig11",
               "rewriter raises TTFT ~2.4x; QPS/chip barely moves"),
    Experiment("table4", "RAGO vs baseline schedules in Case II",
               "repro.experiments.table4",
               "RAGO max-QPS schedule allocates most chips to encode and "
               "beats the baseline ~1.7x"),
    Experiment("fig15", "RAGO vs LLM-extension Pareto (C-II, C-IV)",
               "repro.experiments.fig15",
               "1.7x (C-II) and 1.5x (C-IV) max QPS/chip for RAGO"),
    Experiment("fig16", "Pareto composition across plans",
               "repro.experiments.fig16",
               "global frontier is built from multiple placement/"
               "allocation plans"),
    Experiment("fig17", "Task placement sensitivity",
               "repro.experiments.fig17",
               "placement barely matters in C-II (~2%), hybrid wins up to "
               "1.5x in C-IV"),
    Experiment("fig18", "Resource allocation sensitivity",
               "repro.experiments.fig18",
               "QPS/chip spans ~50-65x across allocation plans"),
    Experiment("fig19", "Micro-batching TTFT reduction",
               "repro.experiments.fig19",
               "up to ~50% TTFT reduction in C-II; C-I needs batch >=8; "
               "C-IV moderate (~25%)"),
)

EXPERIMENTS: Dict[str, Experiment] = {entry.exp_id: entry
                                      for entry in _ENTRIES}


def get_experiment(exp_id: str) -> Experiment:
    """Look up an experiment by paper identifier.

    Raises:
        ConfigError: for unknown identifiers.
    """
    key = exp_id.strip().lower() if isinstance(exp_id, str) else exp_id
    return lookup(EXPERIMENTS, key, "experiment")
