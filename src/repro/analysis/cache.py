"""Content-keyed on-disk cache for per-module callgraph fragments.

The interprocedural pass splits into a per-module half (AST lowering
into a :class:`ModuleGraph`, the expensive part) and a whole-index
half (linking + fixpoint, cheap). Only the per-module half is cached:
each entry is keyed by ``sha256(module name + source bytes)`` plus
:data:`~repro.analysis.callgraph.GRAPH_VERSION`, so

* editing a module busts exactly that module's entry -- its key
  changes, every other entry still hits;
* cross-module effects stay sound with stale neighbors impossible by
  construction: the link + fixpoint re-runs from the (fresh or
  cached) graphs every lint;
* a layout change in the serialized graph invalidates the whole cache
  at once via the version field.

Entries live as one JSON file per module under the cache directory
(default ``.simlint-cache/`` via the CLI). Every failure mode --
unreadable file, malformed JSON, version skew -- degrades to a miss
and a re-extract; the cache can be deleted at any time.
"""

from __future__ import annotations

import json
import os
from typing import Optional

from repro._digest import sha256
from repro.errors import ConfigError
from repro.analysis.callgraph import (
    GRAPH_VERSION,
    ModuleGraph,
    extract_module_graph,
    module_graph_from_dict,
    module_graph_to_dict,
)
from repro.analysis.index import ModuleIndex

__all__ = ["SummaryCache"]


class SummaryCache:
    """One directory of content-keyed module-graph entries."""

    def __init__(self, root: str) -> None:
        self.root = root
        self.hits = 0
        self.misses = 0

    @staticmethod
    def key_for(module: ModuleIndex) -> str:
        digest = sha256()
        digest.update(f"v{GRAPH_VERSION}:{module.name}:".encode("utf-8"))
        digest.update(module.source.encode("utf-8"))
        return digest.hexdigest()

    def _entry_path(self, module: ModuleIndex) -> str:
        return os.path.join(self.root, f"{self.key_for(module)}.json")

    def load(self, module: ModuleIndex) -> Optional[ModuleGraph]:
        """The cached graph for this exact source, or None."""
        try:
            with open(self._entry_path(module), "r",
                      encoding="utf-8") as handle:
                payload = json.load(handle)
            graph = module_graph_from_dict(payload)
        except (OSError, ValueError, ConfigError):
            self.misses += 1
            return None
        # A moved file can share content with its old location; the
        # witness chains must point at where the code is *now*.
        graph.path = module.path
        self.hits += 1
        return graph

    def store(self, module: ModuleIndex, graph: ModuleGraph) -> None:
        """Persist one freshly extracted graph (best-effort: an
        unwritable cache directory never fails the lint)."""
        try:
            os.makedirs(self.root, exist_ok=True)
            entry = self._entry_path(module)
            staging = f"{entry}.tmp.{os.getpid()}"
            with open(staging, "w", encoding="utf-8") as handle:
                json.dump(module_graph_to_dict(graph), handle,
                          separators=(",", ":"), sort_keys=True)
            os.replace(staging, entry)
        except OSError:
            pass

    def warm(self, module: ModuleIndex) -> ModuleGraph:
        """Load-or-extract convenience used by tests."""
        graph = self.load(module)
        if graph is None:
            graph = extract_module_graph(module)
            self.store(module, graph)
        return graph
