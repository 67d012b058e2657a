"""Retrieval cost model.

An **analytical** ScaNN-style performance model
(:mod:`repro.retrieval.scann_model`, :mod:`repro.retrieval.distributed`)
that predicts retrieval latency/throughput from bytes scanned through a
per-core-throughput + memory-bandwidth roofline, for databases far too
large to instantiate (64 billion vectors). It uses the paper's published
calibration (§4b): the per-core PQ scan rate and memory-bandwidth
utilization of :mod:`repro.hardware.cpu`.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "DatabaseConfig": "repro.retrieval.scann_model",
    "ScaNNPerfModel": "repro.retrieval.scann_model",
    "DistributedRetrievalModel": "repro.retrieval.distributed",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
