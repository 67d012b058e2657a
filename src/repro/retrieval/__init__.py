"""Vector-search substrate.

Two complementary pieces, mirroring the paper's methodology (§4b):

1. A **functional** IVF-PQ engine (:mod:`repro.retrieval.pq`,
   :mod:`repro.retrieval.ivf`, :mod:`repro.retrieval.bruteforce`) -- a real,
   numpy-based approximate-nearest-neighbor implementation used by the
   examples, the recall tests and the calibration harness.
2. An **analytical** ScaNN-style performance model
   (:mod:`repro.retrieval.scann_model`, :mod:`repro.retrieval.distributed`)
   that predicts retrieval latency/throughput from bytes scanned through a
   per-core-throughput + memory-bandwidth roofline, for databases far too
   large to instantiate (64 billion vectors).

Two modules connect them: :mod:`repro.retrieval.calibration` measures
the functional engine's PQ scan rate to populate the analytical model's
parameters, replicating the paper's two-step calibration, and
:mod:`repro.retrieval.tuning` picks the scanned fraction ``p_scan``
that meets a recall target (§3.3). The schedule search itself costs
retrieval with the paper's calibrated per-core rate
(:mod:`repro.hardware.cpu`), not with anything measured here.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "ProductQuantizer": "repro.retrieval.pq",
    "IVFPQIndex": "repro.retrieval.ivf",
    "BruteForceIndex": "repro.retrieval.bruteforce",
    "DatabaseConfig": "repro.retrieval.scann_model",
    "ScaNNPerfModel": "repro.retrieval.scann_model",
    "DistributedRetrievalModel": "repro.retrieval.distributed",
    "CalibrationResult": "repro.retrieval.calibration",
    "calibrate_scan_rate": "repro.retrieval.calibration",
    "TuningPoint": "repro.retrieval.tuning",
    "TuningResult": "repro.retrieval.tuning",
    "tune_scan_fraction": "repro.retrieval.tuning",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
