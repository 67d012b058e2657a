"""Hardware substrate: accelerator and CPU-server specifications plus
roofline primitives.

The paper models two resource types:

* **XPU** -- a generic systolic-array ML accelerator (Table 2 gives three
  generations, modelled after TPU v5e / v4 / v5p).
* **CPU server** -- the XPU host, modelled after AMD EPYC Milan, which also
  runs distributed vector-search retrieval.

Everything downstream (inference model, retrieval model, RAGO's scheduler)
consumes these spec objects; nothing else in the library hard-codes
hardware numbers.
"""

from repro._lazy import lazy_exports

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "XPU_A": "repro.hardware.accelerator",
    "XPU_B": "repro.hardware.accelerator",
    "XPU_C": "repro.hardware.accelerator",
    "XPU_GENERATIONS": "repro.hardware.accelerator",
    "XPUSpec": "repro.hardware.accelerator",
    "EPYC_7R13_CALIBRATION": "repro.hardware.cpu",
    "EPYC_MILAN": "repro.hardware.cpu",
    "CPUServerSpec": "repro.hardware.cpu",
    "ClusterSpec": "repro.hardware.cluster",
    "communication_time": "repro.hardware.roofline",
    "roofline_time": "repro.hardware.roofline",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
