"""repro.distrib: pluggable executors for embarrassingly parallel grids.

The cluster-scale layer under :meth:`OptimizerSession.sweep
<repro.rago.session.OptimizerSession.sweep>` and ``repro whatif``:
a grid of cells (schema x cluster searches, schedule x policy trace
replays) is described once as a :class:`~repro.distrib.protocol.TaskSpec`
plus :class:`~repro.distrib.protocol.SweepJob` list, then executed by
any registered :class:`~repro.distrib.backends.SweepBackend` --
in-process (``serial``), a local pool (``process``), or a
work-stealing socket fleet (``sockets``) whose workers may live on
other machines. All backends produce bit-identical outcomes; only the
wall-clock differs.
"""

from repro._lazy import lazy_exports

# The built-in task runners register on import, so every lookup in
# TASK_RUNNERS -- through this package or repro.distrib.protocol --
# already sees them. The module is light: no asyncio, no pool.
from repro.distrib import cells as _cells  # noqa: F401

#: Public name -> defining module, resolved when read.
_EXPORTS = {
    "SweepJob": "repro.distrib.protocol",
    "TaskSpec": "repro.distrib.protocol",
    "TASK_RUNNERS": "repro.distrib.protocol",
    "register_task_runner": "repro.distrib.protocol",
    "resolve_task_runner": "repro.distrib.protocol",
    "memory_from_payload": "repro.distrib.cells",
    "memory_to_payload": "repro.distrib.cells",
    "BackendRun": "repro.distrib.backends",
    "ProcessBackend": "repro.distrib.backends",
    "SerialBackend": "repro.distrib.backends",
    "SocketsBackend": "repro.distrib.backends",
    "SweepBackend": "repro.distrib.backends",
    "SWEEP_BACKENDS": "repro.distrib.backends",
    "resolve_sweep_backend": "repro.distrib.backends",
    "SweepCoordinator": "repro.distrib.coordinator",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

__all__ = [*_EXPORTS]
