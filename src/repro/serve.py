"""Live asyncio serving front-end over the incremental DES engine.

``repro serve`` turns the simulator into simulation-as-a-service: a
stdlib :func:`asyncio.start_server` loop accepts JSON-lines clients,
maps each live request onto a :class:`~repro.sim.ServingEngine`
submission (wall-clock arrival times become simulated seconds, scaled
by ``time_scale``), streams per-request completions back as they fall
out of the DES, and -- on shutdown -- drains the engine, records the
observed arrivals as a replayable
:class:`~repro.workloads.traces.RequestTrace`, and emits the same
:class:`~repro.sim.ServingReport` an offline replay of that trace
produces.

Protocol (one JSON object per line, newline-terminated)::

    -> {"op": "submit", "id": "r1", "decode_len": 256}
    <- {"op": "ack", "id": "r1", "request_id": 0, "arrival": 0.31}
    <- {"op": "completion", "id": "r1", "request_id": 0,
        "ttft": 0.132, "tpot": 0.0020, "slo": {"ttft": true, ...}}
    -> {"op": "stats"}
    <- {"op": "stats", "offered": 12, "completed": 7, ...}
    -> {"op": "shutdown"}
    <- {"op": "report", "completed": 12, "offered": 12, ...}

Malformed lines and rejected submissions answer ``{"op": "error",
...}`` without dropping the connection; a client that disconnects
mid-request simply stops receiving completions -- its requests still
finish inside the DES and count in the final report.
"""

from __future__ import annotations

import asyncio
import json
import math
import signal
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ConfigError, parse_json
from repro.sim.autoscale import Autoscaler, AutoscaleConfig
from repro.sim.engine import ServingEngine
from repro.sim.fleet import FleetEngine
from repro.sim.metrics import RequestRecord, ServingReport, SLOTarget
from repro.sim.routing import resolve_routing_policy
from repro.workloads.traces import RequestTrace

__all__ = ["ServeConfig", "LiveServer"]

#: Either serving back-end the live front-end can pump: one engine or
#: a multi-replica fleet (identical submit/step/drain surface).
EngineLike = Union[ServingEngine, FleetEngine]


@dataclass(frozen=True)
class ServeConfig:
    """Settings of one live serving session (config-envelope friendly).

    Attributes:
        host: Interface to bind (loopback by default).
        port: TCP port; 0 binds an ephemeral port (read it back from
            :attr:`LiveServer.address`).
        tick: Wall seconds between engine advances; the granularity at
            which completions surface to clients.
        time_scale: Simulated seconds per wall second. 1.0 serves in
            real time; larger values fast-forward the deployment (a
            60 s diurnal cycle demos in 600 ms at 100x).
        slo_ttft / slo_tpot: Latency targets scored per completion and
            in the final report (None = dimension unconstrained).
        default_decode_len: Decode length for submissions that do not
            carry one (the workload profile's length when None).
        replicas: Serving-engine replicas behind the socket; above 1
            the session fronts a
            :class:`~repro.sim.fleet.FleetEngine`.
        routing: Fleet request-routing policy name (see
            :data:`~repro.sim.routing.ROUTING_POLICIES`); None means
            round robin. Only meaningful with ``replicas > 1``.
        autoscale: Optional autoscaling control loop
            (:class:`~repro.sim.autoscale.AutoscaleConfig`). When
            set, the session serves an elastic fleet: the fleet
            starts at ``autoscale.min_replicas`` (``replicas`` is
            superseded) and the controller runs against the mapped
            simulated time.
    """

    host: str = "127.0.0.1"
    port: int = 0
    tick: float = 0.02
    time_scale: float = 1.0
    slo_ttft: Optional[float] = None
    slo_tpot: Optional[float] = None
    default_decode_len: Optional[int] = None
    replicas: int = 1
    routing: Optional[str] = None
    autoscale: Optional[AutoscaleConfig] = None

    def __post_init__(self) -> None:
        if self.autoscale is not None \
                and not isinstance(self.autoscale, AutoscaleConfig):
            raise ConfigError("autoscale must be an AutoscaleConfig "
                              "(or None)")
        if not self.host:
            raise ConfigError("host must be non-empty")
        for name in ("port", "replicas", "default_decode_len"):
            value = getattr(self, name)
            if value is None and name == "default_decode_len":
                continue
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(
                    f"{name} must be an integer, got {value!r}")
        if not 0 <= self.port <= 65535:
            raise ConfigError("port must be in [0, 65535]")
        for name in ("tick", "time_scale"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ConfigError(
                    f"{name} must be finite and positive, got {value}")
        if self.default_decode_len is not None \
                and self.default_decode_len <= 0:
            raise ConfigError("default_decode_len must be positive")
        if self.replicas < 1:
            raise ConfigError("replicas must be at least 1")
        resolve_routing_policy(self.routing)  # validates the name
        self.slo  # noqa: B018 -- SLOTarget validates the targets

    @property
    def slo(self) -> SLOTarget:
        """The session's targets as an :class:`SLOTarget`."""
        return SLOTarget(ttft=self.slo_ttft, tpot=self.slo_tpot)


class LiveServer:
    """One live serving session: an engine behind a JSON-lines socket.

    The server owns a single-use :class:`ServingEngine` -- or a
    multi-replica :class:`~repro.sim.fleet.FleetEngine`, which exposes
    the same lifecycle, so a fleet serves through the identical
    protocol and pump. Wall time is
    mapped onto simulated time from the moment :meth:`start` runs
    (``sim_t = (monotonic - t0) * time_scale``). A periodic pump task
    advances the engine to "now" every ``tick`` and flushes completion
    events to whichever client submitted each request.

    Typical embedding (see ``examples/live_serving.py``)::

        server = LiveServer(engine, ServeConfig(port=0, time_scale=50))
        await server.start()
        host, port = server.address
        ...  # clients connect and submit
        report = await server.shutdown()

    or, for a foreground process, :meth:`run` starts, waits for a
    client ``shutdown`` op (or SIGINT/SIGTERM), and finalizes.
    """

    def __init__(self, engine: EngineLike,
                 config: Optional[ServeConfig] = None,
                 autoscaler: Optional[Autoscaler] = None) -> None:
        if engine.offered:
            raise ConfigError("LiveServer needs a fresh, unused engine")
        if autoscaler is not None and autoscaler.fleet is not engine:
            raise ConfigError("the autoscaler must control the engine "
                              "being served")
        self._engine = engine
        self._autoscaler = autoscaler
        self._config = config or ServeConfig()
        self._server: Optional[asyncio.AbstractServer] = None
        self._pump_task: Optional[asyncio.Task] = None
        self._t0: Optional[float] = None
        self._shutdown_event = asyncio.Event()
        self._finalized = False
        # request_id -> (writer, client-chosen id); writers that
        # disconnect are pruned lazily when a send fails.
        self._routes: Dict[int, Tuple[asyncio.StreamWriter, Any]] = {}
        self._completions: List[RequestRecord] = []
        engine.add_listener(self._completions.append)
        self._writers: List[asyncio.StreamWriter] = []
        self._report_waiters: List[asyncio.StreamWriter] = []
        self._handler_tasks: set = set()
        self._pump_failure: Optional[BaseException] = None
        self._report: Optional[ServingReport] = None
        self._trace: Optional[RequestTrace] = None

    # -- public surface ------------------------------------------------

    @property
    def address(self) -> Tuple[str, int]:
        """(host, port) actually bound (valid after :meth:`start`)."""
        if self._server is None:
            raise ConfigError("server is not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    def snapshot(self):
        """The engine's running statistics (see
        :meth:`~repro.sim.ServingEngine.snapshot`)."""
        return self._engine.snapshot()

    @property
    def autoscaler(self) -> Optional[Autoscaler]:
        """The autoscaling controller, when one is attached."""
        return self._autoscaler

    @property
    def report(self) -> Optional[ServingReport]:
        """The final report (None until shutdown, or if nothing ran)."""
        return self._report

    @property
    def trace(self) -> Optional[RequestTrace]:
        """The recorded arrival trace (None until shutdown, or if no
        requests were observed)."""
        return self._trace

    async def start(self) -> Tuple[str, int]:
        """Bind the socket, start the pump, and begin accepting.

        Returns:
            The bound (host, port).
        """
        if self._server is not None:
            raise ConfigError("server is already started")
        self._server = await asyncio.start_server(
            self._handle_client, self._config.host, self._config.port)
        # The wall->sim mapping's epoch: the one audited wall-clock
        # read (everything downstream derives from sim time).
        self._t0 = time.monotonic()  # simlint: allow[no-wallclock-in-sim]
        self._pump_task = asyncio.get_running_loop().create_task(
            self._pump())
        return self.address

    async def run(self, ready=None) -> Optional[ServingReport]:
        """Start, serve until a shutdown op (or SIGINT/SIGTERM), and
        finalize.

        Args:
            ready: Optional callback invoked with (host, port) once the
                socket is bound -- lets a CLI announce the actual port.

        Returns:
            The final :class:`ServingReport`, or None when no request
            was ever submitted.
        """
        host, port = await self.start()
        if ready is not None:
            ready(host, port)
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, self._shutdown_event.set)
                installed.append(signum)
            except (NotImplementedError, RuntimeError):  # pragma: no cover
                pass
        try:
            await self._shutdown_event.wait()
            return await self.shutdown()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)

    async def shutdown(self) -> Optional[ServingReport]:
        """Stop accepting, drain the engine, and build the artifacts.

        In-flight requests finish inside the DES (simulated time is
        free); their completions are flushed to still-connected clients
        before the report is built. Safe to call once; later calls
        return the same report.

        Returns:
            The final :class:`ServingReport`, or None when zero
            requests were submitted (a clean empty session, not a
            crash).
        """
        if self._finalized:
            return self._report
        self._finalized = True
        self._shutdown_event.set()
        if self._pump_task is not None:
            self._pump_task.cancel()
            try:
                await self._pump_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._pump_failure is not None:
            for writer in list(self._writers):
                try:
                    writer.close()
                except RuntimeError:  # pragma: no cover
                    pass
            raise self._pump_failure
        self._engine.drain()
        if self._autoscaler is not None:
            self._autoscaler.finalize(self._engine.now)
        await self._flush_completions()
        error: Optional[str] = None
        if self._engine.offered:
            try:
                self._trace = self._engine.recorded_trace(
                    time_scale=self._config.time_scale)
                self._report = self._engine.report(self._trace,
                                                   slo=self._config.slo)
            except ConfigError as failure:
                # A degenerate session (e.g. nothing ever finished under
                # a full-batch policy) ends cleanly, never with a crash.
                error = str(failure)
        else:
            error = "zero submissions before shutdown"
        await self._announce_report(error)
        for writer in list(self._writers):
            try:
                writer.close()
            except RuntimeError:  # pragma: no cover
                pass
        # Wait for the client handlers to observe the closed transports,
        # so the event loop winds down without cancellation noise.
        if self._handler_tasks:
            _, pending = await asyncio.wait(set(self._handler_tasks),
                                            timeout=1.0)
            for task in pending:  # pragma: no cover - stuck handler
                task.cancel()
            if pending:  # pragma: no cover
                await asyncio.gather(*pending, return_exceptions=True)
        return self._report

    async def _announce_report(self, error: Optional[str]) -> None:
        """Send the final report to every client that asked to shut
        down (the config envelope travels, so clients can rebuild the
        full :class:`ServingReport`)."""
        payload: Dict[str, Any] = {"op": "report", "report": None}
        if self._report is not None:
            from repro import config as config_module

            payload["report"] = config_module.to_config(self._report)
        if error is not None:
            payload["error"] = error
        for writer in self._report_waiters:
            await self._send(writer, payload)

    # -- engine clock --------------------------------------------------

    def _sim_now(self) -> float:
        # Audited wall->sim mapping: live arrivals are *defined* by
        # wall time; every simulated quantity derives from this point.
        wall = time.monotonic()  # simlint: allow[no-wallclock-in-sim]
        return (wall - self._t0) * self._config.time_scale

    async def _pump(self) -> None:
        """Advance the engine to wall-now every tick; flush completions.

        An engine failure must not die silently inside the task (the
        socket would stay open, acking submits that never complete):
        the failure is stashed and the session shuts down, re-raising
        it from :meth:`shutdown`.
        """
        try:
            while True:
                await asyncio.sleep(self._config.tick)
                self._engine.step(until=self._sim_now())
                if self._autoscaler is not None:
                    self._autoscaler.maybe_control(self._engine.now)
                await self._flush_completions()
        except asyncio.CancelledError:
            raise
        except Exception as failure:
            self._pump_failure = failure
            self._shutdown_event.set()

    async def _flush_completions(self) -> None:
        # Drain in place: the engine's completion listener is this
        # list's bound append, so rebinding the attribute would orphan
        # it and silently stop the stream after the first flush.
        completions = list(self._completions)
        del self._completions[:len(completions)]
        for record in completions:
            route = self._routes.pop(record.request_id, None)
            if route is None:
                continue
            writer, client_id = route
            payload = {
                "op": "completion",
                "id": client_id,
                "request_id": record.request_id,
                "arrival": record.arrival,
                "completion_time": record.completion_time,
                "ttft": record.ttft,
                "tpot": record.tpot,
                "decode_len": record.decode_len,
                "slo": self._config.slo.check(record),
            }
            await self._send(writer, payload)

    # -- protocol ------------------------------------------------------

    async def _send(self, writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
        """Best-effort line write; a vanished client is not an error."""
        try:
            writer.write(json.dumps(payload).encode("utf-8") + b"\n")
            await writer.drain()
        except (ConnectionError, RuntimeError, OSError):
            pass

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self._writers.append(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        try:
            while not self._finalized:
                line = await reader.readline()
                if not line:
                    break  # client disconnected; its requests live on
                line = line.strip()
                if not line:
                    continue
                response = self._dispatch_op(line, writer)
                if response is not None:
                    await self._send(writer, response)
        except (ConnectionError, OSError):
            pass  # mid-request disconnect; the DES finishes the work
        finally:
            if task is not None:
                self._handler_tasks.discard(task)
            if not self._finalized:
                self._writers.remove(writer)
                try:
                    writer.close()
                except RuntimeError:  # pragma: no cover
                    pass

    def _dispatch_op(self, line: bytes, writer: asyncio.StreamWriter,
                     ) -> Optional[Dict[str, Any]]:
        try:
            message = parse_json(line)
        except ConfigError as error:
            return {"op": "error", "error": str(error)}
        if not isinstance(message, dict):
            return {"op": "error", "error": "expected a JSON object"}
        op = message.get("op")
        if op == "submit":
            return self._handle_submit(message, writer)
        if op == "stats":
            return self._handle_stats()
        if op == "shutdown":
            self._report_waiters.append(writer)
            self._shutdown_event.set()
            return None  # the finalizer answers with the report line
        return {"op": "error", "error": f"unknown op {op!r}; known: "
                                       f"submit, stats, shutdown"}

    def _handle_submit(self, message: Dict[str, Any],
                       writer: asyncio.StreamWriter) -> Dict[str, Any]:
        client_id = message.get("id")
        decode_len = message.get("decode_len",
                                 self._config.default_decode_len)
        if decode_len is not None and not isinstance(decode_len, int):
            return {"op": "error", "id": client_id,
                    "error": "decode_len must be an integer"}
        identity = {}
        for key in ("user_id", "session_id", "tier"):
            value = message.get(key)
            if value is None:
                continue
            if not isinstance(value, str):
                return {"op": "error", "id": client_id,
                        "error": f"{key} must be a string"}
            identity[key] = value
        arrival = self._sim_now()
        try:
            record = self._engine.submit(arrival, decode_len=decode_len,
                                         **identity)
        except ConfigError as error:
            return {"op": "error", "id": client_id, "error": str(error)}
        self._routes[record.request_id] = (writer, client_id)
        return {"op": "ack", "id": client_id,
                "request_id": record.request_id, "arrival": record.arrival}

    def _handle_stats(self) -> Dict[str, Any]:
        snap = self._engine.snapshot()
        payload = {
            "op": "stats",
            "now": snap.now,
            "offered": snap.offered,
            "completed": snap.completed,
            "in_flight": snap.in_flight,
            "throughput": snap.throughput,
            "mean_ttft": snap.mean_ttft,
            "mean_tpot": snap.mean_tpot,
        }
        tiers = self._engine.tier_counts()
        if tiers:
            payload["tiers"] = tiers
        if isinstance(self._engine, FleetEngine):
            payload["replicas"] = [
                {"slot": stats["slot"], "state": stats["state"],
                 "offered": stats["offered"],
                 "completed": stats["completed"],
                 "in_flight": stats["in_flight"]}
                for stats in self._engine.replica_stats()
            ]
        if self._autoscaler is not None:
            payload["autoscale"] = {
                "policy": self._autoscaler.policy.name,
                "min_replicas": self._autoscaler.min_replicas,
                "max_replicas": self._autoscaler.max_replicas,
                "replicas": self._engine.replicas,
                "replica_seconds": self._autoscaler.replica_seconds,
                "events": self._autoscaler.timeline(),
            }
        return payload
