"""The asyncio HTTP server: routing, lifecycle, and graceful drain.

:class:`SweepService` wires the pieces together — admission gate in
front, coalescing scheduler behind, the
:class:`~repro.service.fleet.FleetExecutor` at the bottom — and owns
process lifecycle: ``SIGTERM``/``SIGINT`` trigger a graceful
drain (stop admitting, finish or cancel in-flight cells within the
drain deadline, exit), and ``/healthz`` /
``/readyz`` expose liveness and readiness, mirrored into
:mod:`repro.telemetry` gauges when telemetry is enabled.

With ``--store DIR`` the service study checkpoints into a
content-addressed result store (:class:`~repro.core.store.ResultStore`):
every finished cell is published there as it completes, and a cell in
the store is served without executing — so a restarted server, or an
offline ``repro sweep --checkpoint DIR``, picks up where it stopped.
Cells run on ``--workers N`` (default 1) supervised worker processes
with heartbeats, crash failover and bounded respawn.  ``/readyz``
carries the fleet's status and reports **degraded** (503 with JSON
reasons) when the fleet's respawn budget is exhausted or the store has
sticky-degraded, and the drain path waits for every worker before
exiting.

Routes::

    GET  /healthz                 liveness (200 while the process runs)
    GET  /readyz                  readiness (503 while draining or
                                  degraded, with JSON reasons)
    GET  /metrics                 Prometheus exposition of the registry
    GET  /v1/results              everything computed so far
    POST /v1/study                stream per-cell NDJSON records
    GET  /v1/study/{id}/events    NDJSON study-progress subscription
                                  (cell start/finish/failover events)
"""

from __future__ import annotations

import asyncio
import json
import signal
import socket
import time
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import ProtocolError, ServiceError
from repro.perf.trace import TraceCache
from repro.service.fleet import FleetExecutor
from repro.service.protocol import (
    HttpRequest,
    end_ndjson,
    parse_study_request,
    read_request,
    send_json,
    send_ndjson_line,
    start_ndjson,
)
from repro.service.quota import AdmissionController
from repro.service.scheduler import CellScheduler
from repro.service.breaker import CircuitBreaker
from repro.telemetry.export import to_prometheus
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry

DRAIN_RETRY_AFTER = "5"

#: completed studies whose event buffers are retained for replay
EVENT_HISTORY = 256


@dataclass
class ServiceConfig:
    """Everything ``repro serve`` can tune, with production-ish
    defaults sized for the simulator's workloads."""

    host: str = "127.0.0.1"
    port: int = 8421
    # study knobs (mirror the sweep CLI)
    reps: int = 3
    scale: float = 1.0
    validate: bool = False
    retries: int = 1
    backoff_s: float = 0.05
    trace_dir: str | None = None
    #: the service study's checkpoint: a result-store directory
    store_dir: str | None = None
    faults: object | None = None  # FaultPlan, injected by the CLI
    # fleet knobs: the supervised worker processes every cell runs on
    workers: int = 1
    fleet_heartbeat_s: float = 0.5
    fleet_flap_threshold: int = 3
    fleet_task_deadline_s: float | None = None
    # robustness ladder knobs
    max_pending_cells: int = 256
    per_tenant_cells: int = 64
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 30.0
    saturation_threshold: int = 8
    default_deadline_s: float | None = None
    drain_deadline_s: float = 20.0


@dataclass
class _StudyEvents:
    """One study's progress-event buffer and its live subscribers."""

    study_id: str
    buffer: list = field(default_factory=list)
    queues: set = field(default_factory=set)
    done: bool = False


class SweepService:
    """One listening sweep server (see module docstring)."""

    def __init__(self, config: ServiceConfig) -> None:
        self.config = config
        trace_cache = (TraceCache(disk_dir=config.trace_dir)
                       if config.trace_dir else None)
        self.executor = FleetExecutor(
            workers=config.workers, reps=config.reps, scale=config.scale,
            validate=config.validate, retries=config.retries,
            backoff_s=config.backoff_s, faults=config.faults,
            trace_cache=trace_cache, checkpoint=config.store_dir,
            heartbeat_s=config.fleet_heartbeat_s,
            flap_threshold=config.fleet_flap_threshold,
            task_deadline_s=config.fleet_task_deadline_s)
        self.scheduler = CellScheduler(
            self.executor,
            CircuitBreaker(threshold=config.breaker_threshold,
                           cooldown_s=config.breaker_cooldown_s),
            saturation_threshold=config.saturation_threshold)
        self.admission = AdmissionController(
            max_pending_cells=config.max_pending_cells,
            per_tenant_cells=config.per_tenant_cells)
        self._server: asyncio.base_events.Server | None = None
        self._connections: set[asyncio.Task] = set()
        self._draining = False
        self._drained = asyncio.Event()
        self._drain_task: asyncio.Task | None = None
        self._started_at = time.monotonic()
        self._loop: asyncio.AbstractEventLoop | None = None
        self._study_seq = 0
        self._events: OrderedDict[str, _StudyEvents] = OrderedDict()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        """The actually bound (host, port) — resolves ``port=0``."""
        if self._server is None or not self._server.sockets:
            raise ServiceError("service is not listening")
        name = self._server.sockets[0].getsockname()
        return name[0], name[1]

    @property
    def draining(self) -> bool:
        return self._draining

    async def start(self) -> None:
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, self.config.host,
                self.config.port, family=socket.AF_INET)
        except OSError as exc:
            # the fleet's workers were forked in __init__: a server that
            # cannot listen stops them instead of leaving them running
            self.executor.shutdown()
            raise ServiceError(
                f"cannot listen: {exc.strerror or exc}") from exc
        self._loop = asyncio.get_running_loop()
        # fleet events (failover, respawn, eviction) arrive from the
        # supervisor thread; hop onto the loop and fan them out to every
        # active study's event stream
        self.executor.on_event = self._fleet_event_threadsafe
        self._install_signal_handlers()
        self._publish_gauges()

    def _install_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(sig, self.request_drain)
            except (NotImplementedError, ValueError, RuntimeError):
                # non-main thread or unsupported platform: callers can
                # still drain programmatically
                pass

    def request_drain(self) -> None:
        """Begin a graceful drain (idempotent; signal-handler safe)."""
        if self._drain_task is None:
            self._drain_task = asyncio.get_running_loop().create_task(
                self._drain())

    async def _drain(self) -> None:
        """Stop admissions, let in-flight work land, exit.

        In-flight connections get up to ``drain_deadline_s`` to finish
        streaming; stragglers are cancelled (their subscribers drop and
        queued cells are abandoned).  Every cell that completed was
        published to the ``--store`` as it finished, for a future server
        or ``repro sweep --checkpoint`` on the same directory.
        """
        self._draining = True
        self._publish_gauges()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [t for t in self._connections if not t.done()]
        if pending:
            _done, still = await asyncio.wait(
                pending, timeout=self.config.drain_deadline_s)
            for task in still:
                task.cancel()
            if still:
                await asyncio.gather(*still, return_exceptions=True)
        await self.scheduler.drain()
        self.executor.shutdown()
        self._remove_signal_handlers()
        self._publish_gauges()
        self._drained.set()

    def _remove_signal_handlers(self) -> None:
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.remove_signal_handler(sig)
            except (NotImplementedError, ValueError, RuntimeError):
                pass

    async def wait_drained(self) -> None:
        await self._drained.wait()

    async def aclose(self) -> None:
        """Drain programmatically (tests; no signal involved)."""
        self.request_drain()
        await self.wait_drained()

    def _publish_gauges(self) -> None:
        reg = get_registry()
        if not reg.enabled:
            return
        reg.gauge("repro_service_ready",
                  "1 while the service accepts new studies",
                  scope=SCOPE_PROCESS).set(0.0 if self._draining else 1.0)
        reg.gauge("repro_service_draining",
                  "1 once a graceful drain has begun",
                  scope=SCOPE_PROCESS).set(1.0 if self._draining else 0.0)
        reg.gauge("repro_service_active_requests",
                  "Open client connections",
                  scope=SCOPE_PROCESS).set(float(len(self._connections)))

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
            task.add_done_callback(self._connections.discard)
        self._publish_gauges()
        try:
            try:
                request = await asyncio.wait_for(read_request(reader),
                                                 timeout=30.0)
            except asyncio.TimeoutError:
                await send_json(writer, 408,
                                {"error": "timed out reading request"})
                return
            except ProtocolError as exc:
                await send_json(writer, 400, {"error": str(exc)})
                return
            if request is None:
                return
            await self._route(request, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away; subscribers were dropped in-route
        finally:
            self._publish_gauges()
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _route(self, request: HttpRequest,
                     writer: asyncio.StreamWriter) -> None:
        route = (request.method, request.path)
        study_events_id = self._study_events_id(request.path)
        if route == ("GET", "/healthz"):
            await send_json(writer, 200, self._health_payload())
        elif route == ("GET", "/readyz"):
            ready, reasons = self._ready_state()
            await send_json(writer, 200 if ready else 503,
                            self._ready_payload(ready, reasons))
        elif study_events_id is not None:
            if request.method != "GET":
                await send_json(writer, 405,
                                {"error": f"{request.method} not allowed "
                                          f"on {request.path}"})
            else:
                await self._handle_study_events(study_events_id, writer)
        elif route == ("GET", "/metrics"):
            body = to_prometheus(get_registry()).encode()
            writer.write(_plain_response(200, body))
            await writer.drain()
        elif route == ("GET", "/v1/results"):
            await send_json(writer, 200, self.executor.results_payload())
        elif route == ("POST", "/v1/study"):
            await self._handle_study(request, writer)
        elif request.path in ("/healthz", "/readyz", "/metrics",
                              "/v1/results", "/v1/study"):
            await send_json(writer, 405,
                            {"error": f"{request.method} not allowed "
                                      f"on {request.path}"})
        else:
            await send_json(writer, 404,
                            {"error": f"no route {request.path}"})

    def _health_payload(self) -> dict:
        return {"status": "ok",
                "uptime_s": round(time.monotonic() - self._started_at, 3),
                "draining": self._draining}

    def _ready_state(self) -> tuple[bool, list[str]]:
        """Readiness and the reasons it is lost.

        The service refuses to claim ready while silently limping: an
        exhausted fleet respawn budget (an evicted worker slot, or no
        live workers) and a sticky-degraded shared result store are
        503s with an explicit reason, not a quiet ``ready: true``.
        """
        reasons: list[str] = []
        if self._draining:
            reasons.append("draining")
        if self.executor.fleet_degraded:
            reasons.append("fleet_respawn_exhausted")
        store = self.executor.study.store
        if store is not None and store.degraded:
            reasons.append("store_degraded")
        return not reasons, reasons

    def _ready_payload(self, ready: bool, reasons: list[str]) -> dict:
        return {"ready": ready,
                "reasons": reasons,
                "draining": self._draining,
                "degraded": self.scheduler.degraded_mode(),
                "pending_cells": self.admission.pending_cells,
                "queued_executions": self.executor.queued,
                "inflight_cells": self.scheduler.inflight_cells(),
                "open_breakers": [
                    getattr(k, "describe", lambda: str(k))()
                    for k in self.scheduler.breaker.open_keys()],
                "coalesced": self.scheduler.coalesced,
                "stale_served": self.scheduler.stale_served,
                "fleet": self.executor.fleet_status()}

    # ------------------------------------------------------------------
    # The study route
    # ------------------------------------------------------------------
    async def _handle_study(self, request: HttpRequest,
                            writer: asyncio.StreamWriter) -> None:
        if self._draining:
            await send_json(
                writer, 503, {"error": "service is draining"},
                extra_headers=(("Retry-After", DRAIN_RETRY_AFTER),))
            return
        try:
            study = parse_study_request(request.body)
        except ProtocolError as exc:
            await send_json(writer, 400, {"error": str(exc)})
            return
        admission = self.admission.try_admit(study.tenant,
                                             len(study.cells))
        if not admission.ok:
            await send_json(
                writer, 429,
                {"error": admission.reason,
                 "retry_after_s": admission.retry_after_s},
                extra_headers=(("Retry-After",
                                admission.retry_after_header),))
            return
        deadline_s = (study.deadline_s
                      if study.deadline_s is not None
                      else self.config.default_deadline_s)
        study_id = self._new_study()
        for key in study.cells:
            self._publish_event(study_id, {"event": "cell_start",
                                           "cell": key.as_dict()})
        tasks = [asyncio.create_task(
                     self.scheduler.request_cell(key, deadline_s))
                 for key in study.cells]
        ok = failed = 0
        started = time.monotonic()
        try:
            await start_ndjson(writer)
            await send_ndjson_line(writer, {"study_id": study_id})
            for fut in asyncio.as_completed(tasks):
                record = await fut
                if record.get("status") == "ok":
                    ok += 1
                else:
                    failed += 1
                self._publish_event(study_id, {
                    "event": "cell_finish", "cell": record.get("cell"),
                    "status": record.get("status")})
                await send_ndjson_line(writer, record)
            await send_ndjson_line(writer, {
                "summary": {"cells": len(study.cells), "ok": ok,
                            "failed": failed, "tenant": study.tenant,
                            "study_id": study_id,
                            "elapsed_s": round(
                                time.monotonic() - started, 3)}})
            await end_ndjson(writer)
        except (ConnectionResetError, BrokenPipeError,
                asyncio.CancelledError):
            # client disconnected or the drain deadline cancelled us:
            # abandon our seats so unstarted cells are not computed
            for task in tasks:
                task.cancel()
            await asyncio.gather(*tasks, return_exceptions=True)
            raise
        finally:
            self._finish_study(study_id, {
                "event": "study_done",
                "cells": len(study.cells), "ok": ok, "failed": failed})
            self.admission.release(study.tenant, len(study.cells))

    # ------------------------------------------------------------------
    # Study-progress events (GET /v1/study/{id}/events)
    # ------------------------------------------------------------------
    @staticmethod
    def _study_events_id(path: str) -> str | None:
        """The study id of an events-subscription path, or None."""
        prefix, suffix = "/v1/study/", "/events"
        if not (path.startswith(prefix) and path.endswith(suffix)):
            return None
        study_id = path[len(prefix):-len(suffix)]
        return study_id if study_id and "/" not in study_id else None

    def _new_study(self) -> str:
        self._study_seq += 1
        study_id = f"s{self._study_seq:06d}"
        self._events[study_id] = _StudyEvents(study_id=study_id)
        while len(self._events) > EVENT_HISTORY:
            self._events.popitem(last=False)
        return study_id

    def _publish_event(self, study_id: str, event: dict) -> None:
        entry = self._events.get(study_id)
        if entry is None or entry.done:
            return
        event = {"study": study_id, **event}
        entry.buffer.append(event)
        for queue in list(entry.queues):
            queue.put_nowait(event)

    def _finish_study(self, study_id: str, event: dict) -> None:
        self._publish_event(study_id, event)
        entry = self._events.get(study_id)
        if entry is not None:
            entry.done = True

    def _fleet_event_threadsafe(self, event: dict) -> None:
        """Fleet supervisor callback: hop to the loop, then fan out."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._fleet_event, dict(event))
        except RuntimeError:  # loop shut down mid-callback
            pass

    def _fleet_event(self, event: dict) -> None:
        """Failover/respawn/eviction events go to every open study —
        a subscriber watching cell progress needs to see why a cell is
        suddenly taking a second trip."""
        for study_id, entry in list(self._events.items()):
            if not entry.done:
                self._publish_event(study_id, event)

    async def _handle_study_events(self, study_id: str,
                                   writer: asyncio.StreamWriter) -> None:
        entry = self._events.get(study_id)
        if entry is None:
            await send_json(writer, 404,
                            {"error": f"no study {study_id!r}"})
            return
        queue: asyncio.Queue = asyncio.Queue()
        # subscribe before snapshotting the buffer (same loop tick, so
        # replay + live consumption is the exact event sequence)
        if not entry.done:
            entry.queues.add(queue)
        replay = list(entry.buffer)
        try:
            await start_ndjson(writer)
            for event in replay:
                await send_ndjson_line(writer, event)
            if not entry.done:
                while True:
                    event = await queue.get()
                    await send_ndjson_line(writer, event)
                    if event.get("event") == "study_done":
                        break
            await end_ndjson(writer)
        finally:
            entry.queues.discard(queue)


def _plain_response(status: int, body: bytes) -> bytes:
    from repro.service.protocol import response_bytes
    return response_bytes(status, body,
                          content_type="text/plain; version=0.0.4")


# ----------------------------------------------------------------------
# Entry point used by ``repro serve``
# ----------------------------------------------------------------------
async def _serve_main(config: ServiceConfig) -> None:
    service = SweepService(config)
    await service.start()
    host, port = service.address
    print(f"repro service listening on http://{host}:{port}", flush=True)
    await service.wait_drained()
    print("repro service drained cleanly", flush=True)


def serve_forever(config: ServiceConfig) -> int:
    """Run the service until a SIGTERM/SIGINT drain completes."""
    asyncio.run(_serve_main(config))
    return 0
