"""The worker fleet: supervised processes that run sweep cells.

:class:`Fleet` is the one multi-process cell executor.  An offline
``--jobs N`` table runs on one (:func:`repro.core.parallel.execute_tasks`
starts it, merges, and stops it), and so does every ``repro serve``
(:class:`repro.service.fleet.FleetExecutor` keeps one of ``--workers``
processes for its lifetime):

* **workers** are forked processes, each owning a private
  :class:`~repro.core.study.Study` built from the parent's
  :class:`~repro.core.parallel.WorkerConfig` by
  :func:`~repro.core.parallel._init_worker`.  A worker runs each cell
  through :func:`~repro.core.parallel._run_task` — the study's one
  guarded cell path — under the parent's
  :class:`~repro.core.resilience.CellBudget` (its ``max_seconds``
  replaced only when the dispatcher passes a budget for that cell) and
  sends back the records, with whether its trace cache has degraded
  (:attr:`Fleet.cache_degraded`), or the error the cell raised;
* a **supervisor thread** health-checks them over duplex pipes:
  heartbeats every ``heartbeat_s``, pipe EOF detects kills instantly,
  a missing heartbeat or an expired per-task deadline
  (``WorkerConfig.task_deadline_s``) detects stalls;
* a dead worker's in-flight cell is **redispatched at most once** to a
  surviving worker (preferring the freshest generation, which under
  ``disrupt_generations``-bounded kill plans is the one that will
  survive); a cell that dies twice fails with
  :class:`~repro.errors.WorkerLostError` instead of looping;
* a slot whose worker dies ``flap_threshold`` times in a row, with no
  cell completed in between, is **evicted** — bounded respawn, so a
  crash-looping worker cannot starve its siblings.

:meth:`Fleet.dispatch` returns a future of the cell's records; merging
them, in whatever order the caller needs, is the caller's job.  Worker
kill/stall injection rides the host-fault layer:
:func:`~repro.core.parallel._run_task` draws on the installed plan
keyed on the cell and its slot's *generation* (the respawn count), so
``disrupt_generations=1`` kills every first-generation worker once and
lets respawns make progress.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import stat
import threading
import time
import traceback
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Callable

from repro.core.parallel import CellTask, WorkerConfig, _task_key
from repro.core.variants import Variant
from repro.errors import StudyError, WorkerLostError, WorkerTaskError
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


def _count(name: str, help_text: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter(name, help_text, scope=SCOPE_PROCESS).inc(1)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------

def _close_foreign_sockets(keep_fd: int) -> None:
    """Close inherited sockets that belong to the supervisor process.

    A worker forked mid-study inherits every descriptor the supervisor
    holds at fork time: the asyncio listening socket, any *accepted
    client connections*, and the socketpairs of sibling workers.  A
    long-lived child keeping a client socket open means the peer never
    sees EOF after the server closes its side — the response hangs at
    the client even though the server finished.  Only ``keep_fd``
    (this worker's own duplex pipe, itself a socketpair) survives.
    """
    try:
        fds = [int(name) for name in os.listdir("/proc/self/fd")]
    except OSError:  # pragma: no cover - non-/proc platforms
        fds = list(range(3, 256))
    for fd in fds:
        if fd == keep_fd or fd < 3:
            continue
        try:
            if stat.S_ISSOCK(os.fstat(fd).st_mode):
                os.close(fd)
        except OSError:
            continue


def _worker_main(conn, config: WorkerConfig, generation: int,
                 heartbeat_s: float) -> None:
    """One worker: a persistent cell-execution loop.

    A cell that raises is a harness bug, not a host fault: its error
    goes back to the supervisor and the worker serves the next cell.
    """
    from repro.core import parallel

    _close_foreign_sockets(conn.fileno())
    parallel._init_worker(config)
    study = parallel._WORKER_STUDY
    cache = study.trace_cache
    budget = study.budget
    send_lock = threading.Lock()
    stop_beat = threading.Event()

    def send(msg) -> bool:
        try:
            with send_lock:
                conn.send(msg)
        except (OSError, ValueError):
            return False
        return True

    def beat() -> None:
        while not stop_beat.wait(heartbeat_s) and send(("beat",)):
            pass

    threading.Thread(target=beat, name="repro-fleet-beat",
                     daemon=True).start()
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, task_id, task, budget_s = msg
            # a service-level retry of a failed cell must actually
            # execute: re-arm the failure memo
            algorithm, name, device = _task_key(task)
            for variant in Variant:
                study._failures.pop((algorithm, name, device, variant), None)
            study.budget = (budget if budget_s is None
                            else replace(budget, max_seconds=budget_s))
            try:
                reply = ("done", task_id,
                         parallel._run_task(task, generation),
                         cache is not None and cache.degraded)
            except Exception as exc:
                reply = ("error", task_id, repr(exc),
                         traceback.format_exc())
            if not send(reply):
                break
    finally:
        stop_beat.set()
        conn.close()


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------

class _WorkerTraceback(Exception):
    """The traceback of an error a cell raised in its worker, chained
    as the cause of the parent's :class:`~repro.errors.WorkerTaskError`."""


def _cell_name(task: CellTask) -> str:
    return "/".join(_task_key(task))


@dataclass
class _Task:
    """One dispatched cell and its fate."""

    task_id: int
    cell: CellTask
    budget_s: float | None
    future: Future
    dispatches: int = 0


class _Slot:
    """One supervised worker slot across its respawn generations."""

    __slots__ = ("slot_id", "proc", "conn", "generation", "state",
                 "task_id", "task_started", "last_beat", "beat_flagged",
                 "dispatched", "completed", "deaths")

    def __init__(self, slot_id: int) -> None:
        self.slot_id = slot_id
        self.proc = None
        self.conn = None
        self.generation = -1
        self.state = "dead"     # idle | busy | dead | evicted
        self.task_id: int | None = None
        self.task_started = 0.0
        self.last_beat = 0.0
        self.beat_flagged = False
        self.dispatched = 0
        self.completed = 0
        #: deaths since the slot last completed a cell
        self.deaths = 0

    @property
    def live(self) -> bool:
        return self.state in ("idle", "busy")


class Fleet:
    """``workers`` supervised worker processes behind :meth:`dispatch`.

    ``config`` is the policy every worker rebuilds; its
    ``task_deadline_s`` is the supervisor's per-task deadline.
    ``flap_threshold`` deaths in a row evict a slot.  ``on_event``
    receives lifecycle events (worker spawn, exit and eviction, cell
    failover) on the supervisor's thread.
    """

    #: heartbeats a worker may miss before it is flagged (telemetry),
    #: and before it is declared dead and torn down
    MISS_AFTER = 3
    DEAD_AFTER = 20

    def __init__(self, config: WorkerConfig, workers: int, *,
                 heartbeat_s: float = 0.5, flap_threshold: int = 3,
                 on_event: Callable[[dict], None] | None = None) -> None:
        self.config = config
        self.heartbeat_s = heartbeat_s
        self.flap_threshold = flap_threshold
        self.on_event = on_event
        #: observability counters (also exported as telemetry)
        self.respawns = 0
        self.redispatches = 0
        self.heartbeat_misses = 0
        self.evictions = 0
        #: sticky: True once a worker reported that its trace cache
        #: degraded to memory-only operation (repeated disk errors)
        self.cache_degraded = False
        self._lock = threading.RLock()
        self._tasks: dict[int, _Task] = {}
        self._task_seq = 0
        self._queue: deque[int] = deque()
        self._closed = False
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._slots = [_Slot(i) for i in range(workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._stop = threading.Event()
        self._wake, self._waker = self._ctx.Pipe(duplex=False)
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor",
            daemon=True)
        self._supervisor.start()

    # ------------------------------------------------------------------
    # Surface
    # ------------------------------------------------------------------
    def dispatch(self, task: CellTask,
                 budget_s: float | None = None) -> Future:
        """Queue one cell; the future resolves to its records.

        ``budget_s`` replaces the wall-clock budget (``max_seconds``) of
        the parent's cell budget for this cell.  Cancelling the future
        before a worker takes the cell withdraws it.  A cell that raises
        in its worker fails the future with
        :class:`~repro.errors.WorkerTaskError`, a lost cell with
        :class:`~repro.errors.WorkerLostError`.
        """
        future: Future = Future()
        with self._lock:
            if self._closed:
                raise StudyError("the worker fleet is shut down")
            task_id = self._task_seq
            self._task_seq += 1
            self._tasks[task_id] = _Task(task_id, task, budget_s, future)
            self._queue.append(task_id)
            # an idle worker takes the cell now, not at the supervisor's
            # next tick
            self._assign()
        return future

    @property
    def degraded(self) -> bool:
        """True once the respawn budget is spent somewhere: a slot was
        evicted, or no worker is left."""
        with self._lock:
            return (any(s.state == "evicted" for s in self._slots)
                    or not any(s.live for s in self._slots))

    def status(self) -> dict:
        with self._lock:
            workers = [{
                "id": s.slot_id,
                "pid": s.proc.pid,
                "generation": s.generation,
                "state": s.state,
                "dispatched": s.dispatched,
                "completed": s.completed,
            } for s in self._slots]
        return {"workers": workers, "respawns": self.respawns,
                "redispatches": self.redispatches,
                "heartbeat_misses": self.heartbeat_misses,
                "evictions": self.evictions}

    def shutdown(self) -> None:
        """Stop the fleet and reap every worker: idle workers get a stop
        message and a join grace, busy ones are killed, unfinished cells
        fail."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._stop.set()
        # wake the supervisor now rather than at its next poll tick
        self._waker.send_bytes(b"")
        self._supervisor.join(timeout=10.0)
        with self._lock:
            for slot in self._slots:
                if slot.state == "busy":
                    slot.proc.kill()
                elif slot.state == "idle":
                    try:
                        slot.conn.send(("stop",))
                    except (OSError, ValueError):
                        slot.proc.kill()
            for slot in self._slots:
                slot.proc.join(timeout=2.0)
                if slot.proc.is_alive():
                    slot.proc.kill()
                    slot.proc.join(timeout=2.0)
                slot.conn.close()
                if slot.live:
                    slot.state = "dead"
            for task in list(self._tasks.values()):
                self._fail(task, "was unfinished when the fleet shut down")
        self._wake.close()
        self._waker.close()

    def _emit(self, event: dict) -> None:
        callback = self.on_event
        if callback is not None:
            try:
                callback(event)
            except Exception:  # pragma: no cover - observer bug
                pass

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _task_done(self, slot: _Slot, msg: tuple) -> None:
        kind, task_id, *body = msg
        slot.state = "idle"
        slot.task_id = None
        slot.completed += 1
        slot.deaths = 0
        task = self._tasks.pop(task_id)
        if kind == "done":
            records, cache_degraded = body
            self.cache_degraded = self.cache_degraded or cache_degraded
            task.future.set_result(records)
            return
        text, trace = body
        error = WorkerTaskError(
            f"cell task {_cell_name(task.cell)} failed in a worker: {text}")
        error.__cause__ = _WorkerTraceback(trace)
        task.future.set_exception(error)

    def _fail(self, task: _Task, what: str) -> None:
        del self._tasks[task.task_id]
        if not task.future.done():
            task.future.set_exception(WorkerLostError(
                f"cell task {_cell_name(task.cell)} {what}",
                task.dispatches))

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self, slot: _Slot) -> None:
        """(Re)start one slot's worker process, one generation up."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        slot.generation += 1
        proc = self._ctx.Process(
            target=_worker_main,
            args=(child_conn, self.config, slot.generation,
                  self.heartbeat_s),
            name=f"repro-fleet-{slot.slot_id}-g{slot.generation}",
            daemon=True)
        proc.start()
        child_conn.close()
        slot.proc = proc
        slot.conn = parent_conn
        slot.state = "idle"
        slot.task_id = None
        slot.last_beat = time.monotonic()
        slot.beat_flagged = False
        if slot.generation > 0:
            self.respawns += 1
            _count("repro_fleet_respawns_total",
                   "Fleet worker slots respawned after a death")
        self._emit({"event": "worker_spawn", "worker": slot.slot_id,
                    "generation": slot.generation, "pid": proc.pid})

    def _worker_died(self, slot: _Slot, why: str) -> None:
        """Tear a slot down, redispatch its cell, respawn or evict."""
        task = (None if slot.task_id is None
                else self._tasks[slot.task_id])
        slot.state = "dead"
        slot.task_id = None
        slot.deaths += 1
        if slot.proc.is_alive():
            slot.proc.kill()
        slot.proc.join(timeout=2.0)
        slot.conn.close()
        self._emit({"event": "worker_exit", "worker": slot.slot_id,
                    "generation": slot.generation, "why": why})
        if task is not None:
            if task.dispatches >= 2:
                # redispatched once already: fail instead of bouncing
                # the cell around a dying fleet
                self._fail(task, f"lost twice to worker deaths ({why})")
            else:
                self.redispatches += 1
                _count("repro_fleet_redispatches_total",
                       "In-flight cells redispatched after their worker "
                       "died")
                self._queue.appendleft(task.task_id)
                algorithm, name, device = _task_key(task.cell)
                self._emit({"event": "failover", "worker": slot.slot_id,
                            "generation": slot.generation,
                            "cell": {"algorithm": algorithm,
                                     "input": name, "device": device},
                            "why": why})
        if slot.deaths < self.flap_threshold:
            self._spawn(slot)
        else:
            slot.state = "evicted"
            self.evictions += 1
            _count("repro_fleet_evictions_total",
                   "Fleet worker slots evicted after dying too many "
                   "times in a row")
            self._emit({"event": "worker_evicted", "worker": slot.slot_id,
                        "generation": slot.generation})

    # ------------------------------------------------------------------
    # Supervisor loop
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        tick = max(0.01, min(0.05, self.heartbeat_s / 2))
        while not self._stop.is_set():
            with self._lock:
                conns = {s.conn: s for s in self._slots if s.live}
            try:
                ready = mp_connection.wait([self._wake, *conns],
                                           timeout=tick)
            except OSError:  # a pipe died mid-wait
                ready = []
            with self._lock:
                for conn in ready:
                    slot = conns.get(conn)
                    if slot is not None and slot.conn is conn:
                        self._receive(slot)
                self._check_health()
                self._assign()

    def _receive(self, slot: _Slot) -> None:
        try:
            msg = slot.conn.recv()
        except (EOFError, OSError):
            self._worker_died(slot, "pipe closed")
            return
        slot.last_beat = time.monotonic()
        slot.beat_flagged = False
        if msg[0] != "beat":
            self._task_done(slot, msg)

    def _check_health(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not slot.live:
                continue
            if not slot.proc.is_alive():
                self._worker_died(slot, "process exited")
                continue
            silent = now - slot.last_beat
            if (silent > self.MISS_AFTER * self.heartbeat_s
                    and not slot.beat_flagged):
                slot.beat_flagged = True
                self.heartbeat_misses += 1
                _count("repro_fleet_heartbeat_misses_total",
                       "Heartbeat windows a fleet worker missed")
            if silent > self.DEAD_AFTER * self.heartbeat_s:
                self._worker_died(slot, "heartbeat lost")
                continue
            deadline = self.config.task_deadline_s
            if (slot.state == "busy" and deadline is not None
                    and now - slot.task_started > deadline):
                # a stalled worker still heartbeats — the per-task
                # deadline is what catches it (kill + redispatch)
                self._worker_died(slot, "task deadline expired")

    def _assign(self) -> None:
        while self._queue:
            live = [s for s in self._slots if s.live]
            if not live:
                # the whole fleet is gone: fail what is queued rather
                # than letting callers hang
                while self._queue:
                    self._fail(self._tasks[self._queue.popleft()],
                               "had no live fleet worker left to run it")
                return
            idle = [s for s in live if s.state == "idle"]
            if not idle:
                return
            task = self._tasks[self._queue.popleft()]
            if task.dispatches:
                # a redispatched cell goes to the freshest survivor —
                # under generation-bounded kill plans that is the one
                # that will not be killed again
                slot = max(idle, key=lambda s: (s.generation, -s.slot_id))
            elif task.future.set_running_or_notify_cancel():
                slot = idle[0]
            else:
                # withdrawn before any worker took it
                del self._tasks[task.task_id]
                continue
            task.dispatches += 1
            slot.state = "busy"
            slot.task_id = task.task_id
            slot.task_started = time.monotonic()
            slot.dispatched += 1
            try:
                slot.conn.send(("task", task.task_id, task.cell,
                                task.budget_s))
            except (OSError, ValueError):
                self._worker_died(slot, "dispatch failed")
