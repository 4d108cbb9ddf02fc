"""The worker fleet: N supervised sweep processes behind one listener.

:class:`FleetExecutor` is a drop-in replacement for
:class:`~repro.service.scheduler.StudyExecutor` (same ``submit`` /
``results_payload`` / ``shutdown`` surface) that
executes cells on a fleet of long-lived worker *processes* instead of
one worker thread:

* **workers** are forked processes, each owning a private
  :class:`~repro.core.resilience.ResilientStudy` built from the same
  :class:`~repro.core.parallel.WorkerConfig` policy the offline pool
  uses (same fault plans, trace-cache disk layer, telemetry deltas);
* a **supervisor thread** health-checks them over duplex pipes:
  heartbeats every ``heartbeat_s``, pipe EOF detects kills instantly,
  a missing heartbeat or an expired per-task deadline detects stalls;
* a dead worker's in-flight cell is **redispatched at most once** to a
  surviving worker (preferring the freshest generation, which under
  ``disrupt_generations``-bounded kill plans is the one that will
  survive); a cell that dies twice fails with ``reason="fleet"``
  instead of looping;
* each worker slot has a **flap circuit-breaker**
  (:class:`~repro.service.breaker.CircuitBreaker` keyed per slot):
  every death is a failure, every completed cell a success, and a slot
  whose breaker opens is **evicted** — bounded respawn, so a
  crash-looping worker cannot starve its siblings;
* completed records are staged per submission index and folded into
  the parent's ledger study **strictly in submission order** — exactly
  the :func:`repro.core.parallel.execute_tasks` discipline — so
  ``/v1/results`` and the published store records stay byte-identical
  to the single-worker serial path; a cell's future resolves only once
  its records are folded in, so a resolved cell is in ``/v1/results``
  and, with a checkpoint, already published;
* with a ``checkpoint`` directory the ledger study's
  :class:`~repro.core.store.ResultStore` serves published cells
  without dispatching (store-served cells do not count as executed and
  carry no telemetry records, so nothing is priced twice) and receives
  every fully-``ok`` cell as it is folded in.

A worker runs each cell through
:func:`repro.core.parallel._task_records`, as a pool worker does: both
variants, led by the ``graph`` record and followed by the telemetry
record.

Worker kill/stall injection rides the host-fault layer:
:func:`repro.core.hostfaults.maybe_disrupt` draws on the installed plan
keyed on ``("fleet", worker id, *cell identity)`` and the slot's
*generation* (its respawn count), so ``disrupt_generations=1`` kills
every first-generation worker exactly once and lets respawns make
progress.
"""

from __future__ import annotations

import multiprocessing as mp
import multiprocessing.connection as mp_connection
import os
import stat
import threading
import time
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from statistics import median

from repro.core.resilience import CellBudget, CellFailure, ResilientStudy
from repro.core.study import SpeedupCell, outcome_record
from repro.core.variants import Variant
from repro.errors import ServiceError
from repro.service.breaker import CircuitBreaker
from repro.service.protocol import CellKey
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


def _count_fleet(name: str, help_text: str) -> None:
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


def _fleet_worker_main(conn, config, worker_id: int, generation: int,
                       heartbeat_s: float) -> None:
    """One fleet worker: a persistent cell-execution loop.

    Policy setup is :func:`repro.core.parallel._init_worker` verbatim
    (signal hygiene, telemetry enable/clear, host-fault plan install,
    private study + trace cache), so a fleet worker's execution of a
    cell is indistinguishable from a pool worker's.
    """
    from repro.core import hostfaults, parallel

    _close_foreign_sockets(conn.fileno())
    parallel._init_worker(config)
    study = parallel._WORKER_STUDY
    send_lock = threading.Lock()
    stop_beat = threading.Event()

    def beat() -> None:
        while not stop_beat.wait(heartbeat_s):
            try:
                with send_lock:
                    conn.send(("beat", worker_id))
            except (OSError, ValueError, BrokenPipeError):
                return

    threading.Thread(target=beat, name=f"fleet-beat-{worker_id}",
                     daemon=True).start()
    max_steps = getattr(config.budget, "max_steps", None)
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            if msg[0] == "stop":
                break
            _, task_id, key, budget_s = msg
            algorithm, input_name, device = key
            # the injected kill/stall window: deterministic on the
            # (worker, cell) identity, bounded by the worker generation
            hostfaults.maybe_disrupt(hostfaults.active_plan(),
                                     ("fleet", worker_id, *key), generation)
            # a service-level retry of a failed cell must actually
            # execute: re-arm the failure memo, like StudyExecutor
            for variant in Variant:
                study._failures.pop(
                    (algorithm, input_name, device, variant), None)
            study.budget = CellBudget(max_seconds=budget_s,
                                      max_steps=max_steps)
            records = parallel._task_records(study, parallel.CellTask(
                algorithm, input_name, device,
                tuple(v.value for v in Variant)))
            try:
                with send_lock:
                    conn.send(("done", task_id, records))
            except (OSError, ValueError, BrokenPipeError):
                break
    finally:
        stop_beat.set()
        try:
            conn.close()
        except OSError:  # pragma: no cover - defensive
            pass


# ----------------------------------------------------------------------
# Supervisor side
# ----------------------------------------------------------------------

@dataclass
class _FleetTask:
    """One submitted cell: its seat in the merge order and its fate."""

    task_id: int                 #: doubles as the submission index
    key: CellKey
    budget_s: float | None
    future: Future
    dispatches: int = 0
    resolved: bool = False


class _Slot:
    """One supervised worker slot across its respawn generations."""

    __slots__ = ("slot_id", "proc", "conn", "generation", "state",
                 "task_id", "task_started", "last_beat", "beat_flagged",
                 "dispatched", "completed")

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

    @property
    def live(self) -> bool:
        return self.state in ("idle", "busy")


class FleetExecutor:
    """N supervised worker processes behind the StudyExecutor surface.

    Parameters mirror :class:`~repro.service.scheduler.StudyExecutor`
    plus the fleet knobs; ``trace_cache`` backs the parent ledger and
    its ``disk_dir`` is the shared layer workers record traces into,
    ``checkpoint`` is the ledger study's result-store directory, and
    ``flap_*`` configure the per-slot respawn circuit-breaker
    (``flap_threshold`` consecutive deaths evict the slot).
    """

    #: heartbeats a worker may miss before it is flagged (telemetry),
    #: and before it is declared dead and torn down
    MISS_AFTER = 3
    DEAD_AFTER = 20

    def __init__(self, *, workers: int = 2, reps: int = 3,
                 scale: float = 1.0, validate: bool = False,
                 retries: int = 0, backoff_s: float = 0.0,
                 max_steps: int | None = None, faults=None,
                 trace_cache=None, checkpoint=None,
                 heartbeat_s: float = 0.5,
                 flap_threshold: int = 3,
                 flap_cooldown_s: float = 30.0,
                 task_deadline_s: float | None = None) -> None:
        if workers < 1:
            raise ServiceError(f"fleet needs >= 1 worker, got {workers}")
        self.workers = workers
        self.jobs = 1  # cells are the parallelism unit; workers run serial
        self._max_steps = max_steps
        self.heartbeat_s = heartbeat_s
        self.task_deadline_s = task_deadline_s
        self.study = ResilientStudy(
            reps=reps, scale=scale, validate=validate, retries=retries,
            backoff_s=backoff_s, budget=CellBudget(max_steps=max_steps),
            faults=faults, checkpoint=checkpoint, trace_cache=trace_cache)
        self._study_lock = threading.RLock()
        self._count_lock = threading.Lock()
        self._fleet_lock = threading.RLock()
        self._queued = 0
        self._closed = False
        self.flap_breaker = CircuitBreaker(threshold=flap_threshold,
                                           cooldown_s=flap_cooldown_s)
        #: observability counters (also exported as telemetry)
        self.respawns = 0
        self.redispatches = 0
        self.heartbeat_misses = 0
        self.evictions = 0
        self.fleet_failures = 0
        #: optional thread-safe callback receiving fleet event dicts
        self.on_event = None

        self._tasks: dict[int, _FleetTask] = {}
        self._task_seq = 0
        self._queue: deque[int] = deque()
        self._staged: dict[int, list[dict]] = {}
        self._flushed = 0
        methods = mp.get_all_start_methods()
        self._ctx = mp.get_context("fork" if "fork" in methods else None)
        self._slots = [_Slot(i) for i in range(workers)]
        for slot in self._slots:
            self._spawn(slot)
        self._stop = threading.Event()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-fleet-supervisor",
            daemon=True)
        self._supervisor.start()

    # ------------------------------------------------------------------
    # StudyExecutor surface
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Cells submitted and not yet resolved."""
        with self._count_lock:
            return self._queued

    @property
    def degraded(self) -> bool:
        cache = self.study.trace_cache
        return cache is not None and cache.degraded

    @property
    def fleet_degraded(self) -> bool:
        """True when the respawn budget has been spent somewhere: a
        slot was evicted (flap breaker open) or every worker is gone."""
        with self._fleet_lock:
            slots = self._slots
            return (any(s.state == "evicted" for s in slots)
                    or not any(s.live for s in slots))

    def submit(self, key: CellKey, budget_s: float | None) -> Future:
        """Queue one cell; returns a ``concurrent.futures.Future``.

        Serving ladder: ledger memo (free) → the ledger study's
        checkpoint store (merge without execution) → dispatch to the
        fleet.  Cancelling the future before a worker picks the cell up
        skips it entirely.
        """
        with self._count_lock:
            if self._closed:
                raise ServiceError("fleet executor is shut down")
            self._queued += 1
        future: Future = Future()
        future.add_done_callback(self._one_done)

        cell = self._serve_from_memo(key)
        if cell is not None:
            future.set_result(cell)
            return future

        with self._fleet_lock:
            task_id = self._task_seq
            self._task_seq += 1
            task = _FleetTask(task_id=task_id, key=key,
                              budget_s=budget_s, future=future)
            self._tasks[task_id] = task
            try:
                with self._study_lock:
                    records = self.study._stored_records(
                        key.algorithm, key.input_name, key.device)
            except Exception as exc:
                # the task already holds a seat in the merge order;
                # failing the cell fills it, or every later cell waits
                self._resolve_failure(task, "error", str(exc))
                return future
            if records is not None:
                self._stage(task_id, records)
            else:
                self._queue.append(task_id)
                # an idle worker takes the cell now, not at the
                # supervisor's next tick: a cell resolves only after
                # its record is published, so the next submission
                # arrives once the supervisor is back to waiting
                self._assign()
        return future

    def _one_done(self, _future) -> None:
        with self._count_lock:
            self._queued -= 1

    def results_payload(self) -> dict:
        with self._study_lock:
            return {"reps": self.study.reps, "scale": self.study.scale,
                    "results": self.study._result_records()}

    def save_results(self, path) -> None:
        with self._study_lock:
            self.study.save_results(path)

    def shutdown(self) -> None:
        """Stop the fleet: workers get a stop message and a join
        grace, stragglers are killed, unresolved cells fail."""
        with self._count_lock:
            self._closed = True
        self._stop.set()
        self._supervisor.join(timeout=10.0)
        with self._fleet_lock:
            for slot in self._slots:
                if slot.live and slot.conn is not None:
                    try:
                        slot.conn.send(("stop",))
                    except (OSError, ValueError, BrokenPipeError):
                        pass
            for slot in self._slots:
                if slot.proc is not None:
                    slot.proc.join(timeout=2.0)
                    if slot.proc.is_alive():
                        slot.proc.kill()
                        slot.proc.join(timeout=2.0)
                if slot.conn is not None:
                    try:
                        slot.conn.close()
                    except OSError:  # pragma: no cover
                        pass
                if slot.live:
                    slot.state = "dead"
            for task in self._tasks.values():
                if not task.resolved:
                    self._resolve_failure(task, "shutdown",
                                          "fleet shut down before the "
                                          "cell completed")

    # ------------------------------------------------------------------
    # Fleet status
    # ------------------------------------------------------------------
    def fleet_status(self) -> dict:
        with self._fleet_lock:
            workers = [{
                "id": s.slot_id,
                "pid": s.proc.pid if s.proc is not None else None,
                "generation": s.generation,
                "state": s.state,
                "dispatched": s.dispatched,
                "completed": s.completed,
            } for s in self._slots]
        return {"workers": workers, "respawns": self.respawns,
                "redispatches": self.redispatches,
                "heartbeat_misses": self.heartbeat_misses,
                "evictions": self.evictions,
                "store": (self.study.store.status()
                          if self.study.store else None)}

    def _emit(self, event: dict) -> None:
        callback = self.on_event
        if callback is not None:
            try:
                callback(event)
            except Exception:  # pragma: no cover - observer bug
                pass

    # ------------------------------------------------------------------
    # Serving without execution
    # ------------------------------------------------------------------
    def _serve_from_memo(self, key: CellKey) -> SpeedupCell | None:
        """A cell both of whose variants are memoized (an earlier merge)
        is served straight from the ledger."""
        with self._study_lock:
            results = self.study._results
            base = results.get((key.algorithm, key.input_name,
                                key.device, Variant.BASELINE))
            free = results.get((key.algorithm, key.input_name,
                                key.device, Variant.RACE_FREE))
        if base is None or free is None:
            return None
        return SpeedupCell(key.algorithm, key.input_name, key.device,
                           baseline_ms=base.median_ms,
                           racefree_ms=free.median_ms)

    # ------------------------------------------------------------------
    # Ordered merge (the byte-identity discipline)
    # ------------------------------------------------------------------
    def _stage(self, task_id: int, records: list[dict]) -> None:
        """Seat a task's records; fold in every seat that is next in
        submission order, and resolve its future only then."""
        with self._fleet_lock:
            self._staged[task_id] = records
            while (self._flushed in self._staged
                   and self._flushed < self._task_seq):
                task = self._tasks[self._flushed]
                recs = self._staged.pop(self._flushed)
                self._flushed += 1
                with self._study_lock:
                    try:
                        for record in recs:
                            self.study._merge_parallel_record(record)
                    except Exception as exc:
                        # where the serial path raises (say a worker's
                        # graph fingerprint contradicts the one a stored
                        # record carried, published by a build whose
                        # graph generator differed) the cell fails; the
                        # supervisor thread this may run in keeps merging
                        recs = [outcome_record(CellFailure(
                            task.key.algorithm, task.key.input_name,
                            task.key.device, Variant.BASELINE.value,
                            "error", str(exc), 1, 0.0))]
                self._resolve(task, recs)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _resolve(self, task: _FleetTask, records: list[dict]) -> None:
        if task.resolved:
            return
        task.resolved = True
        cell = self._cell_from_records(task.key, records)
        if not task.future.done():
            task.future.set_result(cell)

    def _resolve_failure(self, task: _FleetTask, reason: str,
                         message: str) -> None:
        if task.resolved:
            return
        task.resolved = True
        self.fleet_failures += 1
        cell = CellFailure(
            algorithm=task.key.algorithm, input_name=task.key.input_name,
            device_key=task.key.device, variant=Variant.BASELINE.value,
            reason=reason, message=message, attempts=task.dispatches,
            elapsed_s=0.0)
        # the seat in the merge order must still be filled, or every
        # later cell's merge would wait forever
        self._stage(task.task_id, [])
        if not task.future.done():
            task.future.set_result(cell)

    @staticmethod
    def _cell_from_records(key: CellKey, records: list[dict]):
        """The cell a worker's records describe — medians exactly as
        the ledger's :class:`RunResult` would compute them."""
        runtimes: dict[str, list[float]] = {}
        for record in records:
            if record.get("kind") == "failure":
                return CellFailure.from_record(record)
            if record.get("kind") in ("result", "stored"):
                runtimes[record["variant"]] = [
                    float(x) for x in record["runtimes_ms"]]
        base = runtimes.get(Variant.BASELINE.value)
        free = runtimes.get(Variant.RACE_FREE.value)
        if not base or not free:
            return CellFailure(
                algorithm=key.algorithm, input_name=key.input_name,
                device_key=key.device, variant=Variant.BASELINE.value,
                reason="fleet", message="worker returned an incomplete "
                "record set", attempts=1, elapsed_s=0.0)
        return SpeedupCell(key.algorithm, key.input_name, key.device,
                           baseline_ms=median(base),
                           racefree_ms=median(free))

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _worker_config(self):
        with self._study_lock:
            return self.study._worker_config()

    def _spawn(self, slot: _Slot) -> None:
        """(Re)start one slot's worker process, one generation up."""
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        slot.generation += 1
        proc = self._ctx.Process(
            target=_fleet_worker_main,
            args=(child_conn, self._worker_config(), slot.slot_id,
                  slot.generation, self.heartbeat_s),
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
            _count_fleet("repro_fleet_respawns_total",
                         "Fleet worker slots respawned after a death")
        self._emit({"event": "worker_spawn", "worker": slot.slot_id,
                    "generation": slot.generation, "pid": proc.pid})

    def _slot_key(self, slot: _Slot) -> str:
        return f"worker-{slot.slot_id}"

    def _worker_died(self, slot: _Slot, why: str) -> None:
        """Tear a slot down, redispatch its cell, respawn or evict."""
        if not slot.live:
            return
        task_id = slot.task_id
        slot.state = "dead"
        slot.task_id = None
        if slot.proc is not None:
            if slot.proc.is_alive():
                slot.proc.kill()
            slot.proc.join(timeout=2.0)
        if slot.conn is not None:
            try:
                slot.conn.close()
            except OSError:  # pragma: no cover
                pass
            slot.conn = None
        self.flap_breaker.record_failure(self._slot_key(slot))
        self._emit({"event": "worker_exit", "worker": slot.slot_id,
                    "generation": slot.generation, "why": why})
        if task_id is not None:
            task = self._tasks.get(task_id)
            if task is not None and not task.resolved:
                if task.dispatches >= 2:
                    # redispatched once already: fail instead of
                    # bouncing the cell around a dying fleet
                    self._resolve_failure(
                        task, "fleet",
                        f"cell lost twice to worker deaths ({why})")
                else:
                    self.redispatches += 1
                    _count_fleet("repro_fleet_redispatches_total",
                                 "In-flight cells redispatched after "
                                 "their worker died")
                    self._queue.appendleft(task_id)
                    self._emit({"event": "failover",
                                "worker": slot.slot_id,
                                "generation": slot.generation,
                                "cell": task.key.as_dict(), "why": why})
        if self.flap_breaker.allow(self._slot_key(slot)):
            self._spawn(slot)
        else:
            slot.state = "evicted"
            self.evictions += 1
            _count_fleet("repro_fleet_evictions_total",
                         "Fleet worker slots evicted by their flap "
                         "circuit-breaker")
            self._emit({"event": "worker_evicted",
                        "worker": slot.slot_id,
                        "generation": slot.generation})

    # ------------------------------------------------------------------
    # Supervisor loop
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        tick = max(0.01, min(0.05, self.heartbeat_s / 2))
        while not self._stop.is_set():
            with self._fleet_lock:
                conns = {s.conn: s for s in self._slots
                         if s.live and s.conn is not None}
            if conns:
                try:
                    ready = mp_connection.wait(list(conns), timeout=tick)
                except OSError:  # a pipe died mid-wait
                    ready = []
                for conn in ready:
                    with self._fleet_lock:
                        slot = conns.get(conn)
                        if slot is None or slot.conn is not conn:
                            continue
                        self._receive(slot)
            else:
                self._stop.wait(tick)
            with self._fleet_lock:
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
        if msg[0] == "done":
            self._task_done(slot, msg[1], msg[2])

    def _task_done(self, slot: _Slot, task_id: int,
                   records: list[dict]) -> None:
        slot.state = "idle"
        slot.task_id = None
        slot.completed += 1
        self.flap_breaker.record_success(self._slot_key(slot))
        if task_id in self._tasks:
            # the moment a study's last future resolves, a client may
            # read /v1/results: _stage resolves a cell only once its
            # records are folded into the ledger (and published)
            self._stage(task_id, records)

    def _check_health(self) -> None:
        now = time.monotonic()
        for slot in self._slots:
            if not slot.live:
                continue
            if slot.proc is not None and not slot.proc.is_alive():
                self._worker_died(slot, "process exited")
                continue
            silent = now - slot.last_beat
            if (silent > self.MISS_AFTER * self.heartbeat_s
                    and not slot.beat_flagged):
                slot.beat_flagged = True
                self.heartbeat_misses += 1
                _count_fleet("repro_fleet_heartbeat_misses_total",
                             "Heartbeat windows a fleet worker missed")
            if silent > self.DEAD_AFTER * self.heartbeat_s:
                self._worker_died(slot, "heartbeat lost")
                continue
            if (slot.state == "busy" and self.task_deadline_s is not None
                    and now - slot.task_started > self.task_deadline_s):
                # a stalled worker still heartbeats — the per-task
                # deadline is what catches it (kill + redispatch)
                self._worker_died(slot, "task deadline expired")

    def _assign(self) -> None:
        while self._queue:
            live = [s for s in self._slots if s.live]
            if not live:
                # the whole fleet is gone: fail what is queued rather
                # than letting clients hang
                while self._queue:
                    task = self._tasks.get(self._queue.popleft())
                    if task is not None and not task.resolved:
                        self._resolve_failure(
                            task, "fleet",
                            "no live fleet workers remain")
                return
            idle = [s for s in live if s.state == "idle"]
            if not idle:
                return
            task_id = self._queue[0]
            task = self._tasks.get(task_id)
            if task is None or task.resolved:
                self._queue.popleft()
                continue
            if task.dispatches == 0 and task.future.cancelled():
                # abandoned before any dispatch: skip entirely, but
                # fill its seat in the merge order
                self._queue.popleft()
                task.resolved = True
                self._stage(task_id, [])
                continue
            if task.dispatches:
                # a redispatched cell goes to the freshest survivor —
                # under generation-bounded kill plans that is the one
                # that will not be killed again
                slot = max(idle,
                           key=lambda s: (s.generation, -s.slot_id))
            else:
                slot = min(idle, key=lambda s: s.slot_id)
            self._queue.popleft()
            if task.dispatches == 0:
                task.future.set_running_or_notify_cancel()
            task.dispatches += 1
            slot.state = "busy"
            slot.task_id = task_id
            slot.task_started = time.monotonic()
            slot.dispatched += 1
            try:
                slot.conn.send(("task", task_id,
                                (task.key.algorithm, task.key.input_name,
                                 task.key.device), task.budget_s))
            except (OSError, ValueError, BrokenPipeError):
                self._worker_died(slot, "dispatch failed")
