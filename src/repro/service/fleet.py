"""The service's executor: N supervised sweep processes behind one
listener.

:class:`FleetExecutor` runs every cell of ``repro serve`` (``--workers
N``, default 1) on a :class:`repro.core.fleet.Fleet` — the supervised
worker processes an offline ``--jobs`` sweep runs on too (heartbeats,
the per-task deadline, redispatch at most once, eviction of a slot
that keeps dying).  On top of it the executor adds what a service
needs:

* a **ledger study** that every cell's records are folded into
  **strictly in submission order** — the
  :func:`repro.core.parallel.execute_tasks` discipline — so
  ``/v1/results`` and the published store records stay byte-identical
  to an offline serial sweep of the same cells; a cell's future
  resolves only once its records are folded in, so a resolved cell is
  in ``/v1/results`` and, with a checkpoint, already published;
* serving without execution: a cell in the ledger's memo resolves at
  once, and with a ``checkpoint`` directory the ledger study's
  :class:`~repro.core.store.ResultStore` serves published cells
  without dispatching (store-served cells do not count as executed and
  carry no telemetry records, so nothing is priced twice) and receives
  every fully-``ok`` cell as it is folded in;
* a cell the fleet loses resolves as ``CellFailure(reason="fleet")``
  (``"shutdown"`` once the executor is shutting down); a cell that
  raised in its worker fails its future, which
  :class:`~repro.service.scheduler.CellScheduler` answers with an
  ``internal`` record;
* :attr:`FleetExecutor.degraded` (a worker's trace cache has
  sticky-degraded) and :attr:`FleetExecutor.fleet_degraded` (the
  respawn budget is spent), the health the scheduler's stale-serving
  rung reads;
* :meth:`FleetExecutor.fleet_status` (``/readyz``'s ``fleet`` block)
  and :attr:`FleetExecutor.on_event`, which receives the fleet's
  lifecycle events for the study event streams.
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass, replace
from statistics import median

from repro.core.fleet import Fleet
from repro.core.parallel import CellTask
from repro.core.resilience import CellFailure
from repro.core.study import SpeedupCell, Study, outcome_record
from repro.core.variants import Variant
from repro.errors import ServiceError, WorkerLostError
from repro.service.protocol import CellKey


class _CellFuture(Future):
    """A submitted cell's future.  Cancelling it withdraws the cell from
    the fleet, and succeeds only while no worker has taken it."""

    dispatched: Future | None = None

    def cancel(self) -> bool:
        if self.dispatched is not None and not self.dispatched.cancel():
            return False
        return super().cancel()


@dataclass
class _FleetTask:
    """One submitted cell: its seat in the merge order and its fate."""

    task_id: int                 #: doubles as the submission index
    key: CellKey
    future: Future
    resolved: bool = False


class FleetExecutor:
    """N supervised worker processes behind the scheduler's surface
    (``submit`` / ``queued`` / ``degraded`` / ``fleet_degraded``).

    ``reps`` through ``faults`` are the ledger study's
    :class:`~repro.core.study.Study` policy, which every worker
    rebuilds; ``trace_cache`` backs the parent ledger and its
    ``disk_dir`` is the shared layer workers record traces into,
    ``checkpoint`` is the ledger study's result-store directory,
    ``flap_threshold`` deaths in a row evict a worker slot, and
    ``task_deadline_s`` is the per-task deadline.
    """

    def __init__(self, *, workers: int = 2, reps: int = 3,
                 scale: float = 1.0, validate: bool = False,
                 retries: int = 0, backoff_s: float = 0.0,
                 faults=None, trace_cache=None, checkpoint=None,
                 heartbeat_s: float = 0.5,
                 flap_threshold: int = 3,
                 task_deadline_s: float | None = None) -> None:
        if workers < 1:
            raise ServiceError(f"fleet needs >= 1 worker, got {workers}")
        self.study = Study(
            reps=reps, scale=scale, validate=validate, retries=retries,
            backoff_s=backoff_s, faults=faults, checkpoint=checkpoint,
            trace_cache=trace_cache)
        self._study_lock = threading.RLock()
        self._count_lock = threading.Lock()
        self._merge_lock = threading.RLock()
        self._queued = 0
        self._closed = False
        self._task_seq = 0
        self._staged: dict[int, tuple[_FleetTask, list[dict]]] = {}
        self._flushed = 0
        self.fleet = Fleet(
            replace(self.study._worker_config(),
                    task_deadline_s=task_deadline_s),
            workers, heartbeat_s=heartbeat_s,
            flap_threshold=flap_threshold)

    # ------------------------------------------------------------------
    # The scheduler's surface
    # ------------------------------------------------------------------
    @property
    def queued(self) -> int:
        """Cells submitted and not yet resolved."""
        with self._count_lock:
            return self._queued

    @property
    def degraded(self) -> bool:
        """True once a worker's trace cache has sticky-degraded to
        memory-only operation (repeated disk errors): the host is
        unhealthy."""
        return self.fleet.cache_degraded

    @property
    def fleet_degraded(self) -> bool:
        """True when the respawn budget has been spent somewhere: a
        slot was evicted or every worker is gone."""
        return self.fleet.degraded

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
        future = _CellFuture()
        future.add_done_callback(self._one_done)

        cell = self._serve_from_memo(key)
        if cell is not None:
            future.set_result(cell)
            return future

        with self._merge_lock:
            task = _FleetTask(task_id=self._task_seq, key=key,
                              future=future)
            self._task_seq += 1
            try:
                with self._study_lock:
                    records = self.study._stored_records(
                        key.algorithm, key.input_name, key.device)
            except Exception as exc:
                # the task already holds a seat in the merge order;
                # failing the cell fills it, or every later cell waits
                self._resolve_failure(task, "error", str(exc), 0)
                return future
            if records is not None:
                self._stage(task, records)
                return future
        # outside the merge lock: the fleet resolves a cell under its
        # own lock, and the resolution takes the merge lock
        dispatched = self.fleet.dispatch(
            CellTask(key.algorithm, key.input_name, key.device,
                     tuple(v.value for v in Variant)), budget_s)
        future.dispatched = dispatched
        dispatched.add_done_callback(
            lambda done: self._dispatch_done(task, done))
        return future

    def _one_done(self, _future) -> None:
        with self._count_lock:
            self._queued -= 1

    def results_payload(self) -> dict:
        with self._study_lock:
            return {"reps": self.study.reps, "scale": self.study.scale,
                    "results": self.study._result_records()}

    def shutdown(self) -> None:
        """Stop the fleet (see :meth:`repro.core.fleet.Fleet.shutdown`);
        unresolved cells fail with ``reason="shutdown"``."""
        with self._count_lock:
            self._closed = True
        self.fleet.shutdown()

    # ------------------------------------------------------------------
    # Fleet status
    # ------------------------------------------------------------------
    def fleet_status(self) -> dict:
        return {**self.fleet.status(),
                "store": (self.study.store.status()
                          if self.study.store else None)}

    @property
    def on_event(self):
        """Optional thread-safe callback receiving fleet event dicts."""
        return self.fleet.on_event

    @on_event.setter
    def on_event(self, callback) -> None:
        self.fleet.on_event = callback

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
    def _stage(self, task: _FleetTask, records: list[dict]) -> None:
        """Seat a task's records; fold in every seat that is next in
        submission order, and resolve its future only then."""
        with self._merge_lock:
            self._staged[task.task_id] = (task, records)
            while self._flushed in self._staged:
                task, recs = self._staged.pop(self._flushed)
                self._flushed += 1
                with self._study_lock:
                    if recs:
                        self._rearm(task.key)
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

    def _rearm(self, key: CellKey) -> None:
        """Forget the ledger's memoized failures of ``key``'s variants
        before an attempt's records are folded in: the ledger drops
        records of a failed key, so a cell that failed once and then
        succeeded would never reach ``/v1/results`` or the store.  It
        happens at the merge, in submission order, so the failure of an
        earlier attempt still in flight at submission cannot hide a
        later attempt's success either."""
        for variant in Variant:
            self.study._failures.pop(
                (key.algorithm, key.input_name, key.device, variant), None)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def _dispatch_done(self, task: _FleetTask, done: Future) -> None:
        """Seat a dispatched cell's outcome."""
        if done.cancelled():
            # abandoned before any dispatch: fill its seat only
            task.resolved = True
            self._stage(task, [])
            return
        error = done.exception()
        if error is None:
            # the moment a study's last future resolves, a client may
            # read /v1/results: _stage resolves a cell only once its
            # records are folded into the ledger (and published)
            self._stage(task, done.result())
        elif isinstance(error, WorkerLostError):
            self._resolve_failure(
                task, "shutdown" if self._closed else "fleet", str(error),
                error.attempts)
        else:
            # the cell raised in its worker: a harness bug, which fails
            # the future (the scheduler answers it ``internal``)
            task.resolved = True
            self._stage(task, [])
            if not task.future.done():
                task.future.set_exception(error)

    def _resolve(self, task: _FleetTask, records: list[dict]) -> None:
        if task.resolved:
            return
        task.resolved = True
        cell = self._cell_from_records(task.key, records)
        if not task.future.done():
            task.future.set_result(cell)

    def _resolve_failure(self, task: _FleetTask, reason: str,
                         message: str, attempts: int) -> None:
        task.resolved = True
        cell = CellFailure(
            algorithm=task.key.algorithm, input_name=task.key.input_name,
            device_key=task.key.device, variant=Variant.BASELINE.value,
            reason=reason, message=message, attempts=attempts,
            elapsed_s=0.0)
        # the seat in the merge order must still be filled, or every
        # later cell's merge would wait forever
        self._stage(task, [])
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
