"""Cell scheduling: coalescing, deadline propagation, hot/stale
serving, and the bridge from asyncio to the service's executor.

:class:`CellScheduler` is the asyncio side of ``repro serve``; every
execution it starts runs on the
:class:`~repro.service.fleet.FleetExecutor` beneath it (supervised
worker processes with crash failover).  Identical in-flight cells from
different clients **coalesce** onto one execution (one record, many
subscribers); client deadlines propagate into the cell's
:class:`~repro.core.resilience.CellBudget` wall-clock watchdog; a cell
whose every subscriber has abandoned it (deadline expired, connection
gone) is cancelled while still queued instead of computed; per-cell
:class:`~repro.service.breaker.CircuitBreaker` state short-circuits
known-bad cells to their cached degraded record; and when the executor
is saturated, a worker's trace cache has sticky-degraded, or the fleet
is limping (``fleet_degraded``: an evicted worker slot, or no live
workers at all), cached records are served with an explicit ``stale:
true`` marker instead of queueing more work.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field
from typing import Callable

from repro.core.study import SpeedupCell
from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.fleet import FleetExecutor
from repro.service.protocol import CellKey
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


def _count_cell(outcome: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_service_cells_total",
                    "Cells served by the service, by how", ("outcome",),
                    scope=SCOPE_PROCESS).inc(1, outcome)


# ----------------------------------------------------------------------
@dataclass
class _Subscriber:
    """One client's stake in one in-flight cell."""

    future: asyncio.Future
    deadline: float | None  # absolute monotonic, None = patient


@dataclass
class _InFlight:
    """One coalesced cell execution and everyone waiting on it."""

    key: CellKey
    subscribers: list[_Subscriber] = field(default_factory=list)
    exec_future: object | None = None  # concurrent.futures.Future
    task: asyncio.Task | None = None


class CellScheduler:
    """Coalescing scheduler over a :class:`FleetExecutor`.

    Parameters
    ----------
    executor:
        The study-owning executor.
    breaker:
        Per-cell circuit breakers (a default 3-failure breaker when
        omitted).
    saturation_threshold:
        Queued executions at which :meth:`degraded_mode` turns on and
        cached records are served stale instead of queueing more work.
    clock:
        Monotonic time source (injectable for tests).
    """

    def __init__(self, executor: FleetExecutor,
                 breaker: CircuitBreaker | None = None, *,
                 saturation_threshold: int = 8,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.executor = executor
        self.breaker = breaker if breaker is not None else CircuitBreaker()
        self.saturation_threshold = saturation_threshold
        self._clock = clock
        self._inflight: dict[CellKey, _InFlight] = {}
        self._cache: dict[CellKey, dict] = {}
        #: observability counters (also exported as telemetry)
        self.coalesced = 0
        self.stale_served = 0
        self.short_circuits = 0
        self.cancelled = 0

    # ------------------------------------------------------------------
    def degraded_mode(self) -> bool:
        """Whether the ladder's serve-stale rung is active."""
        return (self.executor.queued >= self.saturation_threshold
                or self.executor.degraded
                or self.executor.fleet_degraded)

    def inflight_cells(self) -> int:
        return len(self._inflight)

    def cached_record(self, key: CellKey) -> dict | None:
        record = self._cache.get(key)
        return dict(record) if record is not None else None

    # ------------------------------------------------------------------
    async def request_cell(self, key: CellKey,
                           deadline_s: float | None = None) -> dict:
        """One subscriber's record for one cell (the whole ladder).

        Never raises for cell-level problems — every outcome is a
        record dict with a ``status`` — so one bad cell cannot tear
        down a multi-cell response stream.
        """
        now = self._clock()
        deadline = now + deadline_s if deadline_s is not None else None

        if not self.breaker.allow(key):
            # open breaker: the degraded instant answer, pool untouched
            self.short_circuits += 1
            _count_cell("short_circuit")
            cached = self._cache.get(key)
            if cached is not None:
                record = dict(cached)
            else:
                record = {"cell": key.as_dict(), "status": "fail",
                          "reason": "breaker_open",
                          "message": ("circuit breaker is open and no "
                                      "cached record exists")}
            record.update(degraded=True, breaker="open")
            return record
        trial = self.breaker.state(key) is BreakerState.HALF_OPEN

        cached = self._cache.get(key)
        if cached is not None and not trial:
            if cached.get("status") == "ok":
                # the sweep is deterministic: a completed cell is hot
                # forever (backed by the study memo + trace cache)
                _count_cell("cache_hit")
                record = dict(cached)
                record["cached"] = True
                return record
            if self.degraded_mode():
                # saturated or degraded: a stale (failed) record beats
                # queueing yet more doomed work
                self.stale_served += 1
                _count_cell("stale")
                record = dict(cached)
                record.update(stale=True, degraded=True)
                return record

        job = self._inflight.get(key)
        if job is not None:
            self.coalesced += 1
            _count_cell("coalesced")
            subscriber = _Subscriber(
                asyncio.get_running_loop().create_future(), deadline)
            job.subscribers.append(subscriber)
            return await self._await_subscriber(job, subscriber,
                                                coalesced=True)

        job = _InFlight(key=key)
        subscriber = _Subscriber(
            asyncio.get_running_loop().create_future(), deadline)
        job.subscribers.append(subscriber)
        self._inflight[key] = job
        job.task = asyncio.create_task(self._run_job(job))
        return await self._await_subscriber(job, subscriber,
                                            coalesced=False)

    # ------------------------------------------------------------------
    async def _await_subscriber(self, job: _InFlight,
                                subscriber: _Subscriber,
                                coalesced: bool) -> dict:
        """Wait for the job from one subscriber's seat, honoring the
        subscriber's own deadline and abandoning the seat on timeout or
        disconnect (task cancellation)."""
        key = job.key
        try:
            if subscriber.deadline is None:
                record = await subscriber.future
            else:
                timeout = max(0.0, subscriber.deadline - self._clock())
                record = await asyncio.wait_for(
                    asyncio.shield(subscriber.future), timeout)
        except asyncio.TimeoutError:
            self._drop_subscriber(job, subscriber)
            _count_cell("deadline")
            return {"cell": key.as_dict(), "status": "fail",
                    "reason": "deadline",
                    "message": "subscriber deadline expired before the "
                               "cell completed"}
        except asyncio.CancelledError:
            # the client went away (stream broken / request cancelled)
            self._drop_subscriber(job, subscriber)
            raise
        record = dict(record)
        if coalesced:
            record["coalesced"] = True
        return record

    def _drop_subscriber(self, job: _InFlight,
                         subscriber: _Subscriber) -> None:
        if subscriber in job.subscribers:
            job.subscribers.remove(subscriber)
        if not subscriber.future.done():
            subscriber.future.cancel()
        if not job.subscribers and job.exec_future is not None:
            # nobody is waiting any more: cancel the execution if no
            # worker has picked it up yet (abandoned work is cancelled,
            # not computed)
            job.exec_future.cancel()

    def _job_budget(self, job: _InFlight) -> float | None:
        """The cell's wall-clock budget: the most patient subscriber's
        remaining time (None if any subscriber has no deadline)."""
        deadlines = [s.deadline for s in job.subscribers]
        if not deadlines or any(d is None for d in deadlines):
            return None
        return max(0.0, max(deadlines) - self._clock())

    async def _run_job(self, job: _InFlight) -> None:
        key = job.key
        try:
            if not job.subscribers:
                self._finish_cancelled(job)
                return
            budget_s = self._job_budget(job)
            job.exec_future = self.executor.submit(key, budget_s)
            try:
                cell = await asyncio.wrap_future(job.exec_future)
            except asyncio.CancelledError:
                # the queued execution was abandoned before starting
                self._finish_cancelled(job)
                return
            record = self._record_from(key, cell)
            if record["status"] == "ok":
                self.breaker.record_success(key)
            else:
                self.breaker.record_failure(key)
            self._cache[key] = record
            _count_cell("computed")
            for subscriber in job.subscribers:
                if not subscriber.future.done():
                    subscriber.future.set_result(record)
        except Exception as exc:  # harness failure, not a cell failure
            self.breaker.abort_trial(key)
            record = {"cell": key.as_dict(), "status": "fail",
                      "reason": "internal",
                      "message": f"scheduler error: {exc!r}"}
            for subscriber in job.subscribers:
                if not subscriber.future.done():
                    subscriber.future.set_result(record)
        finally:
            self._inflight.pop(key, None)

    def _finish_cancelled(self, job: _InFlight) -> None:
        self.cancelled += 1
        _count_cell("cancelled")
        self.breaker.abort_trial(job.key)

    @staticmethod
    def _record_from(key: CellKey, cell) -> dict:
        if isinstance(cell, SpeedupCell):
            return {"cell": key.as_dict(), "status": "ok",
                    "baseline_ms": cell.baseline_ms,
                    "racefree_ms": cell.racefree_ms,
                    "speedup": cell.speedup}
        return {"cell": key.as_dict(), "status": "fail",
                "reason": cell.reason, "message": cell.message,
                "attempts": cell.attempts}

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Wait for every in-flight job to resolve (drain path)."""
        tasks = [job.task for job in list(self._inflight.values())
                 if job.task is not None]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
