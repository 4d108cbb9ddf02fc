"""Parallel sweep execution: fan cells out over a process pool.

The paper's evaluation is a (algorithm x input x device x variant x
reps) grid of *independent* cells — every simulated runtime depends
only on its own (algorithm, graph, variant, seed, staleness class) and
the device constants, never on other cells.  That makes the sweep
embarrassingly parallel, and this module is the executor:
:meth:`repro.core.study.Study.speedup_table` and
:meth:`repro.core.resilience.ResilientStudy.sweep` build one
:class:`CellTask` per missing (algorithm, input) pair and hand them to
:func:`execute_tasks`, which runs them on a ``ProcessPoolExecutor`` and
feeds picklable result records back to the study **in submission
order** — so the memo (and therefore ``save_results`` output, speedup
tables, and published store records) is byte-identical to the serial
path.

Each worker process owns a private study configured from the parent's
:class:`WorkerConfig` (same reps/scale/validate/retry policy, same
fault plan seed) plus a :class:`~repro.perf.trace.TraceCache` pointed
at the parent's on-disk trace directory when one is configured.  A
parent that runs uncached has uncached workers, so both paths record
the same executions.

Only cells that must record reach a worker.  Each task reports the
fingerprints of the graphs it built for its suite input (the weighted
copy's too), and a later table's parent prices a cell itself when
every repetition of every pending variant hits the trace cache under
those fingerprints; it prices the cell when the merge reaches the
cell's place in the submission order, where a result-store hit merges
too.  So after the first device, a
table whose devices share the first one's staleness class forks no
pool.  Without an on-disk trace directory a worker's recordings end
with its pool, so every table's pool records again.

Knobs: ``Study(jobs=N)`` / ``speedup_table(..., jobs=N)`` /
``repro sweep --jobs N``, all defaulting to the ``REPRO_JOBS``
environment variable (unset = 1 = serial, no pool is ever created).
"""

from __future__ import annotations

import concurrent.futures
import os
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable

from repro.core.variants import Variant
from repro.errors import StudyError, WorkerTaskError

JOBS_ENV = "REPRO_JOBS"

RESPAWN_ENV = "REPRO_POOL_RESPAWNS"
"""How many times :func:`execute_tasks` may rebuild a broken pool
before giving up (default 3).  Each SIGKILLed or stalled-past-deadline
worker generation consumes one unit."""

DEADLINE_ENV = "REPRO_TASK_DEADLINE_S"
"""Optional per-task wall-clock deadline (seconds) for pool workers; a
task that does not return in time has its worker generation torn down
and is resubmitted.  Unset means wait forever (stalls hang, as before).
"""


def _resolve_respawns(respawn_budget: int | None) -> int:
    if respawn_budget is None:
        raw = os.environ.get(RESPAWN_ENV, "").strip()
        if not raw:
            return 3
        try:
            respawn_budget = int(raw)
        except ValueError:
            raise StudyError(
                f"{RESPAWN_ENV} must be an integer, got {raw!r}"
            ) from None
    respawn_budget = int(respawn_budget)
    if respawn_budget < 0:
        raise StudyError(
            f"respawn budget must be >= 0, got {respawn_budget}")
    return respawn_budget


def _resolve_deadline(task_deadline_s: float | None) -> float | None:
    if task_deadline_s is None:
        raw = os.environ.get(DEADLINE_ENV, "").strip()
        if not raw:
            return None
        try:
            task_deadline_s = float(raw)
        except ValueError:
            raise StudyError(
                f"{DEADLINE_ENV} must be a number, got {raw!r}"
            ) from None
    task_deadline_s = float(task_deadline_s)
    if task_deadline_s <= 0:
        raise StudyError(
            f"task deadline must be > 0, got {task_deadline_s}")
    return task_deadline_s


def resolve_jobs(jobs: int | None = None) -> int:
    """Effective worker count: explicit argument, else ``REPRO_JOBS``,
    else 1 (serial)."""
    if jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            jobs = int(raw)
        except ValueError:
            raise StudyError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    jobs = int(jobs)
    if jobs < 1:
        raise StudyError(f"jobs must be >= 1, got {jobs}")
    return jobs


@dataclass(frozen=True)
class WorkerConfig:
    """Everything a pool worker needs to rebuild the parent's policy.

    All fields are picklable; ``faults`` and ``budget`` carry the
    resilient study's fault plan and cell budget so injected fault
    streams (derived from the plan seed plus the cell key) are
    identical to the serial path's.
    """

    resilient: bool
    reps: int
    scale: float
    validate: bool
    retries: int = 0
    backoff_s: float = 0.0
    budget: object | None = None
    faults: object | None = None
    trace_dir: str | None = None
    #: false when the parent study runs uncached (``trace_cache=False``):
    #: workers then re-record every repetition, as the serial path does
    trace_cache: bool = True
    #: when true, workers run with telemetry enabled and ship their
    #: metric/span snapshots back as per-task ``telemetry`` records
    telemetry: bool = False
    #: optional :class:`~repro.core.hostfaults.HostFaultPlan`; workers
    #: re-install it so injected storage faults and worker
    #: kills/stalls follow the parent's deterministic plan
    hostfaults: object | None = None


@dataclass(frozen=True)
class CellTask:
    """One (algorithm, input, device) pair and the variants still to
    run.  ``graph_or_name`` is a suite name or a pickled
    :class:`~repro.graphs.csr.CSRGraph`."""

    algorithm: str
    graph_or_name: object
    device: str
    variants: tuple[str, ...]


#: the per-process study, built once by the pool initializer
_WORKER_STUDY = None


def _init_worker(config: WorkerConfig) -> None:
    global _WORKER_STUDY
    import contextlib
    import signal

    from repro import telemetry
    from repro.core.resilience import ResilientStudy
    from repro.core.study import Study
    from repro.perf.trace import TraceCache

    # a forked worker inherits the parent's graceful-interrupt handler;
    # in a worker that handler would turn pool teardown SIGTERMs into
    # spurious SweepInterrupted tracebacks — interruption policy
    # belongs to the parent, so restore the defaults here
    with contextlib.suppress(OSError, ValueError):
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    with contextlib.suppress(OSError, ValueError):
        signal.signal(signal.SIGTERM, signal.SIG_DFL)

    # a forked worker inherits the parent's registry object — reset to
    # a fresh one (or to disabled) so shipped snapshots are pure deltas
    # and nothing the parent already counted is counted again
    if config.telemetry:
        telemetry.enable()
    else:
        telemetry.disable()
    # (re-)install the host-fault plan: under a spawn context the
    # worker starts clean, under fork it inherits the parent's hook —
    # either way the config is the single source of truth
    from repro.core import hostfaults

    if config.hostfaults is not None:
        hostfaults.install(config.hostfaults)
    else:
        hostfaults.uninstall()
    # workers never validate against the parent's retained outputs, so
    # they keep memory lean; the disk layer (when configured) is the
    # channel that shares recordings between workers and sweeps
    cache = (TraceCache(disk_dir=config.trace_dir,
                        retain_outputs=config.validate)
             if config.trace_cache else False)
    if config.resilient:
        _WORKER_STUDY = ResilientStudy(
            reps=config.reps, scale=config.scale, validate=config.validate,
            retries=config.retries, backoff_s=config.backoff_s,
            budget=config.budget, faults=config.faults,
            trace_cache=cache)
    else:
        _WORKER_STUDY = Study(reps=config.reps, scale=config.scale,
                              validate=config.validate, trace_cache=cache)


def _task_key(task: CellTask) -> tuple[str, str, str]:
    """The (algorithm, input name, device) identity of a task —
    stable across generations, used for fault draws and error
    wrapping."""
    name = getattr(task.graph_or_name, "name", task.graph_or_name)
    return task.algorithm, str(name), task.device


def _run_task(task: CellTask, generation: int = 0) -> list[dict]:
    """Execute one task in a pool worker (see :func:`_task_records`).

    ``generation`` is the pool generation submitting the task; an
    installed host-fault plan may kill or stall this worker here
    (deterministically, keyed on the task identity and generation)
    before any cell work happens — which is exactly the window where
    :func:`execute_tasks` must detect the loss and resubmit.
    """
    from repro.core import hostfaults

    hostfaults.maybe_disrupt(hostfaults.active_plan(), _task_key(task),
                             generation)
    if _WORKER_STUDY is None:  # pragma: no cover - initializer always ran
        raise StudyError("worker pool used before initialization")
    return _task_records(_WORKER_STUDY, task)


def _task_records(study, task: CellTask) -> list[dict]:
    """Run ``task`` on a worker's ``study``; returns one record per
    variant, every variant run even after a failed one, as the serial
    path does.  They are led by a ``graph`` record with the
    fingerprints of the graphs the worker built for a suite input (sent
    for failed cells too: the parent checks name clashes with it before
    merging the rest, keys its own trace lookups on it, and publishes
    it with the cell) and followed by the telemetry record, if any.
    Pool and fleet workers both run their cells here.
    """
    from repro.core.resilience import ResilientStudy
    from repro.core.study import outcome_record

    run = (study.run_cell if isinstance(study, ResilientStudy)
           else study.run)
    records = [outcome_record(run(task.algorithm, task.graph_or_name,
                                  task.device, Variant(value)))
               for value in task.variants]
    graph = study._graph_record(task.graph_or_name)
    if graph is not None:
        records.insert(0, graph)
    _append_telemetry_record(records)
    return records


def _append_telemetry_record(records: list[dict]) -> None:
    """Ship this task's metric/span deltas (and reset them).

    Snapshot-then-clear makes each record a pure per-task delta, so the
    parent merging records in submission order performs exactly the
    write sequence the serial path would have.
    """
    from repro.telemetry.metrics import get_registry
    from repro.telemetry.spans import get_spans

    registry = get_registry()
    if not registry.enabled:
        return
    spans = get_spans()
    records.append({
        "kind": "telemetry",
        "snapshot": registry.snapshot(),
        "spans": spans.snapshot(),
        "worker": str(os.getpid()),
    })
    registry.clear()
    spans.clear()


def _kill_workers(pool: ProcessPoolExecutor) -> None:
    """Forcibly end a pool's worker processes (stalled-worker path).

    ``shutdown`` cannot interrupt a worker that is asleep mid-task, so
    the deadline path has to reach for the processes themselves.  Uses
    the executor's private process table defensively — if a future
    stdlib renames it, the kill becomes a no-op and shutdown still
    reaps the workers when they eventually wake."""
    processes = getattr(pool, "_processes", None) or {}
    for proc in list(processes.values()):
        with_kill = getattr(proc, "kill", None)
        if with_kill is not None:
            try:
                with_kill()
            except OSError:  # pragma: no cover - already gone
                pass


def _count_respawn() -> None:
    from repro.telemetry.metrics import SCOPE_PROCESS, get_registry

    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_host_pool_respawns_total",
                    "Worker pools rebuilt after a worker died or "
                    "stalled past its deadline",
                    scope=SCOPE_PROCESS).inc(1)


def _preload_task_modules(tasks: list[CellTask]) -> None:
    """Import in the parent what every worker's first task would.

    Forked workers start from the parent's modules, and a parent that
    never runs a task itself would leave each worker of each pool to
    import the task algorithms' modules and ``numpy.random`` (first
    seeded generator) on its own.  A name that does not resolve is
    skipped, so the worker still raises on it and the error names the
    cell.
    """
    import numpy.random  # noqa: F401

    from repro.core.variants import get_algorithm
    from repro.perf.engine import algorithm_plan

    for name in dict.fromkeys(task.algorithm for task in tasks):
        try:
            algorithm_plan(get_algorithm(name))
        except StudyError:
            continue


def execute_tasks(config: WorkerConfig, tasks: list, jobs: int,
                  merge: Callable[[dict], None],
                  respawn_budget: int | None = None,
                  task_deadline_s: float | None = None) -> None:
    """Run ``tasks`` on ``jobs`` workers, merging records serially.

    Every task is submitted up front (workers stay saturated), but
    ``merge`` is invoked strictly in submission order — the order the
    serial sweep would have produced — one record per variant.  A task
    may instead be a list of records that need no execution (a cell
    served from the result store), or a callable returning one (a cell
    priced in the parent), called when the merge reaches its index.

    Worker death is survived, not propagated: when a worker is killed
    (OOM killer, SIGKILL, a segfaulting extension) the
    ``BrokenProcessPool`` takes down the whole pool, so this executor
    harvests every task that *did* finish, rebuilds the pool, and
    resubmits only the unfinished tasks — up to ``respawn_budget``
    rebuilds (default 3, or ``REPRO_POOL_RESPAWNS``).  With
    ``task_deadline_s`` set (or ``REPRO_TASK_DEADLINE_S``), a task
    that does not return in time is treated the same way: its worker
    generation is torn down (stalled workers are killed directly — a
    sleeping process ignores pool shutdown) and the task resubmitted.

    Completed-task records are stashed per task index and flushed only
    in index order, so recovery never reorders the merge: the memo —
    and therefore ``save_results`` output and store records — stays
    byte-identical to the serial path even across pool rebuilds.  A
    task has finished once its records are merged (its index is below
    the flush cursor) or staged behind an earlier unfinished task; only
    the rest are resubmitted, so a generation in which every task
    finishes is the last one and costs no rebuild.

    A task that *raises* in a worker (as opposed to dying) is a harness
    bug, not a host fault: it propagates as
    :class:`~repro.errors.WorkerTaskError` naming the (algorithm,
    input, device) cell, and cancels the rest of the sweep.
    """
    import multiprocessing as mp

    if not tasks:
        return
    staged: dict[int, list[dict] | Callable[[], list[dict]]] = {
        idx: task for idx, task in enumerate(tasks)
        if isinstance(task, list) or callable(task)}
    pending: list[tuple[int, CellTask]] = [
        (idx, task) for idx, task in enumerate(tasks) if idx not in staged]
    budget = _resolve_respawns(respawn_budget)
    deadline = _resolve_deadline(task_deadline_s)
    # fork inherits warm module state (algorithm registry, the task
    # modules preloaded here) where available; fall back to the
    # platform default
    fork = "fork" in mp.get_all_start_methods()
    ctx = mp.get_context("fork" if fork else None)
    if fork and pending:
        _preload_task_modules([task for _, task in pending])

    flushed = [0]

    def flush() -> None:
        while flushed[0] < len(tasks) and flushed[0] in staged:
            records = staged.pop(flushed[0])
            for record in records() if callable(records) else records:
                merge(record)
            flushed[0] += 1

    generation = 0
    respawns = 0
    while pending:
        workers = min(jobs, len(pending))
        pool = ProcessPoolExecutor(max_workers=workers, mp_context=ctx,
                                   initializer=_init_worker,
                                   initargs=(config,))
        broke = False
        submitted: list[tuple[int, CellTask, object]] = []
        try:
            try:
                for idx, task in pending:
                    submitted.append(
                        (idx, task,
                         pool.submit(_run_task, task, generation)))
            except BrokenProcessPool:
                # a worker died while tasks were still being enqueued
                broke = True
            # what needs no worker ahead of the first task merges while
            # the workers run
            flush()
            for idx, task, future in submitted:
                if broke:
                    break
                if idx in staged:  # pragma: no cover - defensive
                    continue
                try:
                    staged[idx] = future.result(timeout=deadline)
                except BrokenProcessPool:
                    broke = True
                    break
                except concurrent.futures.TimeoutError as exc:
                    if not (future.done() and future.exception() is exc):
                        # the deadline expired while the worker kept
                        # sleeping — a stalled worker, not a result
                        broke = True
                        _kill_workers(pool)
                        break
                    algorithm, name, device = _task_key(task)
                    raise WorkerTaskError(
                        f"cell task {algorithm}/{name}/{device} failed "
                        f"in a pool worker: {exc!r}") from exc
                except BaseException as exc:
                    if future.done() and future.exception() is exc:
                        algorithm, name, device = _task_key(task)
                        raise WorkerTaskError(
                            f"cell task {algorithm}/{name}/{device} "
                            f"failed in a pool worker: {exc!r}"
                        ) from exc
                    # not the worker's doing (e.g. SweepInterrupted
                    # raised by a signal handler while waiting) —
                    # propagate untouched
                    raise
                flush()
            if broke:
                # the pool died mid-generation, but futures that had
                # already finished still hold their results — harvest
                # them so completed work is never re-executed
                for idx, task, future in submitted:
                    if (idx not in staged and future.done()
                            and not future.cancelled()
                            and future.exception() is None):
                        staged[idx] = future.result()
                flush()
        except BaseException:
            pool.shutdown(wait=False, cancel_futures=True)
            raise
        pool.shutdown(wait=not broke, cancel_futures=True)
        # flush() pops what it merges: a task has finished when it is
        # below the flush cursor or still staged behind an unfinished one
        pending = [(idx, task) for idx, task in pending
                   if idx >= flushed[0] and idx not in staged]
        if not pending:
            break
        respawns += 1
        if respawns > budget:
            raise StudyError(
                f"worker pool respawn budget exhausted ({budget} "
                f"rebuild(s)) with {len(pending)} task(s) unfinished — "
                "workers are dying faster than the sweep can make "
                f"progress (first stuck cell: "
                f"{'/'.join(_task_key(pending[0][1]))})")
        _count_respawn()
        generation += 1
    flush()
