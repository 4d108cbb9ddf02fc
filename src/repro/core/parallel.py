"""Parallel sweep execution: fan cells out over worker processes.

The paper's evaluation is a (algorithm x input x device x variant x
reps) grid of *independent* cells — every simulated runtime depends
only on its own (algorithm, graph, variant, seed, staleness class) and
the device constants, never on other cells.  That makes the sweep
embarrassingly parallel, and this module is the executor:
:meth:`repro.core.study.Study.sweep` builds one :class:`CellTask` per
missing (algorithm, input) pair and hands them to
:func:`execute_tasks`, which runs them on a
:class:`~repro.core.fleet.Fleet` of supervised workers and feeds
picklable result records back to the study **in submission order** —
so the memo (and therefore ``save_results`` output, speedup tables,
and published store records) is byte-identical to the serial path.

Each worker process owns a private :class:`~repro.core.study.Study`
configured from the parent's :class:`WorkerConfig` (same
reps/scale/validate/retry policy, same fault plan seed), which prices
every cell through the one guarded path,
:meth:`~repro.core.study.Study.run_cell`, plus a
:class:`~repro.perf.trace.TraceCache` pointed at the parent's on-disk
trace directory when one is configured.  A parent that runs uncached
has uncached workers, so both paths record the same executions.

Only cells that must record reach a worker.  Each task reports the
fingerprints of the graphs it built for its suite input (the weighted
copy's too), and a later table's parent prices a cell itself when
every repetition of every pending variant hits the trace cache under
those fingerprints; it prices the cell when the merge reaches the
cell's place in the submission order, where a result-store hit merges
too.  So after the first device, a
table whose devices share the first one's staleness class starts no
workers.  Without an on-disk trace directory a worker's recordings end
with its fleet, so every table's workers record again.

Knobs: ``Study(jobs=N)`` / ``sweep(..., jobs=N)`` /
``repro sweep --jobs N``, all defaulting to the ``REPRO_JOBS``
environment variable (unset = 1 = serial, no worker is ever started).
"""

from __future__ import annotations

import os
from concurrent import futures
from dataclasses import dataclass
from typing import Callable

from repro.core.variants import Variant
from repro.errors import StudyError, WorkerLostError

JOBS_ENV = "REPRO_JOBS"


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
    """Everything a worker needs to rebuild the parent's policy, and
    the deadline its supervisor holds each task to.

    All fields are picklable; ``faults`` and ``budget`` carry the
    study's fault plan and cell budget so injected fault streams
    (derived from the plan seed plus the cell key) are identical to
    the serial path's.
    """

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
    #: per-task wall-clock deadline in seconds: a worker busy with one
    #: task for longer is killed and the task redispatched
    #: (``Study.pool_task_deadline_s``; None waits forever)
    task_deadline_s: float | None = None


@dataclass(frozen=True)
class CellTask:
    """One (algorithm, input, device) pair and the variants still to
    run.  ``graph_or_name`` is a suite name or a pickled
    :class:`~repro.graphs.csr.CSRGraph`."""

    algorithm: str
    graph_or_name: object
    device: str
    variants: tuple[str, ...]


#: the per-process study, built once by :func:`_init_worker`
_WORKER_STUDY = None


def _init_worker(config: WorkerConfig) -> None:
    global _WORKER_STUDY
    import contextlib
    import signal

    from repro import telemetry
    from repro.core.study import Study
    from repro.perf.trace import TraceCache

    # a forked worker inherits the parent's graceful-interrupt handler;
    # in a worker that handler would turn fleet teardown SIGTERMs into
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
    _WORKER_STUDY = Study(
        reps=config.reps, scale=config.scale, validate=config.validate,
        trace_cache=cache, retries=config.retries,
        backoff_s=config.backoff_s, budget=config.budget,
        faults=config.faults)


def _task_key(task: CellTask) -> tuple[str, str, str]:
    """The (algorithm, input name, device) identity of a task —
    stable across slot generations, used for fault draws and error
    wrapping."""
    name = getattr(task.graph_or_name, "name", task.graph_or_name)
    return task.algorithm, str(name), task.device


def _run_task(task: CellTask, generation: int = 0) -> list[dict]:
    """Execute one task in a fleet worker (see :func:`_task_records`).

    ``generation`` is the slot generation of the worker running the
    task; an installed host-fault plan may kill or stall this worker
    here (deterministically, keyed on the task identity and generation)
    before any cell work happens — which is exactly the window where
    the fleet supervisor must detect the loss and redispatch.
    """
    from repro.core import hostfaults

    hostfaults.maybe_disrupt(hostfaults.active_plan(), _task_key(task),
                             generation)
    if _WORKER_STUDY is None:  # pragma: no cover - initializer always ran
        raise StudyError("worker used before initialization")
    return _task_records(_WORKER_STUDY, task)


def _task_records(study, task: CellTask) -> list[dict]:
    """Run ``task`` on a worker's ``study``; returns one record per
    variant, every variant run even after a failed one, as the serial
    path does.  They are led by a ``graph`` record with the
    fingerprints of the graphs the worker built for a suite input (sent
    for failed cells too: the parent checks name clashes with it before
    merging the rest, keys its own trace lookups on it, and publishes
    it with the cell) and followed by the telemetry record, if any.
    """
    from repro.core.study import outcome_record

    records = [outcome_record(study.run_cell(
        task.algorithm, task.graph_or_name, task.device, Variant(value)))
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


def _preload_task_modules(tasks: list[CellTask]) -> None:
    """Import in the parent what every worker's first task would.

    Forked workers start from the parent's modules, and a parent that
    never runs a task itself would leave each worker of each fleet to
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


#: seconds between two calls of ``execute_tasks``' ``check`` while a
#: dispatched cell is awaited
CHECK_S = 0.1


def execute_tasks(config: WorkerConfig, tasks: list, jobs: int,
                  merge: Callable[[dict], None],
                  check: Callable[[], None] | None = None) -> None:
    """Run ``tasks`` on up to ``jobs`` workers, merging records serially.

    A task is a :class:`CellTask`, or a list of records that need no
    execution (a cell served from the result store), or a callable
    returning one (a cell priced in the parent), called when the merge
    reaches its index.  Every cell task is dispatched up front to a
    :class:`~repro.core.fleet.Fleet` of ``min(jobs, cell tasks)``
    workers (none when no task needs one), but ``merge`` is invoked on
    the caller's thread strictly in submission order — the order the
    serial sweep would have produced — one record per variant, so the
    memo (and therefore ``save_results`` output and store records) is
    byte-identical to the serial path.  Every worker is reaped before
    this returns or raises.

    Worker death is survived, not propagated: the fleet redispatches a
    cell whose worker died (or stalled past ``config.task_deadline_s``)
    once.  A cell lost a second time becomes a ``fleet`` failure of
    each of its variants.  A cell that *raises* in its worker is a
    harness bug, not a host fault: it raises
    :class:`~repro.errors.WorkerTaskError` naming the (algorithm,
    input, device) cell when the merge reaches it, and ends the sweep.

    While a dispatched cell is awaited, ``check`` runs every
    :data:`CHECK_S` seconds, and whatever it raises ends the sweep:
    the study raises there an interrupt whose first exception a
    finalizer swallowed.
    """
    from repro.core.fleet import Fleet

    cells = [task for task in tasks if isinstance(task, CellTask)]
    fleet = None
    if cells:
        _preload_task_modules(cells)
        fleet = Fleet(config, min(jobs, len(cells)))
    try:
        dispatched = iter([fleet.dispatch(task) for task in cells])
        for task in tasks:
            if isinstance(task, CellTask):
                records = _dispatched_records(task, next(dispatched),
                                              check)
            elif callable(task):
                records = task()
            else:
                records = task
            for record in records:
                merge(record)
    finally:
        if fleet is not None:
            fleet.shutdown()


def _dispatched_records(task: CellTask, future,
                        check: Callable[[], None] | None) -> list[dict]:
    """A dispatched cell's records; a lost cell's are a ``fleet``
    failure of each of its variants."""
    from repro.core.resilience import CellFailure
    from repro.core.study import outcome_record

    if check is not None:
        while not futures.wait((future,), timeout=CHECK_S).done:
            check()
    try:
        return future.result()
    except WorkerLostError as exc:
        algorithm, name, device = _task_key(task)
        return [outcome_record(CellFailure(
            algorithm, name, device, variant, "fleet", str(exc),
            exc.attempts, 0.0)) for variant in task.variants]
