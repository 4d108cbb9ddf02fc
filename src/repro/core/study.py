"""The experimental methodology of Section V.

A :class:`Study` runs (algorithm, input, device, variant) configurations
``reps`` times (the paper uses nine), takes the *median* simulated
runtime, and derives speedups as ``baseline_median / racefree_median`` —
a value above 1 means the race-free code is faster.

Repetitions differ in their randomization seed (vertex priorities,
tie-breaks, schedule-dependent staleness subsets), which is the
simulator's analog of run-to-run hardware variance.

Every cell is priced by one guarded path, :meth:`Study.run_cell` —
serially, in every fleet worker, and behind ``repro serve``.  The
paper's own Section II argues that racy kernels can livelock, tear
words and corrupt results, so a failing cell becomes a
:class:`~repro.core.resilience.CellFailure` record instead of ending
the sweep, under the policy of :mod:`repro.core.resilience` (transient
faults retried with fresh schedule seeds, a per-cell wall-clock
budget, an optional kernel fault plan).  With a checkpoint directory
every cell whose two variants finish ``ok`` is published to a
:class:`~repro.core.store.ResultStore`, and a missing cell is looked up
there before it executes, so a rerun executes only the missing cells.
:meth:`Study.sweep` returns the failures alongside the completed cells;
:meth:`Study.run`, :meth:`Study.speedup` and :meth:`Study.speedup_table`
are strict views that raise :class:`~repro.errors.StudyError` naming
the first failed cell.  With no fault plan and default budgets the
guard rails change no result.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.core.resilience import (
    CellBudget,
    CellFailure,
    SweepResult,
    run_guarded,
)
from repro.core.store import ResultStore
from repro.core.variants import AlgorithmInfo, Variant, get_algorithm
from repro.errors import CellTimeoutError, StudyError, SweepInterrupted
from repro.gpu.device import get_device
from repro.gpu.faults import FaultPlan
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import load_suite_graph, weighted_graph
from repro.perf.engine import (
    PerfRun,
    algorithm_plan,
    cached_trace,
    replay_run,
    run_algorithm,
)
from repro.perf.trace import TraceCache
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_spans
from repro.utils.atomicio import atomic_write_text
from repro.utils.stats import median, relative_deviation

TRACE_CACHE_ENV = "REPRO_TRACE_CACHE"
"""Environment variable naming the on-disk trace-cache directory used
by studies that were not given an explicit cache."""

#: the two variants of every cell, in the order a sweep runs them
_VARIANTS = (Variant.BASELINE, Variant.RACE_FREE)


@dataclass
class RunResult:
    """Median-of-reps runtime of one (algo, input, device, variant)."""

    algorithm: str
    input_name: str
    device_key: str
    variant: Variant
    runtimes_ms: list[float]
    #: outputs/stats of the final repetition; None when the result was
    #: re-loaded from a saved log (outputs are not persisted)
    last_run: PerfRun | None

    @property
    def median_ms(self) -> float:
        return median(self.runtimes_ms)

    @property
    def relative_deviation(self) -> float:
        return relative_deviation(self.runtimes_ms)

    def to_record(self) -> dict:
        """The JSON record every writer stores for this result
        (``save_results``, the result store, fleet workers).
        The key order is part of ``save_results``' bytes."""
        return {"algorithm": self.algorithm, "input": self.input_name,
                "device": self.device_key, "variant": self.variant.value,
                "runtimes_ms": list(self.runtimes_ms)}

    @classmethod
    def from_record(cls, record: dict) -> "RunResult":
        """The result a :meth:`to_record` record describes (without
        ``last_run``: outputs are not persisted)."""
        return cls(record["algorithm"], record["input"], record["device"],
                   Variant(record["variant"]),
                   [float(x) for x in record["runtimes_ms"]], last_run=None)


def outcome_record(out) -> dict:
    """The record a worker sends for one variant's outcome: kind
    ``result`` for a :class:`RunResult`, ``failure`` for a
    :class:`~repro.core.resilience.CellFailure`."""
    kind = "result" if isinstance(out, RunResult) else "failure"
    return {"kind": kind, **out.to_record()}


@dataclass
class SpeedupCell:
    """One cell of Tables IV-VIII."""

    algorithm: str
    input_name: str
    device_key: str
    baseline_ms: float
    racefree_ms: float

    @property
    def speedup(self) -> float:
        """baseline runtime / race-free runtime (>1: race-free faster)."""
        if self.racefree_ms <= 0:
            raise StudyError("race-free runtime must be positive")
        return self.baseline_ms / self.racefree_ms


def _strict(out):
    """``out`` unless it is a failed cell, which raises instead."""
    if isinstance(out, CellFailure):
        raise StudyError(f"{out.describe()}: {out.message}")
    return out


class Study:
    """Runs the paper's comparison on the simulated devices, surviving
    the failures it measures.

    Parameters
    ----------
    reps:
        Runs per configuration (paper: 9).
    scale:
        Input scale factor forwarded to the suite loader.
    validate:
        Verify every output against the reference checkers (slow; used
        by the test-suite, off for the big sweeps).  A repetition that
        fails validation fails its cell with ``validation``.
    trace_cache:
        The record/replay cache (see :mod:`repro.perf.trace`).  By
        default each study gets its own in-memory cache, with an
        on-disk layer when ``REPRO_TRACE_CACHE`` names a directory.
        Pass a :class:`~repro.perf.trace.TraceCache`, a directory path
        (enables the disk layer there), or ``False`` to disable
        caching entirely (every repetition re-executes the vectorized
        algorithm — the pre-replay engine).
    jobs:
        Default worker count for :meth:`sweep` and
        :meth:`speedup_table`; ``None`` reads ``REPRO_JOBS``, 1 means
        serial.
    memory_model:
        Price every run under this consistency model
        (:mod:`repro.memmodel`): shared atomic sites are lifted to the
        model's order floor before recording, e.g. ``"ptx:acq_rel"``
        prices the acquire/release world.  None keeps the paper's
        relaxed default.  Model-priced sweeps run serially (the
        worker protocol does not carry the model), and take no
        ``checkpoint``: a store address does not name the model.
    retries:
        Extra attempts per cell after a transient kernel fault, each
        with a fresh schedule-seed family.
    backoff_s:
        Base of the exponential full-jitter retry backoff
        (:class:`~repro.utils.backoff.BackoffPolicy`; 0 disables
        sleeping).
    budget:
        Per-cell :class:`~repro.core.resilience.CellBudget` (the
        wall-clock limit).
    faults:
        Optional :class:`~repro.gpu.faults.FaultPlan`; every repetition
        of every cell gets its own deterministic injector derived from
        (cell key, repetition, attempt).
    checkpoint:
        Directory of a :class:`~repro.core.store.ResultStore`.  Every
        cell whose two variants finish ``ok`` is published there
        (:meth:`save_checkpoint`), and a missing cell is looked up there
        before it executes, so a rerun with the same directory — after
        a crash, a SIGINT, or by another study — executes only the
        missing cells.  Failures are not published: a rerun attempts
        them again.  Only suite inputs are stored; a graph passed in
        directly never is.  A checkpoint *file* of an older build is
        refused; :meth:`load_results` reads it.
    """

    #: per-task wall-clock deadline in seconds for the workers of
    #: parallel sweeps: a worker still busy past it is killed and its
    #: cell redispatched (None waits forever) — see
    #: :mod:`repro.core.fleet`
    pool_task_deadline_s: float | None = None

    def __init__(self, reps: int = 9, scale: float = 1.0,
                 validate: bool = False,
                 trace_cache: TraceCache | str | Path | bool | None = None,
                 jobs: int | None = None,
                 memory_model=None, retries: int = 0,
                 backoff_s: float = 0.0,
                 budget: CellBudget | None = None,
                 faults: FaultPlan | None = None,
                 checkpoint: str | Path | None = None) -> None:
        from repro.core.parallel import resolve_jobs

        if reps < 1:
            raise StudyError(f"reps must be >= 1, got {reps}")
        if retries < 0:
            raise StudyError(f"retries must be >= 0, got {retries}")
        if memory_model is not None and checkpoint is not None:
            raise StudyError(
                "a memory-model study takes no checkpoint: a store "
                "address does not name the model, so the store would "
                "serve one model's records to another")
        if checkpoint is not None and Path(checkpoint).is_file():
            raise StudyError(
                f"checkpoint {checkpoint} is a file, not a result-store "
                "directory; an older build's checkpoint file loads with "
                "Study.load_results()")
        self.reps = reps
        self.scale = scale
        self.validate = validate
        if memory_model is not None:
            from repro.memmodel.models import resolve_model

            memory_model = resolve_model(memory_model)
        self.memory_model = memory_model
        if trace_cache is None or trace_cache is True:
            trace_cache = TraceCache(
                disk_dir=os.environ.get(TRACE_CACHE_ENV) or None)
        elif trace_cache is False:
            trace_cache = None
        elif isinstance(trace_cache, (str, Path)):
            trace_cache = TraceCache(disk_dir=trace_cache)
        self.trace_cache: TraceCache | None = trace_cache
        self.jobs = resolve_jobs(jobs)
        self.retries = retries
        self.backoff_s = backoff_s
        self.budget = budget or CellBudget()
        self.faults = faults
        self.store = (None if checkpoint is None else ResultStore(
            checkpoint, reps=reps, scale=scale, faults=faults,
            retries=retries))
        self._results: dict[tuple, RunResult] = {}
        self._failures: dict[tuple, CellFailure] = {}
        #: variant results actually simulated in this process (memoized
        #: or store-served ones do not count) — the observable that
        #: resume tests assert on
        self.cells_executed = 0
        #: variant results served from the checkpoint store
        self.cells_resumed = 0
        #: content fingerprints of graphs seen per input name, so two
        #: different graphs cannot silently share one memo entry
        self._graph_fps: dict[str, str] = {}
        #: suite input name -> fingerprint of the graph built for it,
        #: and graph fingerprint -> its weighted copy's.  Both hold only
        #: graphs built in this process or its workers during this
        #: study (a graph passed in directly is never a suite input's):
        #: they key the trace lookups of cells priced without building
        #: their graphs
        self._suite_fps: dict[str, str] = {}
        self._weighted_fps: dict[str, str] = {}
        #: names of inputs passed in as graphs, whose cells the store
        #: never holds: its address names an input, not its content
        self._direct_inputs: set[str] = set()
        #: the signal the running sweep's handler received, if any
        self._interrupted: int | None = None

    # ------------------------------------------------------------------
    @staticmethod
    def _rep_seed(rep: int, attempt: int = 0) -> int:
        """Per-repetition randomization seed (the simulator's analog of
        run-to-run variance).  ``attempt > 0`` — a retry after a
        transient fault — shifts to a fresh schedule-seed family;
        attempt 0 reproduces the historical seeds exactly."""
        return 1000 * rep + 7 + 7919 * attempt

    def _note_fingerprint(self, name: str, fp: str) -> None:
        """Record content fingerprint ``fp`` for ``name``; reject a
        clash.

        A :class:`CSRGraph` passed directly whose ``.name`` collides
        with a different graph (a suite input, or an earlier passed
        graph) would otherwise silently reuse or overwrite the other's
        cached result.
        """
        prev = self._graph_fps.get(name)
        if prev is not None and prev != fp:
            raise StudyError(
                f"graph name {name!r} already used in this study for "
                "different content; rename the graph (results are "
                "memoized per input name)"
            )
        self._graph_fps[name] = fp

    def _memo_key(self, algorithm: str, graph_or_name, device: str,
                  variant: Variant) -> tuple[tuple, str]:
        """(memo key, input name) — with the name-clash check applied
        for directly-passed graphs *before* any memo lookup."""
        if isinstance(graph_or_name, CSRGraph):
            name = graph_or_name.name
            self._note_fingerprint(name, graph_or_name.fingerprint())
        else:
            name = graph_or_name
        return (algorithm, name, device, variant), name

    def _prepare_graph(self, algo: AlgorithmInfo,
                       graph_or_name) -> CSRGraph:
        if isinstance(graph_or_name, CSRGraph):
            graph = graph_or_name
        else:
            graph = load_suite_graph(graph_or_name, scale=self.scale)
            self._note_fingerprint(graph_or_name, graph.fingerprint())
            self._suite_fps[graph_or_name] = graph.fingerprint()
        if algo.needs_weights and not graph.has_weights:
            # process-wide cache: every study (and every repetition of
            # every device) shares one weighted copy per graph content
            weighted = weighted_graph(graph, seed=12345)
            self._weighted_fps[graph.fingerprint()] = weighted.fingerprint()
            graph = weighted
        return graph

    # ------------------------------------------------------------------
    # Cell execution
    # ------------------------------------------------------------------
    def _count_cell(self, outcome: str, attempts: int) -> None:
        reg = get_registry()
        if not reg.enabled:
            return
        reg.counter("repro_cells_total",
                    "Sweep cells executed, by final outcome", ("outcome",)
                    ).inc(1, outcome)
        reg.counter("repro_cell_attempts_total",
                    "Cell execution attempts (first tries + retries)"
                    ).inc(max(attempts, 1))
        if attempts > 1:
            reg.counter("repro_cell_retries_total",
                        "Extra attempts after transient kernel faults"
                        ).inc(attempts - 1)
        if outcome == "timeout":
            reg.counter("repro_watchdog_trips_total",
                        "Cells stopped by the wall-clock budget watchdog"
                        ).inc(1)

    def _injector(self, key: tuple, rep: int, attempt: int):
        if self.faults is None:
            return None
        algorithm, name, device, variant = key
        return self.faults.injector(
            algorithm, name, device, variant.value, rep, attempt)

    def run_cell(self, algorithm: str, graph_or_name, device: str,
                 variant: Variant) -> RunResult | CellFailure:
        """Run one configuration with fault isolation (memoized within
        the study).

        Returns the :class:`RunResult` on success, or a
        :class:`~repro.core.resilience.CellFailure` record — never
        raises for failures of the simulated execution itself.
        """
        key, name = self._memo_key(algorithm, graph_or_name, device, variant)
        if key in self._results:
            return self._results[key]
        if key in self._failures:
            return self._failures[key]
        stored = self._stored_records(algorithm, graph_or_name, device)
        for record in stored or ():
            self._merge_parallel_record(record)
        if key in self._results:
            return self._results[key]

        algo = get_algorithm(algorithm)
        spec = get_device(device)
        graph = self._prepare_graph(algo, graph_or_name)

        def run_rep(rep: int, attempt: int) -> PerfRun:
            run = run_algorithm(
                algo, graph, spec, variant,
                seed=self._rep_seed(rep, attempt),
                faults=self._injector(key, rep, attempt),
                trace_cache=self.trace_cache,
                need_output=self.validate,
                memory_model=self.memory_model)
            # every repetition is validated: reps differ in their
            # randomization seed, so a corrupt rep 3 would be
            # invisible if only the final repetition were checked
            if self.validate:
                self._validate(algo, graph, run)
            return run

        out = self._price_cell(key, run_rep)
        self.cells_executed += 1
        if isinstance(out, CellFailure):
            self._failures[key] = out
            return out
        self._results[key] = out
        self._cell_finished(algorithm, name, device)
        return out

    def _price_cell(self, key: tuple,
                    run_rep) -> RunResult | CellFailure:
        """One cell's outcome from its repetitions, each priced by
        ``run_rep(rep, attempt)``, under the retry and budget policy,
        inside its ``sweep.cell`` span, counted in the cell metrics.
        Leaves the memo and ``cells_executed`` to the caller (see
        :meth:`_replay_task`)."""
        algorithm, name, device, variant = key
        deadline = (None if self.budget.max_seconds is None
                    else time.monotonic() + self.budget.max_seconds)
        attempts_made = [0]

        def attempt_cell(attempt: int) -> RunResult:
            attempts_made[0] = attempt + 1
            runtimes: list[float] = []
            last: PerfRun | None = None
            for rep in range(self.reps):
                if deadline is not None and time.monotonic() > deadline:
                    raise CellTimeoutError(
                        f"cell exceeded {self.budget.max_seconds:g}s "
                        f"wall-clock budget after {rep} of {self.reps} "
                        "repetitions"
                    )
                last = run_rep(rep, attempt)
                runtimes.append(last.runtime_ms)
            return RunResult(algorithm, name, device, variant,
                             runtimes, last)

        with get_spans().span("sweep.cell", algorithm=algorithm,
                              input=name, device=device,
                              variant=variant.value) as sp:
            value, failure = run_guarded(
                attempt_cell, retries=self.retries,
                backoff_s=self.backoff_s, budget=self.budget)
            outcome = "ok" if failure is None else failure.reason
            sp.set(outcome=outcome, attempts=attempts_made[0])
        self._count_cell(outcome, attempts_made[0])
        if failure is None:
            return value
        return CellFailure(
            algorithm=algorithm, input_name=name, device_key=device,
            variant=variant.value, reason=failure.reason,
            message=failure.message, attempts=failure.attempts,
            elapsed_s=failure.elapsed_s)

    def run(self, algorithm: str, graph_or_name, device: str,
            variant: Variant) -> RunResult:
        """Strict view of :meth:`run_cell`: a failed cell raises
        :class:`~repro.errors.StudyError` naming it."""
        return _strict(self.run_cell(algorithm, graph_or_name, device,
                                     variant))

    def speedup_cell(self, algorithm: str, graph_or_name,
                     device: str) -> SpeedupCell | CellFailure:
        """Baseline-vs-race-free speedup with fault isolation.

        Both variants always run; a failure of either variant makes the
        cell a :class:`~repro.core.resilience.CellFailure`, baseline
        first.
        """
        algo = get_algorithm(algorithm)
        if not algo.has_races:
            raise StudyError(
                f"{algorithm} has no data races (Section IV.A); the paper "
                "does not measure its race-free speedup"
            )
        base = self.run_cell(algorithm, graph_or_name, device,
                             Variant.BASELINE)
        free = self.run_cell(algorithm, graph_or_name, device,
                             Variant.RACE_FREE)
        if isinstance(base, CellFailure):
            return base
        if isinstance(free, CellFailure):
            return free
        return SpeedupCell(
            algorithm=algorithm,
            input_name=base.input_name,
            device_key=device,
            baseline_ms=base.median_ms,
            racefree_ms=free.median_ms,
        )

    def speedup(self, algorithm: str, graph_or_name,
                device: str) -> SpeedupCell:
        """Strict view of :meth:`speedup_cell`: a failed cell raises
        :class:`~repro.errors.StudyError` naming it."""
        return _strict(self.speedup_cell(algorithm, graph_or_name, device))

    def sweep(self, device: str, algorithms: list[str],
              inputs: list[str], jobs: int | None = None) -> SweepResult:
        """All cells of one device table, surviving per-cell failures.

        ``jobs > 1`` runs the missing cells on worker processes (see
        :mod:`repro.core.parallel`; workers apply the same retry,
        budget and fault policy and return picklable outcome records),
        then assembles the table from the memo: the cells, published
        store records, and ``save_results`` output are bit-identical
        to the serial path.
        """
        jobs = jobs if jobs is not None else self.jobs
        if self.memory_model is not None:
            jobs = 1  # worker protocol doesn't carry the model; stay serial
        with self._graceful_interrupt():
            with get_spans().span("study.sweep", device=device, jobs=jobs,
                                  cells=len(algorithms) * len(inputs)) as sp:
                if jobs > 1:
                    sp.set(**self._parallel_prefetch(device, algorithms,
                                                     inputs, jobs))
                cells = [
                    self.speedup_cell(a, name, device)
                    for name in inputs
                    for a in algorithms
                ]
        return SweepResult(device_key=device, cells=cells)

    def speedup_table(self, device: str, algorithms: list[str],
                      inputs: list[str],
                      jobs: int | None = None) -> list[SpeedupCell]:
        """All cells of one of Tables IV-VIII: strict view of
        :meth:`sweep`, which prices the whole table first; a failed
        cell then raises :class:`~repro.errors.StudyError` naming the
        first."""
        cells = self.sweep(device, algorithms, inputs, jobs=jobs).cells
        for cell in cells:
            _strict(cell)
        return cells

    def failures(self) -> list[CellFailure]:
        """Every failure recorded so far."""
        return list(self._failures.values())

    # ------------------------------------------------------------------
    # Interrupts
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def _graceful_interrupt(self):
        """Convert SIGINT/SIGTERM during a sweep into a clean stop.

        The signal raises :class:`~repro.errors.SweepInterrupted` at
        the next bytecode boundary; with a checkpoint every finished
        cell is already in the store, so a rerun with the same
        checkpoint executes only the rest.  The CLI maps the exception
        to exit code 3.  Outside the main thread — or on platforms
        without these signals — the sweep runs unguarded, unchanged.

        A handler that runs while a finalizer or weakref callback does
        raises inside it, where Python only reports the exception.  So
        the handler records the signal, :meth:`_check_interrupt`
        raises it again — the parallel path calls it while it awaits a
        cell, and the sweep calls it as it ends — and while the guard
        is active ``sys.unraisablehook`` drops that report instead of
        printing its traceback.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def _handler(signum, frame):
            self._interrupted = signum
            self._check_interrupt()

        report = sys.unraisablehook

        def _unraisable(unraisable) -> None:
            if not isinstance(unraisable.exc_value, SweepInterrupted):
                report(unraisable)

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(OSError, ValueError):
                previous[sig] = signal.signal(sig, _handler)
        sys.unraisablehook = _unraisable
        try:
            yield
            self._check_interrupt()
        finally:
            sys.unraisablehook = report
            for sig, old in previous.items():
                with contextlib.suppress(OSError, ValueError):
                    signal.signal(sig, old)
            self._interrupted = None

    def _check_interrupt(self) -> None:
        """Raise the interrupt the running sweep's handler recorded."""
        if self._interrupted is not None:
            name = signal.Signals(self._interrupted).name
            resume = ("; every finished cell is checkpointed — rerun "
                      "with the same --checkpoint" if self.store else "")
            raise SweepInterrupted(f"sweep interrupted by {name}{resume}")

    # ------------------------------------------------------------------
    # Parallel execution (see repro.core.parallel)
    # ------------------------------------------------------------------
    def _cell_done(self, key: tuple) -> bool:
        """Whether the sweep already has an outcome for ``key``."""
        return key in self._results or key in self._failures

    def _worker_config(self):
        """The picklable policy a worker rebuilds this study from."""
        from repro.core import hostfaults
        from repro.core.parallel import WorkerConfig
        from repro.telemetry.metrics import telemetry_enabled

        cache = self.trace_cache
        return WorkerConfig(
            reps=self.reps, scale=self.scale, validate=self.validate,
            retries=self.retries, backoff_s=self.backoff_s,
            budget=self.budget, faults=self.faults,
            trace_dir=(None if cache is None or cache.disk_dir is None
                       else str(cache.disk_dir)),
            trace_cache=cache is not None, telemetry=telemetry_enabled(),
            hostfaults=hostfaults.active_plan(),
            task_deadline_s=self.pool_task_deadline_s)

    def _merge_telemetry_record(self, record: dict) -> None:
        """Fold one worker's shipped metric/span deltas into the
        process-wide registry (records arrive in submission order, so
        the merged write sequence equals the serial one)."""
        get_registry().merge(record["snapshot"])
        get_spans().merge(record.get("spans", ()),
                          worker=record.get("worker"))

    def _graph_record(self, graph_or_name) -> dict | None:
        """The fingerprints of the graphs this study built for a suite
        input, as the record a worker sends along with its task's
        outcomes (a graph passed in directly has none: the parent
        fingerprints it)."""
        fp = (None if isinstance(graph_or_name, CSRGraph)
              else self._suite_fps.get(graph_or_name))
        if fp is None:
            return None
        return {"kind": "graph", "input": graph_or_name, "graph_fp": fp,
                "weighted_fp": self._weighted_fps.get(fp)}

    def _merge_parallel_record(self, record: dict) -> None:
        """Fold one worker, store or parent-priced record into the memo
        (submission order)."""
        kind = record.get("kind")
        if kind == "telemetry":
            self._merge_telemetry_record(record)
            return
        if kind == "graph":
            self._note_fingerprint(record["input"], record["graph_fp"])
            self._suite_fps[record["input"]] = record["graph_fp"]
            if record["weighted_fp"] is not None:
                self._weighted_fps[record["graph_fp"]] = \
                    record["weighted_fp"]
            return
        variant = Variant(record["variant"])
        key = (record["algorithm"], record["input"], record["device"],
               variant)
        if self._cell_done(key):
            return
        if kind == "failure":
            self._failures[key] = CellFailure.from_record(record)
        else:
            self._results[key] = RunResult.from_record(record)
        if kind == "stored":
            self.cells_resumed += 1
            return
        # each other record is one cell a worker actually executed (the
        # parent only submits cells missing from memo and store)
        self.cells_executed += 1
        if kind == "result":
            self._cell_finished(*key[:3])

    def _replays_in_parent(self) -> bool:
        """Whether a parallel sweep may price cached cells itself: not
        when outputs must be validated (disk traces carry none), there
        is no trace cache, or a fault plan is set (faulted runs never
        touch the trace cache)."""
        return (self.trace_cache is not None and not self.validate
                and self.faults is None)

    def _replay_task(self, algorithm: str, name: str, device: str,
                     variants: tuple[Variant, ...]
                     ) -> Callable[[], list[dict]] | None:
        """A callable pricing a suite input's cell here from cached
        traces, or None when it must be dispatched.

        Only for an input this study has seen built as a suite input,
        and only when every repetition of every variant hits the trace
        cache: all of them are looked up now, and priced only when the
        merge reaches the cell, so a cell that is dispatched — or never
        merged, because an earlier task failed — emits nothing here.
        Pricing goes through :meth:`_price_cell`, so the records and
        telemetry are those a worker would send; the memo is left
        to the merge.
        """
        graph_fp = self._suite_fps.get(name)
        if graph_fp is None or not self._replays_in_parent():
            return None
        algo = get_algorithm(algorithm)
        if algo.needs_weights:
            graph_fp = self._weighted_fps.get(graph_fp)
            if graph_fp is None:
                return None
        spec = get_device(device)
        plan = algorithm_plan(algo)
        traces = {}
        for variant in variants:
            traces[variant] = [
                cached_trace(self.trace_cache, algo, graph_fp, variant,
                             self._rep_seed(rep), spec.plain_staleness_rounds,
                             plan)
                for rep in range(self.reps)]
            if None in traces[variant]:
                return None

        def price() -> list[dict]:
            records = []
            for variant, hits in traces.items():
                out = self._price_cell(
                    (algorithm, name, device, variant),
                    lambda rep, attempt: replay_run(
                        algo, hits[rep], spec, self._rep_seed(rep, attempt),
                        name))
                records.append(outcome_record(out))
            return records
        return price

    def _parallel_prefetch(self, device: str, algorithms: list[str],
                           inputs: list[str], jobs: int) -> dict[str, int]:
        """Execute every missing (algorithm, input) pair on workers.

        Tasks are built — and their records merged — in the exact
        order the serial sweep would have executed them, which is what
        keeps the memo's insertion order (and therefore
        :meth:`save_results` output) byte-identical.  A pair found in
        storage, or priced here from cached traces
        (:meth:`_replay_task`), is merged at its place in that order,
        not dispatched, so a table with nothing left to record starts no
        worker.  Returns how many pairs came from each source.
        """
        from repro.core.parallel import CellTask, execute_tasks

        sources = dict.fromkeys(("stored", "replayed", "dispatched"), 0)
        planned: set[tuple] = set()
        tasks = []
        for graph_or_name in inputs:
            for a in algorithms:
                # _memo_key makes the serial path's name-clash check
                # before any lookup.  A key already planned for this
                # table (a graph passed in directly under a suite
                # input's name) is one the serial sweep finds in its
                # memo, so it gets no second task
                keys = [self._memo_key(a, graph_or_name, device, v)[0]
                        for v in _VARIANTS]
                pending = [key for key in keys
                           if not self._cell_done(key) and key not in planned]
                if not pending:
                    continue
                planned.update(pending)
                name, variants = keys[0][1], tuple(key[3] for key in pending)
                task = self._stored_records(a, graph_or_name, device)
                source = "stored"
                if task is None and not isinstance(graph_or_name, CSRGraph):
                    task = self._replay_task(a, name, device, variants)
                    source = "replayed"
                if task is None:
                    task = CellTask(a, graph_or_name, device,
                                    tuple(v.value for v in variants))
                    source = "dispatched"
                tasks.append(task)
                sources[source] += 1
        execute_tasks(self._worker_config(), tasks, jobs,
                      self._merge_parallel_record, self._check_interrupt)
        return sources

    # ------------------------------------------------------------------
    # The checkpoint store
    # ------------------------------------------------------------------
    def _stored_records(self, algorithm: str, graph_or_name,
                        device: str) -> list[dict] | None:
        """The cell's records in the checkpoint store, kind ``stored``.

        Looked up only for a suite input, and only while neither variant
        has an outcome: a cell this study has begun is not in the store.
        """
        name = getattr(graph_or_name, "name", graph_or_name)
        if isinstance(graph_or_name, CSRGraph):
            self._direct_inputs.add(name)
        if (self.store is None or name in self._direct_inputs
                or any(self._cell_done((algorithm, name, device, v))
                       for v in _VARIANTS)):
            return None
        found = self.store.lookup(algorithm, name, device)
        if found is None:
            return None
        records, graph_fp = found
        if graph_fp is not None:
            if self._graph_fps.get(name, graph_fp) != graph_fp:
                # published for other content under this suite name (a
                # build whose graph generator differed): recompute
                return None
            # the name-clash check the graph build would have made
            self._note_fingerprint(name, graph_fp)
        return [dict(record, kind="stored") for record in records]

    def _cell_finished(self, algorithm: str, name: str,
                       device: str) -> None:
        """Publish a suite input's cell once both of its variants are
        ``ok``."""
        if (self.store is not None and name not in self._direct_inputs
                and all(
                    (algorithm, name, device, v) in self._results
                    for v in _VARIANTS)):
            self.save_checkpoint(algorithm, name, device)

    def save_checkpoint(self, algorithm: str, input_name: str,
                        device: str) -> None:
        """Publish one finished cell — both variants' results — to the
        checkpoint store (best effort: a full disk degrades the store,
        never the sweep)."""
        if self.store is None:
            raise StudyError("no checkpoint path configured")
        self.store.publish(algorithm, input_name, device, [
            {"kind": "result",
             **self._results[(algorithm, input_name, device, v)]
             .to_record()}
            for v in _VARIANTS], graph_fp=self._graph_fps.get(input_name))

    # ------------------------------------------------------------------
    # Result persistence (the artifact's ./results/ raw-runtime logs)
    # ------------------------------------------------------------------
    def _result_records(self) -> list[dict]:
        return [r.to_record() for r in self._results.values()]

    def save_results(self, path: str | Path) -> None:
        """Write every memoized runtime to a JSON log.

        The analog of the paper artifact's ``./results/`` directory:
        raw runtimes per (algorithm, input, device, variant), so table
        generation can be re-done without re-running the simulations.
        The write is crash-safe (temp file + atomic rename): a crash
        mid-save cannot leave a truncated log behind.
        """
        payload = {"reps": self.reps, "scale": self.scale,
                   "results": self._result_records()}
        atomic_write_text(path, json.dumps(payload, indent=1))

    def _load_payload(self, path: str | Path) -> dict:
        """Parse and protocol-check a saved log; StudyError on damage."""
        try:
            payload = json.loads(Path(path).read_text())
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise StudyError(
                f"corrupt or partial results file {path}: {exc}"
            ) from exc
        if not isinstance(payload, dict) or "results" not in payload:
            raise StudyError(f"{path} is not a study results file")
        if payload.get("reps") != self.reps or payload.get("scale") != self.scale:
            raise StudyError(
                "saved results were produced with a different reps/scale "
                f"({payload.get('reps')}/{payload.get('scale')} vs "
                f"{self.reps}/{self.scale})"
            )
        return payload

    def load_results(self, path: str | Path) -> int:
        """Pre-populate the memo from a saved log; returns the number of
        configurations loaded.  Loaded entries carry no ``last_run``
        (outputs are not persisted), so ``validate`` does not apply.
        Raises :class:`~repro.errors.StudyError` (not a bare JSON error)
        on corrupt or truncated files.  All-or-nothing: records are
        staged into a local map and committed to the memo only after
        every one has parsed, so a malformed record midway through the
        file cannot leave the study half-loaded."""
        payload = self._load_payload(path)
        staged: dict[tuple, RunResult] = {}
        try:
            for rec in payload["results"]:
                result = RunResult.from_record(rec)
                staged[(result.algorithm, result.input_name,
                        result.device_key, result.variant)] = result
        except (KeyError, TypeError, ValueError) as exc:
            raise StudyError(
                f"malformed record in results file {path}: {exc!r}"
            ) from exc
        self._results.update(staged)
        return len(staged)

    # ------------------------------------------------------------------
    def _validate(self, algo: AlgorithmInfo, graph: CSRGraph,
                  run: PerfRun) -> None:
        from repro.algorithms import verify

        out = run.output
        if algo.key == "cc":
            verify.check_components(graph, out["labels"])
        elif algo.key == "gc":
            verify.check_coloring(graph, out["colors"])
        elif algo.key == "mis":
            verify.check_mis(graph, out["in_set"])
        elif algo.key == "mst":
            verify.check_mst(graph, out["in_mst"])
        elif algo.key == "scc":
            verify.check_scc(graph, out["labels"])
        elif algo.key == "apsp":
            verify.check_apsp(graph, out["dist"])


def paper_properties(name: str, scale: float = 1.0) -> tuple[int, int, float]:
    """(edge count, vertex count, average degree) of a suite input —
    the Table IX correlates; taken from the *scaled* graph actually run.

    ``scale`` must match the study that produced the speedups (a
    ``REPRO_SCALE != 1`` sweep correlates against differently sized
    graphs than the default suite).  Served from the shared suite
    cache, so repeated correlation passes never rebuild CSR arrays.
    """
    graph = load_suite_graph(name, scale=scale)
    return (graph.num_edges, graph.num_vertices,
            graph.num_edges / max(1, graph.num_vertices))
