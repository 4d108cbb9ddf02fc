"""Resilient sweep execution: per-cell isolation, budgets, retries,
and checkpoint/resume for the study framework.

The paper's sweeps (Tables IV-IX) run hundreds of (algorithm x input x
device x variant x repetition) cells, and its own Section II argues that
racy kernels can livelock, tear words, and corrupt results.  A plain
:class:`~repro.core.study.Study` lets the first such failure abort the
whole sweep and discard every completed cell.  This module makes the
sweep layer survive, record, and report those failures instead:

* a failing cell becomes a structured :class:`CellFailure` record and
  the sweep continues (per-cell isolation);
* :class:`DeadlockError` livelocks become recorded failures, bounded by
  the :class:`CellBudget` step/wall-clock limits, not crashes;
* transient faults (:class:`~repro.errors.TransientKernelFault`) are
  retried with fresh schedule seeds and exponential backoff;
* with a checkpoint directory, every cell whose two variants finish
  ``ok`` is published to a :class:`~repro.core.store.ResultStore`
  there, and the study looks each missing cell up in it before
  executing it, so a rerun executes only the missing cells;
* partial results still render: see
  :func:`repro.core.report.resilient_speedup_table`, which prints
  ``FAIL(reason)`` cells and coverage-annotated geomeans.

With no fault plan and default budgets, :class:`ResilientStudy`
reproduces plain :class:`Study` results bit-identically — the guard
rails cost nothing until something goes wrong.
"""

from __future__ import annotations

import contextlib
import signal
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.core.store import ResultStore
from repro.core.study import _VARIANTS, RunResult, SpeedupCell, Study
from repro.core.variants import Variant, get_algorithm
from repro.errors import (
    CellTimeoutError,
    DeadlockError,
    ReproError,
    StudyError,
    SweepInterrupted,
    TransientKernelFault,
    ValidationError,
)
from repro.gpu.device import get_device
from repro.gpu.faults import FaultPlan
from repro.graphs.csr import CSRGraph
from repro.perf.engine import PerfRun, run_algorithm
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_spans
from repro.utils.backoff import BackoffPolicy


@dataclass(frozen=True)
class CellBudget:
    """Per-cell execution limits.

    ``max_seconds`` is a wall-clock budget checked between repetitions
    and attempts; exceeding it records a ``timeout`` failure.
    ``max_steps`` is the SIMT micro-step budget for kernel-level
    execution (forwarded to :class:`~repro.gpu.simt.SimtExecutor`),
    which converts infinite polling loops into
    :class:`~repro.errors.DeadlockError` — recorded here as
    ``livelock``.  Performance-level runs always terminate, so for them
    only the wall-clock limit and injected livelocks apply.
    """

    max_seconds: float | None = None
    max_steps: int | None = None


@dataclass(frozen=True)
class CellFailure:
    """One failed sweep cell, preserved instead of crashing the sweep.

    Field names mirror :class:`~repro.core.study.SpeedupCell` so report
    code can lay failures out in the same grid.
    """

    algorithm: str
    input_name: str
    device_key: str
    variant: str
    reason: str           # livelock | timeout | validation | fault | error | fleet
    message: str
    attempts: int
    elapsed_s: float

    def describe(self) -> str:
        return (f"FAIL({self.reason}) {self.algorithm}/{self.input_name}/"
                f"{self.device_key}/{self.variant}")

    def to_record(self) -> dict:
        """The JSON record fleet workers send for this
        failure."""
        return {"algorithm": self.algorithm, "input": self.input_name,
                "device": self.device_key, "variant": self.variant,
                "reason": self.reason, "message": self.message,
                "attempts": self.attempts, "elapsed_s": self.elapsed_s}

    @classmethod
    def from_record(cls, record: dict) -> "CellFailure":
        """The failure a :meth:`to_record` record describes."""
        return cls(algorithm=record["algorithm"],
                   input_name=record["input"], device_key=record["device"],
                   variant=record["variant"], reason=record["reason"],
                   message=record.get("message", ""),
                   attempts=int(record.get("attempts", 1)),
                   elapsed_s=float(record.get("elapsed_s", 0.0)))


@dataclass(frozen=True)
class GuardedFailure:
    """Outcome classification produced by :func:`run_guarded`."""

    reason: str
    message: str
    attempts: int
    elapsed_s: float


def run_guarded(
    fn: Callable[[int], object],
    retries: int = 0,
    backoff_s: float = 0.0,
    budget: CellBudget | None = None,
    sleep: Callable[[float], None] = time.sleep,
    backoff: BackoffPolicy | None = None,
):
    """Run ``fn(attempt)`` under the resilience policy.

    Returns ``(value, None)`` on success or ``(None, GuardedFailure)``
    on failure.  The policy:

    * :class:`TransientKernelFault` — retry up to ``retries`` times
      with exponential full-jitter backoff (a
      :class:`~repro.utils.backoff.BackoffPolicy` built from
      ``backoff_s``, or ``backoff`` verbatim when given), clamped to
      the wall-clock budget's remaining time so a retry can never
      sleep past its own deadline; ``fn``
      receives the attempt index so it can derive fresh schedule seeds.
    * :class:`DeadlockError` — recorded as ``livelock`` (the step
      budget turned an infinite polling loop into this error); no
      retry, livelocks are schedule-lottery losses the caller should
      see.
    * :class:`CellTimeoutError` — recorded as ``timeout``.
    * :class:`ValidationError` — recorded as ``validation`` (silent
      corruption caught by the reference checkers).
    * any other :class:`ReproError` — recorded as ``error``.

    Non-:class:`ReproError` exceptions propagate: they indicate bugs in
    the harness, not failures of the simulated hardware.
    """
    if backoff is None and backoff_s > 0.0:
        backoff = BackoffPolicy(base_s=backoff_s)
    start = time.monotonic()
    attempts = 0
    last_message = ""
    for attempt in range(max(0, retries) + 1):
        if (budget is not None and budget.max_seconds is not None
                and time.monotonic() - start > budget.max_seconds):
            return None, GuardedFailure(
                "timeout",
                f"cell exceeded {budget.max_seconds:g}s wall-clock budget "
                f"before attempt {attempt}",
                attempts, time.monotonic() - start)
        attempts += 1
        try:
            return fn(attempt), None
        except SweepInterrupted:
            # raised by the graceful-interrupt signal handler, which
            # can fire at any bytecode — an operator stop, never a
            # recordable cell failure
            raise
        except TransientKernelFault as exc:
            last_message = str(exc)
            if attempt < retries and backoff is not None:
                remaining = None
                if (budget is not None
                        and budget.max_seconds is not None):
                    remaining = (budget.max_seconds
                                 - (time.monotonic() - start))
                delay = backoff.delay(attempt, remaining_s=remaining)
                if delay > 0.0:
                    sleep(delay)
        except CellTimeoutError as exc:
            return None, GuardedFailure(
                "timeout", str(exc), attempts, time.monotonic() - start)
        except DeadlockError as exc:
            return None, GuardedFailure(
                "livelock", str(exc), attempts, time.monotonic() - start)
        except ValidationError as exc:
            return None, GuardedFailure(
                "validation", str(exc), attempts, time.monotonic() - start)
        except ReproError as exc:
            return None, GuardedFailure(
                "error", str(exc), attempts, time.monotonic() - start)
    return None, GuardedFailure(
        "fault",
        f"transient fault persisted through {attempts} attempt(s): "
        f"{last_message}",
        attempts, time.monotonic() - start)


@dataclass
class SweepResult:
    """Outcome of one :meth:`ResilientStudy.sweep` (one device table)."""

    device_key: str
    cells: list  # SpeedupCell | CellFailure, in sweep order

    @property
    def completed(self) -> list[SpeedupCell]:
        return [c for c in self.cells if isinstance(c, SpeedupCell)]

    @property
    def failures(self) -> list[CellFailure]:
        return [c for c in self.cells if isinstance(c, CellFailure)]

    @property
    def coverage(self) -> tuple[int, int]:
        """(completed cells, total cells)."""
        return len(self.completed), len(self.cells)


class ResilientStudy(Study):
    """A :class:`Study` that survives the failures it measures.

    Parameters beyond :class:`Study`'s:

    retries:
        Extra attempts per cell after a transient kernel fault, each
        with a fresh schedule-seed family.
    backoff_s:
        Base of the exponential full-jitter retry backoff
        (:class:`~repro.utils.backoff.BackoffPolicy`; 0 disables
        sleeping).
    budget:
        Per-cell :class:`CellBudget` (wall-clock and SIMT step limits).
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
        refused; :meth:`~repro.core.study.Study.load_results` reads it.
    """

    def __init__(self, reps: int = 9, scale: float = 1.0,
                 validate: bool = False, retries: int = 0,
                 backoff_s: float = 0.0,
                 budget: CellBudget | None = None,
                 faults: FaultPlan | None = None,
                 checkpoint: str | Path | None = None,
                 trace_cache=None, jobs: int | None = None) -> None:
        super().__init__(reps=reps, scale=scale, validate=validate,
                         trace_cache=trace_cache, jobs=jobs)
        if retries < 0:
            raise StudyError(f"retries must be >= 0, got {retries}")
        self.retries = retries
        self.backoff_s = backoff_s
        self.budget = budget or CellBudget()
        self.faults = faults
        if checkpoint is not None and Path(checkpoint).is_file():
            raise StudyError(
                f"checkpoint {checkpoint} is a file, not a result-store "
                "directory; an older build's checkpoint file loads with "
                "Study.load_results()")
        self.store = (None if checkpoint is None else ResultStore(
            checkpoint, reps=reps, scale=scale, faults=faults,
            retries=retries))
        self._failures: dict[tuple, CellFailure] = {}
        #: variant results actually simulated in this process (memoized
        #: or store-served ones do not count) — the observable that
        #: resume tests assert on
        self.cells_executed = 0
        #: variant results served from the checkpoint store
        self.cells_resumed = 0
        #: names of inputs passed in as graphs, whose cells the store
        #: never holds: its address names an input, not its content
        self._direct_inputs: set[str] = set()

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
        """Run one configuration with fault isolation.

        Returns the memoized :class:`RunResult` on success, or a
        :class:`CellFailure` record — never raises for failures of the
        simulated execution itself.
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
                need_output=self.validate)
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
        Leaves the memo and ``cells_executed`` to the caller."""
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
        """Strict view of :meth:`run_cell`: raises on a failed cell.

        Keeps the plain :class:`Study` API working on the resilient
        path (budgets, retries, fault plans, the checkpoint store)
        while preserving exact results when nothing goes wrong.
        """
        out = self.run_cell(algorithm, graph_or_name, device, variant)
        if isinstance(out, CellFailure):
            raise StudyError(f"{out.describe()}: {out.message}")
        return out

    def speedup_cell(self, algorithm: str, graph_or_name,
                     device: str) -> SpeedupCell | CellFailure:
        """Baseline-vs-race-free speedup with fault isolation.

        Both variants always run; a failure of either variant makes the
        cell a :class:`CellFailure`, baseline first.
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

    def sweep(self, device: str, algorithms: list[str],
              inputs: list[str], jobs: int | None = None) -> SweepResult:
        """All cells of one device table, surviving per-cell failures.

        ``jobs > 1`` runs the missing cells on worker processes (workers
        apply the same retry/budget/fault policy and return picklable
        outcome records), then assembles the table from the memo; the
        cells, published store records, and ``save_results`` output
        are bit-identical to the serial path.
        """
        jobs = jobs if jobs is not None else self.jobs
        with self._graceful_interrupt():
            with get_spans().span("study.sweep", device=device, jobs=jobs,
                                  cells=len(algorithms) * len(inputs),
                                  resilient=True) as sp:
                if jobs > 1:
                    sp.set(**self._parallel_prefetch(device, algorithms,
                                                     inputs, jobs))
                cells = [
                    self.speedup_cell(a, name, device)
                    for name in inputs
                    for a in algorithms
                ]
        return SweepResult(device_key=device, cells=cells)

    @contextlib.contextmanager
    def _graceful_interrupt(self):
        """Convert SIGINT/SIGTERM during a sweep into a clean stop.

        The signal raises :class:`~repro.errors.SweepInterrupted` at
        the next bytecode boundary; every finished cell is already in
        the checkpoint store, so a rerun with the same checkpoint
        executes only the rest.  The CLI maps the exception to exit
        code 3.  Outside the main thread — or on platforms without
        these signals — the sweep runs unguarded, unchanged.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def _handler(signum, frame):
            name = signal.Signals(signum).name
            raise SweepInterrupted(
                f"sweep interrupted by {name}; every finished cell is "
                "checkpointed — rerun with the same --checkpoint")

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(OSError, ValueError):
                previous[sig] = signal.signal(sig, _handler)
        try:
            yield
        finally:
            for sig, old in previous.items():
                with contextlib.suppress(OSError, ValueError):
                    signal.signal(sig, old)

    # ------------------------------------------------------------------
    # Parallel execution hooks (see repro.core.parallel)
    # ------------------------------------------------------------------
    def _cell_done(self, key: tuple) -> bool:
        return key in self._results or key in self._failures

    def _worker_config(self):
        return replace(
            super()._worker_config(), resilient=True,
            retries=self.retries, backoff_s=self.backoff_s,
            budget=self.budget, faults=self.faults)

    def _replays_in_parent(self) -> bool:
        # faulted runs never touch the trace cache
        return super()._replays_in_parent() and self.faults is None

    def _merge_parallel_record(self, record: dict) -> None:
        kind = record.get("kind")
        if kind in ("telemetry", "graph"):
            super()._merge_parallel_record(record)
            return
        variant = Variant(record["variant"])
        key = (record["algorithm"], record["input"], record["device"],
               variant)
        if key in self._results or key in self._failures:
            return
        if kind == "failure":
            self._failures[key] = CellFailure.from_record(record)
        else:
            super()._merge_parallel_record(record)
        if kind == "stored":
            self.cells_resumed += 1
            return
        # each other record is one cell a worker actually executed (the
        # parent only submits cells missing from memo and store)
        self.cells_executed += 1
        if kind == "result":
            self._cell_finished(*key[:3])

    def failures(self) -> list[CellFailure]:
        """Every failure recorded so far."""
        return list(self._failures.values())

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
