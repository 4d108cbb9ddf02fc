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
* after every cell the study checkpoints atomically (temp file +
  rename), and a later run can ``--resume`` to execute only the
  missing cells;
* partial results still render: see
  :func:`repro.core.report.resilient_speedup_table`, which prints
  ``FAIL(reason)`` cells and coverage-annotated geomeans.

With no fault plan and default budgets, :class:`ResilientStudy`
reproduces plain :class:`Study` results bit-identically — the guard
rails cost nothing until something goes wrong.
"""

from __future__ import annotations

import contextlib
import json
import os
import signal
import threading
import time
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

from repro.core.study import RunResult, SpeedupCell, Study
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
from repro.perf.engine import PerfRun, run_algorithm
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.telemetry.spans import get_spans
from repro.utils.atomicio import atomic_write_text
from repro.utils.backoff import BackoffPolicy

CHECKPOINT_FORMAT = 3
"""On-disk checkpoint format version (results + failures).

Format 3 adds a CRC32 content checksum (``crc``); format-2 files (no
checksum) still load.  Anything else is treated as a damaged
generation and falls back to the rotated ``.prev`` file."""

_LOADABLE_FORMATS = (2, CHECKPOINT_FORMAT)


def checkpoint_crc(payload: dict) -> int:
    """CRC32 over the checkpoint's record content (canonical JSON of
    the results and failures lists), independent of file formatting."""
    body = [payload.get("results", []), payload.get("failures", [])]
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _render_records(cache: dict, outcomes: dict) -> dict:
    """Each outcome's checkpoint rendering, keyed like ``outcomes``.

    An entry is ``(outcome, indented, canonical)``: the record's
    ``json.dumps(indent=1)`` text as it sits two levels deep in the
    file, and its ``sort_keys`` text for :func:`checkpoint_crc`.
    Entries of ``cache`` are reused while the same object sits under
    the same key; anything else is rendered afresh.  A JSON string
    never holds a raw newline, so re-indenting every line is exact.
    """
    fresh = {}
    for key, outcome in outcomes.items():
        entry = cache.get(key)
        if entry is None or entry[0] is not outcome:
            record = outcome.to_record()
            entry = (outcome,
                     json.dumps(record, indent=1).replace("\n", "\n  "),
                     json.dumps(record, sort_keys=True))
        fresh[key] = entry
    return fresh


def _indented_list(entries) -> str:
    """``json.dumps(indent=1)`` of a list one level deep, from its
    items' pre-indented texts."""
    if not entries:
        return "[]"
    return "[\n  " + ",\n  ".join(e[1] for e in entries) + "\n ]"


class _CheckpointDamaged(StudyError):
    """Internal: one checkpoint *generation* is unreadable (torn,
    bit-flipped, or wrong format) — distinct from a configuration
    mismatch, which must not silently fall back."""


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
    reason: str           # livelock | timeout | validation | fault | error
    message: str
    attempts: int
    elapsed_s: float

    def describe(self) -> str:
        return (f"FAIL({self.reason}) {self.algorithm}/{self.input_name}/"
                f"{self.device_key}/{self.variant}")

    def to_record(self) -> dict:
        """The JSON record every writer stores for this failure
        (checkpoints, pool and fleet workers).  The key order is part
        of the checkpoint's bytes."""
        return {"algorithm": self.algorithm, "input": self.input_name,
                "device": self.device_key, "variant": self.variant,
                "reason": self.reason, "message": self.message,
                "attempts": self.attempts, "elapsed_s": self.elapsed_s}

    @classmethod
    def from_record(cls, record: dict) -> "CellFailure":
        """The failure a :meth:`to_record` record describes; the last
        three fields default, as in checkpoints of older builds."""
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
        Path for incremental checkpoints: after every cell the full
        result + failure state is re-written atomically.  Use
        :meth:`load_checkpoint` (or the CLI's ``--resume``) to continue
        an interrupted sweep, executing only the missing cells.
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
        self.checkpoint = None if checkpoint is None else Path(checkpoint)
        self._failures: dict[tuple, CellFailure] = {}
        #: cells actually simulated in this process (memoized or
        #: checkpoint-loaded cells do not count) — the observable that
        #: resume tests assert on
        self.cells_executed = 0
        #: times :meth:`load_checkpoint` had to fall back to the
        #: rotated ``.prev`` generation
        self.checkpoint_fallbacks = 0
        #: malformed records skipped (salvaged around) during load
        self.checkpoint_salvaged = 0
        #: autosave attempts that failed with an OSError (the sweep
        #: keeps running; checkpointing is an optimization)
        self.checkpoint_write_errors = 0
        #: checkpoint renderings of each result and failure, reused by
        #: every save (see _render_records)
        self._rendered_results: dict[tuple, tuple] = {}
        self._rendered_failures: dict[tuple, tuple] = {}
        #: (path, bytes) of the last checkpoint written without error
        self._last_written: tuple[Path, bytes] | None = None

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

        algo = get_algorithm(algorithm)
        spec = get_device(device)
        graph = self._prepare_graph(algo, graph_or_name)
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
                run = run_algorithm(
                    algo, graph, spec, variant,
                    seed=self._rep_seed(rep, attempt),
                    faults=self._injector(key, rep, attempt),
                    trace_cache=self.trace_cache,
                    need_output=self.validate)
                if self.validate:
                    self._validate(algo, graph, run)
                runtimes.append(run.runtime_ms)
                last = run
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
        self.cells_executed += 1
        if failure is not None:
            record = CellFailure(
                algorithm=algorithm, input_name=name, device_key=device,
                variant=variant.value, reason=failure.reason,
                message=failure.message, attempts=failure.attempts,
                elapsed_s=failure.elapsed_s)
            self._failures[key] = record
            self._autosave()
            return record
        self._results[key] = value
        self._autosave()
        return value

    def run(self, algorithm: str, graph_or_name, device: str,
            variant: Variant) -> RunResult:
        """Strict view of :meth:`run_cell`: raises on a failed cell.

        Keeps the plain :class:`Study` API working on the resilient
        path (budgets, retries, fault plans, per-cell checkpoints)
        while preserving exact results when nothing goes wrong.
        """
        out = self.run_cell(algorithm, graph_or_name, device, variant)
        if isinstance(out, CellFailure):
            raise StudyError(f"{out.describe()}: {out.message}")
        return out

    def speedup_cell(self, algorithm: str, graph_or_name,
                     device: str) -> SpeedupCell | CellFailure:
        """Baseline-vs-race-free speedup with fault isolation.

        Both variants always run (so a checkpoint records the surviving
        variant even when the other fails); a failure of either variant
        makes the cell a :class:`CellFailure`, baseline first.
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

        ``jobs > 1`` runs the missing cells on a process pool (workers
        apply the same retry/budget/fault policy and return picklable
        outcome records), then assembles the table from the memo; the
        cells, checkpoints, and ``save_results`` output are
        bit-identical to the serial path.
        """
        jobs = jobs if jobs is not None else self.jobs
        with self._graceful_interrupt():
            with get_spans().span("study.sweep", device=device, jobs=jobs,
                                  cells=len(algorithms) * len(inputs),
                                  resilient=True):
                if jobs > 1:
                    self._parallel_prefetch(device, algorithms, inputs,
                                            jobs)
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
        the next bytecode boundary; every completed cell has already
        been checkpointed by ``_autosave``, and one final checkpoint
        write (with the default handlers restored, so a second signal
        kills hard) guarantees the file reflects the last finished
        cell.  The CLI maps the exception to exit code 3.  Outside the
        main thread — or on platforms without these signals — the sweep
        runs unguarded, unchanged.
        """
        if threading.current_thread() is not threading.main_thread():
            yield
            return

        def _handler(signum, frame):
            name = signal.Signals(signum).name
            raise SweepInterrupted(
                f"sweep interrupted by {name}; checkpoint is consistent "
                "as of the last completed cell — rerun with --resume")

        previous = {}
        for sig in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(OSError, ValueError):
                previous[sig] = signal.signal(sig, _handler)
        try:
            yield
        except SweepInterrupted:
            for sig, old in previous.items():
                signal.signal(sig, old)
            with contextlib.suppress(OSError):
                self._autosave()
            raise
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

    def _merge_parallel_record(self, record: dict) -> None:
        if record.get("kind") == "telemetry":
            self._merge_telemetry_record(record)
            return
        variant = Variant(record["variant"])
        key = (record["algorithm"], record["input"], record["device"],
               variant)
        if key in self._results or key in self._failures:
            return
        if record["kind"] == "failure":
            self._failures[key] = CellFailure.from_record(record)
        else:
            super()._merge_parallel_record(record)
        # each record is one cell a worker actually executed (the
        # parent only submits cells missing from memo and checkpoint)
        self.cells_executed += 1
        self._autosave()

    def failures(self) -> list[CellFailure]:
        """Every failure recorded (or checkpoint-loaded) so far."""
        return list(self._failures.values())

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    @staticmethod
    def _prev_path(path: Path) -> Path:
        """The rotated previous-generation file next to ``path``."""
        return path.with_name(path.name + ".prev")

    def _count_host(self, name: str, help: str) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter(name, help, scope=SCOPE_PROCESS).inc(1)

    def _autosave(self) -> None:
        """Checkpoint after a cell, surviving checkpoint-write failure.

        A full scratch disk must not kill a sweep whose actual results
        live in memory: the error is counted
        (``repro_host_checkpoint_write_errors_total``) and the sweep
        continues — the next cell retries the write.
        """
        if self.checkpoint is None:
            return
        try:
            self.save_checkpoint(self.checkpoint)
        except OSError:
            self.checkpoint_write_errors += 1
            self._count_host(
                "repro_host_checkpoint_write_errors_total",
                "Checkpoint autosaves that failed with an OSError")

    def save_checkpoint(self, path: str | Path | None = None) -> None:
        """Atomically persist all results *and* failures.

        Called after every cell when a checkpoint path is configured; a
        crash between cells loses at most the in-flight cell.  The
        payload carries a CRC32 content checksum, and the previous
        generation — *verified* before rotation, so a torn current file
        never displaces a good one — is kept as ``<name>.prev`` for
        :meth:`load_checkpoint` to fall back to.
        """
        path = Path(path) if path is not None else self.checkpoint
        if path is None:
            raise StudyError("no checkpoint path configured")
        text = self._checkpoint_text()
        self._rotate_generation(path)
        atomic_write_text(path, text)
        self._last_written = (path, text.encode())

    def _checkpoint_text(self) -> str:
        """The checkpoint file's text, byte for byte
        ``json.dumps(payload, indent=1)`` of the format-3 payload
        (format, reps, scale, results, failures, crc), joined from the
        cached per-record renderings so a save costs no re-encoding of
        the records it wrote before."""
        self._rendered_results = _render_records(self._rendered_results,
                                                 self._results)
        self._rendered_failures = _render_records(self._rendered_failures,
                                                  self._failures)
        results = list(self._rendered_results.values())
        failures = list(self._rendered_failures.values())
        # checkpoint_crc's canonical body, from the same pieces
        canonical = ("[[" + ", ".join(e[2] for e in results) + "], ["
                     + ", ".join(e[2] for e in failures) + "]]")
        return (f'{{\n "format": {CHECKPOINT_FORMAT},'
                f'\n "reps": {json.dumps(self.reps)},'
                f'\n "scale": {json.dumps(self.scale)},'
                f'\n "results": {_indented_list(results)},'
                f'\n "failures": {_indented_list(failures)},'
                f'\n "crc": {zlib.crc32(canonical.encode())}\n}}')

    def _rotate_generation(self, path: Path) -> None:
        """Keep the last *good* generation as ``.prev``.

        Only a generation that still parses and passes its checksum is
        rotated; a corrupt current file (torn by an earlier injected or
        real fault) is left in place so it cannot clobber the last good
        ``.prev``.  A file holding exactly the bytes this study last
        wrote there is that good generation, so only different bytes
        pay for the full check.
        """
        try:
            data = path.read_bytes()
        except OSError:
            return
        if self._last_written != (path, data):
            try:
                self._read_generation(path)
            except StudyError:
                return
        with contextlib.suppress(OSError):
            os.replace(path, self._prev_path(path))

    def _read_generation(self, path: Path) -> dict:
        """Parse + integrity-check one checkpoint generation.

        Raises :class:`_CheckpointDamaged` for anything recovery should
        fall back from (unreadable, undecodable, torn, checksum
        mismatch, unknown format) and plain :class:`StudyError` for a
        reps/scale configuration mismatch, which must surface, not be
        papered over by the ``.prev`` generation.
        """
        try:
            payload = json.loads(Path(path).read_bytes().decode())
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise _CheckpointDamaged(
                f"corrupt or partial checkpoint {path}: {exc}") from exc
        if not isinstance(payload, dict) or "results" not in payload:
            raise _CheckpointDamaged(
                f"{path} is not a study checkpoint file")
        if payload.get("format") not in _LOADABLE_FORMATS:
            raise _CheckpointDamaged(
                f"checkpoint {path} has unsupported format "
                f"{payload.get('format')!r} (loadable: "
                f"{_LOADABLE_FORMATS})")
        if "crc" in payload and payload["crc"] != checkpoint_crc(payload):
            raise _CheckpointDamaged(
                f"checkpoint {path} failed its content checksum "
                "(bit rot or partial overwrite)")
        if (payload.get("reps") != self.reps
                or payload.get("scale") != self.scale):
            raise StudyError(
                "saved results were produced with a different reps/scale "
                f"({payload.get('reps')}/{payload.get('scale')} vs "
                f"{self.reps}/{self.scale})")
        return payload

    def _salvage_payload(self, payload: dict) -> tuple[int, int]:
        """Stage every parseable record, skip damaged ones, commit once.

        All-or-nothing against *exceptions*: the memo and failure map
        are only touched after the whole payload has been staged into
        locals, so a malformed record can never leave the study
        half-loaded.  Damaged records are skipped (and counted as
        ``checkpoint_salvaged``) rather than discarding the generation.
        """
        staged_results: dict[tuple, RunResult] = {}
        staged_failures: dict[tuple, CellFailure] = {}
        skipped = 0
        for rec in payload.get("results", []):
            try:
                result = RunResult.from_record(rec)
                staged_results[(result.algorithm, result.input_name,
                                result.device_key, result.variant)] = result
            except (KeyError, TypeError, ValueError):
                skipped += 1
        for rec in payload.get("failures", []):
            try:
                key = (rec["algorithm"], rec["input"], rec["device"],
                       Variant(rec["variant"]))
                staged_failures[key] = CellFailure.from_record(rec)
            except (KeyError, TypeError, ValueError):
                skipped += 1
        if skipped:
            self.checkpoint_salvaged += skipped
            reg = get_registry()
            if reg.enabled:
                reg.counter("repro_host_checkpoint_salvaged_total",
                            "Malformed checkpoint records skipped during "
                            "a salvage load", scope=SCOPE_PROCESS
                            ).inc(skipped)
        self._results.update(staged_results)
        self._failures.update(staged_failures)
        return len(staged_results), len(staged_failures)

    def load_checkpoint(self, path: str | Path | None = None
                        ) -> tuple[int, int]:
        """Resume from a checkpoint; returns (results, failures) loaded.

        Loaded cells are memoized, so a subsequent :meth:`sweep`
        executes only the missing ones (``cells_executed`` counts just
        those).  Previously failed cells stay failed — delete their
        records from the file to re-attempt them.

        Recovery ladder: a damaged current generation (torn, checksum
        mismatch, unknown format) falls back to the rotated ``.prev``
        generation (counted in ``checkpoint_fallbacks`` and
        ``repro_host_checkpoint_fallbacks_total``); within a readable
        generation, malformed records are skipped and the rest
        salvaged, with the commit staged so the study is never left
        half-loaded.  Only when *every* generation is unreadable — or
        the file was written with a different reps/scale — does this
        raise :class:`~repro.errors.StudyError`.
        """
        path = Path(path) if path is not None else self.checkpoint
        if path is None:
            raise StudyError("no checkpoint path configured")
        damage: _CheckpointDamaged | None = None
        for fallback, candidate in enumerate(
                (path, self._prev_path(path))):
            try:
                payload = self._read_generation(candidate)
            except _CheckpointDamaged as exc:
                damage = damage or exc
                continue
            if fallback:
                self.checkpoint_fallbacks += 1
                self._count_host(
                    "repro_host_checkpoint_fallbacks_total",
                    "Checkpoint loads served by the rotated .prev "
                    "generation after the current one was damaged")
            return self._salvage_payload(payload)
        assert damage is not None
        raise damage
