"""The resilience policy vocabulary of the study framework.

The paper's sweeps (Tables IV-IX) run hundreds of (algorithm x input x
device x variant x repetition) cells, and its own Section II argues that
racy kernels can livelock, tear words, and corrupt results.  Every cell
of a :class:`~repro.core.study.Study` therefore runs under the policy
this module names:

* :func:`run_guarded` classifies a cell's failure — a
  :class:`DeadlockError` livelock, a :class:`CellBudget` wall-clock
  timeout, a validation failure, a persistent transient fault — instead
  of letting it end the sweep, and retries transient faults
  (:class:`~repro.errors.TransientKernelFault`) with fresh schedule
  seeds and exponential backoff;
* a failed cell becomes a structured :class:`CellFailure` record, and a
  :class:`SweepResult` holds one device table's cells and failures;
* partial results still render: :func:`repro.core.report.speedup_table`
  prints ``FAIL(reason)`` cells and coverage-annotated geomeans.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import (
    CellTimeoutError,
    DeadlockError,
    ReproError,
    SweepInterrupted,
    TransientKernelFault,
    ValidationError,
)
from repro.utils.backoff import BackoffPolicy


@dataclass(frozen=True)
class CellBudget:
    """Per-cell execution limits.

    ``max_seconds`` is a wall-clock budget checked between repetitions
    and attempts; exceeding it records a ``timeout`` failure.  Sweep
    cells run at the performance level, which always terminates, so a
    cell's ``livelock`` comes only from an injected stuck-stale fault.
    """

    max_seconds: float | None = None


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
    * :class:`DeadlockError` — recorded as ``livelock`` (an injected
      stuck-stale fault, or a :class:`~repro.gpu.simt.SimtExecutor`
      step budget in kernel-level code, turned an infinite polling
      loop into this error); no retry, livelocks are schedule-lottery
      losses the caller should see.
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
    """Outcome of one :meth:`~repro.core.study.Study.sweep` (one device
    table)."""

    device_key: str
    cells: list  # SpeedupCell | CellFailure, in sweep order

    @property
    def completed(self) -> list:
        """The cells that are :class:`~repro.core.study.SpeedupCell`."""
        return [c for c in self.cells if not isinstance(c, CellFailure)]

    @property
    def failures(self) -> list[CellFailure]:
        return [c for c in self.cells if isinstance(c, CellFailure)]

    @property
    def coverage(self) -> tuple[int, int]:
        """(completed cells, total cells)."""
        return len(self.completed), len(self.cells)


def __getattr__(name: str):
    # ``ResilientStudy`` is the study class under its former name,
    # bound lazily: repro.core.study imports this module
    if name == "ResilientStudy":
        from repro.core.study import Study

        return Study
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
