"""Property-check harness: explore → detect → minimize → replay.

:func:`check` is the front door of the ``repro.check`` subsystem.  It
takes a kernel (or a :class:`Program`, or a named pattern from
:mod:`repro.patterns`), systematically explores its schedule space via
:class:`~repro.check.explore.ScheduleExplorer`, race-checks every
execution with the vector-clock engine, evaluates an optional result
invariant (e.g. one of the :mod:`repro.algorithms.verify` checkers),
delta-debugs the first failing schedules down to minimal preemption
sets, and certifies that replaying each minimized decision log
reproduces the identical failing memory image.

Fault plans from :mod:`repro.gpu.faults` compose: pass ``faults=`` a
:class:`~repro.gpu.faults.FaultPlan` and every explored execution runs
under the same deterministic fault stream, so the explorer searches
schedules *of the faulted program*.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.variants import Variant
from repro.errors import DeadlockError, ReproError, TransientKernelFault
from repro.gpu.faults import FaultPlan
from repro.gpu.memory import GlobalMemory
from repro.gpu.racecheck import RaceDetector, RaceReport
from repro.gpu.simt import SimtExecutor
from repro.check.explore import (
    BUDGETS,
    ExploreBudget,
    ExploreResult,
    RunOutcome,
    ScheduleExplorer,
)
from repro.check.replay import (
    DecisionLog,
    DeviationScheduler,
    MinimizeResult,
    ReplayScheduler,
    deviations_of,
    minimize_deviations,
)

__all__ = ["Program", "ScheduleFailure", "CheckReport", "check",
           "program_from_pattern", "replay_failure"]


@dataclass(frozen=True)
class Program:
    """A complete checkable unit: allocation, launch sequence, invariant.

    ``setup(mem)`` allocates arrays and returns the launch arguments;
    ``execute(executor, handles)`` performs the kernel launch(es) —
    including any host-side writes between launches; ``invariant(mem,
    handles)`` returns True iff the final memory state is acceptable
    (None skips result checking and relies on race detection alone).
    """

    name: str
    setup: Callable[[GlobalMemory], tuple]
    execute: Callable[[SimtExecutor, tuple], None]
    invariant: Callable[[GlobalMemory, tuple], bool] | None = None


def _single_launch_program(name: str, kernel: Callable, num_threads: int,
                           setup: Callable,
                           invariant: Callable | None,
                           block_dim: int | None) -> Program:
    bd = block_dim if block_dim is not None else max(1, num_threads)

    def execute(executor: SimtExecutor, handles: tuple) -> None:
        executor.launch(kernel, num_threads, *handles, block_dim=bd)

    return Program(name=name, setup=setup, execute=execute,
                   invariant=invariant)


def program_from_pattern(name: str,
                         variant: Variant = Variant.BASELINE) -> Program:
    """Wrap one :mod:`repro.patterns` corpus entry as a checkable
    program — including multi-launch drivers like ``kernel_boundary``."""
    from repro.patterns.library import execute_pattern, get_pattern

    pattern = get_pattern(name)
    kernel, n_threads, setup, pat_check = pattern.build(variant)

    def execute(executor: SimtExecutor, handles: tuple) -> None:
        execute_pattern(name, kernel, n_threads, executor, handles)

    def invariant(mem: GlobalMemory, handles: tuple) -> bool:
        return bool(pat_check(mem, handles))

    return Program(name=f"{name}/{variant.value}", setup=setup,
                   execute=execute, invariant=invariant)


@dataclass
class ScheduleFailure:
    """One schedule under which the program misbehaved."""

    kind: str                          #: ``race`` | ``invariant``
    detail: str
    log: DecisionLog                   #: the failing schedule as recorded
    minimized: MinimizeResult | None = None
    #: memory digest of the (minimized, else original) failing state —
    #: certified identical across two independent replays
    fingerprint: bytes | None = field(default=None, repr=False)
    replay_verified: bool = False

    @property
    def repro_log(self) -> DecisionLog:
        """The schedule to hand a human: minimized when available."""
        return self.minimized.log if self.minimized else self.log


@dataclass
class CheckReport:
    """Everything one :func:`check` call established."""

    program: str
    explore: ExploreResult
    races: list[RaceReport]
    failures: list[ScheduleFailure]
    naive: ExploreResult | None = None     #: the reduction baseline

    @property
    def ok(self) -> bool:
        return not self.races and not self.failures

    @property
    def dpor_reduction(self) -> float | None:
        """Naive-DFS schedules per DPOR schedule (> 1 means the
        reduction paid off); None unless ``compare_naive`` ran."""
        if self.naive is None or not self.explore.schedules:
            return None
        return self.naive.schedules / self.explore.schedules

    def summary(self) -> str:
        ex = self.explore
        lines = [
            f"program:            {self.program}",
            f"verdict:            {'PASS' if self.ok else 'FAIL'}",
            f"schedules explored: {ex.schedules}"
            f" ({ex.stop_reason.replace('_', ' ')})",
            f"pruned:             {ex.redundant_pruned} sleep-set, "
            f"{ex.preemption_pruned} preemption-bound, "
            f"{ex.dedupe_pruned} state-dedupe",
            f"truncated runs:     {ex.truncated_runs}",
            f"distinct finals:    {ex.distinct_final_states}",
            f"races:              {len(self.races)}"
            f" ({sum(1 for r in self.races if r.predicted)} predicted)",
            f"failures:           {len(self.failures)}",
            f"wall time:          {ex.wall_seconds:.2f}s"
            f" ({ex.schedules_per_second:.0f} schedules/s)",
        ]
        if self.naive is not None:
            reduction = self.dpor_reduction
            lines.append(
                f"naive baseline:     {self.naive.schedules} schedules"
                + (f" → DPOR reduction {reduction:.2f}x"
                   if reduction else ""))
        for race in self.races[:5]:
            lines.append(f"  race: {race.describe()}")
        for failure in self.failures:
            mini = failure.minimized
            extra = (f"; minimized to {len(mini.deviations)} deviation(s) "
                     f"in {mini.runs_used} runs" if mini else "")
            replay = " [replay-verified]" if failure.replay_verified else ""
            lines.append(f"  {failure.kind}: {failure.detail}{extra}"
                         f" — schedule {failure.repro_log.compact()}"
                         f"{replay}")
        return "\n".join(lines)


# ----------------------------------------------------------------------

def _coerce_program(target, num_threads, setup, invariant,
                    block_dim, variant) -> Program:
    if isinstance(target, Program):
        return target
    if isinstance(target, str):
        return program_from_pattern(target, variant)
    if not callable(target):
        raise ReproError(
            f"check() target must be a Program, a pattern name, or a "
            f"kernel function, got {type(target).__name__}")
    if num_threads is None or setup is None:
        raise ReproError(
            "checking a bare kernel requires num_threads= and setup=")
    return _single_launch_program(
        getattr(target, "__name__", "kernel"), target, num_threads,
        setup, invariant, block_dim)


def _make_runner(program: Program, budget: ExploreBudget,
                 faults: FaultPlan | None,
                 register_cache_plain: bool,
                 memory_model=None, schedulable_drains: bool = False):
    """Build the explorer's runner: one fresh, fully deterministic
    execution of ``program`` per call."""

    def runner(scheduler, probe=None) -> RunOutcome:
        injector = (faults.injector("check", program.name)
                    if faults is not None else None)
        mem = GlobalMemory(faults=injector)
        handles = program.setup(mem)
        executor = SimtExecutor(
            mem, scheduler=scheduler,
            register_cache_plain=register_cache_plain,
            record_events=True,
            max_steps=budget.max_steps_per_run,
            memory_model=memory_model,
            schedulable_drains=schedulable_drains,
            faults=injector)
        if probe is not None:
            probe.executor = executor
            executor.step_probe = probe
        error: Exception | None = None
        check_ok: bool | None = None
        try:
            program.execute(executor, handles)
        except (DeadlockError, TransientKernelFault) as exc:
            error = exc
        if error is None and program.invariant is not None:
            check_ok = bool(program.invariant(mem, handles))
        return RunOutcome(events=executor.events,
                          fingerprint=mem.fingerprint(),
                          error=error, check_ok=check_ok)

    return runner


def replay_failure(program: Program, log: DecisionLog,
                   faults: FaultPlan | None = None,
                   budget: ExploreBudget | str = "default",
                   register_cache_plain: bool = True,
                   memory_model=None) -> RunOutcome:
    """Re-execute one recorded schedule bit-deterministically."""
    if isinstance(budget, str):
        budget = BUDGETS[budget]
    runner = _make_runner(program, budget, faults,
                          register_cache_plain,
                          memory_model=memory_model)
    return runner(ReplayScheduler(log))


def check(target, num_threads: int | None = None, *,
          setup: Callable | None = None,
          invariant: Callable | None = None,
          block_dim: int | None = None,
          variant: Variant = Variant.BASELINE,
          budget: ExploreBudget | str = "default",
          mode: str = "dpor",
          faults: FaultPlan | str | None = None,
          compare_naive: bool = False,
          minimize: bool = True,
          max_minimized: int = 3,
          stop_on_failure: bool = False,
          state_dedupe: bool = False,
          register_cache_plain: bool = True,
          memory_model=None) -> CheckReport:
    """Systematically check a kernel/program for races and bad results.

    ``target`` is a :class:`Program`, a pattern name from
    :mod:`repro.patterns`, or a kernel generator function (then
    ``num_threads`` and ``setup`` are required, and ``invariant`` may be
    e.g. a closure over :func:`repro.algorithms.verify.check_components`).

    ``memory_model`` selects the consistency semantics both for
    execution (buffered stores etc.) and for the race detector's atomic
    happens-before edges; None keeps the paper's relaxed default.

    Returns a :class:`CheckReport`; ``report.ok`` is True iff no
    schedule produced a race (actual or predicted) or an invariant
    violation within the budget.
    """
    program = _coerce_program(target, num_threads, setup, invariant,
                              block_dim, variant)
    if isinstance(budget, str):
        try:
            budget = BUDGETS[budget]
        except KeyError:
            raise ReproError(
                f"unknown budget {budget!r}; known: "
                f"{sorted(BUDGETS)}") from None
    if isinstance(faults, str):
        faults = FaultPlan.parse(faults)

    runner = _make_runner(program, budget, faults,
                          register_cache_plain,
                          memory_model=memory_model)
    detector = RaceDetector(memory_model=memory_model)
    # consecutive runs replay a shared decision prefix: analyse each
    # from where its events first differ from the previous run's
    session = detector.session()

    races: list[RaceReport] = []
    seen_sites: set[tuple] = set()
    failures: list[ScheduleFailure] = []

    def on_run(outcome: RunOutcome, log: DecisionLog) -> bool:
        fresh = []
        for report in session.analyze(outcome.events):
            if report.site_key not in seen_sites:
                seen_sites.add(report.site_key)
                fresh.append(report)
        races.extend(fresh)
        kinds = {f.kind for f in failures}
        if fresh and "race" not in kinds:
            failures.append(ScheduleFailure(
                kind="race",
                detail=fresh[0].describe(),
                log=log, fingerprint=outcome.fingerprint))
        if outcome.check_ok is False and "invariant" not in kinds:
            failures.append(ScheduleFailure(
                kind="invariant",
                detail=f"result check failed for {program.name}",
                log=log, fingerprint=outcome.fingerprint))
        return stop_on_failure and bool(failures)

    explorer = ScheduleExplorer(runner, mode=mode, budget=budget,
                                on_run=on_run, state_dedupe=state_dedupe)
    explore_result = explorer.explore()

    for failure in failures[:max_minimized]:
        _minimize_failure(failure, program, runner, detector,
                          minimize=minimize)

    naive_result: ExploreResult | None = None
    if compare_naive and mode != "naive":
        naive_runner = _make_runner(program, budget, faults,
                                    register_cache_plain,
                                    memory_model=memory_model)
        naive_result = ScheduleExplorer(
            naive_runner, mode="naive", budget=budget,
            state_dedupe=state_dedupe).explore()

    return CheckReport(program=program.name, explore=explore_result,
                       races=races, failures=failures,
                       naive=naive_result)


# ----------------------------------------------------------------------

def _minimize_failure(failure: ScheduleFailure, program: Program,
                      runner, detector: RaceDetector,
                      minimize: bool) -> None:
    """Shrink one failing schedule and certify replay determinism."""
    def reproduces(outcome: RunOutcome) -> bool:
        # a race failure reproduces iff *some* race shows up again (not
        # necessarily at the identical byte: minimization may surface an
        # equivalent racy pair at a sibling site)
        if failure.kind == "invariant":
            return outcome.check_ok is False
        return bool(detector.analyze(outcome.events))

    def still_fails(sched: DeviationScheduler) -> bool:
        return reproduces(runner(sched))

    # replay the recorded log once: recovers the runnable sets needed
    # for the deviation encoding and doubles as a determinism check
    replayer = ReplayScheduler(failure.log)
    replay_outcome = runner(replayer)
    if not reproduces(replay_outcome):
        return  # not deterministic under replay; leave the raw log
    launch_starts = _launch_starts(failure.log)
    deviations = deviations_of(failure.log.flat(),
                               replayer.runnable_sets, launch_starts)

    if minimize:
        if deviations:
            try:
                failure.minimized = minimize_deviations(
                    deviations, still_fails)
            except ReproError:
                pass  # non-deterministic shrink; keep the raw log
        else:
            # already the canonical schedule: nothing to shrink
            failure.minimized = MinimizeResult(
                log=failure.log, deviations={}, initial_deviations=0)

    # certify: two independent replays of the repro schedule reach the
    # identical memory image
    first = runner(ReplayScheduler(failure.repro_log))
    second = runner(ReplayScheduler(failure.repro_log))
    if (first.fingerprint is not None
            and first.fingerprint == second.fingerprint
            and reproduces(first)):
        failure.fingerprint = first.fingerprint
        failure.replay_verified = True
        if failure.minimized is not None:
            failure.minimized.fingerprint = first.fingerprint


def _launch_starts(log: DecisionLog) -> list[int]:
    starts = []
    total = 0
    for launch in log.launches:
        starts.append(total)
        total += len(launch)
    return starts
