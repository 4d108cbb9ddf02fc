"""Schedule recording, deterministic replay, and failure minimization.

The SIMT interpreter is deterministic once the scheduler's decisions
are fixed, so a schedule is fully described by the sequence of thread
picks — one per scheduling decision, grouped per kernel launch.  This
module provides:

* :class:`DecisionLog` — the compact decision record, with JSON and
  one-line string encodings;
* :class:`RecordingScheduler` — wraps any scheduler and records the log
  of whatever it decides, so a failing stress-test seed can be captured
  once and replayed forever;
* :class:`ReplayScheduler` — bit-deterministic strict replay of a log
  (divergence raises :class:`~repro.errors.ScheduleReplayError`);
* :class:`DeviationScheduler` — a log expressed *relative to* the
  deterministic ``stay`` policy as a sparse set of deviations, which is
  the representation delta-debugging shrinks;
* :func:`minimize_deviations` — ddmin over the deviation set: shrink a
  failing schedule to a minimal set of forced context switches before
  presenting it to a human.
"""

from __future__ import annotations

import json
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Callable

from repro.errors import ScheduleReplayError
from repro.gpu.interleave import PendingOp, Scheduler


def stay_policy(runnable: Sequence[int], last: int | None) -> int:
    """The canonical preemption-free default: keep running the previous
    thread while it can run, else fall to the lowest-numbered runnable
    thread.  Both the explorer's free phase and the deviation encoding
    are defined against this policy."""
    if last is not None and last in runnable:
        return last
    return min(runnable)


@dataclass(frozen=True)
class DecisionLog:
    """One recorded schedule: thread picks per scheduling decision,
    grouped by kernel launch."""

    launches: tuple[tuple[int, ...], ...]

    @property
    def total_decisions(self) -> int:
        return sum(len(l) for l in self.launches)

    def flat(self) -> list[int]:
        return [pick for launch in self.launches for pick in launch]

    # -- encodings -----------------------------------------------------
    def compact(self) -> str:
        """One-line form, e.g. ``"0,0,1,1/1,0"`` (launches split by /)."""
        return "/".join(",".join(str(p) for p in launch)
                        for launch in self.launches)

    @classmethod
    def from_compact(cls, text: str) -> "DecisionLog":
        try:
            return cls(tuple(
                tuple(int(p) for p in part.split(",") if p != "")
                for part in text.strip().split("/")))
        except ValueError as exc:
            raise ScheduleReplayError(
                f"malformed decision log {text!r}: {exc}") from None

    def to_json(self) -> str:
        return json.dumps({"version": 1,
                           "launches": [list(l) for l in self.launches]})

    @classmethod
    def from_json(cls, text: str) -> "DecisionLog":
        try:
            data = json.loads(text)
            return cls(tuple(tuple(int(p) for p in launch)
                             for launch in data["launches"]))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ScheduleReplayError(
                f"malformed decision log JSON: {exc}") from None

    @classmethod
    def from_decisions(cls, picks: Sequence[int],
                       launch_starts: Sequence[int]) -> "DecisionLog":
        """Group a flat pick list by the recorded launch boundaries."""
        starts = list(launch_starts) or [0]
        bounds = starts + [len(picks)]
        return cls(tuple(tuple(picks[bounds[i]:bounds[i + 1]])
                         for i in range(len(starts))))


class RecordingScheduler(Scheduler):
    """Delegates to ``base`` and records every decision it makes."""

    def __init__(self, base: Scheduler) -> None:
        self._base = base
        self.picks: list[int] = []
        self.launch_starts: list[int] = []

    @property
    def needs_pending(self) -> bool:
        # asked before every decision: the base may want pending-op
        # maps only from some decision on
        return self._base.needs_pending

    def reset(self) -> None:
        self._base.reset()
        self.launch_starts.append(len(self.picks))

    def observe(self, runnable: Sequence[int],
                pending: Mapping[int, PendingOp] | None) -> None:
        self._base.observe(runnable, pending)

    def choose(self, runnable: Sequence[int]) -> int:
        pick = self._base.choose(runnable)
        self.picks.append(pick)
        return pick

    def state(self) -> tuple:
        return ("recording", len(self.picks)) + self._base.state()

    def log(self) -> DecisionLog:
        return DecisionLog.from_decisions(self.picks, self.launch_starts)


class ReplayScheduler(Scheduler):
    """Strictly replays a :class:`DecisionLog`.

    Replay is bit-deterministic: driving the same program with the same
    log reproduces the identical micro-step sequence and therefore the
    identical final memory image.  Any divergence — a recorded pick
    that is not runnable, more launches or decisions than recorded —
    raises :class:`~repro.errors.ScheduleReplayError` instead of
    silently exploring a different schedule.
    """

    def __init__(self, log: DecisionLog) -> None:
        self._log = log
        self._launch = -1
        self._pos = 0
        #: decisions also recorded back, so a replay can be re-logged
        self.runnable_sets: list[tuple[int, ...]] = []

    def reset(self) -> None:
        self._launch += 1
        self._pos = 0
        if self._launch >= len(self._log.launches):
            raise ScheduleReplayError(
                f"replay log has {len(self._log.launches)} launch(es) "
                f"but the program started launch {self._launch + 1}")

    def choose(self, runnable: Sequence[int]) -> int:
        launch = self._log.launches[self._launch]
        if self._pos >= len(launch):
            raise ScheduleReplayError(
                f"replay log exhausted at launch {self._launch} "
                f"decision {self._pos}: program wants more decisions "
                "than were recorded")
        pick = launch[self._pos]
        if pick not in runnable:
            raise ScheduleReplayError(
                f"replay diverged at launch {self._launch} decision "
                f"{self._pos}: recorded thread {pick} is not in the "
                f"runnable set {list(runnable)}")
        self._pos += 1
        self.runnable_sets.append(tuple(runnable))
        return pick

    def state(self) -> tuple:
        return ("replay", self._launch, self._pos)


class DeviationScheduler(Scheduler):
    """A schedule as a sparse set of deviations from ``stay_policy``.

    ``deviations`` maps a global decision index to the thread to force
    there; every other decision follows the stay policy.  A deviation
    whose thread is not runnable at its index is skipped (best-effort
    application — exactly what delta debugging needs, since removing
    one deviation shifts the downstream schedule).  Decisions are
    re-recorded, so the concrete :class:`DecisionLog` of whatever
    actually ran is always available.
    """

    def __init__(self, deviations: Mapping[int, int]) -> None:
        self.deviations = dict(deviations)
        self.picks: list[int] = []
        self.launch_starts: list[int] = []
        self.applied: set[int] = set()
        self._last: int | None = None

    def reset(self) -> None:
        self.launch_starts.append(len(self.picks))
        self._last = None

    def choose(self, runnable: Sequence[int]) -> int:
        index = len(self.picks)
        pick = self.deviations.get(index)
        if pick is not None and pick in runnable:
            self.applied.add(index)
        else:
            pick = stay_policy(runnable, self._last)
        self.picks.append(pick)
        self._last = pick
        return pick

    def state(self) -> tuple:
        return ("deviation", len(self.picks))

    def log(self) -> DecisionLog:
        return DecisionLog.from_decisions(self.picks, self.launch_starts)


def deviations_of(picks: Sequence[int],
                  runnable_sets: Sequence[Sequence[int]],
                  launch_starts: Sequence[int]) -> dict[int, int]:
    """Express a concrete schedule as deviations from ``stay_policy``."""
    starts = set(launch_starts)
    deviations: dict[int, int] = {}
    last: int | None = None
    for i, (pick, runnable) in enumerate(zip(picks, runnable_sets)):
        if i in starts:
            last = None
        if pick != stay_policy(runnable, last):
            deviations[i] = pick
        last = pick
    return deviations


@dataclass
class MinimizeResult:
    """Outcome of schedule minimization."""

    log: DecisionLog                  #: the minimized concrete schedule
    deviations: dict[int, int]        #: surviving forced switches
    initial_deviations: int
    runs_used: int = 0
    fingerprint: bytes | None = field(default=None, repr=False)


def minimize_deviations(
    deviations: Mapping[int, int],
    still_fails: Callable[[DeviationScheduler], bool],
    max_runs: int = 200,
) -> MinimizeResult:
    """Delta-debug a failing schedule down to a minimal deviation set.

    ``still_fails(scheduler)`` must drive one fresh execution under the
    given scheduler and report whether the original failure reproduced.
    Implements Zeller's ddmin over the deviation indices: repeatedly try
    dropping chunks (testing complements), halving granularity, until
    the set is 1-minimal or the run budget is exhausted.
    """
    items = sorted(deviations)
    runs = 0

    def test(subset: list[int]) -> tuple[bool, DeviationScheduler]:
        nonlocal runs
        runs += 1
        sched = DeviationScheduler({i: deviations[i] for i in subset})
        return still_fails(sched), sched

    last_sched: DeviationScheduler | None = None
    n = 2
    while len(items) >= 2 and runs < max_runs:
        chunk = max(1, len(items) // n)
        reduced = False
        for start in range(0, len(items), chunk):
            complement = items[:start] + items[start + chunk:]
            ok, sched = test(complement)
            if ok:
                items = complement
                last_sched = sched
                n = max(n - 1, 2)
                reduced = True
                break
            if runs >= max_runs:
                break
        if not reduced:
            if n >= len(items):
                break
            n = min(len(items), n * 2)
    if len(items) == 1 and runs < max_runs:
        ok, sched = test([])
        if ok:
            items = []
            last_sched = sched

    final = {i: deviations[i] for i in items}
    if last_sched is None or set(last_sched.applied) != set(items):
        # re-run once so the returned log matches the surviving set
        ok, last_sched = test(items)
        if not ok:
            raise ScheduleReplayError(
                "minimized schedule no longer reproduces the failure — "
                "the program is not deterministic under replay")
    return MinimizeResult(log=last_sched.log(), deviations=final,
                          initial_deviations=len(deviations),
                          runs_used=runs)
