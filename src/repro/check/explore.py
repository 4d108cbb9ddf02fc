"""Systematic schedule exploration with dynamic partial-order reduction.

Stress testing runs a kernel under 50 random seeds and hopes one of
them hits the bad interleaving; this module instead *enumerates* the
schedule space.  A :class:`ScheduleExplorer` drives a fresh execution
of the program per schedule through a controlled scheduler, doing
depth-first search over scheduling decisions with:

* **dynamic partial-order reduction** (Flanagan & Godefroid): after each
  execution, conflicting access pairs that are not ordered by
  synchronization contribute *backtrack points* — alternative threads
  worth running at earlier decisions — so only one representative per
  Mazurkiewicz trace (commutation class) is explored;
* **sleep sets** (Godefroid): a thread whose exploration from a state is
  complete sleeps until some dependent operation executes, pruning the
  redundant interleavings persistent sets alone would revisit;
* **preemption bounding** (CHESS-style): schedules with more than
  ``preemption_bound`` forced context switches are skipped — most
  concurrency bugs need very few preemptions, and the bound makes the
  search space finite for spinning kernels;
* **state-fingerprint deduplication** (optional): a branch whose
  (executor state, choice) pair was already expanded is skipped.  The
  fingerprint hashes the memory image, the barrier epochs and every
  thread's exact :func:`~repro.gpu.simt.thread_signature` (each frame's
  resume point, locals and loop iterators, its registers and queued
  operations), so two states merge only when they behave alike; a
  state holding a value the signature can only name by its type gets no
  fingerprint and is never merged.  Deduplication still trades a little
  completeness of backtrack propagation for pruning, so it is off by
  default;
* **proven spins** (dpor mode): once the free phase's stay policy has
  kept one thread running alone for ``_WATCH_STAY`` decisions, an exact
  repeat of the launch state ends the run with
  :class:`~repro.errors.DeadlockError` — the run could only spin the
  same cycle to the step cap — and it counts as truncated, as the cap
  would have made it.  The cut-off tail would have added no stack node
  with a choice left and no backtrack point, so no schedule or verdict
  changes; naive mode, which branches at every node, keeps its runs;
* **budgets**: schedule count, per-run micro-steps, and wall-clock.

The explorer is program-agnostic: it re-executes via a caller-supplied
``runner(scheduler, step_probe) -> RunOutcome`` (the property-check
harness in :mod:`repro.check.harness` builds one from a kernel or a
pattern).  ``mode="naive"`` disables all reduction — same DFS, full
branching — which is what the DPOR reduction factor is measured
against.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import defaultdict
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable

from repro.errors import DeadlockError, ExplorationError
from repro.gpu.accesses import AccessKind
from repro.gpu.interleave import PendingOp, Scheduler
from repro.gpu.simt import (DRAIN_BASE, AccessEvent, RepeatWatch,
                            thread_signature)
from repro.check.replay import DecisionLog, stay_policy

__all__ = ["ExploreBudget", "BUDGETS", "RunOutcome", "ExploreResult",
           "ScheduleExplorer", "state_fingerprint"]


@dataclass(frozen=True)
class ExploreBudget:
    """Bounds on one exploration."""

    max_schedules: int = 400
    max_steps_per_run: int = 20_000
    max_seconds: float = 30.0
    preemption_bound: int | None = 3

    def describe(self) -> str:
        bound = ("unbounded" if self.preemption_bound is None
                 else str(self.preemption_bound))
        return (f"≤{self.max_schedules} schedules, "
                f"≤{self.max_steps_per_run} steps/run, "
                f"≤{self.max_seconds:g}s, preemption bound {bound}")


#: named budgets for the CLI / CI tiers
BUDGETS: dict[str, ExploreBudget] = {
    "smoke": ExploreBudget(max_schedules=60, max_steps_per_run=4_000,
                           max_seconds=10.0, preemption_bound=2),
    "default": ExploreBudget(),
    "deep": ExploreBudget(max_schedules=5_000, max_steps_per_run=100_000,
                          max_seconds=300.0, preemption_bound=5),
}


class _RedundantScheduleAbort(BaseException):
    """Control flow: every runnable thread is asleep, so this schedule
    can only reproduce an already-explored trace.  Derives from
    BaseException so program-level ``except Exception`` cannot swallow
    it on the way out of the executor."""


@dataclass
class RunOutcome:
    """What one complete (or aborted) execution produced."""

    events: list[AccessEvent]
    fingerprint: bytes | None = None     #: final memory digest
    error: Exception | None = None       #: DeadlockError etc., if raised
    check_ok: bool | None = None         #: invariant verdict, if checked
    payload: object = None               #: harness-private extras


#: runner contract: execute the program once from scratch under the
#: given scheduler; ``step_probe`` (when not None) must be installed as
#: ``executor.step_probe`` with the executor bound as
#: ``step_probe.executor``.
Runner = Callable[[Scheduler, Callable | None], RunOutcome]

#: decisions the stay policy must keep one thread running alone before
#: the probe starts watching for a repeated launch state; the corpus's
#: terminating threads run alone for fewer, so watching costs them
#: nothing
_WATCH_STAY = 32


def state_fingerprint(memory, threads, epochs) -> int | None:
    """Hash of the executor's exact logical state at a decision point:
    the memory image, the barrier epochs and every thread's
    :func:`~repro.gpu.simt.thread_signature`.  Two runs at equal
    fingerprints behave identically from here on under the same
    decisions.  None when some thread has no signature."""
    signatures = tuple(map(thread_signature, threads))
    if None in signatures:
        return None
    return hash((memory.fingerprint(), tuple(sorted(epochs.items())),
                 signatures))


# ----------------------------------------------------------------------
# The directed scheduler: forced prefix, then deterministic free phase
# ----------------------------------------------------------------------

class _DirectedScheduler(Scheduler):
    """Replays a forced decision prefix, then continues with the
    preemption-free stay policy, avoiding sleeping threads; records
    everything the exploration needs (runnable sets, pending ops,
    per-decision sleep snapshots, launch boundaries).

    Pending-op maps are requested only from decision ``sleep_depth`` on:
    the exploration keeps them only for decisions past its existing
    stack, and the sleep-set update reads them only from there.
    ``pendings`` holds None for the decisions before.

    The per-decision sleep snapshots are read-only: consecutive
    decisions share one snapshot until the sleep set next changes."""

    def __init__(self, forced: Sequence[int], sleep_depth: int,
                 sleep: Mapping[int, PendingOp]) -> None:
        self.forced = list(forced)
        self.sleep_depth = sleep_depth
        self._sleep = dict(sleep)
        self.picks: list[int] = []
        self.runnables: list[tuple[int, ...]] = []
        self.pendings: list[Mapping[int, PendingOp] | None] = []
        self.sleep_snapshots: dict[int, dict[int, PendingOp]] = {}
        #: the current sleep set's shared snapshot (None once it changed)
        self._snapshot: dict[int, PendingOp] | None = None
        self.launch_starts: list[int] = []
        self.redundant = False
        #: (thread, picks) the stay policy would still have made when a
        #: proven spin ended the run: the log replays them to the cap
        self.spin: tuple[int, int] | None = None
        self._pending: Mapping[int, PendingOp] = {}
        self._last: int | None = None

    @property
    def needs_pending(self) -> bool:
        return len(self.picks) >= self.sleep_depth

    def reset(self) -> None:
        self.launch_starts.append(len(self.picks))
        self._last = None

    def observe(self, runnable: Sequence[int],
                pending: Mapping[int, PendingOp] | None) -> None:
        # the executor builds a fresh map per decision, keyed by exactly
        # the runnable set it then hands to choose()
        self._pending = pending or {}

    def choose(self, runnable: Sequence[int]) -> int:
        index = len(self.picks)
        sleep = self._sleep
        if index >= self.sleep_depth and sleep:
            if self._snapshot is None:
                self._snapshot = dict(sleep)
            self.sleep_snapshots[index] = self._snapshot
        if index < len(self.forced):
            pick = self.forced[index]
            if pick not in runnable:
                raise ExplorationError(
                    f"non-deterministic program: forced thread {pick} "
                    f"not runnable at decision {index} "
                    f"(runnable: {list(runnable)})")
        else:
            awake = ([t for t in runnable if t not in sleep] if sleep
                     else runnable)
            if not awake:
                self.redundant = True
                raise _RedundantScheduleAbort
            pick = stay_policy(awake, self._last if self._last in awake
                               else None)
        pending = self._pending if index >= self.sleep_depth else None
        self.picks.append(pick)
        self.runnables.append(tuple(runnable))
        self.pendings.append(pending)
        if pending is not None and sleep:
            op = pending.get(pick)
            for q in list(sleep):
                if q == pick or _dependent(op, sleep[q]):
                    del sleep[q]
                    self._snapshot = None
        self._last = pick
        return pick

    def state(self) -> tuple:
        return ("directed", len(self.picks))

    def log(self) -> DecisionLog:
        picks = self.picks
        if self.spin is not None:
            tid, remaining = self.spin
            picks = picks + [tid] * remaining
        return DecisionLog.from_decisions(picks, self.launch_starts)


def _dependent(a: PendingOp, b: PendingOp) -> bool:
    """Two pending operations do not commute: same array, overlapping
    bytes, at least one write.  Unknown ops (None — thread between
    operations) are conservatively treated as dependent, never putting
    such a thread to sleep incorrectly."""
    if a is None or b is None:
        return True
    if a[0] != b[0]:
        return False
    if not (a[4] or b[4]):  # neither writes
        return False
    return a[1] < b[1] + b[2] and b[1] < a[1] + a[2]


# ----------------------------------------------------------------------
# Exploration
# ----------------------------------------------------------------------

#: the sleep map of every node created with an empty sleep set (nodes
#: only ever read their ``sleep`` maps, so they can share it)
_NO_SLEEP: dict[int, PendingOp] = {}


@dataclass(slots=True)
class _Node:
    """One decision point on the current DFS stack."""

    runnable: tuple[int, ...]
    pending: Mapping[int, PendingOp]
    pick: int
    last_before: int | None            #: thread that ran the previous step
    preempt_prefix: int                #: preemptions strictly before here
    done: set[int] = field(default_factory=set)
    #: choices actually executed from here (pruned ones enter ``done``
    #: but not this set; only explored subtrees may put siblings to
    #: sleep, or sleep sets would prune schedules nobody visited)
    explored: set[int] = field(default_factory=set)
    backtrack: set[int] = field(default_factory=set)
    sleep: dict[int, PendingOp] = field(default_factory=dict)
    fp: int | None = None

    def is_preemption(self, choice: int) -> bool:
        return (self.last_before is not None
                and self.last_before in self.runnable
                and choice != self.last_before)


@dataclass
class ExploreResult:
    """Statistics and verdict of one exploration."""

    mode: str
    schedules: int = 0                 #: complete executions performed
    complete: bool = False             #: schedule space exhausted
    truncated_runs: int = 0            #: runs that hit the step budget
    redundant_pruned: int = 0          #: runs aborted by sleep sets
    preemption_pruned: int = 0         #: branches beyond the bound
    dedupe_pruned: int = 0             #: branches into seen states
    max_depth: int = 0
    total_steps: int = 0
    distinct_final_states: int = 0
    wall_seconds: float = 0.0
    budget: ExploreBudget = field(default_factory=ExploreBudget)
    stopped_early: bool = False        #: on_run asked to stop

    @property
    def schedules_per_second(self) -> float:
        return self.schedules / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def stop_reason(self) -> str:
        """How the exploration ended: ``complete`` (schedule space
        exhausted), ``step_cap`` (exhausted, but every run stopped on
        the per-run step cap, so no schedule reached the end of the
        program), ``stopped_early`` (``on_run`` asked to stop),
        ``schedule_cap`` or ``wall_clock_cap`` (a budget ran out)."""
        if self.complete:
            if self.schedules and self.truncated_runs == self.schedules:
                return "step_cap"
            return "complete"
        if self.stopped_early:
            return "stopped_early"
        if self.schedules >= self.budget.max_schedules:
            return "schedule_cap"
        return "wall_clock_cap"


class ScheduleExplorer:
    """DFS over scheduling decisions with DPOR, sleep sets, preemption
    bounding, and budgets.

    Parameters
    ----------
    runner:
        Executes the program once under a given scheduler (fresh memory
        every call) and returns a :class:`RunOutcome`.
    mode:
        ``"dpor"`` (reduced) or ``"naive"`` (full branching; the
        reduction-factor baseline).
    budget:
        An :class:`ExploreBudget` or a name from :data:`BUDGETS`.
    on_run:
        Optional callback ``(outcome, log) -> bool`` invoked per
        completed schedule; returning True stops the exploration (used
        by the harness for stop-on-first-failure).
    state_dedupe:
        Enable state-fingerprint branch pruning.
    """

    def __init__(self, runner: Runner, mode: str = "dpor",
                 budget: ExploreBudget | str = "default",
                 on_run: Callable[[RunOutcome, DecisionLog], bool] | None = None,
                 state_dedupe: bool = False) -> None:
        if mode not in ("dpor", "naive"):
            raise ExplorationError(f"unknown exploration mode {mode!r}")
        if isinstance(budget, str):
            try:
                budget = BUDGETS[budget]
            except KeyError:
                raise ExplorationError(
                    f"unknown budget {budget!r}; known: "
                    f"{sorted(BUDGETS)}") from None
        self.runner = runner
        self.mode = mode
        self.budget = budget
        self.on_run = on_run
        self.state_dedupe = state_dedupe

    # ------------------------------------------------------------------
    def explore(self) -> ExploreResult:
        result = ExploreResult(mode=self.mode, budget=self.budget)
        started = time.monotonic()
        stack: list[_Node] = []
        finals: set[bytes | None] = set()
        forced: list[int] = []
        branch_depth = 0
        branch_sleep: dict[int, PendingOp] = {}
        #: (fingerprint, choice) pairs already expanded — state_dedupe
        expanded: set[tuple[int, int]] = set()
        #: the backtrack scan's thread → array → (all accesses, writes
        #: only) histories, kept across this exploration's runs (see
        #: _add_backtrack_points)
        histories: defaultdict[int, defaultdict[str, tuple[list, list]]] = (
            defaultdict(lambda: defaultdict(lambda: ([], []))))

        while True:
            if result.schedules >= self.budget.max_schedules:
                break
            if time.monotonic() - started > self.budget.max_seconds:
                break

            sched = _DirectedScheduler(forced, branch_depth, branch_sleep)
            fingerprints: list[int | None] = []
            probe = self._make_probe(
                sched, fingerprints if self.state_dedupe else None)
            try:
                outcome = self.runner(sched, probe)
            except _RedundantScheduleAbort:
                outcome = None
                result.redundant_pruned += 1

            if outcome is not None:
                result.schedules += 1
                result.total_steps += len(sched.picks)
                result.max_depth = max(result.max_depth, len(sched.picks))
                if outcome.error is not None:
                    result.truncated_runs += 1
                finals.add(outcome.fingerprint)
                if self.on_run is not None:
                    if self.on_run(outcome, sched.log()):
                        result.stopped_early = True
                        break

            self._integrate(stack, sched, branch_depth, fingerprints,
                            expanded)
            if self.mode == "dpor" and outcome is not None:
                self._add_backtrack_points(
                    stack, sched, outcome.events, histories)

            branch = self._select_branch(stack, result, expanded)
            if branch is None:
                result.complete = (
                    result.schedules < self.budget.max_schedules
                    and not result.stopped_early)
                break
            branch_depth, choice, branch_sleep = branch
            del stack[branch_depth + 1:]
            forced = [stack[i].pick for i in range(branch_depth)] + [choice]

        result.distinct_final_states = len(finals - {None})
        result.wall_seconds = time.monotonic() - started
        return result

    # ------------------------------------------------------------------
    def _make_probe(self, sched: _DirectedScheduler,
                    fingerprints: list[int | None] | None):
        """The executor's step probe for one run (None if it needs
        none).  With ``fingerprints`` it appends each decision's
        :func:`state_fingerprint`.  In dpor mode it proves spins: while
        the stay policy keeps picking one runnable, awake thread, with
        no store-buffer entry anywhere, no fault injector and no warp
        lockstep, only that thread changes anything — the others move
        only when a barrier releases them, which bumps the epochs — so
        an exact repeat of (memory image, barrier epochs, its signature)
        means the stay policy would run the same cycle until the step
        cap.  The repeat raises :class:`DeadlockError` at once, and the
        scheduler's log keeps the picks the cap would have taken."""
        watch_spins = self.mode == "dpor"
        if fingerprints is None and not watch_spins:
            return None
        picks = sched.picks
        sleep = sched._sleep
        free_from = len(sched.forced)
        run = 0
        watch: RepeatWatch | None = None

        def probe(threads, epochs, stats):
            nonlocal run, watch
            executor = probe.executor
            if fingerprints is not None:
                fingerprints.append(
                    state_fingerprint(executor.memory, threads, epochs))
            tid = sched._last
            if (not watch_spins or len(picks) < free_from or tid is None
                    or tid >= DRAIN_BASE or tid in sleep):
                run = 0
                return
            thread = threads[tid]
            if thread.done or thread.at_barrier or thread.store_buffer:
                run = 0
                return
            run += 1
            if run < _WATCH_STAY:
                return
            memory = executor.memory
            if run == _WATCH_STAY:
                alone = not (executor.warp_lockstep
                             or executor.faults is not None
                             or memory.faults is not None
                             or any(t.store_buffer for t in threads))
                watch = RepeatWatch() if alone else None
            if watch is None:
                return
            signature = thread_signature(thread)
            if watch.repeats(None if signature is None else (
                    memory.fingerprint(), tuple(epochs.values()),
                    signature)):
                sched.spin = (tid, executor.max_steps - stats.steps + 1)
                raise DeadlockError(
                    f"thread {tid} re-entered the exact launch state it "
                    f"held {watch.since} decision(s) earlier (memory, "
                    "barrier epochs, its frames and registers equal; no "
                    "other thread ran) while the stay policy kept it "
                    "running alone: a spin to the "
                    f"{executor.max_steps}-step cap")

        probe.executor = None  # bound by the runner before launching
        return probe

    def _integrate(self, stack: list[_Node], sched: _DirectedScheduler,
                   branch_depth: int, fingerprints: list[int],
                   expanded: set[tuple[int, int]]) -> None:
        picks = sched.picks
        runnables = sched.runnables
        # Below the branch depth the run replayed the stack's picks,
        # which its nodes already record; only check determinism there.
        for d in range(min(branch_depth, len(picks))):
            if stack[d].runnable != runnables[d]:
                self._nondeterministic(d, runnables[d], stack[d])
        preempt = stack[branch_depth].preempt_prefix if branch_depth < len(stack) else 0
        last: int | None = (stack[branch_depth - 1].pick
                            if branch_depth > 0 else None)
        launch_starts = set(sched.launch_starts)
        pendings = sched.pendings
        snapshots = sched.sleep_snapshots
        naive = self.mode == "naive"
        n_fingerprints = len(fingerprints)
        for d in range(branch_depth, len(picks)):
            pick = picks[d]
            runnable = runnables[d]
            if d in launch_starts:
                last = None
            if d < len(stack):
                node = stack[d]
                if node.runnable != runnable:
                    self._nondeterministic(d, runnable, node)
                node.pick = pick
                node.done.add(pick)
                node.explored.add(pick)
            else:
                node = _Node(runnable, pendings[d], pick, last, preempt,
                             {pick}, {pick},
                             set(runnable) if naive else {pick},
                             snapshots.get(d, _NO_SLEEP),
                             fingerprints[d] if d < n_fingerprints else None)
                stack.append(node)
            # node.is_preemption(pick), inlined
            if last is not None and pick != last and last in runnable:
                preempt += 1
            last = pick
        if self.state_dedupe:
            for d in range(min(len(fingerprints), len(stack))):
                if stack[d].fp is None:
                    stack[d].fp = fingerprints[d]
                if stack[d].fp is not None:
                    expanded.add((stack[d].fp, sched.picks[d]))

    @staticmethod
    def _nondeterministic(d: int, runnable: tuple[int, ...],
                          node: _Node) -> None:
        raise ExplorationError(
            f"non-deterministic program: decision {d} saw "
            f"runnable {runnable} but the stack "
            f"recorded {node.runnable}")

    def _add_backtrack_points(self, stack: list[_Node],
                              sched: _DirectedScheduler,
                              events: list[AccessEvent],
                              by_thread: defaultdict) -> None:
        """Flanagan-Godefroid backtrack computation from the conflict
        relation of the just-executed trace.

        ``by_thread`` holds, per thread and per array, the history of
        (decision, op, launch, block, epoch) of every memory event that
        thread performed, as (all accesses, writes only); a decision may
        carry several events (an atomic that forces store-buffer drains,
        a block-scope release promoting multiple entries), and scheduled
        drains act under their own DRAIN_BASE+seq pseudo-tid.  The
        exploration keeps it from the last scanned run: it is cut back
        to the decisions below this run's branch depth
        (``sched.sleep_depth``), which this run replayed, and only the
        events from the branch depth on are scanned and appended.

        Below the branch depth the run replayed the previous run's
        picks, so it produced the same events, and an earlier run
        already scanned them against the same histories and nominated
        on the same nodes, which have not been rebuilt since.  Backtrack
        sets only grow, so a repeated nomination adds nothing.  A run
        aborted by sleep sets is never scanned, but its new nodes are
        never nominated either, so the next branch point is never deeper
        than its own: the kept histories are still those of the
        decisions every later run replays."""
        depth = sched.sleep_depth
        for arrays in by_thread.values():
            for accesses, written in arrays.values():
                while accesses and accesses[-1][0] >= depth:
                    accesses.pop()
                while written and written[-1][0] >= depth:
                    written.pop()

        def nominate(node: _Node, tid: int) -> None:
            # Source-DPOR-style insertion: the canonical candidate only
            # helps if the branch selector will actually run it, i.e. it
            # is runnable and not asleep at that node.  Skipping a
            # *sleeping* candidate silently is the classic FG+sleep-sets
            # completeness trap (the covering trace the sleep invariant
            # appeals to may itself have been pruned by a redundant-
            # schedule abort; observable as missed IRIW outcomes), so
            # fall back to nominating the awake runnable threads — some
            # awake trace prefix leads into the same reordering class.
            if tid in node.runnable and tid not in node.sleep:
                node.backtrack.add(tid)
                return
            awake = set(node.runnable) - set(node.sleep)
            node.backtrack.update(awake or node.runnable)

        starts = sched.launch_starts
        n = len(sched.picks)
        first_launch = events[0].launch if events else 0
        atomic = AccessKind.ATOMIC
        here_d = -1
        here: _Node | None = None
        agents: Sequence[int] = ()
        previous = None
        # Events are matched to decisions via the per-launch step
        # counter; one decision can carry several events under a
        # buffered memory model (forced drains, block-scope promotes).
        # The executor records them in decision order (launch ids and
        # steps only count up), so one pass visits decisions in order,
        # and the events of the replayed decisions, which by_thread
        # already holds, are a prefix.
        def decision(ev: AccessEvent) -> int:
            ordinal = ev.launch - first_launch
            return (starts[ordinal] + ev.step - 1 if ordinal < len(starts)
                    else n)

        for ev in islice(events, bisect_left(events, depth, key=decision),
                         None):
            ordinal = ev.launch - first_launch
            if ordinal >= len(starts):
                continue
            d = starts[ordinal] + ev.step - 1
            if not depth <= d < n:
                continue
            span = ev.span
            tid, launch, block, epoch = ev.tid, ev.launch, ev.block, ev.epoch
            array, start, nbytes, writes = (span.array, span.start,
                                            span.nbytes, ev.is_write)
            op = (array, start, nbytes, ev.is_read, writes,
                  ev.access is atomic)
            if d != here_d:
                here_d = d
                here = stack[d] if d < len(stack) else None
                # A runnable store-buffer drain agent whose pending
                # flush conflicts with this decision's access is a
                # schedule alternative classic FG analysis cannot
                # see: if the flush only ever executes fused into a
                # later forced drain (an atomic, a fence), it never
                # appears in any trace under its own pseudo-tid, so
                # no observed event pair ever nominates it.
                # Nominate it here.
                agents = ([q for q in here.runnable if q >= DRAIN_BASE]
                          if here is not None
                          and max(here.runnable) >= DRAIN_BASE else ())
            for q in agents:
                if q != tid and _dependent(op, here.pending.get(q)):
                    nominate(here, q)
            # The same access again right after itself: no other
            # thread's history changed, so the scan would nominate
            # the same threads at the same nodes.
            info = (tid, op, launch, block, epoch)
            if info != previous:
                previous = info
                end = start + nbytes
                for q, arrays in by_thread.items():
                    if q == tid or array not in arrays:
                        continue
                    # A read depends only on writes.  The entries
                    # that stop the walk (an older launch, an
                    # earlier barrier epoch of this block) are a
                    # prefix of the thread's history, so the newest
                    # dependent access on this array is the one a
                    # walk over all of its accesses would stop at.
                    accesses, written = arrays[array]
                    for j, jop, jlaunch, jblock, jepoch in reversed(
                            accesses if writes else written):
                        if jlaunch != launch:
                            break  # launch barrier orders all older
                        if jblock == block and jepoch != epoch:
                            break  # __syncthreads() between them
                        if jop[1] < end and start < jop[1] + jop[2]:
                            nominate(stack[j], tid)
                            break
            accesses, written = by_thread[tid][array]
            entry = (d, op, launch, block, epoch)
            accesses.append(entry)
            if writes:
                written.append(entry)

    def _select_branch(self, stack: list[_Node], result: ExploreResult,
                       expanded: set[tuple[int, int]]):
        """Deepest node with an unexplored, unpruned choice."""
        bound = self.budget.preemption_bound
        for depth in range(len(stack) - 1, -1, -1):
            node = stack[depth]
            if node.backtrack <= node.done:
                continue
            candidates = sorted(
                node.backtrack - node.done - set(node.sleep))
            for choice in candidates:
                if (bound is not None and node.is_preemption(choice)
                        and node.preempt_prefix + 1 > bound):
                    result.preemption_pruned += 1
                    node.done.add(choice)
                    continue
                if (self.state_dedupe and node.fp is not None
                        and (node.fp, choice) in expanded):
                    result.dedupe_pruned += 1
                    node.done.add(choice)
                    continue
                sleep: dict[int, PendingOp] = {}
                if self.mode == "dpor":
                    sleep = dict(node.sleep)
                    for prev in node.explored:
                        if prev != choice and prev in node.runnable:
                            op = node.pending.get(prev)
                            if op is not None:
                                sleep[prev] = op
                node.done.add(choice)
                return depth, choice, sleep
        return None

