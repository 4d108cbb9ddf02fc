"""Acceptance tests for systematic schedule exploration (repro.check).

The central scenario is the one from the paper's Fig. 1 discussion: a
two-thread unprotected counter increment.  The explorer must enumerate
the full bounded schedule space, beat naive DFS via DPOR, find the
race, and produce a minimized decision log that replays to the
identical failing state.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import (
    BUDGETS,
    ExploreBudget,
    RecordingScheduler,
    ReplayScheduler,
    ScheduleExplorer,
    check,
    replay_failure,
)
from repro.check.explore import _dependent, _DirectedScheduler
from repro.check.harness import Program, _make_runner, program_from_pattern
from repro.core.variants import Variant
from repro.errors import ExplorationError
from repro.gpu.accesses import AccessKind, DType
from repro.gpu.atomics import atomic_add
from repro.gpu.memory import GlobalMemory
from repro.gpu.overrides import site_kind_overrides
from repro.gpu.simt import DRAIN_BASE, SimtExecutor
from repro.memmodel import litmus
from repro.memmodel.models import get_model
from repro.patterns import PATTERNS
from tests.test_explore_digests import assert_pinned, capture, pattern_key


def racy_counter_kernel(ctx, ctr):
    v = yield ctx.load(ctr, 0, AccessKind.VOLATILE)
    yield ctx.store(ctr, 0, v + 1, AccessKind.VOLATILE)


def atomic_counter_kernel(ctx, ctr):
    yield from atomic_add(ctx, ctr, 0, 1)


def counter_setup(mem):
    return (mem.alloc("ctr", 1, DType.I32),)


def counter_invariant(mem, handles):
    return mem.element_read(handles[0], 0) == 2


WIDE_BUDGET = ExploreBudget(max_schedules=500, max_steps_per_run=1_000,
                            max_seconds=30.0, preemption_bound=4)


def mutual_wait_kernel(ctx, flags):
    """Thread t waits for flag 1 - t, which only thread 1 - t sets, and
    only after its own wait: neither ever gets past its poll."""
    while True:
        seen = yield ctx.load(flags, 1 - ctx.tid, AccessKind.ATOMIC)
        if seen:
            break
    yield ctx.store(flags, ctx.tid, 1, AccessKind.ATOMIC)


def two_flags_setup(mem):
    return (mem.alloc("flags", 2, DType.I32),)


SPIN_BUDGET = ExploreBudget(max_schedules=500, max_steps_per_run=40,
                            max_seconds=30.0, preemption_bound=2)


def run_check(kernel, **kw):
    kw.setdefault("budget", WIDE_BUDGET)
    return check(kernel, 2, setup=counter_setup,
                 invariant=counter_invariant, **kw)


class TestAcceptanceScenario:
    """The ISSUE's acceptance criterion, end to end."""

    def test_racy_counter_full_story(self):
        report = run_check(racy_counter_kernel, compare_naive=True)

        # full bounded schedule space enumerated
        assert report.explore.complete
        assert report.naive.complete
        # two threads, two decisions each: C(4,2) = 6 naive schedules;
        # sleep-set DPOR needs only 4 representatives
        assert report.naive.schedules == 6
        assert report.explore.schedules == 4
        assert report.dpor_reduction == pytest.approx(1.5)

        # the race is found
        assert not report.ok
        kinds = {r.kind for r in report.races}
        assert "write-write" in kinds and "read-write" in kinds

        # a minimized decision log replays to the identical bad state
        inv = next(f for f in report.failures if f.kind == "invariant")
        assert inv.replay_verified
        assert inv.minimized is not None
        assert len(inv.minimized.deviations) == 1  # one forced preemption
        program = Program("counter", counter_setup,
                          lambda ex, h: ex.launch(
                              racy_counter_kernel, 2, *h, block_dim=2),
                          counter_invariant)
        first = replay_failure(program, inv.repro_log, budget=WIDE_BUDGET)
        second = replay_failure(program, inv.repro_log, budget=WIDE_BUDGET)
        assert first.fingerprint == second.fingerprint == inv.fingerprint
        assert first.check_ok is False

    def test_race_free_counter_passes_exhaustively(self):
        report = run_check(atomic_counter_kernel)
        assert report.explore.complete
        assert report.ok
        assert not report.races  # neither actual nor predicted
        assert report.explore.distinct_final_states == 1
        # two atomic RMWs commute-check as dependent, so both orders run
        assert report.explore.schedules == 2


class TestExplorationControls:
    def test_schedule_budget_truncates(self):
        tight = ExploreBudget(max_schedules=2, max_steps_per_run=1_000,
                              max_seconds=30.0, preemption_bound=4)
        report = run_check(racy_counter_kernel, budget=tight)
        assert report.explore.schedules == 2
        assert not report.explore.complete

    def test_preemption_bound_zero_keeps_run_to_completion_orders(self):
        bound0 = ExploreBudget(max_schedules=100, max_steps_per_run=1_000,
                               max_seconds=30.0, preemption_bound=0)
        # naive DFS under bound 0: exactly the two serial orders
        report = run_check(racy_counter_kernel, budget=bound0,
                           mode="naive")
        assert report.explore.complete
        assert report.explore.schedules == 2
        assert report.explore.preemption_pruned > 0
        # serial orders of the counter are correct — but the race is
        # still flagged because the accesses are unsynchronized
        assert report.races
        # DPOR under bound 0 prunes the conflict-seeded branch too (the
        # backtrack point IS a preemption) but keeps the race verdict
        dpor = run_check(racy_counter_kernel, budget=bound0)
        assert dpor.explore.preemption_pruned > 0
        assert dpor.races

    def test_state_dedupe_preserves_the_verdict(self):
        plain = run_check(racy_counter_kernel)
        deduped = run_check(racy_counter_kernel, state_dedupe=True)
        assert deduped.races and not deduped.ok
        assert deduped.explore.schedules <= plain.explore.schedules

    def test_naive_mode_explores_everything(self):
        report = run_check(racy_counter_kernel, mode="naive")
        assert report.explore.complete
        assert report.explore.schedules == 6

    def test_stop_on_failure_short_circuits(self):
        report = run_check(racy_counter_kernel, stop_on_failure=True)
        assert report.failures
        assert report.explore.stopped_early
        assert report.explore.schedules < 4

    @pytest.mark.parametrize("reason, options", [
        ("complete", {}),
        ("stopped_early", {"stop_on_failure": True}),
        ("schedule_cap",
         {"budget": dataclasses.replace(WIDE_BUDGET, max_schedules=1)}),
        ("wall_clock_cap",
         {"budget": dataclasses.replace(WIDE_BUDGET, max_seconds=0)}),
    ])
    def test_stop_reason(self, reason, options):
        report = run_check(racy_counter_kernel, **options)
        assert report.explore.stop_reason == reason

    def test_stop_reason_step_cap_when_every_run_truncated(self):
        """Each thread atomically polls a flag only the other thread
        sets, so every schedule spins to the step cap.  The bounded
        space is still exhausted, but no run reached the end of the
        kernel: that is not ``complete``."""
        report = check(mutual_wait_kernel, 2, setup=two_flags_setup,
                       budget=SPIN_BUDGET)
        ex = report.explore
        assert ex.complete
        assert ex.schedules > 0
        assert ex.truncated_runs == ex.schedules
        assert ex.stop_reason == "step_cap"
        assert f"schedules explored: {ex.schedules} (step cap)" in (
            report.summary())

    def test_summary_names_the_stop_reason(self):
        capped = run_check(racy_counter_kernel, budget=dataclasses.replace(
            WIDE_BUDGET, max_schedules=1))
        assert "schedules explored: 1 (schedule cap)" in capped.summary()
        assert "(complete)" in run_check(racy_counter_kernel).summary()

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    def test_reused_explorer_repeats_its_exploration(self, name):
        """The state-dedupe set belongs to one exploration: a second
        explore() must not prune with the states the first one saw."""
        program = program_from_pattern(name)
        explorer = ScheduleExplorer(
            _make_runner(program, BUDGETS["smoke"], None, True),
            budget="smoke", state_dedupe=True)
        first = explorer.explore()
        second = explorer.explore()
        assert (dataclasses.replace(second, wall_seconds=0.0)
                == dataclasses.replace(first, wall_seconds=0.0))

    def test_unknown_mode_and_budget_rejected(self):
        with pytest.raises(ExplorationError):
            ScheduleExplorer(lambda s, p=None: None, mode="bogus")
        with pytest.raises(ExplorationError):
            ScheduleExplorer(lambda s, p=None: None, budget="huge")

    def test_named_budgets_are_ordered(self):
        assert (BUDGETS["smoke"].max_schedules
                < BUDGETS["default"].max_schedules
                < BUDGETS["deep"].max_schedules)
        assert "schedules" in BUDGETS["smoke"].describe()


class TestBarrierAndMultiLaunch:
    def test_barrier_limits_the_schedule_space(self):
        """With a barrier between write and read phases, DPOR sees no
        conflicting concurrent pair and needs exactly one schedule."""

        def kernel(ctx, arr, out):
            yield ctx.store(arr, ctx.tid, ctx.tid + 1, AccessKind.PLAIN)
            yield ctx.barrier()
            v = yield ctx.load(arr, 1 - ctx.tid, AccessKind.PLAIN)
            yield ctx.store(out, ctx.tid, v, AccessKind.PLAIN)

        def setup(mem):
            return (mem.alloc("arr", 2, DType.I32),
                    mem.alloc("out", 2, DType.I32))

        def invariant(mem, handles):
            return (mem.element_read(handles[1], 0) == 2
                    and mem.element_read(handles[1], 1) == 1)

        report = check(kernel, 2, setup=setup, invariant=invariant,
                       budget=WIDE_BUDGET)
        assert report.ok
        assert report.explore.complete
        assert report.explore.schedules == 1

    def test_two_launch_program_explores_and_passes(self):
        def kernel(ctx, arr):
            v = yield ctx.load(arr, ctx.tid, AccessKind.PLAIN)
            yield ctx.store(arr, ctx.tid, v + 1, AccessKind.PLAIN)

        def setup(mem):
            return (mem.alloc("arr", 2, DType.I32),)

        def execute(ex, handles):
            ex.launch(kernel, 2, *handles, block_dim=2)
            ex.launch(kernel, 2, *handles, block_dim=2)

        def invariant(mem, handles):
            return (mem.element_read(handles[0], 0) == 2
                    and mem.element_read(handles[0], 1) == 2)

        program = Program("two-launch", setup, execute, invariant)
        report = check(program, budget=WIDE_BUDGET)
        assert report.ok
        assert report.explore.complete
        # threads touch disjoint elements: one schedule per launch
        assert report.explore.schedules == 1

    def test_replay_covers_multiple_launches(self):
        def kernel(ctx, arr):
            v = yield ctx.load(arr, 0, AccessKind.VOLATILE)
            yield ctx.store(arr, 0, v + 1, AccessKind.VOLATILE)

        def setup(mem):
            return (mem.alloc("arr", 1, DType.I32),)

        def execute(ex, handles):
            ex.launch(kernel, 2, *handles, block_dim=2)
            ex.launch(kernel, 2, *handles, block_dim=2)

        program = Program("racy-two-launch", setup, execute,
                          lambda mem, h: mem.element_read(h[0], 0) == 4)
        report = check(program, budget=WIDE_BUDGET)
        assert not report.ok
        inv = next((f for f in report.failures if f.kind == "invariant"),
                   None)
        assert inv is not None and inv.replay_verified
        assert len(inv.repro_log.launches) == 2


class TestRunnerContract:
    def test_nondeterministic_runner_is_diagnosed(self):
        """A runner whose runnable sets drift between executions must
        raise ExplorationError, not silently explore garbage."""
        calls = {"n": 0}

        def flaky_runner(scheduler, probe=None):
            from repro.check import RunOutcome
            calls["n"] += 1
            scheduler.reset()
            threads = [0, 1] if calls["n"] % 2 else [0, 1, 2]
            for _ in range(2):
                scheduler.choose(threads)
            return RunOutcome(events=[], fingerprint=None)

        explorer = ScheduleExplorer(flaky_runner, mode="naive",
                                    budget=WIDE_BUDGET)
        with pytest.raises(ExplorationError):
            explorer.explore()


class TestDirectedSchedulerPendingMaps:
    """Pending-op maps are built only where the exploration reads them:
    from decision ``sleep_depth`` on."""

    def test_no_pending_map_before_sleep_depth(self):
        sched = _DirectedScheduler(forced=[0, 1, 0], sleep_depth=2,
                                   sleep={})
        recorder = RecordingScheduler(sched)
        asked = []
        for _ in range(4):
            asked.append(recorder.needs_pending)
            pending = ({t: ("x", 4 * t, 4, True, False, False)
                        for t in (0, 1)} if asked[-1] else None)
            recorder.observe([0, 1], pending)
            recorder.choose([0, 1])
        assert asked == [False, False, True, True]
        assert sched.pendings[:2] == [None, None]
        assert sched.pendings[2] == {0: ("x", 0, 4, True, False, False),
                                     1: ("x", 4, 4, True, False, False)}

    @pytest.mark.parametrize("sleep_depth", [0, 3, 100])
    def test_executor_builds_maps_only_when_asked(self, sleep_depth):
        sched = _DirectedScheduler(forced=[], sleep_depth=sleep_depth,
                                   sleep={})
        recorder = RecordingScheduler(sched)
        observed = []
        observe = recorder.observe

        def spy(runnable, pending):
            observed.append((len(recorder.picks), pending is not None))
            observe(runnable, pending)

        recorder.observe = spy
        mem = GlobalMemory()
        ctr, = counter_setup(mem)
        SimtExecutor(mem, scheduler=recorder).launch(
            racy_counter_kernel, 2, ctr, block_dim=2)
        assert observed
        assert all(built == (d >= sleep_depth) for d, built in observed)
        assert [p is not None for p in sched.pendings] == [
            d >= sleep_depth for d in range(len(sched.picks))]


# ----------------------------------------------------------------------
# The per-array backtrack scan against a walk over whole histories
# ----------------------------------------------------------------------

def _reference_trace_steps(sched, events):
    steps = [[] for _ in range(len(sched.picks))]
    starts = sched.launch_starts
    for ev in events:
        ordinal = ev.launch - (events[0].launch if events else 0)
        if ordinal >= len(starts):
            continue
        d = starts[ordinal] + ev.step - 1
        if 0 <= d < len(steps):
            span = ev.span
            op = (span.array, span.start, span.nbytes,
                  ev.is_read, ev.is_write, ev.access.name == "ATOMIC")
            steps[d].append((ev.tid, op, ev.launch, ev.block, ev.epoch))
    return steps


class ReferenceScanExplorer(ScheduleExplorer):
    """Walks every other thread's whole history backward, across all
    arrays, for every event, rebuilding the histories from scratch
    every run (the exploration's kept histories go unused)."""

    def _add_backtrack_points(self, stack, sched, events, histories):
        steps = _reference_trace_steps(sched, events)
        by_thread = {}

        def nominate(node, tid):
            if tid in node.runnable and tid not in node.sleep:
                node.backtrack.add(tid)
                return
            awake = set(node.runnable) - set(node.sleep)
            node.backtrack.update(awake or node.runnable)

        for d, infos in enumerate(steps):
            here = stack[d] if d < len(stack) else None
            for tid, op, launch, block, epoch in infos:
                if here is not None:
                    for q in here.runnable:
                        if (q >= DRAIN_BASE and q != tid
                                and _dependent(op, here.pending.get(q))):
                            nominate(here, q)
                for q, history in by_thread.items():
                    if q == tid:
                        continue
                    for j, jop, jlaunch, jblock, jepoch in reversed(history):
                        if jlaunch != launch:
                            break
                        if jblock == block and jepoch != epoch:
                            break
                        if _dependent(op, jop):
                            nominate(stack[j], tid)
                            break
                by_thread.setdefault(tid, []).append(
                    (d, op, launch, block, epoch))


def explore_with_both_scans(make_runner, budget, **kw):
    """(result without wall time, decision logs handed to on_run) for
    the explorer and for the reference scan."""
    runs = []
    for cls in (ScheduleExplorer, ReferenceScanExplorer):
        logs = []

        def on_run(outcome, log):
            logs.append(log)
            return False

        result = cls(make_runner(), budget=budget, on_run=on_run,
                     **kw).explore()
        runs.append((dataclasses.replace(result, wall_seconds=0.0), logs))
    return runs


class TestBacktrackScanAgainstHistoryWalk:
    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("state_dedupe", [False, True])
    def test_pattern_corpus(self, name, variant, state_dedupe):
        program = program_from_pattern(name, variant)
        budget = BUDGETS["smoke"]
        with capture() as explorations:
            new, reference = explore_with_both_scans(
                lambda: _make_runner(program, budget, None, True),
                budget, state_dedupe=state_dedupe)
        assert new == reference
        key = pattern_key(name, variant, state_dedupe)
        assert_pinned(key, explorations[:1])
        assert_pinned(key, explorations[1:])

    def test_histories_live_in_one_explore_call(self):
        """The kept histories belong to one ``explore()`` call: the
        explorer instance holds no state, so exploring again gives the
        same exploration."""
        program = program_from_pattern("lost_update")
        budget = BUDGETS["smoke"]
        logs = []

        def on_run(outcome, log):
            logs.append(log)
            return False

        explorer = ScheduleExplorer(
            _make_runner(program, budget, None, True), budget=budget,
            on_run=on_run)
        state = dict(vars(explorer))
        first = dataclasses.replace(explorer.explore(), wall_seconds=0.0)
        first_logs, logs[:] = list(logs), []
        assert vars(explorer) == state
        second = dataclasses.replace(explorer.explore(), wall_seconds=0.0)
        assert (second, logs) == (first, first_logs)
        assert first.schedules > 1

    @pytest.mark.parametrize("test", [t.name for t in litmus.CORPUS])
    @pytest.mark.parametrize("model", ["sc", "tso", "relaxed_gpu", "ptx"])
    def test_litmus_corpus_with_schedulable_drains(self, test, model):
        cell = next(t for t in litmus.CORPUS if t.name == test)
        budget = litmus.LITMUS_BUDGET
        new, reference = explore_with_both_scans(
            lambda: litmus._make_runner(cell, get_model(model), budget),
            budget)
        assert new == reference
        assert new[0].complete

    @pytest.mark.parametrize("name", ["cc", "twophase"])
    def test_repair_verify_programs(self, name):
        from repro.repair.localize import localize
        from repro.repair.prefilter import prefilter
        from repro.repair.synth import synthesize
        from repro.repair.targets import get_target

        target = get_target(name)
        obligations, events = localize(target, seeds=(0, 1, 2))
        candidates = synthesize(
            target, obligations, prefilter(target.plan, events, obligations))
        assert candidates
        budget = BUDGETS["smoke"]
        for fixset in candidates:
            program = target.build_program(fixset.barriers())
            with site_kind_overrides(fixset.kinds()):
                new, reference = explore_with_both_scans(
                    lambda: _make_runner(program, budget, None, True),
                    budget)
            assert new == reference, fixset.describe()
