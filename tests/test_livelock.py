"""Exact thread-state signatures and the spin proofs built on them.

:func:`repro.gpu.simt.thread_signature` keys everything that decides a
thread's future: its generator frames down the ``yield from`` chain
(resume point, locals, the loop iterators on the value stack and their
positions), queued micro-ops, registers, store buffer and flags.  Two
proofs use it: the explorer's free phase ends a run whose launch state
recurs while the stay policy keeps one thread running alone, and
``SimtExecutor._advance`` ends a register-served poll whose thread
state recurs.  Both must only ever cut runs that would have spun to
their bound, and must leave every schedule and verdict as it was.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.check import BUDGETS, ExploreBudget, ScheduleExplorer, check
from repro.check.explore import _WATCH_STAY, state_fingerprint
from repro.check.harness import (_make_runner, _single_launch_program,
                                 program_from_pattern)
from repro.core.variants import Variant
from repro.errors import DeadlockError
from repro.gpu.accesses import AccessKind, DType
from repro.gpu.faults import FaultPlan
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import (RepeatWatch, SimtExecutor, ThreadCtx, _Thread,
                            thread_signature)

SMOKE = BUDGETS["smoke"]
CAP = SMOKE.max_steps_per_run


def _thread(kernel, *args) -> _Thread:
    return _Thread(tid=0, block=0, gen=kernel(ThreadCtx(0, 0, 0, 1, 32),
                                              *args))


def _explore(kernel, num_threads, setup, budget=SMOKE, *, mode="dpor",
             faults=None, memory_model=None, schedulable_drains=False,
             state_dedupe=False):
    """(result, [(error text, decisions)] per run) of one exploration."""
    program = _single_launch_program("k", kernel, num_threads, setup,
                                     None, 32)
    runner = _make_runner(program, budget, faults, True,
                          memory_model=memory_model,
                          schedulable_drains=schedulable_drains)
    runs = []

    def on_run(outcome, log):
        error = None if outcome.error is None else str(outcome.error)
        runs.append((error, log.total_decisions))
        return False

    result = ScheduleExplorer(runner, mode=mode, budget=budget,
                              on_run=on_run,
                              state_dedupe=state_dedupe).explore()
    return result, runs


def _capped(runs) -> list[int]:
    return [n for error, n in runs if error and "micro-steps" in error]


def _proven(runs) -> list[int]:
    return [n for error, n in runs if error and "exact launch state" in error]


# ----------------------------------------------------------------------
# Kernels
# ----------------------------------------------------------------------

def counting_kernel(ctx, flag, out):
    """Thread 0 polls ``flag`` three times and publishes how many polls
    saw it set; thread 1 sets it.  Between the second and third poll
    thread 0's locals are equal — only the loop iterator's position
    differs."""
    if ctx.tid == 0:
        seen = 0
        for v in (5, 5, 5):
            x = yield ctx.load(flag, 0, AccessKind.ATOMIC)
            seen += x
        yield ctx.store(out, 0, seen, AccessKind.ATOMIC)
    else:
        yield ctx.store(flag, 0, 1, AccessKind.ATOMIC)


def counting_setup(mem):
    return (mem.alloc("flag", 1, DType.I32), mem.alloc("out", 1, DType.I32))


def two_loads(ctx, arr):
    yield ctx.load(arr, 0, AccessKind.ATOMIC)
    yield ctx.load(arr, 0, AccessKind.ATOMIC)


def delegating_kernel(ctx, arr):
    yield from two_loads(ctx, arr)


def spin_kernel(ctx, flags):
    """Thread 0 polls a flag nobody sets; thread 1 sets another."""
    if ctx.tid == 0:
        while True:
            seen = yield ctx.load(flags, 1, AccessKind.ATOMIC)
            if seen:
                return
    else:
        yield ctx.store(flags, 0, 1, AccessKind.ATOMIC)


def buffered_spin_kernel(ctx, flags):
    """A plain store stays in the store buffer under tso while the
    thread polls a flag nobody sets."""
    yield ctx.store(flags, 0, 1, AccessKind.PLAIN)
    while True:
        seen = yield ctx.load(flags, 1, AccessKind.VOLATILE)
        if seen:
            return


def flags_setup(mem):
    return (mem.alloc("flags", 2, DType.I32),)


# ----------------------------------------------------------------------
# The signature
# ----------------------------------------------------------------------

class TestSignature:
    def test_loop_iterator_position_tells_equal_locals_apart(self):
        mem = GlobalMemory()
        flag, out = counting_setup(mem)
        thread = _thread(counting_kernel, flag, out)
        thread.started = True
        next(thread.gen)
        signatures, locals_ = [], []
        for _ in range(2):
            thread.gen.send(0)
            signatures.append(thread_signature(thread))
            locals_.append(dict(thread.gen.gi_frame.f_locals))
        assert locals_[0] == locals_[1]
        assert signatures[0] != signatures[1]

    def test_yield_from_chain_tells_inner_resume_points_apart(self):
        mem = GlobalMemory()
        (arr,) = flags_setup(mem)
        thread = _thread(delegating_kernel, arr)
        next(thread.gen)
        first = thread_signature(thread)
        outer = (thread.gen.gi_frame.f_lasti,
                 dict(thread.gen.gi_frame.f_locals))
        thread.gen.send(0)
        assert outer == (thread.gen.gi_frame.f_lasti,
                         dict(thread.gen.gi_frame.f_locals))
        assert thread_signature(thread) != first

    def test_equal_states_of_fresh_threads_are_equal(self):
        mem = GlobalMemory()
        flag, out = counting_setup(mem)
        a, b = _thread(counting_kernel, flag, out), \
            _thread(counting_kernel, flag, out)
        assert thread_signature(a) == thread_signature(b) is not None
        next(a.gen), next(b.gen)
        assert thread_signature(a) == thread_signature(b)

    def test_a_value_named_only_by_type_leaves_no_signature(self):
        class Opaque:
            pass

        def kernel(ctx, arr, box):
            yield ctx.load(arr, 0, AccessKind.ATOMIC)

        mem = GlobalMemory()
        (arr,) = flags_setup(mem)
        thread = _thread(kernel, arr, Opaque())
        next(thread.gen)
        assert thread_signature(thread) is None
        assert state_fingerprint(mem, [thread], {0: 0}) is None

    def test_repeat_watch_finds_a_running_cycle_at_its_first_repeat(self):
        watch = RepeatWatch()
        step = next(i for i in range(20) if watch.repeats(("s", i % 5)))
        assert step == 5 and watch.since == 5
        # a cycle longer than the window is found once the window grows
        watch = RepeatWatch()
        step = next(i for i in range(1000) if watch.repeats(("s", i % 100)))
        assert watch.window == 128 and step == 164 and watch.since == 100
        assert not RepeatWatch().repeats(None)


# ----------------------------------------------------------------------
# The explorer's free-phase proof
# ----------------------------------------------------------------------

class TestExplorerProof:
    def test_counting_loop_is_not_merged_by_state_dedupe(self):
        plain = check(counting_kernel, 2, setup=counting_setup,
                      invariant=lambda mem, h: mem.element_read(h[1], 0) != 2,
                      budget=SMOKE)
        deduped = check(counting_kernel, 2, setup=counting_setup,
                        invariant=lambda mem, h: mem.element_read(h[1], 0)
                        != 2, budget=SMOKE, state_dedupe=True)
        for report in (plain, deduped):
            assert report.explore.complete
            assert report.explore.truncated_runs == 0
            # thread 1's store between polls 1 and 2 (seen == 2) is a
            # schedule of its own, not a repeat of the one between 2
            # and 3
            assert any(f.kind == "invariant" for f in report.failures)
        assert deduped.explore.distinct_final_states == \
            plain.explore.distinct_final_states == 4

    def test_flag_spin_truncated_run_ends_on_the_proof(self):
        runner = _make_runner(program_from_pattern("flag_spin",
                                                   Variant.RACE_FREE),
                              SMOKE, None, True)
        runs = []

        def on_run(outcome, log):
            runs.append((outcome.error, log))
            return False

        result = ScheduleExplorer(runner, budget=SMOKE,
                                  on_run=on_run).explore()
        # the record pinned while this run still spun to the cap, but
        # for its steps
        assert {f.name: getattr(result, f.name)
                for f in dataclasses.fields(result)
                if f.name not in ("wall_seconds", "total_steps",
                                  "max_depth")} == {
            "mode": "dpor", "schedules": 2, "complete": True,
            "truncated_runs": 1, "redundant_pruned": 0,
            "preemption_pruned": 0, "dedupe_pruned": 0,
            "distinct_final_states": 2, "budget": SMOKE,
            "stopped_early": False}
        assert result.total_steps < 2 * _WATCH_STAY
        (error, log), = [(e, log) for e, log in runs if e is not None]
        assert isinstance(error, DeadlockError)
        assert "exact launch state" in str(error)
        # the log still holds every pick the step cap would have taken
        assert log.total_decisions == CAP

    def test_every_run_of_a_mutual_wait_still_counts_as_truncated(self):
        budget = ExploreBudget(max_schedules=500, max_steps_per_run=400,
                               max_seconds=30.0, preemption_bound=2)

        def mutual_wait(ctx, flags):
            while True:
                seen = yield ctx.load(flags, 1 - ctx.tid,
                                      AccessKind.ATOMIC)
                if seen:
                    break
            yield ctx.store(flags, ctx.tid, 1, AccessKind.ATOMIC)

        result, runs = _explore(mutual_wait, 2, flags_setup, budget)
        assert result.stop_reason == "step_cap"
        assert result.truncated_runs == result.schedules == len(runs)
        assert _proven(runs) and not _capped(runs)

    def test_a_spin_with_buffered_stores_runs_to_the_cap(self):
        _, eager = _explore(buffered_spin_kernel, 1, flags_setup)
        _, buffered = _explore(buffered_spin_kernel, 1, flags_setup,
                               memory_model="tso", schedulable_drains=True)
        assert _proven(eager) == [CAP]
        # under tso the spinning thread's store never drains: a drain
        # agent stays runnable beside it, so no repeat proves anything
        assert _capped(buffered) == [CAP] and not _proven(buffered)

    def test_a_spin_under_a_fault_plan_runs_to_the_cap(self):
        clean, clean_runs = _explore(spin_kernel, 2, flags_setup)
        faulted, faulted_runs = _explore(spin_kernel, 2, flags_setup,
                                         faults=FaultPlan.parse("stuck=0"))
        assert _proven(clean_runs) and not _capped(clean_runs)
        assert _capped(faulted_runs) == [CAP] * faulted.truncated_runs
        assert faulted.truncated_runs == clean.truncated_runs > 0
        assert faulted.schedules == clean.schedules

    def test_naive_mode_runs_to_the_cap(self):
        budget = dataclasses.replace(SMOKE, max_steps_per_run=200)
        result, runs = _explore(spin_kernel, 2, flags_setup, budget,
                                mode="naive")
        assert result.truncated_runs > 0
        assert _capped(runs) == [200] * result.truncated_runs
        assert result.total_steps >= 200 * result.truncated_runs


@pytest.mark.parametrize("variant", list(Variant))
def test_explorer_launches_keep_the_scheduler_label(variant):
    """Every dpor run installs a probe; the batched tier still names the
    controlled scheduler as the reason it stayed on the interpreter."""
    from repro import telemetry

    with telemetry.session() as (registry, _spans):
        check("flag_spin", variant=variant, budget=SMOKE)
    family = registry.get("repro_simt_batch_interp_launches_total")
    reasons = {labels[1] for labels, _ in family.samples()}
    assert reasons == {"scheduler"}


# ----------------------------------------------------------------------
# The register-hit proof in SimtExecutor._advance
# ----------------------------------------------------------------------

class TestRegisterProof:
    def test_a_stale_poll_stops_at_its_first_watched_repeat(self):
        mem = GlobalMemory()
        ex = SimtExecutor(mem)
        arr = mem.alloc("a", 1, DType.I32, fill=-1)

        def kernel(ctx, arr):
            while True:
                v = yield ctx.load(arr, 0, AccessKind.PLAIN)
                if v != -1:
                    return

        with pytest.raises(DeadlockError, match="exact state") as info:
            ex.launch(kernel, 1, arr)
        assert "a[0:4]" in str(info.value)
        assert ex.events[-1].step == 1

    def test_a_register_loop_whose_counter_changes_reaches_the_bound(self):
        mem = GlobalMemory()
        ex = SimtExecutor(mem)
        arr = mem.alloc("a", 1, DType.I32)

        def kernel(ctx, arr):
            polls = 0
            while True:
                polls += 1
                yield ctx.load(arr, 0, AccessKind.PLAIN)

        with pytest.raises(DeadlockError,
                           match=str(SimtExecutor.MAX_FREE_OPS)):
            ex.launch(kernel, 1, arr)
