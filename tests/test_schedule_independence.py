"""Property: race-free programs are schedule-independent.

This is the paper's core correctness claim in executable form — a
program without data races has one defined meaning, no matter how the
hardware interleaves it.  Hypothesis generates random *race-free*
multi-threaded programs (threads write only their own cells, touch
shared cells only atomically) and the final memory state must be
identical under round-robin, random, adversarial, warp-lockstep, and
weak-memory execution.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.accesses import AccessKind, DType, RMWOp
from repro.gpu.interleave import (
    AdversarialScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor

N_THREADS = 4
N_SHARED = 2

# one instruction: (opcode, operand)
#   ("own_store", value)   - plain store to the thread's private cell
#   ("own_load", _)        - plain load of the private cell
#   ("atomic_add", value)  - atomicAdd on a shared cell
#   ("atomic_max", value)  - atomicMax on a shared cell
#   ("atomic_load", cell)  - atomic load of a shared cell
#   ("atomic_store_own", value) - atomic store to a per-thread shared slot
_instruction = st.one_of(
    st.tuples(st.just("own_store"), st.integers(-100, 100)),
    st.tuples(st.just("own_load"), st.just(0)),
    st.tuples(st.just("atomic_add"), st.integers(1, 5)),
    st.tuples(st.just("atomic_max"), st.integers(-10, 50)),
    st.tuples(st.just("atomic_load"), st.integers(0, N_SHARED - 1)),
)

_programs = st.lists(
    st.lists(_instruction, min_size=1, max_size=8),
    min_size=N_THREADS, max_size=N_THREADS,
)


def _run(programs, executor_factory):
    mem = GlobalMemory()
    own = mem.alloc("own", N_THREADS, DType.I32)
    shared = mem.alloc("shared", N_SHARED, DType.I32)
    ex = executor_factory(mem)

    def kernel(ctx, own, shared):
        acc = 0
        for opcode, arg in programs[ctx.tid]:
            if opcode == "own_store":
                yield ctx.store(own, ctx.tid, arg, AccessKind.PLAIN)
            elif opcode == "own_load":
                acc ^= (yield ctx.load(own, ctx.tid, AccessKind.PLAIN))
            elif opcode == "atomic_add":
                # adds commute with adds, so cell 0 is add-only
                yield ctx.atomic_rmw(shared, 0, RMWOp.ADD, arg)
            elif opcode == "atomic_max":
                # maxes commute with maxes, so cell 1 is max-only
                yield ctx.atomic_rmw(shared, 1, RMWOp.MAX, arg)
            elif opcode == "atomic_load":
                acc ^= (yield ctx.load(shared, arg, AccessKind.ATOMIC))
        # fold the loads into the private cell so they matter
        yield ctx.store(own, ctx.tid, acc & 0x7FFFFFFF, AccessKind.PLAIN)

    ex.launch(kernel, N_THREADS, own, shared)
    return mem.download(own), mem.download(shared)


_EXECUTORS = [
    lambda mem: SimtExecutor(mem, scheduler=RoundRobinScheduler(),
                             record_events=False),
    lambda mem: SimtExecutor(mem, scheduler=RandomScheduler(1),
                             record_events=False),
    lambda mem: SimtExecutor(mem, scheduler=AdversarialScheduler(2),
                             record_events=False),
    lambda mem: SimtExecutor(mem, warp_lockstep=True, warp_size=2,
                             record_events=False),
    lambda mem: SimtExecutor(mem, memory_model="tso",
                             scheduler=AdversarialScheduler(3),
                             record_events=False),
]


@settings(max_examples=40, deadline=None)
@given(_programs)
def test_shared_commutative_state_schedule_independent(programs):
    """Commutative atomic updates (add/max) must commute: the shared
    cells end identical under every execution mode."""
    results = [_run(programs, factory) for factory in _EXECUTORS]
    baseline_shared = results[0][1]
    for _, shared in results[1:]:
        assert np.array_equal(shared, baseline_shared)


@settings(max_examples=40, deadline=None)
@given(_programs)
def test_programs_without_atomic_loads_fully_deterministic(programs):
    """Drop the (legitimately racy-in-time) atomic loads: everything
    the program computes is then schedule-independent, private cells
    included."""
    filtered = [
        [ins for ins in prog if ins[0] != "atomic_load"]
        or [("own_store", 1)]
        for prog in programs
    ]
    results = [_run(filtered, factory) for factory in _EXECUTORS]
    base_own, base_shared = results[0]
    for own, shared in results[1:]:
        assert np.array_equal(own, base_own)
        assert np.array_equal(shared, base_shared)
