"""Tests for the SIMT interpreter: execution, barriers, register caching,
deadlock detection, scheduling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import DeadlockError, KernelError
from repro.gpu.accesses import AccessKind, DType, RMWOp
from repro.gpu.interleave import (
    AdversarialScheduler,
    RandomScheduler,
    RoundRobinScheduler,
)
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor


def make_exec(**kwargs):
    mem = GlobalMemory()
    return mem, SimtExecutor(mem, **kwargs)


class TestBasicExecution:
    def test_every_thread_runs(self):
        mem, ex = make_exec()
        out = mem.alloc("out", 8, DType.I32)

        def kernel(ctx, out):
            yield ctx.store(out, ctx.tid, ctx.tid * 10)

        stats = ex.launch(kernel, 8, out)
        assert np.array_equal(mem.download(out), np.arange(8) * 10)
        assert stats.stores[AccessKind.PLAIN] == 8

    def test_guarded_threads_noop(self):
        mem, ex = make_exec()
        out = mem.alloc("out", 2, DType.I32)

        def kernel(ctx, out):
            if ctx.tid >= out.length:
                return
            yield ctx.store(out, ctx.tid, 1)

        ex.launch(kernel, 16, out)
        assert np.array_equal(mem.download(out), [1, 1])

    def test_load_returns_stored_value(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=41)

        def kernel(ctx, arr):
            v = yield ctx.load(arr, 0)
            yield ctx.store(arr, 0, v + 1)

        ex.launch(kernel, 1, arr)
        assert mem.element_read(arr, 0) == 42

    def test_signed_load(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=-7)
        seen = []

        def kernel(ctx, arr):
            v = yield ctx.load(arr, 0)
            seen.append(v)

        ex.launch(kernel, 1, arr)
        assert seen == [-7]

    def test_bad_yield_rejected(self):
        mem, ex = make_exec()

        def kernel(ctx):
            yield "not an op"

        with pytest.raises(KernelError):
            ex.launch(kernel, 1)

    def test_invalid_launch_config(self):
        mem, ex = make_exec()
        with pytest.raises(KernelError):
            ex.launch(lambda ctx: iter(()), 0)
        with pytest.raises(KernelError):
            ex.launch(lambda ctx: iter(()), 4, block_dim=0)


class TestAtomics:
    def test_rmw_add_sums_exactly(self):
        mem, ex = make_exec()
        ctr = mem.alloc("ctr", 1, DType.I32)

        def kernel(ctx, ctr):
            yield ctx.atomic_rmw(ctr, 0, RMWOp.ADD, 1)

        ex.launch(kernel, 50, ctr)
        assert mem.element_read(ctr, 0) == 50

    def test_cas_returns_old(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=5)
        olds = []

        def kernel(ctx, arr):
            old = yield ctx.atomic_cas(arr, 0, 5, 9)
            olds.append(old)

        ex.launch(kernel, 2, arr)
        assert sorted(olds) == [5, 9]
        assert mem.element_read(arr, 0) == 9

    def test_signed_min_max(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 2, DType.I32, fill=0)

        def kernel(ctx, arr):
            yield ctx.atomic_rmw(arr, 0, RMWOp.MIN, -5)
            yield ctx.atomic_rmw(arr, 1, RMWOp.MAX, -5)

        ex.launch(kernel, 1, arr)
        assert mem.element_read(arr, 0) == -5
        assert mem.element_read(arr, 1) == 0

    def test_exch(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=3)
        olds = []

        def kernel(ctx, arr):
            old = yield ctx.atomic_rmw(arr, 0, RMWOp.EXCH, 7)
            olds.append(old)

        ex.launch(kernel, 1, arr)
        assert olds == [3]
        assert mem.element_read(arr, 0) == 7

    def test_atomic_char_rejected(self):
        """CUDA atomics do not support char operands (Section IV.C)."""
        mem, ex = make_exec()
        arr = mem.alloc("a", 4, DType.U8)

        def kernel(ctx, arr):
            yield ctx.load(arr, 0, AccessKind.ATOMIC)

        with pytest.raises(KernelError):
            ex.launch(kernel, 1, arr)

    def test_misaligned_atomic_rejected(self):
        from repro.errors import MemoryAccessError
        mem, ex = make_exec()
        arr = mem.alloc("a", 8, DType.U8)

        def kernel(ctx, arr):
            yield ctx.load_span(arr.cast_span(1, 4), AccessKind.ATOMIC)

        with pytest.raises(MemoryAccessError):
            ex.launch(kernel, 1, arr)


class TestRegisterCaching:
    def test_plain_reload_served_from_register(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=1)

        def kernel(ctx, arr):
            a = yield ctx.load(arr, 0, AccessKind.PLAIN)
            b = yield ctx.load(arr, 0, AccessKind.PLAIN)
            assert a == b

        stats = ex.launch(kernel, 1, arr)
        assert stats.loads[AccessKind.PLAIN] == 1
        assert stats.register_hits == 1

    def test_volatile_always_reloads(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32)

        def kernel(ctx, arr):
            yield ctx.load(arr, 0, AccessKind.VOLATILE)
            yield ctx.load(arr, 0, AccessKind.VOLATILE)

        stats = ex.launch(kernel, 1, arr)
        assert stats.loads[AccessKind.VOLATILE] == 2
        assert stats.register_hits == 0

    def test_own_store_invalidates(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=1)
        seen = []

        def kernel(ctx, arr):
            yield ctx.load(arr, 0, AccessKind.PLAIN)
            yield ctx.store(arr, 0, 99, AccessKind.PLAIN)
            v = yield ctx.load(arr, 0, AccessKind.PLAIN)
            seen.append(v)

        stats = ex.launch(kernel, 1, arr)
        assert seen == [99]
        assert stats.loads[AccessKind.PLAIN] == 2

    def test_fence_invalidates(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32)

        def kernel(ctx, arr):
            yield ctx.load(arr, 0, AccessKind.PLAIN)
            yield ctx.fence()
            yield ctx.load(arr, 0, AccessKind.PLAIN)

        stats = ex.launch(kernel, 1, arr)
        assert stats.loads[AccessKind.PLAIN] == 2

    def test_caching_can_be_disabled(self):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, register_cache_plain=False)
        arr = mem.alloc("a", 1, DType.I32)

        def kernel(ctx, arr):
            yield ctx.load(arr, 0, AccessKind.PLAIN)
            yield ctx.load(arr, 0, AccessKind.PLAIN)

        stats = ex.launch(kernel, 1, arr)
        assert stats.loads[AccessKind.PLAIN] == 2

    def test_infinite_poll_detected(self):
        """Fig. 1's thread T4: polling a register-cached value forever."""
        mem, ex = make_exec()
        arr = mem.alloc("a", 1, DType.I32, fill=-1)

        def kernel(ctx, arr):
            if ctx.tid == 0:
                while True:
                    v = yield ctx.load(arr, 0, AccessKind.PLAIN)
                    if v != -1:
                        return
            else:
                yield ctx.store(arr, 0, 0, AccessKind.PLAIN)

        with pytest.raises(DeadlockError) as info:
            ex.launch(kernel, 2, arr)
        # ended on the proof that the poll's state recurs, not on the
        # MAX_FREE_OPS bound
        assert "re-entered the exact state" in str(info.value)
        assert "a[0:4]" in str(info.value)
        assert str(SimtExecutor.MAX_FREE_OPS) not in str(info.value)


class TestBarriers:
    def test_barrier_orders_phases(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 4, DType.I32)
        out = mem.alloc("b", 4, DType.I32)

        def kernel(ctx, arr, out):
            yield ctx.store(arr, ctx.tid, ctx.tid + 1)
            yield ctx.barrier()
            # read the neighbor's value: defined because of the barrier
            v = yield ctx.load(arr, (ctx.tid + 1) % 4)
            yield ctx.store(out, ctx.tid, v)

        ex.launch(kernel, 4, arr, out, block_dim=4)
        assert np.array_equal(mem.download(out), [2, 3, 4, 1])

    def test_barrier_divergence_detected(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 2, DType.I32)

        def kernel(ctx, arr):
            if ctx.tid == 0:
                yield ctx.barrier()
            yield ctx.store(arr, ctx.tid, 1)

        with pytest.raises(DeadlockError):
            ex.launch(kernel, 2, arr, block_dim=2)

    def test_barrier_scopes_to_block(self):
        mem, ex = make_exec()
        arr = mem.alloc("a", 4, DType.I32)

        def kernel(ctx, arr):
            yield ctx.store(arr, ctx.tid, ctx.block)
            yield ctx.barrier()

        ex.launch(kernel, 4, arr, block_dim=2)
        assert np.array_equal(mem.download(arr), [0, 0, 1, 1])

    def test_max_steps_guard(self):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, max_steps=10)
        arr = mem.alloc("a", 1, DType.I32)

        def kernel(ctx, arr):
            while True:
                yield ctx.load(arr, 0, AccessKind.VOLATILE)

        with pytest.raises(DeadlockError):
            ex.launch(kernel, 1, arr)


class TestSchedulers:
    @pytest.mark.parametrize("scheduler", [
        RoundRobinScheduler(),
        RandomScheduler(7),
        AdversarialScheduler(7),
    ])
    def test_all_schedulers_complete_work(self, scheduler):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, scheduler=scheduler)
        ctr = mem.alloc("c", 1, DType.I32)

        def kernel(ctx, ctr):
            yield ctx.atomic_rmw(ctr, 0, RMWOp.ADD, 1)

        ex.launch(kernel, 20, ctr)
        assert mem.element_read(ctr, 0) == 20

    def test_adversarial_stickiness_validation(self):
        with pytest.raises(ValueError):
            AdversarialScheduler(0, stickiness=1.5)

    def test_round_robin_is_fair(self):
        sched = RoundRobinScheduler()
        picks = [sched.choose([0, 1, 2]) for _ in range(6)]
        assert picks == [0, 1, 2, 0, 1, 2]
