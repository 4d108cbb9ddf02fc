"""Tests for the buffered-store (weak-memory) execution modes.

The memory-model zoo (:mod:`repro.memmodel`) supplies the semantics:
``relaxed_gpu`` buffers non-atomic stores per thread and drains them
*out of program order* (lowest address first), so the classic
unsynchronized message-passing idiom breaks; ``tso`` keeps FIFO buffers
with store-to-load forwarding, which forbids that reorder but still
exhibits store buffering.  ``memory_model="tso"`` replaces the removed
``weak_memory=True`` executor flag.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import cc, mis, verify
from repro.core.variants import Variant
from repro.errors import KernelError
from repro.gpu.accesses import AccessKind, DType
from repro.gpu.atomics import atomic_read, atomic_write
from repro.gpu.interleave import AdversarialScheduler, RoundRobinScheduler
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor


def weak_exec(seed=0, capacity=8, model="relaxed_gpu"):
    mem = GlobalMemory()
    ex = SimtExecutor(mem, scheduler=AdversarialScheduler(seed),
                      memory_model=model, store_buffer_capacity=capacity,
                      record_events=False)
    return mem, ex


class TestLegacyFlag:
    """``memory_model="tso"``, what the removed ``weak_memory=True``
    flag meant."""

    def test_legacy_message_passing_stays_ordered(self):
        """Under TSO the buffer is FIFO: the payload always drains
        before the flag, so runs of the publication idiom are *correct*
        (stronger, never weaker)."""
        for seed in range(40):
            mem = GlobalMemory()
            ex = SimtExecutor(mem, scheduler=AdversarialScheduler(seed),
                              memory_model="tso", store_buffer_capacity=1,
                              record_events=False)
            buf = mem.alloc("buf", 2, DType.I32)
            scratch = mem.alloc("scratch", 1, DType.I32)
            result = []

            def kernel(ctx, buf, scratch):
                if ctx.tid == 0:
                    yield ctx.store(buf, 1, 99, AccessKind.PLAIN)
                    yield ctx.store(buf, 0, 1, AccessKind.PLAIN)
                    for _ in range(8):
                        yield ctx.load(scratch, 0, AccessKind.VOLATILE)
                else:
                    for _ in range(8):
                        flag = yield ctx.load(buf, 0, AccessKind.VOLATILE)
                        if flag == 1:
                            data = yield ctx.load(buf, 1,
                                                  AccessKind.VOLATILE)
                            result.append(data)
                            return

            ex.launch(kernel, 2, buf, scratch)
            assert not result or result[0] == 99


class TestStoreBufferSemantics:
    def test_invalid_capacity(self):
        with pytest.raises(KernelError):
            SimtExecutor(GlobalMemory(), memory_model="relaxed_gpu",
                         store_buffer_capacity=0)

    def test_own_stores_visible_to_self(self):
        """Reading over an own buffered store makes it visible first
        (relaxed_gpu drains; tso forwards) — never a stale read."""
        for model in ("relaxed_gpu", "tso"):
            mem, ex = weak_exec(model=model)
            arr = mem.alloc("a", 4, DType.I32)
            seen = []

            def kernel(ctx, arr):
                yield ctx.store(arr, 2, 42, AccessKind.PLAIN)
                v = yield ctx.load(arr, 2, AccessKind.VOLATILE)
                seen.append(v)

            ex.launch(kernel, 1, arr)
            assert seen == [42], model

    def test_tso_forwarding_does_not_drain(self):
        """TSO satisfies an exact-span reload from the buffer itself:
        the store stays invisible to other threads."""
        mem = GlobalMemory()
        ex = SimtExecutor(mem, scheduler=RoundRobinScheduler(),
                          memory_model="tso", record_events=False)
        arr = mem.alloc("a", 1, DType.I32)
        mid = []

        def kernel(ctx, arr):
            yield ctx.store(arr, 0, 9, AccessKind.PLAIN)
            v = yield ctx.load(arr, 0, AccessKind.VOLATILE)
            mid.append((v, int(mem.element_read(arr, 0))))

        ex.launch(kernel, 1, arr)
        assert mid == [(9, 0)]  # forwarded own value; memory still 0
        assert mem.element_read(arr, 0) == 9  # exit drained it

    def test_stores_visible_after_exit(self):
        for model in ("relaxed_gpu", "tso"):
            mem, ex = weak_exec(model=model)
            arr = mem.alloc("a", 2, DType.I32)

            def kernel(ctx, arr):
                yield ctx.store(arr, ctx.tid, ctx.tid + 7, AccessKind.PLAIN)

            ex.launch(kernel, 2, arr)
            assert np.array_equal(mem.download(arr), [7, 8]), model

    def test_fence_drains(self):
        mem = GlobalMemory()
        arr = mem.alloc("a", 1, DType.I32)
        observed = []

        def kernel(ctx, arr):
            if ctx.tid == 0:
                yield ctx.store(arr, 0, 5, AccessKind.PLAIN)
                yield ctx.fence()
                # spin so the launch doesn't end before T1 reads
                for _ in range(6):
                    yield ctx.load(arr, 0, AccessKind.VOLATILE)
            else:
                for _ in range(6):
                    v = yield ctx.load(arr, 0, AccessKind.VOLATILE)
                    observed.append(v)

        ex2 = SimtExecutor(mem, scheduler=RoundRobinScheduler(),
                           memory_model="relaxed_gpu", record_events=False)
        ex2.launch(kernel, 2, arr)
        assert observed[-1] == 5  # fence published the store

    def test_unsynchronized_message_passing_fails(self):
        """data then flag, both plain: relaxed_gpu's out-of-order drain
        can make the flag visible before the data.

        A capacity-1 buffer forces an overflow drain after the second
        store; the drain picks the lowest address — the flag — so the
        publication escapes before the payload while the writer is
        still busy.
        """
        broken = 0
        for seed in range(120):
            mem, ex = weak_exec(seed=seed, capacity=1)
            buf = mem.alloc("buf", 2, DType.I32)  # [0]=flag, [1]=data
            scratch = mem.alloc("scratch", 1, DType.I32)
            result = []

            def kernel(ctx, buf, scratch):
                if ctx.tid == 0:
                    yield ctx.store(buf, 1, 99, AccessKind.PLAIN)  # data
                    yield ctx.store(buf, 0, 1, AccessKind.PLAIN)   # flag
                    for _ in range(8):  # stay busy; no fence yet
                        yield ctx.load(scratch, 0, AccessKind.VOLATILE)
                else:
                    for _ in range(8):
                        flag = yield ctx.load(buf, 0, AccessKind.VOLATILE)
                        if flag == 1:
                            data = yield ctx.load(buf, 1,
                                                  AccessKind.VOLATILE)
                            result.append(data)
                            return

            ex.launch(kernel, 2, buf, scratch)
            if result and result[0] != 99:
                broken += 1
        assert broken > 0, "weak memory never reordered the publication"

    def test_atomic_message_passing_works(self):
        """The race-free idiom: atomic data and flag accesses."""
        for seed in range(120):
            mem, ex = weak_exec(seed=seed)
            buf = mem.alloc("buf", 2, DType.I32)
            result = []

            def kernel(ctx, buf):
                if ctx.tid == 0:
                    yield from atomic_write(ctx, buf, 1, 99)
                    yield from atomic_write(ctx, buf, 0, 1)
                else:
                    flag = yield from atomic_read(ctx, buf, 0)
                    if flag == 1:
                        data = yield from atomic_read(ctx, buf, 1)
                        result.append(data)

            ex.launch(kernel, 2, buf)
            assert not result or result[0] == 99

    def test_per_address_coherence_preserved(self):
        """Two stores to the same location drain in program order."""
        for model in ("relaxed_gpu", "tso"):
            for seed in range(40):
                mem, ex = weak_exec(seed=seed, capacity=16, model=model)
                arr = mem.alloc("a", 1, DType.I32)

                def kernel(ctx, arr):
                    yield ctx.store(arr, 0, 1, AccessKind.PLAIN)
                    yield ctx.store(arr, 0, 2, AccessKind.PLAIN)

                ex.launch(kernel, 1, arr)
                assert mem.element_read(arr, 0) == 2, model

    def test_capacity_overflow_drains_oldest_address_first(self):
        mem, ex = weak_exec(capacity=2)
        arr = mem.alloc("a", 8, DType.I32)

        def kernel(ctx, arr):
            for i in (5, 3, 7):  # overflow after the third store
                yield ctx.store(arr, i, i, AccessKind.PLAIN)
            # nothing else: remaining entries drain at exit

        ex.launch(kernel, 1, arr)
        got = mem.download(arr)
        assert got[3] == 3 and got[5] == 5 and got[7] == 7


class TestAlgorithmsUnderWeakMemory:
    """The race-free codes must stay correct on the weaker machine —
    the paper's portability argument, executed."""

    def test_cc_racefree_correct(self, tiny_graph):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, scheduler=AdversarialScheduler(3),
                          memory_model="relaxed_gpu", record_events=False)
        labels, _ = cc.run_simt(tiny_graph, Variant.RACE_FREE, executor=ex)
        verify.check_components(tiny_graph, labels)

    def test_mis_racefree_correct(self, tiny_graph):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, scheduler=AdversarialScheduler(4),
                          memory_model="relaxed_gpu", record_events=False)
        in_set, _ = mis.run_simt(tiny_graph, Variant.RACE_FREE, executor=ex)
        verify.check_mis(tiny_graph, in_set)
