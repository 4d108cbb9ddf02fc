"""Bit-identity of the batched warp-wide tier vs the scalar interpreter.

The batched tier (:mod:`repro.gpu.batch`) promises to be an
*optimization*, never a semantic change: outputs, the full access-event
stream, memory fingerprints, AccessStats, and error behavior must be
byte-identical to the round-robin interpreter.  These tests pin that
contract per algorithm, per variant, and at every fallback edge
(divergence, CAS retries, fault hooks, step probes, foreign
schedulers, step budgets).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import apsp, cc, gc, mis, mst, scc
from repro.core.variants import Variant
from repro.errors import DeadlockError
from repro.gpu.accesses import AccessKind, DType, RMWOp
from repro.gpu.faults import FaultInjector, FaultPlan
from repro.gpu.interleave import RandomScheduler
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx
from repro.gpu.timing import stats_from_launches


def _executors():
    """A (interpreter, batched) executor pair on fresh memories."""
    return (SimtExecutor(GlobalMemory(), batch=False),
            SimtExecutor(GlobalMemory(), batch=True))


def _assert_identical(out_i, ex_i, out_b, ex_b, *, expect_batched=True):
    assert np.array_equal(np.asarray(out_i), np.asarray(out_b))
    assert ex_i.events == ex_b.events
    if expect_batched:
        assert ex_b.batch_stats.batched_launches > 0
    assert ex_i.batch_stats.batched_launches == 0


RUNNERS = {
    "cc": lambda g, v, ex: cc.run_simt(g, v, executor=ex),
    "gc": lambda g, v, ex: gc.run_simt(g, v, executor=ex),
    "mis": lambda g, v, ex: mis.run_simt(g, v, executor=ex),
    "mst": lambda g, v, ex: mst.run_simt(g.with_random_weights(1), v,
                                         executor=ex),
}


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("algo", sorted(RUNNERS))
def test_undirected_bit_identity(algo, variant, tiny_graph):
    ex_i, ex_b = _executors()
    out_i, _ = RUNNERS[algo](tiny_graph, variant, ex_i)
    out_b, _ = RUNNERS[algo](tiny_graph, variant, ex_b)
    _assert_identical(out_i, ex_i, out_b, ex_b)


@pytest.mark.parametrize("variant", list(Variant))
def test_scc_bit_identity(variant, tiny_directed):
    ex_i, ex_b = _executors()
    out_i, _ = scc.run_simt(tiny_directed, variant, executor=ex_i)
    out_b, _ = scc.run_simt(tiny_directed, variant, executor=ex_b)
    _assert_identical(out_i, ex_i, out_b, ex_b)


def test_apsp_barriers_bit_identity(two_triangles):
    ex_i, ex_b = _executors()
    out_i, _ = apsp.run_simt(two_triangles, executor=ex_i)
    out_b, _ = apsp.run_simt(two_triangles, executor=ex_b)
    _assert_identical(out_i, ex_i, out_b, ex_b)


def test_apsp_shared_memory_bit_identity(two_triangles):
    ex_i, ex_b = _executors()
    out_i, _ = apsp.run_simt_shared(two_triangles, executor=ex_i)
    out_b, _ = apsp.run_simt_shared(two_triangles, executor=ex_b)
    _assert_identical(out_i, ex_i, out_b, ex_b)


def test_memory_fingerprint_identical():
    """Scatter/gather through the arena leaves identical bytes behind."""

    def kernel(ctx: ThreadCtx, data, acc):
        v = yield ctx.load(data, ctx.tid)
        yield ctx.store(data, ctx.tid, v * 3 + 1)
        yield ctx.atomic_rmw(acc, ctx.tid % 4, RMWOp.ADD, v)

    results = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        data = mem.alloc("d", 96, DType.I64)
        acc = mem.alloc("a", 4, DType.I64)
        mem.upload(data, np.arange(96) - 17)
        launch = ex.launch(kernel, 96, data, acc)
        results.append((mem.fingerprint(), ex.events,
                        stats_from_launches([launch]),
                        ex.batch_stats.batched_launches))
    assert results[0][0] == results[1][0]
    assert results[0][1] == results[1][1]
    assert results[0][2] == results[1][2]  # LaunchStats aggregate
    assert results[1][3] == 1


def test_divergent_branches_fall_back_identically():
    """Data-dependent control flow splits warps; outputs must not move."""

    def kernel(ctx: ThreadCtx, data, out):
        v = yield ctx.load(data, ctx.tid)
        if v % 3 == 0:
            for _ in range(v % 5):
                yield ctx.atomic_rmw(out, 0, RMWOp.ADD, 1)
        elif v % 3 == 1:
            yield ctx.store(out, 1 + ctx.tid % 7, v, AccessKind.VOLATILE)
        else:
            w = yield ctx.load(out, 2, AccessKind.ATOMIC)
            yield ctx.store(data, ctx.tid, w + v)

    results = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        data = mem.alloc("d", 70, DType.I32)
        out = mem.alloc("o", 8, DType.I32)
        mem.upload(data, np.arange(70) * 13 % 41)
        ex.launch(kernel, 70, data, out)
        results.append((mem.download(data).tolist(),
                        mem.download(out).tolist(), ex.events))
    assert results[0] == results[1]


def test_cas_retry_loop_identical():
    """The classic lock-free retry loop (CC's hook pattern)."""

    def kernel(ctx: ThreadCtx, best):
        while True:
            cur = yield ctx.load(best, 0, AccessKind.ATOMIC)
            if cur <= ctx.tid:
                return
            got = yield ctx.atomic_cas(best, 0, cur, ctx.tid)
            if got == cur:
                return

    results = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        best = mem.alloc("best", 1, DType.I32)
        mem.element_write(best, 0, 10 ** 6)
        ex.launch(kernel, 64, best)
        results.append((mem.element_read(best, 0), ex.events))
    assert results[0] == results[1]
    assert results[0][0] == 0


def test_cas_none_expected_raises_in_both_tiers():
    """A CAS with expected=None is a kernel bug; both tiers must raise
    the same error at the same lane (scalar fallback, not vector)."""
    from repro.errors import KernelError

    def kernel(ctx: ThreadCtx, arr):
        yield ctx.atomic_rmw(arr, 0, RMWOp.CAS, 5, expected=None)

    messages = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        arr = mem.alloc("x", 1, DType.I32)
        with pytest.raises(KernelError) as info:
            ex.launch(kernel, 32, arr)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


def test_step_budget_deadlock_identical():
    """max_steps must trip at the same step with the same message."""

    def kernel(ctx: ThreadCtx, arr):
        while True:
            yield ctx.atomic_rmw(arr, 0, RMWOp.ADD, 1)

    messages = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch, max_steps=500)
        arr = mem.alloc("x", 1, DType.I32)
        with pytest.raises(DeadlockError) as info:
            ex.launch(kernel, 8, arr)
        messages.append(str(info.value))
        assert "500 micro-steps" in str(info.value)
    assert messages[0] == messages[1]


def test_register_poll_proof_identical():
    """A stale register-served poll ends on the repeated-state proof,
    with the same message after the same steps, on both tiers."""

    def kernel(ctx: ThreadCtx, arr):
        while True:
            v = yield ctx.load(arr, ctx.tid % 2, AccessKind.PLAIN)
            if v != -1:
                return

    outcomes = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        arr = mem.alloc("x", 2, DType.I32, fill=-1)
        with pytest.raises(DeadlockError) as info:
            ex.launch(kernel, 64, arr)
        outcomes.append((str(info.value), ex.events[-1].step))
        assert ex.batch_stats.batched_launches == int(batch)
    assert outcomes[0] == outcomes[1]
    assert "re-entered the exact state" in outcomes[0][0]


def test_barrier_divergence_identical(two_triangles):
    """Barrier-divergence deadlocks report the same waiting set."""

    def kernel(ctx: ThreadCtx, arr):
        if ctx.tid % 2 == 0:
            yield ctx.barrier()
        yield ctx.store(arr, ctx.tid, 1)

    messages = []
    for batch in (False, True):
        mem = GlobalMemory()
        ex = SimtExecutor(mem, batch=batch)
        arr = mem.alloc("x", 8, DType.I32)
        with pytest.raises(DeadlockError) as info:
            ex.launch(kernel, 8, arr, block_dim=8)
        messages.append(str(info.value))
    assert messages[0] == messages[1]
    assert "barrier divergence" in messages[0]


# ----------------------------------------------------------------------
# Fallback-to-interpreter conditions: hooks that observe individual
# micro-steps must force the scalar tier, silently and completely.
# ----------------------------------------------------------------------

def _run_tiny(ex, graph):
    return cc.run_simt(graph, Variant.RACE_FREE, executor=ex)


def test_fault_injector_forces_interpreter(tiny_graph):
    inj = FaultInjector(FaultPlan.parse("stall=0.2"), seed=3)
    mem = GlobalMemory()
    ex = SimtExecutor(mem, batch=True, faults=inj)
    _run_tiny(ex, tiny_graph)
    assert ex.batch_stats.batched_launches == 0
    assert ex.batch_stats.interp_launches > 0


def test_step_probe_forces_interpreter(tiny_graph):
    ex = SimtExecutor(GlobalMemory(), batch=True)
    seen = []
    ex.step_probe = lambda threads, epochs, stats: seen.append(1)
    _run_tiny(ex, tiny_graph)
    assert ex.batch_stats.batched_launches == 0
    assert seen  # the probe actually fired


def test_random_scheduler_forces_interpreter(tiny_graph):
    ex = SimtExecutor(GlobalMemory(), scheduler=RandomScheduler(7),
                      batch=True)
    _run_tiny(ex, tiny_graph)
    assert ex.batch_stats.batched_launches == 0


def test_warp_lockstep_forces_interpreter(tiny_graph):
    ex = SimtExecutor(GlobalMemory(), warp_lockstep=True, batch=True)
    _run_tiny(ex, tiny_graph)
    assert ex.batch_stats.batched_launches == 0


def test_weak_memory_forces_interpreter(tiny_graph):
    ex = SimtExecutor(GlobalMemory(), memory_model="tso", batch=True)
    _run_tiny(ex, tiny_graph)
    assert ex.batch_stats.batched_launches == 0


def test_default_tier(tiny_graph):
    """An executor built without ``batch`` runs an eligible launch on
    the batched tier; ``batch=False`` keeps it on the interpreter, with
    reason ``disabled``."""
    from repro import telemetry

    ex = SimtExecutor(GlobalMemory())
    _run_tiny(ex, tiny_graph)
    assert ex.batch_stats.batched_launches > 0
    assert ex.batch_stats.interp_launches == 0

    with telemetry.session() as (registry, _spans):
        ex2 = SimtExecutor(GlobalMemory(), batch=False)
        _run_tiny(ex2, tiny_graph)
    assert ex2.batch_stats.batched_launches == 0
    assert ex2.batch_stats.interp_launches > 0
    family = registry.get("repro_simt_batch_interp_launches_total")
    assert {labels[1] for labels, _ in family.samples()} == {"disabled"}
