"""Warp-wide batched execution tier for the SIMT interpreter.

The interpreter tier advances ONE micro-operation per scheduler step and
rebuilds the runnable list every step — an O(threads) scan per retired
micro-op, O(threads²) per sweep round, which is what caps `scale` at toy
sizes.  This module replaces that loop, for eligible launches, with a
*wavefront stepper*: repeated tid-ascending passes over the thread list
in which every consecutive run of same-warp lanes whose pending
micro-ops form one uniform vector operation (same op class, access kind,
array, element width, aligned, conflict-free) is dispatched as a single
numpy gather/scatter against the :class:`~repro.gpu.memory.GlobalMemory`
arena.  Lanes that diverge — different ops, CAS retry loops that leave a
lane on a different micro-op, barrier waits, unaligned or conflicting
addresses — fall back to the scalar per-lane step for exactly that lane.

**Bit-identity argument.**  The round-robin scheduler picks the lowest
runnable tid at or after the previously chosen tid, wrapping when none
remains — i.e. it performs tid-ascending passes in which each eligible
thread retires exactly one micro-op, with eligibility re-evaluated at
each lane's turn.  The wavefront loop reproduces that order literally.
Within one uniform group the vector dispatch commutes with the serial
per-lane order because (a) loads do not mutate memory, (b) stores and
RMWs are only grouped when their target spans are pairwise disjoint,
and (c) resuming a lane's generator (`_advance`) performs no memory
traffic — so batching the memory phase before the per-lane completion
phase yields the same memory image, the same ``AccessEvent`` stream
(steps renumbered identically), the same ``LaunchStats``, and the same
``DeadlockError`` points as the interpreter.

Eligibility (:func:`ineligible_reason`) excludes every hook that
observes or perturbs individual micro-steps — controlled schedulers,
``step_probe``, fault injectors, weak-memory store buffers, warp
lockstep — so the racecheck/DPOR/repair paths always keep exact
interpreter semantics.
"""

from __future__ import annotations

import numpy as np

from repro.errors import DeadlockError
from repro.gpu.accesses import AccessKind, RMWOp
from repro.gpu.interleave import RoundRobinScheduler
from repro.gpu.simt import AccessEvent, SimtExecutor, _Micro, _Thread
from repro.telemetry.metrics import get_registry
from repro.utils.bitops import to_unsigned

#: group element widths the typed-view gather/scatter supports
_VECTOR_WIDTHS = (1, 2, 4, 8)

#: warps fused into one dispatch window.  Bit-identity never depends on
#: warp boundaries (the wavefront order is pure tid order; lockstep mode
#: is ineligible), so fusing consecutive uniform warps only amortizes
#: the fixed numpy dispatch cost — 32-lane gathers are dominated by it.
FUSE_WARPS = 8

_UNSIGNED = {1: np.uint8, 2: np.uint16, 4: np.uint32, 8: np.uint64}
_SIGNED = {4: np.int32, 8: np.int64}

# micro-op classes for uniformity checks
_CLS_LOAD, _CLS_STORE, _CLS_RMW = 0, 1, 2


def ineligible_reason(ex: SimtExecutor) -> str | None:
    """Why ``ex`` cannot use the batched tier (None = it can).

    Every condition here marks a hook that observes or perturbs
    individual micro-steps, which the vector dispatch does not replay.
    """
    if ex.warp_lockstep:
        return "warp_lockstep"
    if ex.weak_memory:
        return "weak_memory"
    if not ex.memory_model.batch_eligible:
        return "memory_model"
    if ex.faults is not None or ex.memory.faults is not None:
        return "faults"
    if type(ex.scheduler) is not RoundRobinScheduler:
        return "scheduler"
    # last: every dpor exploration installs a probe, and its launches
    # are labelled by their scheduler
    if ex.step_probe is not None:
        return "step_probe"
    return None


def run_launch(ex: SimtExecutor, threads: list[_Thread],
               epochs: dict[int, int], stats, launch_id: int,
               kernel_name: str = "kernel") -> None:
    """Run one (already primed) launch on the wavefront stepper.

    Mutates ``threads``/``epochs``/``stats``/``ex.events`` exactly as
    the interpreter loop would; raises the same ``DeadlockError``s at
    the same step counts.
    """
    n = len(threads)
    warp_size = ex.warp_size
    bs = ex.batch_stats
    bs.batched_launches += 1
    d0, l0 = bs.warp_dispatches, bs.warp_lanes
    s0 = dict(bs.scalar_steps)

    # the wavefront only visits still-live lanes: `active` is the
    # ascending tid list compacted once per pass as lanes retire
    active = [t.tid for t in threads if not t.done]
    while True:
        progressed = False
        new_active: list[int] = []
        i = 0
        na = len(active)
        while i < na:
            tid = active[i]
            thread = threads[tid]
            if thread.done:
                i += 1
                continue
            if thread.at_barrier:
                new_active.append(tid)
                i += 1
                continue
            progressed = True
            if not thread.micro:
                # between ops (barrier release): resume the generator
                _scalar_step(ex, thread, threads, epochs, stats,
                             launch_id, bs, "resume")
                if not thread.done:
                    new_active.append(tid)
                i += 1
                continue
            group, starts, resume = _collect_group(ex, threads, tid,
                                                   warp_size, n)
            if len(group) < 2:
                _scalar_step(ex, thread, threads, epochs, stats,
                             launch_id, bs, "solo")
                if not thread.done:
                    new_active.append(tid)
                i += 1
                continue
            if stats.steps + len(group) > ex.max_steps:
                # near the step budget: serial semantics raise mid-group
                _scalar_step(ex, thread, threads, epochs, stats,
                             launch_id, bs, "step_budget")
                if not thread.done:
                    new_active.append(tid)
                i += 1
                continue
            if not _dispatch(ex, group, starts, threads, epochs, stats,
                             launch_id, bs):
                # conflicting targets inside the group: per-lane order
                for t in group:
                    _scalar_step(ex, t, threads, epochs, stats,
                                 launch_id, bs, "conflict")
            for t in group:
                if not t.done:
                    new_active.append(t.tid)
            while i < na and active[i] < resume:
                i += 1
        active = new_active
        if not progressed:
            waiting = [t.tid for t in threads if t.at_barrier]
            if waiting:
                raise DeadlockError(
                    f"barrier divergence: threads {waiting} wait at a "
                    "barrier no peer will reach"
                )
            break  # all done

    _publish(kernel_name, bs, d0, l0, s0)


def _scalar_step(ex: SimtExecutor, thread: _Thread, threads, epochs,
                 stats, launch_id: int, bs, reason: str) -> None:
    """One interpreter micro-step for one lane (exact serial semantics)."""
    stats.steps += 1
    if stats.steps > ex.max_steps:
        raise DeadlockError(
            f"launch exceeded {ex.max_steps} micro-steps; "
            "likely an infinite polling loop on a stale "
            "register-cached value"
        )
    ex._step(thread, threads, epochs, stats, launch_id)
    bs.count_scalar(reason)


def _micro_cls(m: _Micro) -> int:
    if m.rmw is not None:
        return _CLS_RMW
    if m.is_write:
        return _CLS_STORE
    return _CLS_LOAD


def _collect_group(
    ex: SimtExecutor, threads: list[_Thread], start: int,
    warp_size: int, n: int,
) -> tuple[list[_Thread], list[int], int]:
    """Collect the uniform vector group headed at lane ``start``.

    Scans consecutive lanes of the head's warp; done lanes are skipped
    (permanently inert), any other break in uniformity stops the scan.
    Returns ``(group, starts, resume_tid)`` — the main loop continues
    its pass at ``resume_tid``.
    """
    head = threads[start]
    m0: _Micro = head.micro[0]
    span0 = m0.span
    cls = _micro_cls(m0)
    width = span0.nbytes
    if (width not in _VECTOR_WIDTHS
            or span0.start % width != 0
            or (cls == _CLS_RMW and width not in (4, 8))):
        return [head], [], start + 1
    entry = ex.memory._arrays.get(span0.array)
    if entry is None:
        return [head], [], start + 1  # scalar path raises the lookup error
    total = entry[0].total_bytes
    if span0.start < 0 or span0.start + width > total:
        return [head], [], start + 1  # scalar path raises the bounds error

    window = warp_size * FUSE_WARPS
    warp_end = min(n, (start // window + 1) * window)
    array = span0.array
    access = m0.access
    is_rmw = cls == _CLS_RMW
    is_write = cls == _CLS_STORE
    group = [head]
    starts = [span0.start]
    tid = start + 1
    while tid < warp_end:
        t = threads[tid]
        if t.done:
            tid += 1
            continue
        if t.at_barrier or not t.micro:
            break
        m: _Micro = t.micro[0]
        span = m.span
        if ((m.rmw is not None) != is_rmw
                or (not is_rmw and m.is_write != is_write)
                or m.access is not access
                or span.array != array
                or span.nbytes != width
                or span.start % width != 0
                or span.start < 0
                or span.start + width > total
                or (is_rmw
                    and (m.rmw is not m0.rmw or m.value != m0.value))):
            break
        group.append(t)
        starts.append(span.start)
        tid += 1
    return group, starts, tid


def _dispatch(ex: SimtExecutor, group: list[_Thread], starts: list[int],
              threads, epochs, stats, launch_id: int, bs) -> bool:
    """Retire the group's head micro-ops as one vector operation.

    Returns False (without side effects) when the group's targets
    conflict and per-lane serial order is required.
    """
    m0: _Micro = group[0].micro[0]
    width = m0.span.nbytes
    k = len(group)
    cls = _micro_cls(m0)
    if cls != _CLS_LOAD and len(set(starts)) != k:
        # duplicate targets: serial order is observable (last-write-wins
        # for stores, read-modify-write chains for RMWs) and numpy's
        # duplicate-index scatter order is unspecified
        return False
    if cls == _CLS_RMW and m0.rmw is RMWOp.CAS:
        if any(t.micro[0].expected is None for t in group):
            return False  # scalar path raises KernelError at that lane

    idx = np.array(starts, dtype=np.int64)
    if width != 1:
        idx //= width
    view = ex.memory.typed_view(m0.span.array, width)

    base = stats.steps
    stats.steps = base + k
    record = ex.record_events
    events = ex.events
    complete = ex._complete_op
    advance = ex._advance

    if cls == _CLS_LOAD:
        values = view[idx].tolist()
        which = stats.loads
        which[m0.access] = which[m0.access] + k
        for i, t in enumerate(group):
            micro: _Micro = t.micro.popleft()
            value = values[i]
            t.pieces.append(value)
            if record:
                events.append(AccessEvent(
                    step=base + i + 1, launch=launch_id, tid=t.tid,
                    block=t.block, epoch=epochs[t.block], span=micro.span,
                    is_read=True, is_write=False, access=micro.access,
                    value=value, site=micro.site,
                ))
            if not t.micro:
                complete(t, stats)
                advance(t, stats, threads, epochs)
    elif cls == _CLS_STORE:
        view[idx] = np.array([t.micro[0].value for t in group],
                             dtype=_UNSIGNED[width])
        which = stats.stores
        which[m0.access] = which[m0.access] + k
        for i, t in enumerate(group):
            micro = t.micro.popleft()
            if t.reg_cache:
                ex._invalidate_overlapping(t, micro.span)
            if record:
                events.append(AccessEvent(
                    step=base + i + 1, launch=launch_id, tid=t.tid,
                    block=t.block, epoch=epochs[t.block], span=micro.span,
                    is_read=False, is_write=True, access=micro.access,
                    value=micro.value, site=micro.site,
                ))
            if not t.micro:
                complete(t, stats)
                advance(t, stats, threads, epochs)
    else:
        values = _vector_rmw(group, view, idx, width, m0)
        stats.rmws += k
        for i, t in enumerate(group):
            micro = t.micro.popleft()
            value = values[i]
            t.pieces.append(value)
            if record:
                events.append(AccessEvent(
                    step=base + i + 1, launch=launch_id, tid=t.tid,
                    block=t.block, epoch=epochs[t.block], span=micro.span,
                    is_read=True, is_write=True, access=AccessKind.ATOMIC,
                    value=value, site=micro.site,
                ))
            if not t.micro:
                complete(t, stats)
                advance(t, stats, threads, epochs)
    bs.warp_dispatches += 1
    bs.warp_lanes += k
    return True


def _vector_rmw(group: list[_Thread], view: np.ndarray, idx: np.ndarray,
                width: int, m0: _Micro) -> list[int]:
    """Gather-compute-scatter one warp of same-op RMWs (disjoint
    targets); returns the per-lane old values, matching ``_apply_rmw``
    bit for bit."""
    bits = width * 8
    udt = _UNSIGNED[width]
    signed = bool(m0.value)  # RMW micros carry signedness in .value
    old = view[idx].copy()
    operands = np.array(
        [to_unsigned(t.micro[0].operand, bits) for t in group], dtype=udt)
    op = m0.rmw
    if op is RMWOp.ADD:
        # signed and unsigned add agree bit-for-bit under wraparound
        new = old + operands
    elif op is RMWOp.AND:
        new = old & operands
    elif op is RMWOp.OR:
        new = old | operands
    elif op is RMWOp.XOR:
        new = old ^ operands
    elif op in (RMWOp.MIN, RMWOp.MAX):
        fn = np.minimum if op is RMWOp.MIN else np.maximum
        if signed:
            sdt = _SIGNED[width]
            new = fn(old.view(sdt), operands.view(sdt)).view(udt)
        else:
            new = fn(old, operands)
    elif op is RMWOp.EXCH:
        new = operands
    else:  # CAS (expected checked non-None by the caller)
        expected = np.array(
            [to_unsigned(t.micro[0].expected, bits) for t in group],
            dtype=udt)
        new = np.where(old == expected, operands, old)
    view[idx] = new
    return old.tolist()


def _publish(kernel_name: str, bs, d0: int, l0: int,
             s0: dict[str, int]) -> None:
    """Fold this launch's batch-tier deltas into the telemetry registry."""
    reg = get_registry()
    if not reg.enabled:
        return
    reg.counter("repro_simt_batch_launches_total",
                "Kernel launches executed by the batched warp-wide tier",
                ("kernel",)).inc(1, kernel_name)
    warps = bs.warp_dispatches - d0
    if warps:
        reg.counter("repro_simt_batch_warps_total",
                    "Warp-wide vector dispatches retired",
                    ("kernel",)).inc(warps, kernel_name)
        reg.counter("repro_simt_batch_lanes_total",
                    "Lanes retired inside vector dispatches",
                    ("kernel",)).inc(bs.warp_lanes - l0, kernel_name)
    scalar = reg.counter(
        "repro_simt_batch_scalar_steps_total",
        "Per-lane scalar fallback steps on the batched tier",
        ("kernel", "reason"))
    for reason, count in bs.scalar_steps.items():
        delta = count - s0.get(reason, 0)
        if delta:
            scalar.inc(delta, kernel_name, reason)
