"""Interleaving SIMT interpreter.

Kernels are Python *generator functions*: every memory operation is
``yield``-ed as an :class:`Op`, the executor performs it against
:class:`~repro.gpu.memory.GlobalMemory`, and the result is sent back
into the generator.  A pluggable :class:`~repro.gpu.interleave.Scheduler`
decides which thread advances next, one memory *micro-operation* at a
time, so every interleaving a real GPU could exhibit (and a few nastier
ones) is reachable:

* A non-atomic access wider than the native 32-bit word is decomposed
  into word-size micro-operations — other threads can run in between,
  producing genuine word tearing (Fig. 1).
* Plain loads are subject to a *compiler register-caching model*: once a
  thread has loaded a location plainly, later plain loads of the same
  location return the registered value without touching memory — the
  optimization that turns Fig. 1's thread T4 into an infinite loop.
  Volatile and atomic accesses always reach memory.
* Atomic operations execute as single indivisible transactions.

Every micro-operation is recorded as an :class:`AccessEvent`; the race
detector and cache simulator consume that stream.

Example kernel::

    def copy_kernel(ctx, src, dst):
        i = ctx.tid
        if i < src.length:
            val = yield ctx.load(src, i, AccessKind.PLAIN)
            yield ctx.store(dst, i, val, AccessKind.PLAIN)
"""

from __future__ import annotations

import enum
import gc
import types
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, NamedTuple

from repro.errors import DeadlockError, KernelError, MemoryAccessError
from repro.gpu.accesses import AccessKind, DType, MemoryOrder, MemSpan, RMWOp, Scope
from repro.memmodel.models import MemoryModel, resolve_model
from repro.gpu.interleave import RoundRobinScheduler, Scheduler
from repro.gpu import tiers
from repro.gpu.memory import (
    NATIVE_WORD_BYTES,
    ArrayHandle,
    GlobalMemory,
    split_native_words,
)
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_spans
from repro.utils.bitops import to_signed, to_unsigned

MAX_ATOMIC_BYTES = 8
"""CUDA atomics support at most 64-bit operands."""

DRAIN_BASE = 1_000_000
"""Scheduler-visible ids of store-buffer drain agents.

Under ``schedulable_drains`` every drainable buffer entry appears in the
runnable set as its own pseudo-thread ``DRAIN_BASE + entry.seq``, so a
controlled scheduler (and the DPOR explorer behind it) decides *when*
each buffered store becomes globally visible — memory-model reordering
becomes ordinary scheduling choice.  Entry seqs are assigned in decision
order, so the ids are deterministic along any replayed prefix."""


class OpKind(enum.Enum):
    LOAD = "load"
    STORE = "store"
    RMW = "rmw"
    BARRIER = "barrier"
    FENCE = "fence"

    __hash__ = object.__hash__


#: enum members the per-step paths test against, bound once: on Python
#: 3.11 every class-attribute access on an Enum goes through the
#: metaclass's Python-level ``__getattr__`` hook
_LOAD, _STORE, _RMW = OpKind.LOAD, OpKind.STORE, OpKind.RMW
_BARRIER, _FENCE = OpKind.BARRIER, OpKind.FENCE
_PLAIN, _ATOMIC = AccessKind.PLAIN, AccessKind.ATOMIC

#: builds a NamedTuple from its complete field tuple without the
#: generated Python-level ``__new__``: the ops and events made once per
#: simulated operation are built this way
_tuple_new = tuple.__new__


class Op(NamedTuple):
    """One operation yielded by a kernel.

    A NamedTuple for construction speed: one Op is built per yielded
    kernel operation, squarely on the simulator's hot path.
    """

    kind: OpKind
    span: MemSpan | None = None
    access: AccessKind = AccessKind.PLAIN
    order: MemoryOrder = MemoryOrder.RELAXED
    value: int | None = None          # store value / rmw operand
    rmw: RMWOp | None = None
    expected: int | None = None       # CAS expected value
    signed: bool = False              # sign-extend load results
    site: str | None = None           # source access-plan site label
    scope: Scope = Scope.DEVICE       # synchronization scope (PTXScoped)


class AccessEvent(NamedTuple):
    """One micro-operation against global memory.

    ``site`` carries the kernel-declared access-plan site label of the
    originating op (e.g. ``"cc.label.jump_read"``) when the kernel
    provided one — the stable source identifier race reports and the
    repair localizer key on.  Structure reads and ad-hoc accesses leave
    it None.
    """

    step: int
    launch: int
    tid: int
    block: int
    epoch: int
    span: MemSpan
    is_read: bool
    is_write: bool
    access: AccessKind
    value: int
    site: str | None = None
    #: memory order / scope of the originating op — consumed by the
    #: model-aware vector-clock engine (``tid >= DRAIN_BASE`` marks a
    #: scheduled store-buffer drain performed by a drain agent)
    order: MemoryOrder = MemoryOrder.RELAXED
    scope: Scope = Scope.DEVICE


@dataclass
class LaunchStats:
    """Operation counters for one kernel launch."""

    loads: dict[AccessKind, int] = field(
        default_factory=lambda: {k: 0 for k in AccessKind})
    stores: dict[AccessKind, int] = field(
        default_factory=lambda: {k: 0 for k in AccessKind})
    rmws: int = 0
    register_hits: int = 0
    barriers: int = 0
    steps: int = 0
    #: warp-lockstep steps where some live lane of the chosen warp was
    #: blocked (done early, at a barrier, or fault-filtered) while its
    #: peers advanced — the executor's branch-divergence measure
    divergent_steps: int = 0


class ThreadCtx:
    """Per-thread handle passed to kernels: ids plus op constructors."""

    __slots__ = ("tid", "block", "lane", "num_threads", "block_dim",
                 "_shared")

    def __init__(self, tid: int, block: int, lane: int,
                 num_threads: int, block_dim: int,
                 shared: dict[str, "ArrayHandle"] | None = None) -> None:
        self.tid = tid
        self.block = block
        self.lane = lane
        self.num_threads = num_threads
        self.block_dim = block_dim
        self._shared = shared or {}

    def shared(self, name: str) -> "ArrayHandle":
        """This block's instance of the named ``__shared__`` array."""
        try:
            return self._shared[name]
        except KeyError:
            raise KernelError(
                f"no shared array {name!r} declared at launch; known: "
                f"{sorted(self._shared)}"
            ) from None

    # -- element accesses ---------------------------------------------
    def load(self, handle: ArrayHandle, index: int,
             kind: AccessKind = AccessKind.PLAIN,
             order: MemoryOrder = MemoryOrder.RELAXED,
             site: str | None = None,
             scope: Scope = Scope.DEVICE) -> Op:
        return _tuple_new(Op, (_LOAD, handle.span(index), kind, order, None,
                               None, None, handle.dtype.signed, site, scope))

    def store(self, handle: ArrayHandle, index: int, value: int,
              kind: AccessKind = AccessKind.PLAIN,
              order: MemoryOrder = MemoryOrder.RELAXED,
              site: str | None = None,
              scope: Scope = Scope.DEVICE) -> Op:
        return _tuple_new(Op, (_STORE, handle.span(index), kind, order,
                               value, None, None, False, site, scope))

    # -- raw span accesses (typecasting tricks) ------------------------
    def load_span(self, span: MemSpan,
                  kind: AccessKind = AccessKind.PLAIN,
                  signed: bool = False,
                  order: MemoryOrder = MemoryOrder.RELAXED,
                  site: str | None = None,
                  scope: Scope = Scope.DEVICE) -> Op:
        return _tuple_new(Op, (_LOAD, span, kind, order, None, None, None,
                               signed, site, scope))

    def store_span(self, span: MemSpan, value: int,
                   kind: AccessKind = AccessKind.PLAIN,
                   order: MemoryOrder = MemoryOrder.RELAXED,
                   site: str | None = None,
                   scope: Scope = Scope.DEVICE) -> Op:
        return _tuple_new(Op, (_STORE, span, kind, order, value, None, None,
                               False, site, scope))

    # -- read-modify-write atomics -------------------------------------
    def atomic_rmw(self, handle: ArrayHandle, index: int, op: RMWOp,
                   value: int, expected: int | None = None,
                   site: str | None = None,
                   order: MemoryOrder = MemoryOrder.RELAXED,
                   scope: Scope = Scope.DEVICE) -> Op:
        return _tuple_new(Op, (_RMW, handle.span(index), _ATOMIC, order,
                               value, op, expected, handle.dtype.signed,
                               site, scope))

    def atomic_rmw_span(self, span: MemSpan, op: RMWOp, value: int,
                        expected: int | None = None,
                        signed: bool = False,
                        site: str | None = None,
                        order: MemoryOrder = MemoryOrder.RELAXED,
                        scope: Scope = Scope.DEVICE) -> Op:
        return _tuple_new(Op, (_RMW, span, _ATOMIC, order, value, op,
                               expected, signed, site, scope))

    def atomic_cas(self, handle: ArrayHandle, index: int,
                   expected: int, desired: int,
                   site: str | None = None,
                   order: MemoryOrder = MemoryOrder.RELAXED,
                   scope: Scope = Scope.DEVICE) -> Op:
        return self.atomic_rmw(handle, index, RMWOp.CAS, desired,
                               expected=expected, site=site, order=order,
                               scope=scope)

    # -- synchronization -----------------------------------------------
    def barrier(self) -> Op:
        """Block-level ``__syncthreads()``."""
        return Op(OpKind.BARRIER)

    def fence(self, order: MemoryOrder = MemoryOrder.SEQ_CST,
              scope: Scope = Scope.DEVICE) -> Op:
        """``__threadfence()`` — also discards register-cached values.

        Under :class:`~repro.memmodel.models.PTXScoped`, a releasing
        fence at ``scope=Scope.BLOCK`` (PTX ``fence.cta``) publishes the
        store buffer to same-block threads only; every other model
        drains it globally regardless of scope.
        """
        return Op(OpKind.FENCE, order=order, scope=scope)

    def fence_sc(self, scope: Scope = Scope.DEVICE) -> Op:
        """PTX ``fence.sc`` — the sequentially-consistent fence.  Always
        drains the store buffer globally (even under scoped models) and
        discards register-cached values."""
        return Op(OpKind.FENCE, order=MemoryOrder.SEQ_CST, scope=scope,
                  value=1)  # value=1 marks the fence as fence.sc


# ----------------------------------------------------------------------
# Micro-operations
# ----------------------------------------------------------------------

@dataclass(slots=True)
class _Micro:
    span: MemSpan
    is_read: bool
    is_write: bool
    access: AccessKind
    # STORE: the piece's value; RMW: handled via fn
    value: int = 0
    rmw: RMWOp | None = None
    operand: int = 0
    expected: int | None = None
    site: str | None = None
    order: MemoryOrder = MemoryOrder.RELAXED
    scope: Scope = Scope.DEVICE
    #: this micro-op's :data:`~repro.gpu.interleave.PendingOp` summary,
    #: built the first time a controlled scheduler asks for it
    pending: tuple | None = field(default=None, compare=False, repr=False)


class _BufEntry(NamedTuple):
    """One issued-but-not-globally-visible store in a thread's buffer.

    ``seq`` is the executor-wide issue stamp (drain-agent id =
    ``DRAIN_BASE + seq``); ``vis`` is 0 while the entry is private to
    the issuing thread, or the promote stamp once a block-scoped
    release made it visible to same-block threads (PTXScoped)."""

    span: MemSpan
    value: int
    seq: int
    vis: int = 0


@dataclass
class _Thread:
    tid: int
    block: int
    gen: Iterator
    started: bool = False
    done: bool = False
    at_barrier: bool = False
    micro: deque = field(default_factory=deque)
    current_op: Op | None = None
    pieces: list[int] = field(default_factory=list)  # loaded piece values
    send_value: Any = None
    reg_cache: dict[MemSpan, int] = field(default_factory=dict)
    #: buffered-store models: issued but not yet globally visible stores
    store_buffer: list[_BufEntry] = field(default_factory=list)


# ----------------------------------------------------------------------
# Exact thread-state signatures
# ----------------------------------------------------------------------

class _Unprovable(Exception):
    """A value the signature can only name by its type."""


#: marks the value-stack slot holding the frame's ``yield from``
#: delegate, whose own frame follows in the signature
_DELEGATE = ("yield from",)

#: builtin iterators a kernel loop may hold on its value stack; each
#: ``__reduce__`` exposes what is left to iterate (and where it stands)
_ITERATOR_TYPES = frozenset(type(it) for it in (
    iter(range(0)), iter(range(1 << 64)), iter(()), iter([])))


def _encode(value):
    """``value`` as a hashable key that two values share only if they
    behave alike.  Immutable scalars stand for themselves (tagged with
    their type where ``==`` would merge kinds, e.g. ``True == 1``);
    tuples, lists, loop iterators, closures and cells are encoded by
    content; the launch's fixed runtime objects (:class:`ThreadCtx`, the
    frozen :class:`ArrayHandle`) by their fields.  Anything else raises
    :class:`_Unprovable`."""
    cls = type(value)
    if cls is int or cls is str or value is None:
        return value
    if cls is tuple or cls is list:
        return (cls, *map(_encode, value))
    if cls is bool or cls is float:
        return (cls, value)
    if cls is ArrayHandle or isinstance(value, enum.Enum):
        return value
    if cls is ThreadCtx:
        return (cls, value.tid, value.block, value.lane, value.num_threads,
                value.block_dim, tuple(value._shared.items()))
    if cls in _ITERATOR_TYPES:
        # drop the rebuild callable (``iter``); the type names it
        return (cls, *map(_encode, value.__reduce__()[1:]))
    if cls is range:
        return (range, value.start, value.stop, value.step)
    if cls is types.CellType:
        try:
            return (cls, _encode(value.cell_contents))
        except ValueError:  # an empty cell
            return (cls,)
    if cls is types.FunctionType:
        # kernel helpers bound in closures: code, defaults and closure
        # contents; module globals are taken as fixed
        return (cls, value.__code__, _encode(value.__defaults__),
                _encode(value.__kwdefaults__),
                _encode(value.__closure__))
    if isinstance(value, tuple):  # NamedTuples: MemSpan, Op, ...
        return (cls, *map(_encode, value))
    raise _Unprovable(cls.__name__)


def _frame_signature(gen) -> tuple:
    """One generator frame: code, resume point, locals by name, and the
    value stack (loop iterators and their positions, pending operands,
    the ``yield from`` delegate).  CPython exposes a suspended frame's
    live slots through ``gc.get_referents``: a header ending in the
    frame's function and code object, then every bound fast local,
    cell and value-stack entry in order."""
    frame = gen.gi_frame
    code = gen.gi_code
    refs = gc.get_referents(gen)
    for i in range(1, len(refs)):
        if refs[i] is code and type(refs[i - 1]) is types.FunctionType:
            break
    else:
        raise _Unprovable("generator layout")
    delegate = gen.gi_yieldfrom
    return (code, frame.f_lasti,
            tuple((name, _encode(v)) for name, v in frame.f_locals.items()),
            tuple(_DELEGATE if r is delegate else _encode(r)
                  for r in refs[i + 1:]))


def thread_signature(thread: _Thread) -> tuple | None:
    """An exact key of everything that decides ``thread``'s future
    given the memory it reads: every generator frame down the
    ``yield from`` chain (:func:`_frame_signature`), the queued
    micro-ops, the current op, loaded pieces, register cache, store
    buffer, control flags and the value to send next.  Two equal
    signatures mean the same behaviour from here on; a thread holding a
    value the encoding can only name by its type (say a generator it
    iterates, or an object of a kernel-defined class) has no
    signature — None — and so never counts as a repeat.

    Module globals are not part of the state: kernels must not keep
    state there (re-executing a program per schedule already asks
    that)."""
    try:
        frames = []
        gen = thread.gen
        while gen is not None:
            if type(gen) is not types.GeneratorType:
                frames.append(_encode(gen))  # iter(()) for a no-op thread
                break
            if gen.gi_frame is None:
                frames.append(None)  # finished
                break
            frames.append(_frame_signature(gen))
            gen = gen.gi_yieldfrom
        send = _encode(thread.send_value)
        op = _encode(thread.current_op)
    except (_Unprovable, RecursionError):
        return None
    return (tuple(frames), send,
            tuple((m.span, m.is_read, m.is_write, m.access, m.value, m.rmw,
                   m.operand, m.expected, m.site, m.order, m.scope)
                  for m in thread.micro),
            op, tuple(thread.pieces),
            frozenset(thread.reg_cache.items()), tuple(thread.store_buffer),
            thread.started, thread.done, thread.at_barrier)


class RepeatWatch:
    """Finds an exact repeat in a deterministic sequence of states with
    O(1) memory (Brent's cycle detection).

    :meth:`repeats` takes one state per step and answers True once the
    state equals the one kept: the first state, and then, whenever
    ``window`` steps pass without a match, the newest, with the window
    doubling.  A cycle of at most 64 steps already running when the
    watch starts is caught at its first repeat, any other within a few
    of its periods.  A None state (no signature) never matches."""

    __slots__ = ("kept", "window", "since")

    def __init__(self) -> None:
        self.kept: tuple | None = None
        self.window = 64
        #: steps since the kept state
        self.since = 0

    def repeats(self, state: tuple | None) -> bool:
        if state is None:
            self.since += 1
            return False
        if self.kept is None:
            self.kept = state
            return False
        self.since += 1
        if state == self.kept:
            return True
        if self.since >= self.window:
            self.kept = state
            self.since = 0
            self.window *= 2
        return False


def _apply_rmw(op: RMWOp, old: int, operand: int, expected: int | None,
               nbytes: int, signed: bool) -> int:
    """Compute the new raw (unsigned) value of an atomic RMW."""
    bits = nbytes * 8
    if signed:
        old_v = to_signed(old, bits)
        operand_v = to_signed(to_unsigned(operand, bits), bits)
    else:
        old_v = old
        operand_v = to_unsigned(operand, bits)
    if op is RMWOp.ADD:
        new = old_v + operand_v
    elif op is RMWOp.AND:
        new = old & to_unsigned(operand, bits)
        return to_unsigned(new, bits)
    elif op is RMWOp.OR:
        new = old | to_unsigned(operand, bits)
        return to_unsigned(new, bits)
    elif op is RMWOp.XOR:
        new = old ^ to_unsigned(operand, bits)
        return to_unsigned(new, bits)
    elif op is RMWOp.MIN:
        new = min(old_v, operand_v)
    elif op is RMWOp.MAX:
        new = max(old_v, operand_v)
    elif op is RMWOp.EXCH:
        new = operand_v
    elif op is RMWOp.CAS:
        if expected is None:
            raise KernelError("CAS requires an expected value")
        exp = to_unsigned(expected, bits)
        new = operand_v if old == exp else old_v
    else:  # pragma: no cover - enum is closed
        raise KernelError(f"unknown RMW op {op}")
    return to_unsigned(new, bits)


@dataclass
class BatchStats:
    """Cumulative batched-tier counters for one executor.

    ``scalar_steps`` maps fallback reason (``solo``, ``resume``,
    ``conflict``, ``step_budget``) to per-lane scalar steps taken while
    on the batched tier.
    """

    batched_launches: int = 0
    interp_launches: int = 0
    warp_dispatches: int = 0
    warp_lanes: int = 0
    scalar_steps: dict[str, int] = field(default_factory=dict)

    def count_scalar(self, reason: str, n: int = 1) -> None:
        self.scalar_steps[reason] = self.scalar_steps.get(reason, 0) + n


class SimtExecutor:
    """Executes kernel launches against a :class:`GlobalMemory`.

    Parameters
    ----------
    memory:
        The global memory all launches share.
    scheduler:
        Interleaving policy; defaults to round-robin.
    register_cache_plain:
        Model the compiler register-caching plain loads (on by default —
        this is what an optimizing compiler is *allowed* to do, which is
        the paper's core correctness argument).
    record_events:
        Keep the full :class:`AccessEvent` stream (needed by the race
        detector and the cache simulator; costs memory).
    max_steps:
        Abort a launch with :class:`DeadlockError` after this many
        micro-steps — catches the infinite polling loops that register
        caching induces in racy code.
    memory_model:
        A :class:`~repro.memmodel.models.MemoryModel`, a spec string
        (``"sc"``, ``"tso"``, ``"relaxed_gpu"``, ``"ptx:acq_rel"``, …),
        or None for the default — the paper's relaxed-GPU semantics
        with eager stores, bit-identical to the pre-zoo executor.
    schedulable_drains:
        Expose each drainable store-buffer entry as its own runnable
        drain agent (id ``DRAIN_BASE + seq``) so a controlled scheduler
        — and the DPOR explorer — decides drain timing.  Only
        meaningful under a buffered model; the litmus harness turns it
        on.  Incompatible with warp lockstep and fault injection.
    """

    def __init__(
        self,
        memory: GlobalMemory,
        scheduler: Scheduler | None = None,
        register_cache_plain: bool = True,
        record_events: bool = True,
        max_steps: int = 2_000_000,
        warp_lockstep: bool = False,
        warp_size: int = 32,
        store_buffer_capacity: int = 8,
        faults: "FaultInjector | None" = None,
        batch: bool | None = None,
        memory_model: "MemoryModel | str | None" = None,
        schedulable_drains: bool = False,
    ) -> None:
        self.memory = memory
        self.scheduler = scheduler or RoundRobinScheduler()
        self.record_events = record_events
        self.max_steps = max_steps
        if warp_size <= 0:
            raise KernelError(f"warp_size must be positive, got {warp_size}")
        self.warp_lockstep = warp_lockstep
        self.warp_size = warp_size
        if store_buffer_capacity <= 0:
            raise KernelError(
                f"store_buffer_capacity must be positive, got "
                f"{store_buffer_capacity}"
            )
        #: the consistency semantics this executor runs under (see
        #: :mod:`repro.memmodel.models`); structural knobs below are
        #: resolved from it once, here
        self.memory_model: MemoryModel = resolve_model(memory_model)
        self.register_cache_plain = (register_cache_plain
                                     and self.memory_model.register_cache_plain)
        #: the orders at which an atomic load acquires under the model
        #: (and so drops the thread's register-cached values)
        self._acquire_orders = frozenset(
            order for order in MemoryOrder
            if self.memory_model.acquire_syncs(
                self.memory_model.runtime_order(order)))
        if self.memory_model.store_buffer_capacity is not None:
            store_buffer_capacity = self.memory_model.store_buffer_capacity
            if store_buffer_capacity <= 0:
                raise KernelError(
                    f"store_buffer_capacity must be positive, got "
                    f"{store_buffer_capacity}")
        #: buffered-store mode: non-atomic stores become globally
        #: visible late, in an order the model controls (FIFO under
        #: TSO, out of program order under RelaxedGPU/PTXScoped).
        #: Kept under the historical name for compatibility.
        self.weak_memory = self.memory_model.buffers_stores
        self.store_buffer_capacity = store_buffer_capacity
        if schedulable_drains and not self.memory_model.buffers_stores:
            schedulable_drains = False  # nothing to schedule
        if schedulable_drains and warp_lockstep:
            raise KernelError(
                "schedulable_drains is incompatible with warp_lockstep")
        if schedulable_drains and faults is not None:
            raise KernelError(
                "schedulable_drains is incompatible with fault injection")
        self.schedulable_drains = schedulable_drains
        #: issue/promote stamp counter (drain-agent ids derive from it)
        self._buf_seq = 0
        #: live block-visible (promoted) entries across all threads
        self._promoted_entries = 0
        self._launch_id = 0
        #: optional fault injector (scheduler stalls, transient aborts);
        #: memory-level faults ride on the injector installed in
        #: ``memory`` — pass the same injector to both for a full plan
        self.faults = faults
        #: batched-tier selection: True/False force it on/off, None
        #: defers to :mod:`repro.gpu.tiers` (env knobs, then ``auto``)
        self.batch = batch
        self.batch_stats = BatchStats()
        self.events: list[AccessEvent] = []
        self.launch_count = 0
        #: optional callback ``(threads, epochs, stats)`` invoked before
        #: every scheduling decision — the systematic explorer's window
        #: into executor state (fingerprinting, pending-op inspection)
        self.step_probe: Callable | None = None

    # ------------------------------------------------------------------
    def launch(self, kernel: Callable, num_threads: int, *args,
               block_dim: int = 32,
               shared: dict[str, tuple[int, DType]] | None = None,
               ) -> LaunchStats:
        """Run one kernel launch to completion and return its stats.

        ``kernel`` is called as ``kernel(ctx, *args)`` for every thread;
        it must be a generator function (or return None for a no-op
        thread, e.g. when guarded by ``if ctx.tid >= n: return``).

        ``shared`` declares block-shared scratchpads (``__shared__``
        arrays): ``{name: (length, dtype)}``.  Each block gets its own
        instance, reachable in the kernel via ``ctx.shared(name)``; the
        instances are freed when the launch completes.  ECL-APSP's
        tiled Floyd-Warshall is the suite's heavy user of this memory.

        With telemetry enabled, every launch opens a ``simt.launch``
        span and publishes its :class:`LaunchStats` (steps retired,
        per-kind loads/stores, register hits, barriers, divergence)
        into the metrics registry; with it disabled (the default) the
        execution is untouched.
        """
        spans = get_spans()
        if not spans.enabled and not get_registry().enabled:
            return self._launch_impl(kernel, num_threads, *args,
                                     block_dim=block_dim, shared=shared)
        with spans.span("simt.launch",
                        kernel=getattr(kernel, "__name__", "kernel"),
                        threads=num_threads) as sp:
            stats = self._launch_impl(kernel, num_threads, *args,
                                      block_dim=block_dim, shared=shared)
            sp.set(steps=stats.steps)
            self._publish_launch(kernel, stats)
            return stats

    def _publish_launch(self, kernel: Callable, stats: LaunchStats) -> None:
        """Fold one launch's counters into the telemetry registry."""
        reg = get_registry()
        if not reg.enabled:
            return
        name = getattr(kernel, "__name__", "kernel")
        reg.counter("repro_simt_launches_total",
                    "Kernel launches executed by the SIMT interpreter",
                    ("kernel",)).inc(1, name)
        reg.counter("repro_simt_steps_total",
                    "Scheduler micro-steps retired (instructions)",
                    ("kernel",)).inc(stats.steps, name)
        reg.counter("repro_simt_divergent_steps_total",
                    "Warp-lockstep steps with partially blocked warps",
                    ("kernel",)).inc(stats.divergent_steps, name)
        reg.counter("repro_simt_register_hits_total",
                    "Plain loads served from the register-caching model",
                    ("kernel",)).inc(stats.register_hits, name)
        reg.counter("repro_simt_barriers_total",
                    "Block barriers crossed",
                    ("kernel",)).inc(stats.barriers, name)
        accesses = reg.counter(
            "repro_simt_accesses_total",
            "Memory micro-operations by access kind",
            ("kernel", "kind", "op"))
        for kind in AccessKind:
            if stats.loads[kind]:
                accesses.inc(stats.loads[kind], name, kind.value, "load")
            if stats.stores[kind]:
                accesses.inc(stats.stores[kind], name, kind.value, "store")
        if stats.rmws:
            accesses.inc(stats.rmws, name, AccessKind.ATOMIC.value, "rmw")

    def _launch_impl(self, kernel: Callable, num_threads: int, *args,
                     block_dim: int = 32,
                     shared: dict[str, tuple[int, DType]] | None = None,
                     ) -> LaunchStats:
        if num_threads <= 0:
            raise KernelError(f"num_threads must be positive, got {num_threads}")
        if block_dim <= 0:
            raise KernelError(f"block_dim must be positive, got {block_dim}")
        launch_id = self.launch_count
        self.launch_count += 1
        self._launch_id = launch_id
        self.scheduler.reset()
        if self.faults is not None:
            self.faults.begin_launch()

        n_blocks = (num_threads + block_dim - 1) // block_dim
        shared_handles: dict[int, dict[str, ArrayHandle]] = {}
        if shared:
            for block in range(n_blocks):
                shared_handles[block] = {
                    name: self.memory.alloc(
                        f"__shared__{launch_id}_{block}_{name}",
                        length, dtype)
                    for name, (length, dtype) in shared.items()
                }

        threads: list[_Thread] = []
        for tid in range(num_threads):
            block = tid // block_dim
            ctx = ThreadCtx(tid, block, tid % block_dim, num_threads,
                            block_dim,
                            shared=shared_handles.get(block))
            gen = kernel(ctx, *args)
            if gen is None:
                gen = iter(())
            threads.append(_Thread(tid=tid, block=block, gen=gen))

        epochs: dict[int, int] = {t.block: 0 for t in threads}
        stats = LaunchStats()

        # prime every generator to its first op
        for t in threads:
            self._advance(t, stats, threads, epochs)

        reason = None
        if tiers.simt_batch_enabled(self.batch):
            from repro.gpu import batch as _batch  # deferred: imports simt
            reason = _batch.ineligible_reason(self)
            if reason is None:
                _batch.run_launch(self, threads, epochs, stats, launch_id,
                                  getattr(kernel, "__name__", "kernel"))
        else:
            reason = "disabled"
        if reason is not None:
            self.batch_stats.interp_launches += 1
            reg = get_registry()
            if reg.enabled:
                reg.counter(
                    "repro_simt_batch_interp_launches_total",
                    "Launches kept on the interpreter tier, by reason",
                    ("kernel", "reason"),
                ).inc(1, getattr(kernel, "__name__", "kernel"), reason)
            self._interpret(threads, epochs, stats, launch_id)

        for block_map in shared_handles.values():
            for handle in block_map.values():
                self.memory.free(handle.name)
        return stats

    def _interpret(self, threads: list[_Thread], epochs: dict[int, int],
                   stats: LaunchStats, launch_id: int) -> None:
        """The original one-micro-op-per-scheduler-step interpreter loop."""
        scheduler = self.scheduler
        faults = self.faults
        probe = self.step_probe
        schedulable_drains = self.schedulable_drains
        warp_lockstep = self.warp_lockstep
        max_steps = self.max_steps
        step = self._step
        while True:
            runnable = [t.tid for t in threads if not t.done and not t.at_barrier]
            drains = (self._drain_map(threads)
                      if schedulable_drains else None)
            if not runnable and not drains:
                waiting = [t.tid for t in threads if t.at_barrier]
                if waiting:
                    raise DeadlockError(
                        f"barrier divergence: threads {waiting} wait at a "
                        "barrier no peer will reach"
                    )
                break  # all done
            stats.steps += 1
            if stats.steps > max_steps:
                raise DeadlockError(
                    f"launch exceeded {max_steps} micro-steps; "
                    "likely an infinite polling loop on a stale "
                    "register-cached value"
                )
            if faults is not None:
                faults.check_abort(stats.steps)
                runnable = faults.filter_runnable(runnable, stats.steps)
            if probe is not None:
                probe(threads, epochs, stats)
            if drains:
                runnable = runnable + sorted(drains)
            scheduler.observe(
                runnable,
                self._pending_map(threads, runnable, drains)
                if scheduler.needs_pending else None)
            if warp_lockstep:
                # pre-Volta semantics: the scheduler picks a warp and
                # every runnable lane advances one micro-op in lane order
                warps = sorted({tid // self.warp_size for tid in runnable})
                wid = scheduler.choose(warps)
                lanes = [tid for tid in runnable
                         if tid // self.warp_size == wid]
                live = sum(
                    1 for t in threads[wid * self.warp_size:
                                       (wid + 1) * self.warp_size]
                    if not t.done)
                if len(lanes) < live:
                    stats.divergent_steps += 1
                for tid in lanes:
                    thread = threads[tid]
                    if thread.done or thread.at_barrier:
                        continue  # state may change mid-warp (barriers)
                    step(thread, threads, epochs, stats, launch_id)
            else:
                tid = scheduler.choose(runnable)
                if drains and tid in drains:
                    owner, idx = drains[tid]
                    self._drain_entry(owner, idx, epochs, stats, agent=tid)
                else:
                    step(threads[tid], threads, epochs, stats, launch_id)

    def _drain_map(self, threads: list[_Thread],
                   ) -> dict[int, tuple[_Thread, int]]:
        """Map each currently drainable buffered store to a pseudo-thread
        id (``DRAIN_BASE + entry.seq``) the scheduler may pick.  Under a
        FIFO model only each buffer's head is drainable; under a
        reordering model any entry not preceded by an older overlapping
        entry of the same buffer is (per-address coherence)."""
        drains: dict[int, tuple[_Thread, int]] = {}
        reorder = self.memory_model.reorders_stores
        for t in threads:
            buf = t.store_buffer
            if not buf:
                continue
            if not reorder:
                drains[DRAIN_BASE + buf[0].seq] = (t, 0)
                continue
            for i, e in enumerate(buf):
                if any(buf[j].span.overlaps(e.span) for j in range(i)):
                    continue
                drains[DRAIN_BASE + e.seq] = (t, i)
        return drains

    def _pending_map(self, threads: list[_Thread], runnable: list[int],
                     drains: dict[int, tuple[_Thread, int]] | None = None,
                     ) -> dict[int, tuple | None]:
        """Each runnable thread's next queued micro-op, summarized for a
        controlled scheduler's dependence analysis (None when the thread
        is between operations and its next access is not yet known).

        Under a buffered memory model one micro-op can carry side
        effects on *other* spans than its own: a draining atomic (or
        RMW) flushes the thread's store buffer, a block-scope release
        promotes it, and a load that overlaps buffered stores without an
        exact forwarding match forces a flush.  Summarizing such a step
        by its primary span would under-approximate the dependence
        relation — sleep-set wakes and backtrack analysis would miss
        real conflicts and prune reachable outcomes — so those steps
        report None (conservatively dependent with everything).

        A micro-op's own summary is built once and kept on it: a thread
        that is not picked keeps the same pending micro-op across many
        decisions."""
        model = self.memory_model
        pending: dict[int, tuple | None] = {}
        for tid in runnable:
            if drains and tid in drains:
                owner, idx = drains[tid]
                span = owner.store_buffer[idx].span
                pending[tid] = (span.array, span.start, span.nbytes,
                                False, True, False)
                continue
            thread = threads[tid]
            micro = thread.micro
            if not micro:
                pending[tid] = None
                continue
            m = micro[0]
            if thread.store_buffer and m.access is _ATOMIC \
                    and (m.is_write or m.rmw is not None):
                eff = model.runtime_order(m.order)
                if (model.atomic_drains(eff)
                        or model.release_promotes_block(eff, m.scope)):
                    pending[tid] = None  # may flush/promote other spans
                    continue
            if thread.store_buffer and m.is_read and m.rmw is None \
                    and any(e.span.overlaps(m.span)
                            for e in thread.store_buffer):
                forwarded = (self._forwarded(thread, m.span)
                             if model.forwards_stores else None)
                if forwarded is None:
                    pending[tid] = None  # load will force a flush
                    continue
            op = m.pending
            if op is None:
                span = m.span
                op = m.pending = (span.array, span.start, span.nbytes,
                                  m.is_read, m.is_write or m.rmw is not None,
                                  m.access is _ATOMIC)
            pending[tid] = op
        return pending

    # ------------------------------------------------------------------
    def _step(self, thread: _Thread, threads: list[_Thread],
              epochs: dict[int, int], stats: LaunchStats,
              launch_id: int) -> None:
        """Execute one micro-operation of ``thread``."""
        queue = thread.micro
        if not queue:
            # just released from a barrier: resume the generator
            self._advance(thread, stats, threads, epochs)
            return
        micro: _Micro = queue.popleft()
        span = micro.span
        access = micro.access
        rmw = micro.rmw
        model = self.memory_model
        forwarded: int | None = None
        if self.weak_memory:
            if access is _ATOMIC or rmw is not None:
                eff = model.runtime_order(micro.order)
                if ((micro.is_write or rmw is not None)
                        and model.release_promotes_block(eff, micro.scope)):
                    # block-scope release: make buffered stores visible
                    # to the block without forcing a global drain
                    self._promote_block(thread, epochs, stats)
                elif model.atomic_drains(eff):
                    self._drain_buffer(thread, epochs, stats)
            elif micro.is_read:
                if model.forwards_stores:
                    forwarded = self._forwarded(thread, span)
                if forwarded is None and any(
                        e.span.overlaps(span) for e in thread.store_buffer):
                    # partial overlap (or no forwarding): make own pending
                    # stores visible before reading over them
                    self._drain_buffer(thread, epochs, stats)
        if rmw is not None:
            memory = self.memory
            value = memory.span_read(span)
            # micro.value carries the op's signedness flag for RMW
            memory.span_write(span, _apply_rmw(
                rmw, value, micro.operand, micro.expected, span.nbytes,
                signed=bool(micro.value)))
            thread.pieces.append(value)
            stats.rmws += 1
            is_read = is_write = True
        elif micro.is_write:
            value = micro.value
            if self.weak_memory and access is not _ATOMIC:
                self._buf_seq += 1
                thread.store_buffer.append(
                    _BufEntry(span, value, self._buf_seq))
                if len(thread.store_buffer) > self.store_buffer_capacity:
                    self._drain_one(thread, epochs, stats)
            else:
                self.memory.span_write(span, value, access)
            if thread.reg_cache:
                self._invalidate_overlapping(thread, span)
            stats.stores[access] += 1
            is_read, is_write = False, True
        else:
            if forwarded is not None:
                value = forwarded
            elif self._promoted_entries:
                value = self._visible_read(thread, micro, threads)
            else:
                value = self.memory.span_read(span, access)
            thread.pieces.append(value)
            stats.loads[access] += 1
            is_read, is_write = True, False
        if self.record_events:
            block = thread.block
            self.events.append(_tuple_new(AccessEvent, (
                stats.steps, launch_id, thread.tid, block, epochs[block],
                span, is_read, is_write, access, value, micro.site,
                micro.order, micro.scope)))
        if (not is_write and access is _ATOMIC
                and micro.order in self._acquire_orders):
            thread.reg_cache.clear()  # acquire load synchronizes

        if not queue:
            self._complete_op(thread, stats)
            self._advance(thread, stats, threads, epochs)

    def _complete_op(self, thread: _Thread, stats: LaunchStats) -> None:
        """All micro-ops of the current op are done: build its result."""
        op = thread.current_op
        if op is None:
            return
        kind = op.kind
        pieces = thread.pieces
        if kind is _LOAD:
            if len(pieces) == 1:
                value = pieces[0]
            else:
                value = 0
                shift = 0
                # pieces were queued (and therefore loaded) low-to-high
                for piece_span, piece in zip(self._pieces_of(op), pieces):
                    value |= piece << shift
                    shift += piece_span.nbytes * 8
            if op.signed:
                value = to_signed(value, op.span.nbytes * 8)
            thread.send_value = value
            if self.register_cache_plain and op.access is _PLAIN:
                thread.reg_cache[op.span] = value
        elif kind is _RMW:
            old = pieces[0]
            if op.signed:
                old = to_signed(old, op.span.nbytes * 8)
            thread.send_value = old
        else:
            thread.send_value = None
        thread.pieces = []
        thread.current_op = None

    def _pieces_of(self, op: Op) -> list[MemSpan]:
        if op.access is _ATOMIC or op.kind is _RMW:
            return [op.span]
        return split_native_words(op.span)

    #: free ops (register hits, fences) one thread may take in a row
    #: before we declare it stuck: the bound for loops whose state never
    #: repeats exactly
    MAX_FREE_OPS = 65_536

    #: register hits in a row after which ``_advance`` starts watching
    #: for an exact repeat of the thread's state; the kernels here take
    #: at most a handful, so the watch costs them nothing
    WATCH_REGISTER_HITS = 16

    def _advance(self, thread: _Thread, stats: LaunchStats,
                 threads: list[_Thread] | None = None,
                 epochs: dict[int, int] | None = None) -> None:
        """Run the generator until it yields the next op (or finishes),
        translating the op into micro-operations.  Pure compute between
        memory operations is free, and so is a plain load the register
        cache serves.

        Between two register hits only this thread's own Python code
        runs, and nothing touches memory, so once its exact state
        (:func:`thread_signature`) recurs at a hit it would recur
        forever.  Watched from the ``WATCH_REGISTER_HITS``-th hit in a
        row, the first repeat raises :class:`DeadlockError` instead of
        the ``MAX_FREE_OPS`` bound."""
        gen = thread.gen
        reg_cache = thread.reg_cache
        cache_plain = self.register_cache_plain
        free_ops = 0
        watch: RepeatWatch | None = None
        while True:
            free_ops += 1
            if free_ops > self.MAX_FREE_OPS:
                raise DeadlockError(
                    f"thread {thread.tid} satisfied {self.MAX_FREE_OPS} "
                    "consecutive operations from registers without touching "
                    "memory — an infinite polling loop on a stale "
                    "register-cached value (Fig. 1's thread T4)"
                )
            try:
                if not thread.started:
                    thread.started = True
                    op = next(gen)
                else:
                    op = gen.send(thread.send_value)
            except StopIteration:
                thread.done = True
                if self.weak_memory and not self.schedulable_drains:
                    # exit makes stores visible; in schedulable mode the
                    # leftover entries instead drain via drain agents so
                    # the explorer controls their timing
                    self._drain_buffer(thread, epochs, stats)
                return
            thread.send_value = None
            if not isinstance(op, Op):
                raise KernelError(
                    f"kernel thread {thread.tid} yielded {op!r}; kernels "
                    "must yield Op objects built via ThreadCtx"
                )
            kind = op.kind
            if kind is _LOAD:
                if cache_plain and op.access is _PLAIN:
                    value = reg_cache.get(op.span)
                    if value is not None:
                        # register hit: no memory traffic, loop on
                        stats.register_hits += 1
                        thread.send_value = value
                        # a fence empties the cache, so every free op so
                        # far was a register hit
                        if free_ops >= self.WATCH_REGISTER_HITS:
                            if watch is None:
                                watch = RepeatWatch()
                            if watch.repeats(thread_signature(thread)):
                                raise DeadlockError(
                                    f"thread {thread.tid} re-entered the "
                                    f"exact state it held {watch.since} "
                                    "register-served load(s) earlier "
                                    "(frames, locals, registers and sent "
                                    f"value equal) while polling {op.span} "
                                    "— an infinite polling loop on a "
                                    "stale register-cached value (Fig. 1's "
                                    "thread T4)")
                        continue
            elif kind is _FENCE:
                reg_cache.clear()
                if self.weak_memory:
                    model = self.memory_model
                    eff = model.runtime_order(op.order)
                    # op.value == 1 marks fence.sc: always drains globally
                    if (op.value != 1
                            and model.release_promotes_block(eff, op.scope)):
                        self._promote_block(thread, epochs, stats)
                    elif model.fence_drains(eff):
                        self._drain_buffer(thread, epochs, stats)
                continue  # free
            elif kind is _BARRIER:
                if self.weak_memory:
                    self._drain_buffer(thread, epochs, stats)
                if threads is None or epochs is None:
                    raise KernelError("barrier before first micro-step")
                thread.at_barrier = True
                stats.barriers += 1
                self._maybe_release_barrier(thread.block, threads, epochs)
                return
            self._translate(thread, op)
            thread.current_op = op
            return

    def _translate(self, thread: _Thread, op: Op) -> None:
        """Turn an Op into queued micro-operations (at least one)."""
        span = op.span
        if span is None:
            raise KernelError(f"{op.kind} op requires a span")
        kind = op.kind
        access = op.access
        site, order, scope = op.site, op.order, op.scope
        queue = thread.micro
        # a non-atomic access that crosses a native-word boundary splits
        # into word pieces; any other access is one micro-op
        split = (span.start % NATIVE_WORD_BYTES + span.nbytes
                 > NATIVE_WORD_BYTES)
        if kind is _LOAD:
            if access is _ATOMIC:
                self._check_atomic_span(span)
            elif split:
                for piece in split_native_words(span):
                    queue.append(_Micro(piece, True, False, access, 0, None,
                                        0, None, site, order, scope))
                return
            queue.append(_Micro(span, True, False, access, 0, None, 0, None,
                                site, order, scope))
        elif kind is _STORE:
            raw = to_unsigned(op.value, span.nbytes * 8)
            if access is _ATOMIC:
                self._check_atomic_span(span)
            elif split:
                shift = 0
                for piece in split_native_words(span):
                    bits = piece.nbytes * 8
                    queue.append(_Micro(piece, False, True, access,
                                        (raw >> shift) & ((1 << bits) - 1),
                                        None, 0, None, site, order, scope))
                    shift += bits
                return
            queue.append(_Micro(span, False, True, access, raw, None, 0,
                                None, site, order, scope))
        elif kind is _RMW:
            self._check_atomic_span(span)
            thread.reg_cache.clear()  # atomics synchronize the thread
            queue.append(_Micro(span, True, True, _ATOMIC, int(op.signed),
                                op.rmw, op.value or 0, op.expected, site,
                                order, scope))
        else:  # pragma: no cover - closed enum
            raise KernelError(f"unhandled op kind {op.kind}")

    @staticmethod
    def _check_atomic_span(span: MemSpan) -> None:
        if span.nbytes not in (4, 8):
            raise KernelError(
                f"atomic access of {span.nbytes} bytes unsupported: CUDA "
                "atomics require 32- or 64-bit operands (use the "
                "typecast-and-mask helpers for small types)"
            )
        if span.start % span.nbytes != 0:
            raise MemoryAccessError(f"misaligned atomic access at {span}")

    # -- store-buffer machinery ----------------------------------------
    def _forwarded(self, thread: _Thread, span: MemSpan) -> int | None:
        """Store-to-load forwarding: the youngest buffered store to
        exactly this span, if any (TSO/PTXScoped).  Partial overlaps
        don't forward — the caller drains instead."""
        for e in reversed(thread.store_buffer):
            if e.span == span:
                return e.value
        return None

    def _visible_read(self, thread: _Thread, micro: _Micro,
                      threads: list[_Thread]) -> int:
        """Read ``micro.span`` as ``thread`` sees it while PTXScoped
        promotion is live: global memory, overridden by the youngest
        *promoted* (block-visible) buffered store of a same-block peer."""
        best_vis = 0
        best_val = 0
        for peer in threads:
            if peer.block != thread.block or peer.tid == thread.tid:
                continue
            for e in peer.store_buffer:
                if e.vis and e.span == micro.span and e.vis > best_vis:
                    best_vis = e.vis
                    best_val = e.value
        if best_vis:
            return best_val
        return self.memory.span_read(micro.span, kind=micro.access)

    def _drain_buffer(self, thread: _Thread,
                      epochs: dict[int, int] | None = None,
                      stats: LaunchStats | None = None) -> None:
        """Make all of a thread's buffered stores globally visible."""
        while thread.store_buffer:
            self._drain_one(thread, epochs, stats)

    def _drain_one(self, thread: _Thread,
                   epochs: dict[int, int] | None = None,
                   stats: LaunchStats | None = None) -> None:
        """Drain one buffered store.  The model picks the order: FIFO
        (TSO — program order) or lowest address first (the relaxed-GPU
        out-of-order memory system; first-wins on ties preserves
        per-address coherence)."""
        buf = thread.store_buffer
        if self.memory_model.drain_policy == "address":
            idx = min(range(len(buf)),
                      key=lambda i: (buf[i].span.array, buf[i].span.start))
        else:
            idx = 0
        self._drain_entry(thread, idx, epochs, stats, agent=thread.tid)

    def _drain_entry(self, thread: _Thread, idx: int,
                     epochs: dict[int, int] | None,
                     stats: LaunchStats | None, agent: int) -> None:
        """Write buffer entry ``idx`` of ``thread`` to global memory.
        ``agent`` is the acting id — the owning thread for forced
        drains, or a ``DRAIN_BASE+seq`` pseudo-id when the scheduler
        picked the drain itself (schedulable mode)."""
        entry = thread.store_buffer.pop(idx)
        if entry.vis:
            self._promoted_entries -= 1
        # buffered stores are non-atomic by construction (atomics drain
        # the buffer instead of entering it); fault them as plain
        self.memory.span_write(entry.span, entry.value,
                               kind=AccessKind.PLAIN)
        if (self.schedulable_drains and self.record_events
                and stats is not None and epochs is not None):
            self.events.append(AccessEvent(
                step=stats.steps, launch=self._launch_id, tid=agent,
                block=thread.block, epoch=epochs[thread.block],
                span=entry.span, is_read=False, is_write=True,
                access=AccessKind.PLAIN, value=entry.value))

    def _promote_block(self, thread: _Thread,
                       epochs: dict[int, int] | None = None,
                       stats: LaunchStats | None = None) -> None:
        """Block-scope release (PTXScoped): stamp every still-private
        buffered store visible to same-block readers without draining
        it to global memory."""
        buf = thread.store_buffer
        for i, e in enumerate(buf):
            if e.vis:
                continue
            self._buf_seq += 1
            buf[i] = e._replace(vis=self._buf_seq)
            self._promoted_entries += 1
            if (self.schedulable_drains and self.record_events
                    and stats is not None and epochs is not None):
                self.events.append(AccessEvent(
                    step=stats.steps, launch=self._launch_id,
                    tid=thread.tid, block=thread.block,
                    epoch=epochs[thread.block], span=e.span,
                    is_read=False, is_write=True,
                    access=AccessKind.PLAIN, value=e.value,
                    scope=Scope.BLOCK))

    def _invalidate_overlapping(self, thread: _Thread, span: MemSpan) -> None:
        stale = [s for s in thread.reg_cache if s.overlaps(span)]
        for s in stale:
            del thread.reg_cache[s]

    def _maybe_release_barrier(self, block: int, threads: list[_Thread],
                               epochs: dict[int, int]) -> None:
        members = [t for t in threads if t.block == block]
        live = [t for t in members if not t.done]
        if live and all(t.at_barrier for t in live):
            if any(t.done for t in members):
                raise DeadlockError(
                    f"barrier divergence in block {block}: some threads "
                    "already exited"
                )
            epochs[block] += 1
            for t in live:
                t.at_barrier = False
                t.reg_cache.clear()  # barrier implies visibility


@dataclass
class KernelLaunch:
    """A recorded launch: kernel + config, for replay under many schedules."""

    kernel: Callable
    num_threads: int
    args: tuple
    block_dim: int = 32

    def run(self, executor: SimtExecutor) -> LaunchStats:
        return executor.launch(self.kernel, self.num_threads, *self.args,
                               block_dim=self.block_dim)
