"""Vector-clock happens-before engine with predictive race reports.

This replaces the race detector's shadow-pair scan with FastTrack-style
epoch reasoning (Flanagan & Freund): every access event carries an
*epoch* ``tid@clock``; per-byte shadow state keeps the last-write epoch
and the readers since that write, and an access races with a prior
access iff the prior epoch is not contained in the current thread's
vector clock.  The clock joins model exactly the simulator's
synchronization vocabulary:

* the implicit barrier between kernel launches joins every thread's
  clock (the ordering iGuard reportedly misses, causing its false
  positives);
* ``__syncthreads()`` joins the clocks of all threads in the block
  (per-block barrier clock, one join per epoch transition);
* atomic happens-before edges are *model-supplied*
  (:mod:`repro.memmodel`): under the default ``RelaxedGPU`` model
  relaxed atomics never create edges — matching both libcu++ and the
  paper's codes — while an acquiring atomic read joins the per-location
  release clock left by releasing atomic writes when the model says the
  pair synchronizes (always under SC/TSO, only for
  acquire/release/seq_cst orders under ``RelaxedGPU``/``PTXScoped``).
  A ``PTXScoped`` block-scope release publishes into a per-block
  release bucket that only same-block acquirers join.

**Predictive reports.**  A per-schedule shadow detector forgets a write
as soon as the next write to the same byte lands, so it only flags the
racy pair this execution happened to place adjacently.  Following the
predictive-race line of work ("Predictive Data Race Detection for
GPUs", PAPERS.md), the engine additionally keeps a bounded *history* of
displaced writes and readers per byte: a conflicting access that is
unordered with a displaced entry is a race in some feasible reordering
of the observed trace even if this trace separated the pair — those
reports carry ``predicted=True``.  On race-free programs every
conflicting pair is ordered, so prediction can never introduce a false
positive there.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Callable, Iterable, NamedTuple

from repro.gpu.accesses import AccessKind, MemSpan
from repro.gpu.simt import AccessEvent


class VectorClock:
    """A sparse thread→clock map with join / contains operations."""

    __slots__ = ("_c",)

    def __init__(self, init: dict[int, int] | None = None) -> None:
        self._c: dict[int, int] = dict(init) if init else {}

    def get(self, tid: int) -> int:
        return self._c.get(tid, 0)

    def advance(self, tid: int) -> int:
        """Increment ``tid``'s own component; returns the new clock."""
        value = self._c.get(tid, 0) + 1
        self._c[tid] = value
        return value

    def join(self, other: "VectorClock") -> None:
        for tid, clock in other._c.items():
            if clock > self._c.get(tid, 0):
                self._c[tid] = clock

    def contains(self, tid: int, clock: int) -> bool:
        """True iff the epoch ``tid@clock`` happens-before this clock."""
        return clock <= self._c.get(tid, 0)

    def copy(self) -> "VectorClock":
        return VectorClock(self._c)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        body = ", ".join(f"t{t}@{c}" for t, c in sorted(self._c.items()))
        return f"<VC {body}>"


class Epoch(NamedTuple):
    """One access stamped with its thread clock (FastTrack's ``c@t``)."""

    tid: int
    clock: int
    event: AccessEvent


#: builds an :class:`Epoch` (one per event) without the NamedTuple's
#: Python-level ``__new__``
_tuple_new = tuple.__new__


#: the history of a byte that has displaced nothing yet (shared)
_NO_HISTORY: tuple = ()


class _ByteShadow:
    """Shadow state for one byte of one array."""

    __slots__ = ("last_write", "readers", "write_history", "read_history")

    def __init__(self) -> None:
        self.last_write: Epoch | None = None
        #: readers since the last write, newest epoch per thread
        self.readers: dict[int, Epoch] = {}
        #: displaced writes/readers — the predictive window, a bounded
        #: deque from the byte's first displacement on
        self.write_history: deque | tuple = _NO_HISTORY
        self.read_history: deque | tuple = _NO_HISTORY


def conflicts(a: AccessEvent, b: AccessEvent) -> bool:
    """Race-relevant conflict: different threads, at least one write,
    not both atomic (byte overlap is implied by shared shadow state)."""
    if a.tid == b.tid:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.access is AccessKind.ATOMIC and b.access is AccessKind.ATOMIC:
        return False
    return True


class VectorClockEngine:
    """Streams :class:`AccessEvent` records through epoch shadow state.

    ``on_report(first, second, byte, predicted) -> bool`` is invoked for
    every racy pair found; returning False stops the analysis (the
    caller implements deduplication and report caps).  Events arrive in
    trace order, as the executor records them: launch ids count up and
    a thread stays in one block for a whole launch.

    Parameters
    ----------
    history:
        Displaced-access window per byte for predictive detection
        (0 disables prediction entirely).
    memory_model:
        The consistency model supplying atomic happens-before edges
        (a :class:`~repro.memmodel.models.MemoryModel`, spec string, or
        None for the paper's relaxed default, under which atomics never
        synchronize).
    """

    def __init__(self,
                 on_report: Callable[[AccessEvent, AccessEvent, int, bool],
                                     bool],
                 history: int = 4,
                 memory_model=None) -> None:
        from repro.memmodel.models import resolve_model

        self._on_report = on_report
        self._history = history
        self._model = resolve_model(memory_model)
        #: per-(array, start, bucket) release clocks; bucket is "dev"
        #: or ("b", block) for block-scoped releases
        self._release: dict[tuple, VectorClock] = {}
        self._clocks: dict[int, VectorClock] = {}
        self._launch_clock = VectorClock()
        self._thread_launch: dict[int, int] = {}
        self._current_launch: int | None = None
        # per-block barrier bookkeeping, reset at each launch boundary
        self._block_epoch: dict[int, int] = {}
        self._barrier_clock: dict[int, VectorClock] = {}
        #: threads that fed events into each block since its last epoch
        #: transition; their current clocks are what the barrier joins
        self._barrier_fed: defaultdict[int, set[int]] = defaultdict(set)
        self._thread_epoch: dict[int, int] = {}
        self._shadow: defaultdict[tuple[str, int], _ByteShadow] = (
            defaultdict(_ByteShadow))
        #: per-span list of its byte shadows (a shadow, once created, is
        #: never replaced, so the list stays valid)
        self._span_shadows: dict[MemSpan, list[_ByteShadow]] = {}
        #: the previous event, when it was a pure read that reported
        #: nothing — the anchor of the repeated-read fast path
        self._quiet_read: AccessEvent | None = None

    # ------------------------------------------------------------------
    def _enter_launch(self, launch: int) -> None:
        """All threads of the previous launch synchronize: fold every
        clock into the launch clock and reset the barrier state."""
        if self._current_launch is not None:
            for vc in self._clocks.values():
                self._launch_clock.join(vc)
        self._current_launch = launch
        self._block_epoch.clear()
        self._barrier_clock.clear()
        self._barrier_fed.clear()
        self._thread_epoch.clear()
        # the launch join dominates prior releases; drop their clocks
        self._release.clear()

    def _sync_thread(self, ev: AccessEvent, vc: VectorClock) -> None:
        """Apply launch-boundary and barrier joins owed to this thread."""
        if self._thread_launch.get(ev.tid) != ev.launch:
            vc.join(self._launch_clock)
            self._thread_launch[ev.tid] = ev.launch
        block = ev.block
        if ev.epoch > self._block_epoch.get(block, 0):
            # one or more barriers completed since the last event of
            # this block: fold the participants' clocks into the
            # barrier clock exactly once per transition.  A thread's
            # clock only changes inside its own events, all of them in
            # this block, so its current clock is the join of the clocks
            # it left at each of them.
            bc = self._barrier_clock.get(block)
            if bc is None:
                bc = self._barrier_clock[block] = VectorClock()
            for tid in self._barrier_fed.pop(block, ()):
                bc.join(self._clocks[tid])
            self._block_epoch[block] = ev.epoch
        if ev.epoch > self._thread_epoch.get(ev.tid, 0):
            bc = self._barrier_clock.get(block)
            if bc is not None:
                vc.join(bc)
            self._thread_epoch[ev.tid] = ev.epoch

    # ------------------------------------------------------------------
    def feed(self, ev: AccessEvent) -> bool:
        """Process one event; returns False when the caller asked to
        stop via ``on_report``."""
        tid = ev.tid
        last = self._quiet_read
        if (last is not None and tid == last.tid and ev.is_read
                and not ev.is_write and ev.span == last.span
                and ev.access is last.access and ev.order is last.order
                and ev.scope is last.scope and ev.epoch == last.epoch
                and ev.block == last.block and ev.launch == last.launch):
            # The same read again with nothing in between: no shadow
            # entry changed, and the clock moved only in this thread's
            # own component (the launch, barrier and acquire joins would
            # re-join clocks that have not changed), so every race test
            # repeats the previous read's answer — no report.  Only the
            # newest read must land in readers[tid]: a later write by
            # another thread reports against it.
            epoch = _tuple_new(Epoch,
                               (tid, self._clocks[tid].advance(tid), ev))
            for shadow in self._span_shadows[ev.span]:
                shadow.readers[tid] = epoch
            return True
        self._quiet_read = None

        if ev.launch != self._current_launch:
            self._enter_launch(ev.launch)
        vc = self._clocks.get(tid)
        if vc is None:
            vc = self._clocks[tid] = VectorClock()
        # a thread's epoch never passes its block's, so a thread already
        # in this launch at this epoch owes no join
        if (self._thread_launch.get(tid) != ev.launch
                or ev.epoch > self._thread_epoch.get(tid, 0)):
            self._sync_thread(ev, vc)
        model = self._model
        span = ev.span
        is_atomic = ev.access is AccessKind.ATOMIC
        is_read = ev.is_read
        is_write = ev.is_write
        if is_atomic and is_read:
            eff = model.runtime_order(ev.order)
            if model.acquire_syncs(eff):
                rel = self._release.get((span.array, span.start, "dev"))
                if rel is not None:
                    vc.join(rel)
                rel = self._release.get((span.array, span.start,
                                         ("b", ev.block)))
                if rel is not None:
                    vc.join(rel)
        clock = vc.advance(tid)
        epoch = _tuple_new(Epoch, (tid, clock, ev))
        if is_atomic and is_write:
            eff = model.runtime_order(ev.order)
            if model.release_syncs(eff):
                # a block-scoped release (when the model distinguishes
                # scopes) publishes to same-block acquirers only
                bucket = ("dev" if model.scope_syncs(ev.scope,
                                                     same_block=False)
                          else ("b", ev.block))
                key = (span.array, span.start, bucket)
                dst = self._release.get(key)
                if dst is None:
                    dst = self._release[key] = VectorClock()
                dst.join(vc)

        shadows = self._span_shadows.get(span)
        if shadows is None:
            shadows = self._span_shadows[span] = [
                self._shadow[span.array, byte]
                for byte in range(span.start, span.end)]
        on_report = self._on_report
        predict = bool(self._history)
        known = vc._c.get
        # an atomic access never races with another atomic one
        exempt = AccessKind.ATOMIC if is_atomic else None
        quiet = True
        # ``conflicts(e.event, ev) and not vc.contains(e.tid, e.clock)``
        # inlined: every shadow entry past the first test is a write or
        # is only tested against a write, so a conflict reduces to
        # another thread and not both atomic
        start = span.start
        for byte, shadow in zip(range(start, start + span.nbytes), shadows):
            lw = shadow.last_write
            if (lw is not None and lw.tid != tid
                    and lw.clock > known(lw.tid, 0)
                    and lw.event.access is not exempt):
                quiet = False
                if not on_report(lw.event, ev, byte, False):
                    return False
            if is_write:
                for e in shadow.readers.values():
                    if (e.tid != tid and e.clock > known(e.tid, 0)
                            and e.event.access is not exempt):
                        quiet = False
                        if not on_report(e.event, ev, byte, False):
                            return False
            if predict:
                for e in shadow.write_history:
                    if (e.tid != tid and e.clock > known(e.tid, 0)
                            and e.event.access is not exempt):
                        quiet = False
                        if not on_report(e.event, ev, byte, True):
                            return False
                if is_write:
                    for e in shadow.read_history:
                        if (e.tid != tid and e.clock > known(e.tid, 0)
                                and e.event.access is not exempt):
                            quiet = False
                            if not on_report(e.event, ev, byte, True):
                                return False
            if is_write:
                if lw is not None:
                    history = shadow.write_history
                    if history is _NO_HISTORY:
                        history = shadow.write_history = deque(
                            maxlen=self._history)
                    history.append(lw)
                readers = shadow.readers
                if readers:
                    history = shadow.read_history
                    if history is _NO_HISTORY:
                        history = shadow.read_history = deque(
                            maxlen=2 * self._history)
                    history.extend(readers.values())
                    readers.clear()
                shadow.last_write = epoch
            if is_read:
                shadow.readers[tid] = epoch

        # this thread's clock is owed to the block's next barrier
        self._barrier_fed[ev.block].add(tid)
        if quiet and is_read and not is_write:
            self._quiet_read = ev
        return True

    def analyze(self, events: Iterable[AccessEvent]) -> None:
        for ev in events:
            if not self.feed(ev):
                return
