"""Vector-clock happens-before engine: unit tests and cross-checks
against the original pairwise shadow scan and the per-byte engine."""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.vclock import VectorClock, VectorClockEngine, conflicts
from repro.core.variants import Variant
from repro.gpu.accesses import AccessKind, DType, MemoryOrder, MemSpan, Scope
from repro.gpu.interleave import AdversarialScheduler
from repro.gpu.memory import GlobalMemory
from repro.gpu.racecheck import RaceDetector
from repro.gpu.simt import AccessEvent, SimtExecutor
from repro.errors import DeadlockError, ReproError
from repro.patterns import PATTERNS, execute_pattern, get_pattern


def ev(step, tid, *, launch=0, block=0, epoch=0, array="x", start=0,
       nbytes=4, read=False, write=False, access=AccessKind.PLAIN,
       value=0, order=MemoryOrder.RELAXED):
    return AccessEvent(step=step, launch=launch, tid=tid, block=block,
                       epoch=epoch,
                       span=MemSpan(array, start, nbytes),
                       is_read=read, is_write=write, access=access,
                       value=value, order=order)


def collect(events, history=4):
    """Run the engine standalone; return (first_tid, second_tid,
    predicted) triples deduped per pair."""
    seen = set()

    def on_report(a, b, byte, predicted):
        seen.add((a.tid, b.tid, a.is_write, b.is_write, predicted))
        return True

    VectorClockEngine(on_report, history=history).analyze(events)
    return seen


class TestVectorClock:
    def test_advance_join_contains(self):
        a = VectorClock()
        assert a.advance(1) == 1
        assert a.advance(1) == 2
        b = VectorClock()
        b.advance(2)
        b.join(a)
        assert b.contains(1, 2)
        assert not b.contains(1, 3)
        assert b.get(2) == 1
        c = b.copy()
        c.advance(1)
        assert not b.contains(1, 3)  # copy is independent

    def test_conflicts_predicate(self):
        w0 = ev(1, 0, write=True)
        w1 = ev(2, 1, write=True)
        r1 = ev(2, 1, read=True)
        a0 = ev(1, 0, write=True, access=AccessKind.ATOMIC)
        a1 = ev(2, 1, write=True, access=AccessKind.ATOMIC)
        assert conflicts(w0, w1)
        assert conflicts(w0, r1)
        assert not conflicts(w0, ev(2, 0, write=True))  # same thread
        assert not conflicts(r1, ev(3, 0, read=True))   # two reads
        assert not conflicts(a0, a1)                    # both atomic
        assert conflicts(a0, w1)                        # atomic vs plain


class TestHappensBefore:
    def test_adjacent_writes_race(self):
        races = collect([ev(1, 0, write=True), ev(2, 1, write=True)])
        assert (0, 1, True, True, False) in races

    def test_launch_boundary_orders(self):
        races = collect([
            ev(1, 0, write=True, launch=0),
            ev(1, 1, read=True, launch=1),
            ev(2, 1, write=True, launch=1),
        ])
        assert races == set()

    def test_barrier_orders_within_block(self):
        races = collect([
            ev(1, 0, write=True, epoch=0),
            ev(2, 1, write=True, epoch=1),
        ])
        assert races == set()

    def test_barrier_does_not_order_across_blocks(self):
        races = collect([
            ev(1, 0, block=0, write=True, epoch=0),
            ev(2, 1, block=1, write=True, epoch=1),
        ])
        assert (0, 1, True, True, False) in races

    def test_atomics_do_not_synchronize(self):
        # t0 plain-writes, t1 atomically RMWs, t2 plain-reads: the
        # atomic in the middle creates no happens-before edge
        races = collect([
            ev(1, 0, write=True),
            ev(2, 1, read=True, write=True, access=AccessKind.ATOMIC),
            ev(3, 2, read=True),
        ])
        assert (0, 2, True, False, True) in races  # predicted w-r
        assert (0, 1, True, True, False) in races  # plain vs atomic


class TestPredictiveReports:
    def test_displaced_write_predicts(self):
        """w(t0); w(t1); w(t2): the pairwise scan only sees the two
        adjacent pairs — the (t0, t2) race needs the history window."""
        events = [ev(1, 0, write=True), ev(2, 1, write=True),
                  ev(3, 2, write=True)]
        races = collect(events)
        assert (0, 2, True, True, True) in races

        # cross-check: the pairwise engine cannot see it
        pairwise = RaceDetector(engine="pairwise",
                                dedupe_by_location=False)
        pairs = {(r.first.tid, r.second.tid)
                 for r in pairwise.analyze(events)}
        assert (0, 2) not in pairs
        assert {(0, 1), (1, 2)} <= pairs

    def test_displaced_reader_predicts(self):
        """r(t0); w(t1) clears readers; w(t2) still races with r(t0)."""
        races = collect([ev(1, 0, read=True), ev(2, 1, write=True),
                         ev(3, 2, write=True)])
        assert (0, 2, False, True, True) in races

    def test_history_zero_disables_prediction(self):
        events = [ev(1, 0, write=True), ev(2, 1, write=True),
                  ev(3, 2, write=True)]
        races = collect(events, history=0)
        assert all(not predicted for *_, predicted in races)

    def test_prediction_respects_happens_before(self):
        """A displaced write separated by a launch boundary is ordered:
        no predicted report on race-free multi-launch programs."""
        races = collect([
            ev(1, 0, write=True, launch=0),
            ev(1, 1, write=True, launch=1),
            ev(2, 2, write=True, launch=2),
        ])
        assert races == set()


class TestDetectorIntegration:
    def test_unknown_engine_rejected(self):
        with pytest.raises(ReproError):
            RaceDetector(engine="magic")

    def test_predictive_flag_filters_reports(self):
        events = [ev(1, 0, write=True), ev(2, 1, write=True),
                  ev(3, 2, write=True)]
        with_pred = RaceDetector(dedupe_by_location=False).analyze(events)
        without = RaceDetector(dedupe_by_location=False,
                               predictive=False).analyze(events)
        assert any(r.predicted for r in with_pred)
        assert not any(r.predicted for r in without)
        assert len(without) < len(with_pred)

    def test_describe_marks_predicted(self):
        events = [ev(1, 0, write=True), ev(2, 1, write=True),
                  ev(3, 2, write=True)]
        reports = RaceDetector(dedupe_by_location=False).analyze(events)
        predicted = next(r for r in reports if r.predicted)
        assert predicted.describe().startswith("predicted ")


def _pattern_events(name, variant, seed):
    pattern = get_pattern(name)
    kernel, n_threads, setup, _check = pattern.build(variant)
    mem = GlobalMemory()
    handles = setup(mem)
    ex = SimtExecutor(mem, scheduler=AdversarialScheduler(seed),
                      max_steps=50_000)
    try:
        execute_pattern(name, kernel, n_threads, ex, handles)
    except DeadlockError:
        pass
    return ex.events


class TestCrossCheckOnPatternTraces:
    """On every recorded pattern trace, the vclock engine must find at
    least everything the pairwise scan finds (predictive reports are a
    superset), and must stay silent wherever the program is race-free."""

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_vclock_superset_of_pairwise(self, name, variant, seed):
        events = _pattern_events(name, variant, seed)
        pairwise = RaceDetector(engine="pairwise",
                                dedupe_by_location=False,
                                max_reports=100_000).analyze(events)
        vclock = RaceDetector(engine="vclock",
                              dedupe_by_location=False,
                              max_reports=100_000).analyze(events)
        pairwise_pairs = {(r.first.tid, r.second.tid, r.byte, r.kind)
                          for r in pairwise}
        vclock_pairs = {(r.first.tid, r.second.tid, r.byte, r.kind)
                        for r in vclock}
        assert pairwise_pairs <= vclock_pairs

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_no_reports_on_race_free_code(self, name, seed):
        pattern = get_pattern(name)
        variant = (Variant.RACE_FREE if pattern.expected_racy
                   else Variant.BASELINE)
        events = _pattern_events(name, variant, seed)
        assert RaceDetector(engine="vclock").analyze(events) == []


# ----------------------------------------------------------------------
# The per-byte engine the fast paths must agree with, call for call
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _RefEpoch:
    tid: int
    clock: int
    event: AccessEvent


@dataclass
class _RefShadow:
    last_write: _RefEpoch | None = None
    readers: dict = field(default_factory=dict)
    write_history: deque = field(default_factory=lambda: deque(maxlen=4))
    read_history: deque = field(default_factory=lambda: deque(maxlen=8))


class ReferenceEngine:
    """Every event through the full check: one fresh shadow lookup per
    byte, the whole clock joined into the block's pending barrier clock
    per event, and every shadow entry tested with ``conflicts``."""

    def __init__(self, on_report, history=4, memory_model=None):
        from repro.memmodel.models import resolve_model

        self._on_report = on_report
        self._history = history
        self._model = resolve_model(memory_model)
        self._release = {}
        self._clocks = {}
        self._launch_clock = VectorClock()
        self._thread_launch = {}
        self._current_launch = None
        self._block_epoch = {}
        self._barrier_clock = {}
        self._pending_barrier = {}
        self._thread_epoch = {}
        self._shadow = {}

    def _thread_clock(self, tid):
        vc = self._clocks.get(tid)
        if vc is None:
            vc = self._clocks[tid] = VectorClock()
        return vc

    def _enter_launch(self, launch):
        if self._current_launch is not None:
            for vc in self._clocks.values():
                self._launch_clock.join(vc)
        self._current_launch = launch
        self._block_epoch.clear()
        self._barrier_clock.clear()
        self._pending_barrier.clear()
        self._thread_epoch.clear()
        self._release.clear()

    def _sync_thread(self, ev, vc):
        if self._thread_launch.get(ev.tid) != ev.launch:
            vc.join(self._launch_clock)
            self._thread_launch[ev.tid] = ev.launch
        block = ev.block
        if ev.epoch > self._block_epoch.get(block, 0):
            bc = self._barrier_clock.setdefault(block, VectorClock())
            pend = self._pending_barrier.pop(block, None)
            if pend is not None:
                bc.join(pend)
            self._block_epoch[block] = ev.epoch
        if ev.epoch > self._thread_epoch.get(ev.tid, 0):
            bc = self._barrier_clock.get(block)
            if bc is not None:
                vc.join(bc)
            self._thread_epoch[ev.tid] = ev.epoch

    def feed(self, ev):
        if ev.launch != self._current_launch:
            self._enter_launch(ev.launch)
        vc = self._thread_clock(ev.tid)
        self._sync_thread(ev, vc)
        model = self._model
        is_atomic = ev.access is AccessKind.ATOMIC
        if is_atomic and ev.is_read:
            eff = model.runtime_order(ev.order)
            if model.acquire_syncs(eff):
                key = (ev.span.array, ev.span.start)
                rel = self._release.get((*key, "dev"))
                if rel is not None:
                    vc.join(rel)
                rel = self._release.get((*key, ("b", ev.block)))
                if rel is not None:
                    vc.join(rel)
        clock = vc.advance(ev.tid)
        epoch = _RefEpoch(ev.tid, clock, ev)
        if is_atomic and ev.is_write:
            eff = model.runtime_order(ev.order)
            if model.release_syncs(eff):
                bucket = ("dev" if model.scope_syncs(ev.scope,
                                                     same_block=False)
                          else ("b", ev.block))
                dst = self._release.setdefault(
                    (ev.span.array, ev.span.start, bucket), VectorClock())
                dst.join(vc)
        for byte in range(ev.span.start, ev.span.end):
            shadow = self._shadow.get((ev.span.array, byte))
            if shadow is None:
                shadow = _RefShadow(
                    write_history=deque(maxlen=self._history),
                    read_history=deque(maxlen=2 * self._history))
                self._shadow[(ev.span.array, byte)] = shadow
            if not self._check_byte(shadow, ev, vc, byte):
                return False
            self._update_byte(shadow, ev, epoch)
        pend = self._pending_barrier.setdefault(ev.block, VectorClock())
        pend.join(vc)
        return True

    def analyze(self, events):
        for ev in events:
            if not self.feed(ev):
                return

    def _check_byte(self, shadow, ev, vc, byte):
        def unordered(e):
            return (conflicts(e.event, ev)
                    and not vc.contains(e.tid, e.clock))

        lw = shadow.last_write
        if lw is not None and unordered(lw):
            if not self._on_report(lw.event, ev, byte, False):
                return False
        if ev.is_write:
            for reader in shadow.readers.values():
                if unordered(reader):
                    if not self._on_report(reader.event, ev, byte, False):
                        return False
        if self._history:
            for past in shadow.write_history:
                if unordered(past):
                    if not self._on_report(past.event, ev, byte, True):
                        return False
            if ev.is_write:
                for past in shadow.read_history:
                    if unordered(past):
                        if not self._on_report(past.event, ev, byte, True):
                            return False
        return True

    @staticmethod
    def _update_byte(shadow, ev, epoch):
        if ev.is_write:
            if shadow.last_write is not None:
                shadow.write_history.append(shadow.last_write)
            for reader in shadow.readers.values():
                shadow.read_history.append(reader)
            shadow.readers.clear()
            shadow.last_write = epoch
        if ev.is_read:
            shadow.readers[ev.tid] = epoch


def raw_reports(engine_cls, events, history=4, memory_model=None,
                stop_after=None):
    """Every ``on_report`` call, in order; the callback asks to stop at
    call number ``stop_after`` (None: never)."""
    calls = []

    def on_report(first, second, byte, predicted):
        calls.append((first, second, byte, predicted))
        return stop_after is None or len(calls) < stop_after

    engine_cls(on_report, history=history,
               memory_model=memory_model).analyze(events)
    return calls


_SPANS = [MemSpan(array, start, nbytes) for array in ("x", "y")
          for start in (0, 2, 4) for nbytes in (1, 4, 8)]
#: (is_read, is_write, access): plain and volatile loads and stores,
#: atomic loads, stores and RMWs
_OPS = [(True, False, AccessKind.PLAIN), (False, True, AccessKind.PLAIN),
        (True, False, AccessKind.VOLATILE),
        (False, True, AccessKind.VOLATILE),
        (True, False, AccessKind.ATOMIC), (False, True, AccessKind.ATOMIC),
        (True, True, AccessKind.ATOMIC)]


@dataclass
class _Stream:
    """Where an executor-shaped stream stands: its step counter, the
    last access drawn, and the current launch's id, block size and
    per-block barrier epochs."""

    step: int = 0
    access: dict | None = None
    launch: int = -1
    block_dim: int = 1
    epochs: dict = field(default_factory=dict)

    def fork(self) -> "_Stream":
        return _Stream(self.step, self.access, self.launch, self.block_dim,
                       dict(self.epochs))


def _draw_accesses(draw, stream: _Stream, count: int, events: list) -> None:
    """``count`` accesses in the stream's current launch."""
    for _ in range(count):
        fresh = {"tid": draw(st.integers(0, 3)),
                 "op": draw(st.sampled_from(_OPS)),
                 "span": draw(st.sampled_from(_SPANS)),
                 "order": draw(st.sampled_from(list(MemoryOrder))),
                 "scope": draw(st.sampled_from([Scope.DEVICE,
                                                Scope.BLOCK]))}
        access = stream.access
        if access is not None and draw(st.booleans()):
            vary = draw(st.sampled_from([None, *fresh]))
            access = {**access, **({vary: fresh[vary]} if vary else {})}
        else:
            access = fresh
        stream.access = access
        tid = access["tid"]
        block = tid // stream.block_dim
        epochs = stream.epochs
        if draw(st.integers(0, 3)) == 0:
            epochs[block] = epochs.get(block, 0) + 1
        is_read, is_write, kind = access["op"]
        order = (access["order"] if kind is AccessKind.ATOMIC
                 else MemoryOrder.RELAXED)
        for _ in range(draw(st.integers(1, 4))):
            stream.step += 1
            events.append(AccessEvent(
                stream.step, stream.launch, tid, block, epochs.get(block, 0),
                access["span"], is_read, is_write, kind, stream.step, None,
                order, access["scope"]))


def _draw_launches(draw, stream: _Stream, launches: int,
                   events: list) -> None:
    for _ in range(launches):
        stream.launch += 1
        stream.block_dim = draw(st.sampled_from([1, 2, 4]))
        stream.epochs = {}
        _draw_accesses(draw, stream, draw(st.integers(1, 12)), events)


@st.composite
def event_streams(draw):
    """Executor-shaped streams: launch ids count up, a thread stays in
    one block per launch, each block's barrier epoch only grows.  An
    access often repeats several times in a row, or repeats the
    previous access with one field changed, across a barrier or a
    launch boundary."""
    events: list = []
    _draw_launches(draw, _Stream(), draw(st.integers(1, 3)), events)
    return events


@st.composite
def forked_streams(draw):
    """``(prefix, a, b)``: ``prefix + a`` and ``prefix + b`` are both
    executor-shaped streams, as two explored runs that part after a
    shared prefix.  Each continuation goes on in the prefix's last
    launch, then may start new ones."""
    stream = _Stream()
    prefix: list = []
    _draw_launches(draw, stream, draw(st.integers(0, 2)), prefix)
    tails = []
    for _ in range(2):
        fork = stream.fork()
        tail: list = []
        if fork.launch >= 0:
            _draw_accesses(draw, fork, draw(st.integers(0, 8)), tail)
        _draw_launches(draw, fork, draw(st.integers(0, 2)), tail)
        tails.append(tail)
    return prefix, tails[0], tails[1]


class TestAgainstPerByteEngine:
    """The engine's repeated-read fast path, span-shadow cache, inlined
    race test and per-thread barrier bookkeeping make exactly the
    ``on_report`` calls the per-byte engine makes, in the same order."""

    @pytest.mark.parametrize("name", sorted(PATTERNS))
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", [0, 3])
    def test_pattern_traces(self, name, variant, seed):
        events = _pattern_events(name, variant, seed)
        assert (raw_reports(VectorClockEngine, events)
                == raw_reports(ReferenceEngine, events))

    @pytest.mark.parametrize("model", [None, "sc", "tso", "ptx:acq_rel"])
    @settings(max_examples=100, deadline=None)
    @given(events=event_streams(), history=st.sampled_from([0, 1, 4]),
           stop_after=st.one_of(st.none(), st.integers(1, 6)))
    def test_generated_streams(self, model, events, history, stop_after):
        assert (raw_reports(VectorClockEngine, events, history, model,
                            stop_after)
                == raw_reports(ReferenceEngine, events, history, model,
                               stop_after))

    # Each stream repeats a quiet read with one thing changed that the
    # repeated-read fast path must not skip, then ends in an access whose
    # report (or, after an acquire, whose silence) depends on the
    # repeated read having run the full check; with the reports the
    # per-byte engine makes.
    NOT_REPEATS = {
        "across_a_barrier": ([
            ev(1, 0, read=True), ev(2, 1, write=True, array="y"),
            ev(3, 0, read=True, epoch=1), ev(4, 1, write=True, epoch=1)],
            [(3, 4)] * 4),
        "across_a_launch": ([
            ev(1, 0, read=True), ev(2, 0, read=True, launch=1),
            ev(3, 1, write=True, launch=1)], [(2, 3)] * 4),
        "relaxed_then_acquire": ([
            ev(1, 1, write=True, array="y"),
            ev(2, 1, write=True, access=AccessKind.ATOMIC,
               order=MemoryOrder.RELEASE),
            ev(3, 0, read=True, access=AccessKind.ATOMIC),
            ev(4, 0, read=True, access=AccessKind.ATOMIC,
               order=MemoryOrder.ACQUIRE),
            ev(5, 0, read=True, array="y")], []),
        "atomic_then_plain": ([
            ev(1, 1, write=True, access=AccessKind.ATOMIC),
            ev(2, 0, read=True, access=AccessKind.ATOMIC),
            ev(3, 0, read=True)], [(1, 3)] * 4),
        "read_then_rmw": ([
            ev(1, 1, read=True),
            ev(2, 0, read=True, access=AccessKind.ATOMIC),
            ev(3, 0, read=True, write=True, access=AccessKind.ATOMIC)],
            [(1, 3)] * 4),
        "after_a_report": ([
            ev(1, 1, write=True), ev(2, 0, read=True), ev(3, 0, read=True)],
            [(1, 2)] * 4 + [(1, 3)] * 4),
    }

    @pytest.mark.parametrize("stream", sorted(NOT_REPEATS))
    def test_changed_repeats_run_the_full_check(self, stream):
        events, pairs = self.NOT_REPEATS[stream]
        calls = raw_reports(VectorClockEngine, events)
        assert calls == raw_reports(ReferenceEngine, events)
        assert [(a.step, b.step) for a, b, _, _ in calls] == pairs

    def test_newest_repeated_read_is_the_one_reported(self):
        """A read repeated on the fast path still moves readers[tid]:
        the later unordered write reports against the last read."""
        events = [ev(1, 0, read=True), ev(2, 0, read=True),
                  ev(3, 0, read=True), ev(4, 1, write=True)]
        calls = raw_reports(VectorClockEngine, events)
        assert calls == raw_reports(ReferenceEngine, events)
        assert [(a.step, b.step) for a, b, byte, _ in calls
                if byte == 0] == [(3, 4)]


class TestRollback:
    """A journaled engine rolled back to an event boundary goes on
    exactly as a fresh engine fed only the events before it, and a
    :class:`RaceSession` answers every event list as a fresh
    :meth:`RaceDetector.analyze` does."""

    # tso synchronizes atomics as sc does
    @pytest.mark.parametrize("model", [None, "sc", "ptx:acq_rel"])
    @settings(max_examples=100, deadline=None)
    @given(streams=forked_streams(), history=st.sampled_from([0, 1, 4]),
           stop_after=st.one_of(st.none(), st.integers(1, 6)))
    def test_rollback_then_feed(self, model, streams, history, stop_after):
        prefix, tail_a, tail_b = streams
        calls = []

        def on_report(first, second, byte, predicted):
            calls.append((first, second, byte, predicted))
            return stop_after is None or len(calls) < stop_after

        engine = VectorClockEngine(on_report, history=history,
                                   memory_model=model, journal=True)
        marks = []
        stopped = False
        for event in prefix + tail_a:
            marks.append((engine.mark(), len(calls)))
            if not engine.feed(event):
                stopped = True
                break
        if not (stopped and len(marks) <= len(prefix)):
            if len(prefix) < len(marks):
                mark, count = marks[len(prefix)]
                engine.rollback(mark)
                del calls[count:]
            for event in tail_b:
                if not engine.feed(event):
                    break
        # a prefix that reached the cap leaves the stopped state: a
        # fresh engine fed the prefix and then B stops at the same call
        assert calls == raw_reports(ReferenceEngine, prefix + tail_b,
                                    history, model, stop_after)

    @pytest.mark.parametrize("model", [None, "ptx:acq_rel"])
    @settings(max_examples=100, deadline=None)
    @given(streams=forked_streams(),
           max_reports=st.sampled_from([1, 2, 3, 1000]),
           dedupe=st.booleans(), predictive=st.booleans())
    def test_session_answers_as_a_fresh_analysis(self, model, streams,
                                                 max_reports, dedupe,
                                                 predictive):
        prefix, tail_a, tail_b = streams
        detector = RaceDetector(max_reports=max_reports,
                                dedupe_by_location=dedupe,
                                predictive=predictive, memory_model=model)
        session = detector.session()
        for events in (prefix + tail_a, prefix + tail_b, prefix + tail_b,
                       prefix, prefix + tail_a, [], prefix + tail_b):
            assert session.analyze(events) == detector.analyze(events)

    def test_pairwise_sessions_analyse_afresh(self):
        events = [ev(1, 1, write=True), ev(2, 0, read=True)]
        detector = RaceDetector(engine="pairwise")
        session = detector.session()
        assert session.analyze(events) == detector.analyze(events)
        assert session.analyze(events[:1]) == []

