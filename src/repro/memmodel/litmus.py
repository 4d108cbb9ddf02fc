"""Litmus tests: small programs whose *outcome sets* characterize a
memory model.

Each :class:`LitmusTest` is a classic shape from the memory-model
literature (MP, SB, LB, CoRR, IRIW) plus GPU-scoped variants, written
as SIMT kernels against two shared locations ``x``/``y`` and an ``out``
array of observer registers.  The runner drives the existing
:class:`repro.check.explore.ScheduleExplorer` (sleep-set DPOR, no
preemption bound) over every schedule — including, under buffered
models, the *store-buffer drain agents* the executor exposes as
schedulable pseudo-threads — and collects the set of observed register
outcomes.  A model passes a test iff the observed set equals the
model's allowed set: nothing forbidden shows up, and every allowed weak
behavior is actually reachable.

Conventions
-----------
* ``x`` and ``y`` start at 0; writers publish 1.
* Observer registers are written with **atomic** stores: atomics are
  never store-buffered, so outcomes are fully in memory the moment the
  observer thread issues them — independent of drain timing.
* Plain loads are ``VOLATILE`` unless the test is *about* register
  caching (CoRR).
* The executor never reorders a thread's own issue stream (loads and
  stores leave in program order); all weakness comes from store
  visibility.  That makes LB's ``(1,1)`` forbidden under every model —
  a documented property of the simulator, tested here.

Allowed sets are *derived from the model's structural knobs* (does it
buffer? reorder? cache registers? promote block-scoped releases?), so
parameterized models (``tso:4``, ``ptx:acq_rel``) get correct tables
without per-key case analysis.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable

from repro.check.explore import ExploreBudget, RunOutcome, ScheduleExplorer
from repro.errors import DeadlockError, ReproError
from repro.gpu.accesses import AccessKind, DType, MemoryOrder, Scope
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor
from repro.memmodel.models import MemoryModel, get_model, model_keys

__all__ = ["LitmusTest", "LitmusResult", "CORPUS", "LITMUS_BUDGET",
           "run_litmus", "run_corpus", "format_table"]

PLAIN = AccessKind.PLAIN
VOLATILE = AccessKind.VOLATILE
ATOMIC = AccessKind.ATOMIC

#: exhaustive-by-construction budget: the corpus programs are tiny, so
#: the explorer finishes the full trace space well inside these bounds.
#: No preemption bound — litmus outcomes live in the preempting corners.
LITMUS_BUDGET = ExploreBudget(max_schedules=20_000,
                              max_steps_per_run=4_000,
                              max_seconds=120.0,
                              preemption_bound=None)

# ----------------------------------------------------------------------
# Outcome-set helpers
# ----------------------------------------------------------------------

_ALL2 = frozenset(itertools.product((0, 1), repeat=2))
#: message passing without the reorder: flag seen ⇒ data seen
MP_SAFE = frozenset({(0, 0), (0, 1), (1, 1)})
#: store buffering forbidden (SC): both-miss impossible
SB_SC = frozenset({(0, 1), (1, 0), (1, 1)})
#: load buffering: (1,1) needs load-store reordering, which the
#: executor never performs
LB_SET = frozenset({(0, 0), (0, 1), (1, 0)})
#: read-read coherence under register caching: both loads collapse to
#: one value
CORR_CACHED = frozenset({(0, 0), (1, 1)})
CORR_UNCACHED = frozenset({(0, 0), (0, 1), (1, 1)})
#: IRIW: the two readers may never disagree on the store order —
#: drains hit one shared memory in a single total order
IRIW_SET = frozenset(itertools.product((0, 1), repeat=4)) - {(1, 0, 1, 0)}


def _weak_mp(model: MemoryModel) -> bool:
    """Can a plain flag store overtake an older plain data store?"""
    return model.buffers_stores and model.reorders_stores


def _relaxed_atomic_unordered(model: MemoryModel) -> bool:
    """Does a relaxed atomic flag leave older plain stores buffered?"""
    return (_weak_mp(model)
            and not model.atomic_drains(
                model.runtime_order(MemoryOrder.RELAXED)))


def _block_promoting(model: MemoryModel) -> bool:
    """Does a block-scoped release publish to the block only?"""
    return model.release_promotes_block(
        model.runtime_order(MemoryOrder.RELEASE), Scope.BLOCK)


# ----------------------------------------------------------------------
# The corpus
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class LitmusTest:
    """One litmus shape: a kernel, its launch geometry, and the
    model-parameterized allowed outcome set."""

    name: str
    title: str
    kernel: Callable
    num_threads: int
    #: outcome registers (length of the ``out`` array)
    out_len: int
    #: allowed outcome tuples as a function of the model
    allowed: Callable[[MemoryModel], frozenset]
    block_dim: int = 32
    locations: int = 2

    def setup(self, mem: GlobalMemory):
        x = mem.alloc("x", 1, DType.I32)
        y = mem.alloc("y", 1, DType.I32) if self.locations > 1 else None
        out = mem.alloc("out", self.out_len, DType.I32)
        handles = (x, y, out) if y is not None else (x, out)
        return handles


def _mp_kernel(ctx, x, y, out):
    """MP: data then flag, both plain; reader polls once."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)                    # data
        yield ctx.store(y, 0, 1, PLAIN)                    # flag
    else:
        r1 = yield ctx.load(y, 0, VOLATILE)
        r2 = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 0, r1, ATOMIC)
        yield ctx.store(out, 1, r2, ATOMIC)


def _mp_rel_acq_kernel(ctx, x, y, out):
    """MP with a release flag store and an acquire flag load."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
        yield ctx.store(y, 0, 1, ATOMIC, order=MemoryOrder.RELEASE)
    else:
        r1 = yield ctx.load(y, 0, ATOMIC, order=MemoryOrder.ACQUIRE)
        r2 = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 0, r1, ATOMIC)
        yield ctx.store(out, 1, r2, ATOMIC)


def _mp_relaxed_kernel(ctx, x, y, out):
    """MP with a *relaxed* atomic flag: atomic, but no ordering."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
        yield ctx.store(y, 0, 1, ATOMIC, order=MemoryOrder.RELAXED)
    else:
        r1 = yield ctx.load(y, 0, ATOMIC, order=MemoryOrder.RELAXED)
        r2 = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 0, r1, ATOMIC)
        yield ctx.store(out, 1, r2, ATOMIC)


def _sb_kernel(ctx, x, y, out):
    """SB: each thread stores its location, then loads the other's."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
        r = yield ctx.load(y, 0, VOLATILE)
        yield ctx.store(out, 0, r, ATOMIC)
    else:
        yield ctx.store(y, 0, 1, PLAIN)
        r = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 1, r, ATOMIC)


def _sb_fence_kernel(ctx, x, y, out):
    """SB with a ``fence.sc`` between the store and the load."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
        yield ctx.fence_sc()
        r = yield ctx.load(y, 0, VOLATILE)
        yield ctx.store(out, 0, r, ATOMIC)
    else:
        yield ctx.store(y, 0, 1, PLAIN)
        yield ctx.fence_sc()
        r = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 1, r, ATOMIC)


def _lb_kernel(ctx, x, y, out):
    """LB: each thread loads the other's location, then stores its own."""
    if ctx.tid == 0:
        r = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(y, 0, 1, PLAIN)
        yield ctx.store(out, 0, r, ATOMIC)
    else:
        r = yield ctx.load(y, 0, VOLATILE)
        yield ctx.store(x, 0, 1, PLAIN)
        yield ctx.store(out, 1, r, ATOMIC)


def _corr_kernel(ctx, x, out):
    """CoRR: one writer; the reader loads the same location twice with
    PLAIN loads — the register-caching probe."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
    else:
        r1 = yield ctx.load(x, 0, PLAIN)
        r2 = yield ctx.load(x, 0, PLAIN)
        yield ctx.store(out, 0, r1, ATOMIC)
        yield ctx.store(out, 1, r2, ATOMIC)


def _iriw_kernel(ctx, x, y, out):
    """IRIW: independent writers, two readers probing opposite orders."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
    elif ctx.tid == 1:
        yield ctx.store(y, 0, 1, PLAIN)
    elif ctx.tid == 2:
        r1 = yield ctx.load(x, 0, VOLATILE)
        r2 = yield ctx.load(y, 0, VOLATILE)
        yield ctx.store(out, 0, r1, ATOMIC)
        yield ctx.store(out, 1, r2, ATOMIC)
    else:
        r3 = yield ctx.load(y, 0, VOLATILE)
        r4 = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 2, r3, ATOMIC)
        yield ctx.store(out, 3, r4, ATOMIC)


def _mp_scoped_kernel(ctx, x, y, out):
    """MP via block(cta)-scoped release/acquire on the flag."""
    if ctx.tid == 0:
        yield ctx.store(x, 0, 1, PLAIN)
        yield ctx.store(y, 0, 1, ATOMIC, order=MemoryOrder.RELEASE,
                        scope=Scope.BLOCK)
    else:
        r1 = yield ctx.load(y, 0, ATOMIC, order=MemoryOrder.ACQUIRE,
                            scope=Scope.BLOCK)
        r2 = yield ctx.load(x, 0, VOLATILE)
        yield ctx.store(out, 0, r1, ATOMIC)
        yield ctx.store(out, 1, r2, ATOMIC)


CORPUS: tuple[LitmusTest, ...] = (
    LitmusTest(
        name="MP", title="message passing, plain flag",
        kernel=_mp_kernel, num_threads=2, out_len=2,
        allowed=lambda m: _ALL2 if _weak_mp(m) else MP_SAFE),
    LitmusTest(
        name="MP+rel+acq", title="message passing, release/acquire",
        kernel=_mp_rel_acq_kernel, num_threads=2, out_len=2,
        allowed=lambda m: MP_SAFE),
    LitmusTest(
        name="MP+rlx", title="message passing, relaxed atomic flag",
        kernel=_mp_relaxed_kernel, num_threads=2, out_len=2,
        allowed=lambda m: (_ALL2 if _relaxed_atomic_unordered(m)
                           else MP_SAFE)),
    LitmusTest(
        name="SB", title="store buffering",
        kernel=_sb_kernel, num_threads=2, out_len=2,
        allowed=lambda m: _ALL2 if m.buffers_stores else SB_SC),
    LitmusTest(
        name="SB+fences", title="store buffering, fence.sc",
        kernel=_sb_fence_kernel, num_threads=2, out_len=2,
        allowed=lambda m: SB_SC),
    LitmusTest(
        name="LB", title="load buffering",
        kernel=_lb_kernel, num_threads=2, out_len=2,
        allowed=lambda m: LB_SET),
    LitmusTest(
        name="CoRR", title="read-read coherence, plain loads",
        kernel=_corr_kernel, num_threads=2, out_len=2, locations=1,
        allowed=lambda m: (CORR_CACHED if m.register_cache_plain
                           else CORR_UNCACHED)),
    LitmusTest(
        name="IRIW", title="independent reads of independent writes",
        kernel=_iriw_kernel, num_threads=4, out_len=4,
        allowed=lambda m: IRIW_SET),
    LitmusTest(
        name="MP+cta/same", title="scoped MP, same block",
        kernel=_mp_scoped_kernel, num_threads=2, out_len=2,
        block_dim=2,
        allowed=lambda m: MP_SAFE),
    LitmusTest(
        name="MP+cta/cross", title="scoped MP, different blocks",
        kernel=_mp_scoped_kernel, num_threads=2, out_len=2,
        block_dim=1,
        allowed=lambda m: _ALL2 if _block_promoting(m) else MP_SAFE),
)

_CORPUS_BY_NAME = {t.name: t for t in CORPUS}


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------

@dataclass
class LitmusResult:
    """Verdict of one (test, model) cell."""

    test: str
    model: str
    allowed: frozenset
    observed: set = field(default_factory=set)
    schedules: int = 0
    complete: bool = False

    @property
    def forbidden_observed(self) -> set:
        return self.observed - self.allowed

    @property
    def missing(self) -> set:
        """Allowed outcomes DPOR never reached (meaningful only when
        the exploration completed)."""
        return set(self.allowed) - self.observed

    @property
    def ok(self) -> bool:
        """No forbidden outcome; and, when the schedule space was
        exhausted, every allowed outcome observed."""
        if self.forbidden_observed:
            return False
        if self.complete:
            return not self.missing
        return True

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        extra = ""
        if self.forbidden_observed:
            extra = f" forbidden={sorted(self.forbidden_observed)}"
        elif self.complete and self.missing:
            extra = f" missing={sorted(self.missing)}"
        return (f"{self.test:14s} {self.model:16s} {status:4s} "
                f"{len(self.observed)}/{len(self.allowed)} outcomes, "
                f"{self.schedules} schedules"
                f"{'' if self.complete else ' (budget hit)'}{extra}")


def _make_runner(test: LitmusTest, model: MemoryModel,
                 budget: ExploreBudget):
    def runner(scheduler, probe=None) -> RunOutcome:
        mem = GlobalMemory()
        handles = test.setup(mem)
        ex = SimtExecutor(mem, scheduler=scheduler,
                          record_events=True,
                          max_steps=budget.max_steps_per_run,
                          memory_model=model,
                          schedulable_drains=True)
        if probe is not None:
            probe.executor = ex
            ex.step_probe = probe
        error: Exception | None = None
        try:
            ex.launch(test.kernel, test.num_threads, *handles,
                      block_dim=test.block_dim)
        except DeadlockError as exc:
            error = exc
        payload = None
        if error is None:
            out = handles[-1]
            payload = tuple(int(v) for v in mem.download(out))
        return RunOutcome(events=ex.events, fingerprint=mem.fingerprint(),
                          error=error, payload=payload)
    return runner


def run_litmus(test: LitmusTest | str, model: MemoryModel | str,
               budget: ExploreBudget = LITMUS_BUDGET) -> LitmusResult:
    """Enumerate one test's outcomes under one model via DPOR."""
    if isinstance(test, str):
        try:
            test = _CORPUS_BY_NAME[test]
        except KeyError:
            raise ReproError(
                f"unknown litmus test {test!r}; known: "
                f"{sorted(_CORPUS_BY_NAME)}") from None
    if isinstance(model, str):
        model = get_model(model)
    result = LitmusResult(test=test.name, model=model.key,
                          allowed=test.allowed(model))

    def on_run(outcome: RunOutcome, log) -> bool:
        if outcome.payload is not None:
            result.observed.add(outcome.payload)
        return False

    explorer = ScheduleExplorer(_make_runner(test, model, budget),
                                mode="dpor", budget=budget,
                                on_run=on_run, state_dedupe=False)
    explore = explorer.explore()
    result.schedules = explore.schedules
    result.complete = explore.complete
    return result


def run_corpus(models: list[str] | None = None,
               tests: list[str] | None = None,
               budget: ExploreBudget = LITMUS_BUDGET) -> list[LitmusResult]:
    """The full (or filtered) corpus × model grid."""
    model_list = [get_model(k)
                  for k in (models or ["sc", "tso", "relaxed_gpu", "ptx"])]
    test_list = ([_CORPUS_BY_NAME[n] for n in tests] if tests
                 else list(CORPUS))
    return [run_litmus(t, m, budget)
            for t in test_list for m in model_list]


def format_table(results: list[LitmusResult]) -> str:
    """A per-test table: one row per model with its outcome set."""
    lines: list[str] = []
    by_test: dict[str, list[LitmusResult]] = {}
    for r in results:
        by_test.setdefault(r.test, []).append(r)
    for name, rows in by_test.items():
        test = _CORPUS_BY_NAME[name]
        lines.append(f"{name} — {test.title}")
        for r in rows:
            status = "ok  " if r.ok else "FAIL"
            outcomes = ",".join(
                "".join(str(b) for b in o) for o in sorted(r.observed))
            lines.append(
                f"  {r.model:16s} {status} "
                f"[{outcomes}] "
                f"({len(r.observed)}/{len(r.allowed)} allowed, "
                f"{r.schedules} schedules"
                f"{'' if r.complete else ', budget hit'})")
            if r.forbidden_observed:
                lines.append(
                    f"    forbidden observed: "
                    f"{sorted(r.forbidden_observed)}")
            if r.complete and r.missing:
                lines.append(
                    f"    allowed but never reached: {sorted(r.missing)}")
        lines.append("")
    ok = sum(1 for r in results if r.ok)
    lines.append(f"{ok}/{len(results)} cells ok "
                 f"(models: {', '.join(sorted({r.model for r in results}))})")
    return "\n".join(lines)
