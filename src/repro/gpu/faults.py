"""Deterministic fault injection for the simulated device.

The paper's Section II argues that "benign" data races are a latent
reliability hazard: racy kernels can observe torn words, poll stale
register-cached values forever, and silently corrupt results.  This
module turns that hazard into a controllable, *seeded* adversary so the
study framework (:mod:`repro.core.resilience`) can be exercised against
exactly the failure modes the paper describes:

* ``drop``  — a non-atomic store is lost by the memory system
  (the lost-update race made manifest).
* ``tear``  — only the low native word of a wide non-atomic store
  lands; other threads observe Fig. 1's chimera values.
* ``stuck`` — a plain load returns a stale value indefinitely (the
  extreme of the register-caching model; Fig. 1's thread T4).
* ``stall`` — the scheduler starves a thread for a window of
  micro-steps (perf level: a multiplicative runtime delay).
* ``abort`` — a kernel launch dies with a *transient*
  :class:`~repro.errors.TransientKernelFault`; retries may succeed.

A :class:`FaultPlan` holds the per-kind rates plus a seed;
:meth:`FaultPlan.injector` derives an independent, deterministic
:class:`FaultInjector` for any key (cell, repetition, attempt), so runs
are reproducible and repetitions/attempts draw independent faults.

Everything is behind a ``None`` default: with no injector installed,
:mod:`repro.gpu.memory`, :mod:`repro.gpu.simt`, and
:mod:`repro.perf.engine` execute bit-identically to an unpatched tree.

Atomic accesses are immune to ``drop``/``tear``/``stuck`` by
construction — they are single indivisible memory transactions — which
is precisely why the paper's race-free conversions survive this
adversary while the racy baselines do not.
"""

from __future__ import annotations

import enum
import hashlib
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable

import numpy as np

from repro.errors import DeadlockError, FaultConfigError, TransientKernelFault
from repro.gpu.accesses import AccessKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.variants import Variant
    from repro.gpu.accesses import MemSpan


class FaultKind(enum.Enum):
    """The injectable failure modes (names double as spec keywords)."""

    DROPPED_WRITE = "drop"
    TORN_WRITE = "tear"
    STUCK_READ = "stuck"
    SCHED_STALL = "stall"
    KERNEL_ABORT = "abort"


@dataclass(frozen=True)
class FaultSpec:
    """One fault kind with its per-opportunity trigger probability.

    The *opportunity* depends on the level: per non-atomic memory
    micro-operation for ``drop``/``tear``/``stuck`` at the SIMT level,
    per micro-step for ``stall``, per launch for ``abort``, and per
    repetition for every kind at the performance level.
    """

    kind: FaultKind
    rate: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.rate <= 1.0:
            raise FaultConfigError(
                f"fault rate must be in [0, 1], got {self.rate} "
                f"for {self.kind.value!r}"
            )


class FaultPlan:
    """A seeded set of :class:`FaultSpec` rates.

    The plan itself holds no mutable state; per-run randomness lives in
    the :class:`FaultInjector` objects it derives, each seeded from the
    plan seed plus an arbitrary key (typically the sweep cell, the
    repetition, and the retry attempt).
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs = tuple(specs)
        self.seed = int(seed)
        self._rates: dict[FaultKind, float] = {}
        for s in self.specs:
            if s.kind in self._rates:
                raise FaultConfigError(
                    f"duplicate fault kind {s.kind.value!r} in plan"
                )
            self._rates[s.kind] = s.rate

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str, seed: int = 0) -> "FaultPlan":
        """Parse a CLI spec like ``"tear=0.3,stuck=0.1,abort=1"``.

        Each comma-separated item is ``kind=rate``; a bare ``kind``
        means rate 1.0.  Unknown kinds and out-of-range rates raise
        :class:`~repro.errors.FaultConfigError`.
        """
        known = {k.value: k for k in FaultKind}
        specs = []
        for item in text.split(","):
            item = item.strip()
            if not item:
                continue
            name, _, value = item.partition("=")
            name = name.strip()
            if name not in known:
                raise FaultConfigError(
                    f"unknown fault kind {name!r}; known: {sorted(known)}"
                )
            try:
                rate = float(value) if value else 1.0
            except ValueError:
                raise FaultConfigError(
                    f"bad rate {value!r} for fault {name!r}"
                ) from None
            specs.append(FaultSpec(known[name], rate))
        if not specs:
            raise FaultConfigError(f"empty fault spec {text!r}")
        return cls(specs, seed=seed)

    # ------------------------------------------------------------------
    def rate(self, kind: FaultKind) -> float:
        return self._rates.get(kind, 0.0)

    def describe(self) -> str:
        body = ", ".join(f"{s.kind.value}={s.rate:g}" for s in self.specs)
        return f"{body} (seed {self.seed})"

    def injector(self, *key: object) -> "FaultInjector":
        """A deterministic injector for ``key`` (any hashable-ish parts).

        The derivation uses a stable digest, not Python's randomized
        ``hash``, so the same plan seed and key always produce the same
        fault stream — across processes and across resumed runs.
        """
        digest = hashlib.blake2b(
            repr((self.seed,) + key).encode(), digest_size=8
        ).digest()
        return FaultInjector(self, int.from_bytes(digest, "little"))


class FaultInjector:
    """The per-run fault stream: consulted by the memory, the SIMT
    executor, and the performance engine.

    One injector should drive exactly one run (one repetition of one
    cell, or one SIMT execution); derive a fresh one per run via
    :meth:`FaultPlan.injector` to keep repetitions independent.
    """

    #: micro-steps a stalled thread is held off the scheduler
    STALL_STEPS = 128
    #: latest micro-step at which an injected launch abort fires
    ABORT_WINDOW = 256

    def __init__(self, plan: FaultPlan, seed: int) -> None:
        self.plan = plan
        self.seed = seed
        self._rng = random.Random(seed)
        self._seen: dict["MemSpan", int] = {}
        self._stalls: dict[int, int] = {}
        self._abort_at: int | None = None
        self._tear_exposed = False
        self._stuck_exposed = False

    def _trigger(self, kind: FaultKind) -> bool:
        rate = self.plan.rate(kind)
        return rate > 0.0 and self._rng.random() < rate

    # ------------------------------------------------------------------
    # Memory level (consulted by GlobalMemory.span_read/span_write)
    # ------------------------------------------------------------------
    def store_fault(self, span: "MemSpan",
                    kind: AccessKind) -> FaultKind | None:
        """Decide the fate of one non-atomic store.

        Returns ``DROPPED_WRITE`` (the store is lost), ``TORN_WRITE``
        (only the low native word lands), or ``None``.  Atomic stores
        are indivisible transactions and pass through untouched.
        """
        if kind is AccessKind.ATOMIC:
            return None
        if self._trigger(FaultKind.DROPPED_WRITE):
            return FaultKind.DROPPED_WRITE
        if self._trigger(FaultKind.TORN_WRITE):
            return FaultKind.TORN_WRITE
        return None

    def load_fault(self, span: "MemSpan", value: int,
                   kind: AccessKind) -> int:
        """Possibly replace a *plain* load's value with a stale one.

        Models the register-caching delay taken to its extreme: the
        first value this injector ever saw at ``span`` can be returned
        forever.  Volatile and atomic loads always observe ``value``.
        """
        if kind is not AccessKind.PLAIN:
            return value
        stale = self._seen.get(span)
        if stale is None:
            self._seen[span] = value
            return value
        if stale != value and self._trigger(FaultKind.STUCK_READ):
            return stale
        return value

    # ------------------------------------------------------------------
    # SIMT executor level
    # ------------------------------------------------------------------
    def begin_launch(self) -> None:
        """Draw this launch's abort point (if any)."""
        self._abort_at = None
        if self._trigger(FaultKind.KERNEL_ABORT):
            self._abort_at = self._rng.randint(1, self.ABORT_WINDOW)

    def check_abort(self, step: int) -> None:
        """Raise the drawn transient abort once ``step`` reaches it."""
        if self._abort_at is not None and step >= self._abort_at:
            self._abort_at = None
            raise TransientKernelFault(
                f"injected transient kernel abort at micro-step {step}"
            )

    def filter_runnable(self, runnable: list[int],
                        step: int) -> list[int]:
        """Apply scheduler stalls: starve chosen threads for a window.

        Never stalls the last runnable thread, so injected stalls delay
        execution but cannot themselves deadlock the machine.
        """
        if self.plan.rate(FaultKind.SCHED_STALL) <= 0.0:
            return runnable
        self._stalls = {tid: until for tid, until in self._stalls.items()
                        if until > step}
        candidates = [tid for tid in runnable if tid not in self._stalls]
        if len(candidates) > 1 and self._trigger(FaultKind.SCHED_STALL):
            victim = candidates[self._rng.randrange(len(candidates))]
            self._stalls[victim] = step + self.STALL_STEPS
            candidates.remove(victim)
        return candidates if candidates else runnable

    # ------------------------------------------------------------------
    # Performance-engine level (aggregate, per repetition)
    # ------------------------------------------------------------------
    def begin_perf_run(self, algo_key: str, variant: "Variant",
                       plan) -> None:
        """Compute the variant's fault exposure and roll for an abort.

        Exposure comes from the algorithm's *effective* access plan:
        ``tear``/``drop`` need a shared non-atomic store site,
        ``stuck`` needs a shared plain load site.  The race-free
        conversion removes both, so the race-free variant is immune to
        the data-corrupting faults — it can only fail *loud* (abort).
        """
        from repro.core.transform import plan_for

        effective = plan_for(plan, variant)
        shared = [s for s in effective.sites if s.shared]
        self._tear_exposed = any(
            s.is_store and s.kind is not AccessKind.ATOMIC for s in shared
        )
        self._stuck_exposed = any(
            not s.is_store and not s.is_rmw
            and s.kind is AccessKind.PLAIN
            for s in shared
        )
        if self._trigger(FaultKind.KERNEL_ABORT):
            raise TransientKernelFault(
                f"injected transient launch failure "
                f"({algo_key}/{variant.value})"
            )

    def perf_finish(self, output: dict, runtime_ms: float) -> float:
        """Apply post-run faults; returns the (possibly delayed) runtime.

        May raise :class:`~repro.errors.DeadlockError` when a
        stuck-stale read turns a polling loop into a livelock (only
        possible for variants with plain shared loads).
        """
        if self._trigger(FaultKind.SCHED_STALL):
            runtime_ms *= 1.0 + self._rng.uniform(0.25, 1.0)
        if self._stuck_exposed and self._trigger(FaultKind.STUCK_READ):
            raise DeadlockError(
                "injected stuck-stale read: a plain polling loop never "
                "observes the update it waits for (register-caching "
                "model, Fig. 1's thread T4)"
            )
        if self._tear_exposed:
            dropped = self._trigger(FaultKind.DROPPED_WRITE)
            torn = self._trigger(FaultKind.TORN_WRITE)
            if dropped or torn:
                self._corrupt(output, torn=torn)
        return runtime_ms

    def _corrupt(self, output: dict, torn: bool) -> None:
        """Silently damage a few elements of one output array.

        ``torn=True`` plants high-half chimera values (a torn wide
        store); otherwise entries revert to zero (a dropped update).
        The damage is *silent* — only downstream validation can see it,
        which is the paper's point about benign-looking races.
        """
        arrays = [v for v in output.values()
                  if isinstance(v, np.ndarray) and v.size > 0]
        if not arrays:
            return
        arr = arrays[self._rng.randrange(len(arrays))]
        flat = arr.reshape(-1)
        count = max(1, flat.size // 64)
        idx = sorted({self._rng.randrange(flat.size) for _ in range(count)})
        if flat.dtype == np.bool_:
            flat[idx] = ~flat[idx]
        elif torn:
            chimera = np.bitwise_xor(flat[idx].astype(np.int64),
                                     np.int64(0x7FFF0000))
            flat[idx] = chimera.astype(flat.dtype)
        else:
            flat[idx] = 0
