"""Deterministic fault injection for the *host* machine.

:mod:`repro.gpu.faults` makes the simulated GPU adversarial; this
module does the same for the infrastructure the sweep itself runs on —
the disk that holds checkpoints and trace-cache files, and the fleet
worker processes that execute cells.  The paper's methodology (Section
V: nine repetitions, medians, multi-hour sweeps over 4 GPUs x 27
inputs) only holds up if a campaign survives the host failing under it,
so the failure modes here are the classic ones of long-running
measurement harnesses:

* ``torn``    — a stored payload is truncated mid-write (power loss
  between write and rename, a non-atomic copy, an interrupted rsync).
* ``bitflip`` — one bit of a stored payload is flipped (medium rot,
  bad RAM on the NFS server).
* ``enospc``  — the write fails with ``ENOSPC`` (the scratch disk
  filled up under the sweep).
* ``eio``     — the write fails with ``EIO`` (a dying disk).
* ``kill``    — the worker executing a task is SIGKILLed mid-task
  (the OOM killer; an operator's stray ``kill -9``).
* ``stall``   — the worker stops making progress for a long window
  (NFS hang, cgroup freeze, paging storm).

Everything is *seeded and deterministic*: storage decisions derive from
a stable digest of (plan seed, kind, file name, per-file write index),
worker disruptions from (plan seed, kind, cell key, slot generation) —
never Python's randomized ``hash()`` — so a failing chaos run replays
exactly.  With no plan installed the hooks are absent and every write
is byte-identical to an uninjected tree.

Plug-in points
--------------

* :func:`install` registers a write-filter with
  :mod:`repro.utils.atomicio`, so *every* atomic write in the process
  (checkpoints, trace-cache files, telemetry exports) passes through
  the injector.  ``targets`` globs scope the blast radius (e.g.
  ``("trace-*.json",)`` faults only the trace cache).
* :class:`~repro.core.parallel.WorkerConfig` carries the active plan
  into the fleet's workers, where :func:`maybe_disrupt` is consulted
  once per task for ``kill``/``stall``.
* ``disrupt_generations=N`` limits worker disruptions to the first N
  generations of each worker slot, so a chaos scenario with
  ``kill=1.0`` still converges once each slot has been respawned N
  times.

See ``docs/robustness.md`` ("Host faults") for the fault -> detection
-> recovery -> telemetry matrix, and :mod:`repro.core.chaos` for the
harness that asserts byte-identical recovery under each kind.
"""

from __future__ import annotations

import contextlib
import enum
import errno
import fnmatch
import hashlib
import os
import random
import signal
import time
from pathlib import Path
from typing import Iterable

from repro.errors import FaultConfigError
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils import atomicio
from repro.utils.faultspec import FaultSpec, RatePlan


class HostFaultKind(enum.Enum):
    """The injectable host failure modes (names double as spec keywords)."""

    TORN_WRITE = "torn"
    BIT_FLIP = "bitflip"
    NO_SPACE = "enospc"
    IO_ERROR = "eio"
    WORKER_KILL = "kill"
    WORKER_STALL = "stall"


#: kinds applied by the storage write-filter
STORAGE_KINDS = frozenset({
    HostFaultKind.TORN_WRITE,
    HostFaultKind.BIT_FLIP,
    HostFaultKind.NO_SPACE,
    HostFaultKind.IO_ERROR,
})

#: kinds applied to worker processes, once per task
DISRUPTION_KINDS = frozenset({
    HostFaultKind.WORKER_KILL,
    HostFaultKind.WORKER_STALL,
})


#: the host plan's specs are the shared :class:`FaultSpec`
HostFaultSpec = FaultSpec


class HostFaultPlan(RatePlan):
    """A seeded set of :class:`FaultSpec` rates plus scoping knobs.

    A rate is the trigger probability per *opportunity*: one atomic
    write for the storage kinds and one (task, slot generation)
    execution for the worker kinds.

    Parameters
    ----------
    specs:
        The fault kinds and rates.
    seed:
        Root of every derived decision digest.
    targets:
        Filename globs the storage kinds apply to (matched against the
        written file's *name*, e.g. ``"trace-*.json"`` or ``"cell-*.json"``);
        empty means every atomic write is eligible.
    stall_seconds:
        How long an injected worker stall sleeps.
    disrupt_generations:
        Worker ``kill``/``stall`` fire only while the slot generation is
        below this bound (``None`` = always eligible).  A plan with
        ``kill=1.0, disrupt_generations=1`` kills every first-generation
        worker and lets the respawned workers finish — the deterministic
        "every worker OOMs once" scenario.

    The plan is picklable (it is shipped to workers inside
    :class:`~repro.core.parallel.WorkerConfig`) and holds no mutable
    state; per-write counters live in the :class:`HostFaultInjector`.
    :meth:`parse` passes extra keyword arguments (``targets``,
    ``stall_seconds``, ``disrupt_generations``) to the constructor.
    """

    KINDS = HostFaultKind
    NOUN = "host fault"

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0,
                 targets: Iterable[str] = (),
                 stall_seconds: float = 30.0,
                 disrupt_generations: int | None = None) -> None:
        super().__init__(specs, seed)
        self.targets = tuple(targets)
        if stall_seconds < 0:
            raise FaultConfigError(
                f"stall_seconds must be >= 0, got {stall_seconds}")
        self.stall_seconds = float(stall_seconds)
        self.disrupt_generations = disrupt_generations

    def describe(self) -> str:
        scoped = f" targets={','.join(self.targets)}" if self.targets else ""
        return super().describe() + scoped

    def targets_path(self, name: str) -> bool:
        """Whether storage faults apply to a file called ``name``."""
        if not self.targets:
            return True
        return any(fnmatch.fnmatch(name, pat) for pat in self.targets)

    def draw(self, kind: HostFaultKind, *key: object) -> float:
        """Deterministic uniform draw in [0, 1) for (kind, key).

        A stable digest, not ``hash()``: the same plan seed and key
        yield the same decision in every process and every rerun.
        """
        digest = hashlib.blake2b(
            repr((self.seed, kind.value) + key).encode(), digest_size=8
        ).digest()
        return int.from_bytes(digest, "little") / 2.0 ** 64

    def triggers(self, kind: HostFaultKind, *key: object) -> bool:
        rate = self.rate(kind)
        return rate > 0.0 and self.draw(kind, *key) < rate


def _count_injected(kind: HostFaultKind) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_host_faults_injected_total",
                    "Host faults injected, by kind", ("kind",),
                    scope=SCOPE_PROCESS).inc(1, kind.value)


class HostFaultInjector:
    """The storage-side write filter derived from a plan.

    Holds a per-file-name write counter so repeated writes of the same
    path (a store record republished after a recompute) draw independent
    decisions, while the first write of any given file is identical
    across processes and reruns.
    """

    def __init__(self, plan: HostFaultPlan) -> None:
        self.plan = plan
        self._write_counts: dict[str, int] = {}

    def filter_write(self, path: Path, text: str) -> str:
        """Mangle or reject one atomic write; the atomicio hook.

        Raises :class:`OSError` for ``enospc``/``eio`` (before any
        temp file is created), returns a truncated payload for
        ``torn``, a payload with one flipped bit for ``bitflip``, and
        the input unchanged otherwise.
        """
        plan = self.plan
        name = Path(path).name
        if not plan.targets_path(name):
            return text
        n = self._write_counts.get(name, 0)
        self._write_counts[name] = n + 1
        if plan.triggers(HostFaultKind.NO_SPACE, name, n):
            _count_injected(HostFaultKind.NO_SPACE)
            raise OSError(errno.ENOSPC,
                          f"injected ENOSPC writing {name} (write {n})")
        if plan.triggers(HostFaultKind.IO_ERROR, name, n):
            _count_injected(HostFaultKind.IO_ERROR)
            raise OSError(errno.EIO,
                          f"injected EIO writing {name} (write {n})")
        if plan.triggers(HostFaultKind.TORN_WRITE, name, n) and text:
            _count_injected(HostFaultKind.TORN_WRITE)
            rng = random.Random(int(plan.draw(
                HostFaultKind.TORN_WRITE, name, n, "cut") * 2**32))
            return text[:rng.randrange(len(text))]
        if plan.triggers(HostFaultKind.BIT_FLIP, name, n) and text:
            _count_injected(HostFaultKind.BIT_FLIP)
            rng = random.Random(int(plan.draw(
                HostFaultKind.BIT_FLIP, name, n, "bit") * 2**32))
            i = rng.randrange(len(text))
            # flip a low bit of one character, keeping it printable
            # ASCII so the damage is content corruption, not a codec
            # error — exactly what a checksum must catch
            flipped = chr((ord(text[i]) ^ (1 << rng.randrange(4))) & 0x7F)
            return text[:i] + flipped + text[i + 1:]
        return text


# ----------------------------------------------------------------------
# Process-wide installation (the storage hook + the plan workers see)
# ----------------------------------------------------------------------
_PLAN: HostFaultPlan | None = None
_INJECTOR: HostFaultInjector | None = None


def install(plan: HostFaultPlan) -> HostFaultInjector:
    """Activate ``plan`` process-wide: register the atomicio write
    filter and make the plan visible to :func:`active_plan` (which is
    how workers inherit it via ``WorkerConfig``)."""
    global _PLAN, _INJECTOR
    _PLAN = plan
    _INJECTOR = HostFaultInjector(plan)
    atomicio._WRITE_HOOK = _INJECTOR.filter_write
    return _INJECTOR


def uninstall() -> None:
    """Deactivate host fault injection (the default state)."""
    global _PLAN, _INJECTOR
    _PLAN = None
    _INJECTOR = None
    atomicio._WRITE_HOOK = None


def active_plan() -> HostFaultPlan | None:
    return _PLAN


@contextlib.contextmanager
def installed(plan: HostFaultPlan):
    """Activate ``plan`` for a ``with`` block, restoring the previous
    state on exit (the chaos harness and tests use this)."""
    global _PLAN, _INJECTOR
    prev_plan, prev_injector, prev_hook = \
        _PLAN, _INJECTOR, atomicio._WRITE_HOOK
    injector = install(plan)
    try:
        yield injector
    finally:
        _PLAN = prev_plan
        _INJECTOR = prev_injector
        atomicio._WRITE_HOOK = prev_hook


# ----------------------------------------------------------------------
# Worker-process disruptions (consulted once per worker task)
# ----------------------------------------------------------------------
def maybe_disrupt(plan: HostFaultPlan | None, key: tuple,
                  generation: int) -> None:
    """Apply ``kill``/``stall`` for one worker task.

    ``key`` is the cell task identity (algorithm, input, device) and
    ``generation`` the slot generation (respawn count) of the worker
    running it, so a cell redispatched to a respawned worker draws a
    fresh decision, and with ``disrupt_generations=N`` only the first N
    generations of each slot are disrupted.  A kill is a real
    ``SIGKILL`` to the worker's own pid — the fleet supervisor sees a
    closed pipe, exactly as it would for the OOM killer.  ``plan=None``
    (no injection installed) is a no-op.
    """
    if plan is None:
        return
    if (plan.disrupt_generations is not None
            and generation >= plan.disrupt_generations):
        return
    if plan.triggers(HostFaultKind.WORKER_KILL, *key, generation):
        _count_injected(HostFaultKind.WORKER_KILL)
        os.kill(os.getpid(), signal.SIGKILL)
    if plan.triggers(HostFaultKind.WORKER_STALL, *key, generation):
        _count_injected(HostFaultKind.WORKER_STALL)
        time.sleep(plan.stall_seconds)
