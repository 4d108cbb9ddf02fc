"""Trace record/replay: run the functional execution once, price it
per device and repetition.

The recorded access trace of a performance-level run depends on the
device only through ``plain_staleness_rounds`` (the register-caching
visibility constant), and on the repetition only through its seed —
which most runners never read.  The run-to-run noise term is seeded by
(seed, algorithm, variant) alone and drawn at replay.  Everything
*else* the device contributes — cache geometry, atomic penalties,
clock — enters only when the :class:`~repro.gpu.timing.TimingModel`
prices the recorded :class:`~repro.gpu.timing.AccessStats`.  So a sweep
over four devices and nine repetitions need not execute the vectorized
algorithm 36 times: devices sharing a staleness constant and
repetitions whose seed the runner ignores replay one cached trace, and
pricing a trace costs microseconds instead of a full numpy execution.

The variant is a parameter of the same kind.  The race-free conversion
changes only the access kind of each racy site, so a runner that never
branches on a kind computes the same thing for both variants; runners
read a site's kind only through ``recorder.site_kind(name)``, and one
that never does yields every variant's trace from one execution (the
other variant's rides along as a *sibling*, stored under its own key).
MIS reads its poll site's kind, because fresher polls converge
differently, so it records each variant itself.

This module holds the cache; the record/replay entry points live in
:mod:`repro.perf.engine` (``record_trace`` / ``replay_trace``), which
remains the single place that runs ``perf_runner``.

Cache key
---------

``(algorithm, graph fingerprint, variant, seed, staleness rounds,
access-plan fingerprint)``.  The seed is :data:`ANY_SEED` and the
staleness rounds :data:`ANY_STALENESS` for a recording that never
consumed that parameter; lookups probe the wildcards most general
first — ``(ANY_SEED, ANY_STALENESS)``, ``(seed, ANY_STALENESS)``,
``(seed, staleness)``, ``(ANY_SEED, staleness)``.  Exact-seed files
written before the seed wildcard existed still answer the ``(seed,
...)`` probes.  The graph fingerprint covers structure and weights, so
a rescaled suite input or a different weight seed can never alias a
cached trace; the plan fingerprint covers every access site's
kind/order/width, so editing an algorithm's ``ACCESS_PLAN`` invalidates
its traces (including any persisted by an older build).

Layers
------

* **in-memory** — a plain dict, shared by every run of one
  :class:`~repro.core.study.Study` (and everything else holding the
  cache object).  Retains output arrays by default so ``last_run``
  consumers and validation keep working.
* **on-disk** (optional) — one ``trace-*.json`` file per trace under
  ``disk_dir``, a :mod:`repro.utils.durable` directory, holding the
  stats and the output *fingerprint* but never the output arrays.  This
  is what lets parallel sweep workers and successive bench sessions
  share recordings.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass, field, fields
from pathlib import Path

from repro.core.variants import Variant
from repro.gpu.timing import AccessStats
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.durable import DurableDir

TRACE_FORMAT = 2
"""On-disk trace format version; bump to invalidate persisted traces.
Format 2 adds a CRC32 content checksum (``crc``) over the payload so
bit-flipped or hand-edited files are quarantined instead of trusted."""

ANY_STALENESS = -1
"""Wildcard staleness class for recordings that never consumed the
constant.

Only executions that actually *use* ``staleness_rounds`` (baseline MIS,
whose polling loop reads delayed values) differ between staleness
classes; every other algorithm's trace is identical on all devices.
The recorder tracks consumption, and :func:`~repro.perf.engine
.record_trace` keys unconsuming recordings with this wildcard so one
functional execution serves the whole device table."""

ANY_SEED = -1
"""Wildcard seed for recordings that never consumed the repetition seed.

The runners of cc, scc and mst on a pre-weighted graph never read the
seed, so every repetition of them executes identically; only the noise
factor drawn at replay differs.  :func:`~repro.perf.engine.record_trace`
keys such recordings with this wildcard so one functional execution
serves every repetition, and rejects it as a real seed so no
seed-consuming recording can carry it."""


@dataclass
class Trace:
    """One recorded functional execution, ready to be priced."""

    algorithm: str
    variant: Variant
    #: :data:`ANY_SEED` / :data:`ANY_STALENESS` when the recording
    #: never consumed the parameter
    seed: int
    staleness_rounds: int
    graph_fp: str
    plan_fp: str
    stats: AccessStats
    output_fp: str
    #: output arrays of the recording run; ``None`` when the trace was
    #: re-loaded from disk (outputs are never persisted)
    output: dict | None
    #: the same execution's traces for the other variants (see
    #: :func:`~repro.perf.engine.record_trace`); never persisted
    siblings: tuple["Trace", ...] = field(default=(), compare=False,
                                          repr=False)
    #: for a sibling, the variant whose run executed it; ``None`` for a
    #: trace of its own run
    sibling_of: Variant | None = field(default=None, compare=False)

    @property
    def rounds(self) -> int:
        return int(self.stats.rounds)

    def key(self) -> tuple:
        return trace_key(self.algorithm, self.graph_fp, self.variant,
                         self.seed, self.staleness_rounds, self.plan_fp)

    def without_output(self) -> "Trace":
        if self.output is None:
            return self
        return Trace(self.algorithm, self.variant, self.seed,
                     self.staleness_rounds, self.graph_fp, self.plan_fp,
                     self.stats, self.output_fp, output=None)


def trace_key(algorithm: str, graph_fp: str, variant: Variant, seed: int,
              staleness_rounds: int, plan_fp: str) -> tuple:
    """The cache key of one functional execution."""
    return (algorithm, graph_fp, variant.value, int(seed),
            int(staleness_rounds), plan_fp)


def plan_fingerprint(plan) -> str:
    """Stable digest of an :class:`~repro.core.transform.AccessPlan`.

    Covers every site's name, kind, width, store/RMW role, sharing, and
    memory order — any change to the access plan changes the
    fingerprint and therefore invalidates cached traces (in memory and
    on disk).  Cached per plan object: plans are frozen module-level
    constants.
    """
    cached = _PLAN_FPS.get(id(plan))
    if cached is not None and cached[0] is plan:
        return cached[1]
    parts = [plan.algorithm]
    for s in plan.sites:
        parts.append(f"{s.name}|{s.kind.value}|{s.elem_bytes}|"
                     f"{int(s.is_store)}|{int(s.is_rmw)}|{int(s.shared)}|"
                     f"{s.order.value}")
    fp = hashlib.sha256("\n".join(parts).encode()).hexdigest()[:32]
    _PLAN_FPS[id(plan)] = (plan, fp)
    return fp


#: id -> (plan, fingerprint); the plan reference keeps ids from being
#: recycled under the cache's feet
_PLAN_FPS: dict[int, tuple] = {}


def output_fingerprint(output: dict) -> str:
    """Content digest of a run's output arrays (dtype/shape/bytes)."""
    import numpy as np

    h = hashlib.sha256()
    for name in sorted(output):
        arr = np.asarray(output[name])
        h.update(name.encode())
        h.update(str(arr.dtype).encode())
        h.update(str(arr.shape).encode())
        h.update(arr.tobytes())
    return h.hexdigest()[:32]


def stable_config_hash(algorithm: str, variant: Variant) -> int:
    """Deterministic stand-in for ``hash((algorithm, variant.value))``.

    Python's string hash is randomized per interpreter process, so the
    historical seeding made simulated runtimes differ between
    invocations (and would have differed per pool worker).  CRC32 is
    stable everywhere; see CHANGES.md for the compatibility note.
    """
    return zlib.crc32(f"{algorithm}:{variant.value}".encode())


def _stats_to_dict(stats: AccessStats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _stats_from_dict(data: dict) -> AccessStats:
    stats = AccessStats()
    for f in fields(stats):
        value = data[f.name]
        setattr(stats, f.name,
                int(value) if f.name == "rounds" else float(value))
    return stats


class TraceCache(DurableDir):
    """In-memory + optional on-disk store of recorded traces.

    The disk layer is a :class:`~repro.utils.durable.DurableDir` of
    ``trace-*.json`` files; once it degrades, the cache runs
    memory-only.

    Parameters
    ----------
    disk_dir:
        Directory for the persistent layer (created on first write);
        ``None`` keeps the cache memory-only.
    retain_outputs:
        Keep the recording run's output arrays in the memory layer so
        replays can hand them back (needed by validation and
        ``last_run.output`` consumers).  Outputs never reach disk.
    """

    prefix = "trace-"
    format = TRACE_FORMAT

    def __init__(self, disk_dir: str | Path | None = None,
                 retain_outputs: bool = True) -> None:
        super().__init__(disk_dir)
        self.retain_outputs = retain_outputs
        self._memory: dict[tuple, Trace] = {}
        self.recorded = 0
        self.memory_hits = 0
        self.disk_hits = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _count_event(self, event: str) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_trace_cache_events_total",
                        "Trace cache lookups and stores by outcome",
                        ("event",), scope=SCOPE_PROCESS).inc(1, event)

    def _note(self, event: str, count: int = 1) -> None:
        reg = get_registry()
        if not reg.enabled:
            return
        if event == "disk_error":
            reg.counter("repro_host_disk_errors_total",
                        "Trace-cache disk writes that failed",
                        scope=SCOPE_PROCESS).inc(1)
        elif event == "degraded":
            reg.gauge("repro_host_degraded_mode",
                      "1 while the trace cache runs memory-only "
                      "after repeated disk errors",
                      scope=SCOPE_PROCESS).set(1)
        elif event == "pruned":
            if count:
                reg.counter("repro_trace_prune_quarantined",
                            "Quarantined (*.corrupt) trace files evicted "
                            "by prune", scope=SCOPE_PROCESS).inc(count)
            self._publish_disk()

    def _publish_disk(self) -> None:
        reg = get_registry()
        if not reg.enabled or self.disk_dir is None:
            return
        entries, nbytes = self.disk_usage()
        reg.gauge("repro_trace_cache_disk_entries",
                  "Traces in the on-disk cache layer",
                  scope=SCOPE_PROCESS).set(entries)
        reg.gauge("repro_trace_cache_disk_bytes",
                  "Bytes held by the on-disk trace cache layer",
                  scope=SCOPE_PROCESS).set(nbytes)

    # ------------------------------------------------------------------
    def lookup(self, key: tuple, need_output: bool = False) -> Trace | None:
        """A cached trace for ``key``, or ``None``.

        ``need_output=True`` treats a trace without retained output
        arrays as a miss (the caller will re-record), since disk traces
        and output-stripped memory traces cannot satisfy validation.
        """
        trace = self._memory.get(key)
        if trace is not None:
            if trace.output is not None or not need_output:
                self.memory_hits += 1
                self._count_event("memory_hit")
                return trace
            # cached but output-stripped: the caller must re-record
            self._count_event("re_record_miss")
            return None
        payload = None if need_output else self._read(_file_digest(key))
        trace = None if payload is None else _trace_from(payload, key)
        if trace is not None:
            self.disk_hits += 1
            self._count_event("disk_hit")
            self._memory[key] = trace
        else:
            self._count_event("miss")
        return trace

    def store(self, trace: Trace) -> None:
        """Insert a freshly recorded trace into both layers.

        A disk-write failure never loses the trace (the memory layer
        already has it); a degraded cache stops touching the disk.
        Re-recording a trace rewrites its file, which refreshes the
        mtime :meth:`prune` evicts by.  A sibling (``trace.sibling_of``)
        counts as the ``sibling`` event, not in :attr:`recorded`, which
        counts functional executions.
        """
        if trace.sibling_of is None:
            self.recorded += 1
            self._count_event("record")
        else:
            self._count_event("sibling")
        key = trace.key()
        self._memory[key] = (trace if self.retain_outputs
                             else trace.without_output())
        body = {"algorithm": trace.algorithm,
                "variant": trace.variant.value, "seed": trace.seed,
                "staleness_rounds": trace.staleness_rounds,
                "graph_fp": trace.graph_fp, "plan_fp": trace.plan_fp,
                "stats": _stats_to_dict(trace.stats),
                "output_fp": trace.output_fp}
        if self._publish(_file_digest(key), body):
            self._publish_disk()


def _file_digest(key: tuple) -> str:
    return hashlib.sha256(repr(key).encode()).hexdigest()[:32]


def _trace_from(payload: dict, key: tuple) -> Trace | None:
    """The trace a verified disk payload holds, or None when it is not
    ``key``'s (a digest-prefix collision or a stale schema)."""
    recovered = (payload.get("algorithm"), payload.get("graph_fp"),
                 payload.get("variant"), payload.get("seed"),
                 payload.get("staleness_rounds"), payload.get("plan_fp"))
    if recovered != key:
        return None
    try:
        stats = _stats_from_dict(payload["stats"])
    except (KeyError, TypeError, ValueError):
        return None
    return Trace(algorithm=payload["algorithm"],
                 variant=Variant(payload["variant"]),
                 seed=int(payload["seed"]),
                 staleness_rounds=int(payload["staleness_rounds"]),
                 graph_fp=payload["graph_fp"], plan_fp=payload["plan_fp"],
                 stats=stats, output_fp=payload.get("output_fp", ""),
                 output=None)
