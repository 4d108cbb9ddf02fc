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
* **on-disk** (optional) — one JSON file per trace under ``disk_dir``,
  written atomically, holding the stats and the output *fingerprint*
  but never the output arrays.  This is what lets parallel sweep
  workers and successive bench sessions share recordings.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import zlib
from dataclasses import dataclass, fields
from pathlib import Path

from repro.core.variants import Variant
from repro.gpu.timing import AccessStats
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.atomicio import atomic_write_text

TRACE_FORMAT = 2
"""On-disk trace format version; bump to invalidate persisted traces.
Format 2 adds a CRC32 content checksum (``crc``) over the payload so
bit-flipped or hand-edited files are quarantined instead of trusted."""

DEGRADE_AFTER = 3
"""Consecutive disk-write errors before the cache degrades to
memory-only operation."""

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


def payload_crc(payload: dict) -> int:
    """CRC32 of a disk payload's content, excluding the ``crc`` field.

    Canonical (sorted-keys) JSON, so the digest is independent of the
    key order the file happens to use."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


def _stats_to_dict(stats: AccessStats) -> dict:
    return {f.name: getattr(stats, f.name) for f in fields(stats)}


def _stats_from_dict(data: dict) -> AccessStats:
    stats = AccessStats()
    for f in fields(stats):
        value = data[f.name]
        setattr(stats, f.name,
                int(value) if f.name == "rounds" else float(value))
    return stats


class TraceCache:
    """In-memory + optional on-disk store of recorded traces.

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

    def __init__(self, disk_dir: str | Path | None = None,
                 retain_outputs: bool = True) -> None:
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.retain_outputs = retain_outputs
        self._memory: dict[tuple, Trace] = {}
        self.recorded = 0
        self.memory_hits = 0
        self.disk_hits = 0
        #: corrupt disk files moved aside (self-healing storage)
        self.quarantined = 0
        #: total disk-write failures observed (ENOSPC, EIO, ...)
        self.disk_errors = 0
        #: true once the disk layer has been abandoned after
        #: ``DEGRADE_AFTER`` consecutive write errors; sticky for the
        #: cache's lifetime — recreate the cache to retry the disk
        self.degraded = False
        self._consecutive_disk_errors = 0

    def __len__(self) -> int:
        return len(self._memory)

    def _count_event(self, event: str) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_trace_cache_events_total",
                        "Trace cache lookups and stores by outcome",
                        ("event",), scope=SCOPE_PROCESS).inc(1, event)

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
        if need_output or self.disk_dir is None or self.degraded:
            self._count_event("miss")
            return None
        trace = self._read_disk(key)
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
        already has it); after ``DEGRADE_AFTER`` consecutive failures
        the cache stops touching the disk entirely (memory-only
        degraded mode) instead of paying a doomed syscall per record.
        """
        self.recorded += 1
        self._count_event("record")
        key = trace.key()
        self._memory[key] = (trace if self.retain_outputs
                             else trace.without_output())
        if self.disk_dir is None or self.degraded:
            return
        try:
            self._write_disk(key, trace)
        except OSError:
            self.disk_errors += 1
            self._consecutive_disk_errors += 1
            reg = get_registry()
            if reg.enabled:
                reg.counter("repro_host_disk_errors_total",
                            "Trace-cache disk writes that failed",
                            scope=SCOPE_PROCESS).inc(1)
            if self._consecutive_disk_errors >= DEGRADE_AFTER:
                self.degraded = True
                if reg.enabled:
                    reg.gauge("repro_host_degraded_mode",
                              "1 while the trace cache runs memory-only "
                              "after repeated disk errors",
                              scope=SCOPE_PROCESS).set(1)
        else:
            self._consecutive_disk_errors = 0
            self._publish_disk()

    # ------------------------------------------------------------------
    # Disk layer maintenance
    # ------------------------------------------------------------------
    def _disk_files(self) -> list[Path]:
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(self.disk_dir.glob("trace-*.json"))

    def disk_usage(self) -> tuple[int, int]:
        """(entry count, total bytes) of the on-disk layer."""
        entries = 0
        nbytes = 0
        for path in self._disk_files():
            try:
                nbytes += path.stat().st_size
            except OSError:
                continue  # concurrently pruned by another process
            entries += 1
        return entries, nbytes

    def _quarantine_files(self) -> list[Path]:
        """``*.corrupt`` files parked by :meth:`_quarantine`."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(self.disk_dir.glob("trace-*.json.corrupt"))

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict traces until the disk layer fits ``max_bytes``;
        returns (files removed, bytes freed).

        The on-disk layer otherwise grows without bound — every new
        (algorithm, graph, variant, seed, staleness, plan) combination
        adds a file and nothing ever removes one.  ``*.corrupt``
        quarantine files count toward the byte budget too (they occupy
        the same disk) and are evicted *first*: they serve no lookup
        and exist only for post-mortems, so they must never crowd out
        live traces (evictions are counted in
        ``repro_trace_prune_quarantined``).  Live traces then go
        oldest-first by mtime, approximating LRU: :meth:`_write_disk`
        timestamps recordings and re-recorded traces overwrite
        (refreshing) their file.  The in-memory layer is untouched.
        Safe to run while other processes read the cache: a
        concurrently deleted file is simply treated as a miss by them.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        stamped = []
        total = 0
        # quarantined files sort ahead of every live trace (rank 0)
        for rank, paths in ((0, self._quarantine_files()),
                            (1, self._disk_files())):
            for path in paths:
                try:
                    st = path.stat()
                except OSError:
                    continue
                stamped.append((rank, st.st_mtime, path, st.st_size))
                total += st.st_size
        stamped.sort()
        removed = 0
        freed = 0
        quarantined_removed = 0
        for rank, _, path, size in stamped:
            if total <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            total -= size
            freed += size
            removed += 1
            if rank == 0:
                quarantined_removed += 1
        if quarantined_removed:
            reg = get_registry()
            if reg.enabled:
                reg.counter("repro_trace_prune_quarantined",
                            "Quarantined (*.corrupt) trace files evicted "
                            "by prune", scope=SCOPE_PROCESS
                            ).inc(quarantined_removed)
        self._publish_disk()
        return removed, freed

    # ------------------------------------------------------------------
    def _path(self, key: tuple) -> Path:
        digest = hashlib.sha256(repr(key).encode()).hexdigest()[:32]
        return self.disk_dir / f"trace-{digest}.json"

    def _write_disk(self, key: tuple, trace: Trace) -> None:
        self.disk_dir.mkdir(parents=True, exist_ok=True)
        payload = {
            "format": TRACE_FORMAT,
            "algorithm": trace.algorithm,
            "variant": trace.variant.value,
            "seed": trace.seed,
            "staleness_rounds": trace.staleness_rounds,
            "graph_fp": trace.graph_fp,
            "plan_fp": trace.plan_fp,
            "stats": _stats_to_dict(trace.stats),
            "output_fp": trace.output_fp,
        }
        payload["crc"] = payload_crc(payload)
        atomic_write_text(self._path(key), json.dumps(payload))

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a corrupt disk file aside and count it.

        The ``.corrupt`` name falls outside the ``trace-*.json`` glob,
        so quarantined files stop being read or served — they stay on
        disk for post-mortem inspection, count toward :meth:`prune`'s
        byte budget, and are the first thing prune evicts.  The slot
        becomes a plain miss and the next recording heals it.
        """
        with contextlib.suppress(OSError):
            os.replace(path, path.with_name(path.name + ".corrupt"))
        self.quarantined += 1
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_host_corrupt_quarantined_total",
                        "Corrupt trace-cache files moved aside, by cause",
                        ("cause",), scope=SCOPE_PROCESS).inc(1, reason)

    def _read_disk(self, key: tuple) -> Trace | None:
        path = self._path(key)
        try:
            data = path.read_bytes()
        except OSError:
            return None  # missing (or unreadable) file: treat as a miss
        try:
            payload = json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._quarantine(path, "torn")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "shape")
            return None
        if payload.get("format") != TRACE_FORMAT:
            return None  # older build's file: a miss, re-recorded over
        if payload.get("crc") != payload_crc(payload):
            self._quarantine(path, "checksum")
            return None
        recovered = (payload.get("algorithm"), payload.get("graph_fp"),
                     payload.get("variant"), payload.get("seed"),
                     payload.get("staleness_rounds"),
                     payload.get("plan_fp"))
        if recovered != key:
            return None  # hash-prefix collision or stale schema
        try:
            stats = _stats_from_dict(payload["stats"])
        except (KeyError, TypeError, ValueError):
            return None
        return Trace(
            algorithm=payload["algorithm"],
            variant=Variant(payload["variant"]),
            seed=int(payload["seed"]),
            staleness_rounds=int(payload["staleness_rounds"]),
            graph_fp=payload["graph_fp"],
            plan_fp=payload["plan_fp"],
            stats=stats,
            output_fp=payload.get("output_fp", ""),
            output=None,
        )
