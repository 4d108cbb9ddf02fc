"""Content-addressed result store: the one on-disk home of finished cells.

A checkpointed :class:`~repro.core.resilience.ResilientStudy` — an
offline ``repro sweep --checkpoint DIR`` or the service study behind
``repro serve --store DIR`` — publishes every cell whose two variants
both finished ``ok`` as ``cell-<digest>.json``, and looks a cell up
here before executing it, so an interrupted sweep or a restarted server
resumes by itself.  The digest is a blake2b hash of the cell identity
*and* of everything in the study policy that changes a record: ``reps``,
``scale``, the kernel fault plan (its specs and seed) and, under a plan,
``retries`` (a retry reseeds its repetitions).  A store never serves
records produced under a different policy.

The durability ladder is the trace cache's (see
:class:`~repro.perf.trace.TraceCache`), applied record by record:

* **atomic publish** — every record is written through
  :func:`repro.utils.atomicio.atomic_write_text` (temp file + fsync +
  rename), so a crash or injected torn write never leaves a partially
  visible record under the final name;
* **CRC self-checking** — each record embeds a CRC32 of its canonical
  JSON; a torn, truncated, or bit-flipped record fails validation on
  read and is **quarantined** (renamed to ``*.corrupt``) rather than
  served, and the cell is simply recomputed;
* **sticky degrade** — after :data:`DEGRADE_AFTER` consecutive publish
  failures (disk full, I/O errors) the store stops touching the disk.
  The study's memo still holds every result, so only resumption is
  lost; ``/readyz`` reports the degraded state.

Publishing is *best effort* and lookups are *advisory*: a store failure
never fails a cell, it only costs a recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.core.variants import Variant
from repro.perf.trace import payload_crc
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.atomicio import atomic_write_text

STORE_FORMAT = 2
"""Format 2 addresses cover the kernel fault plan.  Format-1 stores may
hold faulted records under clean addresses, so they are never read."""

DEGRADE_AFTER = 3
"""Consecutive publish failures after which the store sticky-degrades
(mirrors the trace cache's ladder)."""


def _count_event(event: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_fleet_store_events_total",
                    "Shared result store events, by kind", ("event",),
                    scope=SCOPE_PROCESS).inc(1, event)


def _set_degraded_gauge(value: int) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.gauge("repro_fleet_store_degraded",
                  "1 once the shared result store has stopped disk I/O",
                  scope=SCOPE_PROCESS).set(value)


def fault_policy(faults, retries: int) -> str | None:
    """The part of a cell's address a kernel fault plan contributes:
    None for a clean study, else the plan's specs, seed and the retry
    count (retries reseed faulted repetitions)."""
    if faults is None:
        return None
    specs = ",".join(f"{kind}={rate!r}" for kind, rate in sorted(
        (s.kind.value, s.rate) for s in faults.specs))
    return f"{specs} seed={faults.seed} retries={int(retries)}"


_VARIANT_VALUES = frozenset(v.value for v in Variant)


def _is_result(record, cell: tuple[str, str, str]) -> bool:
    """Whether ``record`` is a ``result`` record of ``cell`` that a
    study can merge (the CRC only says it is what was written)."""
    return (isinstance(record, dict) and record.get("kind") == "result"
            and (record.get("algorithm"), record.get("input"),
                 record.get("device")) == cell
            and record.get("variant") in _VARIANT_VALUES
            and isinstance(record.get("runtimes_ms"), list))


class ResultStore:
    """One directory of content-addressed, CRC-checked cell records.

    Parameters
    ----------
    disk_dir:
        Directory for ``cell-*.json`` records (created on demand).
    reps / scale:
        The owning study's policy; part of every cell's address so
        records never cross policy boundaries.
    faults / retries:
        The owning study's kernel fault plan and retry count; see
        :func:`fault_policy`.
    """

    def __init__(self, disk_dir, *, reps: int, scale: float,
                 faults=None, retries: int = 0) -> None:
        self.disk_dir = Path(disk_dir)
        self.reps = int(reps)
        self.scale = float(scale)
        self.policy = fault_policy(faults, retries)
        self._degraded = False
        self._consecutive_errors = 0
        #: observability counters (also exported as telemetry)
        self.hits = 0
        self.misses = 0
        self.publishes = 0
        self.quarantined = 0
        self.disk_errors = 0

    # ------------------------------------------------------------------
    @property
    def degraded(self) -> bool:
        """True once the store has sticky-degraded (no disk I/O)."""
        return self._degraded

    def status(self) -> dict:
        return {"dir": str(self.disk_dir), "degraded": self._degraded,
                "hits": self.hits, "misses": self.misses,
                "publishes": self.publishes,
                "quarantined": self.quarantined,
                "disk_errors": self.disk_errors}

    # ------------------------------------------------------------------
    def digest(self, algorithm: str, input_name: str, device: str) -> str:
        """The content address of one cell under this store's policy."""
        identity = repr((STORE_FORMAT, self.reps, self.scale, self.policy,
                         algorithm, input_name, device))
        return hashlib.blake2b(identity.encode("utf-8"),
                               digest_size=16).hexdigest()

    def _path(self, digest: str) -> Path:
        return self.disk_dir / f"cell-{digest}.json"

    # ------------------------------------------------------------------
    def publish(self, algorithm: str, input_name: str, device: str,
                records: list[dict]) -> None:
        """Publish one finished cell's ``result`` records.

        Failures are never published: they depend on budgets and
        deadlines, and a deterministic fault plan reaches them again.
        Publish errors degrade the store, never the cell.
        """
        if self._degraded:
            return
        payload = {"format": STORE_FORMAT, "reps": self.reps,
                   "scale": self.scale, "faults": self.policy,
                   "algorithm": algorithm, "input": input_name,
                   "device": device, "records": records}
        payload["crc"] = payload_crc(payload)
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(
                self._path(self.digest(algorithm, input_name, device)),
                json.dumps(payload, sort_keys=True))
        except OSError:
            self.disk_errors += 1
            self._consecutive_errors += 1
            _count_event("disk_error")
            if self._consecutive_errors >= DEGRADE_AFTER:
                self._degraded = True
                _set_degraded_gauge(1)
            return
        self._consecutive_errors = 0
        self.publishes += 1
        _count_event("publish")

    # ------------------------------------------------------------------
    def lookup(self, algorithm: str, input_name: str,
               device: str) -> list[dict] | None:
        """The cell's published ``result`` records, or None.

        Validation mirrors the trace cache's read ladder: unreadable is
        a miss, unparsable/mis-shapen/checksum-failed records are
        quarantined as ``*.corrupt``, and identity or policy mismatches
        (a digest collision would be the only path here) are misses.
        """
        records = self._read_disk(algorithm, input_name, device)
        if records is None:
            self.misses += 1
            _count_event("miss")
            return None
        self.hits += 1
        _count_event("hit")
        return records

    def _read_disk(self, algorithm: str, input_name: str,
                   device: str) -> list[dict] | None:
        if self._degraded:
            return None
        path = self._path(self.digest(algorithm, input_name, device))
        try:
            data = path.read_bytes()
        except OSError:
            return None
        try:
            payload = json.loads(data)
        except (UnicodeDecodeError, json.JSONDecodeError):
            self._quarantine(path, "torn")
            return None
        if not isinstance(payload, dict):
            self._quarantine(path, "shape")
            return None
        if payload.get("format") != STORE_FORMAT:
            return None
        if payload_crc(payload) != payload.get("crc"):
            self._quarantine(path, "checksum")
            return None
        cell = (algorithm, input_name, device)
        records = payload.get("records")
        if (not isinstance(records, list) or not records
                or not all(_is_result(r, cell) for r in records)):
            self._quarantine(path, "shape")
            return None
        if (payload.get("algorithm") != algorithm
                or payload.get("input") != input_name
                or payload.get("device") != device
                or payload.get("reps") != self.reps
                or payload.get("scale") != self.scale
                or payload.get("faults") != self.policy):
            return None
        return records

    def _quarantine(self, path: Path, cause: str) -> None:
        """Move a failed record aside so it is never re-read, and the
        bad bytes remain available for a post-mortem."""
        try:
            os.replace(path, path.with_name(path.name + ".corrupt"))
        except OSError:  # pragma: no cover - already gone
            pass
        self.quarantined += 1
        _count_event("quarantined")
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_host_corrupt_quarantined_total",
                        "Corrupt artifacts quarantined, by cause",
                        ("cause",), scope=SCOPE_PROCESS).inc(1, cause)
