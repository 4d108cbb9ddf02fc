"""Content-addressed shared result store for the worker fleet.

Fleet replicas (and successive server incarnations pointed at the same
directory) share completed cells through one on-disk store instead of
recomputing them: each fully-``ok`` cell is published as
``cell-<digest>.json``, where the digest is a blake2b hash of the cell
identity *and* the study policy (``reps``/``scale``/format version), so
a store can never serve records produced under a different policy.

The durability ladder is the trace cache's (see
:class:`~repro.perf.trace.TraceCache`), applied record-by-record:

* **atomic publish** — every record is written through
  :func:`repro.utils.atomicio.atomic_write_text` (temp file + fsync +
  rename), so a crash or injected torn write never leaves a partially
  visible record under the final name;
* **CRC self-checking** — each record embeds a CRC32 of its canonical
  JSON; a torn, truncated, or bit-flipped record fails validation on
  read and is **quarantined** (renamed to ``*.corrupt``) rather than
  served, and the cell is simply recomputed;
* **sticky degrade** — after :data:`DEGRADE_AFTER` consecutive publish
  failures (disk full, I/O errors) the store stops touching the disk
  and serves from its in-memory mirror only; ``/readyz`` reports the
  degraded state.

Publishing is *best effort* and lookups are *advisory*: a store failure
never fails a cell, it only costs a recomputation.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from repro.perf.trace import payload_crc
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.atomicio import atomic_write_text

STORE_FORMAT = 1

DEGRADE_AFTER = 3
"""Consecutive publish failures after which the store sticky-degrades
to memory-only operation (mirrors the trace cache's ladder)."""


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
                  "1 while the shared result store is memory-only",
                  scope=SCOPE_PROCESS).set(value)


class ResultStore:
    """One directory of content-addressed, CRC-checked cell records.

    Parameters
    ----------
    disk_dir:
        Directory for ``cell-*.json`` records (created on demand).
    reps / scale:
        The owning study's policy; part of every cell's address so
        records never cross policy boundaries.
    """

    def __init__(self, disk_dir, *, reps: int, scale: float) -> None:
        self.disk_dir = Path(disk_dir)
        self.reps = int(reps)
        self.scale = float(scale)
        self._mem: dict[str, list[dict]] = {}
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
        """True once the store has sticky-degraded to memory-only."""
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
        identity = repr((STORE_FORMAT, self.reps, self.scale,
                         algorithm, input_name, device))
        return hashlib.blake2b(identity.encode("utf-8"),
                               digest_size=16).hexdigest()

    def _path(self, digest: str) -> Path:
        return self.disk_dir / f"cell-{digest}.json"

    # ------------------------------------------------------------------
    def publish(self, algorithm: str, input_name: str, device: str,
                records: list[dict]) -> None:
        """Publish one completed cell's ``result`` records.

        Only fully-successful cells are publishable — failures stay
        local (they are policy- and deadline-dependent, not content).
        Publish errors degrade the store, never the cell.
        """
        if not records or any(r.get("kind") != "result" for r in records):
            return
        digest = self.digest(algorithm, input_name, device)
        self._mem[digest] = [dict(r) for r in records]
        if self._degraded:
            return
        payload = {"format": STORE_FORMAT, "reps": self.reps,
                   "scale": self.scale, "algorithm": algorithm,
                   "input": input_name, "device": device,
                   "records": records}
        payload["crc"] = payload_crc(payload)
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self._path(digest),
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
        digest = self.digest(algorithm, input_name, device)
        cached = self._mem.get(digest)
        if cached is not None:
            self.hits += 1
            _count_event("hit")
            return [dict(r) for r in cached]
        records = self._read_disk(digest, algorithm, input_name, device)
        if records is None:
            self.misses += 1
            _count_event("miss")
            return None
        self._mem[digest] = records
        self.hits += 1
        _count_event("hit")
        return [dict(r) for r in records]

    def _read_disk(self, digest: str, algorithm: str, input_name: str,
                   device: str) -> list[dict] | None:
        if self._degraded:
            return None
        path = self._path(digest)
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
        records = payload.get("records")
        if (not isinstance(records, list) or not records
                or any(not isinstance(r, dict) or r.get("kind") != "result"
                       for r in records)):
            self._quarantine(path, "shape")
            return None
        if (payload.get("algorithm") != algorithm
                or payload.get("input") != input_name
                or payload.get("device") != device
                or payload.get("reps") != self.reps
                or payload.get("scale") != self.scale):
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
