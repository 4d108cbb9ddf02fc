"""A directory of CRC-enveloped JSON files: the one durability ladder
under the trace cache (:class:`~repro.perf.trace.TraceCache`) and the
result store (:class:`~repro.core.store.ResultStore`).

Each file is ``<prefix><digest>.json``, holding one JSON object: the
owner's body plus ``format`` and ``crc``, the CRC32 of the object
without ``crc`` as sorted-key JSON.  The file itself is sorted-key JSON
as well, so neither the CRC nor the bytes depend on the order in which
the owner built its body.

* **publish** — :func:`~repro.utils.atomicio.atomic_write_text`
  (temp file, fsync, rename), so a crash or a torn write never leaves a
  partial file under the final name.  Publishing is best effort: a
  failed write (``ENOSPC``, ``EIO``, ...) is counted, and after
  :data:`DEGRADE_AFTER` failures in a row the directory degrades for
  good — no later publish or read touches the disk.
* **read** — a file that cannot be read is a miss; undecodable bytes
  or unparsable JSON are quarantined as ``torn``, a JSON value that is
  not an object as ``shape``, and a CRC mismatch as ``checksum``.  A
  file of another ``format`` is a miss and stays where it is: an older
  build's file, published over by the next write.
* **quarantine** — a bad file is renamed to ``*.corrupt``, out of the
  ``<prefix>*.json`` listing, so it is never read again and stays for a
  post-mortem; the slot becomes a miss, and the next publish heals it.
  Every owner counts it in ``repro_host_corrupt_quarantined_total``.
* **prune** — evicts ``*.corrupt`` files first, then live files oldest
  first, down to a byte budget.

An owner subclasses :class:`DurableDir`, maps its keys to digests and
its objects to bodies, adds its own checks on a verified payload, and
exports the ladder's events under its own metric families (:meth:`_note`).
"""

from __future__ import annotations

import contextlib
import json
import os
import zlib
from pathlib import Path

from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.atomicio import atomic_write_text

DEGRADE_AFTER = 3
"""Failed publishes in a row after which a directory stops disk I/O."""


def envelope_crc(payload: dict) -> int:
    """CRC32 of a payload's sorted-key JSON, without its ``crc`` field."""
    body = {k: v for k, v in payload.items() if k != "crc"}
    return zlib.crc32(json.dumps(body, sort_keys=True).encode())


class DurableDir:
    """One directory of enveloped files (see the module docstring).

    ``disk_dir`` may be None: nothing is then published or read.
    """

    #: file-name prefix of this directory's files
    prefix = ""
    #: the ``format`` this build writes and reads
    format = 0

    def __init__(self, disk_dir: str | Path | None) -> None:
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        #: corrupt files moved aside
        self.quarantined = 0
        #: failed publishes (ENOSPC, EIO, ...)
        self.disk_errors = 0
        #: true after ``DEGRADE_AFTER`` failed publishes in a row; sticky
        #: for the object's lifetime
        self.degraded = False
        self._consecutive_disk_errors = 0

    def _note(self, event: str, count: int = 1) -> None:
        """Export one ladder event under the owner's metric families:
        ``disk_error``, ``degraded``, ``quarantined``, or ``pruned``
        (after every :meth:`prune`, with ``count`` the ``*.corrupt``
        files it evicted)."""

    # ------------------------------------------------------------------
    def _path(self, digest: str) -> Path:
        return self.disk_dir / f"{self.prefix}{digest}.json"

    def _publish(self, digest: str, body: dict) -> bool:
        """Write ``body``, enveloped, as the file for ``digest``; False
        when nothing was written (no directory, degraded, or the write
        failed)."""
        if self.disk_dir is None or self.degraded:
            return False
        payload = dict(body, format=self.format)
        payload["crc"] = envelope_crc(payload)
        try:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            atomic_write_text(self._path(digest),
                              json.dumps(payload, sort_keys=True))
        except OSError:
            self.disk_errors += 1
            self._consecutive_disk_errors += 1
            self._note("disk_error")
            if self._consecutive_disk_errors >= DEGRADE_AFTER:
                self.degraded = True
                self._note("degraded")
            return False
        self._consecutive_disk_errors = 0
        return True

    def _read(self, digest: str) -> dict | None:
        """The verified payload of the file for ``digest``, or None."""
        if self.disk_dir is None or self.degraded:
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
        if payload.get("format") != self.format:
            return None
        if payload.get("crc") != envelope_crc(payload):
            self._quarantine(path, "checksum")
            return None
        return payload

    def _quarantine(self, path: Path, cause: str) -> None:
        """Move a bad file aside as ``*.corrupt`` and count it."""
        with contextlib.suppress(OSError):
            os.replace(path, path.with_name(path.name + ".corrupt"))
        self.quarantined += 1
        self._note("quarantined")
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_host_corrupt_quarantined_total",
                        "Corrupt trace-cache and result-store files moved "
                        "aside, by cause", ("cause",),
                        scope=SCOPE_PROCESS).inc(1, cause)

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _files(self, suffix: str = ".json") -> list[Path]:
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(self.disk_dir.glob(f"{self.prefix}*{suffix}"))

    def disk_usage(self) -> tuple[int, int]:
        """(file count, total bytes) of the live files."""
        entries = 0
        nbytes = 0
        for path in self._files():
            try:
                nbytes += path.stat().st_size
            except OSError:
                continue  # concurrently pruned by another process
            entries += 1
        return entries, nbytes

    def prune(self, max_bytes: int) -> tuple[int, int]:
        """Evict files until the directory fits ``max_bytes``; returns
        (files removed, bytes freed).

        ``*.corrupt`` files count toward the budget (they occupy the
        same disk) and go first: they answer no lookup, so they must
        never crowd out live files.  Live files then go oldest first by
        mtime, approximating LRU, since a publish rewrites its file.
        Safe while other processes read the directory: a file deleted
        under them is a miss.
        """
        if max_bytes < 0:
            raise ValueError(f"max_bytes must be >= 0, got {max_bytes}")
        stamped = []
        total = 0
        # quarantined files sort ahead of every live file (rank 0)
        for rank, paths in ((0, self._files(".json.corrupt")),
                            (1, self._files())):
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
        corrupt_removed = 0
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
                corrupt_removed += 1
        self._note("pruned", corrupt_removed)
        return removed, freed
