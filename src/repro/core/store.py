"""Content-addressed result store: the one on-disk home of finished cells.

A checkpointed :class:`~repro.core.study.Study` — an
offline ``repro sweep --checkpoint DIR`` or the service study behind
``repro serve --store DIR`` — publishes every cell whose two variants
both finished ``ok`` as ``cell-<digest>.json``, and looks a cell up
here before executing it, so an interrupted sweep or a restarted server
resumes by itself.  The digest is a blake2b hash of the cell identity
*and* of everything in the study policy that changes a record: ``reps``,
``scale``, the kernel fault plan (its specs and seed) and, under a plan,
``retries`` (a retry reseeds its repetitions).  A store never serves
records produced under a different policy.

The directory is a :class:`~repro.utils.durable.DurableDir`, which
holds the durability ladder.  Publishing is *best effort* and lookups
are *advisory*: a store failure never fails a cell, it only costs a
recomputation.  The study's memo still holds every result, so a
degraded store loses only resumption; ``/readyz`` reports it.
"""

from __future__ import annotations

import hashlib

from repro.core.variants import Variant
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry
from repro.utils.durable import DurableDir

STORE_FORMAT = 2
"""Format 2 addresses cover the kernel fault plan.  Format-1 stores may
hold faulted records under clean addresses, so they are never read."""


def _count_event(event: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_fleet_store_events_total",
                    "Shared result store events, by kind", ("event",),
                    scope=SCOPE_PROCESS).inc(1, event)


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


def _holds_results(payload: dict, cell: tuple[str, str, str]) -> bool:
    records = payload.get("records")
    return (isinstance(records, list) and bool(records)
            and all(_is_result(r, cell) for r in records))


#: the payload fields that must match the looked-up cell and the
#: store's policy, in that order
_ADDRESS = ("algorithm", "input", "device", "reps", "scale", "faults")


class ResultStore(DurableDir):
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

    prefix = "cell-"
    format = STORE_FORMAT

    def __init__(self, disk_dir, *, reps: int, scale: float,
                 faults=None, retries: int = 0) -> None:
        super().__init__(disk_dir)
        self.reps = int(reps)
        self.scale = float(scale)
        self.policy = fault_policy(faults, retries)
        #: observability counters (also exported as telemetry)
        self.hits = 0
        self.misses = 0
        self.publishes = 0

    def _note(self, event: str, count: int = 1) -> None:
        if event == "degraded":
            reg = get_registry()
            if reg.enabled:
                reg.gauge("repro_fleet_store_degraded",
                          "1 once the shared result store has stopped "
                          "disk I/O", scope=SCOPE_PROCESS).set(1)
        elif event in ("disk_error", "quarantined"):
            _count_event(event)

    # ------------------------------------------------------------------
    def status(self) -> dict:
        return {"dir": str(self.disk_dir), "degraded": self.degraded,
                "hits": self.hits, "misses": self.misses,
                "publishes": self.publishes,
                "quarantined": self.quarantined,
                "disk_errors": self.disk_errors}

    def digest(self, algorithm: str, input_name: str, device: str) -> str:
        """The content address of one cell under this store's policy."""
        identity = repr((STORE_FORMAT, self.reps, self.scale, self.policy,
                         algorithm, input_name, device))
        return hashlib.blake2b(identity.encode("utf-8"),
                               digest_size=16).hexdigest()

    # ------------------------------------------------------------------
    def publish(self, algorithm: str, input_name: str, device: str,
                records: list[dict], graph_fp: str | None = None) -> None:
        """Publish one finished cell's ``result`` records, with the
        fingerprint of its input graph when known.

        Failures are never published: they depend on budgets and
        deadlines, and a deterministic fault plan reaches them again.
        Publish errors degrade the store, never the cell.
        """
        body = {"reps": self.reps, "scale": self.scale,
                "faults": self.policy, "algorithm": algorithm,
                "input": input_name, "device": device, "records": records,
                "graph_fp": graph_fp}
        if self._publish(self.digest(algorithm, input_name, device), body):
            self.publishes += 1
            _count_event("publish")

    def lookup(self, algorithm: str, input_name: str, device: str
               ) -> tuple[list[dict], str | None] | None:
        """The cell's published ``result`` records and input graph
        fingerprint (None in a record that does not carry one), or None.

        A verified record whose records are not the cell's ``result``
        records is quarantined as ``shape``; an identity or policy
        mismatch (a digest collision would be the only path here) is a
        miss.
        """
        cell = (algorithm, input_name, device)
        digest = self.digest(*cell)
        payload = self._read(digest)
        if payload is not None and not _holds_results(payload, cell):
            self._quarantine(self._path(digest), "shape")
            payload = None
        if (payload is None or tuple(payload.get(k) for k in _ADDRESS)
                != (*cell, self.reps, self.scale, self.policy)):
            self.misses += 1
            _count_event("miss")
            return None
        self.hits += 1
        _count_event("hit")
        return payload["records"], payload.get("graph_fp")
