"""repro.service — the sweep engine as a long-lived async job server.

The ROADMAP's "Sweep-as-a-service" layer: a stdlib-only asyncio HTTP/
JSON server (``repro serve``) that accepts study requests (algorithm ×
input × device cells), coalesces identical in-flight cells across
clients, serves hot cells straight from the study memo and
:class:`~repro.perf.trace.TraceCache`, runs every other cell on
``--workers N`` (default 1) supervised worker processes
(:class:`~repro.service.fleet.FleetExecutor` over the
:class:`~repro.core.fleet.Fleet` an offline ``--jobs`` sweep runs on),
and streams per-cell results as NDJSON while the robustness ladder
keeps it correct under load:

1. **admission control** — a bounded cell queue with per-tenant quotas
   (:mod:`repro.service.quota`); overload is an explicit 429 with
   ``Retry-After``, never unbounded memory;
2. **deadline propagation** — client deadlines flow into
   :class:`~repro.core.resilience.CellBudget` watchdogs, and cells
   every subscriber has abandoned are cancelled, not computed
   (:mod:`repro.service.scheduler`);
3. **per-cell circuit breakers** — repeatedly failing cells stop
   burning workers and return their degraded ``FAIL(reason)``
   record instantly (:mod:`repro.service.breaker`);
4. **graceful degradation** — a saturated executor, a worker's
   sticky-degraded trace cache or a fleet that spent its respawn budget
   serves cached results marked ``stale: true`` instead of erroring;
5. **graceful drain** — SIGTERM stops admissions, finishes or
   abandons in-flight cells (every finished one is already in the
   ``--store``), and exits cleanly, with ``/healthz``
   and ``/readyz`` backed by :mod:`repro.telemetry` gauges.

See ``docs/service.md`` for the API and tuning knobs, and
``tools/validate_service.py`` for the CI smoke drill.
"""

from __future__ import annotations

from repro.service.breaker import BreakerState, CircuitBreaker
from repro.service.fleet import FleetExecutor
from repro.service.protocol import CellKey, StudyRequest, parse_study_request
from repro.service.quota import Admission, AdmissionController
from repro.service.scheduler import CellScheduler
from repro.service.server import ServiceConfig, SweepService

__all__ = [
    "Admission",
    "AdmissionController",
    "BreakerState",
    "CellKey",
    "CellScheduler",
    "CircuitBreaker",
    "FleetExecutor",
    "ServiceConfig",
    "StudyRequest",
    "SweepService",
    "parse_study_request",
]
