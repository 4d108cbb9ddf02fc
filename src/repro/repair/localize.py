"""Stage 1: localize races into per-site repair obligations.

Runs the target's baseline program under a handful of schedulers
(round-robin plus seeded random interleavings), feeds every recorded
access stream through the vector-clock engine of
:mod:`repro.check.vclock` (predicted races included), and clusters the
resulting :class:`~repro.gpu.racecheck.RaceReport` objects by their
schedule-stable :attr:`~repro.gpu.racecheck.RaceReport.site_id` — one
:class:`SiteObligation` per racy source-site pair, the unit the
synthesizer generates fixes for.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import DeadlockError, TransientKernelFault
from repro.gpu.interleave import RandomScheduler, RoundRobinScheduler
from repro.gpu.memory import GlobalMemory
from repro.gpu.racecheck import RaceDetector, RaceReport
from repro.gpu.simt import SimtExecutor
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


@dataclass(frozen=True)
class SiteObligation:
    """One racy source-site pair the repair pipeline must discharge.

    ``sites`` are the kernel-declared plan-site labels of the
    *non-atomic* accesses in the pair — the labels a promotion fix can
    target.  ``predicted_only`` marks obligations seen exclusively as
    predictive (reordering-feasible) reports; they are repaired all the
    same, since a feasible race is a race (Section IV's position).
    """

    obligation_id: str
    array: str
    sites: tuple[str, ...]
    kinds: tuple[str, ...]            #: race kinds seen (read-write, ...)
    predicted_only: bool
    occurrences: int                  #: distinct reports clustered here
    example: str                      #: one human-readable describe()

    def to_json(self) -> dict:
        return {
            "obligation_id": self.obligation_id,
            "array": self.array,
            "sites": list(self.sites),
            "kinds": list(self.kinds),
            "predicted_only": self.predicted_only,
            "occurrences": self.occurrences,
            "example": self.example,
        }


def _count(target: str, n: int) -> None:
    reg = get_registry()
    if reg.enabled and n:
        reg.counter("repro_repair_obligations_total",
                    "Repair obligations produced by localization",
                    ("target",), scope=SCOPE_PROCESS).inc(n, target)


def collect_reports(target, seeds: tuple[int, ...] = (0, 1, 2),
                    max_reports: int = 400):
    """Run the baseline program under several schedules and analyze
    each run's access events with the vector-clock engine.

    Returns ``(reports, events)``: the deduplicated race reports and
    the concatenated access-event streams of every run (the
    pre-filter's dynamic input).
    """
    program = target.build_program(frozenset(),
                                   graph=target.localize_graph)
    schedulers = [RoundRobinScheduler()]
    schedulers += [RandomScheduler(seed=s) for s in seeds]
    detector = RaceDetector(max_reports=max_reports)
    reports: list[RaceReport] = []
    events = []
    seen: set[tuple] = set()
    for scheduler in schedulers:
        mem = GlobalMemory()
        handles = program.setup(mem)
        executor = SimtExecutor(mem, scheduler=scheduler,
                                record_events=True)
        try:
            program.execute(executor, handles)
        except (DeadlockError, TransientKernelFault):
            pass  # the partial event stream still localizes
        for report in detector.analyze(executor.events):
            key = (report.site_id, report.kind)
            if key not in seen:
                seen.add(key)
                reports.append(report)
        events.extend(executor.events)
    return reports, events


def cluster_obligations(reports: list[RaceReport]) -> list[SiteObligation]:
    """Cluster race reports by stable site id into obligations."""
    by_id: dict[str, list[RaceReport]] = {}
    for report in reports:
        by_id.setdefault(report.site_id, []).append(report)
    obligations = []
    for site_id in sorted(by_id):
        group = by_id[site_id]
        sites: set[str] = set()
        for r in group:
            sites.update(r.fixable_sites)
        obligations.append(SiteObligation(
            obligation_id=site_id,
            array=group[0].array,
            sites=tuple(sorted(sites)),
            kinds=tuple(sorted({r.kind for r in group})),
            predicted_only=all(r.predicted for r in group),
            occurrences=len(group),
            example=group[0].describe(),
        ))
    return obligations


def localize(target, seeds: tuple[int, ...] = (0, 1, 2)):
    """The full localization stage: runs, detection, clustering.

    Returns ``(obligations, events)``; the events feed the dynamic
    half of :func:`repro.repair.prefilter.prefilter`.
    """
    reports, events = collect_reports(target, seeds)
    obligations = cluster_obligations(reports)
    _count(target.name, len(obligations))
    return obligations, events
