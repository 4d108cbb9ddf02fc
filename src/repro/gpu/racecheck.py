"""Dynamic data-race detection over the SIMT access-event stream.

This is the reproduction's stand-in for Compute Sanitizer and iGuard
(Section IV): it replays the byte-granular access history of one or more
kernel launches through shadow memory and reports every pair of
conflicting accesses.

Two accesses *conflict* when they:

* touch overlapping bytes of the same array,
* come from different threads,
* include at least one write, and
* are not both atomic.

Two conflicting accesses *race* unless they are ordered by
synchronization.  The happens-before relation matches the simulator's
synchronization vocabulary:

* different kernel launches are ordered (the implicit barrier between
  launches that iGuard reportedly ignores, causing its false positives);
* within a launch, accesses in the same block separated by a
  ``__syncthreads()`` barrier (different epochs) are ordered;
* everything else within a launch is concurrent.

Since the ``repro.check`` subsystem landed, the default analysis is the
FastTrack-style vector-clock engine of :mod:`repro.check.vclock`, which
additionally emits *predictive* reports (``predicted=True``): races that
did not manifest adjacently in this trace but are feasible in a
reordering of it.  The original pairwise shadow scan is kept as
``engine="pairwise"`` for cross-checking; it sees only the races this
execution exhibited, which is why the paper — and our test-suite — also
re-runs under many schedules, and why :mod:`repro.check.explore`
enumerates the reduced schedule space outright.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Iterable

from repro.errors import DataRaceError, ReproError
from repro.gpu.accesses import AccessKind
from repro.gpu.simt import AccessEvent, SimtExecutor


def _site_descriptor(ev: AccessEvent) -> str:
    """Stable per-access source descriptor.

    Prefers the kernel-declared access-plan site label (stable across
    schedules, graph sizes, and runs: it names the algorithm, kernel
    phase, and array role, e.g. ``"cc.label.jump_read"``).  Unlabeled
    accesses fall back to the array name plus byte range — deterministic
    for a fixed input, though not comparable across input sizes.
    """
    where = ev.site or f"{ev.span.array}[{ev.span.start}:{ev.span.end}]"
    direction = "write" if ev.is_write else "read"
    return f"{where}/{ev.access.value}-{direction}"


@dataclass(frozen=True)
class RaceReport:
    """One detected data race: a pair of unordered conflicting accesses.

    ``predicted`` marks races inferred from a feasible reordering of the
    observed trace (vector-clock engine only) rather than from accesses
    the trace placed adjacently.
    """

    array: str
    byte: int
    first: AccessEvent
    second: AccessEvent
    predicted: bool = False

    @property
    def kind(self) -> str:
        """``write-write`` or ``read-write``."""
        if self.first.is_write and self.second.is_write:
            return "write-write"
        return "read-write"

    @property
    def site_key(self) -> tuple:
        """The program-site pair this race occurred between: the two
        access spans plus their access classes and directions.  Distinct
        racy sites on one array produce distinct keys (the granularity
        the paper's Section IV.A per-code counts imply)."""
        return _site_key(self.first, self.second)

    @property
    def source_sites(self) -> tuple[str, str]:
        """The two accesses' stable source descriptors (sorted)."""
        pair = sorted((_site_descriptor(self.first),
                       _site_descriptor(self.second)))
        return (pair[0], pair[1])

    @property
    def site_id(self) -> str:
        """Schedule-stable identifier of the racy *site pair*.

        Unlike :attr:`site_key` (positional byte offsets, used for
        per-run dedupe), this identifier is built from the accesses'
        kernel-declared site labels, so the same source-level race gets
        the same id across schedules, runs, and graph sizes — the key
        the repair localizer clusters obligations by.
        """
        a, b = self.source_sites
        return f"{self.array}:{a}<->{b}"

    @property
    def fixable_sites(self) -> tuple[str, ...]:
        """Kernel-declared plan-site labels of the non-atomic accesses
        in this pair — the sites a per-site promotion fix can target."""
        labels = []
        for ev in (self.first, self.second):
            if ev.site and ev.access is not AccessKind.ATOMIC:
                labels.append(ev.site)
        return tuple(sorted(set(labels)))

    def to_json(self) -> dict:
        """Machine-readable form (``repro check --json`` / the repair
        localizer's input)."""
        def access(ev: AccessEvent) -> dict:
            return {
                "site": ev.site,
                "descriptor": _site_descriptor(ev),
                "tid": ev.tid,
                "block": ev.block,
                "launch": ev.launch,
                "epoch": ev.epoch,
                "span": [ev.span.array, ev.span.start, ev.span.nbytes],
                "access_kind": ev.access.value,
                "direction": "write" if ev.is_write else "read",
            }

        return {
            "array": self.array,
            "byte": self.byte,
            "kind": self.kind,
            "predicted": self.predicted,
            "site_id": self.site_id,
            "fixable_sites": list(self.fixable_sites),
            "accesses": [access(self.first), access(self.second)],
        }

    def describe(self) -> str:
        flavor = "predicted " if self.predicted else ""
        sites = ""
        if self.first.site or self.second.site:
            a, b = self.source_sites
            sites = f" [{a} vs {b}]"
        return (
            f"{flavor}{self.kind} race on {self.array} byte {self.byte}: "
            f"thread {self.first.tid} ({self.first.access.value} "
            f"{'write' if self.first.is_write else 'read'}) vs "
            f"thread {self.second.tid} ({self.second.access.value} "
            f"{'write' if self.second.is_write else 'read'}){sites}"
        )


def _site_key(first: AccessEvent, second: AccessEvent) -> tuple:
    """:attr:`RaceReport.site_key` of a report on ``(first, second)``."""
    a, b = first.span, second.span
    return (a.array, a.start, a.nbytes, b.start, b.nbytes,
            first.is_write, second.is_write, first.access, second.access)


def _ordered(a: AccessEvent, b: AccessEvent) -> bool:
    """True if a happens-before b (or vice versa) under the simulator's
    synchronization model."""
    if a.launch != b.launch:
        return True  # implicit barrier between kernel launches
    if a.block == b.block and a.epoch != b.epoch:
        return True  # __syncthreads() between them
    return False


def _conflict(a: AccessEvent, b: AccessEvent) -> bool:
    if a.tid == b.tid:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.access is AccessKind.ATOMIC and b.access is AccessKind.ATOMIC:
        return False
    return a.span.overlaps(b.span)


class RaceDetector:
    """Shadow-memory race detector.

    Parameters
    ----------
    max_reports:
        Stop after this many distinct reports (full graph workloads can
        produce millions of racy pairs; a handful per location suffices
        to localize the bug, which is how the real tools behave too).
    dedupe_by_location:
        Report at most one race per program-site pair (the two access
        spans plus kinds), mirroring how Compute Sanitizer groups its
        output.
    engine:
        ``"vclock"`` (default) — the FastTrack-style vector-clock engine
        with predictive reports; ``"pairwise"`` — the original shadow
        scan, kept for cross-checking.
    predictive:
        Include ``predicted=True`` reports (vclock engine only).
    memory_model:
        The consistency model supplying atomic happens-before edges
        (vclock engine only; None = the paper's relaxed default, under
        which atomics never synchronize).
    """

    def __init__(self, max_reports: int = 1000,
                 dedupe_by_location: bool = True,
                 engine: str = "vclock",
                 predictive: bool = True,
                 memory_model=None) -> None:
        if engine not in ("vclock", "pairwise"):
            raise ReproError(
                f"unknown race engine {engine!r}; use 'vclock' or "
                "'pairwise'")
        self.max_reports = max_reports
        self.dedupe_by_location = dedupe_by_location
        self.engine = engine
        self.predictive = predictive
        self.memory_model = memory_model

    def analyze(self, events: Iterable[AccessEvent]) -> list[RaceReport]:
        """Replay ``events`` through shadow state and collect races."""
        reports: list[RaceReport] = []
        seen_keys: set[tuple] = set()

        def emit(a: AccessEvent, b: AccessEvent, byte: int,
                 predicted: bool = False) -> bool:
            # the key first: most racy pairs repeat a site already seen
            if self.dedupe_by_location:
                key = _site_key(a, b)
                if key in seen_keys:
                    return len(reports) < self.max_reports
                seen_keys.add(key)
            reports.append(RaceReport(a.span.array, byte, a, b,
                                      predicted=predicted))
            return len(reports) < self.max_reports

        if self.engine == "vclock":
            from repro.check.vclock import VectorClockEngine

            def on_report(first: AccessEvent, second: AccessEvent,
                          byte: int, predicted: bool) -> bool:
                if predicted and not self.predictive:
                    return True
                return emit(first, second, byte, predicted)

            VectorClockEngine(on_report,
                              memory_model=self.memory_model).analyze(events)
        else:
            self._analyze_pairwise(events, emit)
        return reports

    @staticmethod
    def _analyze_pairwise(events: Iterable[AccessEvent], emit) -> None:
        """The original per-schedule shadow scan: last write + readers
        since, per byte.  Forgets displaced accesses, so it reports only
        the races this trace placed adjacently."""
        last_write: dict[tuple[str, int], AccessEvent] = {}
        readers: dict[tuple[str, int], list[AccessEvent]] = defaultdict(list)

        for ev in events:
            for byte in range(ev.span.start, ev.span.end):
                loc = (ev.span.array, byte)
                lw = last_write.get(loc)
                if lw is not None and _conflict(lw, ev) and not _ordered(lw, ev):
                    if not emit(lw, ev, byte):
                        return
                if ev.is_write:
                    for rd in readers[loc]:
                        if _conflict(rd, ev) and not _ordered(rd, ev):
                            if not emit(rd, ev, byte):
                                return
                    readers[loc].clear()
                    last_write[loc] = ev
                if ev.is_read:
                    bucket = readers[loc]
                    if len(bucket) < 64:  # bound shadow growth
                        bucket.append(ev)

    def check(self, executor: SimtExecutor,
              fail_on_race: bool = False) -> list[RaceReport]:
        """Analyze everything an executor has recorded so far."""
        reports = self.analyze(executor.events)
        if fail_on_race and reports:
            raise DataRaceError(
                f"{len(reports)} data race(s) detected; first: "
                f"{reports[0].describe()}"
            )
        return reports


def summarize_races(reports: list[RaceReport]) -> dict[str, dict[str, int]]:
    """Group race reports per array and kind — the per-code summary of
    Section IV.A ("the CC code ... most of these accesses are
    unprotected")."""
    summary: dict[str, dict[str, int]] = defaultdict(
        lambda: {"read-write": 0, "write-write": 0})
    for r in reports:
        summary[r.array][r.kind] += 1
    return {k: dict(v) for k, v in summary.items()}
