"""The pairwise shadow scan: the reference the race engine must cover.

Before the vector-clock engine (:mod:`repro.check.vclock`) was the only
race analysis, :class:`repro.gpu.racecheck.RaceDetector` could also run
this scan.  Per byte it keeps the last write and the readers since, and
forgets every access a later write displaces, so it reports only the
racy pairs a trace placed adjacently.  Its happens-before relation is
the simulator's launch and barrier order alone (no atomic edges), the
relation of the paper's relaxed default.  On every trace, then, the
engine under that default must report at least the racy pairs the scan
does; ``tests/test_vclock.py`` and ``tests/test_mutator.py`` check it.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterable

from repro.gpu.accesses import AccessKind
from repro.gpu.simt import AccessEvent

#: readers kept per byte between two writes
READERS_PER_BYTE = 64


def ordered(a: AccessEvent, b: AccessEvent) -> bool:
    """True if a happens-before b (or vice versa) under the simulator's
    launch and barrier synchronization."""
    if a.launch != b.launch:
        return True  # implicit barrier between kernel launches
    if a.block == b.block and a.epoch != b.epoch:
        return True  # __syncthreads() between them
    return False


def conflict(a: AccessEvent, b: AccessEvent) -> bool:
    """Different threads, at least one write, not both atomic, and
    overlapping bytes."""
    if a.tid == b.tid:
        return False
    if not (a.is_write or b.is_write):
        return False
    if a.access is AccessKind.ATOMIC and b.access is AccessKind.ATOMIC:
        return False
    return a.span.overlaps(b.span)


def pairwise_reports(events: Iterable[AccessEvent]
                     ) -> list[tuple[AccessEvent, AccessEvent, int]]:
    """Every ``(earlier, later, byte)`` racy pair the scan finds, in
    trace order, neither deduplicated nor capped."""
    last_write: dict[tuple[str, int], AccessEvent] = {}
    readers: dict[tuple[str, int], list[AccessEvent]] = defaultdict(list)
    found = []
    for ev in events:
        for byte in range(ev.span.start, ev.span.end):
            loc = (ev.span.array, byte)
            lw = last_write.get(loc)
            if lw is not None and conflict(lw, ev) and not ordered(lw, ev):
                found.append((lw, ev, byte))
            if ev.is_write:
                for rd in readers[loc]:
                    if conflict(rd, ev) and not ordered(rd, ev):
                        found.append((rd, ev, byte))
                readers[loc].clear()
                last_write[loc] = ev
            if ev.is_read:
                bucket = readers[loc]
                if len(bucket) < READERS_PER_BYTE:
                    bucket.append(ev)
    return found


def racy_pairs(found: Iterable[tuple]) -> set[tuple]:
    """``(first tid, second tid, byte, both writes)`` of each pair in
    ``found`` — ``(first, second, byte, ...)`` tuples, as
    :func:`pairwise_reports` returns them and the engine's
    ``on_report`` receives them."""
    return {(first.tid, second.tid, byte,
             first.is_write and second.is_write)
            for first, second, byte, *_ in found}
