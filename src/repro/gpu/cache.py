"""Cache models.

Two levels of fidelity:

* :class:`CacheSim` — a real set-associative LRU cache simulator, driven
  per access.  No execution level drives it yet; only tests do.
* :class:`AnalyticCache` — a closed-form hit-rate estimator used by the
  performance level, where driving millions of accesses one by one
  through Python would be prohibitive.  It estimates the probability
  that a re-referenced line is still resident from the ratio of the
  cache capacity to the access footprint — the first-order effect that
  Section VI.A's profiling discussion relies on ("the baseline code has
  a much higher L1 hit rate for both loads and stores").

Atomics never allocate in L1 (they are performed at the L2 slice on all
modelled architectures), which is precisely why converting CC's plain
pointer-jumping loads into atomics destroys its L1 hit rate.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field

from repro.errors import DeviceError
from repro.gpu.accesses import MemSpan
from repro.telemetry.metrics import get_registry


@dataclass
class CacheStats:
    """Hit/miss counters of one cache instance."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if self.accesses == 0:
            return 0.0
        return self.hits / self.accesses


class CacheSim:
    """Set-associative LRU cache over (array, line) tags.

    Addresses are byte spans; a span touching multiple lines counts one
    access per line (CUDA sector behaviour simplified to whole lines).
    """

    def __init__(self, capacity_bytes: int, ways: int = 4,
                 line_bytes: int = 128) -> None:
        if capacity_bytes <= 0 or ways <= 0 or line_bytes <= 0:
            raise DeviceError("cache dimensions must be positive")
        n_lines = max(ways, capacity_bytes // line_bytes)
        self.sets = max(1, n_lines // ways)
        self.ways = ways
        self.line_bytes = line_bytes
        self._sets: list[OrderedDict] = [OrderedDict() for _ in range(self.sets)]
        self.stats = CacheStats()
        #: counter values as of the last :meth:`publish`
        self._published: dict[str, int] = {}

    def _lines_of(self, span: MemSpan) -> list[tuple[str, int]]:
        first = span.start // self.line_bytes
        last = (span.end - 1) // self.line_bytes
        return [(span.array, line) for line in range(first, last + 1)]

    def access(self, span: MemSpan) -> int:
        """Touch all lines of ``span``; returns how many hit."""
        hits = 0
        for tag in self._lines_of(span):
            s = self._sets[hash(tag) % self.sets]
            if tag in s:
                s.move_to_end(tag)
                self.stats.hits += 1
                hits += 1
            else:
                self.stats.misses += 1
                s[tag] = True
                if len(s) > self.ways:
                    s.popitem(last=False)
                    self.stats.evictions += 1
        return hits

    def contains(self, span: MemSpan) -> bool:
        """Non-mutating residency check (all lines resident)."""
        return all(
            tag in self._sets[hash(tag) % self.sets]
            for tag in self._lines_of(span)
        )

    def flush(self) -> None:
        for s in self._sets:
            s.clear()

    def publish(self, cache: str = "l1") -> None:
        """Emit this simulator's counters into the telemetry registry.

        Publishes the *delta* since the previous publish, so callers can
        publish per launch (or per run) without double counting.  A
        no-op while telemetry is disabled.
        """
        reg = get_registry()
        if not reg.enabled:
            return
        events = reg.counter(
            "repro_cachesim_events_total",
            "Set-associative cache simulator events",
            ("cache", "event"))
        rate = reg.gauge(
            "repro_cachesim_hit_rate",
            "Cumulative hit rate of one cache simulator instance",
            ("cache",))
        for event, total in (("hit", self.stats.hits),
                             ("miss", self.stats.misses),
                             ("eviction", self.stats.evictions)):
            delta = total - self._published.get(event, 0)
            if delta:
                events.inc(delta, cache, event)
            self._published[event] = total
        rate.set(self.stats.hit_rate, cache)


@dataclass
class AnalyticCache:
    """Closed-form hit-rate estimate for the performance level.

    ``hit_rate(footprint, accesses)``: a stream of ``accesses`` touches
    ``footprint`` bytes of distinct data.  Every first touch of a line
    is a compulsory miss; a re-reference hits with probability equal to
    the fraction of the footprint that fits in the cache (fully resident
    footprint => all re-references hit).
    """

    capacity_bytes: int
    line_bytes: int = 128

    def hit_rate(self, footprint_bytes: float, accesses: float) -> float:
        if accesses <= 0 or footprint_bytes <= 0:
            return 0.0
        lines = max(1.0, footprint_bytes / self.line_bytes)
        compulsory = min(1.0, lines / accesses)
        residency = min(1.0, self.capacity_bytes / footprint_bytes)
        return (1.0 - compulsory) * residency


@dataclass
class CacheHierarchy:
    """L1 (per SM, aggregated) + shared L2 built from a device spec."""

    l1: AnalyticCache
    l2: AnalyticCache

    @classmethod
    def for_device(cls, device) -> "CacheHierarchy":
        # irregular kernels spread their footprint over all SMs, so the
        # effective L1 capacity is the aggregate across SMs
        return cls(
            l1=AnalyticCache(device.l1_bytes * device.sms,
                             device.cache_line_bytes),
            l2=AnalyticCache(device.l2_bytes, device.cache_line_bytes),
        )
