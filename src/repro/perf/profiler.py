"""Per-site profiling — the reproduction of Section VI.A's methodology.

The paper explains its results by *profiling*: "Profiling the two code
versions revealed that the baseline code has a much higher L1 hit rate
for both loads and stores, which explains the performance difference."

:class:`SiteProfile` accumulates, per access site, how many loads,
stores, and RMWs a run issued and what they cost under the device's
timing model; :func:`profile_run` executes one (algorithm, variant)
configuration with site tracking enabled and returns the comparison
table a performance engineer would look at.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

from repro.core.transform import plan_for
from repro.core.variants import AlgorithmInfo, Variant
from repro.gpu.accesses import AccessKind
from repro.gpu.device import DeviceSpec, device_key
from repro.gpu.timing import AccessStats, TimingModel
from repro.perf.engine import Recorder, algorithm_plan
from repro.telemetry.metrics import get_registry
from repro.telemetry.spans import get_spans
from repro.utils.tables import format_table


def _whole(n: float) -> int:
    """An access count as an int; site counts are numbers of accesses,
    so a fractional value is an instrumentation bug, not data."""
    i = int(n)
    if i != n:
        raise ValueError(f"non-integral access count {n!r}")
    return i


@dataclass
class SiteTraffic:
    """Traffic through one access site (whole accesses, so ints)."""

    site: str
    kind: AccessKind
    loads: int = 0
    stores: int = 0
    rmws: int = 0

    @property
    def total(self) -> int:
        return self.loads + self.stores + self.rmws


class ProfilingRecorder(Recorder):
    """A :class:`Recorder` that additionally tallies traffic per site."""

    def __init__(self, plan, variant, device, seed: int = 0) -> None:
        super().__init__(plan, variant, device, seed=seed)
        self.sites: dict[str, SiteTraffic] = {}

    def _traffic(self, name: str) -> SiteTraffic:
        if name not in self.sites:
            self.sites[name] = SiteTraffic(name, self._site(name).kind)
        return self.sites[name]

    def load(self, site, indices=None, count=None) -> None:
        super().load(site, indices, count)
        self._traffic(site).loads += _whole(self._count(indices, count))

    def store(self, site, indices=None, count=None, distinct=None) -> None:
        super().store(site, indices, count, distinct)
        self._traffic(site).stores += _whole(self._count(indices, count))

    def rmw(self, site, indices=None, count=None) -> None:
        super().rmw(site, indices, count)
        self._traffic(site).rmws += _whole(self._count(indices, count))


@dataclass
class RunProfile:
    """Everything the profiler learned about one run."""

    algorithm: str
    variant: Variant
    device: DeviceSpec
    sites: dict[str, SiteTraffic]
    stats: AccessStats
    runtime_ms: float

    @property
    def l1_traffic_share(self) -> float:
        """Fraction of shared-data accesses served by the L1 path
        (plain accesses) — the paper's L1-hit-rate proxy."""
        total = self.stats.total_accesses
        if total == 0:
            return 0.0
        plain = self.stats.plain_loads + self.stats.plain_stores
        return plain / total


def profile_run(algorithm: AlgorithmInfo, graph, device: DeviceSpec,
                variant: Variant, seed: int = 0) -> RunProfile:
    """Run one configuration with per-site tracking.

    When telemetry is enabled the profile is additionally published as
    ``repro_site_accesses_total{algorithm, variant, site, kind, op}``
    (plus L1 hit-rate gauges); return value and tables are unchanged.
    """
    with get_spans().span("perf.profile", algorithm=algorithm.key,
                          variant=variant.value):
        recorder = ProfilingRecorder(algorithm_plan(algorithm), variant,
                                     device, seed=seed)
        algorithm.perf_runner(graph, recorder)
        runtime = TimingModel(device).estimate_ms(recorder.stats)
    profile = RunProfile(algorithm.key, variant, device, recorder.sites,
                         recorder.stats, runtime)
    _publish_profile(profile)
    return profile


def _publish_profile(profile: RunProfile) -> None:
    reg = get_registry()
    if not reg.enabled:
        return
    labels = ("algorithm", "variant", "site", "kind", "op")
    fam = reg.counter("repro_site_accesses_total",
                      "Per-site shared-memory accesses (profiler)", labels)
    for name in sorted(profile.sites):
        t = profile.sites[name]
        base = (profile.algorithm, profile.variant.value, name,
                t.kind.value)
        for op, n in (("load", t.loads), ("store", t.stores),
                      ("rmw", t.rmws)):
            if n:
                fam.inc(n, *base, op)
    cell = ("algorithm", "variant", "device")
    vals = (profile.algorithm, profile.variant.value,
            device_key(profile.device))
    reg.gauge("repro_profile_l1_traffic_share",
              "Fraction of shared-data accesses on the L1 (plain) path",
              cell).set(profile.l1_traffic_share, *vals)
    reg.gauge("repro_profile_runtime_ms",
              "Modelled runtime of the profiled run (ms)", cell
              ).set(profile.runtime_ms, *vals)


def compare_profiles(base: RunProfile, free: RunProfile) -> str:
    """The side-by-side table of Section VI.A's profiling argument."""
    names = sorted(set(base.sites) | set(free.sites))
    rows = []
    for name in names:
        b = base.sites.get(name)
        f = free.sites.get(name)
        rows.append([
            name,
            b.kind.value if b else "-",
            b.total if b else 0.0,
            f.kind.value if f else "-",
            f.total if f else 0.0,
        ])
    rows.append(["(runtime ms)", "", base.runtime_ms, "", free.runtime_ms])
    rows.append(["(L1-path share)", "", base.l1_traffic_share, "",
                 free.l1_traffic_share])
    return format_table(
        ["Site", "Base kind", "Base accesses", "Free kind",
         "Free accesses"],
        rows, float_format="{:.4g}",
    )


def dominant_racy_site(profile: RunProfile) -> str | None:
    """The busiest originally-racy site of a run — where the race-free
    conversion's cost concentrates (e.g. CC's jump reads)."""
    plan = plan_for(algorithm_plan_by_key(profile.algorithm),
                    Variant.BASELINE)
    racy_names = {s.name for s in plan.racy_sites()}
    candidates = [t for n, t in profile.sites.items() if n in racy_names]
    if not candidates:
        return None
    return max(candidates, key=lambda t: t.total).site


def algorithm_plan_by_key(key: str):
    from repro.core.variants import get_algorithm

    return algorithm_plan(get_algorithm(key))
