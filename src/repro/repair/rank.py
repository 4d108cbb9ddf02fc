"""Stage 5: price accepted fixes across the device zoo and rank them.

Each accepted fix-set becomes a candidate :class:`AccessPlan` (via
:func:`repro.core.transform.with_site_kinds`); the performance level
records one trace per staleness class it consumes on the target's perf
graph and replays it for every requested device — the record/replay
split of :mod:`repro.perf.engine`, so a four-device table costs one
functional execution per candidate, or two when the plan reads the
staleness constant (baseline MIS).

The emitted table is shaped like the paper's Tables IV-VII: per-device
runtime ratios of the fixed code vs the racy baseline and vs the
hand-written race-free variant, ranked by geometric-mean runtime
ascending (best fix first).  Graph-less targets (no perf model) rank
by fix-set size instead and carry no runtime columns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.transform import plan_for, with_site_kinds
from repro.core.variants import Variant, get_algorithm
from repro.gpu.device import DEVICE_ORDER, get_device
from repro.perf.engine import record_trace, replay_trace
from repro.perf.trace import ANY_STALENESS
from repro.repair.verify import CandidateVerdict
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


@dataclass(frozen=True)
class RankedFix:
    """One accepted fix with its cross-device pricing."""

    verdict: CandidateVerdict
    rank: int
    #: device key → candidate runtime (ms); empty for graph-less targets
    runtime_ms: dict[str, float]
    #: device key → candidate / racy-baseline runtime ratio
    vs_baseline: dict[str, float]
    #: device key → candidate / hand-written-race-free runtime ratio
    vs_racefree: dict[str, float]
    geomean_ms: float | None

    @property
    def fixset(self):
        return self.verdict.fixset

    def to_json(self) -> dict:
        return {
            "rank": self.rank,
            "fixset": self.fixset.to_json(),
            "verdict": self.verdict.to_json(),
            "runtime_ms": dict(self.runtime_ms),
            "vs_baseline": dict(self.vs_baseline),
            "vs_racefree": dict(self.vs_racefree),
            "geomean_ms": self.geomean_ms,
        }


def _geomean(values) -> float | None:
    vals = [v for v in values if v > 0]
    if not vals:
        return None
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def _price_plan(algorithm, graph, variant: Variant, seed: int,
                devices, plan=None) -> dict[str, float]:
    """Per-device runtimes of one plan, via record/replay.

    Traces are keyed by the staleness class they consumed, so devices
    sharing a class share one functional execution, and a recording
    keyed ``ANY_STALENESS`` serves every device.
    """
    runtimes: dict[str, float] = {}
    traces: dict[int, object] = {}
    for key in devices:
        device = get_device(key)
        staleness = device.plain_staleness_rounds
        trace = traces.get(ANY_STALENESS, traces.get(staleness))
        if trace is None:
            trace = record_trace(algorithm, graph, variant, seed, staleness,
                                 plan=plan)
            traces[trace.staleness_rounds] = trace
        runtimes[key] = replay_trace(trace, device, seed)
    return runtimes


def rank_fixes(target, accepted: list[CandidateVerdict],
               devices: tuple[str, ...] = DEVICE_ORDER,
               seed: int = 0) -> list[RankedFix]:
    """Price every accepted candidate and return them ranked."""
    if not accepted:
        return []

    reg = get_registry()

    if target.algorithm_key is None:
        # no perf model: smaller fix-sets first (a barrier beats a
        # full atomic conversion when both verify)
        ordered = sorted(accepted, key=lambda v: v.fixset.size)
        return [RankedFix(verdict=v, rank=i + 1, runtime_ms={},
                          vs_baseline={}, vs_racefree={}, geomean_ms=None)
                for i, v in enumerate(ordered)]

    algorithm = get_algorithm(target.algorithm_key)
    graph = target.perf_graph
    base_ms = _price_plan(algorithm, graph, Variant.BASELINE, seed,
                          devices, plan=target.plan)
    racefree_ms = _price_plan(algorithm, graph, Variant.RACE_FREE, seed,
                              devices,
                              plan=plan_for(target.plan,
                                            Variant.RACE_FREE))

    priced = []
    for verdict in accepted:
        fixset = verdict.fixset
        cand_plan = with_site_kinds(target.plan, fixset.kinds(),
                                    fixset.orders())
        cand_ms = _price_plan(algorithm, graph, Variant.BASELINE, seed,
                              devices, plan=cand_plan)
        if reg.enabled:
            fam = reg.counter("repro_repair_pricings_total",
                              "Candidate pricings, by device",
                              ("target", "device"), scope=SCOPE_PROCESS)
            for key in devices:
                fam.inc(1, target.name, key)
        priced.append((verdict, cand_ms))

    ranked = sorted(priced,
                    key=lambda pair: (_geomean(pair[1].values()) or 0.0,
                                      pair[0].fixset.size))
    out = []
    for i, (verdict, cand_ms) in enumerate(ranked):
        out.append(RankedFix(
            verdict=verdict, rank=i + 1, runtime_ms=cand_ms,
            vs_baseline={k: cand_ms[k] / base_ms[k] for k in cand_ms},
            vs_racefree={k: cand_ms[k] / racefree_ms[k]
                         for k in cand_ms},
            geomean_ms=_geomean(cand_ms.values())))
    return out


def format_table(target, ranked: list[RankedFix],
                 devices: tuple[str, ...] = DEVICE_ORDER) -> str:
    """Render the ranked fix table (paper Tables IV-VII shape)."""
    if not ranked:
        return f"{target.name}: no accepted fixes"
    lines = [
        f"ranked fixes for {target.name} "
        f"(runtime ratios: fixed/racy, fixed/race-free)",
    ]
    width = max(24, max(len(r.fixset.describe()) for r in ranked) + 2)
    if ranked[0].runtime_ms:
        header = (f"{'#':>2}  {'fix':<{width}}"
                  + "".join(f"{d:>22}" for d in devices)
                  + f"{'geomean ms':>14}")
        lines.append(header)
        for row in ranked:
            cells = "".join(
                f"{row.vs_baseline[d]:>10.3f}/{row.vs_racefree[d]:<11.3f}"
                for d in devices)
            lines.append(
                f"{row.rank:>2}  {row.fixset.describe():<{width}}{cells}"
                f"{row.geomean_ms:>14.5f}")
    else:
        lines.append(f"{'#':>2}  {'fix':<{width}}{'size':>6}")
        for row in ranked:
            lines.append(f"{row.rank:>2}  "
                         f"{row.fixset.describe():<{width}}"
                         f"{row.fixset.size:>6}")
    return "\n".join(lines)
