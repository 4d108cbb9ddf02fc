"""Ablation: MST's implicit path compression (Section VI.A).

"The impact on MST is significantly lower due to its use of implicit
path compression, which reduces the number of these accesses."

Two measurements:

1. **Real ECL-MST** (volatile baseline): disabling compression grows
   the racy (converted) access count.  Because volatile and atomic
   loads are both L2 operations, the *ratio* barely moves — the
   conversion is cheap per access, and compression's contribution is
   bounding how many of them there are.
2. **Counterfactual plain-baseline MST** (what MST would look like if,
   like CC, its baseline used non-volatile accesses): every converted
   load now goes from an L1 hit to an L2 atomic and the slowdown
   deepens markedly — the CC-vs-MST contrast of Section VI.A reproduced
   inside one algorithm.

A negative finding worth recording: in this simulator, disabling
compression grows the racy-access count by ~25-30 % but moves the
speedup by under 2 % in either regime, because Boruvka's
hook-larger-root-under-smaller ordering already bounds path lengths.
The decisive factor for MST's mild slowdown is its volatile baseline;
compression's contribution is secondary.
"""

from __future__ import annotations

import dataclasses

from _harness import emit

from repro.algorithms import mst
from repro.core.transform import AccessPlan
from repro.core.variants import Variant
from repro.gpu.accesses import AccessKind
from repro.gpu.device import get_device
from repro.gpu.timing import TimingModel
from repro.graphs.suite import load_suite_graph
from repro.perf.engine import Recorder
from repro.utils.stats import geometric_mean
from repro.utils.tables import format_table

INPUTS = ["internet", "amazon0601", "citationCiteseer", "USA-road-d.NY"]


def _plain_baseline_plan() -> AccessPlan:
    """ECL-MST's plan with a CC-style non-volatile baseline."""
    sites = tuple(
        dataclasses.replace(s, kind=AccessKind.PLAIN)
        if s.kind is AccessKind.VOLATILE else s
        for s in mst.ACCESS_PLAN.sites
    )
    return AccessPlan("mst-plain", sites)


def _measure(graph, device, plan, compression: bool):
    out = {}
    for variant in Variant:
        recorder = Recorder(plan, variant, device, seed=7)
        mst.run_perf(graph, recorder, path_compression=compression)
        out[variant] = (TimingModel(device).estimate_ms(recorder.stats),
                        recorder.stats.atomic_loads)
    speedup = out[Variant.BASELINE][0] / out[Variant.RACE_FREE][0]
    return speedup, out[Variant.RACE_FREE][1]


def test_ablation_mst_path_compression(benchmark):
    device = get_device("titanv")
    graphs = [load_suite_graph(n).with_random_weights(seed=12345)
              for n in INPUTS]
    plans = {
        "volatile (real ECL-MST)": mst.ACCESS_PLAN,
        "plain (CC-style counterfactual)": _plain_baseline_plan(),
    }

    def run():
        rows = []
        for label, plan in plans.items():
            for compression in (True, False):
                speedups, loads = [], []
                for g in graphs:
                    s, l = _measure(g, device, plan, compression)
                    speedups.append(s)
                    loads.append(l)
                rows.append([label, "on" if compression else "off",
                             geometric_mean(speedups), sum(loads)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation: MST path compression",
         format_table(["Baseline kind", "Compression",
                       "Race-free geomean speedup", "Converted loads"],
                      rows))

    vol_on, vol_off, plain_on, plain_off = rows
    # compression bounds the racy-access count in both regimes
    assert vol_off[3] > 1.15 * vol_on[3]
    assert plain_off[3] > 1.15 * plain_on[3]
    # the runtime effect of compression alone is small in both regimes
    assert abs(vol_off[2] - vol_on[2]) < 0.05
    assert abs(plain_off[2] - plain_on[2]) < 0.05
    # the decisive factor is the baseline access kind (CC-vs-MST
    # contrast): the plain regime is much worse than the volatile one
    assert plain_on[2] < vol_on[2] - 0.1
