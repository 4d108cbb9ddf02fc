"""Ablation: the MIS visibility mechanism (Section VI.A).

The paper attributes the race-free MIS speedup to faster propagation of
status updates.  This ablation sweeps the fraction of baseline polls
the compiler keeps register-stale: at 0.0 the mechanism is off and the
race-free variant loses its advantage (it pays the atomic extra with no
round savings); the advantage grows with the stale fraction.
"""

from __future__ import annotations

import numpy as np

from _harness import emit

from repro.algorithms import mis
from repro.core.variants import Variant, get_algorithm
from repro.gpu.device import get_device
from repro.perf.engine import Recorder, algorithm_plan
from repro.gpu.timing import TimingModel
from repro.graphs.suite import load_suite_graph
from repro.utils.stats import geometric_mean, median
from repro.utils.tables import format_table

INPUTS = ["internet", "amazon0601", "citationCiteseer", "rmat16.sym"]
FRACTIONS = [0.0, 0.1, 0.2, 0.35, 0.5]
REPS = 3


def _speedup(graph, device, fraction: float) -> float:
    algo = get_algorithm("mis")
    times = {}
    for variant in Variant:
        reps = []
        for rep in range(REPS):
            recorder = Recorder(algorithm_plan(algo), variant, device,
                                seed=1000 * rep + 7)
            mis.run_perf(graph, recorder, stale_fraction=fraction)
            reps.append(TimingModel(device).estimate_ms(recorder.stats))
        times[variant] = median(reps)
    return times[Variant.BASELINE] / times[Variant.RACE_FREE]


def test_ablation_mis_staleness(benchmark):
    device = get_device("titanv")
    graphs = [load_suite_graph(name) for name in INPUTS]

    def run():
        rows = []
        for fraction in FRACTIONS:
            speedups = [_speedup(g, device, fraction) for g in graphs]
            rows.append([fraction, geometric_mean(speedups)])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation: MIS stale-poll fraction",
         format_table(["Stale fraction", "Race-free geomean speedup"],
                      rows))

    geomeans = [r[1] for r in rows]
    # no staleness -> no race-free win; advantage grows with staleness
    assert geomeans[0] < 1.02
    assert geomeans[-1] > geomeans[0]
    assert geomeans[-1] > 1.0
