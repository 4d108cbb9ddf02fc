"""Ablation: the cost of stronger-than-relaxed memory orders.

Section IV.B: "These operations use the relaxed memory ordering for
maximum performance.  The relaxed ordering is sufficient since there is
no ordering constraint on these operations in the baseline codes."
And Section I warns that libcu++'s *defaults* (seq_cst) "can lead to
poor performance".

This ablation re-prices the race-free CC and MIS conversions under
acquire/release-style and seq_cst-style orderings and shows what the
paper's relaxed-everywhere choice buys: the MIS win disappears and the
CC penalty deepens as soon as the ordering is stronger than needed.
"""

from __future__ import annotations

from _harness import emit

from repro.core.transform import with_order
from repro.core.variants import Variant, get_algorithm
from repro.gpu.accesses import MemoryOrder
from repro.gpu.device import get_device
from repro.gpu.timing import TimingModel
from repro.graphs.suite import load_suite_graph
from repro.perf.engine import Recorder, algorithm_plan
from repro.utils.stats import geometric_mean
from repro.utils.tables import format_table

INPUTS = ["internet", "amazon0601", "cit-Patents", "rmat16.sym"]
ORDERS = [MemoryOrder.RELAXED, MemoryOrder.ACQ_REL, MemoryOrder.SEQ_CST]


def _speedup(algo_key: str, graph, device, order: MemoryOrder) -> float:
    algo = get_algorithm(algo_key)
    base_plan = algorithm_plan(algo)
    ordered_plan = with_order(base_plan, order)
    times = {}
    for variant, plan in ((Variant.BASELINE, base_plan),
                          (Variant.RACE_FREE, ordered_plan)):
        recorder = Recorder(plan, variant, device, seed=7)
        algo.perf_runner(graph, recorder)
        times[variant] = TimingModel(device).estimate_ms(recorder.stats)
    return times[Variant.BASELINE] / times[Variant.RACE_FREE]


def test_ablation_memory_order(benchmark):
    device = get_device("titanv")
    graphs = [load_suite_graph(n) for n in INPUTS]

    def run():
        rows = []
        for order in ORDERS:
            cc = geometric_mean([_speedup("cc", g, device, order)
                                 for g in graphs])
            mis = geometric_mean([_speedup("mis", g, device, order)
                                  for g in graphs])
            rows.append([order.value, cc, mis])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Ablation: memory order of the race-free conversion",
         format_table(["Order", "CC geomean speedup",
                       "MIS geomean speedup"], rows))

    relaxed, acq_rel, seq_cst = rows
    # stronger orders only ever cost more
    assert relaxed[1] > acq_rel[1] > seq_cst[1]
    assert relaxed[2] > acq_rel[2] > seq_cst[2]
    # relaxed keeps the MIS win; the strongest default forfeits it
    assert relaxed[2] > 1.0
    assert seq_cst[2] < 1.0
