"""Pricing the race-free conversions under the memory-model zoo.

Section IV.B picks relaxed atomics because the baselines impose no
ordering; Section I warns that seq_cst-style defaults "can lead to
poor performance".  The memory-model zoo makes that comparison a
first-class experiment: the same race-free plan is re-priced under
each consistency model's order floor (``MemoryModel.apply_to_plan``),
exactly what ``repro run --memory-model`` does.

The paper's relaxed GPU model keeps the published speedups by
construction (its floor is relaxed, an identity transform).  PTX
acq_rel and SC flooring only ever weaken them.
"""

from __future__ import annotations

from _harness import emit

from repro.core.variants import Variant, get_algorithm
from repro.gpu.device import get_device
from repro.gpu.timing import TimingModel
from repro.graphs.suite import load_suite_graph
from repro.memmodel import get_model
from repro.perf.engine import Recorder, algorithm_plan
from repro.utils.stats import geometric_mean
from repro.utils.tables import format_table

INPUTS = ["internet", "amazon0601", "cit-Patents", "rmat16.sym"]
MODELS = ["relaxed_gpu", "ptx:acq_rel", "sc"]


def _speedup(algo_key: str, graph, device, model) -> float:
    algo = get_algorithm(algo_key)
    base_plan = algorithm_plan(algo)
    priced_plan = model.apply_to_plan(base_plan)
    times = {}
    for variant, plan in ((Variant.BASELINE, base_plan),
                          (Variant.RACE_FREE, priced_plan)):
        recorder = Recorder(plan, variant, device, seed=7)
        algo.perf_runner(graph, recorder)
        times[variant] = TimingModel(device).estimate_ms(recorder.stats)
    return times[Variant.BASELINE] / times[Variant.RACE_FREE]


def test_memmodel_pricing(benchmark):
    device = get_device("titanv")
    graphs = [load_suite_graph(n) for n in INPUTS]

    def run():
        rows = []
        for spec in MODELS:
            model = get_model(spec)
            cc = geometric_mean([_speedup("cc", g, device, model)
                                 for g in graphs])
            mis = geometric_mean([_speedup("mis", g, device, model)
                                  for g in graphs])
            rows.append([model.key, cc, mis])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit("Race-free speedup under each consistency model",
         format_table(["Model", "CC geomean speedup",
                       "MIS geomean speedup"], rows))

    relaxed, acq_rel, sc = rows
    # the paper's model keeps the win; stronger floors only cost more
    assert relaxed[1] > acq_rel[1] >= sc[1]
    assert relaxed[2] > acq_rel[2] >= sc[2]
    assert relaxed[2] > 1.0
    assert sc[2] < 1.0
