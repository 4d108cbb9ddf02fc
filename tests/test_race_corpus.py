"""Corpus regression: the racy variants race, the race-free ones don't.

The paper's premise is that each baseline kernel (CC, MIS, GC, SCC)
contains real data races and each Section IV.B rewrite removes them.
This suite pins that premise with the vector-clock engine: every racy
variant must produce at least one race report on a small graph, and
every race-free variant must produce none under the same schedules.
"""

import pytest

from repro.core.variants import Variant
from repro.errors import DeadlockError, TransientKernelFault
from repro.gpu.interleave import RandomScheduler, RoundRobinScheduler
from repro.gpu.memory import GlobalMemory
from repro.gpu.racecheck import RaceDetector
from repro.gpu.simt import SimtExecutor
from repro.graphs import generators as gen


def _cc_graph():
    return gen.random_uniform(24, 3.0, seed=7)


def _mis_graph():
    return gen.random_uniform(24, 3.0, seed=11)


def _gc_graph():
    return gen.random_uniform(24, 3.0, seed=13)


def _scc_graph():
    return gen.directed_powerlaw(24, 2.5, seed=17)


def _run(algorithm, graph, variant, scheduler):
    """One instrumented run; returns the event stream (maybe partial)."""
    mem = GlobalMemory()
    executor = SimtExecutor(mem, scheduler=scheduler, record_events=True)
    try:
        algorithm(graph, variant, executor=executor)
    except (DeadlockError, TransientKernelFault):
        pass  # a truncated run still yields an analyzable prefix
    return executor.events


def _race_reports(algorithm, graph, variant):
    """Union of vclock reports over a deterministic schedule set."""
    detector = RaceDetector()
    reports = []
    for scheduler in (RoundRobinScheduler(), RandomScheduler(seed=0),
                      RandomScheduler(seed=1)):
        reports.extend(detector.analyze(
            _run(algorithm, graph, variant, scheduler)))
    return reports


CORPUS = []


def _register(key, module_name, graph_factory):
    import importlib

    module = importlib.import_module(f"repro.algorithms.{module_name}")
    CORPUS.append(pytest.param(module.run_simt, graph_factory,
                               id=key))


_register("cc", "cc", _cc_graph)
_register("mis", "mis", _mis_graph)
_register("gc", "gc", _gc_graph)
_register("scc", "scc", _scc_graph)


@pytest.mark.parametrize("algorithm,graph_factory", CORPUS)
def test_racy_variant_reports_at_least_one_race(algorithm,
                                                graph_factory):
    reports = _race_reports(algorithm, graph_factory(), Variant.BASELINE)
    assert len(reports) >= 1


@pytest.mark.parametrize("algorithm,graph_factory", CORPUS)
def test_racefree_variant_reports_no_race(algorithm, graph_factory):
    reports = _race_reports(algorithm, graph_factory(),
                            Variant.RACE_FREE)
    assert reports == []


def test_racy_reports_carry_stable_site_ids():
    from repro.algorithms import cc

    reports = _race_reports(cc.run_simt, _cc_graph(), Variant.BASELINE)
    assert all(r.site_id for r in reports)
    labeled = [r for r in reports if "cc.label" in r.site_id]
    assert labeled, "labeled kernel sites must appear in site ids"
