"""repro — reproduction of "Performance Impact of Removing Data Races
from GPU Graph Analytics Programs" (IISWC 2024).

Public API tour
---------------

Graphs::

    from repro.graphs import CSRGraph, generators, load_suite_graph

Simulated GPU substrate::

    from repro.gpu import GlobalMemory, SimtExecutor, RaceDetector
    from repro.gpu.device import PAPER_GPUS

Algorithms (each with baseline and race-free variants)::

    from repro.algorithms import cc, gc, mis, mst, scc, apsp

The study (Section V methodology)::

    from repro import Study, Variant
    study = Study(reps=9)
    cell = study.speedup("mis", "amazon0601", "titanv")
    print(cell.speedup)   # > 1 means the race-free code is faster

Sweeps that survive failures (fault injection, isolation, a
checkpoint store a rerun resumes from) — the same study::

    from repro.gpu import FaultPlan
    study = Study(reps=9, retries=2, checkpoint="sweep-store",
                  faults=FaultPlan.parse("tear=0.3,abort=0.1"))
    result = study.sweep("titanv", ["cc", "mis"], ["internet"])

Host-fault chaos (see docs/robustness.md, "Host faults")::

    from repro import HostFaultPlan
    from repro.core import hostfaults
    plan = HostFaultPlan.parse("kill=1.0,torn=0.4",
                               targets=("trace-*.json",),
                               disrupt_generations=1)
    with hostfaults.installed(plan):
        Study(reps=3, checkpoint="sweep-store").sweep(
            "titanv", ["cc", "mis"], ["internet"], jobs=4)

Telemetry (off by default; see docs/observability.md)::

    from repro import telemetry
    with telemetry.session() as (registry, spans):
        Study(reps=3).speedup("cc", "internet", "titanv")
        print(telemetry.export.to_console(registry))
"""

from repro.core.resilience import (
    CellBudget,
    CellFailure,
    SweepResult,
)
from repro.core.hostfaults import HostFaultKind, HostFaultPlan
from repro.core.study import RunResult, SpeedupCell, Study
from repro.core.transform import AccessPlan, AccessSite, remove_races
from repro.core.variants import Variant, get_algorithm, list_algorithms
from repro.errors import ReproError
from repro.gpu.faults import FaultPlan
from repro.perf.trace import TraceCache
from repro import telemetry

__version__ = "1.0.0"

__all__ = [
    "Study",
    "CellBudget",
    "CellFailure",
    "SweepResult",
    "FaultPlan",
    "HostFaultKind",
    "HostFaultPlan",
    "TraceCache",
    "RunResult",
    "SpeedupCell",
    "Variant",
    "AccessPlan",
    "AccessSite",
    "remove_races",
    "get_algorithm",
    "list_algorithms",
    "ReproError",
    "telemetry",
    "__version__",
]
