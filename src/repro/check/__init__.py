"""Systematic concurrency checking for the SIMT simulator.

The ``repro.check`` subsystem turns the stress-testing story of the
reproduction ("run under many adversarial seeds and hope") into a
systematic one:

* :mod:`repro.check.explore` — bounded schedule-space enumeration with
  dynamic partial-order reduction, sleep sets, and preemption bounding;
* :mod:`repro.check.vclock` — FastTrack-style vector-clock
  happens-before engine with predictive race reports (the one race
  analysis, behind :class:`repro.gpu.racecheck.RaceDetector`);
* :mod:`repro.check.replay` — decision-log recording, bit-deterministic
  replay, and delta-debugging schedule minimization;
* :mod:`repro.check.harness` — the :func:`~repro.check.harness.check`
  property-check front door tying the above together.
"""

from repro.check.explore import (
    BUDGETS,
    ExploreBudget,
    ExploreResult,
    RunOutcome,
    ScheduleExplorer,
)
from repro.check.harness import (
    CheckReport,
    Program,
    ScheduleFailure,
    check,
    program_from_pattern,
    replay_failure,
)
from repro.check.replay import (
    DecisionLog,
    DeviationScheduler,
    MinimizeResult,
    RecordingScheduler,
    ReplayScheduler,
    deviations_of,
    minimize_deviations,
    stay_policy,
)
from repro.check.vclock import VectorClock, VectorClockEngine

__all__ = [
    "BUDGETS",
    "ExploreBudget",
    "ExploreResult",
    "RunOutcome",
    "ScheduleExplorer",
    "CheckReport",
    "Program",
    "ScheduleFailure",
    "check",
    "program_from_pattern",
    "replay_failure",
    "DecisionLog",
    "DeviationScheduler",
    "MinimizeResult",
    "RecordingScheduler",
    "ReplayScheduler",
    "deviations_of",
    "minimize_deviations",
    "stay_policy",
    "VectorClock",
    "VectorClockEngine",
]
