"""Bug-variant generation by incomplete race removal (the Indigo3 idea).

Indigo3 (Section III) derives tens of thousands of *buggy* code
variants from a handful of graph algorithms by systematically omitting
synchronization, then uses them to evaluate verification tools.  This
module does the same over our access plans: every proper subset of an
algorithm's racy sites yields a partially converted plan — a code
variant whose remaining unprotected sites still race.

The corpus serves two purposes:

* **detector evaluation** — a sound dynamic detector must flag every
  partial variant and stay silent only on the full conversion;
* **migration analysis** — ordering the variants by simulated runtime
  shows what an incremental race-removal effort costs at each step
  (see :func:`migration_path`).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from repro.core.transform import AccessPlan, remove_races_at
from repro.core.variants import Variant, get_algorithm
from repro.errors import StudyError
from repro.gpu.device import DeviceSpec
from repro.gpu.timing import TimingModel
from repro.perf.engine import Recorder, algorithm_plan


@dataclass(frozen=True)
class PlanVariant:
    """One generated variant: which racy sites were converted."""

    algorithm: str
    converted: tuple[str, ...]
    plan: AccessPlan

    @property
    def is_complete(self) -> bool:
        return not self.plan.has_races

    @property
    def label(self) -> str:
        if not self.converted:
            return "baseline"
        if self.is_complete:
            return "race-free"
        return "+" + ",+".join(s.split(".")[-1] for s in self.converted)


def enumerate_variants(plan: AccessPlan,
                       max_variants: int = 64) -> Iterator[PlanVariant]:
    """Yield the baseline, every partial conversion (subset of racy
    sites), and the full conversion — at most ``max_variants`` total,
    smallest subsets first (like Indigo3's single-omission variants)."""
    racy = [s.name for s in plan.racy_sites()]
    if not racy:
        raise StudyError(
            f"plan for {plan.algorithm} has no racy sites to mutate"
        )
    emitted = 0
    for size in range(len(racy) + 1):
        for subset in combinations(racy, size):
            if emitted >= max_variants:
                return
            yield PlanVariant(plan.algorithm, subset,
                              remove_races_at(plan, set(subset)))
            emitted += 1


@dataclass(frozen=True)
class MigrationStep:
    """One point on the incremental-conversion cost curve."""

    variant: PlanVariant
    runtime_ms: float
    remaining_racy_sites: int


def migration_path(algorithm_key: str, graph, device: DeviceSpec,
                   seed: int = 7) -> list[MigrationStep]:
    """The greedy cheapest-next-site conversion order.

    Starting from the baseline, repeatedly converts the single racy
    site whose conversion costs the least runtime, until the code is
    race-free.  The result quantifies where the conversion budget goes
    (for CC: almost entirely into the jump reads).
    """
    algo = get_algorithm(algorithm_key)
    plan = algorithm_plan(algo)
    racy = [s.name for s in plan.racy_sites()]
    if not racy:
        raise StudyError(f"{algorithm_key} has no races to migrate away")

    def runtime(p: AccessPlan) -> float:
        recorder = Recorder(p, Variant.BASELINE, device, seed=seed)
        algo.perf_runner(graph, recorder)
        return TimingModel(device).estimate_ms(recorder.stats)

    converted: list[str] = []
    steps = [MigrationStep(
        PlanVariant(algorithm_key, (), plan), runtime(plan), len(racy))]
    while len(converted) < len(racy):
        candidates = []
        for name in racy:
            if name in converted:
                continue
            trial = remove_races_at(plan, set(converted) | {name})
            candidates.append((runtime(trial), name, trial))
        candidates.sort(key=lambda c: (c[0], c[1]))
        cost, name, trial = candidates[0]
        converted.append(name)
        steps.append(MigrationStep(
            PlanVariant(algorithm_key, tuple(converted), trial),
            cost, len(racy) - len(converted)))
    return steps
