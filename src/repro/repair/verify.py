"""Stage 4: verify candidate fixes through the DPOR explorer.

A candidate is *accepted* only when, with its fix-set applied:

1. the sleep-set DPOR exploration of the target's verify program finds
   **no** race (actual or predicted) and no invariant violation in any
   explored schedule, within the named budget;
2. a deterministic round-robin execution **completes** (the explorer
   tolerates deadlocked/truncated runs as mere truncations, so an
   always-hanging "fix" could otherwise slip through) and satisfies
   the invariant;
3. for canonical-output targets, that execution's output equals the
   hand-written race-free variant's — output equivalence, not just
   validity.

:func:`shrink_fixset` then greedily removes fixes one at a time while
the set stays accepted, yielding a minimal repair (each removal costs
one verification, so synthesis can start from a generous set).  A trial
only needs to know whether it is accepted, and acceptance needs every
schedule clean, so a trial's exploration stops at its first failing
schedule; a candidate's own exploration runs to its budget, because its
schedule count and stop reason are reported.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.check.harness import check
from repro.errors import DeadlockError, ReproError, TransientKernelFault
from repro.gpu.interleave import RoundRobinScheduler
from repro.gpu.memory import GlobalMemory
from repro.gpu.overrides import site_kind_overrides
from repro.gpu.simt import SimtExecutor
from repro.repair.synth import FixSet
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


@dataclass(frozen=True)
class CandidateVerdict:
    """Everything verification established about one candidate."""

    fixset: FixSet
    race_free: bool                   #: DPOR exploration found nothing
    completes: bool                   #: deterministic run finished
    invariant_ok: bool
    output_equivalent: bool
    schedules_explored: int
    detail: str = ""
    #: how the exploration ended (:attr:`ExploreResult.stop_reason`);
    #: empty when the candidate could not be explored at all
    stop_reason: str = ""

    @property
    def accepted(self) -> bool:
        return (self.race_free and self.completes and self.invariant_ok
                and self.output_equivalent)

    @property
    def verdict(self) -> str:
        if self.accepted:
            return "accepted"
        if not self.race_free:
            return "racy"
        if not self.completes:
            return "hangs"
        if not self.invariant_ok:
            return "wrong-result"
        return "output-divergent"

    def to_json(self) -> dict:
        return {
            "fixset": self.fixset.to_json(),
            "verdict": self.verdict,
            "race_free": self.race_free,
            "completes": self.completes,
            "invariant_ok": self.invariant_ok,
            "output_equivalent": self.output_equivalent,
            "schedules_explored": self.schedules_explored,
            "stop_reason": self.stop_reason,
            "detail": self.detail,
        }


def run_once(target, fixset: FixSet, scheduler=None):
    """One deterministic execution with the fix-set applied.

    Returns ``(completed, invariant_ok, output)``; ``output`` is the
    stashed result array (None for graph-less targets or on hang).
    """
    program = target.build_program(fixset.barriers())
    mem = GlobalMemory()
    handles = program.setup(mem)
    executor = SimtExecutor(
        mem, scheduler=scheduler or RoundRobinScheduler())
    with site_kind_overrides(fixset.kinds()):
        try:
            program.execute(executor, handles)
        except (DeadlockError, TransientKernelFault):
            return False, False, None
    ok = True
    if program.invariant is not None:
        ok = bool(program.invariant(mem, handles))
    output = handles.get("output") if isinstance(handles, dict) else None
    return True, ok, output


def reference_output(target):
    """Deterministic output of the hand-written race-free variant.

    Applies the full Section IV.B transform through the override
    mechanism — the kernels are kind-driven, so this *is* the
    hand-written race-free code path (atomic helpers and all).
    """
    from repro.gpu.accesses import AccessKind
    from repro.repair.synth import Fix

    fixes = tuple(Fix("promote", s.name, to_kind=AccessKind.ATOMIC)
                  for s in target.plan.racy_sites())
    completed, ok, output = run_once(
        target, FixSet(label="reference", fixes=fixes))
    if not completed or not ok:
        return None
    return output


def verify_candidate(target, fixset: FixSet, budget="smoke",
                     reference=None,
                     stop_on_failure: bool = False) -> CandidateVerdict:
    """Run one candidate through the full acceptance procedure.

    A candidate whose kernels cannot even execute (e.g. a promotion
    that would need a sub-word atomic the hardware lacks) is rejected
    with the error as detail, not propagated — an unusable fix is just
    a failed candidate.

    With ``stop_on_failure`` the exploration ends at the first schedule
    that races or breaks the invariant: the acceptance is the same, but
    a rejected verdict then reports that schedule's failure and the
    schedules explored up to it.
    """
    try:
        program = target.build_program(fixset.barriers())
        with site_kind_overrides(fixset.kinds()):
            # the verdict reads races and failure details only, so no
            # failure is replayed, minimized or certified
            report = check(program, budget=budget, engine="vclock",
                           predictive=True, max_minimized=0,
                           stop_on_failure=stop_on_failure)
        race_free = not report.races
        completes, invariant_ok, output = run_once(target, fixset)
        # an invariant violation surfaced during exploration counts
        # against the invariant, not against race freedom
        invariant_ok = invariant_ok and not report.failures
    except ReproError as exc:
        verdict = CandidateVerdict(
            fixset=fixset, race_free=False, completes=False,
            invariant_ok=False, output_equivalent=False,
            schedules_explored=0,
            detail=f"candidate execution failed: {exc}")
        _count_verdict(target.name, "invalid")
        return verdict
    equivalent = True
    detail = ""
    if (target.canonical_output and reference is not None
            and completes and invariant_ok):
        equivalent = (output is not None
                      and np.array_equal(np.asarray(output),
                                         np.asarray(reference)))
        if not equivalent:
            detail = "output differs from the race-free reference"
    if report.races:
        detail = report.races[0].describe()
    elif report.failures:
        detail = report.failures[0].detail

    verdict = CandidateVerdict(
        fixset=fixset, race_free=race_free, completes=completes,
        invariant_ok=invariant_ok, output_equivalent=equivalent,
        schedules_explored=report.explore.schedules, detail=detail,
        stop_reason=report.explore.stop_reason)
    _count_verdict(target.name, verdict.verdict)
    return verdict


def _count_verdict(target_name: str, verdict: str) -> None:
    reg = get_registry()
    if reg.enabled:
        reg.counter("repro_repair_verifications_total",
                    "Candidate verifications, by verdict",
                    ("target", "verdict"),
                    scope=SCOPE_PROCESS).inc(1, target_name, verdict)


def shrink_fixset(target, verdict: CandidateVerdict, budget="smoke",
                  reference=None,
                  memo: dict[tuple, CandidateVerdict] | None = None
                  ) -> CandidateVerdict:
    """Greedy minimal-set search from an accepted candidate.

    Repeatedly tries dropping one fix; keeps any drop that leaves the
    set accepted.  Terminates in at most ``size**2`` verifications.
    Each trial stops at its first failing schedule.  ``memo`` maps
    :meth:`FixSet.key` to a verdict already reached; a trial found there
    is not verified again, and an accepted one takes the trial's label.
    """
    if not verdict.accepted:
        return verdict
    memo = {} if memo is None else memo
    current = verdict
    improved = True
    while improved and current.fixset.size > 1:
        improved = False
        for fix in current.fixset.fixes:
            trial = current.fixset.without(fix)
            if not trial.fixes:
                continue
            attempt = memo.get(trial.key())
            if attempt is None:
                attempt = memo[trial.key()] = verify_candidate(
                    target, trial, budget=budget, reference=reference,
                    stop_on_failure=True)
            if attempt.accepted:
                current = replace(attempt, fixset=trial)
                improved = True
                break
    return current
