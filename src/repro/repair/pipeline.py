"""The repair pipeline: localize → pre-filter → synthesize → verify →
rank, as one call.

:func:`repair` wires the five stages over one
:class:`~repro.repair.targets.RepairTarget` and returns a
:class:`RepairReport` carrying every stage's artifacts — the CLI's
``repro repair`` renders it as text, ``--json`` serializes it whole.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gpu.device import DEVICE_ORDER
from repro.repair.localize import SiteObligation, localize
from repro.repair.prefilter import PrefilterReport, prefilter
from repro.repair.rank import RankedFix, format_table, rank_fixes
from repro.repair.synth import FixSet, synthesize
from repro.repair.targets import RepairTarget, get_target
from repro.repair.verify import (
    CandidateVerdict,
    reference_output,
    shrink_fixset,
    verify_candidate,
)
from repro.telemetry.spans import get_spans


@dataclass
class RepairReport:
    """Everything one :func:`repair` call established."""

    target: str
    obligations: list[SiteObligation]
    prefilter: PrefilterReport
    candidates: list[CandidateVerdict]     #: every verified candidate
    ranked: list[RankedFix]                #: accepted, priced, ordered
    devices: tuple[str, ...]
    budget: str

    @property
    def accepted(self) -> list[CandidateVerdict]:
        return [c for c in self.candidates if c.accepted]

    @property
    def ok(self) -> bool:
        """True when every obligation is discharged: no races were
        found, or at least one verified fix exists."""
        return not self.obligations or bool(self.ranked)

    @property
    def top_fix(self) -> RankedFix | None:
        return self.ranked[0] if self.ranked else None

    def render(self) -> str:
        lines = [f"repair report for {self.target} "
                 f"(budget={self.budget})"]
        if not self.obligations:
            lines.append("no race obligations found — nothing to repair")
            return "\n".join(lines)
        lines.append(f"obligations ({len(self.obligations)}):")
        for ob in self.obligations:
            flavor = " [predicted-only]" if ob.predicted_only else ""
            lines.append(f"  {ob.obligation_id}{flavor}")
            lines.append(f"    sites: {', '.join(ob.sites) or '(unlabeled)'}"
                         f"  kinds: {', '.join(ob.kinds)}"
                         f"  seen: {ob.occurrences}x")
        filtered = self.prefilter.filtered_sites
        if filtered:
            lines.append("pre-filtered sites (provably race-free): "
                         + ", ".join(
                             f"{s}={self.prefilter.verdicts[s]}"
                             for s in filtered))
        lines.append(f"candidates verified ({len(self.candidates)}):")
        for cand in self.candidates:
            mark = "ACCEPT" if cand.accepted else "reject"
            extra = f" — {cand.detail}" if cand.detail else ""
            stop = (f", {cand.stop_reason.replace('_', ' ')}"
                    if cand.stop_reason else "")
            lines.append(
                f"  [{mark}] {cand.fixset.describe()} "
                f"({cand.verdict}, {cand.schedules_explored} schedules"
                f"{stop}){extra}")
        lines.append("")
        target = get_target(self.target)
        lines.append(format_table(target, self.ranked, self.devices))
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "target": self.target,
            "budget": self.budget,
            "devices": list(self.devices),
            "ok": self.ok,
            "accepted": len(self.accepted),
            "obligations": [ob.to_json() for ob in self.obligations],
            "prefilter": self.prefilter.to_json(),
            "candidates": [c.to_json() for c in self.candidates],
            "ranked": [r.to_json() for r in self.ranked],
        }


def repair(target_name: str, budget: str = "smoke",
           devices: tuple[str, ...] = DEVICE_ORDER,
           seeds: tuple[int, ...] = (0, 1, 2),
           max_candidates: int = 8,
           shrink: bool = True,
           perf_seed: int = 0) -> RepairReport:
    """Run the full repair pipeline on one target."""
    target = get_target(target_name)
    spans = get_spans()

    with spans.span("repair.localize", target=target_name):
        obligations, events = localize(target, seeds=seeds)

    with spans.span("repair.prefilter", target=target_name):
        filtered = prefilter(target.plan, events, obligations)

    if not obligations:
        return RepairReport(target=target_name, obligations=[],
                            prefilter=filtered, candidates=[], ranked=[],
                            devices=tuple(devices), budget=budget)

    with spans.span("repair.synthesize", target=target_name):
        candidates = synthesize(target, obligations, filtered,
                                max_candidates=max_candidates)

    reference = (reference_output(target)
                 if target.canonical_output else None)

    verdicts: list[CandidateVerdict] = []
    with spans.span("repair.verify", target=target_name):
        for fixset in candidates:
            verdicts.append(verify_candidate(target, fixset,
                                             budget=budget,
                                             reference=reference))

    if shrink:
        with spans.span("repair.shrink", target=target_name):
            # one verdict per fix-set for the whole call: shrinking
            # several candidates reaches the same subsets.  Every
            # candidate is verified in full before the first trial.
            memo = {v.fixset.key(): v for v in verdicts}
            shrunk: list[CandidateVerdict] = []
            seen: set[tuple] = set()
            for verdict in verdicts:
                if verdict.accepted:
                    verdict = shrink_fixset(target, verdict,
                                            budget=budget,
                                            reference=reference,
                                            memo=memo)
                if verdict.fixset.key() in seen:
                    continue
                seen.add(verdict.fixset.key())
                shrunk.append(verdict)
            verdicts = shrunk

    with spans.span("repair.rank", target=target_name):
        ranked = rank_fixes(target, [v for v in verdicts if v.accepted],
                            devices=tuple(devices), seed=perf_seed)

    return RepairReport(target=target_name, obligations=obligations,
                        prefilter=filtered, candidates=verdicts,
                        ranked=ranked, devices=tuple(devices),
                        budget=budget)
