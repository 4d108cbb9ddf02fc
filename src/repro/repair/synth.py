"""Stage 3: synthesize candidate fix-sets for the open obligations.

Per-site fixes come in three flavors, matching the paper's repertoire:

* ``promote`` to ATOMIC — the Section IV.B transform, per site instead
  of wholesale; byte and half-word sites route through the hand-written
  typecast helpers (Figs. 3b/4b/5) because the kernels branch on the
  *effective* kind;
* ``promote`` to VOLATILE — the cheaper "defeat the register
  allocator" repair (fixes stale-value hangs, not data races; the
  verifier rejects it whenever races remain, which documents *why*
  volatile is not enough — Section VI.A);
* ``barrier`` — insert a ``__syncthreads()`` at one of the target's
  declared slots (only targets that have slots).

Candidates are composed largest-plausible-first; the verifier's greedy
shrink (:func:`repro.repair.verify.shrink_fixset`) reduces an accepted
set to a minimal one, so synthesis does not enumerate the power set.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gpu.accesses import AccessKind, MemoryOrder
from repro.telemetry.metrics import SCOPE_PROCESS, get_registry


@dataclass(frozen=True)
class Fix:
    """One atomic repair action."""

    action: str                      #: ``promote`` | ``barrier``
    site: str                        #: plan site, or barrier slot name
    to_kind: AccessKind | None = None
    order: MemoryOrder = MemoryOrder.RELAXED

    def describe(self) -> str:
        if self.action == "barrier":
            return f"barrier@{self.site}"
        suffix = ("" if self.order is MemoryOrder.RELAXED
                  else f"[{self.order.value}]")
        return f"{self.site}->{self.to_kind.value}{suffix}"


@dataclass(frozen=True)
class FixSet:
    """A candidate repair: a set of fixes applied together."""

    label: str
    fixes: tuple[Fix, ...]

    def kinds(self) -> dict[str, AccessKind]:
        return {f.site: f.to_kind for f in self.fixes
                if f.action == "promote"}

    def orders(self) -> dict[str, MemoryOrder]:
        return {f.site: f.order for f in self.fixes
                if f.action == "promote"
                and f.order is not MemoryOrder.RELAXED}

    def barriers(self) -> frozenset:
        return frozenset(f.site for f in self.fixes
                         if f.action == "barrier")

    @property
    def size(self) -> int:
        return len(self.fixes)

    def describe(self) -> str:
        if not self.fixes:
            return "(no-op)"
        return " + ".join(f.describe() for f in self.fixes)

    def without(self, fix: Fix) -> "FixSet":
        base = self.label.removesuffix("-shrunk")
        return FixSet(label=f"{base}-shrunk",
                      fixes=tuple(f for f in self.fixes if f != fix))

    def key(self) -> tuple:
        return tuple(sorted((f.action, f.site,
                             f.to_kind.value if f.to_kind else "",
                             f.order.value) for f in self.fixes))

    def program_key(self) -> tuple:
        """The program verification runs: the barrier slots and the
        site → kind map, the only parts of the set it applies.  Memory
        orders reach only the ranking, so a ``[seq_cst]`` twin verifies
        as the same program as its relaxed original."""
        return (tuple(sorted(self.barriers())),
                tuple(sorted((site, kind.value)
                             for site, kind in self.kinds().items())))

    def to_json(self) -> dict:
        return {
            "label": self.label,
            "fixes": [f.describe() for f in self.fixes],
        }


def _promotions(sites, to_kind: AccessKind,
                order: MemoryOrder = MemoryOrder.RELAXED) -> tuple:
    return tuple(Fix("promote", s, to_kind=to_kind, order=order)
                 for s in sorted(sites))


def synthesize(target, obligations, prefilter_report,
               max_candidates: int = 8) -> list[FixSet]:
    """Compose the candidate fix-sets for ``target``.

    Sites the pre-filter proved safe never appear in a fix; obligations
    whose every site was filtered contribute nothing (they were false
    alarms by construction — the verifier still re-checks the final
    candidate against *all* obligations, so a wrong filter verdict
    surfaces as a rejected fix, not a silent miss).
    """
    eligible: set[str] = set()
    for ob in obligations:
        eligible.update(ob.sites)
    eligible &= set(prefilter_report.suspect_sites)

    candidates: list[FixSet] = []

    # barrier insertions first: cheapest at runtime when they work
    for slot in target.barrier_slots:
        candidates.append(FixSet(
            label=f"barrier:{slot}",
            fixes=(Fix("barrier", slot),)))

    if eligible:
        # volatile promotion of every suspect site (skip sites already
        # volatile in the baseline plan — promoting them is a no-op)
        vol_sites = [s for s in eligible
                     if target.plan.site(s).kind is AccessKind.PLAIN]
        if vol_sites:
            candidates.append(FixSet(
                label="volatile-suspects",
                fixes=_promotions(vol_sites, AccessKind.VOLATILE)))

        # relaxed atomic promotion of every suspect site — the paper's
        # transform restricted to the localized sites
        candidates.append(FixSet(
            label="atomic-suspects",
            fixes=_promotions(eligible, AccessKind.ATOMIC)))

        # the same set under seq_cst, priced differently by the
        # memory-order cost model (the ablation the paper motivates)
        candidates.append(FixSet(
            label="atomic-suspects-seqcst",
            fixes=_promotions(eligible, AccessKind.ATOMIC,
                              MemoryOrder.SEQ_CST)))

    # fallback: the full Section IV.B transform over the whole plan
    full = [s.name for s in target.plan.racy_sites()]
    if full:
        candidates.append(FixSet(
            label="atomic-all",
            fixes=_promotions(full, AccessKind.ATOMIC)))

    # dedupe (e.g. suspects == all racy sites) and cap
    seen: set[tuple] = set()
    unique: list[FixSet] = []
    for cand in candidates:
        if cand.fixes and cand.key() not in seen:
            seen.add(cand.key())
            unique.append(cand)
    dropped = max(0, len(unique) - max_candidates)
    kept = unique[:max_candidates]

    reg = get_registry()
    if reg.enabled:
        fam = reg.counter("repro_repair_candidates_total",
                          "Candidate fix-sets synthesized, by outcome",
                          ("target", "outcome"), scope=SCOPE_PROCESS)
        fam.inc(len(kept), target.name, "synthesized")
        if dropped:
            fam.inc(dropped, target.name, "capped")
    return kept
