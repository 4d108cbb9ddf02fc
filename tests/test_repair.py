"""Unit tests for the repro.repair stages and the override hooks."""

import pytest

from repro.core.transform import site_kind, with_site_kinds
from repro.core.variants import Variant
from repro.errors import ReproError, StudyError
from repro.gpu.accesses import AccessKind, MemoryOrder
from repro.gpu.overrides import (
    active_overrides,
    current_override,
    site_kind_overrides,
)
from repro.repair.localize import cluster_obligations, localize
from repro.repair.prefilter import prefilter
from repro.repair.synth import Fix, FixSet, synthesize
from repro.repair.targets import get_target, list_targets
from repro.repair.verify import (
    CandidateVerdict,
    reference_output,
    run_once,
    shrink_fixset,
    verify_candidate,
)


class TestOverrides:
    def test_no_override_by_default(self):
        assert current_override("cc.label.jump_read") is None
        assert active_overrides() == {}

    def test_override_shadows_plan(self):
        from repro.algorithms import cc

        plan = cc.ACCESS_PLAN
        base = site_kind(plan, Variant.BASELINE, "cc.label.jump_read")
        assert base is AccessKind.PLAIN
        with site_kind_overrides({"cc.label.jump_read":
                                  AccessKind.ATOMIC}):
            assert site_kind(plan, Variant.BASELINE,
                             "cc.label.jump_read") is AccessKind.ATOMIC
        # restored on exit
        assert site_kind(plan, Variant.BASELINE,
                         "cc.label.jump_read") is base

    def test_overrides_nest_innermost_wins(self):
        with site_kind_overrides({"x": AccessKind.VOLATILE}):
            with site_kind_overrides({"x": AccessKind.ATOMIC}):
                assert current_override("x") is AccessKind.ATOMIC
            assert current_override("x") is AccessKind.VOLATILE
        assert current_override("x") is None

    def test_override_must_name_real_site(self):
        from repro.algorithms import cc

        with site_kind_overrides({"cc.nonexistent": AccessKind.ATOMIC}):
            with pytest.raises(StudyError):
                site_kind(cc.ACCESS_PLAN, Variant.BASELINE,
                          "cc.nonexistent")

    def test_non_kind_value_rejected(self):
        with pytest.raises(ReproError):
            with site_kind_overrides({"x": "atomic"}):
                pass


class TestWithSiteKinds:
    def test_replaces_only_named_sites(self):
        from repro.algorithms import cc

        plan = with_site_kinds(cc.ACCESS_PLAN,
                               {"cc.label.jump_read": AccessKind.ATOMIC})
        assert plan.site("cc.label.jump_read").kind is AccessKind.ATOMIC
        assert plan.site("cc.label.jump_write").kind is AccessKind.PLAIN

    def test_orders_applied(self):
        from repro.algorithms import cc

        plan = with_site_kinds(
            cc.ACCESS_PLAN,
            {"cc.label.jump_read": AccessKind.ATOMIC},
            orders={"cc.label.jump_read": MemoryOrder.SEQ_CST})
        assert plan.site("cc.label.jump_read").order is MemoryOrder.SEQ_CST

    def test_unknown_site_rejected(self):
        from repro.algorithms import cc

        with pytest.raises(StudyError):
            with_site_kinds(cc.ACCESS_PLAN, {"nope": AccessKind.ATOMIC})


class TestStableSiteIds:
    def test_site_id_uses_labels_not_offsets(self):
        from repro.repair.localize import collect_reports

        target = get_target("cc")
        reports, _ = collect_reports(target, seeds=(0,))
        labeled = [r for r in reports
                   if "cc.label" in r.site_id]
        assert labeled, "CC localization should hit labeled sites"
        # stable across graph positions: no byte offsets in the id
        for r in labeled:
            assert "[" not in r.site_id

    def test_to_json_shape(self):
        from repro.repair.localize import collect_reports

        target = get_target("twophase")
        reports, _ = collect_reports(target, seeds=(0,))
        assert reports
        blob = reports[0].to_json()
        assert blob["site_id"].startswith("tp_buf:")
        assert set(blob) >= {"array", "byte", "kind", "predicted",
                             "site_id", "fixable_sites", "accesses"}
        assert len(blob["accesses"]) == 2
        assert {a["site"] for a in blob["accesses"]} == {
            "twophase.buf.read", "twophase.buf.write"}


class TestLocalize:
    def test_twophase_obligation(self):
        target = get_target("twophase")
        obligations, events = localize(target, seeds=(0,))
        assert len(obligations) == 1
        ob = obligations[0]
        assert ob.sites == ("twophase.buf.read", "twophase.buf.write")
        assert events, "localization must surface the event stream"

    def test_cluster_merges_by_site_id(self):
        target = get_target("twophase")
        from repro.repair.localize import collect_reports

        reports, _ = collect_reports(target, seeds=(0, 1))
        merged = cluster_obligations(reports + reports)
        ids = [ob.obligation_id for ob in merged]
        assert len(ids) == len(set(ids))


class TestPrefilter:
    def test_private_and_atomic_sites_filtered(self):
        target = get_target("cc")
        obligations, events = localize(target, seeds=(0,))
        report = prefilter(target.plan, events, obligations)
        assert report.verdicts["cc.label.hook"] == "atomic"
        assert "cc.label.jump_read" in report.suspect_sites
        assert "cc.label.hook" not in report.suspect_sites

    def test_unshared_site_is_private(self):
        target = get_target("mis")
        report = prefilter(target.plan, [], [])
        assert report.verdicts["mis.prio.read"] == "private"

    def test_unexercised_site(self):
        target = get_target("scc")
        report = prefilter(target.plan, [], [])
        assert report.verdicts["scc.goagain.read"] == "unexercised"


class TestSynthesize:
    def test_candidates_exclude_filtered_sites(self):
        target = get_target("cc")
        obligations, events = localize(target, seeds=(0,))
        filtered = prefilter(target.plan, events, obligations)
        candidates = synthesize(target, obligations, filtered)
        for cand in candidates:
            assert "cc.label.hook" not in cand.kinds()

    def test_barrier_slot_candidates(self):
        target = get_target("twophase")
        obligations, events = localize(target, seeds=(0,))
        filtered = prefilter(target.plan, events, obligations)
        candidates = synthesize(target, obligations, filtered)
        labels = [c.label for c in candidates]
        assert "barrier:twophase.phase" in labels
        assert any(c.label == "atomic-suspects" for c in candidates)

    def test_max_candidates_cap(self):
        target = get_target("cc")
        obligations, events = localize(target, seeds=(0,))
        filtered = prefilter(target.plan, events, obligations)
        candidates = synthesize(target, obligations, filtered,
                                max_candidates=1)
        assert len(candidates) == 1

    def test_fixset_helpers(self):
        fs = FixSet(label="t", fixes=(
            Fix("promote", "a", to_kind=AccessKind.ATOMIC),
            Fix("promote", "b", to_kind=AccessKind.ATOMIC,
                order=MemoryOrder.SEQ_CST),
            Fix("barrier", "slot"),
        ))
        assert fs.kinds() == {"a": AccessKind.ATOMIC,
                              "b": AccessKind.ATOMIC}
        assert fs.orders() == {"b": MemoryOrder.SEQ_CST}
        assert fs.barriers() == frozenset({"slot"})
        smaller = fs.without(fs.fixes[0])
        assert smaller.size == 2


class TestVerify:
    def test_twophase_barrier_accepted(self):
        target = get_target("twophase")
        fs = FixSet(label="b", fixes=(Fix("barrier", "twophase.phase"),))
        verdict = verify_candidate(target, fs, budget="smoke")
        assert verdict.accepted
        assert verdict.verdict == "accepted"

    def test_twophase_atomic_rejected_by_invariant(self):
        target = get_target("twophase")
        fs = FixSet(label="a", fixes=(
            Fix("promote", "twophase.buf.read",
                to_kind=AccessKind.ATOMIC),
            Fix("promote", "twophase.buf.write",
                to_kind=AccessKind.ATOMIC),
        ))
        verdict = verify_candidate(target, fs, budget="smoke")
        assert not verdict.accepted

    def test_empty_fixset_rejected_when_racy(self):
        target = get_target("twophase")
        verdict = verify_candidate(target, FixSet(label="noop", fixes=()),
                                   budget="smoke")
        assert not verdict.accepted
        assert not verdict.race_free

    def test_verification_replays_no_failing_schedule(self, monkeypatch):
        """A verdict reads the races and failure details exploration
        found, never a failure's replay, minimization or certification,
        so verifying a racy candidate replays no schedule."""
        from repro.check import harness

        replays = []
        real = harness.ReplayScheduler
        monkeypatch.setattr(harness, "ReplayScheduler",
                            lambda log: replays.append(log) or real(log))
        verdict = verify_candidate(get_target("cc"),
                                   FixSet(label="noop", fixes=()),
                                   budget="smoke")
        assert replays == []
        assert verdict.verdict == "racy"
        assert verdict.detail == (
            "read-write race on cc_label byte 4: thread 1 (atomic write) "
            "vs thread 2 (plain read) [cc.label.hook/atomic-write vs "
            "cc.label.jump_read/plain-read]")

    def test_stop_on_failure_keeps_the_verdict(self):
        """A trial's exploration ends at its first failing schedule; a
        candidate's runs to its budget.  Either way the candidate is
        rejected for the same first race."""
        target = get_target("cc")
        noop = FixSet(label="noop", fixes=())
        full = verify_candidate(target, noop, budget="smoke")
        first = verify_candidate(target, noop, budget="smoke",
                                 stop_on_failure=True)
        assert (full.verdict, first.verdict) == ("racy", "racy")
        assert first.detail == full.detail
        assert first.stop_reason == "stopped_early"
        assert first.schedules_explored == 1
        assert full.stop_reason != "stopped_early"
        assert full.schedules_explored > 1

    def test_unusable_candidate_rejected_not_raised(self):
        # a 1-byte site promoted to ATOMIC while the write stays
        # volatile cannot execute without the typecast helpers on the
        # *write* path; whatever the failure mode, it must surface as a
        # rejection, never as an exception
        target = get_target("twophase")
        fs = FixSet(label="x", fixes=(
            Fix("promote", "twophase.buf.read",
                to_kind=AccessKind.ATOMIC),))
        verdict = verify_candidate(target, fs, budget="smoke")
        assert not verdict.accepted

    def test_run_once_reports_output(self):
        target = get_target("cc")
        completed, ok, output = run_once(
            target, FixSet(label="rf", fixes=(
                Fix("promote", "cc.label.jump_read",
                    to_kind=AccessKind.ATOMIC),
                Fix("promote", "cc.label.jump_write",
                    to_kind=AccessKind.ATOMIC),
            )))
        assert completed and ok
        assert output is not None

    def test_reference_output_matches_racefree_variant(self):
        import numpy as np

        from repro.algorithms import cc

        target = get_target("cc")
        ref = reference_output(target)
        labels, _ = cc.run_simt(target.verify_graph, Variant.RACE_FREE)
        assert np.array_equal(np.asarray(ref), labels)


class TestTargets:
    def test_registry(self):
        assert list_targets() == ["apsp_shared", "cc", "gc", "mis",
                                  "mis_packed", "mst", "scc", "twophase"]
        with pytest.raises(ReproError):
            get_target("bogus")

    def test_gc_verify_graph_degree_bound(self):
        target = get_target("gc")
        assert int(target.verify_graph.degrees().max()) < 31

    def test_mst_target_graphs_are_preweighted(self):
        # run_simt would otherwise weight an internal copy the
        # invariant checker never sees
        target = get_target("mst")
        assert target.verify_graph.has_weights
        assert target.localize_graph.has_weights
        assert target.perf_graph.has_weights

    def test_mst_target_end_to_end(self):
        from repro.gpu.memory import GlobalMemory
        from repro.gpu.simt import SimtExecutor

        target = get_target("mst")
        prog = target.build_program(frozenset())
        mem = GlobalMemory()
        handles = prog.setup(mem)
        prog.execute(SimtExecutor(mem), handles)
        prog.invariant(mem, handles)  # check_mst on the stashed mask


class TestRankPricing:
    @pytest.mark.parametrize("algo_key,variant,records", [
        ("cc", Variant.BASELINE, 1), ("cc", Variant.RACE_FREE, 1),
        ("mis", Variant.RACE_FREE, 1), ("mis", Variant.BASELINE, 2),
    ])
    def test_records_once_per_consumed_staleness_class(
            self, monkeypatch, algo_key, variant, records):
        """A recording keyed ANY_STALENESS prices all four devices; only
        baseline MIS, which reads the constant, records per class.  The
        replayed runtimes equal the direct engine's."""
        from repro.core.variants import get_algorithm
        from repro.gpu.device import DEVICE_ORDER, get_device
        from repro.graphs import generators as gen
        from repro.perf.engine import run_algorithm
        from repro.repair import rank

        calls = []
        real = rank.record_trace

        def counting(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(rank, "record_trace", counting)
        algo = get_algorithm(algo_key)
        graph = gen.random_uniform(48, 3.0, seed=3)
        runtimes = rank._price_plan(algo, graph, variant, 0, DEVICE_ORDER)
        assert len(calls) == records
        assert runtimes == {
            key: run_algorithm(algo, graph, get_device(key), variant,
                               seed=0).runtime_ms
            for key in DEVICE_ORDER}


class TestShrinkMemo:
    A = Fix("promote", "twophase.buf.read", to_kind=AccessKind.ATOMIC)
    B = Fix("promote", "twophase.buf.write", to_kind=AccessKind.ATOMIC)

    @staticmethod
    def _verdict(fixset, accepted, schedules):
        return CandidateVerdict(
            fixset=fixset, race_free=accepted, completes=True,
            invariant_ok=True, output_equivalent=True,
            schedules_explored=schedules, stop_reason="complete")

    def test_a_reused_verdict_takes_the_trial_label(self, monkeypatch):
        """A fix-set another candidate already reached is not verified
        again, and its accepted verdict reports the trial's label and
        fixes (``to_json`` includes the label)."""
        from repro.repair import verify

        monkeypatch.setattr(verify, "verify_candidate", None)
        start = self._verdict(FixSet("atomic-all", (self.A, self.B)),
                              True, 9)
        memo = {
            FixSet("x", (self.B,)).key(): self._verdict(
                FixSet("atomic-suspects", (self.B,)), False, 1),
            FixSet("x", (self.A,)).key(): self._verdict(
                FixSet("atomic-suspects", (self.A,)), True, 7),
        }
        shrunk = shrink_fixset(get_target("twophase"), start, memo=memo)
        assert shrunk.to_json()["fixset"] == {
            "label": "atomic-all-shrunk", "fixes": [self.A.describe()]}
        assert shrunk.schedules_explored == 7
        assert shrunk.accepted

    def test_trials_are_verified_once_and_stop_early(self, monkeypatch):
        """Every candidate gets a full verification before any trial;
        each trial stops at its first failure; no fix-set is verified
        twice in one call (mst's shrink reaches a candidate's set)."""
        from repro.repair import pipeline, verify

        calls = []
        real = verify.verify_candidate

        def spy(target, fixset, stop_on_failure=False, **kwargs):
            calls.append((fixset.key(), stop_on_failure))
            return real(target, fixset, stop_on_failure=stop_on_failure,
                        **kwargs)

        synthesized = []
        real_synthesize = pipeline.synthesize

        def synthesize(*args, **kwargs):
            synthesized.extend(real_synthesize(*args, **kwargs))
            return synthesized

        monkeypatch.setattr(pipeline, "verify_candidate", spy)
        monkeypatch.setattr(verify, "verify_candidate", spy)
        monkeypatch.setattr(pipeline, "synthesize", synthesize)
        report = pipeline.repair("mst", budget="smoke")
        firsts = [(fixset.key(), False) for fixset in synthesized]
        assert calls[:len(firsts)] == firsts
        trials = calls[len(firsts):]
        assert trials and all(stop for _, stop in trials)
        keys = [key for key, _ in calls]
        assert len(keys) == len(set(keys))
        assert all(c.stop_reason != "stopped_early"
                   for c in report.candidates)
