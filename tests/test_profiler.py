"""Tests for the per-site profiler and partial race removal."""

from __future__ import annotations

import pytest

from repro.core.transform import remove_races_at
from repro.core.variants import Variant, get_algorithm
from repro.errors import StudyError
from repro.gpu.device import get_device
from repro.perf.profiler import (
    ProfilingRecorder,
    compare_profiles,
    dominant_racy_site,
    profile_run,
)


@pytest.fixture(scope="module")
def cc_profiles(request):
    from repro.graphs import generators as gen

    graph = gen.preferential_attachment(400, 3, seed=11)
    device = get_device("titanv")
    algo = get_algorithm("cc")
    base = profile_run(algo, graph, device, Variant.BASELINE, seed=7)
    free = profile_run(algo, graph, device, Variant.RACE_FREE, seed=7)
    return base, free


class TestProfiler:
    def test_site_traffic_collected(self, cc_profiles):
        base, _ = cc_profiles
        assert "cc.label.jump_read" in base.sites
        assert base.sites["cc.label.jump_read"].loads > 0

    def test_traffic_identical_across_variants(self, cc_profiles):
        """The transform changes kinds, never counts."""
        base, free = cc_profiles
        for name in base.sites:
            assert base.sites[name].total == free.sites[name].total

    def test_kinds_differ_across_variants(self, cc_profiles):
        base, free = cc_profiles
        assert (base.sites["cc.label.jump_read"].kind.value == "plain")
        assert (free.sites["cc.label.jump_read"].kind.value == "atomic")

    def test_l1_share_drops_after_conversion(self, cc_profiles):
        """Section VI.A's profiling observation: the baseline has the
        much higher L1 hit rate."""
        base, free = cc_profiles
        assert base.l1_traffic_share > free.l1_traffic_share + 0.2

    def test_dominant_racy_site_is_the_jump_read(self, cc_profiles):
        base, _ = cc_profiles
        assert dominant_racy_site(base) == "cc.label.jump_read"

    def test_comparison_table_renders(self, cc_profiles):
        table = compare_profiles(*cc_profiles)
        assert "cc.label.jump_read" in table
        assert "L1-path share" in table

    def test_runtime_consistent_with_engine(self, cc_profiles):
        base, free = cc_profiles
        assert base.runtime_ms < free.runtime_ms  # CC slows down

    def test_site_counts_are_whole_integers(self, cc_profiles):
        """Access counts are numbers of accesses — always ints."""
        base, free = cc_profiles
        for profile in (base, free):
            for traffic in profile.sites.values():
                assert type(traffic.loads) is int
                assert type(traffic.stores) is int
                assert type(traffic.rmws) is int
                assert type(traffic.total) is int

    @pytest.mark.parametrize("variant", list(Variant))
    def test_stats_match_the_plain_recorder_on_scc(self, variant):
        """scc passes its stores as counts with distinct-address counts;
        profiling must charge them exactly as the plain recorder does."""
        from repro.graphs import generators as gen
        from repro.perf.engine import Recorder, algorithm_plan

        graph = gen.directed_powerlaw(300, 3.0, seed=5)
        device = get_device("titanv")
        algo = get_algorithm("scc")
        profile = profile_run(algo, graph, device, variant, seed=7)
        plain = Recorder(algorithm_plan(algo), variant, device, seed=7)
        algo.perf_runner(graph, plain)
        assert profile.stats == plain.stats
        assert (profile.stats.contended_atomics > 0) == (
            variant is Variant.RACE_FREE)

    def test_whole_rejects_fractional_counts(self):
        from repro.perf.profiler import _whole

        assert _whole(3.0) == 3
        assert _whole(7) == 7
        with pytest.raises(ValueError, match="non-integral"):
            _whole(2.5)


class TestPartialConversion:
    def _plan(self):
        from repro.algorithms.cc import ACCESS_PLAN

        return ACCESS_PLAN

    def test_partial_conversion_leaves_other_races(self):
        plan = remove_races_at(self._plan(), {"cc.label.jump_read"})
        remaining = {s.name for s in plan.racy_sites()}
        assert "cc.label.jump_read" not in remaining
        assert "cc.label.jump_write" in remaining

    def test_full_site_list_equals_remove_races(self):
        from repro.core.transform import remove_races

        plan = self._plan()
        names = {s.name for s in plan.racy_sites()}
        assert remove_races_at(plan, names) == remove_races(plan)

    def test_unknown_site_rejected(self):
        with pytest.raises(StudyError):
            remove_races_at(self._plan(), {"cc.nope"})

    def test_detector_still_finds_untouched_races(self, tiny_graph):
        """Failure injection: convert only the reads; the write races
        must still be reported."""
        from repro.algorithms import cc
        from repro.core.transform import site_kind
        from repro.core.variants import Variant
        from repro.gpu.interleave import RandomScheduler
        from repro.gpu.racecheck import RaceDetector

        partial = remove_races_at(self._plan(), {"cc.label.jump_read"})
        # run the baseline kernels but with the partially converted
        # plan's kinds, by monkeypatching the module plan
        original = cc.ACCESS_PLAN
        try:
            cc.ACCESS_PLAN = partial
            _, ex = cc.run_simt(tiny_graph, Variant.BASELINE,
                                scheduler=RandomScheduler(3))
        finally:
            cc.ACCESS_PLAN = original
        reports = RaceDetector().check(ex)
        assert reports, "partially converted CC must still race"
        assert any(r.first.is_write or r.second.is_write for r in reports)

    def test_partial_perf_between_extremes(self):
        """A partial conversion's runtime lies between baseline and
        fully race-free (monotone migration cost)."""
        from repro.algorithms import cc as cc_mod
        from repro.graphs import generators as gen
        from repro.gpu.timing import TimingModel

        graph = gen.preferential_attachment(400, 3, seed=11)
        device = get_device("titanv")
        plan = self._plan()
        partial = remove_races_at(plan, {"cc.label.jump_read"})

        def run_with(p, variant):
            rec = ProfilingRecorder(p, variant, device)
            cc_mod.run_perf(graph, rec)
            return TimingModel(device).estimate_ms(rec.stats)

        base_ms = run_with(plan, Variant.BASELINE)
        partial_ms = run_with(partial, Variant.BASELINE)
        free_ms = run_with(plan, Variant.RACE_FREE)
        assert base_ms < partial_ms < free_ms
