"""Tests for the Indigo3-style bug-variant generator."""

from __future__ import annotations

import pytest

from repro.core.variants import Variant
from repro.errors import StudyError
from repro.gpu.device import get_device
from repro.graphs import generators as gen
from repro.patterns.mutator import (
    enumerate_variants,
    migration_path,
)


def cc_plan():
    from repro.algorithms.cc import ACCESS_PLAN

    return ACCESS_PLAN


#: racy plan sites the SIMT kernels never race on: the host performs
#: MST's best-slot reset and SCC's goagain poll, and a launch boundary
#: orders MST's best-slot reads after the atomicMin election.  A variant
#: that leaves only these sites unconverted runs race-free.
SIMT_RACE_FREE_SITES = {
    "mst": {"mst.best.read", "mst.best.write"},
    "scc": {"scc.goagain.read"},
}


class TestEnumeration:
    def test_counts_subsets(self):
        plan = cc_plan()
        k = len(plan.racy_sites())
        variants = list(enumerate_variants(plan))
        assert len(variants) == 2 ** k

    def test_first_is_baseline_last_is_complete(self):
        variants = list(enumerate_variants(cc_plan()))
        assert variants[0].label == "baseline"
        assert not variants[0].is_complete
        assert variants[-1].is_complete
        assert variants[-1].label == "race-free"

    def test_partial_variants_still_have_races(self):
        variants = list(enumerate_variants(cc_plan()))
        for v in variants[:-1]:
            assert v.plan.has_races, v.label

    def test_max_variants_cap(self):
        variants = list(enumerate_variants(cc_plan(), max_variants=3))
        assert len(variants) == 3

    def test_raceless_plan_rejected(self):
        from repro.algorithms.apsp import ACCESS_PLAN

        with pytest.raises(StudyError):
            list(enumerate_variants(ACCESS_PLAN))

    @pytest.mark.parametrize("algorithm", ["cc", "gc", "mis", "mst",
                                           "scc"])
    def test_detector_flags_every_partial_variant(self, algorithm,
                                                  tiny_graph,
                                                  tiny_directed):
        """The Indigo3 use-case: a sound detector must flag every
        variant that is not the full conversion — every one that leaves
        a site the SIMT kernels race on unconverted — and stay silent on
        the rest.  Each variant's converted sites are promoted the way
        repair verification applies a fix-set, and on every run the
        engine must report at least the racy pairs the pairwise scan
        reports."""
        import importlib

        from repro.check.vclock import VectorClockEngine
        from repro.gpu.accesses import AccessKind
        from repro.gpu.interleave import RandomScheduler
        from repro.gpu.overrides import site_kind_overrides
        from repro.gpu.racecheck import RaceDetector
        from tests.pairwise_reference import pairwise_reports, racy_pairs
        from tests.test_vclock import raw_reports

        module = importlib.import_module(f"repro.algorithms.{algorithm}")
        graph = tiny_directed if algorithm == "scc" else tiny_graph
        plan = module.ACCESS_PLAN
        variants = list(enumerate_variants(plan))
        assert len(variants) == 2 ** len(plan.racy_sites())
        silent = SIMT_RACE_FREE_SITES.get(algorithm, set())
        for variant in variants:
            promoted = {site: AccessKind.ATOMIC
                        for site in variant.converted}
            with site_kind_overrides(promoted):
                _, ex = module.run_simt(graph, Variant.BASELINE,
                                        scheduler=RandomScheduler(3))
            assert (racy_pairs(pairwise_reports(ex.events))
                    <= racy_pairs(raw_reports(VectorClockEngine,
                                              ex.events))), variant.label
            races = RaceDetector().check(ex)
            racy = {s.name for s in variant.plan.racy_sites()} - silent
            if racy:
                assert races, f"missed races in {variant.label}"
            else:
                assert not races, variant.label


class TestMigrationPath:
    @pytest.fixture(scope="class")
    def path(self):
        graph = gen.preferential_attachment(300, 3, seed=11)
        return migration_path("cc", graph, get_device("titanv"))

    def test_covers_all_sites(self, path):
        assert path[0].remaining_racy_sites == len(cc_plan().racy_sites())
        assert path[-1].remaining_racy_sites == 0
        assert path[-1].variant.is_complete

    def test_runtime_monotonically_nondecreasing(self, path):
        """Converting a racy site can only add cost in this model."""
        runtimes = [s.runtime_ms for s in path]
        assert all(a <= b + 1e-12 for a, b in zip(runtimes, runtimes[1:]))

    def test_greedy_defers_the_expensive_jump_reads(self, path):
        """CC's conversion budget concentrates in the jump reads, so
        the greedy order converts them last."""
        assert "cc.label.jump_read" in path[-1].variant.converted
        order = list(path[-1].variant.converted)
        assert order.index("cc.label.jump_read") == len(order) - 1

    def test_no_races_no_path(self):
        with pytest.raises(StudyError):
            migration_path("apsp",
                           gen.random_uniform(8, 2.0, seed=1)
                           .with_random_weights(1),
                           get_device("titanv"))
