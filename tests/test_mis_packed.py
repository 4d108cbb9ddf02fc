"""Tests for the packed single-byte MIS mode (status + priority in one
byte — the paper's Section II.B.4 footprint optimization)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import mis, verify
from repro.core.variants import Variant
from repro.graphs import generators as gen
from repro.gpu.interleave import AdversarialScheduler, RandomScheduler
from repro.gpu.racecheck import RaceDetector


class TestPackedPriorities:
    def test_fit_in_the_byte_range(self, small_graph):
        packed = mis.make_packed_priorities(small_graph, seed=0)
        assert packed.min() >= 0
        assert packed.max() <= 0xFD  # below the IN/OUT markers

    def test_preserve_inverse_degree_ordering(self, small_graph):
        packed = mis.make_packed_priorities(small_graph, seed=0)
        degs = small_graph.degrees()
        hub = int(np.argmax(degs))
        leaf = int(np.argmin(degs))
        assert packed[leaf] >= packed[hub]

    def test_markers_distinct(self):
        assert mis.PACKED_IN != mis.PACKED_OUT
        assert mis.PACKED_IN > 0xFD and mis.PACKED_OUT > 0xFD


class TestPackedKernel:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_valid_mis_under_schedules(self, tiny_graph, variant, seed):
        in_set, _ = mis.run_simt_packed(tiny_graph, variant,
                                        scheduler=RandomScheduler(seed))
        verify.check_mis(tiny_graph, in_set)

    def test_adversarial_schedules(self, tiny_graph):
        for seed in (5, 6):
            in_set, _ = mis.run_simt_packed(
                tiny_graph, Variant.RACE_FREE,
                scheduler=AdversarialScheduler(seed))
            verify.check_mis(tiny_graph, in_set)

    def test_quantized_ties_resolved(self):
        """Many vertices share a quantized priority byte on a clique-ish
        graph; the id tie-break must still yield a valid MIS."""
        g = gen.copaper_graph(40, 12.0, seed=3)
        in_set, _ = mis.run_simt_packed(g, Variant.RACE_FREE,
                                        scheduler=RandomScheduler(2))
        verify.check_mis(g, in_set)

    def test_baseline_races_racefree_clean(self, tiny_graph):
        _, ex = mis.run_simt_packed(tiny_graph, Variant.BASELINE,
                                    scheduler=RandomScheduler(3))
        races = RaceDetector().check(ex)
        assert any(r.array == "misp_nstat" for r in races)
        _, ex = mis.run_simt_packed(tiny_graph, Variant.RACE_FREE,
                                    scheduler=RandomScheduler(3))
        assert RaceDetector().check(ex) == []

    def test_set_size_comparable_to_unpacked(self, tiny_graph):
        packed, _ = mis.run_simt_packed(tiny_graph, Variant.RACE_FREE,
                                        scheduler=RandomScheduler(4))
        unpacked, _ = mis.run_simt(tiny_graph, Variant.RACE_FREE,
                                   scheduler=RandomScheduler(4))
        assert abs(int(packed.sum()) - int(unpacked.sum())) <= 3


class TestAblationHooks:
    def test_zero_staleness_removes_the_advantage(self, small_graph):
        from repro.core.variants import get_algorithm
        from repro.gpu.device import get_device
        from repro.gpu.timing import TimingModel
        from repro.perf.engine import Recorder, algorithm_plan

        device = get_device("titanv")
        algo = get_algorithm("mis")
        times = {}
        for variant in Variant:
            recorder = Recorder(algorithm_plan(algo), variant, device,
                                seed=7)
            mis.run_perf(small_graph, recorder, stale_fraction=0.0)
            times[variant] = TimingModel(device).estimate_ms(recorder.stats)
        # without the visibility mechanism the race-free variant pays
        # the atomic extra and cannot win
        assert times[Variant.BASELINE] <= times[Variant.RACE_FREE] * 1.01

    def test_rounds_equal_without_staleness(self, small_graph):
        from repro.core.variants import get_algorithm
        from repro.gpu.device import get_device
        from repro.perf.engine import Recorder, algorithm_plan

        device = get_device("titanv")
        algo = get_algorithm("mis")
        rounds = {}
        for variant in Variant:
            recorder = Recorder(algorithm_plan(algo), variant, device,
                                seed=7)
            mis.run_perf(small_graph, recorder, stale_fraction=0.0)
            rounds[variant] = recorder.stats.rounds
        assert rounds[Variant.BASELINE] == rounds[Variant.RACE_FREE]
