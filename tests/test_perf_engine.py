"""Tests for the performance engine: recorder and delayed views."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.transform import AccessPlan, AccessSite
from repro.core.variants import Variant
from repro.errors import StudyError
from repro.gpu.accesses import AccessKind
from repro.gpu.device import get_device
from repro.perf import engine
from repro.perf.engine import Recorder
from repro.perf.visibility import DelayedView


def make_recorder(variant=Variant.BASELINE) -> Recorder:
    plan = AccessPlan("t", (
        AccessSite("t.plain", AccessKind.PLAIN),
        AccessSite("t.volatile", AccessKind.VOLATILE),
        AccessSite("t.store", AccessKind.PLAIN, is_store=True),
        AccessSite("t.rmw", AccessKind.ATOMIC, is_rmw=True),
    ))
    return Recorder(plan, variant, get_device("titanv"))


class TestRecorder:
    def test_load_buckets_by_site_kind(self):
        r = make_recorder()
        r.load("t.plain", count=10)
        r.load("t.volatile", count=5)
        assert r.stats.plain_loads == 10
        assert r.stats.volatile_loads == 5

    def test_variant_redirects_to_atomic(self):
        r = make_recorder(Variant.RACE_FREE)
        r.load("t.plain", count=10)
        r.store("t.store", count=4)
        assert r.stats.atomic_loads == 10
        assert r.stats.atomic_stores == 4
        assert r.stats.plain_loads == 0

    def test_indices_counted(self):
        r = make_recorder()
        r.load("t.plain", indices=np.array([1, 2, 3]))
        assert r.stats.plain_loads == 3

    def test_contention_counted_for_atomic_stores(self):
        r = make_recorder(Variant.RACE_FREE)
        r.store("t.store", indices=np.array([5, 5, 5, 6]))
        assert r.stats.contended_atomics == 2  # three hits on 5

    def test_no_contention_for_plain_stores(self):
        r = make_recorder(Variant.BASELINE)
        r.store("t.store", indices=np.array([5, 5, 5, 6]))
        assert r.stats.contended_atomics == 0

    def test_rmw_counted_in_both_variants(self):
        for variant in Variant:
            r = make_recorder(variant)
            r.rmw("t.rmw", indices=np.array([1, 1]))
            assert r.stats.atomic_rmws == 2
            assert r.stats.contended_atomics == 1

    def test_structure_always_plain(self):
        r = make_recorder(Variant.RACE_FREE)
        r.structure(7)
        assert r.stats.plain_loads == 7

    def test_requires_indices_or_count(self):
        with pytest.raises(StudyError):
            make_recorder().load("t.plain")

    def test_footprint_is_max_per_array_sum_across(self):
        r = make_recorder()
        r.touch("a", 100)
        r.touch("a", 50)   # smaller re-touch does not shrink
        r.touch("b", 10)
        assert r.stats.footprint_bytes == 110

    def test_rounds(self):
        r = make_recorder()
        r.round()
        r.round(launches=3)
        assert r.stats.rounds == 4

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-3, 40), max_size=30))
    @example([])
    @example([5, 5, 5, 6])
    def test_count_and_distinct_store_matches_indices(self, values):
        """``store(count=k, distinct=d)`` charges what an index array
        with k entries and d distinct values charges: on the PLAIN
        site (baseline) and the ATOMIC one (race-free), on both tiers."""
        indices = np.asarray(values, dtype=np.int64)
        plan = make_recorder().plan
        for variant in Variant:
            for tier in ("interp", "batched"):
                by_index, by_count = (
                    engine.make_recorder(plan, variant, staleness_rounds=2,
                                         engine=tier) for _ in range(2))
                by_index.store("t.store", indices=indices)
                by_count.store("t.store", count=len(values),
                               distinct=len(set(values)))
                assert by_count.stats == by_index.stats, (variant, tier)

    def test_staleness_only_for_plain_sites(self):
        r = make_recorder(Variant.BASELINE)
        assert r.staleness("t.plain") > 0
        assert r.staleness("t.volatile") == 0
        r2 = make_recorder(Variant.RACE_FREE)
        assert r2.staleness("t.plain") == 0


class TestDelayedView:
    def test_zero_delay_sees_current(self):
        arr = np.zeros(4, dtype=np.int64)
        view = DelayedView(arr, delay=0)
        arr[0] = 7
        assert view.read()[0] == 7

    def test_delayed_view_lags(self):
        arr = np.zeros(4, dtype=np.int64)
        view = DelayedView(arr, delay=2)
        arr[0] = 1
        view.commit()
        arr[0] = 2
        view.commit()
        # history: [initial(0), 1, 2]; delay 2 -> sees the oldest
        assert view.read()[0] == 0

    def test_catches_up_after_enough_commits(self):
        arr = np.zeros(2, dtype=np.int64)
        view = DelayedView(arr, delay=1)
        arr[0] = 5
        view.commit()
        view.commit()
        assert view.read()[0] == 5

    def test_fractional_staleness_mixes(self):
        arr = np.zeros(1000, dtype=np.int64)
        view = DelayedView(arr, delay=1, stale_fraction=0.5, seed=1)
        arr[:] = 1
        view.commit()
        seen = view.read()
        stale = int((seen == 0).sum())
        assert 300 < stale < 700  # roughly half

    def test_validation(self):
        arr = np.zeros(1, dtype=np.int64)
        with pytest.raises(ValueError):
            DelayedView(arr, delay=-1)
        with pytest.raises(ValueError):
            DelayedView(arr, delay=1, stale_fraction=2.0)

    def test_deterministic_given_seed(self):
        arr1 = np.zeros(100, dtype=np.int64)
        arr2 = np.zeros(100, dtype=np.int64)
        v1 = DelayedView(arr1, delay=1, stale_fraction=0.5, seed=9)
        v2 = DelayedView(arr2, delay=1, stale_fraction=0.5, seed=9)
        arr1[:] = 1
        arr2[:] = 1
        v1.commit()
        v2.commit()
        assert np.array_equal(v1.read(), v2.read())
