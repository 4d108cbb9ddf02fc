"""Tests for the trace record/replay engine (repro.perf.trace).

The contract under test: replaying a recorded trace for a device is
bit-identical to running the direct engine for that device, one
recording serves every device of its staleness class and every
repetition whose seed it never read, and the cache key invalidates on
any input that could change the trace.
"""

from __future__ import annotations

import itertools
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.transform import AccessPlan, AccessSite
from repro.core.variants import Variant, get_algorithm, list_algorithms
from repro.errors import StudyError
from repro.gpu.accesses import AccessKind
from repro.gpu.device import DEVICE_ORDER, PAPER_GPUS, get_device
from repro.gpu.faults import FaultPlan
from repro.graphs import generators as gen
from repro.graphs.suite import load_suite_graph, weighted_graph
from repro.perf.engine import noise_multiplier, record_trace, run_algorithm
from repro.perf.trace import ANY_SEED, TraceCache, plan_fingerprint
from repro.perf.trace import stable_config_hash


def _graph_for(algo):
    if algo.key == "apsp":
        g = gen.random_uniform(12, 2.0, seed=3)
    elif algo.directed:
        g = gen.directed_powerlaw(48, 2.5, seed=3)
    else:
        g = gen.random_uniform(48, 3.0, seed=3)
    if algo.needs_weights and not g.has_weights:
        g = g.with_random_weights(seed=1)
    return g


ALGO_VARIANTS = [(a.key, v) for a in list_algorithms() for v in Variant]

#: the first three repetition seeds of a Study
SEEDS = (7, 1007, 2007)


class TestReplayEquivalence:
    @pytest.mark.parametrize("algo_key,variant", ALGO_VARIANTS)
    def test_replay_bit_identical_to_direct_on_every_device(
            self, algo_key, variant):
        """The cached-trace path must reproduce the direct engine's
        runtime, rounds, and outputs exactly, for all four devices and
        every repetition seed — including seeds replayed from an
        ``ANY_SEED`` recording made under another seed."""
        algo = get_algorithm(algo_key)
        graph = _graph_for(algo)
        cache = TraceCache()
        for seed in SEEDS:
            for dev in DEVICE_ORDER:
                spec = get_device(dev)
                direct = run_algorithm(algo, graph, spec, variant,
                                       seed=seed, trace_cache=None)
                cached = run_algorithm(algo, graph, spec, variant,
                                       seed=seed, trace_cache=cache)
                where = (seed, dev)
                assert cached.runtime_ms == direct.runtime_ms, where
                assert cached.rounds == direct.rounds, where
                for name in direct.output:
                    assert np.array_equal(
                        np.asarray(cached.output[name]),
                        np.asarray(direct.output[name])), where

    def test_staleness_dependent_records_once_per_class(self):
        """Baseline MIS consumes the staleness constant, so the four
        devices (two staleness classes) need exactly two recordings."""
        classes = {spec.plain_staleness_rounds
                   for spec in PAPER_GPUS.values()}
        assert len(classes) == 2  # the premise of the whole design
        algo = get_algorithm("mis")
        graph = _graph_for(algo)
        cache = TraceCache()
        for dev in DEVICE_ORDER:
            run_algorithm(algo, graph, get_device(dev), Variant.BASELINE,
                          seed=5, trace_cache=cache)
        assert cache.recorded == len(classes)
        assert cache.memory_hits == len(DEVICE_ORDER) - len(classes)

    @pytest.mark.parametrize("algo_key,variant", [
        ("cc", Variant.BASELINE), ("gc", Variant.BASELINE),
        ("mst", Variant.BASELINE), ("scc", Variant.BASELINE),
        ("mis", Variant.RACE_FREE),
    ])
    def test_staleness_independent_records_once_total(self, algo_key,
                                                      variant):
        """Executions that never consume the staleness constant —
        everything except baseline MIS — record once for all four
        devices (the wildcard-key path)."""
        algo = get_algorithm(algo_key)
        graph = _graph_for(algo)
        cache = TraceCache()
        for dev in DEVICE_ORDER:
            run_algorithm(algo, graph, get_device(dev), variant,
                          seed=5, trace_cache=cache)
        assert cache.recorded == 1
        assert cache.memory_hits == len(DEVICE_ORDER) - 1


class TestSeedWildcard:
    @pytest.mark.parametrize("algo_key,variant", [
        (key, v) for key in ("cc", "scc", "mst") for v in Variant])
    def test_seed_free_records_once_across_seeds_and_devices(
            self, algo_key, variant):
        """cc, scc and pre-weighted mst never read the repetition seed:
        one recording serves three seeds on all four devices."""
        algo = get_algorithm(algo_key)
        graph = _graph_for(algo)
        assert graph.has_weights or not algo.needs_weights
        cache = TraceCache()
        for seed in SEEDS:
            for dev in DEVICE_ORDER:
                run_algorithm(algo, graph, get_device(dev), variant,
                              seed=seed, trace_cache=cache)
        assert cache.recorded == 1

    @pytest.mark.parametrize("algo_key,variant,classes", [
        ("gc", Variant.BASELINE, 1), ("gc", Variant.RACE_FREE, 1),
        ("mis", Variant.BASELINE, 2), ("mis", Variant.RACE_FREE, 1),
        ("mst", Variant.BASELINE, 1), ("mst", Variant.RACE_FREE, 1),
    ])
    def test_seeded_records_once_per_seed(self, algo_key, variant,
                                          classes):
        """gc and mis draw priorities from the seed, and mst on an
        unweighted graph draws its weights from it: every seed records
        (once per staleness class it consumes)."""
        algo = get_algorithm(algo_key)
        graph = gen.random_uniform(48, 3.0, seed=3)
        cache = TraceCache()
        for seed in SEEDS:
            for dev in DEVICE_ORDER:
                run_algorithm(algo, graph, get_device(dev), variant,
                              seed=seed, trace_cache=cache)
        assert cache.recorded == len(SEEDS) * classes

    def test_any_seed_trace_is_a_disk_hit(self, tmp_path):
        algo = get_algorithm("cc")
        graph = _graph_for(algo)
        spec = get_device("titanv")
        run_algorithm(algo, graph, spec, Variant.BASELINE, seed=7,
                      trace_cache=TraceCache(disk_dir=tmp_path))
        fresh = TraceCache(disk_dir=tmp_path)
        replayed = run_algorithm(algo, graph, spec, Variant.BASELINE,
                                 seed=1007, trace_cache=fresh,
                                 need_output=False)
        assert fresh.recorded == 0
        assert fresh.disk_hits == 1
        direct = run_algorithm(algo, graph, spec, Variant.BASELINE,
                               seed=1007, trace_cache=None)
        assert replayed.runtime_ms == direct.runtime_ms

    @pytest.mark.parametrize("algo_key,variant", ALGO_VARIANTS)
    def test_unconsumed_seed_means_identical_execution(self, algo_key,
                                                       variant):
        """Differential guard on the wildcard's premise: a runner that
        reports the seed unconsumed must record the same stats and
        output under any other seed (a runner drawing randomness
        behind the recorder's back would fail here)."""
        algo = get_algorithm(algo_key)
        graph = _graph_for(algo)
        first = record_trace(algo, graph, variant, SEEDS[0], 2)
        if first.seed != ANY_SEED:
            assert first.seed == SEEDS[0]
            return
        for seed in SEEDS[1:]:
            again = record_trace(algo, graph, variant, seed, 2)
            assert again.seed == ANY_SEED
            assert again.stats == first.stats, seed
            assert again.output_fp == first.output_fp, seed

    def test_wildcard_is_not_a_real_seed(self):
        algo = get_algorithm("cc")
        with pytest.raises(StudyError, match="reserved"):
            record_trace(algo, _graph_for(algo), Variant.BASELINE,
                         ANY_SEED, 2)


#: three small suite inputs per algorithm at :data:`SIBLING_SCALE`
#: (APSP's distance matrix is dense, so it takes the smallest three)
SIBLING_INPUTS = {"apsp": ("rmat16.sym", "2d-2e20.sym", "toroid-wedge"),
                  "scc": ("toroid-wedge", "star", "cold-flow")}
SIBLING_UNDIRECTED = ("internet", "rmat16.sym", "USA-road-d.NY")
SIBLING_SCALE = 0.0625


def _suite_graph(algo, name: str):
    """A suite input as a study prepares it for ``algo``."""
    graph = load_suite_graph(name, SIBLING_SCALE)
    if algo.needs_weights and not graph.has_weights:
        graph = weighted_graph(graph, seed=12345)
    return graph


class DirectOnlyCache(TraceCache):
    """The cache of a build that records every variant with its own
    execution: siblings are never stored."""

    def store(self, trace):
        if trace.sibling_of is None:
            super().store(trace)


class TestSiblings:
    @pytest.mark.parametrize("algo_key", [a.key for a in list_algorithms()])
    def test_sibling_equals_a_direct_recording(self, algo_key):
        """Differential guard on the sibling's premise: a runner that
        never reads a site's kind executes identically for both
        variants, so each sibling equals its own variant's direct
        recording: stats, wildcards and output (a runner branching on
        the variant behind the recorder's back fails)."""
        algo = get_algorithm(algo_key)
        for name in SIBLING_INPUTS.get(algo_key, SIBLING_UNDIRECTED):
            graph = _suite_graph(algo, name)
            for seed, staleness in itertools.product(SEEDS[:2], (2, 3)):
                direct = {v: record_trace(algo, graph, v, seed, staleness)
                          for v in Variant}
                for variant, trace in direct.items():
                    if algo_key == "mis":
                        assert trace.siblings == ()
                        continue
                    (sibling,) = trace.siblings
                    assert sibling.sibling_of is variant
                    other = direct[sibling.variant]
                    assert sibling.variant is not variant
                    assert sibling.key() == other.key()
                    assert sibling.stats == other.stats, (name, seed)
                    assert sibling.output_fp == other.output_fp

    def test_reading_a_site_kind_drops_the_sibling(self):
        plan = AccessPlan("toy", (
            AccessSite("toy.x", AccessKind.PLAIN, is_store=True),))

        def blind(graph, recorder):
            recorder.store("toy.x", count=3)
            return {"x": np.zeros(1)}

        def reading(graph, recorder):
            recorder.store("toy.x", count=3)
            recorder.site_kind("toy.x")
            recorder.store("toy.x", count=2)
            return {"x": np.zeros(1)}

        graph = gen.random_uniform(8, 2.0, seed=1)
        toy = SimpleNamespace(key="toy", perf_runner=blind)
        trace = record_trace(toy, graph, Variant.BASELINE, 1, 2, plan=plan)
        (sibling,) = trace.siblings
        assert trace.stats.plain_stores == 3
        assert sibling.stats.atomic_stores == 3
        assert sibling.stats.plain_stores == 0

        toy = SimpleNamespace(key="toy", perf_runner=reading)
        trace = record_trace(toy, graph, Variant.BASELINE, 1, 2, plan=plan)
        assert trace.siblings == ()
        assert trace.stats.plain_stores == 5

    def test_mis_reads_its_poll_kind(self):
        algo = get_algorithm("mis")
        graph = _suite_graph(algo, "internet")
        for variant in Variant:
            assert record_trace(algo, graph, variant, 7, 2).siblings == ()

    def test_a_sweep_records_each_execution_once(self, tmp_path):
        """A serial resilient sweep records every (input, seed class,
        staleness class) once, and its trace files are those of a
        build whose every variant records itself, byte for byte."""
        from repro.core.resilience import ResilientStudy

        def sweep(cache):
            study = ResilientStudy(reps=2, scale=SIBLING_SCALE,
                                   trace_cache=cache)
            for device in ("titanv", "2070super"):
                study.sweep(device, ["cc", "gc", "mis", "mst"],
                            ["internet", "rmat16.sym"])
                study.sweep(device, ["scc"], ["toroid-wedge"])
            return study._result_records()

        shared = TraceCache(disk_dir=tmp_path / "shared")
        direct = DirectOnlyCache(disk_dir=tmp_path / "direct")
        assert sweep(shared) == sweep(direct)
        files = {p.name: p.read_bytes()
                 for p in (tmp_path / "shared").glob("trace-*.json")}
        assert files == {p.name: p.read_bytes()
                         for p in (tmp_path / "direct").glob("trace-*.json")}
        assert direct.recorded == len(files)
        executions = set()
        for body in files.values():
            trace = json.loads(body)
            executions.add((trace["algorithm"], trace["graph_fp"],
                            trace["seed"], trace["staleness_rounds"],
                            trace["variant"] if trace["algorithm"] == "mis"
                            else None))
        assert shared.recorded == len(executions)
        # cc, mst, scc: one; gc: one per seed; mis: per variant, seed
        # and (baseline only) staleness class, all per input
        assert shared.recorded == 2 * (1 + 1 + 2 + 2 * 2 + 2) + 1


class TestTraceCache:
    def test_disk_roundtrip(self, tmp_path):
        algo = get_algorithm("mis")
        graph = _graph_for(algo)
        spec = get_device("titanv")
        first = TraceCache(disk_dir=tmp_path)
        direct = run_algorithm(algo, graph, spec, Variant.RACE_FREE,
                               seed=11, trace_cache=first)
        assert first.recorded == 1

        # a fresh process/session pointing at the same directory replays
        # without re-recording — but cannot supply output arrays
        second = TraceCache(disk_dir=tmp_path)
        replayed = run_algorithm(algo, graph, spec, Variant.RACE_FREE,
                                 seed=11, trace_cache=second,
                                 need_output=False)
        assert second.recorded == 0
        assert second.disk_hits == 1
        assert replayed.runtime_ms == direct.runtime_ms
        assert replayed.output is None

    def test_need_output_forces_rerecord(self, tmp_path):
        algo = get_algorithm("cc")
        graph = _graph_for(algo)
        spec = get_device("a100")
        run_algorithm(algo, graph, spec, Variant.BASELINE, seed=2,
                      trace_cache=TraceCache(disk_dir=tmp_path))
        fresh = TraceCache(disk_dir=tmp_path)
        run = run_algorithm(algo, graph, spec, Variant.BASELINE, seed=2,
                            trace_cache=fresh, need_output=True)
        assert fresh.recorded == 1  # disk trace has no outputs: re-record
        assert run.output is not None

    def test_different_graph_does_not_alias(self):
        algo = get_algorithm("cc")
        spec = get_device("titanv")
        cache = TraceCache()
        g1 = gen.random_uniform(48, 3.0, seed=3)
        g2 = gen.random_uniform(48, 3.0, seed=4)
        run_algorithm(algo, g1, spec, Variant.BASELINE, seed=1,
                      trace_cache=cache)
        run_algorithm(algo, g2, spec, Variant.BASELINE, seed=1,
                      trace_cache=cache)
        assert cache.recorded == 2

    def test_plan_fingerprint_covers_site_fields(self):
        base = AccessPlan("t", (
            AccessSite("t.x", AccessKind.PLAIN, is_store=True),
        ))
        reordered = AccessPlan("t", (
            AccessSite("t.x", AccessKind.VOLATILE, is_store=True),
        ))
        assert plan_fingerprint(base) != plan_fingerprint(reordered)

    def test_faulted_runs_bypass_the_cache(self):
        """Injection mutates outputs/runtimes; a shared recording must
        never absorb that, and a faulted run must not consume one."""
        algo = get_algorithm("cc")
        graph = _graph_for(algo)
        spec = get_device("titanv")
        cache = TraceCache()
        plan = FaultPlan.parse("stall=1.0", seed=9)
        injector = plan.injector("cc", graph.name, "titanv",
                                 Variant.BASELINE.value, 0, 0)
        run_algorithm(algo, graph, spec, Variant.BASELINE, seed=1,
                      faults=injector, trace_cache=cache)
        assert cache.recorded == 0
        assert len(cache) == 0


class TestPrune:
    def _fill(self, tmp_path, n: int) -> TraceCache:
        """Record n distinct traces into a disk-backed cache with
        strictly increasing mtimes (oldest = lowest seed).  mis reads
        its seed and its poll site's kind, so every seed is its own
        recording and writes no sibling."""
        cache = TraceCache(disk_dir=tmp_path)
        algo = get_algorithm("mis")
        graph = _graph_for(algo)
        spec = get_device("titanv")
        for seed in range(n):
            run_algorithm(algo, graph, spec, Variant.BASELINE,
                          seed=seed, trace_cache=cache)
        files = sorted(tmp_path.glob("trace-*.json"))
        assert len(files) == n
        for i, path in enumerate(files):
            os.utime(path, (1_000_000 + i, 1_000_000 + i))
        return cache

    def test_prune_evicts_oldest_first(self, tmp_path):
        cache = self._fill(tmp_path, 4)
        files = sorted(tmp_path.glob("trace-*.json"),
                       key=lambda p: p.stat().st_mtime)
        entries, nbytes = cache.disk_usage()
        assert entries == 4
        keep = sum(p.stat().st_size for p in files[2:])
        removed, freed = cache.prune(keep)
        assert removed == 2
        assert freed == nbytes - keep
        survivors = set(tmp_path.glob("trace-*.json"))
        assert survivors == set(files[2:])

    def test_prune_zero_clears_the_layer(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        removed, _freed = cache.prune(0)
        assert removed == 2
        assert cache.disk_usage() == (0, 0)

    def test_prune_noop_when_under_budget(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        assert cache.prune(10**9) == (0, 0)
        assert cache.disk_usage()[0] == 2

    def test_prune_rejects_negative_budget(self, tmp_path):
        with pytest.raises(ValueError, match="max_bytes"):
            TraceCache(disk_dir=tmp_path).prune(-1)

    def test_prune_keeps_memory_layer(self, tmp_path):
        cache = self._fill(tmp_path, 2)
        cache.prune(0)
        assert len(cache) == 2  # memory traces survive disk eviction

    def test_prune_evicts_quarantine_first(self, tmp_path):
        # a quarantined file with the *newest* mtime still goes before
        # any live trace: it serves no lookups and must never crowd
        # them out of the byte budget
        cache = self._fill(tmp_path, 3)
        live = sorted(tmp_path.glob("trace-*.json"))
        corrupt = tmp_path / "trace-feedface.json.corrupt"
        corrupt.write_bytes(b"x" * 64)
        os.utime(corrupt, (2_000_000, 2_000_000))
        budget = sum(p.stat().st_size for p in live)
        removed, freed = cache.prune(budget)
        assert (removed, freed) == (1, 64)
        assert not corrupt.exists()
        assert set(tmp_path.glob("trace-*.json")) == set(live)

    def test_prune_counts_quarantine_toward_budget(self, tmp_path):
        # budget smaller than quarantine + live: the corrupt file goes
        # first, then live traces oldest-first until the layer fits
        cache = self._fill(tmp_path, 2)
        live = sorted(tmp_path.glob("trace-*.json"),
                      key=lambda p: p.stat().st_mtime)
        corrupt = tmp_path / "trace-feedface.json.corrupt"
        corrupt.write_bytes(b"x" * 64)
        keep = sum(p.stat().st_size for p in live[1:])
        removed, _freed = cache.prune(keep)
        assert removed == 2  # the corrupt file + the oldest live trace
        assert not corrupt.exists()
        assert set(tmp_path.glob("trace-*.json")) == set(live[1:])

    def test_prune_quarantine_counter(self, tmp_path):
        from repro import telemetry

        cache = TraceCache(disk_dir=tmp_path)
        (tmp_path / "trace-0badc0de.json.corrupt").write_bytes(b"y" * 8)
        try:
            registry, _spans = telemetry.enable()
            cache.prune(0)
            assert registry.get(
                "repro_trace_prune_quarantined").value() == 1
        finally:
            telemetry.disable()

    def test_prune_updates_disk_gauges(self, tmp_path):
        from repro import telemetry

        cache = self._fill(tmp_path, 3)
        try:
            registry, _spans = telemetry.enable()
            cache.prune(0)
            assert registry.get(
                "repro_trace_cache_disk_entries").value() == 0
            assert registry.get(
                "repro_trace_cache_disk_bytes").value() == 0
        finally:
            telemetry.disable()


class TestStableNoise:
    def test_crc_not_string_hash(self):
        # the exact value is part of the persisted-results contract now
        assert stable_config_hash("cc", Variant.BASELINE) == \
            stable_config_hash("cc", Variant.BASELINE)
        assert stable_config_hash("cc", Variant.BASELINE) != \
            stable_config_hash("cc", Variant.RACE_FREE)

    def test_noise_identical_across_interpreter_invocations(self):
        """The historical hash((algo, variant)) seeding was randomized
        per process; the replacement must not be."""
        src = str(Path(__file__).resolve().parents[1] / "src")
        code = ("from repro.core.variants import Variant;"
                "from repro.perf.engine import noise_multiplier;"
                "print(repr(noise_multiplier('mis', Variant.RACE_FREE, 7)))")
        values = set()
        for hashseed in ("0", "1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed,
                       PYTHONPATH=src)
            out = subprocess.run(
                [sys.executable, "-c", code], env=env,
                capture_output=True, text=True, check=True)
            values.add(out.stdout.strip())
        assert len(values) == 1
        assert values.pop() == repr(
            noise_multiplier("mis", Variant.RACE_FREE, 7))
