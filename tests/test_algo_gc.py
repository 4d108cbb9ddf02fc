"""Tests for ECL-GC (both execution levels, both variants)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import gc, verify
from repro.algorithms.common import edge_sources
from repro.core.variants import Variant, get_algorithm
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import load_suite_graph, suite_names
from repro.gpu.device import get_device
from repro.gpu.interleave import AdversarialScheduler, RandomScheduler
from repro.gpu.racecheck import RaceDetector
from repro.perf.engine import algorithm_plan, make_recorder, run_algorithm

ALGO = lambda: get_algorithm("gc")
DEV = lambda: get_device("titanv")


class TestPerfCorrectness:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_triangle_needs_three_colors(self, two_triangles, variant):
        run = run_algorithm(ALGO(), two_triangles, DEV(), variant)
        colors = run.output["colors"]
        verify.check_coloring(two_triangles, colors)
        assert len(set(colors.tolist())) == 3

    @pytest.mark.parametrize("variant", list(Variant))
    def test_path_within_jones_plassmann_bound(self, path_graph, variant):
        run = run_algorithm(ALGO(), path_graph, DEV(), variant)
        verify.check_coloring(path_graph, run.output["colors"])
        # Jones-Plassmann guarantees at most max-degree + 1 colors
        assert set(run.output["colors"].tolist()) <= {0, 1, 2}

    def test_edgeless_uses_one_color(self):
        g = CSRGraph.empty(5)
        run = run_algorithm(ALGO(), g, DEV(), Variant.BASELINE)
        assert set(run.output["colors"].tolist()) == {0}

    def test_variants_agree(self, small_graph):
        base = run_algorithm(ALGO(), small_graph, DEV(), Variant.BASELINE)
        free = run_algorithm(ALGO(), small_graph, DEV(), Variant.RACE_FREE)
        assert np.array_equal(base.output["colors"], free.output["colors"])

    def test_color_count_bounded_by_max_degree(self, small_graph):
        run = run_algorithm(ALGO(), small_graph, DEV(), Variant.RACE_FREE)
        n_colors = int(run.output["colors"].max()) + 1
        assert n_colors <= int(small_graph.degrees().max()) + 1

    @settings(max_examples=15, deadline=None)
    @given(st.integers(10, 60), st.floats(1.0, 5.0), st.integers(0, 100))
    def test_random_graphs_verified(self, n, avg, seed):
        g = gen.random_uniform(n, avg, seed=seed)
        run = run_algorithm(ALGO(), g, DEV(), Variant.RACE_FREE)
        verify.check_coloring(g, run.output["colors"])


class TestAccessProfile:
    def test_baseline_uses_volatile(self, small_graph):
        """ECL-GC's shared arrays are already volatile — the reason its
        race-free conversion is almost free."""
        run = run_algorithm(ALGO(), small_graph, DEV(), Variant.BASELINE)
        assert run.stats.volatile_loads > 0
        assert run.stats.atomic_loads == 0

    def test_conversion_is_cheap(self, small_graph):
        base = run_algorithm(ALGO(), small_graph, DEV(), Variant.BASELINE)
        free = run_algorithm(ALGO(), small_graph, DEV(), Variant.RACE_FREE)
        speedup = base.runtime_ms / free.runtime_ms
        assert speedup > 0.90  # paper: geomean 0.96-1.00

    def test_rounds_identical_across_variants(self, small_graph):
        base = run_algorithm(ALGO(), small_graph, DEV(), Variant.BASELINE)
        free = run_algorithm(ALGO(), small_graph, DEV(), Variant.RACE_FREE)
        assert base.rounds == free.rounds


class TestSimtLevel:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_correct_under_schedules(self, tiny_graph, variant, seed):
        colors, _ = gc.run_simt(tiny_graph, variant,
                                scheduler=RandomScheduler(seed))
        verify.check_coloring(tiny_graph, colors)

    def test_adversarial_schedule(self, tiny_graph):
        colors, _ = gc.run_simt(tiny_graph, Variant.RACE_FREE,
                                scheduler=AdversarialScheduler(5))
        verify.check_coloring(tiny_graph, colors)

    def test_baseline_races_found_racefree_clean(self, tiny_graph):
        _, ex_base = gc.run_simt(tiny_graph, Variant.BASELINE,
                                 scheduler=RandomScheduler(2))
        assert any(r.array == "gc_color"
                   for r in RaceDetector().check(ex_base))
        _, ex_free = gc.run_simt(tiny_graph, Variant.RACE_FREE,
                                 scheduler=RandomScheduler(2))
        assert RaceDetector().check(ex_free) == []


class TestVerifier:
    def test_rejects_adjacent_same_color(self, two_triangles):
        with pytest.raises(ValidationError):
            verify.check_coloring(two_triangles, np.zeros(6, dtype=np.int64))

    def test_rejects_uncolored(self, two_triangles):
        colors = np.array([0, 1, 2, 0, 1, -1], dtype=np.int64)
        with pytest.raises(ValidationError):
            verify.check_coloring(two_triangles, colors)


class TestPriorities:
    def test_largest_degree_first(self, small_graph):
        prio = gc.make_priorities(small_graph, seed=0)
        degs = small_graph.degrees()
        hub = int(np.argmax(degs))
        leaf = int(np.argmin(degs))
        assert prio[hub] > prio[leaf]

    def test_priorities_distinct(self, small_graph):
        prio = gc.make_priorities(small_graph, seed=0)
        assert len(np.unique(prio)) == small_graph.num_vertices


# ----------------------------------------------------------------------
# Counter-driven rounds against the per-round rescan
# ----------------------------------------------------------------------

def _reference_run_perf(graph, recorder) -> dict:
    """The per-round rescan of every edge, with one ``np.unique`` per
    ready vertex: the reference ``gc.run_perf`` must match exactly."""
    n = graph.num_vertices
    m = graph.num_edges
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    prio = gc.make_priorities(graph, recorder.repetition_seed())
    color = np.full(n, gc.UNCOLORED, dtype=np.int64)

    recorder.touch("color", 4 * n)
    recorder.touch("posscol", 4 * n)
    recorder.touch("csr", 4 * m + 8 * (n + 1))
    recorder.store("gc.color.write", count=n)
    recorder.round()

    uncolored = np.ones(n, dtype=bool)
    while np.any(uncolored):
        recorder.round()
        active_src = uncolored[src]
        n_polls = int(np.count_nonzero(active_src))
        n_active = int(np.count_nonzero(uncolored))
        recorder.structure(n_polls)
        recorder.load("gc.color.read", count=n_polls)
        recorder.load("gc.prio.read", count=n_polls)
        recorder.load("gc.posscol.read", count=n_active)
        recorder.store("gc.posscol.write", count=n_active)
        recorder.compute(2 * n_polls)

        blocking = active_src & uncolored[dst] & (prio[dst] > prio[src])
        blocked = np.zeros(n, dtype=bool)
        np.logical_or.at(blocked, src[blocking], True)
        ready_vs = np.flatnonzero(uncolored & ~blocked)

        for v in ready_vs.tolist():
            beg, end = graph.row_offsets[v], graph.row_offsets[v + 1]
            neigh_colors = color[dst[beg:end]]
            used = np.unique(neigh_colors[neigh_colors >= 0])
            c = 0
            for u in used.tolist():
                if u == c:
                    c += 1
                elif u > c:
                    break
            color[v] = c
        recorder.store("gc.color.write", indices=ready_vs)
        uncolored[ready_vs] = False
    return {"colors": color}


def _assert_matches_reference(graph: CSRGraph, seed: int) -> None:
    """Equal colors and equal ``AccessStats`` (every field) on both
    recorder tiers and both variants.  The reference runs once per
    variant, on the interp tier: the tiers' stats are byte-identical
    for one call sequence, so both tiers must match it."""
    plan = algorithm_plan(ALGO())
    for variant in Variant:
        ref = make_recorder(plan, variant, staleness_rounds=2, seed=seed,
                            engine="interp")
        expected = _reference_run_perf(graph, ref)["colors"]
        for engine in ("interp", "batched"):
            rec = make_recorder(plan, variant, staleness_rounds=2,
                                seed=seed, engine=engine)
            colors = gc.run_perf(graph, rec)["colors"]
            assert colors.dtype == expected.dtype
            assert np.array_equal(colors, expected), (variant, engine)
            assert rec.stats == ref.stats, (variant, engine)


def _raw_graph(n: int, edges, symmetric: bool) -> CSRGraph:
    """A CSR straight from an edge list, keeping the self-loops and
    parallel edges ``CSRGraph.from_edges`` drops."""
    pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if symmetric:
        pairs = np.concatenate([pairs, pairs[:, ::-1]])
    pairs = pairs[np.lexsort((pairs[:, 1], pairs[:, 0]))]
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(pairs[:, 0], minlength=n), out=offsets[1:])
    return CSRGraph(offsets, pairs[:, 1], directed=not symmetric)


@st.composite
def _raw_graphs(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    return _raw_graph(n, edges, symmetric=draw(st.booleans()))


@pytest.fixture
def fallback_calls(monkeypatch):
    """Counts the rounds colored by the per-vertex fallback."""
    calls = []
    real = gc._color_in_order

    def counting(*args):
        calls.append(args[-1].shape[0])
        real(*args)

    monkeypatch.setattr(gc, "_color_in_order", counting)
    return calls


class TestMatchesRescanReference:
    @pytest.mark.parametrize("seed", [7, 1007])
    @pytest.mark.parametrize("name", suite_names(directed=False))
    def test_undirected_suite_quarter_scale(self, name, seed,
                                            fallback_calls):
        _assert_matches_reference(load_suite_graph(name, 0.25), seed)
        assert fallback_calls == []  # symmetric: one vectorized pass

    @pytest.mark.parametrize("seed", [7, 1007])
    @pytest.mark.parametrize("name", [
        "internet", "rmat16.sym", "USA-road-d.NY", "amazon0601",
        "2d-2e20.sym", "as-skitter", "in-2004"])
    def test_sweep_inputs_full_scale(self, name, seed, fallback_calls):
        _assert_matches_reference(load_suite_graph(name, 1.0), seed)
        assert fallback_calls == []

    @pytest.mark.parametrize("graph", [
        _raw_graph(1, [], symmetric=True),
        _raw_graph(1, [(0, 0)], symmetric=True),
        _raw_graph(6, [], symmetric=True),
        _raw_graph(6, [(0, 1), (1, 2), (2, 0)], symmetric=True),
        _raw_graph(5, [(0, 1), (1, 1), (3, 3)], symmetric=True),
    ], ids=["single", "single-loop", "no-edges", "triangle-isolated",
            "self-loops"])
    @pytest.mark.parametrize("seed", [7, 1007])
    def test_degenerate_graphs(self, graph, seed):
        _assert_matches_reference(graph, seed)

    @pytest.mark.parametrize("seed", [7, 1007])
    def test_directed_rounds_take_the_fallback(self, seed, fallback_calls):
        # 0 -> 1 without 1 -> 0: both are ready in the first round, and
        # 0 must see 1 still uncolored, as the in-order rule has it
        _assert_matches_reference(_raw_graph(2, [(0, 1)], False), seed)
        _assert_matches_reference(
            gen.directed_powerlaw(60, 2.5, seed=3), seed)
        assert fallback_calls

    @settings(max_examples=80, deadline=None)
    @given(_raw_graphs(), st.sampled_from([7, 1007]))
    def test_random_csrs(self, graph, seed):
        _assert_matches_reference(graph, seed)
