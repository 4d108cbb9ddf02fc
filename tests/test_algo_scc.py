"""Tests for ECL-SCC (both execution levels, both variants)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import scc, verify
from repro.algorithms.common import edge_sources
from repro.core.variants import Variant, get_algorithm
from repro.errors import ValidationError
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph
from repro.graphs.suite import load_suite_graph, suite_names
from repro.gpu.device import get_device
from repro.gpu.interleave import AdversarialScheduler, RandomScheduler
from repro.gpu.racecheck import RaceDetector
from repro.perf.engine import Recorder, algorithm_plan, run_algorithm
from tests.test_algo_gc import _raw_graph

ALGO = lambda: get_algorithm("scc")
DEV = lambda: get_device("titanv")


class TestPerfCorrectness:
    @pytest.mark.parametrize("variant", list(Variant))
    def test_cycle_is_one_scc(self, directed_cycle, variant):
        run = run_algorithm(ALGO(), directed_cycle, DEV(), variant)
        verify.check_scc(directed_cycle, run.output["labels"])
        assert len(set(run.output["labels"].tolist())) == 1

    @pytest.mark.parametrize("variant", list(Variant))
    def test_dag_is_all_trivial(self, variant):
        edges = np.array([(0, 1), (1, 2), (0, 2), (2, 3)])
        g = CSRGraph.from_edges(4, edges, directed=True)
        run = run_algorithm(ALGO(), g, DEV(), variant)
        verify.check_scc(g, run.output["labels"])
        assert len(set(run.output["labels"].tolist())) == 4

    def test_two_cycles_bridged(self):
        # 0->1->2->0 and 3->4->5->3 with a one-way bridge 2->3
        edges = np.array([(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                          (2, 3)])
        g = CSRGraph.from_edges(6, edges, directed=True)
        run = run_algorithm(ALGO(), g, DEV(), Variant.RACE_FREE)
        verify.check_scc(g, run.output["labels"])
        labels = run.output["labels"]
        assert len(set(labels.tolist())) == 2

    def test_variants_agree(self, tiny_directed):
        base = run_algorithm(ALGO(), tiny_directed, DEV(), Variant.BASELINE)
        free = run_algorithm(ALGO(), tiny_directed, DEV(), Variant.RACE_FREE)
        assert np.array_equal(base.output["labels"], free.output["labels"])

    def test_mesh_graph(self):
        g = gen.directed_torus(6, 5)
        run = run_algorithm(ALGO(), g, DEV(), Variant.BASELINE)
        verify.check_scc(g, run.output["labels"])
        assert len(set(run.output["labels"].tolist())) == 1

    @settings(max_examples=12, deadline=None)
    @given(st.integers(6, 40), st.floats(1.0, 3.0), st.integers(0, 100))
    def test_random_digraphs_verified(self, n, avg, seed):
        g = gen.directed_powerlaw(n, avg, seed=seed)
        run = run_algorithm(ALGO(), g, DEV(), Variant.RACE_FREE)
        verify.check_scc(g, run.output["labels"])


class TestAccessProfile:
    def test_baseline_pathmax_is_plain(self, tiny_directed):
        run = run_algorithm(ALGO(), tiny_directed, DEV(), Variant.BASELINE)
        assert run.stats.plain_loads > 0
        assert run.stats.atomic_loads == 0

    def test_racefree_substantially_slower(self):
        """The paper's SCC result (geomean 0.50-0.81)."""
        g = gen.directed_powerlaw(800, 8.0, seed=5)
        base = run_algorithm(ALGO(), g, DEV(), Variant.BASELINE)
        free = run_algorithm(ALGO(), g, DEV(), Variant.RACE_FREE)
        assert base.runtime_ms / free.runtime_ms < 0.95

    def test_goagain_contention_only_racefree(self, tiny_directed):
        base = run_algorithm(ALGO(), tiny_directed, DEV(), Variant.BASELINE)
        free = run_algorithm(ALGO(), tiny_directed, DEV(), Variant.RACE_FREE)
        assert base.stats.contended_atomics == 0
        assert free.stats.contended_atomics > 0

    def test_mesh_needs_more_rounds_than_powerlaw(self):
        """Long mesh diameters drive SCC's propagation round count."""
        mesh = gen.directed_torus(16, 16)
        pl = gen.directed_powerlaw(256, 6.0, seed=2)
        mesh_run = run_algorithm(ALGO(), mesh, DEV(), Variant.BASELINE)
        pl_run = run_algorithm(ALGO(), pl, DEV(), Variant.BASELINE)
        assert mesh_run.rounds > pl_run.rounds


class TestSimtLevel:
    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("seed", [0, 1])
    def test_correct_under_schedules(self, tiny_directed, variant, seed):
        labels, _ = scc.run_simt(tiny_directed, variant,
                                 scheduler=RandomScheduler(seed))
        verify.check_scc(tiny_directed, labels)

    def test_adversarial_schedule(self, directed_cycle):
        labels, _ = scc.run_simt(directed_cycle, Variant.RACE_FREE,
                                 scheduler=AdversarialScheduler(4))
        verify.check_scc(directed_cycle, labels)

    def test_baseline_races_on_int2_pairs(self, tiny_directed):
        _, ex = scc.run_simt(tiny_directed, Variant.BASELINE,
                             scheduler=RandomScheduler(6))
        races = RaceDetector().check(ex)
        assert any(r.array == "scc_pathmax" for r in races)

    def test_racefree_clean(self, tiny_directed):
        _, ex = scc.run_simt(tiny_directed, Variant.RACE_FREE,
                             scheduler=RandomScheduler(6))
        assert RaceDetector().check(ex) == []


class TestTarjanReference:
    def test_tarjan_on_known_graph(self):
        edges = np.array([(0, 1), (1, 0), (1, 2), (2, 3), (3, 2)])
        g = CSRGraph.from_edges(4, edges, directed=True)
        comp = verify.tarjan_scc(g)
        assert comp[0] == comp[1]
        assert comp[2] == comp[3]
        assert comp[0] != comp[2]

    def test_tarjan_matches_networkx(self, tiny_directed):
        import networkx as nx

        comp = verify.tarjan_scc(tiny_directed)
        nxg = tiny_directed.to_networkx()
        for component in nx.strongly_connected_components(nxg):
            labels = {int(comp[v]) for v in component}
            assert len(labels) == 1


class TestVerifier:
    def test_rejects_merge(self):
        edges = np.array([(0, 1), (1, 0), (2, 3), (3, 2)])
        g = CSRGraph.from_edges(4, edges, directed=True)
        with pytest.raises(ValidationError):
            verify.check_scc(g, np.zeros(4, dtype=np.int64))

    def test_rejects_split(self, directed_cycle):
        with pytest.raises(ValidationError):
            verify.check_scc(directed_cycle, np.arange(8, dtype=np.int64))


# ----------------------------------------------------------------------
# Pull-table rounds against the scatter rounds
# ----------------------------------------------------------------------

def _reference_run_perf(graph, recorder, trim: bool = False) -> dict:
    """The scatter-round propagation: every round scatters with
    ``np.maximum.at`` and hands the recorder its index arrays.
    ``scc.run_perf`` must match it exactly."""
    n = graph.num_vertices
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)

    labels = np.full(n, -1, dtype=np.int64)
    active_v = np.ones(n, dtype=bool)
    alive_e = np.ones(graph.num_edges, dtype=bool)

    if trim:
        scc._trim_trivial(n, src, dst, labels, active_v, alive_e, recorder)

    recorder.touch("pathmax", 8 * n)
    recorder.touch("csr", 8 * graph.num_edges + 16 * (n + 1))

    def propagate(out_dir: bool) -> np.ndarray:
        val = np.where(active_v, np.arange(n, dtype=np.int64), -1)
        recorder.store("scc.pathmax.write", count=int(active_v.sum()))
        recorder.round()
        edges = np.flatnonzero(alive_e)
        e_src = src[edges]
        e_dst = dst[edges]
        while True:
            recorder.round()
            recorder.structure(edges.size)
            recorder.load("scc.pathmax.read", count=edges.size)
            recorder.compute(edges.size)
            if out_dir:
                contrib = val[e_dst]
                targets = e_src
            else:
                contrib = val[e_src]
                targets = e_dst
            new_val = val.copy()
            np.maximum.at(new_val, targets, contrib)
            improving = contrib > val[targets]
            recorder.store("scc.pathmax.write",
                           indices=targets[improving])
            changed = int(np.count_nonzero(new_val != val))
            if changed:
                recorder.store("scc.goagain.write",
                               indices=np.zeros(changed, dtype=np.int64))
            recorder.load("scc.goagain.read", count=1)
            if changed == 0:
                return val
            val = new_val

    while np.any(active_v):
        fwd = propagate(out_dir=True)
        bwd = propagate(out_dir=False)
        settled = active_v & (fwd == bwd)
        labels[settled] = fwd[settled]
        active_v &= ~settled
        alive_e &= active_v[src] & active_v[dst]

    return {"labels": labels}


def _assert_matches_reference(graph: CSRGraph, trim: bool = False) -> None:
    """Equal labels (and dtype) and equal ``AccessStats``, every field,
    on both variants."""
    plan = algorithm_plan(ALGO())
    for variant in Variant:
        ref = Recorder(plan, variant, staleness_rounds=2, seed=7)
        expected = _reference_run_perf(graph, ref, trim=trim)["labels"]
        rec = Recorder(plan, variant, staleness_rounds=2, seed=7)
        labels = scc.run_perf(graph, rec, trim=trim)["labels"]
        assert labels.dtype == expected.dtype
        assert np.array_equal(labels, expected), variant
        assert rec.stats == ref.stats, variant


def _hub_graph() -> CSRGraph:
    """A 40-cycle whose vertex 0 also points at every other vertex:
    vertex 0's 40 out-edges (two of them parallel) overflow the forward
    propagation's width-2 table."""
    cycle = [(v, (v + 1) % 40) for v in range(40)]
    return _raw_graph(40, cycle + [(0, v) for v in range(1, 40)], False)


@st.composite
def _raw_digraphs(draw):
    n = draw(st.integers(1, 40))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex), max_size=4 * n))
    return _raw_graph(n, edges, symmetric=False)


@pytest.fixture
def tables(monkeypatch):
    """(width, spilled edges) of every pull table a run builds."""
    built = []
    real = scc._pull_table

    def recording(*args):
        table, spill_targets, spill_contributors = real(*args)
        built.append((table.shape[0], spill_targets.shape[0]))
        return table, spill_targets, spill_contributors

    monkeypatch.setattr(scc, "_pull_table", recording)
    return built


class TestPullTableMatchesScatterRounds:
    @pytest.mark.parametrize("trim", [False, True])
    @pytest.mark.parametrize("name", suite_names(directed=True))
    def test_directed_suite_quarter_scale(self, name, trim):
        _assert_matches_reference(load_suite_graph(name, 0.25), trim)

    @pytest.mark.parametrize("name", [
        "cold-flow", "web-Google", "klein-bottle", "flickr", "toroid-hex",
        "star"])
    def test_full_scale(self, name):
        _assert_matches_reference(load_suite_graph(name, 1.0))

    @pytest.mark.parametrize("graph", [
        _raw_graph(1, [], False),
        _raw_graph(1, [(0, 0)], False),
        _raw_graph(6, [], False),
        _raw_graph(7, [(0, 1), (1, 2), (2, 0)], False),
        _raw_graph(4, [(0, 1), (0, 1), (1, 0), (1, 0), (2, 3), (2, 3)],
                   False),
    ], ids=["single", "single-loop", "no-edges", "cycle-isolated",
            "parallel-edges"])
    @pytest.mark.parametrize("trim", [False, True])
    def test_degenerate_graphs(self, graph, trim):
        _assert_matches_reference(graph, trim)

    @pytest.mark.parametrize("trim", [False, True])
    def test_hub_spills_past_the_table(self, trim, tables):
        _assert_matches_reference(_hub_graph(), trim)
        assert (2, 38) in tables  # vertex 0 keeps 2 of its 40 edges

    @settings(max_examples=120, deadline=None)
    @given(_raw_digraphs(), st.booleans())
    def test_random_csrs(self, graph, trim):
        _assert_matches_reference(graph, trim)
