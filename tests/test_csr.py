"""Unit and property tests for the CSR graph representation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph


def edges_strategy(max_n: int = 30, max_m: int = 80):
    return st.integers(min_value=2, max_value=max_n).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(
                st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                max_size=max_m,
            ),
        )
    )


class TestConstruction:
    def test_from_edges_basic(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert list(g.neighbors(0)) == [1]
        assert list(g.neighbors(1)) == [2]

    def test_symmetrize_doubles_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1)], directed=False, symmetrize=True)
        assert g.num_edges == 2
        assert list(g.neighbors(1)) == [0]

    def test_self_loops_dropped(self):
        g = CSRGraph.from_edges(3, [(0, 0), (0, 1)], directed=True)
        assert g.num_edges == 1

    def test_duplicates_deduped(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1), (0, 1)], directed=True)
        assert g.num_edges == 1

    def test_dedupe_keeps_minimum_weight(self):
        g = CSRGraph.from_edges(3, [(0, 1), (0, 1)], directed=True,
                                weights=[9, 4])
        assert g.num_edges == 1
        assert g.weights[0] == 4

    def test_out_of_range_vertex_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(0, 5)], directed=True)

    def test_negative_vertex_rejected(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(2, [(-1, 0)], directed=True)

    def test_empty_graph(self):
        g = CSRGraph.empty(5)
        assert g.num_vertices == 5
        assert g.num_edges == 0
        assert g.degree(3) == 0

    def test_weights_length_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph.from_edges(3, [(0, 1)], directed=True, weights=[1, 2])


class TestValidation:
    def test_bad_offsets_start(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([1, 2]), np.array([0], dtype=np.int32),
                     directed=True)

    def test_decreasing_offsets(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 2, 1]), np.array([0, 1], dtype=np.int32),
                     directed=True)

    def test_offsets_end_mismatch(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 3]), np.array([0], dtype=np.int32),
                     directed=True)

    def test_out_of_range_index(self):
        with pytest.raises(GraphError):
            CSRGraph(np.array([0, 1]), np.array([7], dtype=np.int32),
                     directed=True)


class TestAccessors:
    def test_degrees_match_neighbors(self, small_graph):
        degs = small_graph.degrees()
        for v in range(0, small_graph.num_vertices, 17):
            assert degs[v] == len(small_graph.neighbors(v))

    def test_edge_array_consistent_with_iteration(self, two_triangles):
        src, dst = two_triangles.edge_array()
        assert sorted(zip(src.tolist(), dst.tolist())) == sorted(
            two_triangles.edges())

    def test_vertex_bounds_checked(self, two_triangles):
        with pytest.raises(GraphError):
            two_triangles.neighbors(99)
        with pytest.raises(GraphError):
            two_triangles.degree(-1)


class TestDerived:
    def test_reversed_swaps_edges(self):
        g = CSRGraph.from_edges(3, [(0, 1), (1, 2)], directed=True)
        r = g.reversed()
        assert sorted(r.edges()) == [(1, 0), (2, 1)]

    def test_reversed_twice_is_identity(self, tiny_directed):
        rr = tiny_directed.reversed().reversed()
        assert sorted(rr.edges()) == sorted(tiny_directed.edges())

    def test_symmetric_check(self, two_triangles, tiny_directed):
        assert two_triangles.check_symmetric()

    def test_random_weights_symmetric(self, two_triangles):
        g = two_triangles.with_random_weights(seed=3)
        weight_of = {}
        src, dst = g.edge_array()
        for u, v, w in zip(src.tolist(), dst.tolist(), g.weights.tolist()):
            weight_of[(u, v)] = w
        for (u, v), w in weight_of.items():
            assert weight_of[(v, u)] == w

    def test_random_weights_deterministic(self, two_triangles):
        a = two_triangles.with_random_weights(seed=3).weights
        b = two_triangles.with_random_weights(seed=3).weights
        assert np.array_equal(a, b)

    def test_random_weights_seed_sensitivity(self, small_graph):
        a = small_graph.with_random_weights(seed=1).weights
        b = small_graph.with_random_weights(seed=2).weights
        assert not np.array_equal(a, b)

    def test_to_networkx_roundtrip_counts(self, small_graph):
        nxg = small_graph.to_networkx()
        assert nxg.number_of_nodes() == small_graph.num_vertices
        # undirected networkx collapses both CSR directions into one edge
        assert nxg.number_of_edges() == small_graph.num_edges // 2

    def test_weights_required_for_edge_weights_of(self, two_triangles):
        with pytest.raises(GraphError):
            two_triangles.edge_weights_of(0)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(edges_strategy())
    def test_csr_invariants(self, data):
        n, edges = data
        g = CSRGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                                directed=False, symmetrize=True)
        # offsets monotone, bounded
        assert g.row_offsets[0] == 0
        assert g.row_offsets[-1] == g.num_edges
        assert np.all(np.diff(g.row_offsets) >= 0)
        # symmetry: (u, v) implies (v, u)
        pairs = set(zip(*[a.tolist() for a in g.edge_array()]))
        assert all((v, u) in pairs for (u, v) in pairs)
        # no self-loops
        assert all(u != v for (u, v) in pairs)
        # degrees sum to edge count
        assert int(g.degrees().sum()) == g.num_edges

    @settings(max_examples=150, deadline=None)
    @given(edges_strategy(max_n=12, max_m=40), st.booleans(), st.booleans(),
           st.booleans(), st.data())
    def test_from_edges_matches_naive_reference(self, data, weighted, dedupe,
                                                symmetrize, draw):
        n, edges = data
        weights = (draw.draw(st.lists(st.integers(1, 9), min_size=len(edges),
                                      max_size=len(edges)))
                   if weighted else [None] * len(edges))
        g = CSRGraph.from_edges(n, np.array(edges, dtype=np.int64).reshape(-1, 2),
                                directed=not symmetrize,
                                weights=weights if weighted else None,
                                symmetrize=symmetrize, dedupe=dedupe)
        triples = [(u, v, w) for (u, v), w in zip(edges, weights)]
        if symmetrize:
            triples += [(v, u, w) for u, v, w in triples]
        triples = [t for t in triples if t[0] != t[1]]
        if dedupe:
            lightest = {}
            for u, v, w in triples:
                if (u, v) not in lightest or (weighted
                                              and w < lightest[(u, v)]):
                    lightest[(u, v)] = w
            expected = sorted((u, v, w) for (u, v), w in lightest.items())
        else:
            # a stable sort: parallel edges keep their input order
            expected = sorted(triples, key=lambda t: t[:2])
        src, dst = g.edge_array()
        got_weights = g.weights.tolist() if weighted else [None] * g.num_edges
        assert list(zip(src.tolist(), dst.tolist(), got_weights)) == expected
        assert g.has_weights == weighted
