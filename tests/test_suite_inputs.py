"""Tests for the scaled paper-input suite (Tables II and III analogs)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.errors import GraphError
from repro.graphs.properties import compute_properties
from repro.graphs.suite import (
    DIRECTED_SUITE,
    UNDIRECTED_SUITE,
    load_suite_graph,
    suite_entry,
    suite_names,
    weighted_graph,
)

#: fingerprints of every suite graph and its ``weighted_graph`` copy,
#: per scale, banked from a build before the edge-list sorts changed
SUITE_GRAPHS = json.loads(
    (Path(__file__).parent / "data" / "suite_graphs.json").read_text())


class TestCatalog:
    def test_table2_has_17_inputs(self):
        assert len(UNDIRECTED_SUITE) == 17

    def test_table3_has_10_inputs(self):
        assert len(DIRECTED_SUITE) == 10

    def test_names_filterable(self):
        assert len(suite_names(directed=False)) == 17
        assert len(suite_names(directed=True)) == 10
        assert len(suite_names()) == 27

    def test_unknown_name_rejected(self):
        with pytest.raises(GraphError):
            suite_entry("no-such-graph")

    def test_paper_properties_recorded(self):
        e = suite_entry("soc-LiveJournal1")
        assert e.paper_vertices == 4_847_571
        assert e.paper_edges == 85_702_474
        assert e.kind == "community"


@pytest.mark.parametrize("name", suite_names(directed=False))
def test_undirected_inputs_build_and_are_symmetric(name):
    g = load_suite_graph(name)
    assert not g.directed
    assert g.num_vertices >= 256
    # spot-check symmetry cheaply on a slice of edges
    src, dst = g.edge_array()
    pairs = set(zip(src[:3000].tolist(), dst[:3000].tolist()))
    all_pairs = set(zip(src.tolist(), dst.tolist()))
    assert all((v, u) in all_pairs for (u, v) in pairs)


@pytest.mark.parametrize("name", suite_names(directed=True))
def test_directed_inputs_build(name):
    g = load_suite_graph(name)
    assert g.directed
    assert g.num_vertices >= 256


def test_relative_size_ordering_preserved():
    """Section VI.B analyzes speedup vs. size: the scaled suite must keep
    the big-vs-small ordering of the originals (for clearly separated
    sizes)."""
    big = load_suite_graph("europe_osm")
    small = load_suite_graph("internet")
    assert big.num_vertices > 20 * small.num_vertices


def test_degree_regimes_match_paper():
    road = compute_properties(load_suite_graph("USA-road-d.USA"))
    dense = compute_properties(load_suite_graph("coPapersDBLP"))
    assert road.d_avg < 4.0        # paper: 2.4
    assert dense.d_avg > 25.0      # paper: 56.4


def test_scale_parameter_grows_inputs():
    base = load_suite_graph("citationCiteseer", scale=1.0)
    bigger = load_suite_graph("citationCiteseer", scale=2.0)
    assert bigger.num_vertices > base.num_vertices


def test_memoization_returns_same_object():
    a = load_suite_graph("internet")
    b = load_suite_graph("internet")
    assert a is b


def test_memo_key_ignores_call_form():
    """One (name, scale) is one build, however the call spells it."""
    first = load_suite_graph("toroid-wedge")
    misses = load_suite_graph.cache_info().misses
    assert load_suite_graph("toroid-wedge", 1.0) is first
    assert load_suite_graph("toroid-wedge", scale=1.0) is first
    assert load_suite_graph("toroid-wedge", 1) is first
    assert load_suite_graph.cache_info().misses == misses


@pytest.mark.parametrize("scale", sorted(SUITE_GRAPHS))
@pytest.mark.parametrize("name", suite_names())
def test_suite_graph_content_is_pinned(name, scale):
    graph = load_suite_graph(name, float(scale))
    banked = SUITE_GRAPHS[scale][name]
    assert graph.fingerprint() == banked["graph"]
    assert weighted_graph(graph).fingerprint() == banked["weighted"]


def test_paper_properties_track_study_scale():
    """Table IX correlates against the graphs actually run, so the
    properties must follow the study's scale factor."""
    from repro.core.study import paper_properties

    base = paper_properties("citationCiteseer")
    scaled = paper_properties("citationCiteseer", scale=2.0)
    assert scaled[1] > base[1]  # more vertices at scale 2
    g = load_suite_graph("citationCiteseer", scale=2.0)
    assert scaled == (g.num_edges, g.num_vertices,
                      g.num_edges / g.num_vertices)


def test_weighted_graph_cached_by_content():
    from repro.graphs.suite import weighted_graph

    g = load_suite_graph("internet")
    w1 = weighted_graph(g)
    w2 = weighted_graph(g)
    assert w1 is w2
    assert w1.has_weights
    assert weighted_graph(w1) is w1  # already weighted: no-op
