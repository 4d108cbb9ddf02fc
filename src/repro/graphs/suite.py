"""The paper's input suite (Tables II and III) as scaled synthetic recipes.

Each entry pairs the paper's reported properties with a generator call
that reproduces the graph family at roughly 1/256 of the original
vertex count (capped so the largest inputs stay tractable in a Python
simulator).  The relative size ordering of the suite is preserved, which
is what the size-vs-speedup analysis in Section VI.B depends on.

``load_suite_graph(name, scale=...)`` is memoized; pass a different
``scale`` to grow or shrink every input proportionally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from repro.errors import GraphError
from repro.graphs import generators as gen
from repro.graphs.csr import CSRGraph


@dataclass(frozen=True)
class SuiteEntry:
    """One row of Table II or III plus its synthetic recipe."""

    name: str
    kind: str
    directed: bool
    paper_vertices: int
    paper_edges: int
    paper_d_avg: float
    paper_d_max: int
    builder: Callable[[float], CSRGraph]


def _sz(base: int, scale: float, minimum: int = 512) -> int:
    return max(minimum, int(base * scale))


def _entry(name: str, kind: str, directed: bool, pv: int, pe: int,
           d_avg: float, d_max: int,
           builder: Callable[[float], CSRGraph]) -> SuiteEntry:
    return SuiteEntry(name, kind, directed, pv, pe, d_avg, d_max, builder)


# scaled vertex counts: paper vertices / 256, capped at ~98k
UNDIRECTED_SUITE: tuple[SuiteEntry, ...] = (
    _entry("2d-2e20.sym", "grid", False, 1_048_576, 4_190_208, 4.0, 4,
           lambda s: gen.grid2d(max(16, int(64 * s ** 0.5)), name="2d-2e20.sym")),
    _entry("amazon0601", "co-purchases", False, 403_394, 4_886_816, 12.1, 2_752,
           lambda s: gen.preferential_attachment(_sz(1576, s), 6, seed=601,
                                                 name="amazon0601")),
    _entry("as-skitter", "Internet topology", False, 1_696_415, 22_190_596,
           13.1, 35_455,
           lambda s: gen.web_graph(_sz(6627, s), 13.1, seed=71,
                                   name="as-skitter")),
    _entry("citationCiteseer", "publication citations", False, 268_495,
           2_313_294, 8.6, 1_318,
           lambda s: gen.preferential_attachment(_sz(1049, s), 4, seed=17,
                                                 name="citationCiteseer")),
    _entry("cit-Patents", "patent citations", False, 3_774_768, 33_037_894,
           8.8, 793,
           lambda s: gen.preferential_attachment(_sz(14745, s), 4, seed=23,
                                                 name="cit-Patents")),
    _entry("coPapersDBLP", "publication citations", False, 540_486,
           30_491_458, 56.4, 3_299,
           lambda s: gen.copaper_graph(_sz(2111, s), 56.4, seed=31,
                                       name="coPapersDBLP")),
    _entry("delaunay_n24", "triangulation", False, 16_777_216, 100_663_202,
           6.0, 26,
           lambda s: gen.delaunay(_sz(65536, s), seed=24, name="delaunay_n24")),
    _entry("europe_osm", "roadmap", False, 50_912_018, 108_109_320, 2.1, 13,
           lambda s: gen.roadmap(_sz(98304, s), seed=37, extra_fraction=0.03,
                                 name="europe_osm")),
    _entry("in-2004", "weblinks", False, 1_382_908, 27_182_946, 19.7, 21_869,
           lambda s: gen.web_graph(_sz(5402, s), 19.7, seed=41,
                                   name="in-2004")),
    _entry("internet", "Internet topology", False, 124_651, 387_240, 3.1, 151,
           lambda s: gen.internet_topology(_sz(512, s), seed=43,
                                           name="internet")),
    _entry("kron_g500-logn21", "Kronecker", False, 2_097_152, 182_081_864,
           86.8, 213_904,
           lambda s: gen.kronecker(13 + _scale_bits(s), 43, seed=47,
                                   name="kron_g500-logn21")),
    _entry("r4-2e23.sym", "random", False, 8_388_608, 67_108_846, 8.0, 26,
           lambda s: gen.random_uniform(_sz(32768, s), 8.0, seed=53,
                                        name="r4-2e23.sym")),
    _entry("rmat16.sym", "RMAT", False, 65_536, 967_866, 14.8, 569,
           lambda s: gen.rmat(9 + _scale_bits(s), 8, seed=59,
                              name="rmat16.sym")),
    _entry("rmat22.sym", "RMAT", False, 4_194_304, 65_660_814, 15.7, 3_687,
           lambda s: gen.rmat(14 + _scale_bits(s), 8, seed=61,
                              name="rmat22.sym")),
    _entry("soc-LiveJournal1", "community", False, 4_847_571, 85_702_474,
           17.7, 20_333,
           lambda s: gen.community_graph(_sz(18935, s), 17.7, 96, seed=67,
                                         name="soc-LiveJournal1")),
    _entry("USA-road-d.NY", "roadmap", False, 264_346, 730_100, 2.8, 8,
           lambda s: gen.roadmap(_sz(1032, s), seed=73, extra_fraction=0.35,
                                 name="USA-road-d.NY")),
    _entry("USA-road-d.USA", "roadmap", False, 23_947_347, 57_708_624, 2.4, 9,
           lambda s: gen.roadmap(_sz(93544, s), seed=79, extra_fraction=0.15,
                                 name="USA-road-d.USA")),
)

DIRECTED_SUITE: tuple[SuiteEntry, ...] = (
    _entry("cage14", "power-law", True, 1_505_785, 27_130_349, 18.02, 41,
           lambda s: gen.cage_graph(_sz(5882, s), seed=83, name="cage14")),
    _entry("circuit5M", "power-law", True, 5_558_326, 59_524_291, 10.71,
           1_290_501,
           lambda s: gen.circuit_graph(_sz(21712, s), seed=89,
                                       name="circuit5M")),
    _entry("cold-flow", "mesh", True, 2_112_512, 6_295_941, 2.98, 5,
           lambda s: gen.layered_flow(_sz(8252, s), seed=97,
                                      name="cold-flow")),
    _entry("flickr", "power-law", True, 820_878, 9_837_214, 11.98, 10_272,
           lambda s: gen.directed_powerlaw(_sz(3206, s), 11.98, seed=101,
                                           name="flickr")),
    _entry("klein-bottle", "mesh", True, 8_388_608, 18_793_715, 2.24, 4,
           lambda s: gen.klein_bottle_mesh(
               max(32, int(256 * s ** 0.5)), max(16, int(128 * s ** 0.5)),
               name="klein-bottle")),
    _entry("star", "mesh", True, 327_680, 654_080, 2.00, 2,
           lambda s: gen.star_mesh(_sz(1280, s), name="star")),
    _entry("toroid-hex", "mesh", True, 1_572_864, 4_684_142, 2.98, 4,
           lambda s: gen.directed_torus(
               max(16, int(96 * s ** 0.5)), max(16, int(64 * s ** 0.5)),
               chord=3, name="toroid-hex")),
    _entry("toroid-wedge", "mesh", True, 196_608, 487_798, 2.48, 4,
           lambda s: gen.directed_torus(
               max(8, int(32 * s ** 0.5)), max(8, int(24 * s ** 0.5)),
               chord=0, name="toroid-wedge")),
    _entry("web-Google", "power-law", True, 916_428, 5_105_039, 5.57, 456,
           lambda s: gen.directed_powerlaw(_sz(3579, s), 5.57, seed=103,
                                           name="web-Google")),
    _entry("wikipedia", "power-law", True, 3_148_440, 39_383_235, 12.51,
           6_576,
           lambda s: gen.directed_powerlaw(_sz(12298, s), 12.51, seed=107,
                                           name="wikipedia")),
)

_BY_NAME: dict[str, SuiteEntry] = {
    e.name: e for e in UNDIRECTED_SUITE + DIRECTED_SUITE
}


def _scale_bits(scale: float) -> int:
    """Extra log2 levels for generators parameterized by scale exponent."""
    bits = 0
    while scale >= 2.0:
        scale /= 2.0
        bits += 1
    while scale <= 0.5 and bits > -4:
        scale *= 2.0
        bits -= 1
    return bits


def suite_names(directed: bool | None = None) -> list[str]:
    """Names of the suite inputs, optionally filtered by direction."""
    entries = UNDIRECTED_SUITE + DIRECTED_SUITE
    if directed is not None:
        entries = tuple(e for e in entries if e.directed == directed)
    return [e.name for e in entries]


def suite_entry(name: str) -> SuiteEntry:
    """Look up a suite entry by its paper name."""
    try:
        return _BY_NAME[name]
    except KeyError:
        raise GraphError(
            f"unknown suite graph {name!r}; known: {sorted(_BY_NAME)}"
        ) from None


def load_suite_graph(name: str, scale: float = 1.0) -> CSRGraph:
    """Build (and memoize) the scaled synthetic analog of a paper input.

    The cache is process-wide and shared by every study, sweep worker
    task, and bench module in the process — a multi-study session (or
    a pool worker serving many cells) builds each (name, scale) CSR
    exactly once.  It is keyed on ``(name, float(scale))``, so every
    call form of one input (``scale`` positional, keyword, defaulted,
    ``1`` or ``1.0``) shares one build; ``load_suite_graph.cache_info()``
    reports the cache, with ``misses`` counting builds.
    """
    return _build_suite_graph(name, float(scale))


@lru_cache(maxsize=256)
def _build_suite_graph(name: str, scale: float) -> CSRGraph:
    return suite_entry(name).builder(scale)


load_suite_graph.cache_info = _build_suite_graph.cache_info


#: (graph fingerprint, weight seed) -> weighted copy.  Process-wide,
#: content-keyed: every study requesting weights for the same graph —
#: MST and APSP re-prepare per (device, variant) run — shares one
#: weighted instance instead of regenerating and re-hashing the arrays.
_WEIGHTED_CACHE: dict[tuple[str, int], CSRGraph] = {}


def weighted_graph(graph: CSRGraph, seed: int = 12345) -> CSRGraph:
    """``graph.with_random_weights(seed)``, cached by graph content."""
    if graph.has_weights:
        return graph
    key = (graph.fingerprint(), seed)
    cached = _WEIGHTED_CACHE.get(key)
    if cached is None:
        cached = graph.with_random_weights(seed=seed)
        _WEIGHTED_CACHE[key] = cached
    return cached
