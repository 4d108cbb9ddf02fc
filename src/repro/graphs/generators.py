"""Synthetic graph generators standing in for the paper's inputs.

The paper evaluates on 17 undirected (Table II) and 10 directed
(Table III) real-world and synthetic graphs spanning grids, roadmaps,
triangulations, RMAT/Kronecker graphs, citation/co-purchase/community
networks, internet topologies, and finite-element meshes.  We cannot
ship the originals (multi-GB downloads; no network), so each family has
a generator here that reproduces its *structural regime*: degree
distribution (average and skew), diameter class (mesh-like vs.
small-world), and — for the directed inputs — the SCC structure that
drives the ECL-SCC workload (mesh graphs: few large components;
power-law graphs: one giant component plus many trivial ones).

All generators are deterministic given their ``seed``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import GraphError
from repro.graphs.csr import CSRGraph


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def _edges_to_graph(
    n: int,
    edges: np.ndarray,
    name: str,
    directed: bool,
    symmetrize: bool,
) -> CSRGraph:
    return CSRGraph.from_edges(
        n, edges, directed=directed, symmetrize=symmetrize, name=name
    )


# ----------------------------------------------------------------------
# Regular / mesh-like undirected families
# ----------------------------------------------------------------------

def grid2d(side: int, name: str = "") -> CSRGraph:
    """A ``side`` x ``side`` 4-neighbor grid (the ``2d-2e20.sym`` family)."""
    if side < 2:
        raise GraphError(f"grid side must be >= 2, got {side}")
    idx = np.arange(side * side, dtype=np.int64).reshape(side, side)
    horiz = np.stack([idx[:, :-1].ravel(), idx[:, 1:].ravel()], axis=1)
    vert = np.stack([idx[:-1, :].ravel(), idx[1:, :].ravel()], axis=1)
    edges = np.concatenate([horiz, vert])
    return _edges_to_graph(side * side, edges, name or f"grid2d-{side}",
                           directed=False, symmetrize=True)


def roadmap(n: int, seed: int = 0, extra_fraction: float = 0.12,
            name: str = "") -> CSRGraph:
    """A sparse road-network analog (``europe_osm`` / ``USA-road`` family).

    Built as a random spanning tree of a 2-D grid plus a small fraction
    of the remaining grid edges, yielding an average degree near 2.1-2.8
    and a very large diameter — the regime of the OSM/USA road inputs.
    """
    side = max(2, int(np.sqrt(n)))
    grid = grid2d(side)
    rng = _rng(seed)
    src, dst = grid.edge_array()
    keep = src < dst  # one direction per undirected edge
    src, dst = src[keep], dst[keep]
    order = rng.permutation(src.shape[0])
    src, dst = src[order], dst[order]

    parent = np.arange(side * side, dtype=np.int64)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    tree_edges = []
    extra_edges = []
    for u, v in zip(src.tolist(), dst.tolist()):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            tree_edges.append((u, v))
        else:
            extra_edges.append((u, v))
    n_extra = int(len(extra_edges) * extra_fraction)
    edges = np.array(tree_edges + extra_edges[:n_extra], dtype=np.int64)
    return _edges_to_graph(side * side, edges, name or f"roadmap-{side * side}",
                           directed=False, symmetrize=True)


def delaunay(n: int, seed: int = 0, name: str = "") -> CSRGraph:
    """A Delaunay triangulation of random points (``delaunay_n24`` family).

    Average degree ~6, planar, mesh-like — matching Table II's entry.
    """
    from scipy.spatial import Delaunay

    rng = _rng(seed)
    points = rng.random((n, 2))
    tri = Delaunay(points)
    simplices = tri.simplices.astype(np.int64)
    edges = np.concatenate([
        simplices[:, [0, 1]], simplices[:, [1, 2]], simplices[:, [0, 2]]
    ])
    return _edges_to_graph(n, edges, name or f"delaunay-{n}",
                           directed=False, symmetrize=True)


def random_uniform(n: int, avg_degree: float, seed: int = 0,
                   name: str = "") -> CSRGraph:
    """Uniform random graph (the ``r4-2e23.sym`` family).

    Each of ``n * avg_degree / 2`` undirected edges picks endpoints
    uniformly; the resulting degree distribution is binomial (d-max a
    small multiple of d-avg, as in Table II).
    """
    rng = _rng(seed)
    m = int(n * avg_degree / 2)
    edges = rng.integers(0, n, size=(m, 2), dtype=np.int64)
    return _edges_to_graph(n, edges, name or f"random-{n}",
                           directed=False, symmetrize=True)


# ----------------------------------------------------------------------
# Power-law / small-world undirected families
# ----------------------------------------------------------------------

def rmat(scale: int, edge_factor: int, seed: int = 0,
         a: float = 0.57, b: float = 0.19, c: float = 0.19,
         directed: bool = False, name: str = "") -> CSRGraph:
    """Recursive-matrix (RMAT) graph (``rmat16/22``, and with skewed
    parameters the ``kron_g500`` Graph500 family).

    ``n = 2**scale`` vertices and ``n * edge_factor`` edge samples
    distributed by recursive quadrant choice with probabilities
    ``(a, b, c, 1-a-b-c)``.
    """
    if not 0 < a + b + c < 1:
        raise GraphError("rmat probabilities must satisfy 0 < a+b+c < 1")
    n = 1 << scale
    m = n * edge_factor
    rng = _rng(seed)
    src = np.zeros(m, dtype=np.int64)
    dst = np.zeros(m, dtype=np.int64)
    for bit in range(scale):
        r = rng.random(m)
        # quadrant: 0 = (0,0), 1 = (0,1), 2 = (1,0), 3 = (1,1)
        go_right = (r >= a) & (r < a + b) | (r >= a + b + c)
        go_down = r >= a + b
        src = (src << 1) | go_down.astype(np.int64)
        dst = (dst << 1) | go_right.astype(np.int64)
    edges = np.stack([src, dst], axis=1)
    return _edges_to_graph(n, edges, name or f"rmat-{scale}",
                           directed=directed, symmetrize=not directed)


def kronecker(scale: int, edge_factor: int, seed: int = 0,
              name: str = "") -> CSRGraph:
    """Graph500-style Kronecker graph: RMAT with the standard skewed
    (0.57, 0.19, 0.19) parameters and a large edge factor, yielding the
    extreme hubs of ``kron_g500-logn21`` (d-max ~100x d-avg)."""
    return rmat(scale, edge_factor, seed=seed, a=0.65, b=0.16, c=0.16,
                name=name or f"kron-{scale}")


def preferential_attachment(n: int, m: int, seed: int = 0,
                            name: str = "") -> CSRGraph:
    """Barabasi-Albert preferential attachment (citation / co-purchase
    networks: ``amazon0601``, ``citationCiteseer``, ``cit-Patents``).

    Every new vertex attaches to ``m`` existing vertices chosen
    proportionally to degree, giving a power-law tail with moderate
    maximum degree.
    """
    if m < 1 or n <= m:
        raise GraphError(f"need n > m >= 1, got n={n}, m={m}")
    rng = _rng(seed)
    # every edge's endpoints, so a uniform pick is proportional to degree
    pool: list[int] = []
    # seed clique among the first m + 1 vertices
    seeds = []
    for u in range(m + 1):
        for v in range(u + 1, m + 1):
            seeds.append((u, v))
            pool += (u, v)
    edges = [np.array(seeds, dtype=np.int64)]
    batch = []
    for u in range(m + 1, n):
        picks = rng.integers(0, len(pool), size=m).tolist()
        for v in sorted({pool[i] for i in picks}):
            batch.append((u, v))
            pool += (u, v)
    if batch:
        edges.append(np.array(batch, dtype=np.int64))
    return _edges_to_graph(n, np.concatenate(edges),
                           name or f"pa-{n}-{m}", directed=False,
                           symmetrize=True)


def internet_topology(n: int, seed: int = 0, name: str = "") -> CSRGraph:
    """AS-level internet topology analog (``internet``, ``as-skitter``).

    Preferential attachment with m alternating between 1 and 2 plus a
    sprinkle of peering edges among high-degree vertices; average degree
    ~3 with a heavy tail.
    """
    rng = _rng(seed)
    base = preferential_attachment(n, 1, seed=seed)
    src, dst = base.edge_array()
    keep = src < dst
    edges = [np.stack([src[keep].astype(np.int64),
                       dst[keep].astype(np.int64)], axis=1)]
    # extra multi-homing edges for half the vertices
    extra_n = n // 2
    u = rng.integers(n // 4, n, size=extra_n, dtype=np.int64)
    # peer preferentially with low ids (the early, high-degree vertices)
    v = (rng.pareto(1.5, size=extra_n) * 8).astype(np.int64) % np.maximum(u, 1)
    edges.append(np.stack([u, v], axis=1))
    return _edges_to_graph(n, np.concatenate(edges),
                           name or f"internet-{n}", directed=False,
                           symmetrize=True)


def community_graph(n: int, avg_degree: float, communities: int,
                    seed: int = 0, name: str = "") -> CSRGraph:
    """Community-structured social network (``soc-LiveJournal1`` family).

    Vertices are split into power-law-sized communities; ~90 % of edges
    are intra-community (degree-skewed), 10 % global.
    """
    rng = _rng(seed)
    m = int(n * avg_degree / 2)
    # power-law community sizes
    raw = rng.pareto(1.2, size=communities) + 1.0
    bounds = np.concatenate([[0], np.cumsum(raw / raw.sum())]) * n
    bounds = bounds.astype(np.int64)
    bounds[-1] = n
    intra = int(m * 0.9)
    comm_of_edge = rng.integers(0, communities, size=intra)
    lo = bounds[comm_of_edge]
    hi = np.maximum(bounds[comm_of_edge + 1], lo + 2)
    span = hi - lo
    # skewed endpoint choice inside the community: square a uniform
    u = lo + ((rng.random(intra) ** 2) * span).astype(np.int64)
    v = lo + (rng.random(intra) * span).astype(np.int64)
    inter = m - intra
    gu = rng.integers(0, n, size=inter, dtype=np.int64)
    gv = ((rng.random(inter) ** 2) * n).astype(np.int64)
    edges = np.stack([np.concatenate([u, gu]), np.concatenate([v, gv])], axis=1)
    edges = np.clip(edges, 0, n - 1)
    return _edges_to_graph(n, edges, name or f"community-{n}",
                           directed=False, symmetrize=True)


def web_graph(n: int, avg_degree: float, seed: int = 0,
              directed: bool = False, name: str = "") -> CSRGraph:
    """Web-link graph analog (``in-2004``; directed: ``web-Google``,
    ``wikipedia``, ``flickr``).

    Host-clustered power-law: pages belong to hosts (runs of ids); most
    links are intra-host plus hub-directed global links, producing the
    high clustering and heavy tail of crawled web graphs.
    """
    rng = _rng(seed)
    m = int(n * avg_degree / (1 if directed else 2))
    host_size = 32
    intra = int(m * 0.7)
    page = rng.integers(0, n, size=intra, dtype=np.int64)
    offset = rng.integers(1, host_size, size=intra, dtype=np.int64)
    target = (page // host_size) * host_size + offset
    target = np.minimum(target, n - 1)
    inter = m - intra
    gu = rng.integers(0, n, size=inter, dtype=np.int64)
    gv = ((rng.random(inter) ** 3) * n).astype(np.int64)  # strong hubs
    edges = np.stack([np.concatenate([page, gu]),
                      np.concatenate([target, gv])], axis=1)
    return _edges_to_graph(n, edges, name or f"web-{n}",
                           directed=directed, symmetrize=not directed)


def copaper_graph(n: int, avg_degree: float, seed: int = 0,
                  name: str = "") -> CSRGraph:
    """Co-authorship clique expansion (``coPapersDBLP``: d-avg 56).

    Papers become cliques over their authors, which is why co-paper
    graphs have very high average degree; we sample power-law-sized
    cliques until the edge budget is met.
    """
    rng = _rng(seed)
    target_m = int(n * avg_degree / 2)
    edges = []
    total = 0
    while total < target_m:
        size = min(2 + int(rng.pareto(1.6) * 4), 40)
        members = rng.integers(0, n, size=size, dtype=np.int64)
        iu, iv = np.triu_indices(size, k=1)
        edges.append(np.stack([members[iu], members[iv]], axis=1))
        total += iu.shape[0]
    return _edges_to_graph(n, np.concatenate(edges),
                           name or f"copaper-{n}", directed=False,
                           symmetrize=True)


# ----------------------------------------------------------------------
# Directed families for SCC (Table III)
# ----------------------------------------------------------------------

def directed_torus(width: int, height: int, chord: int = 0,
                   name: str = "") -> CSRGraph:
    """A directed torus mesh (``toroid-hex`` / ``toroid-wedge`` family).

    Every vertex points right and down with wraparound, so the whole
    torus is one large SCC with a large diameter — the mesh regime where
    ECL-SCC's max-ID propagation runs many rounds.  ``chord`` adds a
    third out-edge skipping ``chord`` columns (hex-like connectivity,
    raising d-avg towards 3).
    """
    n = width * height
    idx = np.arange(n, dtype=np.int64).reshape(height, width)
    right = np.stack([idx.ravel(), np.roll(idx, -1, axis=1).ravel()], axis=1)
    down = np.stack([idx.ravel(), np.roll(idx, -1, axis=0).ravel()], axis=1)
    parts = [right, down]
    if chord > 0:
        skip = np.stack([idx.ravel(), np.roll(idx, -chord, axis=1).ravel()],
                        axis=1)
        parts.append(skip)
    return _edges_to_graph(n, np.concatenate(parts),
                           name or f"torus-{width}x{height}", directed=True,
                           symmetrize=False)


def klein_bottle_mesh(width: int, height: int, name: str = "") -> CSRGraph:
    """A directed quad mesh on a Klein bottle (``klein-bottle`` family).

    Like a torus, but the vertical wraparound reverses orientation
    (the Klein-bottle twist).  Average out-degree ~2.2 after deduping
    boundary duplicates, matching Table III.
    """
    n = width * height
    idx = np.arange(n, dtype=np.int64).reshape(height, width)
    right = np.stack([idx.ravel(), np.roll(idx, -1, axis=1).ravel()], axis=1)
    down_body = np.stack([idx[:-1].ravel(), idx[1:].ravel()], axis=1)
    # twist: last row wraps to the first row with columns mirrored
    twist = np.stack([idx[-1], idx[0][::-1]], axis=1)
    # every 4th vertex gets a skip edge, lifting d-avg towards ~2.25
    flat = idx.ravel()
    skip = np.stack([flat[::4], np.roll(idx, -2, axis=1).ravel()[::4]], axis=1)
    edges = np.concatenate([right, down_body, twist, skip])
    return _edges_to_graph(n, edges, name or f"klein-{width}x{height}",
                           directed=True, symmetrize=False)


def star_mesh(n: int, name: str = "") -> CSRGraph:
    """A degree-2 directed mesh (the ``star`` input: d-avg 2.0, d-max 2).

    Each vertex points to its ring successor and to a fixed chord,
    forming one large SCC of uniform out-degree 2.
    """
    v = np.arange(n, dtype=np.int64)
    succ = np.stack([v, (v + 1) % n], axis=1)
    chord = np.stack([v, (v + n // 2 + 1) % n], axis=1)
    return _edges_to_graph(n, np.concatenate([succ, chord]),
                           name or f"star-{n}", directed=True,
                           symmetrize=False)


def layered_flow(n: int, seed: int = 0, layers: int = 64,
                 name: str = "") -> CSRGraph:
    """CFD-mesh analog (``cold-flow``): layered 3-D flow volume.

    Vertices sit in layers; edges go forward within/between adjacent
    layers plus sparse recirculation edges backwards, producing several
    medium-size SCCs like a discretized flow field.
    """
    rng = _rng(seed)
    layer_size = max(1, n // layers)
    v = np.arange(n, dtype=np.int64)
    nxt = np.minimum(v + 1, n - 1)
    fwd1 = np.stack([v, nxt], axis=1)
    fwd2 = np.stack([v, np.minimum(v + layer_size, n - 1)], axis=1)
    back_n = n // 3
    bu = rng.integers(layer_size, n, size=back_n, dtype=np.int64)
    bv = bu - rng.integers(1, 2 * layer_size, size=back_n, dtype=np.int64)
    back = np.stack([bu, np.maximum(bv, 0)], axis=1)
    return _edges_to_graph(n, np.concatenate([fwd1, fwd2, back]),
                           name or f"flow-{n}", directed=True,
                           symmetrize=False)


def cage_graph(n: int, seed: int = 0, band: int = 40, avg_degree: int = 18,
               name: str = "") -> CSRGraph:
    """DNA-electrophoresis matrix analog (``cage14``: d-avg 18, d-max 41).

    Near-regular directed graph whose edges stay within a narrow id band
    (banded sparse matrix), with both forward and backward edges so the
    band forms a giant SCC.
    """
    rng = _rng(seed)
    m = n * avg_degree
    src = rng.integers(0, n, size=m, dtype=np.int64)
    offs = rng.integers(-band, band + 1, size=m, dtype=np.int64)
    dst = np.clip(src + offs, 0, n - 1)
    return _edges_to_graph(n, np.stack([src, dst], axis=1),
                           name or f"cage-{n}", directed=True,
                           symmetrize=False)


def circuit_graph(n: int, seed: int = 0, avg_degree: float = 10.7,
                  name: str = "") -> CSRGraph:
    """VLSI-circuit analog (``circuit5M``: power-law with an enormous hub).

    A handful of net vertices (power/clock rails) connect to a large
    fraction of the graph — reproducing circuit5M's d-max of ~23 % of n
    — on top of a sparse random local structure.
    """
    rng = _rng(seed)
    hub_fanout = int(n * 0.2)
    hubs = np.zeros(hub_fanout, dtype=np.int64)  # vertex 0 is the big rail
    hub_dst = rng.integers(0, n, size=hub_fanout, dtype=np.int64)
    hub_edges = np.stack([hubs, hub_dst], axis=1)
    back_edges = np.stack([hub_dst[::8], hubs[::8]], axis=1)
    m = int(n * avg_degree) - hub_fanout
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = np.clip(src + rng.integers(-100, 101, size=m), 0, n - 1)
    local = np.stack([src, dst], axis=1)
    return _edges_to_graph(n, np.concatenate([hub_edges, back_edges, local]),
                           name or f"circuit-{n}", directed=True,
                           symmetrize=False)


def directed_powerlaw(n: int, avg_degree: float, seed: int = 0,
                      reciprocity: float = 0.3, leaf_fraction: float = 0.2,
                      name: str = "") -> CSRGraph:
    """Generic directed power-law graph (``flickr``, ``wikipedia``,
    ``web-Google``): hub-directed edges with partial reciprocity, so one
    giant SCC coexists with many small/trivial components.

    A ``leaf_fraction`` of the highest-id vertices receives no in-edges
    — the crawl-frontier pages of real web graphs, whose SCCs are
    trivial singletons.
    """
    rng = _rng(seed)
    core = max(2, int(n * (1.0 - leaf_fraction)))
    m = int(n * avg_degree / (1.0 + reciprocity))
    src = rng.integers(0, n, size=m, dtype=np.int64)
    dst = ((rng.random(m) ** 2.5) * core).astype(np.int64)
    recip_n = int(m * reciprocity)
    # reciprocate only core-to-core edges so leaves stay in-edge-free
    rs, rd = dst[:recip_n], src[:recip_n]
    keep = rd < core
    edges = np.concatenate([
        np.stack([src, dst], axis=1),
        np.stack([rs[keep], rd[keep]], axis=1),
    ])
    return _edges_to_graph(n, edges, name or f"dpl-{n}", directed=True,
                           symmetrize=False)
