"""ECL-APSP: all-pairs shortest paths via blocked Floyd-Warshall.

APSP is the suite's only *regular* code (Section IV.A): it processes a
dense shared distance matrix with constant strides, each element is
written by exactly one thread per phase, and the blocked structure of
the Floyd-Warshall algorithm (diagonal tile, then the tile's row and
column, then the remainder) orders all conflicting accesses with
barriers.  It therefore has **no data races** and — like the paper — is
implemented and validated but excluded from the speedup study.

The SIMT kernel exists precisely to demonstrate that: the race detector
finds nothing, under any schedule.
"""

from __future__ import annotations

import numpy as np

from repro.core.transform import AccessPlan, AccessSite, site_kind
from repro.core.variants import AlgorithmInfo, Variant, register_algorithm
from repro.gpu.accesses import AccessKind
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx

#: every site is marked unshared: the blocked schedule guarantees only
#: one thread touches a given element between barriers, so the
#: race-removal transform is (correctly) a no-op for APSP
ACCESS_PLAN = AccessPlan("apsp", (
    AccessSite("apsp.dist.read", AccessKind.PLAIN, shared=False),
    AccessSite("apsp.dist.write", AccessKind.PLAIN, is_store=True,
               shared=False),
))

#: the shared-memory tile kernel's sites.  The *tile* accesses conflict
#: across threads (thread (i,j) reads row i and column j cells staged by
#: other threads), so they are repairable; the global-distance accesses
#: are element-private and marked unshared.
SHARED_PLAN = AccessPlan("apsp_shared", (
    AccessSite("apsp.tile.read", AccessKind.PLAIN),
    AccessSite("apsp.tile.write", AccessKind.PLAIN, is_store=True),
    AccessSite("apsp.gdist.read", AccessKind.PLAIN, shared=False),
    AccessSite("apsp.gdist.write", AccessKind.PLAIN, is_store=True,
               shared=False),
))

#: the one barrier slot of the shared-memory kernel: it gates the
#: post-staging barrier *and* every per-k barrier (the real code's
#: ``__syncthreads()`` sites stand or fall together — dropping any one
#: of them is the same missing-ordering bug)
APSP_SYNC_SLOT = "apsp.sync"

INF = 1 << 40
TILE = 64  # the paper's 64x64 subblocks


def run_perf(graph, recorder) -> dict:
    """Blocked Floyd-Warshall with recorded accesses.

    Both variants are identical (the plan has no racy site).  Intended
    for small graphs — the distance matrix is dense.
    """
    if not graph.has_weights:
        graph = graph.with_random_weights(seed=recorder.repetition_seed())
    n = graph.num_vertices
    dist = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(dist, 0)
    src, dst = graph.edge_array()
    np.minimum.at(dist, (src, dst), graph.weights)

    recorder.touch("dist", 8 * n * n)
    for k in range(n):
        # one fused launch per TILE iterations in the real code
        if k % TILE == 0:
            recorder.round(launches=3)  # diagonal / row+col / remainder
        recorder.load("apsp.dist.read", count=2 * n * n)
        recorder.compute(n * n)
        relaxed = dist[:, k, None] + dist[None, k, :]
        improved = relaxed < dist
        recorder.store("apsp.dist.write",
                       count=int(np.count_nonzero(improved)))
        np.minimum(dist, relaxed, out=dist)
    return {"dist": dist}


def make_apsp_kernel():
    """One thread per matrix element, barrier-separated k iterations."""

    def apsp_kernel(ctx: ThreadCtx, dist, n):
        i, j = divmod(ctx.tid, n)
        for k in range(n):
            dik = yield ctx.load(dist, i * n + k, AccessKind.PLAIN)
            dkj = yield ctx.load(dist, k * n + j, AccessKind.PLAIN)
            dij = yield ctx.load(dist, i * n + j, AccessKind.PLAIN)
            if dik + dkj < dij:
                yield ctx.store(dist, i * n + j, dik + dkj,
                                AccessKind.PLAIN)
            yield ctx.barrier()

    return apsp_kernel


def run_simt(graph, scheduler=None,
             executor: SimtExecutor | None = None):
    """Run APSP on the SIMT interpreter (tiny graphs: n^2 threads)."""
    from repro.gpu.accesses import DType

    if not graph.has_weights:
        graph = graph.with_random_weights(seed=0)
    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    dist = mem.alloc("apsp_dist", n * n, DType.I64)
    init = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(init, 0)
    src, dst = graph.edge_array()
    np.minimum.at(init, (src, dst), graph.weights)
    mem.upload(dist, init.ravel())

    # one block: Floyd-Warshall needs a global barrier per k iteration
    ex.launch(make_apsp_kernel(), n * n, dist, n, block_dim=n * n)
    result = mem.download(dist).reshape(n, n)
    mem.free("apsp_dist")
    return result, ex


def make_apsp_shared_kernel(sync: bool = True,
                            variant: Variant = Variant.BASELINE):
    """Floyd-Warshall over a ``__shared__`` tile (ECL-APSP's key
    optimization: "utilizing the shared memory on the GPU ...
    significantly reduces global memory accesses").

    One block stages the distance tile into shared memory, iterates k
    with block barriers, and writes the result back — a faithful
    miniature of the paper code's diagonal-tile phase.  With
    ``sync=False`` every barrier (the :data:`APSP_SYNC_SLOT` slot) is
    elided, which makes the tile accesses race — this is the repair
    pipeline's entry point: the only fix that restores the blocked
    schedule's ordering is re-enabling the slot.  The tile accesses are
    kind-driven through :data:`SHARED_PLAN`, so promotion candidates
    apply without source edits.
    """
    tile_read = site_kind(SHARED_PLAN, variant, "apsp.tile.read")
    tile_write = site_kind(SHARED_PLAN, variant, "apsp.tile.write")
    gdist_read = site_kind(SHARED_PLAN, variant, "apsp.gdist.read")
    gdist_write = site_kind(SHARED_PLAN, variant, "apsp.gdist.write")

    def apsp_shared_kernel(ctx: ThreadCtx, dist, n):
        tile = ctx.shared("tile")
        i, j = divmod(ctx.tid, n)
        v = yield ctx.load(dist, i * n + j, gdist_read,
                           site="apsp.gdist.read")
        yield ctx.store(tile, i * n + j, v, tile_write,
                        site="apsp.tile.write")
        if sync:
            yield ctx.barrier()
        for k in range(n):
            dik = yield ctx.load(tile, i * n + k, tile_read,
                                 site="apsp.tile.read")
            dkj = yield ctx.load(tile, k * n + j, tile_read,
                                 site="apsp.tile.read")
            dij = yield ctx.load(tile, i * n + j, tile_read,
                                 site="apsp.tile.read")
            if dik + dkj < dij:
                yield ctx.store(tile, i * n + j, dik + dkj,
                                tile_write, site="apsp.tile.write")
            if sync:
                yield ctx.barrier()
        out = yield ctx.load(tile, i * n + j, tile_read,
                             site="apsp.tile.read")
        yield ctx.store(dist, i * n + j, out, gdist_write,
                        site="apsp.gdist.write")

    return apsp_shared_kernel


def run_simt_shared(graph, scheduler=None,
                    executor: SimtExecutor | None = None,
                    sync: bool = True):
    """Run the shared-memory APSP kernel (tiny graphs: one tile)."""
    from repro.gpu.accesses import DType

    if not graph.has_weights:
        graph = graph.with_random_weights(seed=0)
    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    dist = mem.alloc("apsps_dist", n * n, DType.I64)
    init = np.full((n, n), INF, dtype=np.int64)
    np.fill_diagonal(init, 0)
    src, dst = graph.edge_array()
    np.minimum.at(init, (src, dst), graph.weights)
    mem.upload(dist, init.ravel())

    ex.launch(make_apsp_shared_kernel(sync=sync), n * n, dist, n,
              block_dim=n * n,
              shared={"tile": (n * n, DType.I64)})
    result = mem.download(dist).reshape(n, n)
    mem.free("apsps_dist")
    return result, ex


register_algorithm(AlgorithmInfo(
    key="apsp",
    full_name="all-pairs shortest paths (ECL-APSP)",
    directed=False,
    needs_weights=True,
    has_races=False,
    perf_runner=run_perf,
    module="repro.algorithms.apsp",
))
