"""ECL-MST: minimum spanning tree / forest via data-driven Boruvka.

The baseline ECL-MST (Section II.B.5) records "the best neighbor to
merge next" for each union-find set in a shared ``long long`` array
(weight and edge id packed into one 64-bit value, updated with
atomicMin) and walks the parent array with *implicit path compression*.
The parent reads/writes are unprotected in the baseline — the same kind
of racy site as CC's pointer jumping — but path compression keeps their
count low, so the race-free conversion costs little (geomean 0.93-0.97,
Tables IV-VII).

Performance level: Boruvka rounds.  Each round resolves the component
roots of both endpoints of every live edge (jump reads with compression
writes), lets every component pick its minimum cross edge (atomicMin on
the packed 64-bit best slot), hooks the component pairs, and flattens.

SIMT level: a per-edge kernel with find/CAS-hook and a 64-bit packed
atomicMin — including the baseline's racy 64-bit best *reads*, which
can tear (Section II.A's word-tearing discussion is about exactly this
data layout).
"""

from __future__ import annotations

import numpy as np

from repro.core.transform import AccessPlan, AccessSite, site_kind
from repro.core.variants import AlgorithmInfo, Variant, register_algorithm
from repro.gpu.accesses import AccessKind, RMWOp
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx
from repro.utils.arrays import sorted_unique

ACCESS_PLAN = AccessPlan("mst", (
    # union-find parent reads while resolving roots; ECL-MST's shared
    # data structures are already volatile (Section VII: "graph
    # algorithms that already use volatile data structures do not incur
    # much slowdown"), and implicit path compression keeps the count low
    AccessSite("mst.parent.jump_read", AccessKind.VOLATILE),
    # implicit path-compression stores
    AccessSite("mst.parent.jump_write", AccessKind.VOLATILE, is_store=True),
    # reading a component's best-edge slot (64-bit, tears in baseline)
    AccessSite("mst.best.read", AccessKind.VOLATILE, elem_bytes=8),
    # resetting best slots between rounds
    AccessSite("mst.best.write", AccessKind.VOLATILE, elem_bytes=8,
               is_store=True),
    # the best-edge election is an atomicMin in the baseline already
    AccessSite("mst.best.elect", AccessKind.ATOMIC, elem_bytes=8,
               is_rmw=True),
    # hooking components is an atomicCAS in the baseline already
    AccessSite("mst.parent.hook", AccessKind.ATOMIC, is_rmw=True),
))

_NO_EDGE = (1 << 62)  # packed "no best edge" sentinel


def _pack(weight: int, edge: int) -> int:
    """Pack (weight, edge id) so numeric min order is (weight, edge)."""
    return (int(weight) << 32) | int(edge)


def _unpack_edge(packed: int) -> int:
    return int(packed) & 0xFFFFFFFF


# ----------------------------------------------------------------------
# Performance level
# ----------------------------------------------------------------------

def run_perf(graph, recorder, path_compression: bool = True) -> dict:
    """Boruvka MST with recorded accesses.

    Both variants compute identical forests; only access pricing
    differs.  An unweighted graph gets random weights from the
    repetition seed; a pre-weighted one leaves the seed unread.

    ``path_compression=False`` disables the implicit compression for
    ablation: the finds then re-walk full chains every round, and the
    racy-access count — and with it the race-free slowdown — grows
    toward CC's regime (Section VI.A's argument, inverted).
    """
    if not graph.has_weights:
        graph = graph.with_random_weights(seed=recorder.repetition_seed())
    n = graph.num_vertices
    # canonical undirected edges (one direction)
    src_all = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst_all = graph.col_indices.astype(np.int64)
    canon = src_all < dst_all
    eu = src_all[canon]
    ev = dst_all[canon]
    ew = graph.weights[canon]
    edge_csr_index = np.flatnonzero(canon)
    m = eu.shape[0]

    parent = np.arange(n, dtype=np.int64)
    in_mst = np.zeros(graph.num_edges, dtype=bool)
    alive = np.ones(m, dtype=bool)

    recorder.touch("parent", 4 * n)
    recorder.touch("best", 8 * n)
    recorder.touch("edges", 16 * m)
    recorder.store("mst.parent.jump_write", count=n)  # init
    recorder.round()

    packed = (ew.astype(np.int64) << 32) | np.arange(m, dtype=np.int64)

    while True:
        live = np.flatnonzero(alive)
        if live.size == 0:
            break
        recorder.round()
        recorder.structure(2 * live.size)

        # resolve endpoint roots; implicit path compression keeps these
        # walks short, which is why MST's racy-access count stays low
        from repro.algorithms.common import recorded_roots

        write_site = "mst.parent.jump_write" if path_compression else None
        ru = recorded_roots(parent, eu[live], recorder,
                            "mst.parent.jump_read", write_site)
        rv = recorded_roots(parent, ev[live], recorder,
                            "mst.parent.jump_read", write_site)
        if path_compression:
            # apply the implicit compression (stores counted above)
            parent[eu[live]] = ru
            parent[ev[live]] = rv

        cross = ru != rv
        alive[live[~cross]] = False  # intra-component edges die
        if not np.any(cross):
            break
        le = live[cross]
        cu, cv = ru[cross], rv[cross]

        # best-edge election per component (atomicMin on packed slots);
        # only live representatives' slots are reset
        best = np.full(n, _NO_EDGE, dtype=np.int64)
        roots = sorted_unique(np.concatenate([cu, cv]))
        recorder.store("mst.best.write", count=int(roots.size))
        np.minimum.at(best, cu, packed[le])
        np.minimum.at(best, cv, packed[le])
        recorder.rmw("mst.best.elect", indices=np.concatenate([cu, cv]))

        # each component reads its winning edge and hooks along it
        recorder.load("mst.best.read", indices=roots)
        winners = best[roots]
        has_edge = winners != _NO_EDGE
        win_edges = (winners[has_edge] & 0xFFFFFFFF).astype(np.int64)
        win_edges = sorted_unique(win_edges)  # both endpoints may pick it

        in_mst[edge_csr_index[win_edges]] = True
        # hook: smaller root becomes the representative (roots resolved
        # this round, looked up per winning edge)
        root_u = np.full(m, -1, dtype=np.int64)
        root_v = np.full(m, -1, dtype=np.int64)
        root_u[le] = cu
        root_v[le] = cv
        hu = root_u[win_edges]
        hv = root_v[win_edges]
        lo = np.minimum(hu, hv)
        hi = np.maximum(hu, hv)
        np.minimum.at(parent, hi, lo)
        recorder.rmw("mst.parent.hook", indices=hi)
        # break 2-cycles introduced by mutual picks
        cyc = parent[parent[np.arange(n)]] == np.arange(n)
        two_cycle = cyc & (parent != np.arange(n))
        fix = np.flatnonzero(two_cycle)
        keep = fix[parent[fix] > fix]
        parent[keep] = keep

        # no global flatten: ECL-MST relies on the implicit compression
        # the next round's finds perform (Section VI.A)

    total = int(graph.weights[in_mst].sum())
    return {"in_mst": in_mst, "weight": total, "parent": parent}


# ----------------------------------------------------------------------
# SIMT level
# ----------------------------------------------------------------------

def _find(ctx: ThreadCtx, parent, x: int, read_kind, write_kind):
    p = yield ctx.load(parent, x, read_kind,
                       site="mst.parent.jump_read")
    while p != x:
        gp = yield ctx.load(parent, p, read_kind,
                            site="mst.parent.jump_read")
        if gp == p:
            return p
        yield ctx.store(parent, x, gp, write_kind,  # compression
                        site="mst.parent.jump_write")
        x = p
        p = gp
    return x


def make_elect_kernel(variant: Variant):
    """Round phase 1: every live edge bids on both components' slots."""
    jump_read = site_kind(ACCESS_PLAN, variant, "mst.parent.jump_read")
    jump_write = site_kind(ACCESS_PLAN, variant, "mst.parent.jump_write")

    def elect_kernel(ctx: ThreadCtx, eu, ev, ew, parent, best, alive):
        e = ctx.tid
        if e >= eu.length:
            return
        live = yield ctx.load(alive, e)
        if not live:
            return
        u = yield ctx.load(eu, e)
        v = yield ctx.load(ev, e)
        ru = yield from _find(ctx, parent, u, jump_read, jump_write)
        rv = yield from _find(ctx, parent, v, jump_read, jump_write)
        if ru == rv:
            yield ctx.store(alive, e, 0)
            return
        w = yield ctx.load(ew, e)
        key = _pack(w, e)
        yield ctx.atomic_rmw(best, ru, RMWOp.MIN, key,
                             site="mst.best.elect")
        yield ctx.atomic_rmw(best, rv, RMWOp.MIN, key,
                             site="mst.best.elect")

    return elect_kernel


def make_hook_kernel(variant: Variant):
    """Round phase 2: each component hooks along its winning edge."""
    jump_read = site_kind(ACCESS_PLAN, variant, "mst.parent.jump_read")
    jump_write = site_kind(ACCESS_PLAN, variant, "mst.parent.jump_write")
    best_read = site_kind(ACCESS_PLAN, variant, "mst.best.read")

    def hook_kernel(ctx: ThreadCtx, eu, ev, parent, best, in_mst, changed):
        c = ctx.tid
        if c >= best.length:
            return
        root = yield from _find(ctx, parent, c, jump_read, jump_write)
        if root != c:
            return  # not a representative
        packed = yield ctx.load(best, c, best_read,
                                site="mst.best.read")
        if packed >= _NO_EDGE:
            return
        e = _unpack_edge(packed)
        u = yield ctx.load(eu, e)
        v = yield ctx.load(ev, e)
        ru = yield from _find(ctx, parent, u, jump_read, jump_write)
        rv = yield from _find(ctx, parent, v, jump_read, jump_write)
        if ru == rv:
            return
        lo, hi = (ru, rv) if ru < rv else (rv, ru)
        old = yield ctx.atomic_cas(parent, hi, hi, lo,
                                   site="mst.parent.hook")
        if old == hi:
            yield ctx.store(in_mst, e, 1)
            yield ctx.store(changed, 0, 1, AccessKind.ATOMIC)

    return hook_kernel


def run_simt(graph, variant: Variant, seed: int = 0, scheduler=None,
             executor: SimtExecutor | None = None):
    """Run MST on the SIMT interpreter (small graphs only).

    Returns a boolean mask over the *canonical* (u < v) edge list plus
    that edge list, and the executor.
    """
    from repro.gpu.accesses import DType

    if not graph.has_weights:
        graph = graph.with_random_weights(seed=seed)
    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    src_all = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst_all = graph.col_indices.astype(np.int64)
    canon = src_all < dst_all
    eu_np, ev_np = src_all[canon], dst_all[canon]
    ew_np = graph.weights[canon]
    csr_idx = np.flatnonzero(canon)
    m = max(1, eu_np.shape[0])

    eu = mem.alloc("mst_eu", m, DType.I32)
    ev = mem.alloc("mst_ev", m, DType.I32)
    ew = mem.alloc("mst_ew", m, DType.I64)
    parent = mem.alloc("mst_parent", n, DType.I32)
    best = mem.alloc("mst_best", n, DType.I64)
    alive = mem.alloc("mst_alive", m, DType.I32)
    in_mst = mem.alloc("mst_inmst", m, DType.I32)
    changed = mem.alloc("mst_changed", 1, DType.I32)
    if eu_np.shape[0]:
        mem.upload(eu, eu_np)
        mem.upload(ev, ev_np)
        mem.upload(ew, ew_np)
        mem.upload(alive, np.ones(m, dtype=np.int64))
    mem.upload(parent, np.arange(n))

    elect = make_elect_kernel(variant)
    hook = make_hook_kernel(variant)
    while True:
        mem.fill(best, _NO_EDGE)
        mem.element_write(changed, 0, 0)
        if eu_np.shape[0]:
            ex.launch(elect, m, eu, ev, ew, parent, best, alive)
        ex.launch(hook, n, eu, ev, parent, best, in_mst, changed)
        if mem.element_read(changed, 0) == 0:
            break
    mask = mem.download(in_mst).astype(bool)[:eu_np.shape[0]]
    full_mask = np.zeros(graph.num_edges, dtype=bool)
    full_mask[csr_idx[np.flatnonzero(mask)]] = True
    for name in ("mst_eu", "mst_ev", "mst_ew", "mst_parent", "mst_best",
                 "mst_alive", "mst_inmst", "mst_changed"):
        mem.free(name)
    return full_mask, ex


register_algorithm(AlgorithmInfo(
    key="mst",
    full_name="minimum spanning tree (ECL-MST)",
    directed=False,
    needs_weights=True,
    has_races=True,
    perf_runner=run_perf,
    module="repro.algorithms.mst",
))
