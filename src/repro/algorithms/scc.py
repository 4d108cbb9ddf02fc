"""ECL-SCC: strongly connected components via concurrent max-ID pivots.

The baseline ECL-SCC (Section II.B.6) stores, for every vertex, the
maximum vertex ID seen on its incoming and outgoing paths as an ``int2``
pair in shared memory, plus a global boolean that signals whether
another iteration is needed.  All accesses are unprotected.  The
race-free conversion changes the ``int2`` to a ``long long`` and
accesses each half through the 32-bit atomic helpers of Fig. 5 (tearing
*between* halves is acceptable; within a half it is not), and the
boolean becomes an ``int`` so it can be accessed atomically.

The algorithm: every vertex v computes ``fwd(v)`` = the maximum ID
reachable *from* v and ``bwd(v)`` = the maximum ID that can *reach* v,
by monotonic max propagation.  Vertices with ``fwd == bwd == p`` are
exactly the SCC of pivot p — all vertices act as pivots simultaneously.
Settled vertices retire and the propagation repeats on the remainder.
Mesh graphs need many propagation rounds (long diameters), which is why
SCC — like CC dominated by plain accesses converted to atomics — shows
large race-free slowdowns (geomean 0.50-0.81, Table VIII).

Performance level: synchronous max-propagation rounds over the live
edges.  Each propagation lays its live edges out once as a padded
per-vertex table of contributors (:func:`_pull_table`), and every round
gathers from it (:func:`_pull_round`).  The layout needs the edges
grouped by target: the CSR lists them by source, and one sort per run
lists them by destination.  The recorder is charged per edge, as the
kernel does: every improving edge stores its target's pair, and every
changed vertex raises the go-again flag — passed as store counts with
their distinct-address counts, never as index arrays.

SIMT level: a per-vertex propagation kernel over the shared int2 array,
used for race detection (including the half-tearing subtleties).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import edge_sources, segment_max
from repro.core.transform import AccessPlan, AccessSite, site_kind
from repro.core.variants import AlgorithmInfo, Variant, register_algorithm
from repro.gpu.accesses import AccessKind
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx

ACCESS_PLAN = AccessPlan("scc", (
    # reading a neighbor's path-max pair (int2; unprotected in baseline)
    AccessSite("scc.pathmax.read", AccessKind.PLAIN, elem_bytes=8),
    # updating the own pair (unprotected in baseline)
    AccessSite("scc.pathmax.write", AccessKind.PLAIN, elem_bytes=8,
               is_store=True),
    # the global "go again" boolean
    AccessSite("scc.goagain.write", AccessKind.PLAIN, is_store=True),
    AccessSite("scc.goagain.read", AccessKind.PLAIN),
))


# ----------------------------------------------------------------------
# Performance level
# ----------------------------------------------------------------------

def run_perf(graph, recorder, trim: bool = False) -> dict:
    """Max-ID SCC with recorded accesses.

    Both variants run the identical computation (max propagation is
    monotonic, so the baseline races are "benign" on this simulator);
    only access pricing differs.

    ``trim=True`` enables the trim-1 preprocessing the real ECL
    pipeline uses: vertices with zero in- or out-degree are singleton
    SCCs and retire before any propagation, shrinking the workload on
    power-law inputs with many peripheral vertices.  Off by default so
    the speedup study's access profile matches the paper's measured
    codes (the optimization is shared by both variants and cancels in
    the speedup anyway).
    """
    n = graph.num_vertices
    m = graph.num_edges
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    # the edge ids grouped by destination, as the CSR groups them by
    # source: one sort of (dst, edge id) keys
    by_dst = np.sort(dst * m + np.arange(m)) % max(m, 1)

    scc = np.full(n, -1, dtype=np.int64)
    active_v = np.ones(n, dtype=bool)
    alive_e = np.ones(graph.num_edges, dtype=bool)

    if trim:
        _trim_trivial(n, src, dst, scc, active_v, alive_e, recorder)

    recorder.touch("pathmax", 8 * n)
    recorder.touch("csr", 8 * graph.num_edges + 16 * (n + 1))

    def propagate(out_dir: bool) -> np.ndarray:
        """Monotonic max propagation over the active subgraph.

        ``out_dir=True`` computes fwd (max reachable from v): v's value
        absorbs its out-neighbors' values, i.e. propagation pulls along
        out-edges.  ``out_dir=False`` computes bwd by pulling along
        reversed edges (push along out-edges).
        """
        val = np.where(active_v, np.arange(n, dtype=np.int64), -1)
        recorder.store("scc.pathmax.write", count=int(active_v.sum()))
        recorder.round()
        # pull: val[u] = max(val[u], val[v]) for edge (u, v)
        if out_dir:
            edges = np.flatnonzero(alive_e)
            table = _pull_table(src[edges], dst[edges], n)
        else:
            edges = by_dst[alive_e[by_dst]]
            table = _pull_table(dst[edges], src[edges], n)
        while True:
            recorder.round()
            recorder.structure(edges.size)
            recorder.load("scc.pathmax.read", count=edges.size)
            recorder.compute(edges.size)
            new_val, improving = _pull_round(val, *table)
            changed = int(np.count_nonzero(new_val != val))
            # per-edge update attempts: every improving edge writes its
            # target's pair, so hot (high-degree) vertices take many
            # colliding writes — the mechanism behind Table IX's negative
            # degree correlation for SCC.  A vertex rises exactly when
            # one of its contributions exceeds it, so the improving
            # edges' targets are the changed vertices
            recorder.store("scc.pathmax.write", count=improving,
                           distinct=changed)
            # every updated vertex raises the single go-again flag: in
            # the race-free code these are atomics colliding on one word
            if changed:
                recorder.store("scc.goagain.write", count=changed,
                               distinct=1)
            recorder.load("scc.goagain.read", count=1)
            if changed == 0:
                return val
            val = new_val

    while np.any(active_v):
        fwd = propagate(out_dir=True)
        bwd = propagate(out_dir=False)
        settled = active_v & (fwd == bwd)
        # every active max-pivot settles its SCC, so progress is certain
        scc[settled] = fwd[settled]
        active_v &= ~settled
        alive_e &= active_v[src] & active_v[dst]

    return {"labels": scc}


def _pull_table(targets: np.ndarray, contributors: np.ndarray, n: int):
    """Lay edges grouped by target (``targets`` non-decreasing) out as
    a ``(width, n)`` table.

    Column ``v`` lists the contributors of ``v``; ``width`` is the edge
    count over ``n``, rounded up and capped at the largest group, and a
    vertex pads its unused slots with itself, which never raises its
    max.  Contributors beyond the width (hub vertices) spill into the
    returned (target, contributor) arrays.  Every edge lands exactly
    once in the table or the spill; order within a column is irrelevant
    to a max.
    """
    m = targets.shape[0]
    counts = np.bincount(targets, minlength=n)
    width = min(-(-m // n), int(counts.max()))
    starts = np.cumsum(counts) - counts
    slot = np.arange(width)[:, None]
    table = np.where(slot < counts,
                     contributors[np.minimum(starts + slot, m - 1)],
                     np.arange(n))
    spill = np.arange(m) >= starts[targets] + width
    return table, targets[spill], contributors[spill]


def _pull_round(val: np.ndarray, table: np.ndarray,
                spill_targets: np.ndarray,
                spill_contributors: np.ndarray) -> tuple[np.ndarray, int]:
    """One propagation round from a :func:`_pull_table`: the new values
    and the number of improving edges."""
    contrib = val[table]
    improving = int(np.count_nonzero(contrib > val))
    new_val = val.copy()
    for row in contrib:
        np.maximum(new_val, row, out=new_val)
    if spill_targets.size:
        spilled = val[spill_contributors]
        improving += int(np.count_nonzero(spilled > val[spill_targets]))
        np.maximum.at(new_val, spill_targets, spilled)
    return new_val, improving


def _trim_trivial(n, src, dst, scc, active_v, alive_e, recorder) -> None:
    """Trim-1: iteratively retire vertices with no live in- or
    out-edges — their SCCs are singletons."""
    while True:
        recorder.round()
        live = np.flatnonzero(alive_e)
        recorder.structure(2 * live.size)
        recorder.compute(live.size)
        out_deg = np.bincount(src[live], minlength=n)
        in_deg = np.bincount(dst[live], minlength=n)
        trivial = active_v & ((out_deg == 0) | (in_deg == 0))
        n_trim = int(np.count_nonzero(trivial))
        if n_trim == 0:
            return
        ids = np.flatnonzero(trivial)
        scc[ids] = ids
        active_v[ids] = False
        alive_e &= active_v[src] & active_v[dst]
        recorder.store("scc.pathmax.write", count=n_trim)


# ----------------------------------------------------------------------
# SIMT level
# ----------------------------------------------------------------------

def make_scc_propagate_kernel(variant: Variant, out_dir: bool):
    """One propagation launch: every active vertex pulls the max of its
    neighbors' values into its own half of the int2 pair."""
    from repro.gpu.atomics import (
        read_first,
        read_second,
        write_first,
        write_second,
    )

    # kind-driven (not variant-driven) so repair overrides engage the
    # hand-written Fig. 5 half accessors: promoting the pathmax sites to
    # ATOMIC *means* per-half 32-bit atomics, not an 8-byte atomic pair
    read_kind = site_kind(ACCESS_PLAN, variant, "scc.pathmax.read")
    write_kind = site_kind(ACCESS_PLAN, variant, "scc.pathmax.write")
    goagain_w = site_kind(ACCESS_PLAN, variant, "scc.goagain.write")

    def read_half(ctx, pathmax, v):
        if read_kind is AccessKind.ATOMIC:
            if out_dir:
                value = yield from read_first(ctx, pathmax, v,
                                              site="scc.pathmax.read")
            else:
                value = yield from read_second(ctx, pathmax, v,
                                               site="scc.pathmax.read")
            return value
        # baseline: whole-pair plain read (may tear across halves,
        # which the code tolerates; within-half tearing cannot happen
        # on this 32-bit-word simulator, matching real GPUs)
        pair = yield ctx.load(pathmax, v, read_kind,
                              site="scc.pathmax.read")
        lo = pair & 0xFFFFFFFF
        hi = (pair >> 32) & 0xFFFFFFFF
        return lo if out_dir else hi

    def write_half(ctx, pathmax, v, value):
        if write_kind is AccessKind.ATOMIC:
            if out_dir:
                yield from write_first(ctx, pathmax, v, value,
                                       site="scc.pathmax.write")
            else:
                yield from write_second(ctx, pathmax, v, value,
                                        site="scc.pathmax.write")
            return
        pair = yield ctx.load(pathmax, v, read_kind,
                              site="scc.pathmax.read")
        if out_dir:
            pair = (pair & ~0xFFFFFFFF) | (value & 0xFFFFFFFF)
        else:
            pair = (pair & 0xFFFFFFFF) | ((value & 0xFFFFFFFF) << 32)
        yield ctx.store(pathmax, v, pair, write_kind,
                        site="scc.pathmax.write")

    def scc_kernel(ctx: ThreadCtx, offsets, indices, pathmax, active,
                   goagain):
        v = ctx.tid
        if v >= active.length:
            return
        is_active = yield ctx.load(active, v)
        if not is_active:
            return
        beg = yield ctx.load(offsets, v)
        end = yield ctx.load(offsets, v + 1)
        mine = yield from read_half(ctx, pathmax, v)
        best = mine
        for e in range(beg, end):
            u = yield ctx.load(indices, e)
            u_active = yield ctx.load(active, u)
            if not u_active:
                continue
            theirs = yield from read_half(ctx, pathmax, u)
            if theirs > best:
                best = theirs
        if best > mine:
            yield from write_half(ctx, pathmax, v, best)
            yield ctx.store(goagain, 0, 1, goagain_w,
                            site="scc.goagain.write")

    return scc_kernel


def run_simt(graph, variant: Variant, scheduler=None,
             executor: SimtExecutor | None = None):
    """Run SCC on the SIMT interpreter (small directed graphs only)."""
    from repro.gpu.accesses import DType

    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    rev = graph.reversed()

    offsets = mem.alloc("scc_offsets", n + 1, DType.I64)
    indices = mem.alloc("scc_indices", max(1, graph.num_edges), DType.I32)
    roffsets = mem.alloc("scc_roffsets", n + 1, DType.I64)
    rindices = mem.alloc("scc_rindices", max(1, rev.num_edges), DType.I32)
    pathmax = mem.alloc("scc_pathmax", n, DType.INT2)
    active = mem.alloc("scc_active", n, DType.I32)
    goagain = mem.alloc("scc_goagain", 1, DType.I32)
    mem.upload(offsets, graph.row_offsets)
    mem.upload(roffsets, rev.row_offsets)
    if graph.num_edges:
        mem.upload(indices, graph.col_indices)
        mem.upload(rindices, rev.col_indices)

    scc = np.full(n, -1, dtype=np.int64)
    active_np = np.ones(n, dtype=bool)

    fwd_kernel = make_scc_propagate_kernel(variant, out_dir=True)
    bwd_kernel = make_scc_propagate_kernel(variant, out_dir=False)

    while np.any(active_np):
        mem.upload(active, active_np.astype(np.int64))
        init = np.where(active_np, np.arange(n, dtype=np.int64), 0)
        # pack (first=fwd, second=bwd) identically
        mem.upload(pathmax, (init << 32) | init)
        # fwd: pull along out-edges
        while True:
            mem.element_write(goagain, 0, 0)
            ex.launch(fwd_kernel, n, offsets, indices, pathmax, active,
                      goagain)
            if mem.element_read(goagain, 0) == 0:
                break
        # bwd: pull along reversed edges
        while True:
            mem.element_write(goagain, 0, 0)
            ex.launch(bwd_kernel, n, roffsets, rindices, pathmax, active,
                      goagain)
            if mem.element_read(goagain, 0) == 0:
                break
        pairs = mem.download(pathmax)
        fwd = pairs & 0xFFFFFFFF
        bwd = (pairs >> 32) & 0xFFFFFFFF
        settled = active_np & (fwd == bwd)
        scc[settled] = fwd[settled]
        active_np &= ~settled

    for name in ("scc_offsets", "scc_indices", "scc_roffsets",
                 "scc_rindices", "scc_pathmax", "scc_active",
                 "scc_goagain"):
        mem.free(name)
    return scc, ex


register_algorithm(AlgorithmInfo(
    key="scc",
    full_name="strongly connected components (ECL-SCC)",
    directed=True,
    needs_weights=False,
    has_races=True,
    perf_runner=run_perf,
    module="repro.algorithms.scc",
))
