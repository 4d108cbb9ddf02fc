"""ECL-CC: connected components via label propagation + union-find.

The baseline ECL-CC code (Section II.B.2) is asynchronous and
lock-free: it keeps one ``int`` label per vertex, hooks components
together with atomicCAS, and — crucially for this paper — performs the
*pointer jumping* of its union-find find operation with unprotected
(non-volatile) loads and stores.  Those plain accesses enjoy a high L1
hit rate; the race-free conversion turns every one of them into a
relaxed atomic served at L2, which is why CC shows the largest slowdown
of the suite (geomean 0.45-0.88, Tables IV-VII).

Performance level: a Shiloach-Vishkin-style round structure (min-label
hooking + full pointer jumping per round) whose access profile is
dominated by jump reads, like the original.

SIMT level: a faithful per-edge kernel with find (path compression) and
CAS hooking, for race detection and schedule-robustness tests.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import edge_sources
from repro.core.transform import AccessPlan, AccessSite, site_kind
from repro.core.variants import AlgorithmInfo, Variant, register_algorithm
from repro.gpu.accesses import AccessKind, RMWOp
from repro.gpu.memory import ArrayHandle, GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx

ACCESS_PLAN = AccessPlan("cc", (
    # pointer-jumping reads (the dominant racy site, Section VI.A);
    # these double as the label gather while hooking edges
    AccessSite("cc.label.jump_read", AccessKind.PLAIN),
    # path-compression stores during jumping
    AccessSite("cc.label.jump_write", AccessKind.PLAIN, is_store=True),
    # hooking is already an atomicCAS in the baseline
    AccessSite("cc.label.hook", AccessKind.ATOMIC, is_rmw=True),
))


# ----------------------------------------------------------------------
# Performance level
# ----------------------------------------------------------------------

def run_perf(graph, recorder) -> dict:
    """ECL-CC-profile connected components with recorded accesses.

    Mirrors the original's single compute launch: every undirected edge
    is processed once; each processing resolves both endpoint roots
    (pointer jumping with compression — an unprotected read *and* write
    per jump in the baseline, Section VI.A) and hooks the larger root
    under the smaller with an atomicCAS, retrying until the roots agree.
    A final flatten launch points every vertex at its representative.

    The two variants run the identical computation; only the access
    pricing differs (the baseline races are on monotonic label updates,
    so they are "benign" on this simulator).
    """
    from repro.algorithms.common import recorded_roots

    n = graph.num_vertices
    m = graph.num_edges
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    canon = src < dst  # each thread processes neighbors u < v once
    eu = src[canon]
    ev = dst[canon]
    label = np.arange(n, dtype=np.int64)

    recorder.touch("label", 4 * n)
    recorder.touch("csr", 4 * m + 8 * (n + 1))
    recorder.store("cc.label.jump_write", count=n)  # init kernel
    recorder.round(launches=2)  # init + compute launch
    recorder.structure(m)       # every thread scans its adjacency once
    recorder.compute(m)

    # in-kernel hook/retry loops, modelled as vectorized sweeps over the
    # edges whose endpoints still disagree
    remaining = np.arange(eu.shape[0], dtype=np.int64)
    while remaining.size:
        ru = recorded_roots(label, eu[remaining], recorder,
                            "cc.label.jump_read", "cc.label.jump_write")
        rv = recorded_roots(label, ev[remaining], recorder,
                            "cc.label.jump_read", "cc.label.jump_write")
        cross = ru != rv
        remaining = remaining[cross]
        if remaining.size == 0:
            break
        lo = np.minimum(ru[cross], rv[cross])
        hi = np.maximum(ru[cross], rv[cross])
        recorder.rmw("cc.label.hook", indices=hi)
        np.minimum.at(label, hi, lo)
        # compression applied by the finds of the next sweep
        label = label[label]

    # flatten launch: label[v] = find(v)
    recorder.round()
    roots = recorded_roots(label, np.arange(n, dtype=np.int64), recorder,
                           "cc.label.jump_read", "cc.label.jump_write")
    recorder.store("cc.label.jump_write", count=n)
    return {"labels": roots}


# ----------------------------------------------------------------------
# SIMT level
# ----------------------------------------------------------------------

def _find(ctx: ThreadCtx, label: ArrayHandle, x: int,
          read_kind: AccessKind, write_kind: AccessKind):
    """Union-find find with (racy in the baseline) path compression."""
    parent = yield ctx.load(label, x, read_kind, site="cc.label.jump_read")
    while parent != x:
        grand = yield ctx.load(label, parent, read_kind,
                               site="cc.label.jump_read")
        if grand == parent:
            return parent
        # pointer jumping: monotonic shortcut, unprotected in baseline
        yield ctx.store(label, x, grand, write_kind,
                        site="cc.label.jump_write")
        x = parent
        parent = grand
    return x


def make_cc_kernel(variant: Variant):
    """Build the per-vertex CC kernel for ``variant``."""
    jump_read = site_kind(ACCESS_PLAN, variant, "cc.label.jump_read")
    jump_write = site_kind(ACCESS_PLAN, variant, "cc.label.jump_write")

    def cc_kernel(ctx: ThreadCtx, offsets, indices, label, changed):
        v = ctx.tid
        if v >= label.length:
            return
        beg = yield ctx.load(offsets, v)      # private CSR reads
        end = yield ctx.load(offsets, v + 1)
        for e in range(beg, end):
            u = yield ctx.load(indices, e)
            if u >= v:
                continue  # process each undirected edge once
            rv = yield from _find(ctx, label, v, jump_read, jump_write)
            ru = yield from _find(ctx, label, u, jump_read, jump_write)
            while rv != ru:
                lo, hi = (ru, rv) if ru < rv else (rv, ru)
                old = yield ctx.atomic_cas(label, hi, hi, lo,
                                           site="cc.label.hook")
                if old == hi:
                    yield ctx.store(changed, 0, 1, AccessKind.ATOMIC)
                    break
                rv = yield from _find(ctx, label, hi, jump_read, jump_write)
                ru = yield from _find(ctx, label, lo, jump_read, jump_write)

    return cc_kernel


def make_flatten_kernel(variant: Variant):
    """Final kernel: ``label[v] = find(v)`` so every vertex points at
    its representative."""
    jump_read = site_kind(ACCESS_PLAN, variant, "cc.label.jump_read")
    jump_write = site_kind(ACCESS_PLAN, variant, "cc.label.jump_write")

    def flatten_kernel(ctx: ThreadCtx, label):
        v = ctx.tid
        if v >= label.length:
            return
        root = yield from _find(ctx, label, v, jump_read, jump_write)
        yield ctx.store(label, v, root, jump_write,
                        site="cc.label.jump_write")

    return flatten_kernel


def run_simt(graph, variant: Variant, scheduler=None,
             executor: SimtExecutor | None = None) -> tuple[np.ndarray, SimtExecutor]:
    """Run CC on the SIMT interpreter (small graphs only)."""
    from repro.gpu.accesses import DType

    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    offsets = mem.alloc("cc_offsets", n + 1, DType.I64)
    indices = mem.alloc("cc_indices", max(1, graph.num_edges), DType.I32)
    label = mem.alloc("cc_label", n, DType.I32)
    changed = mem.alloc("cc_changed", 1, DType.I32)
    mem.upload(offsets, graph.row_offsets)
    if graph.num_edges:
        mem.upload(indices, graph.col_indices)
    else:
        mem.upload(indices, np.zeros(1, dtype=np.int64))
    mem.upload(label, np.arange(n))

    kernel = make_cc_kernel(variant)
    while True:
        mem.element_write(changed, 0, 0)
        ex.launch(kernel, n, offsets, indices, label, changed)
        if mem.element_read(changed, 0) == 0:
            break
    ex.launch(make_flatten_kernel(variant), n, label)
    labels = mem.download(label)
    for name in ("cc_offsets", "cc_indices", "cc_label", "cc_changed"):
        mem.free(name)
    return labels, ex


register_algorithm(AlgorithmInfo(
    key="cc",
    full_name="connected components (ECL-CC)",
    directed=False,
    needs_weights=False,
    has_races=True,
    perf_runner=run_perf,
    module="repro.algorithms.cc",
))
