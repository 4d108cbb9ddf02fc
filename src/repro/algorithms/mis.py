"""ECL-MIS: maximal independent set via Luby's algorithm.

The baseline ECL-MIS (Section II.B.4) is *asynchronous*: persistent
threads repeatedly poll their neighbors' combined status/priority bytes
and eventually decide each vertex IN or OUT.  Because those polls are
not atomic, the compiler is free to "optimize" some of them — keeping
polled values in registers and thereby delaying when one thread's
decision becomes visible to the others (Section VI.A).  The race-free
conversion reads each status through a relaxed atomic ``int`` load with
typecasting and masking (Fig. 3b) and writes through atomic bitwise
operations (Fig. 4b); every poll then observes current memory, values
propagate faster, and the race-free code is 5-11 % *faster* — likely
making it the fastest CUDA MIS implementation (Section I).

Performance level: Luby rounds where the baseline's neighbor-status
view is served by a :class:`~repro.perf.visibility.DelayedView`
(staleness = the device's register-caching constant, applied to the
fraction of polls the compiler optimizes), while the race-free variant
always sees current statuses.  Stale views delay decisions, so the
baseline needs more rounds and more polls.

SIMT level: the asynchronous polling kernel itself, with the
status-byte encoding of the original (IN/OUT bits OR-ed into a shared
``char`` array).
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import edge_sources
from repro.core.transform import AccessPlan, AccessSite, site_kind
from repro.core.variants import AlgorithmInfo, Variant, register_algorithm
from repro.gpu.accesses import AccessKind
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx
from repro.perf.visibility import DelayedView

ACCESS_PLAN = AccessPlan("mis", (
    # neighbor status polls: declared volatile in the original, but the
    # compiler still register-allocates a fraction of them (the paper's
    # explanation for the race-free speedup) — see BASELINE_STALE_FRACTION
    AccessSite("mis.nstat.poll", AccessKind.VOLATILE, elem_bytes=1),
    # status writes (IN / OUT decisions)
    AccessSite("mis.nstat.write", AccessKind.VOLATILE, elem_bytes=1,
               is_store=True),
    # static priorities (read-only after init)
    AccessSite("mis.prio.read", AccessKind.PLAIN, shared=False),
))

#: Fraction of baseline polls whose value the compiler keeps in a
#: register (stale).  Calibration constant for Section VI.A's visibility
#: mechanism; the race-free variant always has fraction 0.
BASELINE_STALE_FRACTION = 0.2

UNDECIDED = 0
IN = 1
OUT = 2


def make_priorities(graph, seed: int) -> np.ndarray:
    """ECL-MIS priorities: random, inversely proportional to degree
    (low-degree vertices win often, which enlarges the set), packed into
    one comparable integer per vertex."""
    rng = np.random.default_rng(seed)
    tiebreak = rng.permutation(graph.num_vertices).astype(np.int64)
    deg = graph.degrees().astype(np.int64)
    inv = (deg.max() + 1 - deg)
    return inv * graph.num_vertices + tiebreak


# ----------------------------------------------------------------------
# Performance level
# ----------------------------------------------------------------------

def run_perf(graph, recorder, stale_fraction: float | None = None) -> dict:
    """Luby MIS with a delayed-visibility baseline.

    ``stale_fraction`` overrides :data:`BASELINE_STALE_FRACTION` for
    ablation studies (0.0 disables the visibility mechanism entirely,
    at which point the race-free variant loses its advantage).
    """
    n = graph.num_vertices
    m = graph.num_edges
    seed = recorder.repetition_seed()
    prio = make_priorities(graph, seed)
    status = np.full(n, UNDECIDED, dtype=np.int8)

    if stale_fraction is None:
        stale_fraction = BASELINE_STALE_FRACTION
    # the poll's kind decides how the rounds converge, so this run is
    # its own variant's alone (the recorder counts no sibling)
    poll_kind = recorder.site_kind("mis.nstat.poll")
    if poll_kind is AccessKind.ATOMIC or stale_fraction == 0.0:
        # atomic polls are immediately visible: the staleness constant
        # is never consumed, so this trace serves every device.  Keyed
        # on the *effective* site kind, not the variant, so candidate
        # repair plans that promote the poll site price correctly.
        view = DelayedView(status, delay=0)
    else:
        view = DelayedView(status, delay=recorder.visibility_delay(),
                           stale_fraction=stale_fraction,
                           seed=seed)

    recorder.touch("nstat", n)  # one byte per vertex
    recorder.touch("csr", 4 * m + 8 * (n + 1))
    recorder.store("mis.nstat.write", count=n)  # init kernel
    recorder.round()

    degrees = graph.degrees().astype(np.int64)
    # the live edges: grouped by source, as in the CSR, and only those
    # whose source is still undecided — a decided vertex polls no more
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    while True:
        undecided = status == UNDECIDED
        if not np.any(undecided):
            break
        recorder.round()
        seen = view.read()
        live = undecided[src]
        if not live.all():
            src, dst = src[live], dst[live]
        n_polls = int(src.shape[0])
        recorder.structure(n_polls)
        recorder.load("mis.nstat.poll", count=n_polls)
        recorder.load("mis.prio.read", count=n_polls)
        recorder.compute(2 * n_polls)

        # every edge of an undecided vertex is live, so its segment of
        # the live edges is as long as its degree
        polling = np.flatnonzero(undecided & (degrees > 0))
        starts = np.zeros(polling.shape[0], dtype=np.int64)
        np.cumsum(degrees[polling][:-1], out=starts[1:])
        in_nbr = np.zeros(n, dtype=bool)
        max_undecided_nbr = np.full(n, -1, dtype=np.int64)
        if n_polls:
            nbr_status = seen[dst]
            # OUT if any neighbor is (observed to be) IN
            in_nbr[polling] = np.maximum.reduceat(nbr_status == IN, starts)
            # IN if highest priority among (observed) undecided neighbors
            nbr_prio = np.where(nbr_status == UNDECIDED, prio[dst], -1)
            max_undecided_nbr[polling] = np.maximum.reduceat(nbr_prio,
                                                             starts)
        wins = undecided & ~in_nbr & (prio > max_undecided_nbr)
        outs = undecided & in_nbr

        status[wins] = IN
        status[outs] = OUT
        n_changed = int(np.count_nonzero(wins) + np.count_nonzero(outs))
        recorder.store("mis.nstat.write", count=n_changed)
        view.commit()

    return {"in_set": (status == IN).astype(np.int8)}


# ----------------------------------------------------------------------
# SIMT level
# ----------------------------------------------------------------------

def make_mis_kernel(variant: Variant):
    """The asynchronous per-vertex MIS kernel."""
    from repro.gpu.atomics import (
        atomic_or_char,
        atomic_read_char,
    )

    # kind-driven (not variant-driven) so repair overrides engage the
    # hand-written atomic paths: promoting a byte site to ATOMIC *means*
    # the Fig. 3b/4b word-widened helpers
    poll_kind = site_kind(ACCESS_PLAN, variant, "mis.nstat.poll")
    write_kind = site_kind(ACCESS_PLAN, variant, "mis.nstat.write")

    def read_stat(ctx, nstat, v):
        if poll_kind is AccessKind.ATOMIC:
            value = yield from atomic_read_char(ctx, nstat, v,
                                                site="mis.nstat.poll")
        else:
            value = yield ctx.load(nstat, v, poll_kind,
                                   site="mis.nstat.poll")
        return value

    def write_stat(ctx, nstat, v, bits):
        if write_kind is AccessKind.ATOMIC:
            yield from atomic_or_char(ctx, nstat, v, bits,
                                      site="mis.nstat.write")
        else:
            # the read half of the composed RMW is a poll-site access,
            # so it follows the poll site's effective kind
            old = yield from read_stat(ctx, nstat, v)
            yield ctx.store(nstat, v, old | bits, write_kind,
                            site="mis.nstat.write")

    def mis_kernel(ctx: ThreadCtx, offsets, indices, prio, nstat):
        v = ctx.tid
        if v >= nstat.length:
            return
        beg = yield ctx.load(offsets, v)
        end = yield ctx.load(offsets, v + 1)
        my_prio = yield ctx.load(prio, v, site="mis.prio.read")
        while True:
            mine = yield from read_stat(ctx, nstat, v)
            if mine != UNDECIDED:
                return
            best = True
            any_in = False
            for e in range(beg, end):
                u = yield ctx.load(indices, e)
                su = yield from read_stat(ctx, nstat, u)
                if su == IN:
                    any_in = True
                    break
                if su == UNDECIDED:
                    up = yield ctx.load(prio, u, site="mis.prio.read")
                    if up > my_prio:
                        best = False
            if any_in:
                yield from write_stat(ctx, nstat, v, OUT)
                return
            if best:
                yield from write_stat(ctx, nstat, v, IN)
                for e in range(beg, end):
                    u = yield ctx.load(indices, e)
                    yield from write_stat(ctx, nstat, u, OUT)
                return
            # otherwise: keep polling (asynchronous wait)

    return mis_kernel


def run_simt(graph, variant: Variant, seed: int = 0, scheduler=None,
             executor: SimtExecutor | None = None):
    """Run MIS on the SIMT interpreter (small graphs only)."""
    from repro.gpu.accesses import DType

    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    offsets = mem.alloc("mis_offsets", n + 1, DType.I64)
    indices = mem.alloc("mis_indices", max(1, graph.num_edges), DType.I32)
    prio = mem.alloc("mis_prio", n, DType.I64)
    nstat = mem.alloc("mis_nstat", n, DType.U8)
    mem.upload(offsets, graph.row_offsets)
    if graph.num_edges:
        mem.upload(indices, graph.col_indices)
    else:
        mem.upload(indices, np.zeros(1, dtype=np.int64))
    mem.upload(prio, make_priorities(graph, seed))

    ex.launch(make_mis_kernel(variant), n, offsets, indices, prio, nstat)
    statuses = mem.download(nstat)
    for name in ("mis_offsets", "mis_indices", "mis_prio", "mis_nstat"):
        mem.free(name)
    return (statuses == IN).astype(np.int8), ex


# ----------------------------------------------------------------------
# Packed single-byte mode (the paper's footprint optimization)
# ----------------------------------------------------------------------

#: marker bytes of the packed encoding; any smaller byte is an
#: undecided vertex's quantized priority
PACKED_IN = 0xFE
PACKED_OUT = 0xFF
_PACKED_PRIO_MAX = 0xFD


def make_packed_priorities(graph, seed: int) -> np.ndarray:
    """Quantize the inverse-degree priorities into the byte range the
    packed encoding can hold ("combines the status and the priority of
    a vertex in a single byte", Section II.B.4).  Ties are broken by
    vertex id at decision time."""
    prio = make_priorities(graph, seed)
    order = np.argsort(prio)
    ranks = np.empty_like(prio)
    ranks[order] = np.arange(prio.shape[0])
    scaled = ranks * _PACKED_PRIO_MAX // max(1, prio.shape[0] - 1)
    return scaled.astype(np.int64)


def make_mis_kernel_packed(variant: Variant):
    """The asynchronous MIS kernel over the packed byte array.

    A single one-byte poll yields *both* a neighbor's status and its
    priority — this is why ECL-MIS packs them.  Race-free accesses go
    through the Fig. 3b typecast read and a CAS-loop byte store.
    """
    from repro.gpu.atomics import atomic_read_char, atomic_write_char

    poll_kind = site_kind(ACCESS_PLAN, variant, "mis.nstat.poll")
    write_kind = site_kind(ACCESS_PLAN, variant, "mis.nstat.write")

    def read_byte(ctx, nstat, v):
        if poll_kind is AccessKind.ATOMIC:
            value = yield from atomic_read_char(ctx, nstat, v,
                                                site="mis.nstat.poll")
        else:
            value = yield ctx.load(nstat, v, poll_kind,
                                   site="mis.nstat.poll")
        return value

    def write_byte(ctx, nstat, v, value):
        if write_kind is AccessKind.ATOMIC:
            yield from atomic_write_char(ctx, nstat, v, value,
                                         site="mis.nstat.write")
        else:
            yield ctx.store(nstat, v, value, write_kind,
                            site="mis.nstat.write")

    def mis_kernel(ctx: ThreadCtx, offsets, indices, nstat):
        v = ctx.tid
        if v >= nstat.length:
            return
        beg = yield ctx.load(offsets, v)
        end = yield ctx.load(offsets, v + 1)
        my_prio = yield from read_byte(ctx, nstat, v)  # own byte at start
        while True:
            mine = yield from read_byte(ctx, nstat, v)
            if mine >= PACKED_IN:
                return  # decided by a neighbor
            best = True
            any_in = False
            for e in range(beg, end):
                u = yield ctx.load(indices, e)
                byte = yield from read_byte(ctx, nstat, u)
                if byte == PACKED_IN:
                    any_in = True
                    break
                if byte == PACKED_OUT:
                    continue
                # undecided: the byte IS the neighbor's priority
                if (byte, u) > (my_prio, v):
                    best = False
            if any_in:
                yield from write_byte(ctx, nstat, v, PACKED_OUT)
                return
            if best:
                yield from write_byte(ctx, nstat, v, PACKED_IN)
                for e in range(beg, end):
                    u = yield ctx.load(indices, e)
                    yield from write_byte(ctx, nstat, u, PACKED_OUT)
                return

    return mis_kernel


def run_simt_packed(graph, variant: Variant, seed: int = 0, scheduler=None,
                    executor: SimtExecutor | None = None):
    """Run the packed-byte MIS on the SIMT interpreter."""
    from repro.gpu.accesses import DType

    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    offsets = mem.alloc("misp_offsets", n + 1, DType.I64)
    indices = mem.alloc("misp_indices", max(1, graph.num_edges), DType.I32)
    nstat = mem.alloc("misp_nstat", n, DType.U8)
    mem.upload(offsets, graph.row_offsets)
    if graph.num_edges:
        mem.upload(indices, graph.col_indices)
    else:
        mem.upload(indices, np.zeros(1, dtype=np.int64))
    mem.upload(nstat, make_packed_priorities(graph, seed))

    ex.launch(make_mis_kernel_packed(variant), n, offsets, indices, nstat)
    bytes_out = mem.download(nstat)
    for name in ("misp_offsets", "misp_indices", "misp_nstat"):
        mem.free(name)
    return (bytes_out == PACKED_IN).astype(np.int8), ex


register_algorithm(AlgorithmInfo(
    key="mis",
    full_name="maximal independent set (ECL-MIS)",
    directed=False,
    needs_weights=False,
    has_races=True,
    perf_runner=run_perf,
    module="repro.algorithms.mis",
))
