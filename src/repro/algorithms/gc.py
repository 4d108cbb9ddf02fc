"""ECL-GC: graph coloring via Jones-Plassmann with largest-degree-first.

The baseline ECL-GC (Section II.B.3) keeps each vertex's chosen color
and possible-color set in shared ``int`` arrays that neighbors read and
write with unprotected — but *volatile* — accesses.  Because volatile
accesses already bypass L1 on the modelled architectures, converting
them to relaxed atomics costs almost nothing: the paper measures GC
geomean speedups of 0.96-1.00 (Tables IV-VII).

Performance level: synchronous Jones-Plassmann rounds.  A vertex is
*ready* when no uncolored neighbor has higher (degree, tiebreak)
priority; ready vertices take the smallest color absent from their
neighborhood.  The shortcut optimizations change *when* vertices become
ready but not the access-kind profile this level prices, so they are
approximated by the plain readiness rule (see DESIGN.md Section 6).
Rounds are counter-driven, as ECL-GC orders its vertices: each vertex
counts its uncolored higher-priority neighbors, coloring a round
decrements exactly the vertices it unblocked, and the next ready set is
those whose count reached zero — so a whole coloring touches each edge
a constant number of times.  Priorities are distinct, so on a
symmetric CSR a ready set is independent and all its colors are taken
in one vectorized pass; a round in which a ready vertex has a ready
out-neighbor (a non-symmetric CSR or a self-loop) is colored one vertex
at a time in vertex order instead.  The recorder is still charged for
what the kernel does: every active vertex polls all its neighbors in
every round.

SIMT level: a per-vertex round kernel over the colors *and* the
possible-color bitsets, including the paper's shortcut 1 — the
cross-vertex posscol reads are exactly the racy accesses Section IV.A
reports for GC.
"""

from __future__ import annotations

import numpy as np

from repro.algorithms.common import edge_sources
from repro.core.transform import AccessPlan, AccessSite, site_kind
from repro.core.variants import AlgorithmInfo, Variant, register_algorithm
from repro.gpu.accesses import AccessKind
from repro.gpu.memory import GlobalMemory
from repro.gpu.simt import SimtExecutor, ThreadCtx
from repro.utils.arrays import sorted_unique

ACCESS_PLAN = AccessPlan("gc", (
    # neighbor color polling (volatile in the baseline)
    AccessSite("gc.color.read", AccessKind.VOLATILE),
    # publishing the chosen color
    AccessSite("gc.color.write", AccessKind.VOLATILE, is_store=True),
    # the possible-color bitsets neighbors read and the owner rewrites
    # (Section IV.A: "records the possible colors ... in shared int
    # arrays ... using unprotected accesses")
    AccessSite("gc.posscol.read", AccessKind.VOLATILE),
    AccessSite("gc.posscol.write", AccessKind.VOLATILE, is_store=True),
    # vertex priorities: written once before coloring, read-only after
    AccessSite("gc.prio.read", AccessKind.PLAIN, shared=False),
))

UNCOLORED = -1


def make_priorities(graph, seed: int) -> np.ndarray:
    """Largest-degree-first priorities with random tie-breaking, packed
    into one comparable integer per vertex."""
    rng = np.random.default_rng(seed)
    tiebreak = rng.permutation(graph.num_vertices).astype(np.int64)
    return graph.degrees().astype(np.int64) * graph.num_vertices + tiebreak


# ----------------------------------------------------------------------
# Performance level
# ----------------------------------------------------------------------

def _segment_positions(offsets: np.ndarray,
                       vertices: np.ndarray) -> np.ndarray:
    """Flat positions of the CSR segments of ``vertices``, concatenated
    in the order given."""
    starts = offsets[vertices]
    lengths = offsets[vertices + 1] - starts
    shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
    return shift + np.arange(shift.shape[0])


def _color_in_order(offsets: np.ndarray, dst: np.ndarray,
                    color: np.ndarray, ready_vs: np.ndarray) -> None:
    """Color ``ready_vs`` one at a time in vertex order, each seeing the
    colors of those before it (the exact rule when ready vertices are
    adjacent)."""
    for v in ready_vs.tolist():
        neigh_colors = color[dst[offsets[v]:offsets[v + 1]]]
        used = sorted_unique(neigh_colors[neigh_colors >= 0])
        c = 0
        for u in used.tolist():
            if u == c:
                c += 1
            elif u > c:
                break
        color[v] = c


def _smallest_free_colors(ready_vs: np.ndarray, owners: np.ndarray,
                          neigh_colors: np.ndarray, n: int) -> np.ndarray:
    """Per ready vertex, the smallest color none of its colored
    neighbors holds.  ``owners[i]`` is the ready vertex whose edge
    reaches a neighbor of color ``neigh_colors[i]``."""
    colored = neigh_colors >= 0
    # one key per distinct (vertex, color); int64 holds n*n for n < 3e9
    keys = sorted_unique(owners[colored] * n + neigh_colors[colored])
    key_owner, key_color = np.divmod(keys, n)
    rank = np.arange(keys.shape[0]) - np.searchsorted(key_owner, key_owner)
    # a vertex's distinct colors c_0 < c_1 < ... satisfy c_i >= i, with
    # equality exactly while 0..i are all taken: the mex counts them
    taken = key_owner[key_color == rank]
    return np.bincount(np.searchsorted(ready_vs, taken),
                       minlength=ready_vs.shape[0])


def run_perf(graph, recorder) -> dict:
    """Jones-Plassmann coloring with recorded accesses."""
    n = graph.num_vertices
    m = graph.num_edges
    offsets = graph.row_offsets.astype(np.int64)
    degrees = np.diff(offsets)
    src = edge_sources(graph)
    dst = graph.col_indices.astype(np.int64)
    prio = make_priorities(graph, recorder.repetition_seed())
    color = np.full(n, UNCOLORED, dtype=np.int64)

    recorder.touch("color", 4 * n)
    recorder.touch("posscol", 4 * n)
    recorder.touch("csr", 4 * m + 8 * (n + 1))
    recorder.store("gc.color.write", count=n)  # init kernel
    recorder.round()

    # blockers[v] counts v's out-edges to an uncolored neighbor that
    # outranks it; v is ready when it reaches 0.  The outranking edges,
    # grouped by their higher endpoint, name whom a colored vertex
    # unblocks — on a non-symmetric CSR too.  ``lower`` ascends in edge
    # order, so sorting (outranking, lower) keys is the stable grouping
    higher = prio[dst] > prio[src]
    lower, outranking = src[higher], dst[higher]
    blockers = np.bincount(lower, minlength=n)
    lower = np.sort(outranking * n + lower) % n
    unblock_offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(outranking, minlength=n), out=unblock_offsets[1:])

    ready_vs = np.flatnonzero(blockers == 0)
    is_ready = np.zeros(n, dtype=bool)
    n_active, n_polls = n, m
    while n_active:
        recorder.round()
        recorder.structure(n_polls)
        # each active vertex polls its neighbors' colors and priorities
        # and maintains its possible-color set
        recorder.load("gc.color.read", count=n_polls)
        recorder.load("gc.prio.read", count=n_polls)
        recorder.load("gc.posscol.read", count=n_active)
        recorder.store("gc.posscol.write", count=n_active)
        recorder.compute(2 * n_polls)

        edges = _segment_positions(offsets, ready_vs)
        neighbors = dst[edges]
        is_ready[ready_vs] = True
        if is_ready[neighbors].any():
            # a ready vertex sees another's new color: only a
            # non-symmetric CSR or a self-loop gets here
            _color_in_order(offsets, dst, color, ready_vs)
        else:
            # distinct priorities make a symmetric ready set
            # independent, so every color depends only on earlier rounds
            owners = np.repeat(ready_vs, degrees[ready_vs])
            color[ready_vs] = _smallest_free_colors(
                ready_vs, owners, color[neighbors], n)
        is_ready[ready_vs] = False
        recorder.store("gc.color.write", indices=ready_vs)
        n_active -= ready_vs.shape[0]
        n_polls -= edges.shape[0]

        unblocked, hits = sorted_unique(
            lower[_segment_positions(unblock_offsets, ready_vs)],
            return_counts=True)
        blockers[unblocked] -= hits
        # only a vertex this round unblocked can have newly reached 0
        ready_vs = unblocked[blockers[unblocked] == 0]
    return {"colors": color}


# ----------------------------------------------------------------------
# SIMT level
# ----------------------------------------------------------------------

def _min_bit(mask: int) -> int:
    """Index of the lowest set bit (the smallest possible color)."""
    return (mask & -mask).bit_length() - 1


def make_gc_kernel(variant: Variant, words: int = 1):
    """One ECL-GC round over colors and possible-color bitsets.

    Mirrors the original's data layout: each vertex owns a bitset of
    still-possible colors (``posscol``) that it rewrites after scanning
    its neighbors, and the paper's *shortcut 1*: a vertex may color
    early — even below higher-priority uncolored neighbors — when its
    candidate color is provably unavailable to them (their possible
    sets only ever shrink upward).

    ``words`` is the per-vertex bitset width in 32-bit words: vertex
    ``v``'s possible set lives at ``posscol[v*words : (v+1)*words]``,
    little-endian.  With ``words == 1`` (every graph of max degree
    ≤ 30) the layout, access sequence, and stored values are identical
    to the historical single-word kernel.
    """
    color_read = site_kind(ACCESS_PLAN, variant, "gc.color.read")
    color_write = site_kind(ACCESS_PLAN, variant, "gc.color.write")
    poss_read = site_kind(ACCESS_PLAN, variant, "gc.posscol.read")
    poss_write = site_kind(ACCESS_PLAN, variant, "gc.posscol.write")

    def gc_kernel(ctx: ThreadCtx, offsets, indices, prio, color, posscol,
                  changed):
        v = ctx.tid
        if v >= color.length:
            return
        mine = yield ctx.load(color, v, color_read, site="gc.color.read")
        if mine != UNCOLORED:
            return
        beg = yield ctx.load(offsets, v)
        end = yield ctx.load(offsets, v + 1)
        my_prio = yield ctx.load(prio, v, site="gc.prio.read")
        my_poss = 0
        for w in range(words):
            part = yield ctx.load(posscol, v * words + w, poss_read,
                                  site="gc.posscol.read")
            my_poss |= int(part) << (32 * w)
        blockers = []
        for e in range(beg, end):
            u = yield ctx.load(indices, e)
            uc = yield ctx.load(color, u, color_read, site="gc.color.read")
            if uc != UNCOLORED:
                my_poss &= ~(1 << uc)
            else:
                up = yield ctx.load(prio, u, site="gc.prio.read")
                if up > my_prio:
                    blockers.append(u)
        for w in range(words):
            yield ctx.store(posscol, v * words + w,
                            (my_poss >> (32 * w)) & 0xFFFFFFFF,
                            poss_write, site="gc.posscol.write")
        candidate = _min_bit(my_poss)
        if blockers:
            # shortcut 1: safe if every higher-priority uncolored
            # neighbor can only take colors above our candidate
            for u in blockers:
                u_poss = 0
                for w in range(words):
                    part = yield ctx.load(posscol, u * words + w,
                                          poss_read,
                                          site="gc.posscol.read")
                    u_poss |= int(part) << (32 * w)
                if _min_bit(u_poss) <= candidate:
                    return  # still blocked
        yield ctx.store(color, v, candidate, color_write,
                        site="gc.color.write")
        yield ctx.store(changed, 0, 1, AccessKind.ATOMIC)

    return gc_kernel


def posscol_words(max_deg: int) -> int:
    """32-bit words needed for a possible-color bitset: a vertex of
    degree ``d`` needs bits ``0..d`` (greedy never exceeds degree)."""
    return max(1, -(-(max_deg + 1) // 32))


def initial_posscol(degrees: np.ndarray, words: int) -> np.ndarray:
    """Per-vertex initial possible sets ``2^(deg+1) - 1``, split into
    ``words`` little-endian u32 words (flattened row-major)."""
    bits = degrees.astype(np.int64) + 1
    init = np.zeros((len(bits), words), dtype=np.uint32)
    for w in range(words):
        rem = np.clip(bits - 32 * w, 0, 32).astype(np.uint64)
        init[:, w] = (((np.uint64(1) << rem) - np.uint64(1))
                      & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    return init.reshape(-1)


def run_simt(graph, variant: Variant, seed: int = 0, scheduler=None,
             executor: SimtExecutor | None = None):
    """Run GC on the SIMT interpreter (small graphs only)."""
    from repro.gpu.accesses import DType

    mem = executor.memory if executor else GlobalMemory()
    ex = executor or SimtExecutor(mem, scheduler=scheduler)
    n = graph.num_vertices
    max_deg = int(graph.degrees().max()) if n else 0
    # multi-word possible-color bitsets lift the historical 32-bit cap
    # (max degree 30); one word keeps the historical layout bit for bit
    words = posscol_words(max_deg)
    offsets = mem.alloc("gc_offsets", n + 1, DType.I64)
    indices = mem.alloc("gc_indices", max(1, graph.num_edges), DType.I32)
    prio = mem.alloc("gc_prio", n, DType.I64)
    color = mem.alloc("gc_color", n, DType.I32)
    posscol = mem.alloc("gc_posscol", n * words, DType.U32)
    changed = mem.alloc("gc_changed", 1, DType.I32)
    mem.upload(offsets, graph.row_offsets)
    if graph.num_edges:
        mem.upload(indices, graph.col_indices)
    else:
        mem.upload(indices, np.zeros(1, dtype=np.int64))
    mem.upload(prio, make_priorities(graph, seed))
    mem.upload(color, np.full(n, UNCOLORED))
    if n:
        mem.upload(posscol, initial_posscol(graph.degrees(), words))

    kernel = make_gc_kernel(variant, words=words)
    while True:
        mem.element_write(changed, 0, 0)
        ex.launch(kernel, n, offsets, indices, prio, color, posscol,
                  changed)
        colors = mem.download(color)
        if mem.element_read(changed, 0) == 0 and np.all(colors != UNCOLORED):
            break
        if mem.element_read(changed, 0) == 0:
            break  # no progress and still uncolored: let caller detect
    colors = mem.download(color)
    for name in ("gc_offsets", "gc_indices", "gc_prio", "gc_color",
                 "gc_posscol", "gc_changed"):
        mem.free(name)
    return colors, ex


register_algorithm(AlgorithmInfo(
    key="gc",
    full_name="graph coloring (ECL-GC)",
    directed=False,
    needs_weights=False,
    has_races=True,
    perf_runner=run_perf,
    module="repro.algorithms.gc",
))
