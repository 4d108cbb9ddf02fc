"""Tests for the dynamic race detector (the Compute Sanitizer stand-in)."""

from __future__ import annotations

from repro.gpu.accesses import AccessKind, DType, RMWOp
from repro.gpu.memory import GlobalMemory
from repro.gpu.racecheck import RaceDetector, summarize_races
from repro.gpu.simt import SimtExecutor


def run(kernel, n_threads, *alloc_spec, launches=1):
    mem = GlobalMemory()
    handles = [mem.alloc(f"a{i}", length, dtype)
               for i, (length, dtype) in enumerate(alloc_spec)]
    ex = SimtExecutor(mem)
    for _ in range(launches):
        ex.launch(kernel, n_threads, *handles)
    return ex


class TestDetection:
    def test_write_write_race(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, 0, ctx.tid)

        reports = RaceDetector().check(run(kernel, 2, (1, DType.I32)))
        assert len(reports) == 1
        assert reports[0].kind == "write-write"

    def test_read_write_race(self):
        def kernel(ctx, arr):
            if ctx.tid == 0:
                yield ctx.load(arr, 0)
            else:
                yield ctx.store(arr, 0, 1)

        reports = RaceDetector().check(run(kernel, 2, (1, DType.I32)))
        assert len(reports) == 1
        assert reports[0].kind == "read-write"

    def test_volatile_does_not_fix_the_race(self):
        """Volatile prevents register caching but not the race itself."""

        def kernel(ctx, arr):
            yield ctx.store(arr, 0, ctx.tid, AccessKind.VOLATILE)

        assert RaceDetector().check(run(kernel, 2, (1, DType.I32)))

    def test_atomic_pair_is_not_a_race(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, 0, ctx.tid, AccessKind.ATOMIC)

        assert not RaceDetector().check(run(kernel, 2, (1, DType.I32)))

    def test_atomic_vs_plain_is_a_race(self):
        """One atomic access does not synchronize the other side."""

        def kernel(ctx, arr):
            if ctx.tid == 0:
                yield ctx.store(arr, 0, 1, AccessKind.ATOMIC)
            else:
                yield ctx.load(arr, 0, AccessKind.PLAIN)

        assert RaceDetector().check(run(kernel, 2, (1, DType.I32)))

    def test_concurrent_reads_are_fine(self):
        def kernel(ctx, arr):
            yield ctx.load(arr, 0)

        assert not RaceDetector().check(run(kernel, 8, (1, DType.I32)))

    def test_disjoint_elements_are_fine(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, ctx.tid, 1)

        assert not RaceDetector().check(run(kernel, 8, (8, DType.I32)))

    def test_adjacent_bytes_of_one_word_are_fine(self):
        """Different bytes are different memory locations (C++ model)."""

        def kernel(ctx, arr):
            yield ctx.store(arr, ctx.tid, 1)

        assert not RaceDetector().check(run(kernel, 4, (4, DType.U8)))

    def test_rmw_pairs_are_fine(self):
        def kernel(ctx, arr):
            yield ctx.atomic_rmw(arr, 0, RMWOp.ADD, 1)

        assert not RaceDetector().check(run(kernel, 8, (1, DType.I32)))


class TestHappensBefore:
    def test_kernel_boundary_orders_accesses(self):
        """iGuard's false-positive source: the implicit barrier between
        launches must be honoured."""

        def writer(ctx, arr):
            if ctx.tid == 0:
                yield ctx.store(arr, 0, 1)

        def reader(ctx, arr):
            if ctx.tid == 1:
                yield ctx.load(arr, 0)

        mem = GlobalMemory()
        arr = mem.alloc("a", 1, DType.I32)
        ex = SimtExecutor(mem)
        ex.launch(writer, 2, arr)
        ex.launch(reader, 2, arr)
        assert not RaceDetector().check(ex)

    def test_block_barrier_orders_accesses(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, ctx.tid, 1)
            yield ctx.barrier()
            yield ctx.load(arr, (ctx.tid + 1) % 2)

        ex = run(kernel, 2, (2, DType.I32))
        assert not RaceDetector().check(ex)

    def test_barrier_does_not_order_across_blocks(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, 0, ctx.tid)
            yield ctx.barrier()

        mem = GlobalMemory()
        arr = mem.alloc("a", 1, DType.I32)
        ex = SimtExecutor(mem)
        ex.launch(kernel, 2, arr, block_dim=1)  # two blocks
        assert RaceDetector().check(ex)


class TestReporting:
    def test_max_reports_cap(self):
        def kernel(ctx, arr):
            # four racy elements: four site pairs, two of them reported
            yield ctx.store(arr, ctx.tid % 4, ctx.tid)

        ex = run(kernel, 16, (4, DType.I32))
        reports = RaceDetector(max_reports=2).check(ex)
        assert len(reports) == 2

    def test_summary_counts(self):
        def kernel(ctx, arr):
            if ctx.tid == 0:
                yield ctx.store(arr, 0, 1)
            else:
                yield ctx.load(arr, 0)

        reports = RaceDetector().check(run(kernel, 3, (1, DType.I32)))
        summary = summarize_races(reports)
        assert "a0" in summary
        assert summary["a0"]["read-write"] >= 1

    def test_describe_mentions_threads(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, 0, ctx.tid)

        reports = RaceDetector().check(run(kernel, 2, (1, DType.I32)))
        text = reports[0].describe()
        assert "thread" in text and "write-write" in text


class TestSiteKeyDedupe:
    """Regression tests for the dedupe key: distinct racy program sites
    on ONE array must yield distinct reports (the old key collapsed a
    whole array's races into one line per kind pair)."""

    def test_distinct_elements_get_distinct_reports(self):
        def kernel(ctx, arr):
            # threads {0,1} race on arr[0]; threads {2,3} race on arr[1]
            yield ctx.store(arr, ctx.tid // 2, ctx.tid)

        reports = RaceDetector().check(
            run(kernel, 4, (2, DType.I32)))
        sites = {r.site_key for r in reports}
        starts = {r.first.span.start for r in reports}
        assert len(reports) == len(sites) == 2
        assert starts == {0, 4}  # both i32 elements reported

    def test_one_span_pair_still_collapses_to_one_report(self):
        def kernel(ctx, arr):
            yield ctx.store(arr, 0, ctx.tid)

        reports = RaceDetector().check(
            run(kernel, 2, (1, DType.I32)))
        # all 4 bytes of the i32 span pair dedupe to a single report
        assert len(reports) == 1

    def test_site_key_distinguishes_direction_and_kind(self):
        def kernel(ctx, arr):
            if ctx.tid == 0:
                yield ctx.store(arr, 0, 1)
            else:
                yield ctx.load(arr, 0)
                yield ctx.store(arr, 0, 2)

        reports = RaceDetector().check(
            run(kernel, 2, (1, DType.I32)))
        kinds = {(r.kind, r.first.is_write, r.second.is_write)
                 for r in reports}
        assert len(kinds) == len(reports)  # no two reports share a key
        assert {k[0] for k in kinds} >= {"write-write"}
