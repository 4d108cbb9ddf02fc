"""Tests for the byte-granular global memory model."""

from __future__ import annotations

import copy
import pickle
import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import MemoryAccessError
from repro.gpu.accesses import AccessKind, DType, MemSpan
from repro.gpu.faults import FaultPlan
from repro.gpu.memory import (
    GlobalMemory,
    pack_int2,
    split_native_words,
    unpack_int2,
)
from repro.gpu.simt import SimtExecutor


class TestAllocation:
    def test_alloc_and_fill(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 4, DType.I32, fill=-1)
        assert all(mem.element_read(h, i) == -1 for i in range(4))

    def test_double_alloc_rejected(self):
        mem = GlobalMemory()
        mem.alloc("a", 1, DType.I32)
        with pytest.raises(MemoryAccessError):
            mem.alloc("a", 1, DType.I32)

    def test_negative_length_rejected(self):
        with pytest.raises(MemoryAccessError):
            GlobalMemory().alloc("a", -1, DType.I32)

    def test_free_then_use_rejected(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 1, DType.I32)
        mem.free("a")
        with pytest.raises(MemoryAccessError):
            mem.element_read(h, 0)

    def test_free_unallocated_rejected(self):
        with pytest.raises(MemoryAccessError):
            GlobalMemory().free("nope")

    def test_handle_lookup(self):
        mem = GlobalMemory()
        h = mem.alloc("x", 3, DType.U8)
        assert mem.handle("x") == h
        with pytest.raises(MemoryAccessError):
            mem.handle("y")


class TestTransfer:
    def test_upload_download_i32(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 5, DType.I32)
        vals = np.array([-2, -1, 0, 1, 2], dtype=np.int64)
        mem.upload(h, vals)
        assert np.array_equal(mem.download(h), vals)

    def test_upload_download_u8(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 4, DType.U8)
        mem.upload(h, np.array([0, 127, 200, 255]))
        assert np.array_equal(mem.download(h), [0, 127, 200, 255])

    def test_upload_download_i64(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 3, DType.I64)
        vals = np.array([-(1 << 40), 0, (1 << 40)], dtype=np.int64)
        mem.upload(h, vals)
        assert np.array_equal(mem.download(h), vals)

    def test_upload_length_checked(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 3, DType.I32)
        with pytest.raises(MemoryAccessError):
            mem.upload(h, np.zeros(4))


class TestElementOps:
    @pytest.mark.parametrize("dtype,value", [
        (DType.U8, 0xAB),
        (DType.I32, -123456),
        (DType.U32, 0xDEADBEEF),
        (DType.I64, -(1 << 50)),
        (DType.U64, (1 << 60) + 7),
        (DType.INT2, pack_int2(-3, 9)),
    ])
    def test_write_read_roundtrip(self, dtype, value):
        mem = GlobalMemory()
        h = mem.alloc("a", 2, dtype)
        mem.element_write(h, 1, value)
        assert mem.element_read(h, 1) == value

    def test_out_of_bounds_element(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 2, DType.I32)
        with pytest.raises(MemoryAccessError):
            h.span(2)
        with pytest.raises(MemoryAccessError):
            h.span(-1)

    def test_subspan_bounds(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 1, DType.I64)
        h.subspan(0, 4, 4)  # high half OK
        with pytest.raises(MemoryAccessError):
            h.subspan(0, 5, 4)

    def test_cast_span_bounds(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 8, DType.U8)
        h.cast_span(4, 4)
        with pytest.raises(MemoryAccessError):
            h.cast_span(6, 4)

    def test_char_array_int_view(self):
        """Fig. 3: an int-sized read over a char array sees 4 bytes."""
        mem = GlobalMemory()
        h = mem.alloc("stat", 8, DType.U8)
        for i, b in enumerate([0x11, 0x22, 0x33, 0x44]):
            mem.element_write(h, 4 + i, b)
        word = mem.span_read(h.cast_span(4, 4))
        assert word == 0x44332211  # little-endian


class TestWordSplitting:
    def test_aligned_64bit_splits_in_two(self):
        pieces = split_native_words(MemSpan("a", 8, 8))
        assert [(p.start, p.nbytes) for p in pieces] == [(8, 4), (12, 4)]

    def test_single_byte_stays_whole(self):
        pieces = split_native_words(MemSpan("a", 5, 1))
        assert len(pieces) == 1

    def test_unaligned_span_splits_at_boundary(self):
        pieces = split_native_words(MemSpan("a", 6, 4))
        assert [(p.start, p.nbytes) for p in pieces] == [(6, 2), (8, 2)]

    @given(st.integers(0, 64), st.integers(1, 16))
    def test_pieces_cover_exactly(self, start, nbytes):
        pieces = split_native_words(MemSpan("a", start, nbytes))
        covered = []
        for p in pieces:
            covered.extend(range(p.start, p.end))
        assert covered == list(range(start, start + nbytes))


class TestInt2:
    def test_pack_unpack(self):
        assert unpack_int2(pack_int2(-5, 1 << 30)) == (-5, 1 << 30)

    @given(st.integers(-(2 ** 31), 2 ** 31 - 1),
           st.integers(-(2 ** 31), 2 ** 31 - 1))
    def test_roundtrip(self, a, b):
        assert unpack_int2(pack_int2(a, b)) == (a, b)


class TestSpanOverlap:
    def test_overlap_same_array(self):
        assert MemSpan("a", 0, 4).overlaps(MemSpan("a", 3, 4))
        assert not MemSpan("a", 0, 4).overlaps(MemSpan("a", 4, 4))

    def test_no_overlap_across_arrays(self):
        assert not MemSpan("a", 0, 4).overlaps(MemSpan("b", 0, 4))


# ----------------------------------------------------------------------
# Scalar span reads and writes go through a memoryview of the arena
# ----------------------------------------------------------------------

def _store_kernel(ctx, arr):
    yield ctx.store(arr, ctx.tid, 10 * ctx.tid - 7, AccessKind.PLAIN)


def _copy_kernel(ctx, src, dst):
    value = yield ctx.load(src, ctx.tid, AccessKind.PLAIN)
    yield ctx.store(dst, ctx.tid, value + 1, AccessKind.PLAIN)


class TestScalarSpanPath:
    def _grow(self, mem):
        generation = mem._arena.generation
        mem.alloc("filler", mem._arena.buf.shape[0] + 1, DType.U8)
        assert mem._arena.generation != generation

    def test_span_ops_follow_the_arena_when_it_grows(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 4, DType.I32)
        mem.span_write(h.span(0), 0xDEADBEEF)
        self._grow(mem)
        assert mem.span_read(h.span(0)) == 0xDEADBEEF
        # a scalar write after the growth lands in the new buffer ...
        mem.span_write(h.span(1), 41)
        assert mem.download(h)[1] == 41
        # ... and a scalar read sees what the numpy side wrote there
        mem.upload(h, [5, 6, 7, 8])
        assert [mem.span_read(h.span(i)) for i in range(4)] == [5, 6, 7, 8]

    def test_download_and_typed_view_see_interpreter_writes(self):
        mem = GlobalMemory()
        arr = mem.alloc("arr", 8, DType.I32)
        SimtExecutor(mem, batch=False).launch(_store_kernel, 8, arr)
        expected = [10 * t - 7 for t in range(8)]
        assert mem.download(arr).tolist() == expected
        assert mem.typed_view("arr", 4, signed=True).tolist() == expected

    def test_batched_and_interpreted_launches_share_memory(self):
        mem = GlobalMemory()
        src = mem.alloc("src", 64, DType.I32)
        mid = mem.alloc("mid", 64, DType.I32)
        dst = mem.alloc("dst", 64, DType.I32)
        mem.upload(src, list(range(64)))
        batched = SimtExecutor(mem, batch=True)
        batched.launch(_copy_kernel, 64, src, mid)
        assert batched.batch_stats.batched_launches == 1
        interp = SimtExecutor(mem, batch=False)
        interp.launch(_copy_kernel, 64, mid, dst)
        assert interp.batch_stats.interp_launches == 1
        assert mem.download(dst).tolist() == [v + 2 for v in range(64)]
        # the batched tier reads the interpreter's writes through its
        # typed views
        batched.launch(_copy_kernel, 64, dst, mid)
        assert mem.typed_view("mid", 4, signed=True).tolist() == [
            v + 3 for v in range(64)]

    @pytest.mark.parametrize("span, message", [
        (MemSpan("a", 12, 8), "a[12:20] out of bounds"),
        (MemSpan("a", 16, 4), "a[16:20] out of bounds"),
        (MemSpan("a", 4, 0), "a[4:4] out of bounds"),
        (MemSpan("a", -4, 4), "a[-4:0] out of bounds"),
        (MemSpan("nope", 0, 4), "array 'nope' not allocated"),
    ])
    def test_bad_spans_raise(self, span, message):
        mem = GlobalMemory()
        mem.alloc("a", 4, DType.I32)
        with pytest.raises(MemoryAccessError, match=re.escape(message)):
            mem.span_read(span)
        with pytest.raises(MemoryAccessError, match=re.escape(message)):
            mem.span_write(span, 1)

    def test_freed_array_spans_raise(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 4, DType.I32)
        mem.free("a")
        for op in (lambda: mem.span_read(h.span(0)),
                   lambda: mem.span_write(h.span(0), 1)):
            with pytest.raises(MemoryAccessError,
                               match="array 'a' not allocated"):
                op()

    @pytest.mark.parametrize("clone", [
        copy.deepcopy, lambda mem: pickle.loads(pickle.dumps(mem))])
    def test_copies_get_their_own_arena(self, clone):
        mem = GlobalMemory()
        h = mem.alloc("a", 2, DType.I32)
        mem.span_write(h.span(0), 11)
        twin = clone(mem)
        twin.span_write(h.span(1), 22)
        mem.span_write(h.span(0), 33)
        assert twin.download(h).tolist() == [11, 22]
        assert mem.download(h).tolist() == [33, 0]

    def test_writes_mask_to_the_span_width(self):
        mem = GlobalMemory()
        h = mem.alloc("a", 2, DType.I32)
        mem.span_write(h.span(0), -1)
        mem.span_write(h.span(1), 0x1_2345_6789)
        assert mem.span_read(h.span(0)) == 0xFFFFFFFF
        assert mem.span_read(h.span(1)) == 0x2345_6789

    def test_dropped_write_faults(self):
        mem = GlobalMemory(faults=FaultPlan.parse("drop=1").injector("t"))
        h = mem.alloc("a", 2, DType.I32)
        mem.span_write(h.span(0), 7, kind=AccessKind.PLAIN)
        mem.span_write(h.span(1), 9, kind=AccessKind.ATOMIC)
        mem.span_write(h.span(0), 3)  # host writes are never faulted
        assert mem.download(h).tolist() == [3, 9]
        mem.span_write(h.span(0), 5, kind=AccessKind.VOLATILE)
        assert mem.span_read(h.span(0)) == 3

    def test_torn_write_faults(self):
        mem = GlobalMemory(faults=FaultPlan.parse("tear=1").injector("t"))
        h = mem.alloc("a", 2, DType.U64)
        mem.span_write(h.span(0), 0x1122334455667788, kind=AccessKind.PLAIN)
        mem.span_write(h.span(1), 0x1122334455667788, kind=AccessKind.ATOMIC)
        assert mem.span_read(h.span(0)) == 0x55667788
        assert mem.span_read(h.span(1)) == 0x1122334455667788

    def test_stale_read_faults(self):
        mem = GlobalMemory(faults=FaultPlan.parse("stuck=1").injector("t"))
        h = mem.alloc("a", 1, DType.I32)
        span = h.span(0)
        assert mem.span_read(span, kind=AccessKind.PLAIN) == 0
        mem.span_write(span, 4)
        assert mem.span_read(span, kind=AccessKind.PLAIN) == 0
        assert mem.span_read(span, kind=AccessKind.VOLATILE) == 4
        assert mem.span_read(span, kind=AccessKind.ATOMIC) == 4
        assert mem.span_read(span) == 4
