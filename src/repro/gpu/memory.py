"""Byte-granular simulated global memory.

Memory is organized the way the paper's typecasting tricks require: the
backing store of every array is a flat little-endian byte buffer, so a
``char`` array can be reinterpreted as an ``int`` array (Fig. 3), an
``int2`` pair lives in one 8-byte element whose halves are individually
addressable (Fig. 5), and a non-atomic access wider than the native
32-bit word is decomposed by the SIMT executor into word-size pieces
that other threads can observe half-done — real word tearing, Fig. 1's
``0xffffffff00000000`` chimera included.

All element values cross the API as Python ints; signedness is applied
per the array's :class:`~repro.gpu.accesses.DType` at the edges, like a
C cast reinterpreting the bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MemoryAccessError
from repro.gpu.accesses import AccessKind, DType, MemSpan
from repro.gpu.faults import FaultInjector, FaultKind
from repro.telemetry.metrics import get_registry
from repro.utils.bitops import join_u64, split_u64, to_signed, to_unsigned

NATIVE_WORD_BYTES = 4
"""Width of one native memory transaction (CUDA's 32-bit word)."""

#: builds a :class:`MemSpan` from its field tuple without the
#: NamedTuple's Python-level ``__new__`` (kernels make one per access)
_tuple_new = tuple.__new__


@dataclass(frozen=True)
class ArrayHandle:
    """Reference to an allocated global array."""

    name: str
    dtype: DType
    length: int
    #: derived sizes, precomputed (identity/eq still on name/dtype/length)
    elem_bytes: int = field(init=False, repr=False, compare=False, default=0)
    total_bytes: int = field(init=False, repr=False, compare=False, default=0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "elem_bytes", self.dtype.width_bytes)
        object.__setattr__(self, "total_bytes",
                           self.length * self.dtype.width_bytes)

    def span(self, element: int) -> MemSpan:
        """The byte span of one whole element."""
        if not 0 <= element < self.length:
            raise MemoryAccessError(
                f"{self.name}[{element}] out of range [0, {self.length})"
            )
        return _tuple_new(MemSpan, (self.name, element * self.elem_bytes,
                                    self.elem_bytes))

    def subspan(self, element: int, byte_offset: int, nbytes: int) -> MemSpan:
        """A byte range inside one element (int2 halves, Fig. 5)."""
        base = self.span(element)
        if byte_offset < 0 or byte_offset + nbytes > self.elem_bytes:
            raise MemoryAccessError(
                f"subspan [{byte_offset}, {byte_offset + nbytes}) outside "
                f"element of {self.elem_bytes} bytes"
            )
        return MemSpan(self.name, base.start + byte_offset, nbytes)

    def cast_span(self, byte_start: int, nbytes: int) -> MemSpan:
        """A reinterpret-cast access (Fig. 3's ``(int*)node_stat``)."""
        if byte_start < 0 or byte_start + nbytes > self.total_bytes:
            raise MemoryAccessError(
                f"cast span [{byte_start}, {byte_start + nbytes}) outside "
                f"array {self.name!r} of {self.total_bytes} bytes"
            )
        return _tuple_new(MemSpan, (self.name, byte_start, nbytes))


def split_native_words(span: MemSpan) -> list[MemSpan]:
    """Split a span into native-word-or-smaller pieces along word
    boundaries — the decomposition that makes wide plain accesses tear."""
    if span.start % NATIVE_WORD_BYTES + span.nbytes <= NATIVE_WORD_BYTES:
        return [span]  # already within one word: no decomposition
    pieces = []
    pos = span.start
    end = span.end
    while pos < end:
        boundary = (pos // NATIVE_WORD_BYTES + 1) * NATIVE_WORD_BYTES
        piece_end = min(end, boundary)
        pieces.append(MemSpan(span.array, pos, piece_end - pos))
        pos = piece_end
    return pieces


#: numpy dtype string per (element width, signedness) — the typed-view
#: windows the batched tier gathers and scatters through
_TYPED_DTYPES = {
    (1, False): "<u1", (1, True): "<i1",
    (2, False): "<u2", (2, True): "<i2",
    (4, False): "<u4", (4, True): "<i4",
    (8, False): "<u8", (8, True): "<i8",
}


class _Arena:
    """One contiguous byte buffer backing every allocation.

    Named arrays are carved out of a single ndarray as 8-byte-aligned
    blocks (first-fit with coalescing free list, geometric growth), so
    warp-wide gather/scatter, ``fingerprint()``, and checksumming all
    run over flat ndarray views instead of per-element Python.  Blocks
    are zeroed on allocation, preserving the fresh-``np.zeros``
    semantics of the previous per-array backing stores.
    """

    ALIGN = 8

    def __init__(self, capacity: int = 1 << 16) -> None:
        self.buf = np.zeros(capacity, dtype=np.uint8)
        #: a memoryview of ``buf``, retaken with it: scalar span reads
        #: and writes slice it instead of numpy
        self.view = memoryview(self.buf)
        #: bumped whenever the backing buffer is reallocated; any view
        #: cached against an older generation is dangling
        self.generation = 0
        self._free: list[list[int]] = [[0, capacity]]  # [offset, size]

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        del state["view"]  # a memoryview cannot be pickled; rebuilt below
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self.view = memoryview(self.buf)

    @classmethod
    def block_size(cls, nbytes: int) -> int:
        """Allocation granule: padded so typed views of every native
        width fit and successor blocks stay aligned."""
        return max(cls.ALIGN,
                   (nbytes + cls.ALIGN - 1) // cls.ALIGN * cls.ALIGN)

    def allocate(self, nbytes: int) -> int:
        """Reserve (and zero) a block; returns its byte offset."""
        size = self.block_size(nbytes)
        for i, (off, avail) in enumerate(self._free):
            if avail >= size:
                if avail == size:
                    self._free.pop(i)
                else:
                    self._free[i] = [off + size, avail - size]
                self.buf[off:off + size] = 0
                return off
        self._grow(size)
        return self.allocate(nbytes)

    def _grow(self, need: int) -> None:
        old = self.buf
        cap = old.shape[0]
        new_cap = cap
        while new_cap - cap < need:
            new_cap *= 2
        buf = np.zeros(new_cap, dtype=np.uint8)
        buf[:cap] = old
        self.buf = buf
        self.view = memoryview(buf)
        self.generation += 1
        self._insert_free(cap, new_cap - cap)

    def release(self, offset: int, nbytes: int) -> None:
        self._insert_free(offset, self.block_size(nbytes))

    def _insert_free(self, offset: int, size: int) -> None:
        """Insert a block into the free list (offset-sorted, coalesced)."""
        free = self._free
        lo, hi = 0, len(free)
        while lo < hi:
            mid = (lo + hi) // 2
            if free[mid][0] < offset:
                lo = mid + 1
            else:
                hi = mid
        free.insert(lo, [offset, size])
        if lo + 1 < len(free) and free[lo][0] + free[lo][1] == free[lo + 1][0]:
            free[lo][1] += free[lo + 1][1]
            free.pop(lo + 1)
        if lo > 0 and free[lo - 1][0] + free[lo - 1][1] == free[lo][0]:
            free[lo - 1][1] += free[lo][1]
            free.pop(lo)


def pack_int2(first: int, second: int) -> int:
    """Pack an ``int2`` (two signed 32-bit ints) into its 64-bit element."""
    return to_signed(
        join_u64(to_unsigned(first, 32), to_unsigned(second, 32)), 64
    )


def unpack_int2(value: int) -> tuple[int, int]:
    """Unpack a 64-bit ``int2`` element into its (first, second) ints."""
    lo, hi = split_u64(to_unsigned(value, 64))
    return to_signed(lo, 32), to_signed(hi, 32)


class GlobalMemory:
    """The simulated GPU's global memory: named, typed byte buffers.

    An optional :class:`~repro.gpu.faults.FaultInjector` makes the
    memory system adversarial: span operations that declare their
    :class:`~repro.gpu.accesses.AccessKind` (the SIMT executor does)
    can suffer dropped or torn non-atomic stores and stuck-stale plain
    loads.  With ``faults=None`` (the default) and for kind-less host
    operations, behavior is bit-identical to the unfaulted memory.
    """

    def __init__(self, faults: FaultInjector | None = None) -> None:
        self._arena = _Arena()
        #: name -> (handle, byte offset of the array's block in the arena)
        self._arrays: dict[str, tuple[ArrayHandle, int]] = {}
        #: cached per-array uint8 slice views into the arena buffer
        self._views: dict[str, np.ndarray] = {}
        #: cached typed views keyed (name, element width, signed)
        self._typed: dict[tuple[str, int, bool], np.ndarray] = {}
        self._view_generation = self._arena.generation
        self.faults = faults

    def _refresh_views(self) -> None:
        """Drop cached views after an arena reallocation."""
        if self._view_generation != self._arena.generation:
            self._views.clear()
            self._typed.clear()
            self._view_generation = self._arena.generation

    def _count_fault(self, kind: str) -> None:
        reg = get_registry()
        if reg.enabled:
            reg.counter("repro_mem_faults_total",
                        "Injected memory faults that actually fired",
                        ("kind",)).inc(1, kind)

    # ------------------------------------------------------------------
    # Allocation and bulk transfer (host-side, not simulated accesses)
    # ------------------------------------------------------------------
    def alloc(self, name: str, length: int, dtype: DType,
              fill: int = 0) -> ArrayHandle:
        """Allocate ``length`` elements of ``dtype`` under ``name``."""
        if name in self._arrays:
            raise MemoryAccessError(f"array {name!r} already allocated")
        if length < 0:
            raise MemoryAccessError(f"negative length {length}")
        handle = ArrayHandle(name, dtype, length)
        offset = self._arena.allocate(handle.total_bytes)
        self._arrays[name] = (handle, offset)
        if fill != 0:
            self.fill(handle, fill)
        return handle

    def fill(self, handle: ArrayHandle, value: int) -> None:
        """Set every element to ``value`` (cudaMemset analog)."""
        store = self._store(handle)
        raw = to_unsigned(value, handle.dtype.width_bits)
        pattern = raw.to_bytes(handle.elem_bytes, "little")
        store[:] = np.frombuffer(
            pattern * handle.length, dtype=np.uint8
        )

    def free(self, name: str) -> None:
        """Release an allocation."""
        if name not in self._arrays:
            raise MemoryAccessError(f"array {name!r} not allocated")
        handle, offset = self._arrays.pop(name)
        self._arena.release(offset, handle.total_bytes)
        self._views.pop(name, None)
        for key in [k for k in self._typed if k[0] == name]:
            del self._typed[key]

    def handle(self, name: str) -> ArrayHandle:
        try:
            return self._arrays[name][0]
        except KeyError:
            raise MemoryAccessError(f"array {name!r} not allocated") from None

    def arrays(self) -> list[ArrayHandle]:
        return [h for h, _ in self._arrays.values()]

    def fingerprint(self) -> bytes:
        """Digest of the full memory image (names, shapes, and bytes).

        Two memories with equal fingerprints are observationally
        identical; the schedule explorer uses this to deduplicate
        states and the replayer to certify bit-identical re-execution.
        """
        import hashlib

        h = hashlib.blake2b(digest_size=16)
        for name in sorted(self._arrays):
            handle, _ = self._arrays[name]
            h.update(name.encode())
            h.update(f"{handle.dtype.label}:{handle.length};".encode())
            h.update(self._store_by_name(name).tobytes())
        return h.digest()

    def upload(self, handle: ArrayHandle, values: np.ndarray | list) -> None:
        """Host-to-device bulk copy (cudaMemcpy analog)."""
        values = np.asarray(values, dtype=np.int64)
        if values.shape[0] != handle.length:
            raise MemoryAccessError(
                f"upload length {values.shape[0]} != {handle.length}"
            )
        width = handle.dtype.width_bits
        if width == 8:
            raw = (values & 0xFF).astype(np.uint8)
            self._store(handle)[:] = raw
        elif width == 32:
            raw = (values.astype(np.uint64) & np.uint64(0xFFFFFFFF)).astype("<u4")
            self._store(handle)[:] = raw.view(np.uint8)
        else:
            raw = values.astype(np.uint64).astype("<u8")
            self._store(handle)[:] = raw.view(np.uint8)

    def download(self, handle: ArrayHandle) -> np.ndarray:
        """Device-to-host bulk copy, decoded per the array's dtype."""
        store = self._store(handle)
        width = handle.dtype.width_bits
        if width == 8:
            return store.astype(np.int64)
        if width == 32:
            raw = store.view("<u4").astype(np.int64)
            if handle.dtype.signed:
                raw = np.where(raw >= (1 << 31), raw - (1 << 32), raw)
            return raw
        raw = store.view("<u8")
        return raw.astype(np.int64) if handle.dtype.signed else raw.astype(np.int64)

    # ------------------------------------------------------------------
    # Span-level operations (what the SIMT executor drives)
    # ------------------------------------------------------------------
    def span_read(self, span: MemSpan,
                  kind: AccessKind | None = None) -> int:
        """Read ``span`` as an unsigned little-endian integer.

        ``kind`` identifies the simulated access class for fault
        injection; ``None`` marks a host-side operation, which is never
        faulted.
        """
        offset = self._check(span)
        value = int.from_bytes(
            self._arena.view[offset:offset + span.nbytes], "little")
        if self.faults is not None and kind is not None:
            faulted = self.faults.load_fault(span, value, kind)
            if faulted != value:
                self._count_fault("stale_load")
            value = faulted
        return value

    def span_write(self, span: MemSpan, value: int,
                   kind: AccessKind | None = None) -> None:
        """Write ``span`` from an unsigned little-endian integer.

        ``kind`` identifies the simulated access class for fault
        injection (``None`` = host operation, never faulted): a
        non-atomic store may be dropped entirely, or torn so that only
        its lowest native-word piece reaches memory.
        """
        if self.faults is not None and kind is not None:
            fault = self.faults.store_fault(span, kind)
            if fault is FaultKind.DROPPED_WRITE:
                self._count_fault("dropped_write")
                return
            if (fault is FaultKind.TORN_WRITE
                    and span.nbytes > NATIVE_WORD_BYTES):
                self._count_fault("torn_write")
                span = split_native_words(span)[0]
                value = value & ((1 << (span.nbytes * 8)) - 1)
        offset = self._check(span)
        nbytes = span.nbytes
        self._arena.view[offset:offset + nbytes] = (
            value & ((1 << (nbytes * 8)) - 1)).to_bytes(nbytes, "little")

    # ------------------------------------------------------------------
    # Element-level convenience (tests and host code)
    # ------------------------------------------------------------------
    def element_read(self, handle: ArrayHandle, index: int) -> int:
        raw = self.span_read(handle.span(index))
        if handle.dtype.signed:
            return to_signed(raw, handle.dtype.width_bits)
        return raw

    def element_write(self, handle: ArrayHandle, index: int,
                      value: int) -> None:
        self.span_write(handle.span(index), value)

    # ------------------------------------------------------------------
    def _store(self, handle: ArrayHandle) -> np.ndarray:
        return self._store_by_name(handle.name)

    def _store_by_name(self, name: str) -> np.ndarray:
        self._refresh_views()
        view = self._views.get(name)
        if view is None:
            try:
                handle, offset = self._arrays[name]
            except KeyError:
                raise MemoryAccessError(
                    f"array {name!r} not allocated"
                ) from None
            view = self._arena.buf[offset:offset + handle.total_bytes]
            self._views[name] = view
        return view

    def typed_view(self, name: str, width: int,
                   signed: bool = False) -> np.ndarray:
        """Cached ndarray view of ``name`` reinterpreted at ``width``
        bytes per element — the batched tier's gather/scatter window.

        Arena blocks are 8-byte aligned, so views of every native width
        are aligned; a trailing remainder narrower than ``width`` is
        truncated (cast-style, like ``(int*)char_array``).
        """
        self._refresh_views()
        key = (name, width, signed)
        view = self._typed.get(key)
        if view is None:
            store = self._store_by_name(name)
            usable = store.shape[0] // width * width
            view = store[:usable].view(_TYPED_DTYPES[(width, signed)])
            self._typed[key] = view
        return view

    def _check(self, span: MemSpan) -> int:
        """Bounds-check ``span`` against its array's handle; returns the
        span's byte offset in the arena."""
        try:
            handle, offset = self._arrays[span.array]
        except KeyError:
            raise MemoryAccessError(
                f"array {span.array!r} not allocated") from None
        start, nbytes = span.start, span.nbytes
        if start < 0 or nbytes <= 0 or start + nbytes > handle.total_bytes:
            raise MemoryAccessError(f"{span} out of bounds")
        return offset + start
