"""Memory access classes, orders, scopes, and element types.

The paper contrasts three ways a CUDA kernel can touch shared memory:

* **plain** accesses — the compiler may keep the value in a register
  (Section II.A's thread T4 never re-reads ``val``), and the hardware
  may cache it in L1.  Concurrent conflicting plain accesses are data
  races and therefore undefined behavior.
* **volatile** accesses — every source-level access compiles to a real
  memory instruction (no register caching), but atomicity is *not*
  guaranteed, so word tearing remains possible and the race remains.
* **atomic** accesses (libcu++) — single indivisible transactions with a
  memory order; the paper uses ``memory_order_relaxed`` everywhere.

Element types mirror the C types the ECL codes use (``char`` status
bytes in MIS, ``int`` labels in CC/GC, ``long long`` merge candidates in
MST, ``int2`` path pairs in SCC).
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class AccessKind(enum.Enum):
    """How a memory operation is performed (Section II.A).

    This enum and the operation enums below hash by identity, as their
    singleton members already compare: the interpreter keys per-step
    counters by them, and ``Enum.__hash__`` is a Python-level call.
    """

    PLAIN = "plain"
    VOLATILE = "volatile"
    ATOMIC = "atomic"

    __hash__ = object.__hash__

    @property
    def is_atomic(self) -> bool:
        return self is AccessKind.ATOMIC


class MemoryOrder(enum.Enum):
    """libcu++ memory orderings; the paper's codes only need RELAXED."""

    RELAXED = "relaxed"
    ACQUIRE = "acquire"
    RELEASE = "release"
    ACQ_REL = "acq_rel"
    SEQ_CST = "seq_cst"

    __hash__ = object.__hash__


class Scope(enum.Enum):
    """libcu++ atomic scopes (block / grid / system)."""

    BLOCK = "block"
    DEVICE = "device"
    SYSTEM = "system"

    __hash__ = object.__hash__


class DType(enum.Enum):
    """Element types of simulated global arrays.

    ``width_bits`` is the logical element width; elements wider than the
    device's native word are stored as multiple words and their
    non-atomic accesses can tear (Fig. 1).
    """

    U8 = ("u8", 8, False)
    I32 = ("i32", 32, True)
    U32 = ("u32", 32, False)
    I64 = ("i64", 64, True)
    U64 = ("u64", 64, False)
    INT2 = ("int2", 64, True)  # pair of i32, stored as one 64-bit element

    def __init__(self, label: str, width_bits: int, signed: bool) -> None:
        self.label = label
        self.width_bits = width_bits
        self.signed = signed
        self.width_bytes = width_bits // 8

    def words(self, word_bits: int = 32) -> int:
        """Number of native words one element occupies (>= 1)."""
        return max(1, self.width_bits // word_bits)


class RMWOp(enum.Enum):
    """Read-modify-write operations (CUDA atomic* functions)."""

    ADD = "add"
    AND = "and"
    OR = "or"
    XOR = "xor"
    MIN = "min"
    MAX = "max"
    EXCH = "exch"
    CAS = "cas"

    __hash__ = object.__hash__


class MemSpan(NamedTuple):
    """A byte range of a named array: the unit of one memory transaction.

    Byte granularity matters for fidelity: the paper's MIS code
    reinterprets a ``char`` array as an ``int`` array (Fig. 3), so a
    single atomic transaction can cover four logically distinct ``char``
    elements.  Conversely, two threads writing *different* bytes of the
    same word do not race.

    A NamedTuple (not a dataclass): spans are created once per simulated
    memory micro-operation, making construction cost part of the
    simulator's per-instruction floor.
    """

    array: str
    start: int
    nbytes: int

    @property
    def end(self) -> int:
        return self.start + self.nbytes

    def overlaps(self, other: "MemSpan") -> bool:
        return (self.array == other.array
                and self.start < other.end and other.start < self.end)

    def __repr__(self) -> str:
        return f"{self.array}[{self.start}:{self.end}]"
