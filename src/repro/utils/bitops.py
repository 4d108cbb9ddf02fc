"""Bit-manipulation helpers mirroring the paper's typecasting tricks.

The race-free codes in the paper access a ``char`` stored inside an
``int`` (Figs. 3 and 4) and the two ``int`` halves of a ``long long``
(Fig. 5).  These helpers implement the same index arithmetic, shifting,
and masking on Python integers so the simulated atomics can reuse them.

All word-level values are handled as *unsigned* integers of a declared
bit width; :func:`to_signed` / :func:`to_unsigned` convert at the edges,
exactly like a C cast reinterprets the bit pattern.
"""

from __future__ import annotations

WORD_BITS = 32
"""Width of the simulated machine word (CUDA's native ``int``)."""

_U32_MASK = 0xFFFFFFFF
_U64_MASK = 0xFFFFFFFFFFFFFFFF


def to_unsigned(value: int, bits: int = WORD_BITS) -> int:
    """Reinterpret a (possibly negative) integer as an unsigned ``bits``-wide value.

    >>> to_unsigned(-1, 8)
    255
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    return value & ((1 << bits) - 1)


def to_signed(value: int, bits: int = WORD_BITS) -> int:
    """Reinterpret an unsigned ``bits``-wide value as two's-complement signed.

    >>> to_signed(255, 8)
    -1
    """
    if bits <= 0:
        raise ValueError(f"bits must be positive, got {bits}")
    mask = (1 << bits) - 1
    value &= mask
    sign_bit = 1 << (bits - 1)
    if value & sign_bit:
        return value - (1 << bits)
    return value


def byte_in_word(word: int, byte_index: int) -> int:
    """Extract byte ``byte_index`` (0 = least significant) from a 32-bit word.

    This is the read half of the paper's Fig. 3b:
    ``(word >> ((v % 4) * 8)) & 0xff``.
    """
    if not 0 <= byte_index < 4:
        raise ValueError(f"byte_index must be in [0, 4), got {byte_index}")
    return ((word & _U32_MASK) >> (byte_index * 8)) & 0xFF


def make_byte_mask(byte_index: int) -> int:
    """Build the AND mask that zeroes byte ``byte_index`` of a 32-bit word.

    This is the mask of the paper's Fig. 4b: ``~(0xff << ((v % 4) * 8))``.
    """
    if not 0 <= byte_index < 4:
        raise ValueError(f"byte_index must be in [0, 4), got {byte_index}")
    return _U32_MASK & ~(0xFF << (byte_index * 8))


def clear_byte(word: int, byte_index: int) -> int:
    """Zero out byte ``byte_index`` of a 32-bit word (Fig. 4b's atomicAnd)."""
    return to_unsigned(word, 32) & make_byte_mask(byte_index)


def insert_byte(word: int, byte_index: int, byte_value: int) -> int:
    """Replace byte ``byte_index`` of a 32-bit word with ``byte_value``."""
    if not 0 <= byte_value <= 0xFF:
        raise ValueError(f"byte_value must fit in a byte, got {byte_value}")
    return clear_byte(word, byte_index) | (byte_value << (byte_index * 8))


def split_u64(value: int) -> tuple[int, int]:
    """Split a 64-bit value into (first, second) 32-bit halves.

    ``first`` is the low half (``iaddr[0]`` in Fig. 5 on a little-endian
    machine), ``second`` the high half (``iaddr[1]``).
    """
    value = to_unsigned(value, 64)
    return value & _U32_MASK, (value >> 32) & _U32_MASK


def join_u64(first: int, second: int) -> int:
    """Join (first, second) 32-bit halves back into a 64-bit value."""
    return (to_unsigned(second, 32) << 32) | to_unsigned(first, 32)
