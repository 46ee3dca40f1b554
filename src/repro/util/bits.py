"""Bit-manipulation helpers used throughout the netlist and CPU models."""

from __future__ import annotations


def mask(width: int) -> int:
    """Return an all-ones mask of ``width`` bits.

    >>> mask(8)
    255
    """
    if width < 0:
        raise ValueError(f"width must be non-negative, got {width}")
    return (1 << width) - 1


def bits_of(value: int, width: int) -> list[int]:
    """Decompose ``value`` into ``width`` bits, LSB first.

    >>> bits_of(0b101, 4)
    [1, 0, 1, 0]
    """
    if value < 0:
        value &= mask(width)
    return [(value >> i) & 1 for i in range(width)]


def from_bits(bits: list[int]) -> int:
    """Reassemble an integer from LSB-first bits (inverse of :func:`bits_of`).

    >>> from_bits([1, 0, 1, 0])
    5
    """
    value = 0
    for i, bit in enumerate(bits):
        if bit not in (0, 1):
            raise ValueError(f"bit {i} is {bit!r}, expected 0 or 1")
        value |= bit << i
    return value


def bit_count(value: int) -> int:
    """Population count of a non-negative integer."""
    if value < 0:
        raise ValueError("bit_count expects a non-negative integer")
    return value.bit_count()


def set_bits(value: int) -> list[int]:
    """Positions of the one bits of a non-negative integer, ascending.

    >>> set_bits(0b10110)
    [1, 2, 4]
    """
    if value < 0:
        raise ValueError("set_bits expects a non-negative integer")
    return [i for i, bit in enumerate(bin(value)[:1:-1]) if bit == "1"]


def sign_extend(value: int, width: int, to_width: int) -> int:
    """Sign-extend a ``width``-bit value to ``to_width`` bits.

    >>> sign_extend(0xFF, 8, 16)
    65535
    >>> sign_extend(0x7F, 8, 16)
    127
    """
    if to_width < width:
        raise ValueError(f"cannot sign-extend {width} bits down to {to_width}")
    value &= mask(width)
    if value & (1 << (width - 1)):
        value |= mask(to_width) & ~mask(width)
    return value


def to_signed(value: int, width: int) -> int:
    """Interpret a ``width``-bit value as two's-complement.

    >>> to_signed(0xFF, 8)
    -1
    """
    value &= mask(width)
    if value & (1 << (width - 1)):
        return value - (1 << width)
    return value
