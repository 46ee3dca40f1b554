"""Shared low-level helpers: bit manipulation, deterministic RNG."""

from repro.util.bits import (
    bit_count,
    bits_of,
    from_bits,
    mask,
    set_bits,
    sign_extend,
    to_signed,
)

__all__ = [
    "bit_count",
    "bits_of",
    "from_bits",
    "mask",
    "set_bits",
    "sign_extend",
    "to_signed",
]
