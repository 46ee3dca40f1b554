"""Unit and property tests for repro.util.bits."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util import bits


class TestMask:
    def test_zero_width(self):
        assert bits.mask(0) == 0

    def test_byte(self):
        assert bits.mask(8) == 0xFF

    def test_sixteen(self):
        assert bits.mask(16) == 0xFFFF

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bits.mask(-1)


class TestBitsRoundtrip:
    @given(st.integers(min_value=0, max_value=2**24 - 1))
    def test_roundtrip(self, value):
        assert bits.from_bits(bits.bits_of(value, 24)) == value

    def test_lsb_first(self):
        assert bits.bits_of(0b0110, 4) == [0, 1, 1, 0]

    def test_negative_value_wraps(self):
        assert bits.bits_of(-1, 4) == [1, 1, 1, 1]

    def test_from_bits_rejects_non_binary(self):
        with pytest.raises(ValueError):
            bits.from_bits([0, 2, 1])

    @given(
        st.integers(min_value=0, max_value=255),
        st.integers(min_value=0, max_value=255),
    )
    def test_truncation(self, value, extra):
        # bits_of truncates to width
        assert bits.from_bits(bits.bits_of(value + (extra << 8), 8)) == value


class TestSetBits:
    @given(st.integers(min_value=0, max_value=2**80))
    def test_positions_rebuild_the_value(self, value):
        positions = bits.set_bits(value)
        assert positions == sorted(positions)
        assert sum(1 << i for i in positions) == value

    def test_zero_has_no_bits(self):
        assert bits.set_bits(0) == []

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bits.set_bits(-1)


class TestSignExtend:
    def test_negative(self):
        assert bits.sign_extend(0x80, 8, 16) == 0xFF80

    def test_positive(self):
        assert bits.sign_extend(0x7F, 8, 16) == 0x7F

    def test_same_width_identity(self):
        assert bits.sign_extend(0xAB, 8, 8) == 0xAB

    def test_narrowing_raises(self):
        with pytest.raises(ValueError):
            bits.sign_extend(0, 16, 8)

    @given(st.integers(min_value=-128, max_value=127))
    def test_preserves_signed_value(self, value):
        extended = bits.sign_extend(value & 0xFF, 8, 32)
        assert bits.to_signed(extended, 32) == value


class TestToSigned:
    def test_minus_one(self):
        assert bits.to_signed(0xFF, 8) == -1

    def test_min(self):
        assert bits.to_signed(0x80, 8) == -128

    def test_max(self):
        assert bits.to_signed(0x7F, 8) == 127

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_modular_identity(self, value):
        assert bits.to_signed(value, 16) % (1 << 16) == value


class TestBitCount:
    @given(st.integers(min_value=0, max_value=2**32))
    def test_matches_bin(self, value):
        assert bits.bit_count(value) == bin(value).count("1")

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            bits.bit_count(-5)
