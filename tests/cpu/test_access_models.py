"""Tests for the def-use register access decoders of both cores."""

import pytest

from repro.cpu.avr import assemble_avr
from repro.cpu.avr.access import registers_read as avr_registers_read
from repro.cpu.msp430 import assemble_msp430
from repro.cpu.msp430.access import registers_read


class TestAvrReadDecode:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("add r4, r5", {4, 5}),
            ("mov r4, r5", {5}),
            ("ldi r20, 9", set()),
            ("subi r20, 9", {20}),
            ("inc r7", {7}),
            ("st x+, r9", {9, 26, 27}),
            ("ld r9, x", {26, 27}),
            ("out 0x05, r12", {12}),
            ("in r12, 0x32", set()),
            ("brne 0", set()),
            ("rjmp 0", set()),
            ("nop", set()),
            ("sleep", set()),
            ("ret", set()),
        ],
    )
    def test_registers_read(self, source, expected):
        (word,) = assemble_avr(source)
        assert avr_registers_read(word) == expected


class TestMsp430RegistersRead:
    @pytest.mark.parametrize(
        "source,expected",
        [
            ("mov r5, r6", {5}),          # MOV does not read its register dst
            ("add r5, r6", {5, 6}),       # RMW dst is read
            ("mov #0x1234, r5", set()),   # immediate src, MOV dst
            ("add #2, r5", {5}),          # CG immediate + RMW dst
            ("mov @r4, r5", {4}),
            ("mov @r4+, r5", {4}),
            ("mov 4(r6), r7", {6}),
            ("mov r7, 4(r6)", {6, 7}),    # indexed dst reads the base
            ("mov r5, &0x220", {5}),      # absolute dst: r2 base, not RF
            ("cmp r8, r9", {8, 9}),
            ("rra r5", {5}),
            ("swpb r12", {12}),
            ("jmp 0", set()),
            ("jne 0", set()),
            ("nop", set()),
        ],
    )
    def test_decode(self, source, expected):
        words = assemble_msp430(source)
        assert registers_read(words[0]) == expected

    def test_non_rf_registers_excluded(self):
        # mov r2, r5 reads SR (r2) which is not RF-tagged.
        (word,) = assemble_msp430("mov r2, r5")
        assert registers_read(word) == set()
