"""Register def-use access sets for the MSP430 core (static dataflow layer).

``registers_read`` over-approximates which general-purpose registers (r1,
r4..r15 — the RF-tagged set) an instruction word may read, and
``registers_written`` under-approximates the ones it must overwrite. The
binary-level static layer (:mod:`repro.prune.dataflow`) decodes the
program with them to prove register-file faults dead on every path.
"""

from __future__ import annotations

from repro.cpu.msp430 import isa

#: RF-tagged registers of the core (PC, SR have dedicated analyses; r3 has
#: no storage).
RF_REGISTERS = (1, *range(4, 16))


def registers_read(word: int) -> set[int]:
    """RF registers an instruction word may read (over-approximation)."""
    word &= 0xFFFF
    opcode = word >> 12
    regs: set[int] = set()

    if opcode == 0x1:  # Format II (register mode in this subset)
        reg = word & 0xF
        if reg in RF_REGISTERS:
            regs.add(reg)
        return regs

    if opcode in (0x2, 0x3):  # jumps read only flags
        return regs

    if opcode >= 0x4:  # Format I
        src = (word >> 8) & 0xF
        as_mode = (word >> 4) & 0x3
        dst = word & 0xF
        ad_mode = (word >> 7) & 0x1
        mnemonic = {v: k for k, v in isa.FORMAT1.items()}.get(opcode)

        src_is_cg = (src, as_mode) in isa.CONST_GENERATOR
        if not src_is_cg and src in RF_REGISTERS:
            # Register value used directly, as an address, or as an
            # indexed base; auto-increment also reads it.
            regs.add(src)
        if dst in RF_REGISTERS:
            if ad_mode == 1:
                regs.add(dst)  # indexed base address
            elif mnemonic != "mov":
                regs.add(dst)  # read-modify-write operand
        return regs

    return regs


def registers_written(word: int) -> set[int]:
    """RF registers an instruction word must fully overwrite.

    Under-approximation (the dual of :func:`registers_read`): only writes
    the core performs unconditionally are claimed — a register-mode Format
    II destination, a register-mode Format I destination of a non-compare,
    and the auto-incremented source pointer of an ``@Rn+`` operand.
    Memory-destination writes, jumps, and anything outside the implemented
    subset claim nothing.
    """
    word &= 0xFFFF
    opcode = word >> 12
    regs: set[int] = set()

    if opcode == 0x1:  # Format II
        func = (word >> 7) & 0x7
        mode = (word >> 4) & 0x3
        reg = word & 0xF
        if (
            func in isa.FORMAT2.values()
            and mode == isa.MODE_REGISTER
            and reg in RF_REGISTERS
        ):
            regs.add(reg)
        return regs

    if opcode in (0x2, 0x3):  # jumps write only the PC
        return regs

    mnemonic = {v: k for k, v in isa.FORMAT1.items()}.get(opcode)
    if mnemonic is None:
        return regs

    src = (word >> 8) & 0xF
    as_mode = (word >> 4) & 0x3
    dst = word & 0xF
    ad_mode = (word >> 7) & 0x1
    if (
        as_mode == isa.MODE_INDIRECT_INC
        and (src, as_mode) not in isa.CONST_GENERATOR
        and src in RF_REGISTERS
    ):
        regs.add(src)  # @Rn+ auto-increment
    if mnemonic not in ("cmp", "bit") and ad_mode == 0 and dst in RF_REGISTERS:
        regs.add(dst)
    return regs
