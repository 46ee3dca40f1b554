"""Register def-use access sets for the AVR core (static dataflow layer).

``registers_read`` over-approximates, per instruction word, which
general-purpose registers the execute stage can observe — everything the
decode gating lets through to an endpoint — and ``registers_written``
under-approximates the registers it must overwrite. The binary-level
static layer (:mod:`repro.prune.dataflow`) decodes the program with them
to prove register-file faults that die overwritten-unread on every path,
the ISA-level complement the paper points to in Sec. 6.3.
"""

from __future__ import annotations

from repro.cpu.avr import isa


def registers_read(word: int) -> set[int]:
    """Registers an instruction word may read (over-approximation)."""
    word &= 0xFFFF
    if word in (isa.OPCODE_NOP, isa.OPCODE_SLEEP, isa.OPCODE_RET):
        return set()

    d5 = ((word >> 4) & 0xF) | (((word >> 8) & 1) << 4)
    r5 = (word & 0xF) | (((word >> 9) & 1) << 4)
    top6 = word >> 10
    top4 = word >> 12

    two_op = {v: k for k, v in isa.TWO_OP.items()}.get(top6)
    if two_op is not None:
        if two_op == "mov":
            return {r5}
        return {d5, r5}

    imm_op = {v: k for k, v in isa.IMM_OP.items()}.get(top4)
    if imm_op is not None:
        if imm_op == "ldi":
            return set()
        return {16 + ((word >> 4) & 0xF)}

    if (word & 0xFE00) == 0x9400 and (word & 0xF) in isa.ONE_OP.values():
        return {d5}

    if (word & 0xFC00) == 0x9000 and (word & 0xE) == 0xC:  # LD/ST via X
        store = (word >> 9) & 1
        regs = {26, 27}  # the X pointer is always read (address / increment)
        if store:
            regs.add(d5)
        return regs

    if (word & 0xF800) == 0xB800:  # OUT
        return {d5}

    # IN, branches, RJMP, RCALL and anything unimplemented read no GPRs.
    return set()


def registers_written(word: int) -> set[int]:
    """Registers an instruction word must fully overwrite.

    The dual of :func:`registers_read`: where reads over-approximate (a
    spurious read only weakens a deadness claim), writes *under*-approximate
    — every register returned is unconditionally written by the execute
    stage (``rf_we``/``x_we`` decode), so the static dataflow layer may
    treat it as a kill.
    """
    word &= 0xFFFF
    if word in (isa.OPCODE_NOP, isa.OPCODE_SLEEP, isa.OPCODE_RET):
        return set()

    d5 = ((word >> 4) & 0xF) | (((word >> 8) & 1) << 4)
    top6 = word >> 10
    top4 = word >> 12

    two_op = {v: k for k, v in isa.TWO_OP.items()}.get(top6)
    if two_op is not None:
        if two_op in ("cp", "cpc"):
            return set()  # compares set SREG only
        return {d5}

    imm_op = {v: k for k, v in isa.IMM_OP.items()}.get(top4)
    if imm_op is not None:
        if imm_op == "cpi":
            return set()
        return {16 + ((word >> 4) & 0xF)}

    if (word & 0xFE00) == 0x9400 and (word & 0xF) in isa.ONE_OP.values():
        return {d5}

    if (word & 0xFC00) == 0x9000 and (word & 0xE) == 0xC:  # LD/ST via X
        store = (word >> 9) & 1
        regs = set() if store else {d5}
        if word & 1:  # post-increment updates the X pointer
            regs |= {26, 27}
        return regs

    if (word & 0xF800) == 0xB000:  # IN
        return {d5}

    # OUT, branches, RJMP, RCALL and anything unimplemented write no GPRs.
    return set()
