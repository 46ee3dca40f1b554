"""Binary-level static dataflow pruning (the trace-independent third layer).

Where the def-use layer (:mod:`repro.prune.defuse`) classifies fault points
by *replaying* the golden trace, this module proves register deadness over
**all** execution paths of the loaded firmware: it decodes the binary into
an instruction stream with per-instruction access sets
(:mod:`repro.cpu.*.access`), builds a basic-block control-flow graph
(fall-through, branches, ``rjmp``/``rcall``/``ret`` edges; indirect jumps
conservatively widen to every decoded entry), and runs a worklist backward
liveness fixpoint. The fixpoint computes *inevitability* facts::

    DEAD(p, R)  =  kill(p, R)
                ∨  (¬read(p, R) ∧ ¬stop(p) ∧ succ(p) ≠ ∅
                    ∧ ∀ s ∈ succ(p): DEAD(s, R))

as a least fixpoint from all-``False`` — so a register is only claimed dead
at a program point if **every** path from that point reaches a full-register
must-write (a *kill*) before any read, any halt, and without looping
forever. Terminal instructions (``sleep``, SR writes that may set CPUOFF)
and unknown words stop the analysis; this keeps statically-dead contained
in dynamically-dead (a register that is merely unread until the halt is a
*tail* interval dynamically, not benign).

The access sets lean the sound way on both sides: ``registers_read`` over-
approximates (a spurious read only weakens a claim) and
``registers_written`` under-approximates (only unconditional full-register
writes count as kills).

Every DEAD fact ships as a :class:`StaticClaim` certificate naming the
dominating kill frontier; :func:`verify_static_claim` re-derives it with an
independent per-path DFS (in :mod:`repro.prune.certificate` style) that
shares nothing with the worklist solver. Claims map onto (DFF, bit, cycle)
points by intersecting with the golden trace's PC-per-cycle sampling
(:class:`StaticPruneMap`), feeding ``fi run --static`` and the three-layer
``FaultSpace`` accounting.
"""

from __future__ import annotations

import json
import re
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.obs import counter, span

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fi.campaign import Campaign
    from repro.prune.defuse import CollapsePlan
    from repro.trace.trace import Trace

#: Serialized StaticPruneMap format version.
STATIC_MAP_VERSION = 1

#: Registers the testbench reads from flip-flop state *every* cycle — they
#: escape dynamically in every cycle, so the static layer must never claim
#: them (AVR: the X pointer r27:r26 addresses the external data RAM).
ALWAYS_READ: dict[str, frozenset[int]] = {
    "avr": frozenset({26, 27}),
    "msp430": frozenset(),
}

_RF_NAME = re.compile(r"^rf_r(\d+)(?:_b(\d+))?$")


# ----------------------------------------------------------------------
# instruction stream + CFG
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Instruction:
    """One decoded program point with its access sets and CFG edges.

    ``stop`` marks points past which liveness cannot reason: terminal
    instructions (``sleep``, possible-CPUOFF SR writes), out-of-range
    control transfers, and undecodable words. ``widened`` marks indirect
    jumps whose successors were conservatively widened to every decoded
    entry. ``size`` is in program words (MSP430 extension words belong to
    their instruction and are not program points).
    """

    address: int
    word: int
    mnemonic: str
    reads: frozenset[int]
    writes: frozenset[int]
    successors: tuple[int, ...]
    stop: bool = False
    widened: bool = False
    size: int = 1


@dataclass
class ProgramCFG:
    """Reachable instruction stream of one loaded firmware image."""

    core: str
    entry: int
    instructions: dict[int, Instruction]
    #: Registers the static layer may claim (RF minus always-read).
    registers: tuple[int, ...]

    @property
    def num_points(self) -> int:
        return len(self.instructions)

    def predecessors(self) -> dict[int, list[int]]:
        preds: dict[int, list[int]] = {a: [] for a in self.instructions}
        for address, insn in self.instructions.items():
            for succ in insn.successors:
                preds.setdefault(succ, []).append(address)
        return preds

    def describe(self) -> str:
        return (
            f"{self.core}: {self.num_points} reachable instruction(s), "
            f"{sum(1 for i in self.instructions.values() if i.stop)} stop, "
            f"{sum(1 for i in self.instructions.values() if i.widened)} widened"
        )


def _sext(value: int, bits: int) -> int:
    value &= (1 << bits) - 1
    return value - (1 << bits) if value & (1 << (bits - 1)) else value


def _reach(decode_one, entry: int) -> dict[int, Instruction]:
    """Worklist reachability decode from ``entry``.

    ``decode_one(address, previous)`` gets the previous iteration's full
    instruction dict so cross-instruction edges (``ret`` return sites,
    widened indirect jumps) can be resolved; the outer loop re-decodes to a
    fixpoint because those edge sets grow with the reachable set.
    """
    previous: dict[int, Instruction] = {}
    for _ in range(64):  # far above any real convergence depth
        decoded: dict[int, Instruction] = {}
        pending = [entry]
        while pending:
            address = pending.pop()
            if address in decoded:
                continue
            insn = decode_one(address, previous)
            decoded[address] = insn
            pending.extend(s for s in insn.successors if s not in decoded)
        if decoded == previous:
            return decoded
        previous = decoded
    raise RuntimeError("CFG decode did not converge")  # pragma: no cover


def decode_avr_program(words: list[int]) -> ProgramCFG:
    """Decode an AVR firmware image into its reachable CFG.

    Word-addressed points, one word per instruction. ``rcall`` edges go to
    the callee; ``ret`` edges go to every recorded return site (fall-through
    of every reachable ``rcall``) plus address 0, because the hardware
    return stack initializes to 0 and wraps silently.
    """
    from repro.cpu.avr import isa
    from repro.cpu.avr.access import registers_read, registers_written

    size = len(words)
    two_op = {v: k for k, v in isa.TWO_OP.items()}
    imm_op = {v: k for k, v in isa.IMM_OP.items()}
    one_op = {v: k for k, v in isa.ONE_OP.items()}

    def classify(word: int) -> tuple[str, object]:
        """(mnemonic, successor spec) — spec is resolved per address."""
        if word == isa.OPCODE_NOP:
            return "nop", "next"
        if word == isa.OPCODE_SLEEP:
            return "sleep", "stop"
        if word == isa.OPCODE_RET:
            return "ret", "ret"
        if (word >> 10) in two_op:
            return two_op[word >> 10], "next"
        if (word >> 12) in imm_op:
            return imm_op[word >> 12], "next"
        if (word & 0xFE00) == 0x9400 and (word & 0xF) in one_op.values():
            return {v: k for k, v in one_op.items()}[word & 0xF], "next"
        if (word & 0xF800) == 0xF000:
            return "branch", "branch"
        if (word & 0xF000) == 0xC000:
            return "rjmp", "rjmp"
        if (word & 0xF000) == 0xD000:
            return "rcall", "rjmp"
        if (word & 0xFC00) == 0x9000 and (word & 0xE) == 0xC:
            return "st" if (word >> 9) & 1 else "ld", "next"
        if (word & 0xF800) == 0xB800:
            return "out", "next"
        if (word & 0xF800) == 0xB000:
            return "in", "next"
        return "unknown", "stop"

    def decode_one(address: int, previous: dict[int, Instruction]) -> Instruction:
        word = words[address] & 0xFFFF
        mnemonic, spec = classify(word)
        if mnemonic == "unknown":
            return Instruction(
                address, word, mnemonic, frozenset(range(32)), frozenset(), (), stop=True
            )
        targets: list[int]
        if spec == "stop":
            targets = []
        elif spec == "next":
            targets = [address + 1]
        elif spec == "branch":
            targets = [address + 1, address + 1 + _sext(word >> 3, 7)]
        elif spec == "rjmp":
            targets = [address + 1 + _sext(word, 12)]
        else:  # ret: every return site, plus the stack's init value 0
            sites = {
                i.address + 1
                for i in previous.values()
                if i.mnemonic == "rcall"
            }
            targets = sorted(sites | {0})
        in_range = [t for t in targets if 0 <= t < size]
        return Instruction(
            address,
            word,
            mnemonic,
            frozenset(registers_read(word)),
            frozenset(registers_written(word)),
            tuple(dict.fromkeys(in_range)),
            stop=spec == "stop" or len(in_range) < len(targets),
        )

    instructions = _reach(decode_one, 0)
    registers = tuple(r for r in range(32) if r not in ALWAYS_READ["avr"])
    return ProgramCFG("avr", 0, instructions, registers)


def decode_msp430_program(words: list[int]) -> ProgramCFG:
    """Decode an MSP430 firmware image into its reachable CFG.

    Points are word indices (byte address / 2); Format I instructions span
    1-3 words (source/destination extension words follow the opcode word,
    mirroring the core's FETCH sizing logic). Format I writes to the PC are
    indirect jumps, widened to every decoded entry; writes to SR may set
    CPUOFF (the halt idiom), so they stop the analysis.
    """
    from repro.cpu.msp430 import isa
    from repro.cpu.msp430.access import (
        RF_REGISTERS,
        registers_read,
        registers_written,
    )

    size = len(words)
    format1 = {v: k for k, v in isa.FORMAT1.items()}
    format2 = {v: k for k, v in isa.FORMAT2.items()}
    jumps = {v: k for k, v in reversed(isa.JUMPS.items())}  # first alias wins

    def decode_one(address: int, previous: dict[int, Instruction]) -> Instruction:
        word = words[address] & 0xFFFF
        opcode = word >> 12
        reads = frozenset(registers_read(word))
        writes = frozenset(registers_written(word))

        if opcode in (0x2, 0x3):  # relative jump
            condition = (word >> 10) & 0x7
            target = address + 1 + _sext(word, 10)
            targets = [target] if condition == 0b111 else [address + 1, target]
            in_range = [t for t in targets if 0 <= t < size]
            return Instruction(
                address,
                word,
                jumps.get(condition, "jump"),
                reads,
                writes,
                tuple(dict.fromkeys(in_range)),
                stop=len(in_range) < len(targets),
            )

        if opcode == 0x1:  # Format II
            func = (word >> 7) & 0x7
            mnemonic = format2.get(func)
            if mnemonic is None or (word >> 4) & 0x3 != isa.MODE_REGISTER:
                return Instruction(
                    address, word, "unknown", frozenset(RF_REGISTERS), frozenset(), (), stop=True
                )
            successors = (address + 1,) if address + 1 < size else ()
            return Instruction(
                address, word, mnemonic, reads, writes, successors,
                stop=address + 1 >= size,
            )

        mnemonic = format1.get(opcode)
        if mnemonic is None:
            return Instruction(
                address, word, "unknown", frozenset(RF_REGISTERS), frozenset(), (), stop=True
            )
        src = (word >> 8) & 0xF
        as_mode = (word >> 4) & 0x3
        dst = word & 0xF
        ad_mode = (word >> 7) & 0x1
        src_ext = (as_mode == isa.MODE_INDEXED and src != isa.REG_CG) or (
            as_mode == isa.MODE_INDIRECT_INC and src == isa.REG_PC
        )
        length = 1 + int(src_ext) + int(ad_mode == 1)
        writes_result = mnemonic not in ("cmp", "bit")
        if writes_result and ad_mode == 0 and dst == isa.REG_PC:
            # Indirect jump: widen to every decoded entry.
            entries = tuple(sorted(previous))
            return Instruction(
                address, word, mnemonic, reads, writes, entries,
                widened=True, size=length,
            )
        if writes_result and ad_mode == 0 and dst == isa.REG_SR:
            # May set CPUOFF (the `bis #0x10, r2` halt idiom): terminal.
            return Instruction(
                address, word, mnemonic, reads, writes, (), stop=True, size=length,
            )
        successors = (address + length,) if address + length < size else ()
        return Instruction(
            address, word, mnemonic, reads, writes, successors,
            stop=address + length >= size, size=length,
        )

    instructions = _reach(decode_one, 0)
    registers = tuple(
        r for r in RF_REGISTERS if r not in ALWAYS_READ["msp430"]
    )
    return ProgramCFG("msp430", 0, instructions, registers)


def decode_program(core: str, words: list[int]) -> ProgramCFG:
    """Decode a firmware image for the named core."""
    if core == "avr":
        return decode_avr_program(words)
    if core == "msp430":
        return decode_msp430_program(words)
    raise ValueError(f"unknown core {core!r}")


# ----------------------------------------------------------------------
# backward-liveness worklist fixpoint
# ----------------------------------------------------------------------
def dead_facts(cfg: ProgramCFG) -> dict[int, frozenset[int]]:
    """Per-point sets of registers dead at instruction *entry*.

    Least fixpoint of the inevitability equation in the module docstring:
    seeded by kills, grown backward through the worklist — so loops that
    never access a register stay live (a fault could circulate forever),
    and nothing is claimed across ``stop`` points.
    """
    insns = cfg.instructions
    preds = cfg.predecessors()
    claimable = set(cfg.registers)
    dead: dict[int, set[int]] = {a: set() for a in insns}
    queue = deque(insns)
    queued = set(insns)
    while queue:
        address = queue.popleft()
        queued.discard(address)
        insn = insns[address]
        fact: set[int] = set()
        for register in claimable:
            if register in insn.reads:
                continue
            if register in insn.writes:
                fact.add(register)  # killed here, before any read
                continue
            if insn.stop or not insn.successors:
                continue
            if all(register in dead[s] for s in insn.successors):
                fact.add(register)
        if fact != dead[address]:
            dead[address] = fact
            for pred in preds.get(address, ()):
                if pred not in queued:
                    queued.add(pred)
                    queue.append(pred)
    return {address: frozenset(fact) for address, fact in dead.items()}


# ----------------------------------------------------------------------
# certificates
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class StaticClaim:
    """One certified DEAD fact: register ``register`` is dead at ``point``.

    ``writers`` is the dominating kill frontier — the set of first
    must-write instructions such that every path from ``point`` reaches one
    of them before any read, halt, or unknown instruction.
    :func:`verify_static_claim` re-derives the claim per-path.
    """

    register: int
    point: int
    writers: tuple[int, ...]

    def describe(self) -> str:
        kills = ",".join(f"{w:#x}" for w in self.writers)
        return f"r{self.register}@{self.point:#x} dead (kills: {kills})"

    def to_dict(self) -> dict[str, object]:
        return {
            "register": self.register,
            "point": self.point,
            "writers": list(self.writers),
        }

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> StaticClaim:
        return cls(
            int(doc["register"]),  # type: ignore[arg-type]
            int(doc["point"]),  # type: ignore[arg-type]
            tuple(int(w) for w in doc["writers"]),  # type: ignore[union-attr]
        )


def _kill_frontier(cfg: ProgramCFG, point: int, register: int) -> tuple[int, ...]:
    """First must-write instructions on every path from ``point``."""
    frontier: set[int] = set()
    seen: set[int] = set()
    stack = [point]
    while stack:
        address = stack.pop()
        if address in seen:
            continue
        seen.add(address)
        insn = cfg.instructions[address]
        if register in insn.writes and register not in insn.reads:
            frontier.add(address)
            continue
        stack.extend(insn.successors)
    return tuple(sorted(frontier))


def build_claims(cfg: ProgramCFG, dead: dict[int, frozenset[int]]) -> list[StaticClaim]:
    """One :class:`StaticClaim` certificate per (point, dead register)."""
    claims = [
        StaticClaim(register, point, _kill_frontier(cfg, point, register))
        for point in sorted(dead)
        for register in sorted(dead[point])
    ]
    counter("prune.static.claims").inc(len(claims))
    return claims


def verify_static_claim(cfg: ProgramCFG, claim: StaticClaim) -> list[str]:
    """Independently re-derive one claim; returns counterexample strings.

    A per-path DFS (memoized, with on-path cycle detection) that shares no
    machinery with the worklist solver: starting at the claimed point it
    demands that every path reaches a claimed writer's kill before any
    read, terminal, unknown word, or kill-free loop.
    """
    problems: list[str] = []
    insns = cfg.instructions
    register = claim.register
    if claim.point not in insns:
        return [f"claimed point {claim.point:#x} is not a decoded instruction"]
    if register not in cfg.registers:
        problems.append(f"r{register} is not statically claimable on {cfg.core}")
    for writer in claim.writers:
        insn = insns.get(writer)
        if insn is None:
            problems.append(f"claimed writer {writer:#x} is not a decoded instruction")
        elif register not in insn.writes or register in insn.reads:
            problems.append(
                f"claimed writer {writer:#x} ({insn.mnemonic}) does not kill r{register}"
            )
    if problems:
        return problems

    writers = set(claim.writers)
    verdict: dict[int, bool] = {}
    on_path: set[int] = set()
    limit = 8  # cap counterexample spam per claim

    def refute(message: str) -> bool:
        if len(problems) < limit:
            problems.append(message)
        return False

    def check(address: int) -> bool:
        cached = verdict.get(address)
        if cached is not None:
            return cached
        insn = insns[address]
        if register in insn.reads:
            result = refute(
                f"path from {claim.point:#x} reads r{register} at "
                f"{address:#x} ({insn.mnemonic}) before any kill"
            )
        elif register in insn.writes:
            if address in writers:
                result = True
            else:
                result = refute(
                    f"kill at {address:#x} ({insn.mnemonic}) missing from "
                    f"claimed writer frontier"
                )
        elif insn.stop or not insn.successors:
            result = refute(
                f"path from {claim.point:#x} reaches "
                f"{'terminal' if not insn.widened else 'widened'} "
                f"{insn.mnemonic} at {address:#x} with r{register} still live"
            )
        else:
            on_path.add(address)
            result = True
            for successor in insn.successors:
                if successor in on_path:
                    result = refute(
                        f"kill-free loop through {successor:#x} keeps "
                        f"r{register} circulating forever"
                    )
                elif not check(successor):
                    result = False
            on_path.discard(address)
        verdict[address] = result
        return result

    check(claim.point)
    return problems


# ----------------------------------------------------------------------
# golden-trace anchoring: cycle -> program point
# ----------------------------------------------------------------------
def _trace_word(trace: Trace, signal: str, width: int) -> list[int]:
    """Per-cycle integer value of a multi-bit register from its Q bits."""
    from repro.synth.lower import bit_name

    num_cycles = trace.num_cycles
    if not num_cycles:
        return []
    # One digit string per bit, MSB first; each column of digits, read
    # from the highest cycle down, is one cycle's word in binary.
    digits = [
        format(trace.vector(bit_name(signal, bit, width)), f"0{num_cycles}b")
        for bit in reversed(range(width))
    ]
    return [int("".join(column), 2) for column in zip(*digits)][::-1]


def anchor_avr(trace: Trace) -> list[int | None]:
    """AVR cycle anchors: the program point a fault in cycle ``c`` enters.

    The instruction executing in a valid cycle ``c`` sits at ``pc(c-1)``
    (2-stage pipeline). Bubble cycles (branch flush, the cycle-0 reset NOP)
    touch no registers, so a fault there holds forward to the next executed
    instruction; post-halt cycles anchor nowhere (registers freeze — a
    dynamic tail, never claimed).
    """
    from repro.cpu.avr.core import PC_BITS

    pc = _trace_word(trace, "pc", PC_BITS)
    flush = trace.vector("flush")
    halted = trace.vector("halted_reg")
    anchors: list[int | None] = [None] * trace.num_cycles
    pending: int | None = None
    for cycle in range(trace.num_cycles - 1, -1, -1):
        if halted >> cycle & 1:
            pending = None
        elif flush >> cycle & 1 or cycle == 0:
            anchors[cycle] = pending
        else:
            pending = pc[cycle - 1]
            anchors[cycle] = pending
    return anchors


def anchor_msp430(trace: Trace) -> list[int | None]:
    """MSP430 cycle anchors (multi-cycle FSM core).

    An instruction instance starts at each non-halted FETCH cycle, where
    ``mar`` holds its byte address; every cycle until the next FETCH
    belongs to that instance and anchors to its entry point. This is sound
    for mid-instance faults: a DEAD fact means the instance never reads the
    register, so the fault survives untouched to the next entry (or is
    overwritten by the instance's own EXEC write-back).
    """
    from repro.cpu.msp430.core import S_FETCH
    from repro.cpu.msp430.isa import SR_CPUOFF

    state = _trace_word(trace, "state", 3)
    mar = _trace_word(trace, "mar", 16)
    halted = trace.vector(f"sr_b{SR_CPUOFF}")
    anchors: list[int | None] = []
    pending: int | None = None
    for cycle in range(trace.num_cycles):
        if halted >> cycle & 1:
            anchors.append(None)
            continue
        if state[cycle] == S_FETCH:
            pending = mar[cycle] >> 1
        anchors.append(pending)
    return anchors


def anchor_cycles(core: str, trace: Trace) -> list[int | None]:
    """Per-cycle program points for the named core's golden trace."""
    if core == "avr":
        return anchor_avr(trace)
    if core == "msp430":
        return anchor_msp430(trace)
    raise ValueError(f"unknown core {core!r}")


# ----------------------------------------------------------------------
# the static prune map: (DFF, bit, cycle) view of the claims
# ----------------------------------------------------------------------
class StaticPruneMap:
    """Statically-dead (DFF × cycle) points for one design/workload pair.

    The register-level DEAD facts intersect with the golden trace's
    PC-per-cycle sampling: a fault point ``(rf_rN_bB, c)`` is dead when
    cycle ``c`` anchors to a program point with a :class:`StaticClaim` for
    ``rN``. All bits of a register share its claims (full-register
    must-writes kill every bit).
    """

    def __init__(
        self,
        core: str,
        workload: str,
        netlist_hash: str,
        golden_cycles: int,
        register_width: int,
        claims: list[StaticClaim],
        anchors: list[int | None],
    ) -> None:
        if len(anchors) != golden_cycles:
            raise ValueError(
                f"{len(anchors)} anchors for {golden_cycles} golden cycles"
            )
        self.core = core
        self.workload = workload
        self.netlist_hash = netlist_hash
        self.golden_cycles = golden_cycles
        self.register_width = register_width
        self.claims = list(claims)
        self.anchors = list(anchors)
        self._dead_points: dict[int, set[int]] = {}
        for claim in self.claims:
            self._dead_points.setdefault(claim.register, set()).add(claim.point)
        self._dead_cycles: dict[int, int] = {}

    # -- queries --------------------------------------------------------
    def registers(self) -> list[int]:
        """Registers with at least one claim."""
        return sorted(self._dead_points)

    def register_of(self, dff_name: str) -> int | None:
        """The register-file index a DFF (bit) name belongs to, if any."""
        match = _RF_NAME.match(dff_name)
        return int(match.group(1)) if match else None

    def dead_cycles(self, register: int) -> int:
        """Statically-dead cycle vector for one register."""
        cached = self._dead_cycles.get(register)
        if cached is None:
            points = self._dead_points.get(register, set())
            cached = sum(
                1 << cycle
                for cycle, anchor in enumerate(self.anchors)
                if anchor in points
            )
            self._dead_cycles[register] = cached
        return cached

    def pruned_vector(self, dff_name: str) -> int:
        """Statically-benign cycle vector for one flip-flop (bit)."""
        register = self.register_of(dff_name)
        return 0 if register is None else self.dead_cycles(register)

    def is_dead(self, dff_name: str, cycle: int) -> bool:
        """True when the (flip-flop, cycle) point is statically benign."""
        register = self.register_of(dff_name)
        if register is None or not 0 <= cycle < self.golden_cycles:
            return False
        return bool(self.dead_cycles(register) >> cycle & 1)

    def claim_at(self, dff_name: str, cycle: int) -> StaticClaim | None:
        """The certificate backing a statically-dead point, if any."""
        register = self.register_of(dff_name)
        if register is None or not 0 <= cycle < self.golden_cycles:
            return None
        anchor = self.anchors[cycle]
        if anchor is None or anchor not in self._dead_points.get(register, set()):
            return None
        for claim in self.claims:
            if claim.register == register and claim.point == anchor:
                return claim
        return None  # pragma: no cover - anchors derive from claims

    @property
    def num_dead_points(self) -> int:
        """Total statically-benign (DFF bit × cycle) points."""
        return self.register_width * sum(
            self.dead_cycles(register).bit_count() for register in self._dead_points
        )

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "version": STATIC_MAP_VERSION,
            "core": self.core,
            "workload": self.workload,
            "netlist_hash": self.netlist_hash,
            "golden_cycles": self.golden_cycles,
            "register_width": self.register_width,
            "claims": [claim.to_dict() for claim in self.claims],
            "anchors": [-1 if a is None else a for a in self.anchors],
        }

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> StaticPruneMap:
        version = doc.get("version")
        if version != STATIC_MAP_VERSION:
            raise ValueError(f"unsupported StaticPruneMap version {version!r}")
        return cls(
            str(doc["core"]),
            str(doc["workload"]),
            str(doc["netlist_hash"]),
            int(doc["golden_cycles"]),  # type: ignore[arg-type]
            int(doc["register_width"]),  # type: ignore[arg-type]
            [StaticClaim.from_dict(c) for c in doc["claims"]],  # type: ignore[union-attr]
            [None if a == -1 else int(a) for a in doc["anchors"]],  # type: ignore[union-attr]
        )

    def save(self, path: Path) -> None:
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> StaticPruneMap:
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def __repr__(self) -> str:
        return (
            f"StaticPruneMap({self.core}/{self.workload}: "
            f"{len(self.claims)} claims over {self.golden_cycles} cycles, "
            f"{self.num_dead_points} dead points)"
        )


# ----------------------------------------------------------------------
# campaign collapsing
# ----------------------------------------------------------------------
def collapse_static(
    points, static_map: StaticPruneMap
) -> CollapsePlan:
    """Collapse a point list using only the static layer.

    Statically-dead points become annotated-benign with ``source="static"``;
    everything else is injected (no equivalence followers — static facts
    prove benignness, not pairwise equivalence).
    """
    from repro.prune.defuse import CollapsePlan

    plan = CollapsePlan(points=[(dff, int(cycle)) for dff, cycle in points])
    for index, (dff, cycle) in enumerate(plan.points):
        if static_map.is_dead(dff, cycle):
            plan.dead.append(index)
            plan.sources[index] = "static"
        else:
            plan.executed.append(index)
    return plan


# ----------------------------------------------------------------------
# named-target analysis, caching, audit
# ----------------------------------------------------------------------
@dataclass
class DataflowAnalysis:
    """Full static-dataflow context for one named (core, program) target."""

    target_name: str
    cfg: ProgramCFG
    dead: dict[int, frozenset[int]] = field(repr=False)
    map: StaticPruneMap


def program_words(target_name: str) -> tuple[str, list[int]]:
    """(core, loaded firmware words) for a named fi target."""
    from repro.programs import avr_conv, avr_fib, msp430_conv, msp430_fib

    core, _, program = target_name.partition("-")
    firmware = {
        ("avr", "fib"): avr_fib,
        ("avr", "conv"): avr_conv,
        ("msp430", "fib"): msp430_fib,
        ("msp430", "conv"): msp430_conv,
    }.get((core, program))
    if firmware is None:
        raise ValueError(f"not a named core-program target: {target_name!r}")
    return core, firmware(halt=True)


def analyze_dataflow(target_name: str, netlist_hash: str = "") -> DataflowAnalysis:
    """Decode, solve, certify, and anchor one named target."""
    from repro.prune.analyze import get_analysis

    core, words = program_words(target_name)
    with span("prune/static", target=target_name):
        cfg = decode_program(core, words)
        dead = dead_facts(cfg)
        claims = build_claims(cfg, dead)
        trace = get_analysis(target_name).trace  # shared golden trace
        anchors = anchor_cycles(core, trace)
        static_map = StaticPruneMap(
            core=core,
            workload=target_name,
            netlist_hash=netlist_hash,
            golden_cycles=trace.num_cycles,
            register_width=8 if core == "avr" else 16,
            claims=claims,
            anchors=anchors,
        )
    counter("prune.static.maps_built").inc()
    return DataflowAnalysis(
        target_name=target_name, cfg=cfg, dead=dead, map=static_map
    )


def _map_cache_path(target_name: str, netlist_hash: str) -> Path:
    from repro.eval import context

    return context.cache_dir() / f"dataflow_{target_name}_{netlist_hash}.json"


@lru_cache(maxsize=None)
def get_dataflow_analysis(target_name: str) -> DataflowAnalysis:
    """Full static analysis for a named fi target (memoized in-process)."""
    from repro.eval import context
    from repro.prune.analyze import _core_of

    netlist_hash = context.netlist_hash(_core_of(target_name))
    analysis = analyze_dataflow(target_name, netlist_hash=netlist_hash)
    path = _map_cache_path(target_name, netlist_hash)
    path.parent.mkdir(parents=True, exist_ok=True)
    analysis.map.save(path)
    return analysis


def get_static_map(target_name: str) -> StaticPruneMap:
    """The static map for a named fi target, from disk cache when possible."""
    from repro.eval import context
    from repro.prune.analyze import _core_of

    netlist_hash = context.netlist_hash(_core_of(target_name))
    path = _map_cache_path(target_name, netlist_hash)
    if path.is_file():
        try:
            cached = StaticPruneMap.load(path)
        except (ValueError, KeyError, OSError):
            path.unlink(missing_ok=True)  # corrupt/stale cache: recompute
        else:
            if cached.netlist_hash == netlist_hash:
                counter("prune.static_cache.hits").inc()
                return cached
    counter("prune.static_cache.misses").inc()
    return get_dataflow_analysis(target_name).map


class DataflowAudit:
    """Everything the ``dataflow.*`` lint rules need for one named target."""

    def __init__(self, analysis: DataflowAnalysis) -> None:
        self.analysis = analysis
        self._campaign: Campaign | None = None

    @property
    def target_name(self) -> str:
        return self.analysis.target_name

    @property
    def cfg(self) -> ProgramCFG:
        return self.analysis.cfg

    @property
    def map(self) -> StaticPruneMap:
        return self.analysis.map

    def campaign(self) -> Campaign:
        """Ground-truth injection campaign for this target (built once)."""
        if self._campaign is None:
            from repro.fi.campaign import Campaign
            from repro.fi.targets import named_target

            self._campaign = Campaign(named_target(self.target_name))
        return self._campaign


@lru_cache(maxsize=None)
def get_dataflow_audit(target_name: str) -> DataflowAudit:
    """Audit bundle for a named fi target (memoized in-process)."""
    return DataflowAudit(get_dataflow_analysis(target_name))
