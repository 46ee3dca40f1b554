"""Tests for inter-cycle (def-use) pruning, including end-to-end soundness
against real fault injection on the AVR core."""

import random

import numpy as np
import pytest

from repro.core.faultspace import FaultSpace
from repro.core.intercycle import (
    RegisterAccessModel,
    combine_benign,
    intercycle_benign,
    prune_fault_space,
    read_cycles,
    write_cycles,
)
from repro.cpu.avr import AvrSystem, assemble_avr
from repro.cpu.avr.access import avr_access_model, registers_read
from repro.fi import Campaign, Outcome
from repro.trace import Trace


class TestSyntheticModel:
    """A hand-built 2-register, 4-bit-instruction model."""

    @pytest.fixture()
    def model(self):
        # Instruction encoding: bit0 = reads reg0, bit1 = reads reg1.
        return RegisterAccessModel(
            registers={0: ["r0"], 1: ["r1"]},
            instruction_wires=["i0", "i1"],
            reads_of=lambda word: {r for r in (0, 1) if (word >> r) & 1},
        )

    def _trace(self, rows):
        # columns: r0, r1, i0, i1
        return Trace.from_matrix(
            ["r0", "r1", "i0", "i1"], np.array(rows, dtype=np.uint8)
        )

    def test_reads_decoded(self, model):
        trace = self._trace([[0, 0, 1, 0], [0, 0, 0, 1], [0, 0, 1, 1]])
        reads = read_cycles(trace, model)
        assert reads[0].tolist() == [True, False, True]
        assert reads[1].tolist() == [False, True, True]

    def test_writes_from_value_changes(self, model):
        trace = self._trace([[0, 1, 0, 0], [1, 1, 0, 0], [1, 0, 0, 0]])
        writes = write_cycles(trace, model)
        assert writes[0].tolist() == [True, False, False]
        assert writes[1].tolist() == [False, True, False]

    def test_benign_write_before_read(self, model):
        # r0: written at the end of cycle 1 (value changes into cycle 2),
        # read at cycle 3.
        trace = self._trace(
            [[0, 0, 0, 0], [0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 1, 0]]
        )
        benign = intercycle_benign(trace, model)
        # Faults during cycles 0..1 die at the write, unread.
        assert benign[0].tolist() == [True, True, False, False]

    def test_read_on_write_cycle_blocks(self, model):
        # Write at end of cycle 1, but cycle 1 also READS r0 (e.g. inc r0):
        # the faulty value is consumed while being replaced.
        trace = self._trace([[0, 0, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
        benign = intercycle_benign(trace, model)
        assert benign[0].tolist() == [False, False, False]

    def test_valid_gating(self):
        model = RegisterAccessModel(
            registers={0: ["r0"]},
            instruction_wires=["i0"],
            reads_of=lambda w: {0} if w else set(),
            valid_wire="flush",
            valid_active_low=True,
        )
        trace = Trace.from_matrix(
            ["r0", "i0", "flush"],
            np.array([[0, 1, 1], [0, 1, 0]], dtype=np.uint8),
        )
        reads = read_cycles(trace, model)
        assert reads[0].tolist() == [False, True]  # flushed read ignored

    def test_prune_fault_space(self, model):
        trace = self._trace([[0, 0, 0, 0], [1, 0, 0, 0], [1, 0, 0, 0]])
        space = prune_fault_space(trace, model)
        assert space.is_benign("r0", 0)
        assert not space.is_benign("r0", 2)

    def test_combine_union(self):
        a = FaultSpace(["w"], 3)
        b = FaultSpace(["w"], 3)
        a.mark_benign("w", 0)
        b.mark_benign("w", 2)
        combined = combine_benign([a, b], ["w"], 3)
        assert [combined.is_benign("w", t) for t in range(3)] == [True, False, True]


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
        assert registers_read(word) == expected


@pytest.mark.slow
class TestAvrEndToEnd:
    def test_defuse_pruned_points_are_benign(self, avr_sim):
        """Inject at def-use-pruned RF points: all must be benign."""
        source = """
        start:
            ldi r16, 10
            ldi r17, 0
        loop:
            ldi r18, 77      ; r18 dead-written repeatedly
            add r17, r16
            ldi r18, 5       ; overwrites unread r18
            add r17, r18
            dec r16
            brne loop
            out 0x00, r17
            sleep
        """
        program = assemble_avr(source)
        tb = AvrSystem(program, halt_on_sleep=True)
        golden = avr_sim.run(tb, max_cycles=500)
        assert golden.halted

        model = avr_access_model(avr_sim.netlist)
        space = prune_fault_space(golden.trace, model)
        assert space.num_benign > 0

        from repro.fi import CampaignTarget

        target = CampaignTarget(
            name="avr-defuse",
            simulator=avr_sim,
            make_testbench=lambda: AvrSystem(program, halt_on_sleep=True),
            observables=lambda bench, res: (
                tuple(bench.ram.words),
                tuple((p, v) for _, p, v in bench.port_log),
            ),
        )
        campaign = Campaign(target)

        rng = random.Random(5)
        points = [
            (wire, cycle)
            for wire, cycle in _benign_points(space)
            if cycle < campaign.golden_cycles
        ]
        sample = rng.sample(points, min(30, len(points)))
        result = campaign.run_points(sample)
        assert result.count(Outcome.BENIGN) == result.num_injections


def _benign_points(space):
    for wire in space.fault_wires:
        for cycle in np.nonzero(space.benign[space._row[wire]])[0]:
            yield wire, int(cycle)
