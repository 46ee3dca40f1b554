"""Binary-level static dataflow pruning: decoders, fixpoint, certificates.

Small hand-assembled programs pin the decoder/CFG behavior of both cores
and the inevitability semantics of the liveness fixpoint; the certificate
checker is exercised both on honest claims (all must verify) and corrupted
ones (all must be refuted). The named-target containment suite lives in
``test_dataflow_containment.py``.
"""

import pytest

from repro.cpu.avr import assemble_avr
from repro.cpu.msp430 import assemble_msp430
from repro.prune.dataflow import (
    StaticClaim,
    StaticPruneMap,
    build_claims,
    collapse_static,
    dead_facts,
    decode_program,
    verify_static_claim,
)


def avr_cfg(source: str):
    return decode_program("avr", assemble_avr(source))


def msp_cfg(source: str):
    return decode_program("msp430", assemble_msp430(source))


class TestAvrDecoder:
    def test_straight_line_access_sets_and_edges(self):
        cfg = avr_cfg("ldi r16, 1\nldi r17, 2\nadd r16, r17\nsleep")
        assert sorted(cfg.instructions) == [0, 1, 2, 3]
        ldi = cfg.instructions[0]
        assert ldi.mnemonic == "ldi"
        assert ldi.reads == frozenset()
        assert ldi.writes == {16}
        assert ldi.successors == (1,)
        add = cfg.instructions[2]
        assert add.reads == {16, 17}
        assert add.writes == {16}
        halt = cfg.instructions[3]
        assert halt.mnemonic == "sleep"
        assert halt.stop and halt.successors == ()

    def test_branch_has_both_successors(self):
        cfg = avr_cfg("cp r16, r17\nbrne skip\nldi r18, 1\nskip:\nsleep")
        assert set(cfg.instructions[1].successors) == {2, 3}

    def test_rjmp_is_unconditional(self):
        cfg = avr_cfg("rjmp end\nldi r18, 1\nend:\nsleep")
        assert cfg.instructions[0].successors == (2,)
        # The skipped instruction is unreachable, hence never decoded.
        assert 1 not in cfg.instructions

    def test_self_loop_decodes_as_its_own_successor(self):
        cfg = avr_cfg("here: rjmp here")
        assert cfg.instructions[0].successors == (0,)

    def test_ret_edges_cover_every_call_site_plus_zero(self):
        cfg = avr_cfg(
            "rcall f\n"      # 0 -> f (3)
            "rcall f\n"      # 1 -> f
            "sleep\n"        # 2
            "f:\n"
            "ldi r20, 7\n"   # 3
            "ret"            # 4 -> {1, 2} return sites, plus 0
        )
        assert set(cfg.instructions[4].successors) == {0, 1, 2}

    def test_unknown_word_is_a_full_read_stop(self):
        # 0x9409 (ijmp) is not in the decoded subset: must be terminal and
        # read everything so no claim can cross it.
        cfg = decode_program("avr", [0x9409])
        insn = cfg.instructions[0]
        assert insn.mnemonic == "unknown"
        assert insn.stop
        assert insn.reads == frozenset(range(32))
        assert insn.writes == frozenset()

    def test_out_of_range_branch_target_stops(self):
        # brne with an offset past the image end: the in-range fall-through
        # edge survives but the instruction is marked stop.
        words = assemble_avr("nop") + [0xF401 | (60 << 3)] + assemble_avr("nop")
        cfg = decode_program("avr", words)
        insn = cfg.instructions[1]
        assert insn.stop
        assert insn.successors == (2,)

    def test_always_read_registers_are_not_claimable(self):
        cfg = avr_cfg("nop\nsleep")
        assert 26 not in cfg.registers
        assert 27 not in cfg.registers
        assert 16 in cfg.registers


class TestMsp430Decoder:
    def test_format1_register_mode(self):
        cfg = msp_cfg("mov r5, r6\nadd r6, r7\nself:\njmp self")
        mov = cfg.instructions[0]
        assert mov.mnemonic == "mov"
        assert mov.reads == {5}
        assert mov.writes == {6}
        assert mov.size == 1
        assert mov.successors == (1,)

    def test_extension_words_are_not_program_points(self):
        # mov 4(r6), 2(r7): source and destination extension words, three
        # words total — the next instruction starts at word 3.
        cfg = msp_cfg("mov 4(r6), 2(r7)\nmov r5, r6\nself:\njmp self")
        assert cfg.instructions[0].size == 3
        assert cfg.instructions[0].successors == (3,)
        assert 1 not in cfg.instructions
        assert 2 not in cfg.instructions

    def test_conditional_jump_has_two_successors(self):
        cfg = msp_cfg("cmp r5, r6\njnz skip\nmov r5, r7\nskip:\njmp skip")
        assert set(cfg.instructions[1].successors) == {2, 3}
        assert cfg.instructions[1].mnemonic in ("jne", "jnz")

    def test_unconditional_jump_has_one_successor(self):
        cfg = msp_cfg("jmp end\nmov r5, r6\nend:\njmp end")
        assert cfg.instructions[0].successors == (2,)

    def test_sr_destination_is_terminal(self):
        # The CPUOFF halt idiom: a write to SR may stop the core.
        cfg = msp_cfg("bis #0x10, r2")
        entry = cfg.instructions[0]
        assert entry.stop
        assert entry.successors == ()

    def test_pc_destination_widens_to_every_entry(self):
        cfg = msp_cfg("mov r5, r6\nmov r10, pc\nmov r6, r7\nself:\njmp self")
        widened = next(
            i for i in cfg.instructions.values() if i.widened
        )
        assert set(widened.successors) == set(cfg.instructions)

    def test_unknown_opcode_is_a_full_read_stop(self):
        from repro.cpu.msp430.access import RF_REGISTERS

        cfg = decode_program("msp430", [0xA405])  # dadd: not modeled
        insn = cfg.instructions[0]
        assert insn.mnemonic == "unknown"
        assert insn.stop
        assert insn.reads == frozenset(RF_REGISTERS)


class TestDeadFacts:
    def test_kill_point_and_backward_growth(self):
        cfg = avr_cfg(
            "nop\n"          # 0: r16 dead here (every path kills at 1)
            "ldi r16, 1\n"   # 1: the kill
            "add r16, r16\n"  # 2: reads r16 -> live
            "sleep"
        )
        dead = dead_facts(cfg)
        assert 16 in dead[0]
        assert 16 in dead[1]
        assert 16 not in dead[2]

    def test_read_before_kill_blocks_the_claim(self):
        cfg = avr_cfg("mov r17, r16\nldi r16, 1\nsleep")
        dead = dead_facts(cfg)
        assert 16 not in dead[0]  # read at 0 precedes the kill
        assert 16 in dead[1]

    def test_branch_join_requires_death_on_every_path(self):
        cfg = avr_cfg(
            "cp r18, r19\n"
            "brne other\n"
            "ldi r16, 1\n"   # kill on the fall-through path only
            "sleep\n"
            "other:\n"
            "add r20, r16\n"  # read on the taken path
            "sleep"
        )
        dead = dead_facts(cfg)
        assert 16 not in dead[1]  # one successor reads it
        assert 16 in dead[2]

    def test_untouched_register_in_a_loop_stays_live(self):
        # The fault could circulate forever: inevitability demands a kill,
        # so a never-accessed register is NOT statically dead.
        cfg = avr_cfg("here: rjmp here")
        dead = dead_facts(cfg)
        assert dead[0] == frozenset()

    def test_nothing_is_claimed_at_or_past_a_stop(self):
        cfg = avr_cfg("nop\nsleep")
        dead = dead_facts(cfg)
        assert dead[0] == frozenset()
        assert dead[1] == frozenset()

    def test_msp430_kill_chain(self):
        cfg = msp_cfg("mov #5, r7\nadd r7, r8\nself:\njmp self")
        dead = dead_facts(cfg)
        assert 7 in dead[0]
        assert 7 not in dead[2]  # mov #5 spans two words; add sits at 2
        # r8 is read (add dst reads) at 1, so never dead before it.
        assert 8 not in dead[0]


class TestCertificates:
    PROGRAMS = [
        ("avr", "nop\nldi r16, 1\nadd r16, r16\nsleep"),
        (
            "avr",
            "cp r18, r19\nbrne a\nldi r16, 1\nrjmp b\na:\nldi r16, 2\nb:\n"
            "add r16, r16\nsleep",
        ),
        ("msp430", "mov #5, r7\nadd r7, r8\nmov #0, r8\nself:\njmp self"),
    ]

    @pytest.mark.parametrize("core,source", PROGRAMS)
    def test_every_honest_claim_verifies(self, core, source):
        assemble = assemble_avr if core == "avr" else assemble_msp430
        cfg = decode_program(core, assemble(source))
        claims = build_claims(cfg, dead_facts(cfg))
        assert claims  # the programs exercise dead facts
        for claim in claims:
            assert verify_static_claim(cfg, claim) == [], claim.describe()

    def test_claim_for_a_live_register_is_refuted(self):
        cfg = avr_cfg("nop\nadd r16, r16\nldi r16, 1\nsleep")
        bogus = StaticClaim(register=16, point=0, writers=(2,))
        problems = verify_static_claim(cfg, bogus)
        assert any("reads r16" in p for p in problems)

    def test_claim_with_a_non_killing_writer_is_refuted(self):
        cfg = avr_cfg("nop\nldi r16, 1\nadd r16, r16\nsleep")
        bogus = StaticClaim(register=16, point=0, writers=(0,))  # nop kills nothing
        problems = verify_static_claim(cfg, bogus)
        assert any("does not kill" in p for p in problems)

    def test_claim_missing_a_kill_site_is_refuted(self):
        cfg = avr_cfg(
            "cp r18, r19\nbrne a\nldi r16, 1\nrjmp b\na:\nldi r16, 2\nb:\n"
            "add r16, r16\nsleep"
        )
        (full,) = [
            c for c in build_claims(cfg, dead_facts(cfg))
            if c.register == 16 and c.point == 1
        ]
        assert len(full.writers) == 2
        partial = StaticClaim(16, full.point, full.writers[:1])
        problems = verify_static_claim(cfg, partial)
        assert any("missing from claimed writer frontier" in p for p in problems)

    def test_claim_reaching_a_terminal_is_refuted(self):
        cfg = avr_cfg("nop\nsleep")
        bogus = StaticClaim(register=16, point=0, writers=())
        problems = verify_static_claim(cfg, bogus)
        assert any("still live" in p for p in problems)

    def test_claim_over_a_kill_free_loop_is_refuted(self):
        cfg = avr_cfg("here: rjmp here")
        bogus = StaticClaim(register=16, point=0, writers=())
        problems = verify_static_claim(cfg, bogus)
        assert any("kill-free loop" in p for p in problems)

    def test_unclaimable_register_is_rejected(self):
        cfg = avr_cfg("nop\nsleep")
        bogus = StaticClaim(register=26, point=0, writers=())
        problems = verify_static_claim(cfg, bogus)
        assert any("not statically claimable" in p for p in problems)

    def test_undecoded_point_is_rejected(self):
        cfg = avr_cfg("nop\nsleep")
        bogus = StaticClaim(register=16, point=99, writers=())
        assert verify_static_claim(cfg, bogus) == [
            "claimed point 0x63 is not a decoded instruction"
        ]


def small_map(**overrides):
    defaults = dict(
        core="avr",
        workload="avr-test",
        netlist_hash="h",
        golden_cycles=6,
        register_width=2,
        claims=[StaticClaim(16, 1, (2,)), StaticClaim(17, 2, (3,))],
        # cycle -> program point: 1 is live at cycles 1-2, 2 at cycle 3.
        anchors=[0, 1, 1, 2, None, 4],
    )
    defaults.update(overrides)
    return StaticPruneMap(**defaults)


class TestStaticPruneMap:
    def test_dead_cycles_follow_the_anchoring(self):
        m = small_map()
        assert m.dead_cycles(16) == 0b000110
        assert m.dead_cycles(17) == 0b001000

    def test_is_dead_expands_register_bits(self):
        m = small_map()
        assert m.is_dead("rf_r16_b0", 1)
        assert m.is_dead("rf_r16_b1", 2)
        assert not m.is_dead("rf_r16_b0", 3)
        assert not m.is_dead("pc_b0", 1)  # not a register-file DFF
        assert not m.is_dead("rf_r16_b0", 99)  # out of range

    def test_num_dead_points_counts_bits(self):
        assert small_map().num_dead_points == 2 * 3

    def test_claim_at_returns_the_backing_certificate(self):
        m = small_map()
        claim = m.claim_at("rf_r16_b1", 2)
        assert claim is not None and claim.register == 16 and claim.point == 1
        assert m.claim_at("rf_r16_b1", 3) is None
        assert m.claim_at("rf_r16_b1", 4) is None  # None anchor

    def test_round_trip_serialization(self, tmp_path):
        m = small_map()
        again = StaticPruneMap.from_dict(m.to_dict())
        assert again.anchors == m.anchors
        assert again.claims == m.claims
        assert again.num_dead_points == m.num_dead_points
        path = tmp_path / "map.json"
        m.save(path)
        loaded = StaticPruneMap.load(path)
        assert loaded.to_dict() == m.to_dict()

    def test_version_and_length_are_checked(self, tmp_path):
        doc = small_map().to_dict()
        doc["version"] = 99
        with pytest.raises(ValueError, match="version"):
            StaticPruneMap.from_dict(doc)
        with pytest.raises(ValueError, match="anchors"):
            small_map(anchors=[0, 1])


class TestCollapseStatic:
    def test_dead_points_are_annotated_with_static_provenance(self):
        m = small_map()
        points = [("rf_r16_b0", 1), ("rf_r16_b0", 3), ("pc_b0", 1)]
        plan = collapse_static(points, m)
        assert plan.dead == [0]
        assert plan.sources == {0: "static"}
        assert plan.executed == [1, 2]
        assert plan.follows == {}
        annotation = plan.annotation_plan(source="static")
        assert annotation.dead == (0,)
        assert annotation.sources == {0: "static"}


class TestStaticFirstPrecedence:
    def test_combined_collapse_tags_static_before_defuse(self, emap):
        # A fake static map claiming one point the def-use layer also covers:
        # the static tag must win (containment would otherwise absorb it).
        class Claiming:
            @staticmethod
            def is_dead(dff, cycle):
                return (dff, cycle) == ("rdead", 1)

        plan = emap.collapse([("rdead", 1), ("rdead", 2)], static_map=Claiming())
        assert plan.sources.get(0) == "static"
        assert 0 in plan.dead and 1 in plan.dead
        assert plan.sources.get(1) is None  # defuse-dead keeps the default


class TestThreeLayerAccounting:
    def test_attribution_reports_pairwise_and_all(self):
        from repro.core.faultspace import FaultSpace

        space = FaultSpace(["w"], 4)
        space.mark_benign_cycles("w", 0b0011, layer="mate")
        space.mark_benign_cycles("w", 0b0101, layer="defuse")
        space.mark_benign_cycles("w", 0b1001, layer="static")
        counts = space.attribution()
        assert counts["mate"] == 2 and counts["defuse"] == 2
        assert counts["static"] == 2
        assert counts["defuse&mate"] == 1
        assert counts["defuse&static"] == 1
        assert counts["mate&static"] == 1
        assert counts["all"] == 1

    def test_two_layer_attribution_keeps_the_legacy_key(self):
        from repro.core.faultspace import FaultSpace

        space = FaultSpace(["w"], 2)
        space.mark_benign_cycles("w", 0b11, layer="mate")
        space.mark_benign_cycles("w", 0b01, layer="defuse")
        assert space.attribution()["both"] == 1

    def test_union_is_inclusion_exclusion(self):
        from repro.prune.accounting import PruneAccounting

        row = PruneAccounting(
            target="t", num_wires=1, golden_cycles=4, space_points=4,
            mate_pruned=2, defuse_pruned=2, both=1, dead_points=0,
            collapsed_points=0, representatives=0,
            static_pruned=2, static_mate=1, static_defuse=1, all_layers=1,
        )
        # Exactly the grid above: {0,1} ∪ {0,2} ∪ {0,3} = 4 points.
        assert row.union == 4
        assert row.remaining == 0
        assert row.layers() == {
            "defuse": 2, "mate": 2, "both": 1, "static": 2,
            "defuse&static": 1, "mate&static": 1, "all": 1,
        }
