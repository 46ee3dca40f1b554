"""Tests for online (in-emulation) fault-space pruning."""

import pytest

from repro.core.mate import Mate
from repro.core.replay import replay_mates
from repro.core.search import find_mates
from repro.eval.example_circuit import figure1_netlist
from repro.hafi import simulate_online_pruning
from repro.rtl import RtlCircuit, mux
from repro.sim import Simulator, TableTestbench
from repro.synth import synthesize


def _gated_netlist():
    c = RtlCircuit("gated")
    en = c.input("en")
    data = c.input("data", 4)
    held = c.reg("held", 4)
    held.next = mux(en, held, data)
    # The output bus is only driven while holding (en=0); a write cycle
    # (en=1) both overwrites the register and blanks the bus - the
    # intra-cycle maskable situation.
    c.output("out", held & (~en).replicate(4))
    return synthesize(c)


class TestOnlinePruning:
    def test_matches_offline_replay(self):
        """Online per-cycle evaluation == offline trace replay."""
        netlist = _gated_netlist()
        mates = find_mates(netlist).mate_set().mates()
        assert mates
        rows = [
            {"en": cycle % 3 == 0, "data": (5 * cycle) % 16} for cycle in range(20)
        ]
        simulator = Simulator(netlist)

        run = simulate_online_pruning(
            netlist, mates, TableTestbench(rows), cycles=len(rows),
            simulator=simulator,
        )

        trace = simulator.run(TableTestbench(rows), max_cycles=len(rows)).trace
        fault_wires = [d.q for d in netlist.dffs.values()]
        replay = replay_mates(mates, trace, fault_wires)
        dff_of = {d.q: name for name, d in netlist.dffs.items()}
        for wire in fault_wires:
            offline = replay.masked_vector(wire)
            online = [
                run.fault_space.is_benign(dff_of[wire], c) for c in range(len(rows))
            ]
            assert online == [bool(offline >> c & 1) for c in range(len(rows))]

    def test_trigger_counts_match_replay(self):
        netlist = _gated_netlist()
        mates = find_mates(netlist).mate_set().mates()
        rows = [{"en": 1, "data": 7}, {"en": 0, "data": 1}] * 5
        simulator = Simulator(netlist)
        run = simulate_online_pruning(
            netlist, mates, TableTestbench(rows), cycles=len(rows),
            simulator=simulator,
        )
        trace = simulator.run(TableTestbench(rows), max_cycles=len(rows)).trace
        replay = replay_mates(mates, trace, [d.q for d in netlist.dffs.values()])
        assert run.trigger_counts == replay.trigger_counts

    def test_fault_list_shrinks(self):
        netlist = figure1_netlist()
        mates = find_mates(
            netlist, faulty_wires={w: w for w in "abcde"}
        ).mate_set().mates()
        # The figure-1 circuit has no DFFs; build a wrapper fault space over
        # inputs via the online API is not applicable — use the gated design.
        netlist = _gated_netlist()
        mates = find_mates(netlist).mate_set().mates()
        rows = [{"en": 0, "data": 3}] * 10  # en=0: held is never overwritten
        run = simulate_online_pruning(netlist, mates, TableTestbench(rows), 10)
        total = run.fault_space.size
        remaining = len(run.fault_list())
        assert remaining == total - run.fault_space.num_benign

    def test_foreign_mate_names_wire_index_and_netlist(self):
        """A MATE from a differently-synthesized netlist fails with context
        (wire, MATE index, netlist name) — not a bare KeyError."""
        netlist = _gated_netlist()
        good = find_mates(netlist).mate_set().mates()
        foreign = Mate([("ghost_wire", 1)], ["held_b0"])
        rows = [{"en": 0, "data": 3}] * 4
        with pytest.raises(ValueError) as err:
            simulate_online_pruning(
                netlist, [*good, foreign], TableTestbench(rows), len(rows)
            )
        message = str(err.value)
        assert "'ghost_wire'" in message
        assert f"MATE #{len(good)}" in message
        assert "'gated'" in message
