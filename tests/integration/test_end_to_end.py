"""Cross-module integration tests exercising full pipelines."""

import pytest

from repro.cells import nangate15_library
from repro.core import find_mates, replay_mates
from repro.cpu.avr import AvrSystem
from repro.netlist import netlist_to_verilog, parse_verilog, validate_netlist
from repro.programs import avr_fib
from repro.sim import Simulator
from repro.trace import parse_vcd, write_vcd


class TestVerilogRoundTripOfRealCore:
    """The synthesized AVR core survives Verilog export/import unchanged."""

    def test_roundtrip_behaviour_identical(self, avr_sim):
        netlist = avr_sim.netlist
        text = netlist_to_verilog(netlist)
        reparsed = parse_verilog(text, nangate15_library())
        validate_netlist(reparsed)
        assert len(reparsed.gates) == len(netlist.gates)
        assert len(reparsed.dffs) == len(netlist.dffs)

        # The reparsed netlist loses word-level attributes; re-attach them
        # so the simulator can drive it, then compare runs cycle by cycle.
        reparsed.attributes = dict(netlist.attributes)
        other = Simulator(reparsed)
        program = avr_fib(halt=True)
        res_a = avr_sim.run(AvrSystem(program), max_cycles=300)
        res_b = other.run(AvrSystem(program), max_cycles=300)
        assert res_a.cycles == res_b.cycles
        assert res_a.final_state == res_b.final_state

    def test_verilog_mentions_every_instance(self, avr_sim):
        text = netlist_to_verilog(avr_sim.netlist)
        assert text.count("DFF #(") == len(avr_sim.netlist.dffs)


class TestVcdPipeline:
    """Trace → VCD → trace → MATE replay is lossless (the paper's flow)."""

    def test_replay_from_vcd_equals_direct_replay(self, avr_sim):
        program = avr_fib(halt=False)
        result = avr_sim.run(AvrSystem(program), max_cycles=400)
        trace = result.trace
        restored = parse_vcd(write_vcd(trace))
        assert restored == trace

        netlist = avr_sim.netlist
        wires = {d.q: name for name, d in netlist.dffs.items()
                 if name.startswith("sreg")}
        mates = find_mates(netlist, faulty_wires=wires).mate_set().mates()
        direct = replay_mates(mates, trace, list(wires))
        from_vcd = replay_mates(mates, restored, list(wires))
        assert direct.trigger_vectors == from_vcd.trigger_vectors


class TestExamplesRun:
    def test_quickstart(self, capsys):
        import examples.quickstart as quickstart

        quickstart.main()
        out = capsys.readouterr().out
        assert "unmaskable" in out
        assert "injection points pruned" in out

    @pytest.mark.slow
    def test_custom_circuit(self, capsys):
        import examples.custom_circuit as custom

        custom.main()
        out = capsys.readouterr().out
        assert "all MATEs sound" in out
