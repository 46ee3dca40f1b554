"""Reproduction of every fact the paper states about its Figure 1 example."""

import pytest

from repro.core import (
    FaultSpace,
    compute_fault_cone,
    enumerate_paths,
    find_mates,
    replay_mates,
)
from repro.core.selection import select_top_n
from repro.eval.example_circuit import (
    FIGURE1_FAULT_WIRES,
    figure1_netlist,
    figure1_testbench_rows,
)
from repro.sim import Simulator, TableTestbench


@pytest.fixture(scope="module")
def netlist():
    return figure1_netlist()


@pytest.fixture(scope="module")
def search_result(netlist):
    return find_mates(netlist, faulty_wires={w: w for w in FIGURE1_FAULT_WIRES})


class TestFaultCone:
    def test_cone_of_d(self, netlist):
        """Sec. 3: cone of d is wires {d,g,k,l}, gates {B,D,E}, border {c,f,h}."""
        cone = compute_fault_cone(netlist, "d")
        assert cone.cone_wires == {"d", "g", "k", "l"}
        assert {g.name for g in cone.cone_gates} == {"B", "D", "E"}
        assert cone.border_wires == {"c", "f", "h"}
        assert cone.endpoint_wires == {"k", "l"}
        assert not cone.fault_wire_is_endpoint

    def test_cone_of_e_reaches_endpoint_directly_after_c(self, netlist):
        cone = compute_fault_cone(netlist, "e")
        assert cone.cone_wires == {"e", "h", "l"}
        assert {g.name for g in cone.cone_gates} == {"C", "E"}

    def test_unknown_wire_rejected(self, netlist):
        with pytest.raises(ValueError):
            compute_fault_cone(netlist, "zz")


class TestPathEnumeration:
    def test_two_paths_for_d(self, netlist):
        enum = enumerate_paths(netlist, "d")
        assert not enum.unmaskable
        # Two propagation paths ([B,D], [B,E]); both have killer terms.
        assert enum.num_paths == 2
        assert len(enum.signatures) == 2

    def test_e_unmaskable(self, netlist):
        enum = enumerate_paths(netlist, "e")
        assert enum.unmaskable

    def test_depth_one_truncates(self, netlist):
        """With depth 1 the d-paths stop at B (XOR, no masking) → unmaskable."""
        enum = enumerate_paths(netlist, "d", depth=1)
        assert enum.unmaskable


class TestMateSearch:
    def test_mate_for_d_is_not_f_and_h(self, search_result):
        (result,) = [r for r in search_result.wire_results if r.wire == "d"]
        assert result.status == "found"
        assert (("f", 0), ("h", 1)) in [m.literals for m in result.mates]

    def test_mates_for_a(self, search_result):
        """M_a = ¬b (at gate A) or ¬g (at gate D)."""
        (result,) = [r for r in search_result.wire_results if r.wire == "a"]
        literal_sets = {m.literals for m in result.mates}
        assert (("b", 0),) in literal_sets
        assert (("g", 0),) in literal_sets

    def test_e_has_no_mate(self, search_result):
        (result,) = [r for r in search_result.wire_results if r.wire == "e"]
        assert result.status == "unmaskable"
        assert result.mates == []

    def test_unmaskable_count(self, search_result):
        assert search_result.num_unmaskable == 1
        assert search_result.num_faulty_wires == 5

    def test_mate_set_grouping(self, search_result):
        """c and d share the term (¬f ∧ h): the MateSet groups them."""
        mate_set = search_result.mate_set()
        (shared,) = [m for m in mate_set if m.literals == (("f", 0), ("h", 1))]
        assert shared.fault_wires == {"c", "d"}


class TestFigure1bFaultSpacePruning:
    def test_replay_and_prune_grid(self, netlist, search_result):
        rows = figure1_testbench_rows()
        sim = Simulator(netlist)
        result = sim.run(TableTestbench(rows), max_cycles=len(rows))
        mates = search_result.mate_set().mates()
        replay = replay_mates(mates, result.trace, list(FIGURE1_FAULT_WIRES))

        space = FaultSpace(list(FIGURE1_FAULT_WIRES), len(rows))
        for wire in FIGURE1_FAULT_WIRES:
            space.mark_benign_cycles(wire, replay.masked_vector(wire))

        # e is unmaskable: its row must stay fully effective.
        assert not any(space.is_benign("e", t) for t in range(len(rows)))
        # In cycle 0 the stimulus has b=0, so a is masked (MATE ¬b).
        assert space.is_benign("a", 0)
        # Some but not all of the space is pruned.
        assert 0 < space.num_benign < space.size
        grid = space.render_grid()
        assert "●" in grid and "○" in grid

    def test_selection_prefers_high_impact_mates(self, netlist, search_result):
        rows = figure1_testbench_rows()
        sim = Simulator(netlist)
        result = sim.run(TableTestbench(rows), max_cycles=len(rows))
        mates = search_result.mate_set().mates()
        replay = replay_mates(mates, result.trace, list(FIGURE1_FAULT_WIRES))
        top2 = select_top_n(replay, 2)
        all_frac = replay.masked_fraction()
        top_frac = replay.masked_fraction(top2)
        assert 0 < top_frac <= all_frac
        # Top-N is monotone in N.
        assert replay.masked_fraction(select_top_n(replay, 1)) <= top_frac
