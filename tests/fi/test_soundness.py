"""End-to-end soundness: MATE-pruned injection points are benign.

This is the paper's core safety claim (Sec. 2: a fault masked on the logic
level can never cause a system-level error), checked on the real AVR core
running the halting ``fib()`` workload: every sampled (flip-flop, cycle)
point that the MATE replay prunes must classify as BENIGN when actually
injected and run to completion.
"""

import random

import pytest

from repro.core.replay import replay_mates
from repro.core.search import SearchParameters, faulty_wires_for_dffs, find_mates
from repro.cpu.avr import AvrSystem
from repro.fi import Campaign, Outcome, avr_target
from repro.programs import avr_fib
from repro.util.bits import set_bits


@pytest.fixture(scope="module")
def setup(avr_sim):
    netlist = avr_sim.netlist
    wires = faulty_wires_for_dffs(netlist, exclude_register_file=True)
    params = SearchParameters(max_candidates=10_000, max_exact_checks=400,
                              max_mates_per_wire=8)
    mates = find_mates(netlist, faulty_wires=wires, params=params).mate_set().mates()

    target = avr_target("fib", avr_sim)
    campaign = Campaign(target)
    tb = AvrSystem(avr_fib(halt=True), halt_on_sleep=True)
    golden = avr_sim.run(tb, max_cycles=2000)
    replay = replay_mates(mates, golden.trace, list(wires))
    return campaign, replay, wires


@pytest.mark.slow
def test_pruned_points_are_benign_end_to_end(setup):
    campaign, replay, wires = setup
    rng = random.Random(3)
    pruned_points = []
    for wire, dff_name in wires.items():
        for cycle in set_bits(replay.masked_vector(wire)):
            if cycle < campaign.golden_cycles:
                pruned_points.append((dff_name, cycle))
    assert pruned_points, "MATEs pruned nothing on the fib trace"
    sample = rng.sample(pruned_points, min(40, len(pruned_points)))
    result = campaign.run_points(sample)
    assert result.count(Outcome.BENIGN) == result.num_injections, (
        f"pruned-but-effective points found: "
        f"{[(r.dff_name, r.cycle) for r in result.records if r.outcome.is_effective]}"
    )


@pytest.mark.slow
def test_unpruned_space_contains_effective_faults(setup):
    """Sanity: the remaining fault space is not all benign (injection is
    still needed — pruning is sound, not complete)."""
    campaign, replay, wires = setup
    # Inject into PC bits mid-run: guaranteed effective for a halting check.
    result = campaign.run_points([("pc_b0", 30), ("pc_b1", 31), ("pc_b2", 32)])
    assert any(r.outcome.is_effective for r in result.records)
