#!/usr/bin/env python3
"""A full MATE-accelerated fault-injection campaign on the AVR core.

Pipeline (the paper's intended use):

1. synthesize the AVR core and run the MATE search for its flip-flops;
2. record an execution trace of the ``fib()`` workload;
3. replay the MATEs to prune the (flip-flop × cycle) fault space;
4. inject SEUs — but only at the *remaining* points — and classify them;
5. verify the safety claim: sampled *pruned* points are all benign.

Run with::

    python examples/avr_campaign.py [--samples N]
"""

import argparse

from repro.core import FaultSpace, replay_mates
from repro.core.search import SearchParameters, faulty_wires_for_dffs, find_mates
from repro.cpu.avr import AvrSystem, synthesize_avr
from repro.fi import Campaign, Outcome, avr_target
from repro.programs import avr_fib
from repro.sim import Simulator


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--samples", type=int, default=60,
                        help="injections to run from the pruned fault list")
    args = parser.parse_args()

    print("synthesizing AVR core ...")
    netlist = synthesize_avr()
    simulator = Simulator(netlist)

    print("searching MATEs (non-register-file flip-flops) ...")
    wires = faulty_wires_for_dffs(netlist, exclude_register_file=True)
    search = find_mates(netlist, faulty_wires=wires,
                        params=SearchParameters(max_candidates=20_000))
    mates = search.mate_set().mates()
    print(f"  {len(mates)} unique MATEs over {search.num_faulty_wires} wires "
          f"({search.num_unmaskable} unmaskable)")

    print("recording golden fib() trace ...")
    target = avr_target("fib", simulator)
    campaign = Campaign(target)
    tb = AvrSystem(avr_fib(halt=True), halt_on_sleep=True)
    golden = simulator.run(tb, max_cycles=2000)
    assert golden.trace is not None

    print("replaying MATEs over the trace ...")
    replay = replay_mates(mates, golden.trace, list(wires))
    dff_names = [wires[w] for w in wires]
    space = FaultSpace(dff_names, golden.trace.num_cycles)
    for wire, dff_name in wires.items():
        space.mark_benign_cycles(dff_name, replay.masked_vector(wire))
    print(f"  fault space: {space.size} points, "
          f"{space.num_benign} pruned ({100 * space.benign_fraction:.1f}%)")

    print(f"\ninjecting {args.samples} SEUs from the remaining fault list ...")
    result, saved = campaign.run_pruned(space, num_samples=args.samples, seed=7)
    print(f"  {result.summary()}")
    print(f"  experiments saved by pruning: {saved}")

    print("\nverifying pruned points are benign (sampled) ...")
    import random

    rng = random.Random(11)
    benign_points = [
        (name, cycle)
        for name in dff_names
        for cycle in range(min(campaign.golden_cycles, space.num_cycles))
        if space.is_benign(name, cycle)
    ]
    sample = rng.sample(benign_points, min(20, len(benign_points)))
    check = campaign.run_points(sample)
    assert check.count(Outcome.BENIGN) == check.num_injections, (
        "a pruned point was not benign!"
    )
    print(f"  all {check.num_injections} sampled pruned points confirmed benign ✓")


if __name__ == "__main__":
    main()
