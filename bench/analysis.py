"""The ``analysis`` workload: cold pruning analysis on both cores.

Run as ``python -m bench.analysis --seed N --out FILE``. One fresh process
synthesizes and compiles both cores, then for each core records an
8500-cycle trace, runs the def-use analysis (``prune.analyze_target``) and
the static dataflow layer, searches MATEs on seeded wires, and replays
them over the trace. No disk cache is read or written and no fault is
injected, so a change to the injection path must leave this workload
unchanged. ``--until compile`` stops once both simulators are compiled
(the workload's set-up). The per-stage times and the result counts go to
``FILE`` as JSON; ``--trace`` also times ``EquivalenceMap.build`` inside
the def-use analysis.
"""

from __future__ import annotations

import argparse
import json
import random
import re
import sys
import time
from pathlib import Path

TRACE_CYCLES = 8500

#: Registers searched for MATEs, with how many seeded bits of each. The
#: bits of one register have near-equal search cost, so a seed changes
#: which wires are searched but not how much work the search is.
SEARCH_REGISTERS = {
    "avr": (("rstack0", 3), ("rstack1", 3)),
    "msp430": (("mar", 2), ("dstaddr", 2), ("dstval", 1), ("srcval", 1)),
}


def search_wires(netlist, core: str, seed: int) -> dict[str, str]:
    """Seeded fault wire -> DFF map for the MATE search on one core."""
    rng = random.Random(f"{seed}/{core}")
    picked: dict[str, str] = {}
    for register, count in SEARCH_REGISTERS[core]:
        pattern = re.compile(rf"{register}_b(\d+)")
        bits = sorted(
            (name for name in netlist.dffs if pattern.fullmatch(name)),
            key=lambda name: int(pattern.fullmatch(name).group(1)),
        )
        for name in rng.sample(bits, count):
            picked[netlist.dffs[name].q] = name
    return picked


def run(seed: int, until_compile: bool, trace: bool) -> dict:
    """Run the pipeline; returns per-core stage seconds and counts."""
    from repro.core.replay import replay_mates
    from repro.core.search import faulty_wires_for_dffs, find_mates
    from repro.cpu.avr import synthesize_avr
    from repro.cpu.msp430 import synthesize_msp430
    from repro.eval.context import make_system
    from repro.fi.targets import avr_target, msp430_target
    from repro.prune import (
        EquivalenceMap,
        analyze_target,
        dead_facts,
        decode_program,
    )
    from repro.prune.dataflow import anchor_cycles, build_claims, program_words
    from repro.sim.simulator import Simulator

    clock = time.perf_counter
    stages: dict[str, dict[str, float]] = {core: {} for core in ("avr", "msp430")}
    counts: dict[str, dict[str, int]] = {core: {} for core in ("avr", "msp430")}
    built = {}
    for core, synthesize in (("avr", synthesize_avr), ("msp430", synthesize_msp430)):
        start = clock()
        netlist = synthesize()
        stages[core]["synth_s"] = clock() - start
        start = clock()
        built[core] = (netlist, Simulator(netlist))
        stages[core]["compile_s"] = clock() - start
    if until_compile:
        return {"stages": stages, "counts": counts}

    if trace:
        build = EquivalenceMap.build
        build_seconds = [0.0]

        def timed_build(*args, **kwargs):
            start = clock()
            try:
                return build(*args, **kwargs)
            finally:
                build_seconds[0] += clock() - start

        EquivalenceMap.build = staticmethod(timed_build)

    for core, target_of in (("avr", avr_target), ("msp430", msp430_target)):
        netlist, simulator = built[core]
        times, tally = stages[core], counts[core]
        start = clock()
        recorded = simulator.run(
            make_system(core, "fib"), max_cycles=TRACE_CYCLES, record_trace=True
        )
        times["trace_s"] = clock() - start

        if trace:
            build_seconds[0] = 0.0
        start = clock()
        defuse = analyze_target(target_of("fib", simulator))
        times["analyze_s"] = clock() - start
        if trace:
            times["build_s"] = build_seconds[0]

        start = clock()
        cfg = decode_program(core, program_words(f"{core}-fib")[1])
        claims = build_claims(cfg, dead_facts(cfg))
        times["solve_s"] = clock() - start
        start = clock()
        anchors = anchor_cycles(core, defuse.trace)
        times["anchor_s"] = clock() - start

        wires = search_wires(netlist, core, seed)
        start = clock()
        search = find_mates(netlist, faulty_wires=wires)
        times["search_s"] = clock() - start
        start = clock()
        replay = replay_mates(
            search.mate_set().mates(),
            recorded.trace,
            list(faulty_wires_for_dffs(netlist, exclude_register_file=True)),
        )
        times["replay_s"] = clock() - start

        equivalence = defuse.map
        tally.update(
            trace_cycles=recorded.cycles,
            golden_cycles=equivalence.golden_cycles,
            defuse_points=equivalence.num_points,
            defuse_intervals=sum(1 for _ in equivalence.claims()),
            defuse_dead_points=equivalence.num_dead_points,
            static_claims=len(claims),
            anchored_cycles=sum(1 for anchor in anchors if anchor is not None),
            search_wires=len(wires),
            mates=search.num_mates,
            masked_pairs=replay.masked_pairs(),
        )
    return {"stages": stages, "counts": counts}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.analysis")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--until", choices=("compile",), default=None)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    result = run(args.seed, args.until == "compile", args.trace)
    args.out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
