"""Ablations over the heuristic parameters (paper Sec. 4 / Sec. 6.2).

Sweeps the three knobs the paper names — path-enumeration depth, maximum
terms per MATE, candidate budget — on a fixed sample of AVR wires, plus a
top-N saturation curve, and a validation experiment comparing the heuristic
MATE set against the *precise* per-flip-flop masking upper bound.
"""

import pytest

from repro.core.replay import replay_mates
from repro.core.search import SearchParameters, faulty_wires_for_dffs, find_mates
from repro.core.selection import select_top_n
from repro.core.verify import exact_masked_cycles
from repro.eval import context

SAMPLE_SIZE = 16


def _sample_wires(netlist):
    wires = list(faulty_wires_for_dffs(netlist, exclude_register_file=True).items())
    return dict(wires[:SAMPLE_SIZE])


@pytest.mark.bench_table
@pytest.mark.parametrize("depth", [2, 4, 8])
def test_bench_ablation_depth(benchmark, avr_netlist, depth):
    """Deeper path windows unlock more maskable wires (monotone trend)."""
    params = SearchParameters(depth=depth, max_candidates=10_000,
                              max_exact_checks=300)
    result = benchmark.pedantic(
        find_mates,
        args=(avr_netlist,),
        kwargs={"faulty_wires": _sample_wires(avr_netlist), "params": params},
        rounds=1,
        iterations=1,
    )
    found = sum(1 for r in result.wire_results if r.status == "found")
    print(f"\ndepth={depth}: found={found}, mates={result.num_mates}, "
          f"unmaskable={result.num_unmaskable}")
    benchmark.extra_info["found_wires"] = found


@pytest.mark.bench_table
@pytest.mark.parametrize("max_terms", [1, 2, 4])
def test_bench_ablation_max_terms(benchmark, avr_netlist, max_terms):
    """More terms per conjunction -> more (and more specific) MATEs."""
    params = SearchParameters(max_terms=max_terms, max_candidates=10_000,
                              max_exact_checks=300)
    result = benchmark.pedantic(
        find_mates,
        args=(avr_netlist,),
        kwargs={"faulty_wires": _sample_wires(avr_netlist), "params": params},
        rounds=1,
        iterations=1,
    )
    print(f"\nmax_terms={max_terms}: mates={result.num_mates}")
    benchmark.extra_info["mates"] = result.num_mates


def test_depth_monotonicity(avr_netlist):
    """The set of maskable wires grows with the depth window."""
    found = {}
    for depth in (1, 4, 8):
        params = SearchParameters(depth=depth, max_candidates=5_000,
                                  max_exact_checks=200)
        result = find_mates(
            avr_netlist, faulty_wires=_sample_wires(avr_netlist), params=params
        )
        found[depth] = {r.wire for r in result.wire_results if r.status == "found"}
    assert len(found[1]) <= len(found[4]) <= len(found[8])


@pytest.mark.bench_table
def test_bench_topn_saturation(benchmark):
    """Top-N masking saturates well before the complete set (paper: N≈50)."""
    core = "avr"
    mates = context.get_mates(core, exclude_register_file=True)
    trace = context.get_trace(core, "fib")
    fault_wires = context.get_fault_wires(core, exclude_register_file=True)
    replay = replay_mates(mates, trace, fault_wires)

    def curve():
        return {
            n: replay.masked_fraction(select_top_n(replay, n))
            for n in (1, 5, 10, 25, 50, 100, 200)
        }

    points = benchmark.pedantic(curve, rounds=1, iterations=1)
    complete = replay.masked_fraction()
    print("\ntop-N saturation (AVR, FF w/o RF, fib):")
    for n, value in points.items():
        print(f"  top-{n:<4d} {100 * value:6.2f}%  "
              f"({100 * value / complete if complete else 0:.0f}% of complete)")
    values = list(points.values())
    assert values == sorted(values)


@pytest.mark.bench_table
def test_bench_heuristic_vs_precise_upper_bound(benchmark):
    """Heuristic MATE coverage vs the exact duplicated-cone upper bound.

    The paper notes the heuristic is sufficient-but-incomplete; this
    quantifies the gap on sampled cycles of the AVR fib trace.
    """
    core = "avr"
    mates = context.get_mates(core, exclude_register_file=True)
    trace = context.get_trace(core, "fib")
    fault_map = faulty_wires_for_dffs(
        context.get_netlist(core), exclude_register_file=True
    )
    fault_wires = list(fault_map)
    replay = replay_mates(mates, trace, fault_wires)
    compiled = context.get_simulator(core).compiled
    cycles = range(0, 400, 8)  # sampled cycles

    def measure():
        heuristic = 0
        precise = 0
        for wire, dff_name in fault_map.items():
            pruned = replay.masked_vector(wire)
            exact = set(exact_masked_cycles(compiled, trace, dff_name, cycles))
            for cycle in cycles:
                if pruned >> cycle & 1:
                    heuristic += 1
                    assert cycle in exact, "unsound pruning!"
            precise += len(exact)
        return heuristic, precise

    heuristic, precise = benchmark.pedantic(measure, rounds=1, iterations=1)
    print(f"\nheuristic-pruned points: {heuristic}, "
          f"precise upper bound: {precise} "
          f"({100 * heuristic / precise if precise else 0:.0f}% of achievable)")
    assert heuristic <= precise
