"""Soundness containment: static-dead ⊆ dynamic-dead on the real targets.

The static layer proves deadness over *all* paths, the def-use layer
observes it on the one golden path — so every (DFF bit, cycle) point the
static map claims must sit inside a def-use ``dead`` interval. A violation
here means the decoder, the CFG edges, or the cycle anchoring over-claims
(the direction that would corrupt campaign results).

Runs off the committed ``.repro_cache`` maps, so it is a cheap regression
suite despite covering both cores end-to-end.
"""

import pytest

from repro.prune import get_equivalence_map, get_static_map
from repro.prune.defuse import KIND_DEAD
from repro.util.bits import set_bits

TARGETS = ("avr-fib", "msp430-fib")


@pytest.mark.parametrize("target", TARGETS)
def test_every_static_dead_point_is_dynamically_dead(target):
    static_map = get_static_map(target)
    emap = get_equivalence_map(target)
    assert static_map.golden_cycles == emap.golden_cycles
    checked = 0
    for register in static_map.registers():
        cycles = set_bits(static_map.dead_cycles(register))
        for bit in range(static_map.register_width):
            dff = f"rf_r{register}_b{bit}"
            for cycle in cycles:
                interval = emap.interval_of(dff, cycle)
                assert interval.kind == KIND_DEAD, (
                    f"{target}: statically-dead ({dff}, {cycle}) lands in a "
                    f"{interval.kind} def-use interval — the static layer "
                    f"over-claims"
                )
                checked += 1
    assert checked == static_map.num_dead_points
    assert checked > 0  # the layer must actually bite on both cores


@pytest.mark.parametrize("target", TARGETS)
def test_static_claims_verify_on_the_real_firmware(target):
    from repro.prune import get_dataflow_analysis, verify_static_claim

    analysis = get_dataflow_analysis(target)
    assert analysis.map.claims
    for claim in analysis.map.claims:
        problems = verify_static_claim(analysis.cfg, claim)
        assert problems == [], f"{target}: {claim.describe()}: {problems}"
