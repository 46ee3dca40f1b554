"""The MATE layer is replayed over each target's halting golden run.

The free-running 8500-cycle evaluation trace and the halting golden run of
a campaign agree only up to the halt: avr-fib from cycle 126 (128 golden
cycles), msp430-fib from cycle 236 (241). Replaying MATEs over the
free-running trace and cutting the result to the golden length marks
points benign that the golden run's MATEs never trigger, some of them
effective: (``ir_b11``, 127) on avr-fib injects SDC and (``ir_b0``, 238)
on msp430-fib injects TIMEOUT.
"""

from types import SimpleNamespace

import pytest

from repro.core.replay import replay_mates
from repro.eval import context
from repro.fi.targets import named_target

#: (target, flip-flop, cycle): an effective point past the two traces' split.
CASES = [("avr-fib", "ir_b11", 127), ("msp430-fib", "ir_b0", 238)]


def _golden_replay(target_name):
    """MATE replay over a freshly recorded halting golden run."""
    core = target_name.partition("-")[0]
    target = named_target(target_name)
    golden = target.simulator.run(target.make_testbench(), max_cycles=50_000)
    assert golden.halted
    replay = replay_mates(
        context.get_mates(core, exclude_register_file=False),
        golden.trace,
        context.get_fault_wires(core, exclude_register_file=False),
    )
    return target, golden, replay


@pytest.mark.parametrize("target_name,dff,cycle", CASES)
def test_vectors_equal_replay_over_the_golden_trace(target_name, dff, cycle):
    from repro.prune import get_mate_vectors

    target, golden, replay = _golden_replay(target_name)
    vectors = get_mate_vectors(target_name)
    assert vectors == {wire: replay.masked_vector(wire) for wire in replay.fault_wires}
    assert all(vector >> golden.cycles == 0 for vector in vectors.values())
    wire = target.simulator.netlist.dffs[dff].q
    assert not vectors[wire] >> cycle & 1


@pytest.mark.parametrize("target_name,dff,cycle", CASES)
def test_pruned_campaign_samples_the_effective_point(target_name, dff, cycle):
    from repro.fi.__main__ import _pruned_points

    target, golden, replay = _golden_replay(target_name)
    runner = SimpleNamespace(target=target, golden_cycles=golden.cycles)
    remaining, meta, _ = _pruned_points(runner, target_name, 10**9, seed=0)
    assert (dff, cycle) in remaining
    assert meta["pruned_points"] == replay.masked_pairs()
    assert meta["space_points"] == replay.fault_space_size


@pytest.mark.parametrize("target_name", ["avr-fib", "msp430-fib"])
def test_prune_table_mate_column_counts_golden_triggers(target_name):
    from repro.eval.prune_table import account_target

    _, _, replay = _golden_replay(target_name)
    row = account_target(target_name, with_static=False)
    assert row.mate_pruned == replay.masked_pairs()
