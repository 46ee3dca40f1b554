"""Golden checkpoints: injecting from a checkpoint equals injecting from 0.

``Campaign.inject`` restores the latest golden checkpoint at or before the
fault cycle and simulates from there. The oracle here compares it point
for point with the same campaign whose checkpoint store is empty, which
simulates every point from cycle 0, and names the first point on which
they disagree. A deliberately broken restore (each checkpoint replaced by
the next cycle's, an off-by-one) must be caught.
"""

import copy
import random

import pytest

from repro import obs
from repro.eval.bench import bench_campaign_target
from repro.fi import Campaign, Outcome
from repro.fi.targets import named_target
from repro.sim import ConstantTestbench, Simulator, TableTestbench, Testbench
from repro.sim.simulator import Checkpoint, CheckpointStore
from tests.fi.test_campaign import _AccumBench, _accumulator_netlist
from tests.sim.test_simulator import _counter_netlist

#: A pc bit, a status-flag bit and an address-register bit per core.
SWEPT_FFS = {
    "avr-fib": ("pc_b2", "sreg_b1", "rf_r26_b0"),
    "msp430-fib": ("pc_b2", "sr_b1", "mar_b2"),
}


def _from_cycle_zero(campaign):
    """The same campaign with no checkpoints: every point runs from 0."""
    reference = copy.copy(campaign)
    reference.checkpoints = CheckpointStore()
    return reference


def first_disagreement(candidate, reference, points):
    """None, or a message naming the first point whose outcomes differ."""
    for index, (dff, cycle) in enumerate(points):
        got, expected = candidate.inject(dff, cycle), reference.inject(dff, cycle)
        if got is not expected:
            return (
                f"point {index} ({dff}, cycle {cycle}): checkpointed "
                f"{got.value}, from cycle 0 {expected.value}"
            )
    return None


def _points(campaign, samples, seed, swept=()):
    rng = random.Random(seed)
    names = sorted(campaign.target.simulator.netlist.dffs)
    points = [
        (rng.choice(names), rng.randrange(campaign.golden_cycles))
        for _ in range(samples)
    ]
    for dff in swept:
        points.extend((dff, cycle) for cycle in range(campaign.golden_cycles))
    return points


def _off_by_one(store):
    """Each checkpoint holds the next one's state under its own cycle."""
    broken = CheckpointStore()
    broken.interval = store.interval
    broken.checkpoints = [
        Checkpoint(here.cycle, after.state, after.testbench)
        for here, after in zip(store.checkpoints, store.checkpoints[1:])
    ]
    return broken


@pytest.fixture(scope="module", params=sorted(SWEPT_FFS))
def fib(request):
    return request.param, Campaign(named_target(request.param))


@pytest.mark.slow
def test_checkpointed_injection_matches_cycle_zero(fib):
    name, campaign = fib
    assert len(campaign.checkpoints) == campaign.golden_cycles  # interval 1
    points = _points(campaign, 150, seed=13, swept=SWEPT_FFS[name])
    assert first_disagreement(campaign, _from_cycle_zero(campaign), points) is None


def test_off_by_one_restore_is_caught(fib):
    name, campaign = fib
    broken = _from_cycle_zero(campaign)
    broken.checkpoints = _off_by_one(campaign.checkpoints)
    points = _points(campaign, 150, seed=13, swept=SWEPT_FFS[name])
    message = first_disagreement(broken, _from_cycle_zero(campaign), points)
    assert message is not None
    index = int(message.split()[1])
    dff, cycle = points[index]
    assert message.startswith(f"point {index} ({dff}, cycle {cycle}):")


@pytest.mark.slow
def test_long_run_thins_checkpoints():
    campaign = Campaign(named_target("avr-conv"))
    store = campaign.checkpoints
    assert campaign.golden_cycles > 4096
    assert len(store) <= 256
    assert store.interval == 32
    assert [cp.cycle for cp in store.checkpoints] == list(
        range(0, campaign.golden_cycles, 32)
    )
    points = _points(campaign, 50, seed=5)
    assert first_disagreement(campaign, _from_cycle_zero(campaign), points) is None


def test_restore_skips_the_prefix(fib):
    _, campaign = fib
    obs.reset()
    cycle = campaign.golden_cycles // 2
    campaign.inject(sorted(campaign.target.simulator.netlist.dffs)[0], cycle)
    registry = obs.get_registry()
    assert registry.counter("sim.cycles.restored").value == cycle
    assert registry.counter("sim.cycles.simulated").value > 0


class TestCheckpointStore:
    def test_thinning_keeps_even_spacing(self):
        store = CheckpointStore()
        store.capacity = 4
        due = 0
        for cycle in range(20):
            if cycle == due:
                due = store.add(cycle, [cycle & 1], ())
        assert store.interval == 8
        assert [cp.cycle for cp in store.checkpoints] == [0, 8, 16]
        assert store.at(7).cycle == 0
        assert store.at(8).cycle == 8
        assert store.at(1000).cycle == 16

    def test_unsnapshottable_testbench_disables_the_store(self):
        store = CheckpointStore()
        assert store.add(0, [0], None) == -1
        assert len(store) == 0
        assert store.at(5) is None


class TestFallback:
    """Testbenches without snapshots run from cycle 0, as before."""

    def _assert_runs_from_cycle_zero(self, target, max_cycles=100):
        campaign = Campaign(target, max_cycles=max_cycles)
        assert len(campaign.checkpoints) == 0
        obs.reset()
        result = campaign.run_points(
            (dff, cycle)
            for dff in sorted(target.simulator.netlist.dffs)
            for cycle in range(campaign.golden_cycles)
        )
        registry = obs.get_registry()
        assert registry.counter("sim.cycles.restored").value == 0
        assert registry.counter("sim.runs.injected").value == result.num_injections
        return campaign

    def test_accumulator_bench(self):
        from repro.fi import CampaignTarget

        target = CampaignTarget(
            name="accum",
            simulator=Simulator(_accumulator_netlist()),
            make_testbench=_AccumBench,
            observables=lambda tb, res: tb.result,
        )
        campaign = self._assert_runs_from_cycle_zero(target)
        assert campaign.inject("acc_b0", 2) is Outcome.SDC
        assert campaign.inject("decoy_b3", 2) is Outcome.BENIGN

    def test_eval_bench_target(self):
        self._assert_runs_from_cycle_zero(bench_campaign_target())

    def test_never_halting_bench_records_no_checkpoints(self):
        class NeverHalt(Testbench):
            def drive(self, cycle, state):
                return {"data": 0}

        store = CheckpointStore()
        Simulator(_accumulator_netlist()).run(
            NeverHalt(), max_cycles=20, record_trace=False, checkpoints=store
        )
        assert len(store) == 0


class TestStatelessBenches:
    """Constant and table testbenches snapshot as ``()`` and checkpoint."""

    @pytest.mark.parametrize(
        "make_bench",
        [
            lambda: ConstantTestbench({"en": 1}),
            lambda: TableTestbench([{"en": 1}, {"en": 0}, {"en": 1}] * 3),
        ],
    )
    def test_restored_run_matches_cycle_zero(self, make_bench):
        sim = Simulator(_counter_netlist())
        assert make_bench().snapshot() == ()
        store = CheckpointStore()
        store.capacity = 4
        sim.run(make_bench(), max_cycles=12, record_trace=False, checkpoints=store)
        assert len(store) > 0
        for cycle in range(12):
            flips = {cycle: ["cnt_b1"]}
            start = store.at(cycle)
            restored = sim.run(
                make_bench(), 12, record_trace=False, flips=flips, start=start
            )
            full = sim.run(make_bench(), 12, record_trace=False, flips=flips)
            assert restored.cycles == full.cycles == 12
            assert restored.final_state == full.final_state, cycle
            assert restored.outputs_last == full.outputs_last, cycle


class TestGuardRails:
    @pytest.fixture
    def sim_and_start(self):
        sim = Simulator(_counter_netlist())
        store = CheckpointStore()
        sim.run(ConstantTestbench({"en": 1}), 8, record_trace=False, checkpoints=store)
        return sim, store.at(4)

    def test_flip_before_start_raises(self, sim_and_start):
        sim, start = sim_and_start
        with pytest.raises(ValueError, match="precedes the checkpoint"):
            sim.run(
                ConstantTestbench(), 8, record_trace=False,
                flips={3: ["cnt_b0"]}, start=start,
            )

    def test_trace_with_start_raises(self, sim_and_start):
        sim, start = sim_and_start
        with pytest.raises(ValueError, match="records no trace"):
            sim.run(ConstantTestbench(), 8, start=start)

    def test_reads_with_start_raises(self, sim_and_start):
        sim, start = sim_and_start
        with pytest.raises(ValueError, match="records no trace"):
            sim.run(
                ConstantTestbench(), 8, record_trace=False, record_reads=True,
                start=start,
            )

    @pytest.mark.parametrize("faulty", ["flips", "start"])
    def test_recording_checkpoints_needs_a_fault_free_run(self, sim_and_start, faulty):
        sim, start = sim_and_start
        kwargs = {"flips": {5: ["cnt_b0"]}} if faulty == "flips" else {"start": start}
        store = CheckpointStore()
        with pytest.raises(ValueError, match="fault-free run from cycle 0"):
            sim.run(
                ConstantTestbench({"en": 1}), 8, record_trace=False,
                checkpoints=store, **kwargs,
            )
        assert len(store) == 0

    def test_base_testbench_cannot_restore(self):
        with pytest.raises(NotImplementedError, match="not checkpointable"):
            Testbench().restore(())
