"""Differential oracle: bit-parallel lane injection against per point.

``Campaign.inject_many`` simulates up to ``LANES - 1`` points per pass as
lanes around a fault-free lane 0 and finishes the lanes the testbench
could tell apart from lane 0 as scalar runs. The oracle here compares it
record for record with ``Campaign.inject`` on the same points and names
the first point on which they disagree; deliberately broken candidates
(ignoring the step's ``diverged`` mask or the register reads, or peeling
one cycle late) must be caught. The inline runner's batching is checked
for poison points (quarantined alone) and for resuming a cut journal.
"""

import json
import math
import time

import pytest

from repro import obs
from repro.fi import (
    Campaign,
    CampaignRunner,
    Outcome,
    RunnerConfig,
    TargetSpec,
    load_journal,
)
from repro.fi.targets import named_target
from tests.fi.runner_targets import (
    TRIP_FF,
    AccumBench,
    accum_target,
    poison_target,
)
from tests.fi.test_checkpoints import SWEPT_FFS, _points


def first_disagreement(campaign, points):
    """None, or a message naming the first point whose outcomes differ."""
    batched = campaign.inject_many(points)
    for index, ((dff, cycle), got) in enumerate(zip(points, batched)):
        expected = campaign.inject(dff, cycle)
        if got is not expected:
            return (
                f"point {index} ({dff}, cycle {cycle}): lanes "
                f"{got.value}, per point {expected.value}"
            )
    return None


@pytest.fixture(scope="module", params=sorted(SWEPT_FFS))
def fib(request):
    return request.param, Campaign(named_target(request.param))


def test_inject_many_matches_inject(fib):
    name, campaign = fib
    points = _points(campaign, 150, seed=14, swept=SWEPT_FFS[name])
    assert first_disagreement(campaign, points) is None
    registry = obs.get_registry()
    bundles = math.ceil(len(points) / (Campaign.LANES - 1))
    assert registry.counter("sim.lanes.runs").value == bundles
    assert (
        registry.counter("sim.lanes.peeled").value
        + registry.counter("sim.lanes.survived").value
    ) == len(points)
    assert registry.counter("sim.lanes.survived").value > 0


def _ignore_diverged(step):
    def broken(state, in_words, mask):
        next_state, out_words, _ = step(state, in_words, mask)
        return next_state, out_words, 0

    return broken


def _peel_late(step):
    """Reports each cycle's output divergence one cycle later."""
    previous = [0]

    def broken(state, in_words, mask):
        next_state, out_words, diverged = step(state, in_words, mask)
        late, previous[0] = previous[0], diverged
        return next_state, out_words, late

    return broken


# A late peel shows only where an output diverges before any register
# read does; on msp430-fib the ``mar`` read comes first for these points.
@pytest.mark.parametrize(
    "fib, breakage",
    [
        ("avr-fib", _ignore_diverged),
        ("msp430-fib", _ignore_diverged),
        ("avr-fib", _peel_late),
    ],
    indirect=["fib"],
)
def test_broken_candidate_is_caught(fib, breakage, monkeypatch):
    name, campaign = fib
    compiled = campaign.target.simulator.compiled
    monkeypatch.setattr(compiled, "lane_step", breakage(compiled.lane_step))
    points = _points(campaign, 150, seed=14, swept=SWEPT_FFS[name])
    message = first_disagreement(campaign, points)
    assert message is not None
    index = int(message.split()[1])
    dff, cycle = points[index]
    assert message.startswith(f"point {index} ({dff}, cycle {cycle}):")


class ReadBackBench(AccumBench):
    """Feeds the accumulator the ``decoy`` register it reads back: decoy
    reaches no output, so only the register read can reveal a fault."""

    def drive(self, cycle, state):
        return {"data": (state.read_reg("decoy") + cycle) % 16}

    def snapshot(self):
        return (self.result,)

    def restore(self, snapshot):
        (self.result,) = snapshot


def test_ignoring_register_reads_is_caught(monkeypatch):
    target = accum_target()
    target.make_testbench = ReadBackBench
    campaign = Campaign(target, max_cycles=100)
    points = [
        (f"decoy_b{bit}", cycle)
        for bit in range(4)
        for cycle in range(campaign.golden_cycles)
    ]
    assert first_disagreement(campaign, points) is None
    simulator = campaign.target.simulator
    readers = {
        reg: (lambda s, read=read: (read(s)[0], 0))
        for reg, read in simulator.lane_registers.items()
    }
    monkeypatch.setitem(simulator.__dict__, "lane_registers", readers)
    message = first_disagreement(campaign, points)
    assert message is not None
    assert message.startswith("point 0 (decoy_b0, cycle 0):")


@pytest.mark.slow
def test_peels_between_checkpoints_on_avr_conv():
    campaign = Campaign(named_target("avr-conv"))
    assert campaign.checkpoints.interval == 32
    points = _points(campaign, 50, seed=5)
    assert first_disagreement(campaign, points) is None
    registry = obs.get_registry()
    assert registry.counter("sim.lanes.peeled").value > 0


def test_negative_cycle_rejected_with_checkpoints(fib):
    _, campaign = fib
    with pytest.raises(ValueError, match=r"cycle -1 outside the golden run \[0, "):
        campaign.inject("pc_b2", -1)


def test_seconds_share_the_batch_wall_time(fib):
    _, campaign = fib
    points = _points(campaign, 70, seed=3)
    seconds = []
    began = time.monotonic()
    campaign.inject_many(points, seconds)
    wall = time.monotonic() - began
    assert len(seconds) == len(points)
    assert all(s > 0 for s in seconds)
    assert sum(seconds) <= wall


def test_peeled_tails_count_as_simulated_cycles(fib):
    _, campaign = fib
    points = _points(campaign, 40, seed=8)
    campaign.inject_many(points)
    registry = obs.get_registry()
    peeled = registry.counter("sim.lanes.peeled").value
    assert peeled > 0
    assert registry.counter("sim.runs").value == peeled
    assert registry.counter("sim.cycles.simulated").value > 0
    assert registry.counter("sim.cycles.restored").value > 0
    assert registry.counter("sim.lanes.cycles").value > 0


def test_without_checkpoints_each_point_is_injected():
    campaign = Campaign(accum_target(), max_cycles=100)
    assert len(campaign.checkpoints) == 0
    points = [
        (dff, cycle)
        for dff in sorted(campaign.target.simulator.netlist.dffs)
        for cycle in range(campaign.golden_cycles)
    ]
    assert campaign.inject_many(points) == [campaign.inject(*p) for p in points]
    assert obs.get_registry().counter("sim.lanes.runs").value == 0


# ----------------------------------------------------------------------
def _config(**overrides):
    defaults = dict(
        workers=0, max_cycles=100, install_signal_handlers=False,
        retry_backoff=0.001,
    )
    defaults.update(overrides)
    return RunnerConfig(**defaults)


def _outcomes(result):
    return [(r.dff_name, r.cycle, r.outcome) for r in result.records]


def test_poison_point_in_a_batch_is_quarantined_alone(tmp_path):
    spec = TargetSpec(factory="tests.fi.runner_targets:poison_target")
    runner = CampaignRunner(spec, _config(max_retries=1))
    assert len(runner.campaign.checkpoints) > 0
    points = [
        (dff, cycle)
        for dff in sorted(runner.target.simulator.netlist.dffs)
        if dff != TRIP_FF
        for cycle in range(runner.golden_cycles)
    ]
    points.insert(len(points) // 2, (TRIP_FF, 3))
    report = runner.run(points, tmp_path / "c.jsonl")
    assert report.complete
    assert report.quarantined == 1
    assert obs.get_registry().counter("campaign.batch.fallbacks").value == 1
    reference = Campaign(poison_target(), max_cycles=100)
    for dff, cycle, outcome in _outcomes(report.result):
        if dff == TRIP_FF:
            assert outcome is Outcome.ERROR
        else:
            assert outcome is reference.inject(dff, cycle), (dff, cycle)
    state = load_journal(tmp_path / "c.jsonl")
    assert "PoisonError" in state.details[points.index((TRIP_FF, 3))]["error"]


def test_resumed_batched_journal_matches_per_point(tmp_path):
    spec = TargetSpec(
        factory="repro.fi.targets:named_target", kwargs={"name": "avr-fib"}
    )
    runner = CampaignRunner(spec, _config(max_cycles=50_000))
    points = runner.sample_points(150, seed=21)
    journal = tmp_path / "c.jsonl"
    assert runner.run(points, journal, seed=21).complete
    lines = journal.read_bytes().splitlines(keepends=True)
    indices = [json.loads(line)["i"] for line in lines[1:-1]]
    assert indices == sorted(indices), "records journaled in point order"
    # Keep the header and the first 70 records, as a run killed mid-batch
    # leaves them.
    journal.write_bytes(b"".join(lines[:71]))
    resumed = runner.run(points, journal, resume=True, seed=21)
    assert resumed.complete
    assert resumed.skipped == 70
    campaign = runner.campaign
    expected = [(dff, cycle, campaign.inject(dff, cycle)) for dff, cycle in points]
    assert _outcomes(resumed.result) == expected
    on_disk = load_journal(journal).records
    assert [on_disk[i].outcome for i in range(len(points))] == [
        outcome for *_, outcome in expected
    ]
