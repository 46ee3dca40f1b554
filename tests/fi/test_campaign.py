"""Fault-injection campaign tests on a small purpose-built target."""

import math

import pytest

from repro import obs
from repro.core.faultspace import FaultSpace
from repro.fi import Campaign, CampaignTarget, Outcome
from repro.fi.campaign import CampaignResult
from repro.rtl import RtlCircuit, mux
from repro.sim import Simulator, Testbench
from repro.synth import synthesize


def _accumulator_netlist():
    """Sums its input for 8 cycles, then raises done; has a decoy register."""
    c = RtlCircuit("accum")
    data = c.input("data", 4)
    acc = c.reg("acc", 8)
    count = c.reg("count", 4)
    decoy = c.reg("decoy", 8)  # written every cycle, never observed
    done = count.eq(8)
    acc.next = mux(done, (acc + data.zext(8)).trunc(8), acc)
    count.next = mux(done, (count + 1).trunc(4), count)
    decoy.next = data.zext(8)
    c.output("acc_out", acc)
    c.output("done", done)
    return synthesize(c)


class _AccumBench(Testbench):
    def __init__(self):
        self.result = None

    def drive(self, cycle, state):
        return {"data": (cycle * 3 + 1) % 16}

    def observe(self, cycle, outputs):
        if outputs["done"]:
            self.result = outputs["acc_out"]
            return True
        return False


@pytest.fixture(scope="module")
def target():
    netlist = _accumulator_netlist()
    return CampaignTarget(
        name="accum",
        simulator=Simulator(netlist),
        make_testbench=_AccumBench,
        observables=lambda tb, res: tb.result,
    )


@pytest.fixture(scope="module")
def campaign(target):
    return Campaign(target, max_cycles=100)


class TestCampaign:
    def test_golden_run_recorded(self, campaign):
        assert campaign.golden_cycles == 9

    def test_acc_fault_is_sdc(self, campaign):
        assert campaign.inject("acc_b0", 2) is Outcome.SDC

    def test_decoy_fault_is_benign(self, campaign):
        assert campaign.inject("decoy_b3", 2) is Outcome.BENIGN

    def test_count_fault_changes_timing(self, campaign):
        # Flipping a counter bit makes `done` later/earlier; the sum differs
        # or the run times out.
        outcome = campaign.inject("count_b3", 1)
        assert outcome in (Outcome.SDC, Outcome.TIMEOUT)

    def test_injection_beyond_golden_rejected(self, campaign):
        with pytest.raises(ValueError, match=r"outside the golden run \[0, 9\)"):
            campaign.inject("acc_b0", 99)

    @pytest.mark.parametrize("inject", ["inject", "inject_many"])
    def test_negative_cycle_rejected(self, campaign, inject):
        # Without checkpoints a flip at cycle -1 was never reached, so the
        # point silently came back BENIGN.
        points = [("acc_b0", -1), ("acc_b0", 2)]
        with pytest.raises(ValueError, match=r"cycle -1 outside the golden run"):
            if inject == "inject":
                campaign.inject(*points[0])
            else:
                campaign.inject_many(points)

    def test_unknown_dff_rejected(self, campaign):
        with pytest.raises(KeyError):
            campaign.run_points([("nope", 0)])

    def test_inject_validates_dff_name_directly(self, campaign):
        # A typo'd flip-flop must fail loudly at the API boundary, not deep
        # inside the simulator state machinery.
        with pytest.raises(KeyError, match="unknown flip-flop 'acc_b99'"):
            campaign.inject("acc_b99", 2)

    def test_run_points_aggregation(self, campaign):
        result = campaign.run_points([("acc_b0", 2), ("decoy_b0", 2)])
        assert result.num_injections == 2
        assert result.count(Outcome.SDC) == 1
        assert result.count(Outcome.BENIGN) == 1
        assert result.benign_fraction == pytest.approx(0.5)
        assert "accum" in result.summary()

    def test_run_sampled_deterministic(self, campaign):
        r1 = campaign.run_sampled(6, seed=42)
        r2 = campaign.run_sampled(6, seed=42)
        assert [(x.dff_name, x.cycle) for x in r1.records] == [
            (x.dff_name, x.cycle) for x in r2.records
        ]

    def test_run_pruned_skips_benign_points(self, campaign, target):
        dffs = list(target.simulator.netlist.dffs)
        space = FaultSpace(dffs, campaign.golden_cycles)
        for name in dffs:
            if name.startswith("decoy"):
                for cycle in range(campaign.golden_cycles):
                    space.mark_benign(name, cycle)
        result, pruned = campaign.run_pruned(space, num_samples=10, seed=1)
        assert pruned == 8 * campaign.golden_cycles
        assert all(not r.dff_name.startswith("decoy") for r in result.records)

    def test_empty_result_benign_fraction_is_nan(self):
        # 0.0 would silently read as "nothing benign"; an empty campaign has
        # no meaningful fraction.
        assert math.isnan(CampaignResult("empty", 10).benign_fraction)

    def test_run_pruned_counts_pruned_not_sampled_away(self, campaign, target):
        """`pruned_points` is the MATE-pruned count, never the sampling loss.

        Regression pin for the run_pruned contract: `space.num_benign` is
        read after sampling, which must not matter because sampling never
        mutates the space — points dropped only because the remaining space
        exceeded `num_samples` are not reported as pruned.
        """
        dffs = list(target.simulator.netlist.dffs)
        space = FaultSpace(dffs, campaign.golden_cycles)
        space.mark_benign(dffs[0], 0)
        space.mark_benign(dffs[0], 1)
        space.mark_benign(dffs[1], 2)
        assert space.num_remaining > 5  # sampling will drop points
        result, pruned = campaign.run_pruned(space, num_samples=5, seed=2)
        assert pruned == 3 == space.num_benign  # space untouched by sampling
        assert result.num_injections == 5

    def test_injection_metrics_recorded(self, target):
        campaign = Campaign(target, max_cycles=100)
        campaign.run_points([("acc_b0", 2), ("decoy_b0", 2)])
        registry = obs.get_registry()
        assert registry.counter("campaign.injections").value == 2
        assert registry.counter("campaign.outcome.sdc").value == 1
        assert registry.counter("campaign.outcome.benign").value == 1
        assert registry.spans["campaign/run-points"].count == 1
        assert registry.spans["campaign/run-points/campaign/inject"].count == 2
        assert registry.counter("sim.runs").value >= 3  # golden + 2 injections

    def test_nonhalting_golden_rejected(self, target):
        class NeverHalt(Testbench):
            def drive(self, cycle, state):
                return {"data": 0}

        broken = CampaignTarget(
            name="broken",
            simulator=target.simulator,
            make_testbench=NeverHalt,
            observables=lambda tb, res: None,
        )
        with pytest.raises(ValueError, match="did not halt"):
            Campaign(broken, max_cycles=20)
