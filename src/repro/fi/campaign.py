"""The fault-injection campaign engine.

A :class:`CampaignTarget` bundles a compiled netlist with a workload: a
factory for fresh testbenches and an extractor for the externally-visible
result (memory image, i/o log). :class:`Campaign` runs the golden
execution once, then injects SEUs — exhaustively, sampled, or from a
MATE-pruned fault list — and classifies each run.

When the workload's testbench is checkpointable, the golden run records
checkpoints (:class:`repro.sim.simulator.CheckpointStore`, at most 256)
and each injection restores the latest one at or before its fault cycle
instead of re-simulating the fault-free prefix; the outcome is the same
as simulating from cycle 0.

:meth:`Campaign.inject_many` goes further on such a testbench: it
simulates up to ``LANES - 1`` points in one bit-parallel pass around a
fault-free lane 0 (:meth:`repro.sim.Simulator.run_lanes`) and finishes
only the lanes the testbench could tell apart from lane 0 as scalar runs,
from the cycle they diverged in.
"""

from __future__ import annotations

import math
import random
import time
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.faultspace import FaultSpace
from repro.fi.classify import Outcome
from repro.obs import counter, gauge, span
from repro.sim.simulator import (
    Checkpoint,
    CheckpointStore,
    SimulationResult,
    Simulator,
)
from repro.sim.testbench import Testbench


@dataclass
class CampaignTarget:
    """A netlist + workload combination to inject into."""

    name: str
    simulator: Simulator
    make_testbench: Callable[[], Testbench]
    #: Extracts the externally visible result from (testbench, result).
    observables: Callable[[Testbench, SimulationResult], object]
    #: Safety margin on top of the golden run length.
    timeout_factor: float = 2.0

    def fault_wires(self, exclude_register_file: bool = False) -> list[str]:
        """Flip-flop Q wires of the target (the injectable fault sites)."""
        netlist = self.simulator.netlist
        excluded = (
            netlist.register_file_dffs() if exclude_register_file else set()
        )
        return [d.q for name, d in netlist.dffs.items() if name not in excluded]


@dataclass
class InjectionRecord:
    """One injection and its outcome."""

    dff_name: str
    cycle: int
    outcome: Outcome


@dataclass
class CampaignResult:
    """Aggregated campaign outcome."""

    target: str
    golden_cycles: int
    records: list[InjectionRecord] = field(default_factory=list)

    def count(self, outcome: Outcome) -> int:
        """Number of injections with the given outcome."""
        return sum(1 for r in self.records if r.outcome is outcome)

    @property
    def num_injections(self) -> int:
        """Total number of injections performed."""
        return len(self.records)

    @property
    def benign_fraction(self) -> float:
        """Fraction of injections that were benign.

        An empty campaign has no meaningful fraction: this returns
        ``float("nan")`` rather than a silent ``0.0`` (which would read as
        "every injection was effective"). Callers that aggregate fractions
        must check :attr:`num_injections` (or ``math.isnan``) first.
        """
        if not self.records:
            return math.nan
        return self.count(Outcome.BENIGN) / len(self.records)

    def summary(self) -> str:
        """One-line human-readable outcome tally."""
        parts = [f"campaign {self.target}: {self.num_injections} injections"]
        for outcome in Outcome:
            parts.append(f"{outcome.value}={self.count(outcome)}")
        return ", ".join(parts)


class Campaign:
    """Runs SEU injections against one target."""

    #: Lanes of one :meth:`inject_many` pass: lane 0 is fault-free, so a
    #: pass injects ``LANES - 1`` points. Python ints are arbitrary width;
    #: 64 measured no slower end to end than narrower passes.
    LANES = 64

    def __init__(self, target: CampaignTarget, max_cycles: int = 50_000) -> None:
        self.target = target
        tb = target.make_testbench()
        #: Golden-run checkpoints; empty when the testbench cannot snapshot.
        self.checkpoints = CheckpointStore()
        with span("campaign/golden-run", target=target.name):
            self._golden = target.simulator.run(
                tb,
                max_cycles=max_cycles,
                record_trace=False,
                checkpoints=self.checkpoints,
            )
        if not self._golden.halted:
            raise ValueError(
                f"golden run of {target.name} did not halt within {max_cycles} cycles"
            )
        self._golden_observables = target.observables(tb, self._golden)
        self.golden_cycles = self._golden.cycles

    # ------------------------------------------------------------------
    def _validate_point(self, dff_name: str, cycle: int) -> None:
        if dff_name not in self.target.simulator.netlist.dffs:
            raise KeyError(f"unknown flip-flop {dff_name!r}")
        if not 0 <= cycle < self.golden_cycles:
            raise ValueError(
                f"cycle {cycle} outside the golden run [0, {self.golden_cycles})"
            )

    @property
    def _budget(self) -> int:
        return int(self.golden_cycles * self.target.timeout_factor) + 8

    def _classify(self, testbench: Testbench, result: SimulationResult) -> Outcome:
        if not result.halted:
            outcome = Outcome.TIMEOUT
        elif self.target.observables(testbench, result) == self._golden_observables:
            outcome = Outcome.BENIGN
        else:
            outcome = Outcome.SDC
        counter("campaign.injections").inc()
        counter(f"campaign.outcome.{outcome.value}").inc()
        return outcome

    def _run_from(
        self, start: Checkpoint | None, flips: dict[int, list[str]] | None = None
    ) -> Outcome:
        """Simulate from ``start`` (None: cycle 0) to the budget; classify."""
        tb = self.target.make_testbench()
        with span("campaign/inject"):
            result = self.target.simulator.run(
                tb,
                max_cycles=self._budget,
                record_trace=False,
                flips=flips,
                start=start,
            )
        return self._classify(tb, result)

    def inject(self, dff_name: str, cycle: int) -> Outcome:
        """Inject one SEU and classify the outcome."""
        self._validate_point(dff_name, cycle)
        return self._run_from(self.checkpoints.at(cycle), {cycle: [dff_name]})

    def inject_many(
        self,
        points: Iterable[tuple[str, int]],
        seconds: list[float] | None = None,
    ) -> list[Outcome]:
        """Inject many SEUs; the outcomes equal :meth:`inject` point by point.

        Points are sorted by cycle and simulated ``LANES - 1`` at a time
        as lanes of one :meth:`~repro.sim.Simulator.run_lanes` pass from
        the latest checkpoint before the earliest of them. A lane the
        testbench saw diverge from the golden lane resumes as a scalar run
        from its peel checkpoint; every other lane halted with the golden
        testbench and is classified from it and its own final state.
        Without checkpoints (the testbench cannot snapshot), or for one
        point, each point is simply :meth:`inject` ed.

        When ``seconds`` is a list it receives each point's wall time, in
        point order: its pass's time shared equally among the pass's
        points, plus its own scalar run.
        """
        points = list(points)
        for dff_name, cycle in points:
            self._validate_point(dff_name, cycle)
        if len(points) < 2 or not self.checkpoints:
            outcomes = []
            for dff_name, cycle in points:
                began = time.monotonic()
                outcomes.append(self.inject(dff_name, cycle))
                if seconds is not None:
                    seconds.append(time.monotonic() - began)
            return outcomes
        order = sorted(range(len(points)), key=lambda index: points[index][1])
        results: dict[int, tuple[Outcome, float]] = {}
        for at in range(0, len(order), self.LANES - 1):
            bundle = order[at:at + self.LANES - 1]
            injected = [points[index] for index in bundle]
            results.update(zip(bundle, self._inject_bundle(injected)))
        if seconds is not None:
            seconds.extend(results[index][1] for index in range(len(points)))
        return [results[index][0] for index in range(len(points))]

    def _inject_bundle(
        self, points: list[tuple[str, int]]
    ) -> list[tuple[Outcome, float]]:
        """(outcome, seconds) of each point, simulated as lanes of one pass."""
        began = time.monotonic()
        tb = self.target.make_testbench()
        start = self.checkpoints.at(min(cycle for _, cycle in points))
        lanes = self.target.simulator.run_lanes(tb, start, points, self._budget)
        outcomes = {
            lane: self._classify(tb, lanes.lane(lane))
            for lane in range(1, len(points) + 1)
            if lane not in lanes.peeled
        }
        share = (time.monotonic() - began) / len(points)
        results = []
        for lane in range(1, len(points) + 1):
            checkpoint = lanes.peeled.get(lane)
            if checkpoint is None:
                results.append((outcomes[lane], share))
                continue
            began = time.monotonic()
            outcome = self._run_from(checkpoint)
            results.append((outcome, share + time.monotonic() - began))
        return results

    # ------------------------------------------------------------------
    def run_points(self, points: Iterable[tuple[str, int]]) -> CampaignResult:
        """Inject a list of (dff name, cycle) points."""
        result = CampaignResult(self.target.name, self.golden_cycles)
        points = list(points)
        with span(
            "campaign/run-points", target=self.target.name, points=len(points)
        ) as run_span:
            outcomes = self.inject_many(points)
            result.records = [
                InjectionRecord(dff_name, cycle, outcome)
                for (dff_name, cycle), outcome in zip(points, outcomes)
            ]
        if run_span.elapsed > 0:
            gauge("campaign.injections_per_second").set(
                len(points) / run_span.elapsed
            )
        return result

    def run_sampled(
        self,
        num_samples: int,
        seed: int = 0,
        dff_names: Sequence[str] | None = None,
    ) -> CampaignResult:
        """Inject uniformly sampled points from the fault space."""
        rng = random.Random(seed)
        names = list(dff_names or self.target.simulator.netlist.dffs)
        points = [
            (rng.choice(names), rng.randrange(self.golden_cycles))
            for _ in range(num_samples)
        ]
        return self.run_points(points)

    def run_pruned(
        self,
        space: FaultSpace,
        num_samples: int,
        seed: int = 0,
    ) -> tuple[CampaignResult, int]:
        """Sample the *remaining* (unpruned) fault space of ``space``.

        ``space`` rows must be DFF names. Returns ``(result, pruned_points)``.

        ``pruned_points`` is exactly ``space.num_benign``: the number of
        (flip-flop, cycle) points the MATE set (or any other pruning
        technique) proved benign — the experiments pruning saved. It does
        **not** count points that were merely *sampled away* because the
        remaining space exceeded ``num_samples``, nor remaining points past
        the golden run length. Sampling never mutates ``space``, so the
        count is identical whether it is read before or after sampling.
        """
        remaining = [
            (name, cycle)
            for name, cycle in space.remaining_points()
            if cycle < self.golden_cycles
        ]
        rng = random.Random(seed)
        if len(remaining) > num_samples:
            remaining = rng.sample(remaining, num_samples)
        pruned_points = space.num_benign
        counter("campaign.points.pruned").inc(pruned_points)
        return self.run_points(remaining), pruned_points

    def run_collapsed(
        self, points: Iterable[tuple[str, int]], equivalence_map
    ) -> tuple[CampaignResult, int]:
        """Inject only def-use representatives; back-annotate the rest.

        ``equivalence_map`` is a :class:`repro.prune.EquivalenceMap` for
        this target's design and workload (its ``golden_cycles`` must match
        this campaign's). Returns ``(result, num_injected)``: the result
        carries one record per *requested* point in input order — dead
        points as BENIGN, followers with their representative's outcome —
        while only ``num_injected`` simulations actually ran.
        """
        points = list(points)
        if equivalence_map.golden_cycles != self.golden_cycles:
            raise ValueError(
                f"equivalence map covers {equivalence_map.golden_cycles} "
                f"cycle(s) but the golden run has {self.golden_cycles}"
            )
        plan = equivalence_map.collapse(points)
        outcomes: dict[int, Outcome] = {}
        with span(
            "campaign/run-collapsed",
            target=self.target.name,
            points=len(points),
            injected=plan.num_injected,
        ):
            executed = self.inject_many(plan.points[index] for index in plan.executed)
            outcomes.update(zip(plan.executed, executed))
        for index in plan.dead:
            outcomes[index] = Outcome.BENIGN
        for index, rep_index in plan.follows.items():
            outcomes[index] = outcomes[rep_index]
        counter("campaign.points.annotated").inc(plan.num_annotated)
        result = CampaignResult(self.target.name, self.golden_cycles)
        result.records = [
            InjectionRecord(dff, cycle, outcomes[index])
            for index, (dff, cycle) in enumerate(plan.points)
        ]
        return result, plan.num_injected
