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
"""

from __future__ import annotations

import math
import random
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field

from repro.core.faultspace import FaultSpace
from repro.fi.classify import Outcome
from repro.obs import counter, gauge, progress_iter, span
from repro.sim.simulator import CheckpointStore, SimulationResult, Simulator
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
    def inject(self, dff_name: str, cycle: int) -> Outcome:
        """Inject one SEU and classify the outcome."""
        if dff_name not in self.target.simulator.netlist.dffs:
            raise KeyError(f"unknown flip-flop {dff_name!r}")
        if cycle >= self.golden_cycles:
            raise ValueError(
                f"cycle {cycle} beyond the golden run ({self.golden_cycles})"
            )
        budget = int(self.golden_cycles * self.target.timeout_factor) + 8
        tb = self.target.make_testbench()
        with span("campaign/inject"):
            result = self.target.simulator.run(
                tb,
                max_cycles=budget,
                record_trace=False,
                flips={cycle: [dff_name]},
                start=self.checkpoints.at(cycle),
            )
        if not result.halted:
            outcome = Outcome.TIMEOUT
        elif self.target.observables(tb, result) == self._golden_observables:
            outcome = Outcome.BENIGN
        else:
            outcome = Outcome.SDC
        counter("campaign.injections").inc()
        counter(f"campaign.outcome.{outcome.value}").inc()
        return outcome

    # ------------------------------------------------------------------
    def run_points(self, points: Iterable[tuple[str, int]]) -> CampaignResult:
        """Inject a list of (dff name, cycle) points."""
        dffs = self.target.simulator.netlist.dffs
        result = CampaignResult(self.target.name, self.golden_cycles)
        points = list(points)
        with span(
            "campaign/run-points", target=self.target.name, points=len(points)
        ) as run_span:
            for dff_name, cycle in progress_iter(
                points, label=f"campaign {self.target.name}"
            ):
                if dff_name not in dffs:
                    raise KeyError(f"unknown flip-flop {dff_name!r}")
                outcome = self.inject(dff_name, cycle)
                result.records.append(InjectionRecord(dff_name, cycle, outcome))
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
            for index in plan.executed:
                dff_name, cycle = plan.points[index]
                outcomes[index] = self.inject(dff_name, cycle)
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
