"""Correctness gate: campaign journals against the reference simulation.

The reference for one (flip-flop, cycle) point is a scalar
``Simulator.run(..., record_trace=True, flips={cycle: [dff]})`` from
cycle 0 on a freshly synthesized core, classified from ``halted`` and the
target's observables. Every fast path and every pruning layer must give
the same outcome; a point a pruning layer annotated without simulating is
checked the same way.

The measuring process never imports ``repro``: a child's peak RSS as
``os.wait4`` reports it includes the parent's high-water RSS at the time
it was spawned, so the parent stays small. It reads journals itself and
runs the reference as ``python -m bench.gate JOURNAL --seed N --out FILE``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

#: Journal points re-simulated per campaign workload.
SAMPLE = 32


@dataclass
class Checks:
    """Named pass/fail results of one workload's correctness gate."""

    passed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, ok: bool, failure: str) -> None:
        if ok:
            self.passed += 1
        else:
            self.failures.append(failure)

    @property
    def attempted(self) -> int:
        return self.passed + len(self.failures)


@dataclass(frozen=True)
class JournalView:
    """What the gate and the metrics read from one campaign journal."""

    path: Path
    target: str
    golden_cycles: int
    #: (dff, cycle, outcome) by point index, for every recorded point.
    records: tuple[tuple[str, int, str], ...]
    #: Layer that annotated each point without simulating it, or None.
    pruned_by: tuple[str | None, ...]
    #: Journaled wall seconds of each simulated injection.
    seconds: tuple[float, ...]

    @property
    def injected(self) -> int:
        return sum(1 for layer in self.pruned_by if layer is None)

    @property
    def errors(self) -> int:
        return sum(1 for *_, outcome in self.records if outcome == "error")

    def histogram(self) -> dict[str, int]:
        return dict(sorted(Counter(o for *_, o in self.records).items()))

    def digest(self) -> str:
        """Content hash of the outcome list, in point order."""
        blob = json.dumps([list(record) for record in self.records])
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def read_journal(path: Path) -> JournalView:
    """Parse a campaign journal (JSON lines: header, records, complete).

    A torn final line, left by a killed run, is dropped.
    """
    lines = path.read_bytes().splitlines()
    header = json.loads(lines[0])
    records: dict[int, dict] = {}
    for number, line in enumerate(lines[1:], start=1):
        try:
            doc = json.loads(line)
        except ValueError:
            if number == len(lines) - 1:
                break
            raise
        if doc.get("kind") == "record":
            records[doc["i"]] = doc
    ordered = [records[i] for i in sorted(records)]
    return JournalView(
        path=path,
        target=header["workload"],
        golden_cycles=header["golden_cycles"],
        records=tuple((r["dff"], r["cycle"], r["outcome"]) for r in ordered),
        pruned_by=tuple(r.get("pruned_by") for r in ordered),
        seconds=tuple(
            r["seconds"] for r in ordered
            if r.get("pruned_by") is None and "seconds" in r
        ),
    )


class Reference:
    """Scalar reference simulation of one named target, from cycle 0."""

    def __init__(self, target_name: str) -> None:
        from repro.cpu.avr import synthesize_avr
        from repro.cpu.msp430 import synthesize_msp430
        from repro.fi.targets import avr_target, msp430_target
        from repro.sim.simulator import Simulator

        core, _, program = target_name.partition("-")
        if core == "avr":
            self.target = avr_target(program, Simulator(synthesize_avr()))
        else:
            self.target = msp430_target(program, Simulator(synthesize_msp430()))
        testbench = self.target.make_testbench()
        golden = self.target.simulator.run(
            testbench, max_cycles=50_000, record_trace=True
        )
        if not golden.halted:
            raise RuntimeError(f"reference golden run of {target_name} did not halt")
        self.golden_cycles = golden.cycles
        self.golden = self.target.observables(testbench, golden)

    def outcome(self, dff: str, cycle: int) -> str:
        """Outcome of one SEU, classified as the campaign engine defines it."""
        budget = int(self.golden_cycles * self.target.timeout_factor) + 8
        testbench = self.target.make_testbench()
        result = self.target.simulator.run(
            testbench, max_cycles=budget, record_trace=True, flips={cycle: [dff]}
        )
        if not result.halted:
            return "timeout"
        if self.target.observables(testbench, result) == self.golden:
            return "benign"
        return "sdc"


def sample_indices(view: JournalView, seed: int, size: int = SAMPLE) -> list[int]:
    """Seeded point indices to re-simulate, half of them annotated ones
    when the journal has annotated points."""
    rng = random.Random(seed)
    annotated = [i for i, layer in enumerate(view.pruned_by) if layer is not None]
    injected = [i for i, layer in enumerate(view.pruned_by) if layer is None]
    take_annotated = min(len(annotated), size // 2 if injected else size)
    chosen = rng.sample(annotated, take_annotated)
    chosen += rng.sample(injected, min(len(injected), size - take_annotated))
    return sorted(chosen)


def check_against_reference(
    view: JournalView, seed: int, checks: Checks, size: int = SAMPLE
) -> None:
    """Re-simulate ``size`` seeded journal points with the reference."""
    reference = Reference(view.target)
    checks.check(
        reference.golden_cycles == view.golden_cycles,
        f"golden run: reference {reference.golden_cycles} cycles, "
        f"journal {view.golden_cycles}",
    )
    for index in sample_indices(view, seed, size):
        dff, cycle, outcome = view.records[index]
        expected = reference.outcome(dff, cycle)
        layer = view.pruned_by[index]
        how = f"annotated by {layer}" if layer else "injected"
        checks.check(
            outcome == expected,
            f"point {index} ({dff}, cycle {cycle}, {how}): journal says "
            f"{outcome}, reference says {expected}",
        )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.gate")
    parser.add_argument("journal", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    checks = Checks()
    check_against_reference(read_journal(args.journal), args.seed, checks)
    args.out.write_text(json.dumps(
        {"passed": checks.passed, "failures": checks.failures}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
