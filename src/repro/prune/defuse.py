"""Equivalence intervals, certificates, and the `EquivalenceMap`.

The per-cycle event string of :mod:`repro.prune.access` partitions each
wire's cycle axis left-to-right: every maximal run of ``'h'`` (hold) cycles
terminated by a ``'k'`` (kill) is a **dead** interval — all its injection
points reconverge with the golden run and are provably benign; every run
terminated by an ``'e'`` (escape) is a **live** interval — all its points
are bit-for-bit equivalent, decided by one representative injection at the
escape cycle; a run that reaches the end of the trace is a **tail**
interval — equivalent among themselves (one representative), but *not*
claimed benign, because the final state still differs in the flipped bit.

Each interval is an :class:`IntervalClaim`: a self-contained, machine-
checkable certificate (the claim plus its per-cycle event evidence) that
:mod:`repro.prune.certificate` re-derives independently.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.prune.access import EVENT_ESCAPE, EVENT_HOLD, EventClassifier
from repro.trace.trace import Trace

#: Interval kinds.
KIND_DEAD = "dead"
KIND_LIVE = "live"
KIND_TAIL = "tail"

#: Serialized EquivalenceMap format version.
MAP_VERSION = 1


@dataclass(frozen=True)
class IntervalClaim:
    """One certified equivalence interval for one flip-flop.

    The cycle range is inclusive: injections at every cycle in
    ``[start, end]`` are claimed pairwise equivalent; for ``dead`` intervals
    they are additionally claimed benign. ``events`` is the evidence — the
    per-cycle access codes for exactly this range.
    """

    dff: str
    wire: str
    start: int
    end: int
    kind: str
    events: str

    @property
    def representative(self) -> int | None:
        """The one injection cycle that decides the interval (None if dead)."""
        return None if self.kind == KIND_DEAD else self.end

    @property
    def num_points(self) -> int:
        """Injection points covered by this interval."""
        return self.end - self.start + 1

    def covers(self, cycle: int) -> bool:
        """True if ``cycle`` falls inside this interval."""
        return self.start <= cycle <= self.end

    def to_dict(self) -> dict[str, object]:
        """JSON-ready certificate document."""
        return {
            "dff": self.dff,
            "wire": self.wire,
            "start": self.start,
            "end": self.end,
            "kind": self.kind,
            "events": self.events,
        }

    def describe(self) -> str:
        """One-line human-readable form, e.g. ``pc_b3[10..17] dead``."""
        return f"{self.dff}[{self.start}..{self.end}] {self.kind}"


def partition_events(dff: str, wire: str, events: str) -> list[IntervalClaim]:
    """Split one wire's event string into its equivalence intervals."""
    intervals: list[IntervalClaim] = []
    start = 0
    for cycle, event in enumerate(events):
        if event == EVENT_HOLD:
            continue
        kind = KIND_LIVE if event == EVENT_ESCAPE else KIND_DEAD
        intervals.append(
            IntervalClaim(dff, wire, start, cycle, kind, events[start : cycle + 1])
        )
        start = cycle + 1
    if start < len(events):
        intervals.append(
            IntervalClaim(dff, wire, start, len(events) - 1, KIND_TAIL, events[start:])
        )
    return intervals


class WireClasses:
    """All equivalence intervals of one flip-flop's cycle axis."""

    def __init__(self, dff: str, wire: str, events: str) -> None:
        self.dff = dff
        self.wire = wire
        self.events = events
        self.intervals = partition_events(dff, wire, events)
        self._starts = [interval.start for interval in self.intervals]

    @property
    def num_cycles(self) -> int:
        return len(self.events)

    def interval_of(self, cycle: int) -> IntervalClaim:
        """The interval containing ``cycle``."""
        if not 0 <= cycle < len(self.events):
            raise IndexError(
                f"cycle {cycle} outside [0, {len(self.events)}) for {self.dff}"
            )
        return self.intervals[bisect_right(self._starts, cycle) - 1]

    def pruned_vector(self, include_followers: bool = True) -> np.ndarray:
        """Boolean per-cycle vector of points needing no simulation.

        Dead cycles always count; with ``include_followers`` the non-
        representative members of live/tail intervals count too.
        """
        vec = np.zeros(len(self.events), dtype=bool)
        for interval in self.intervals:
            if interval.kind == KIND_DEAD:
                vec[interval.start : interval.end + 1] = True
            elif include_followers:
                vec[interval.start : interval.end + 1] = True
                vec[interval.representative] = False
        return vec


@dataclass
class CollapsePlan:
    """A concrete point list collapsed onto interval representatives.

    Index semantics follow the input list: ``dead`` holds indices proven
    benign without simulation, ``follows`` maps each follower index to the
    index whose outcome it inherits (the first listed member of its
    interval), and ``executed`` holds the indices actually injected.
    ``sources`` records, per annotated index, which layer proved it when it
    differs from the plan-wide default (the static layer tags its dead
    points ``"static"`` so journal provenance survives layer composition).
    """

    points: list[tuple[str, int]]
    dead: list[int] = field(default_factory=list)
    follows: dict[int, int] = field(default_factory=dict)
    executed: list[int] = field(default_factory=list)
    claims: dict[int, IntervalClaim] = field(default_factory=dict)
    sources: dict[int, str] = field(default_factory=dict)

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def num_injected(self) -> int:
        return len(self.executed)

    @property
    def num_annotated(self) -> int:
        return len(self.dead) + len(self.follows)

    def summary(self) -> str:
        return (
            f"{self.num_points} point(s): {self.num_injected} injected, "
            f"{len(self.dead)} proven benign without injection, "
            f"{len(self.follows)} follow a representative"
        )

    def annotation_plan(self, source: str = "defuse"):
        """The runner-facing :class:`~repro.fi.runner.AnnotationPlan`."""
        from repro.fi.runner import AnnotationPlan

        return AnnotationPlan(
            dead=tuple(self.dead),
            follows=dict(self.follows),
            source=source,
            sources=dict(self.sources),
        )


class EquivalenceMap:
    """Def-use equivalence classes for a whole design/workload pair."""

    def __init__(
        self,
        design: str,
        workload: str,
        netlist_hash: str,
        golden_cycles: int,
        wires: dict[str, WireClasses],
    ) -> None:
        self.design = design
        self.workload = workload
        self.netlist_hash = netlist_hash
        self.golden_cycles = golden_cycles
        self.wires = wires

    # -- construction ---------------------------------------------------
    @classmethod
    def build(
        cls,
        netlist: Netlist,
        trace: Trace,
        reads: Sequence[frozenset[str]] | None,
        workload: str = "",
        netlist_hash: str = "",
    ) -> EquivalenceMap:
        """Analyze every flip-flop of ``netlist`` over the golden ``trace``."""
        wires: dict[str, WireClasses] = {}
        with span(
            "prune/analyze", netlist=netlist.name, cycles=trace.num_cycles
        ):
            classifier = EventClassifier(netlist, trace, reads)
            for dff_name, dff in netlist.dffs.items():
                events = classifier.events(dff_name)
                wires[dff_name] = WireClasses(dff_name, dff.q, events)
        counter("prune.maps.built").inc()
        counter("prune.wires.analyzed").inc(len(wires))
        return cls(netlist.name, workload, netlist_hash, trace.num_cycles, wires)

    # -- queries --------------------------------------------------------
    def interval_of(self, dff: str, cycle: int) -> IntervalClaim:
        """The certified interval containing (dff, cycle)."""
        return self.wires[dff].interval_of(cycle)

    def claims(self):
        """Iterate every interval certificate in the map."""
        for classes in self.wires.values():
            yield from classes.intervals

    @property
    def num_points(self) -> int:
        """Total (flip-flop × cycle) points covered."""
        return len(self.wires) * self.golden_cycles

    @property
    def num_dead_points(self) -> int:
        """Points inside dead intervals (statically benign)."""
        return sum(
            claim.num_points for claim in self.claims() if claim.kind == KIND_DEAD
        )

    @property
    def num_representatives(self) -> int:
        """Live + tail intervals — the injections a collapsed campaign runs."""
        return sum(1 for claim in self.claims() if claim.kind != KIND_DEAD)

    @property
    def num_follower_points(self) -> int:
        """Non-representative members of live/tail intervals."""
        return sum(
            claim.num_points - 1 for claim in self.claims() if claim.kind != KIND_DEAD
        )

    @property
    def num_pruned_points(self) -> int:
        """Points needing no simulation: dead plus followers."""
        return self.num_dead_points + self.num_follower_points

    def pruned_vector(self, dff: str, include_followers: bool = True) -> np.ndarray:
        """Per-cycle no-simulation-needed vector for one flip-flop."""
        return self.wires[dff].pruned_vector(include_followers)

    # -- campaign collapsing --------------------------------------------
    def collapse(
        self,
        points: Sequence[tuple[str, int]],
        static_map=None,
    ) -> CollapsePlan:
        """Collapse a concrete (dff, cycle) point list onto representatives.

        The representative of each interval is the *first occurrence in the
        list* of any of its members (so the injected point is always one the
        caller asked for, and duplicate points fold onto the first copy).

        With a :class:`~repro.prune.dataflow.StaticPruneMap`, statically-dead
        points are claimed benign first and tagged ``sources="static"`` —
        checked *before* the def-use interval because static-dead is
        contained in dynamic-dead on the golden trace, so the dynamic check
        would otherwise absorb every static win. Static-dead members never
        become interval representatives; election happens among the rest.
        """
        plan = CollapsePlan(points=[(dff, int(cycle)) for dff, cycle in points])
        first_seen: dict[tuple[str, int], int] = {}
        for index, (dff, cycle) in enumerate(plan.points):
            if static_map is not None and static_map.is_dead(dff, cycle):
                plan.dead.append(index)
                plan.sources[index] = "static"
                continue
            claim = self.interval_of(dff, cycle)
            plan.claims[index] = claim
            if claim.kind == KIND_DEAD:
                plan.dead.append(index)
                continue
            key = (dff, claim.start)
            rep_index = first_seen.get(key)
            if rep_index is None:
                first_seen[key] = index
                plan.executed.append(index)
            else:
                plan.follows[index] = rep_index
        return plan

    # -- serialization --------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        return {
            "version": MAP_VERSION,
            "design": self.design,
            "workload": self.workload,
            "netlist_hash": self.netlist_hash,
            "golden_cycles": self.golden_cycles,
            "wires": {
                name: {"wire": classes.wire, "events": classes.events}
                for name, classes in self.wires.items()
            },
        }

    @classmethod
    def from_dict(cls, doc: dict[str, object]) -> EquivalenceMap:
        version = doc.get("version")
        if version != MAP_VERSION:
            raise ValueError(f"unsupported EquivalenceMap version {version!r}")
        wires = {
            name: WireClasses(name, entry["wire"], entry["events"])
            for name, entry in doc["wires"].items()  # type: ignore[union-attr]
        }
        return cls(
            str(doc["design"]),
            str(doc["workload"]),
            str(doc["netlist_hash"]),
            int(doc["golden_cycles"]),  # type: ignore[arg-type]
            wires,
        )

    def save(self, path: Path) -> None:
        """Write the map (with all certificates) as JSON."""
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")

    @classmethod
    def load(cls, path: Path) -> EquivalenceMap:
        return cls.from_dict(json.loads(path.read_text(encoding="utf-8")))

    def __repr__(self) -> str:
        return (
            f"EquivalenceMap({self.design}/{self.workload}: "
            f"{len(self.wires)} wires x {self.golden_cycles} cycles, "
            f"{self.num_dead_points} dead + {self.num_follower_points} followers "
            f"of {self.num_points})"
        )
