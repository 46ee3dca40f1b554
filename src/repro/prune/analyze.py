"""Target-level def-use analysis: golden run, map construction, caching.

`analyze_target` works on any :class:`~repro.fi.campaign.CampaignTarget`;
the ``get_*`` helpers know the named evaluation workloads (``avr-fib``,
``msp430-conv``, …) and cache the resulting :class:`EquivalenceMap` under
the artifact cache keyed by the design's netlist hash, so a collapsed
campaign (``fi run --defuse``) only pays the analysis once per design and
workload. :func:`get_mate_vectors` replays the MATE layer over the same
golden run.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from typing import TYPE_CHECKING

from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.prune.defuse import EquivalenceMap
from repro.trace.trace import Trace

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.fi.campaign import Campaign, CampaignTarget


@dataclass
class DefUseAnalysis:
    """The full analysis context for one (design, workload) pair.

    Carries everything the certificate checker needs (golden trace plus the
    per-cycle testbench read sets) alongside the resulting map.
    """

    target_name: str
    netlist: Netlist
    trace: Trace
    reads: list[frozenset[str]]
    map: EquivalenceMap


def analyze_target(
    target: CampaignTarget,
    max_cycles: int = 50_000,
    netlist_hash: str = "",
) -> DefUseAnalysis:
    """Run the golden workload with read recording and build its map."""
    with span("prune/golden", target=target.name):
        testbench = target.make_testbench()
        result = target.simulator.run(
            testbench,
            max_cycles=max_cycles,
            record_trace=True,
            record_reads=True,
        )
    if not result.halted:
        raise ValueError(
            f"golden run of {target.name} did not halt within {max_cycles} cycles; "
            "def-use analysis needs a halting golden trace"
        )
    assert result.trace is not None and result.reads is not None
    equivalence_map = EquivalenceMap.build(
        target.simulator.netlist,
        result.trace,
        result.reads,
        workload=target.name,
        netlist_hash=netlist_hash,
    )
    return DefUseAnalysis(
        target_name=target.name,
        netlist=target.simulator.netlist,
        trace=result.trace,
        reads=list(result.reads),
        map=equivalence_map,
    )


def _map_cache_path(target_name: str, netlist_hash: str) -> Path:
    from repro.eval import context

    return context.cache_dir() / f"defuse_{target_name}_{netlist_hash}.json"


def _core_of(target_name: str) -> str:
    core, _, program = target_name.partition("-")
    if not program:
        raise ValueError(f"not a named core-program target: {target_name!r}")
    return core


@lru_cache(maxsize=None)
def get_analysis(target_name: str) -> DefUseAnalysis:
    """Full def-use analysis for a named fi target (memoized in-process).

    Also refreshes the on-disk map cache so later map-only consumers skip
    the golden run entirely.
    """
    from repro.eval import context
    from repro.fi.targets import named_target

    netlist_hash = context.netlist_hash(_core_of(target_name))
    analysis = analyze_target(
        named_target(target_name), netlist_hash=netlist_hash
    )
    path = _map_cache_path(target_name, netlist_hash)
    path.parent.mkdir(parents=True, exist_ok=True)
    analysis.map.save(path)
    return analysis


def get_equivalence_map(target_name: str) -> EquivalenceMap:
    """The map for a named fi target, from the disk cache when possible."""
    from repro.eval import context

    netlist_hash = context.netlist_hash(_core_of(target_name))
    path = _map_cache_path(target_name, netlist_hash)
    if path.is_file():
        try:
            cached = EquivalenceMap.load(path)
        except (ValueError, KeyError, OSError):
            path.unlink(missing_ok=True)  # corrupt/stale cache: recompute
        else:
            if cached.netlist_hash == netlist_hash:
                counter("prune.map_cache.hits").inc()
                return cached
    counter("prune.map_cache.misses").inc()
    return get_analysis(target_name).map


def get_mate_vectors(target_name: str) -> dict[str, int]:
    """MATE-benign cycle vectors of a named target's halting golden run.

    Replays the core's MATEs (all flip-flops) over the golden trace of
    :func:`get_analysis`, so every vector covers exactly the campaign's
    fault space, with no bit past its last cycle.
    """
    from repro.core.replay import replay_mates
    from repro.eval import context

    core = _core_of(target_name)
    replay = replay_mates(
        context.get_mates(core, exclude_register_file=False),
        get_analysis(target_name).trace,
        context.get_fault_wires(core, exclude_register_file=False),
    )
    return {wire: replay.masked_vector(wire) for wire in replay.fault_wires}


class PruneAudit:
    """Everything the ``prune.*`` lint rules need for one named target.

    Bundles the analysis context with a lazily-built ground-truth
    :class:`~repro.fi.campaign.Campaign` (only constructed when a rule
    actually needs to refute claims by simulation).
    """

    def __init__(self, analysis: DefUseAnalysis) -> None:
        self.analysis = analysis
        self._campaign: Campaign | None = None

    @property
    def target_name(self) -> str:
        return self.analysis.target_name

    @property
    def map(self) -> EquivalenceMap:
        return self.analysis.map

    def campaign(self) -> Campaign:
        """Ground-truth injection campaign for this target (built once)."""
        if self._campaign is None:
            from repro.fi.campaign import Campaign
            from repro.fi.targets import named_target

            self._campaign = Campaign(named_target(self.target_name))
        return self._campaign


@lru_cache(maxsize=None)
def get_prune_audit(target_name: str) -> PruneAudit:
    """Audit bundle for a named fi target (memoized in-process)."""
    return PruneAudit(get_analysis(target_name))
