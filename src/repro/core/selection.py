"""High-impact MATE selection (paper Sec. 4, step 3 / Sec. 5.3).

Replaying an exemplary trace, MATEs are ranked by a *hit counter*: per
cycle, MATEs are visited from the globally strongest (most masked fault
pairs) downwards, and each MATE is credited for every fault wire it masks
that no stronger MATE already masked in that cycle. The top-N MATEs by hit
counter form the subset synthesized into the HAFI platform.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.core.replay import ReplayResult


def rate_mates(replay: ReplayResult) -> list[int]:
    """Hit counter per MATE (marginal masked pairs under global-rank order)."""
    totals = replay.masked_pairs_per_mate()
    # Global processing order: strongest first; ties broken by index for
    # determinism.
    order = sorted(range(replay.num_mates), key=lambda i: (-totals[i], i))
    rank_of = {mate_index: rank for rank, mate_index in enumerate(order)}

    hits = [0] * replay.num_mates
    for wire in replay.fault_wires:
        covered = 0
        for mate_index in sorted(replay.mates_of_fault.get(wire, ()), key=rank_of.get):
            vector = replay.trigger_vectors[mate_index]
            newly = vector & ~covered
            if newly:
                hits[mate_index] += newly.bit_count()
                covered |= vector
    return hits


def select_top_n(replay: ReplayResult, n: int) -> list[int]:
    """Indices of the top-``n`` MATEs by hit counter (strongest first).

    Only MATEs that actually triggered (hit counter > 0) are returned, so
    the result may be shorter than ``n``.
    """
    hits = rate_mates(replay)
    order = sorted(range(replay.num_mates), key=lambda i: (-hits[i], i))
    return [i for i in order[:n] if hits[i] > 0]


def evaluate_subset(replay: ReplayResult, subset: Sequence[int]) -> float:
    """Masked fault-space fraction achieved by a MATE subset on a trace.

    This is the cross-validation step of Tables 2 and 3: the subset may have
    been selected on a *different* trace's replay; indices must refer to the
    same MATE list used for both replays.
    """
    return replay.masked_fraction(subset)
