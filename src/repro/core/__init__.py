"""The paper's contribution: fault-masking terms (MATEs).

Pipeline:

1. :mod:`repro.core.cone` — fault cone of each possibly-faulty wire;
2. :mod:`repro.core.paths` — propagation-path enumeration with gate-masking
   killer terms (depth-bounded, killer-set deduplicated);
3. :mod:`repro.core.search` — MATE candidate generation and checking;
4. :mod:`repro.core.replay` — vectorized per-cycle MATE evaluation on traces;
5. :mod:`repro.core.selection` — hit-counter rating and top-N subsetting;
6. :mod:`repro.core.verify` — exact (cone-duplication) ground truth;
7. :mod:`repro.core.faultspace` — flip-flop × cycle fault-space accounting.
"""

from repro.util.lazy import lazy_exports

# Submodules load on first use: the injection path imports
# ``repro.core.faultspace`` and must not pay for the MATE search.
__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "cone": ("FaultCone", "compute_fault_cone"),
        "faultspace": ("FaultSpace",),
        "implication": ("ImplicationEngine", "forcing_ancestors"),
        "mate": ("Mate", "MateSet"),
        "multibit": ("adjacent_register_pairs", "find_pair_mates"),
        "multicycle": ("masked_within_k_cycles", "multicycle_headroom"),
        "paths": ("PathEnumeration", "enumerate_paths"),
        "replay": ("ReplayResult", "replay_mates"),
        "search": (
            "SearchParameters",
            "SearchResult",
            "WireSearchResult",
            "faulty_wires_for_dffs",
            "find_mates",
        ),
        "selection": ("rate_mates", "select_top_n"),
        "verify": ("masked_within_one_cycle", "verify_mate_on_trace"),
    },
)

__all__ = [
    "FaultCone",
    "FaultSpace",
    "ImplicationEngine",
    "Mate",
    "MateSet",
    "PathEnumeration",
    "ReplayResult",
    "SearchParameters",
    "SearchResult",
    "WireSearchResult",
    "adjacent_register_pairs",
    "compute_fault_cone",
    "enumerate_paths",
    "faulty_wires_for_dffs",
    "find_mates",
    "find_pair_mates",
    "forcing_ancestors",
    "masked_within_k_cycles",
    "masked_within_one_cycle",
    "multicycle_headroom",
    "rate_mates",
    "replay_mates",
    "select_top_n",
    "verify_mate_on_trace",
]
