"""Static def-use fault-space collapsing (the architecture-level layer).

The MATE layer (``repro.core``) prunes the (flip-flop × cycle) fault space
at the *gate* level: a cycle whose masking condition holds cannot propagate.
This package adds the *cross-layer* counterpart: a static def-use analysis
over the golden trace that classifies every injection point by what happens
to the flipped bit in its own cycle — it either **escapes** (reaches another
flip-flop, a primary output, or a testbench read), **holds** (survives as
the same single-bit flip into the next cycle), or is **killed** (overwritten
with the golden value). Hold-runs partition each wire's cycle axis into
equivalence intervals: a run ending in a kill is provably benign (*dead*),
a run ending in an escape needs exactly one representative injection
(*live*), and a run reaching the end of the trace keeps one representative
as well (*tail* — equivalent, but not claimed benign because the final
state differs in the flipped bit).

Every claim ships as a machine-checkable :class:`IntervalClaim` certificate
that :mod:`repro.prune.certificate` re-derives with an independent scalar
full-netlist evaluation — zero injection simulations on the happy path.

:mod:`repro.prune.dataflow` adds the trace-*independent* third layer: a
binary-level CFG + backward-liveness fixpoint proving registers dead over
**all** paths, with :class:`StaticClaim` certificates re-derived by an
independent per-path checker and intersected with the golden trace's
PC-per-cycle sampling into a :class:`StaticPruneMap`.
"""

from repro.prune.access import EVENT_ESCAPE, EVENT_HOLD, EVENT_KILL, wire_events
from repro.prune.accounting import PruneAccounting, account, build_layered_space
from repro.prune.analyze import (
    DefUseAnalysis,
    PruneAudit,
    analyze_target,
    get_analysis,
    get_equivalence_map,
    get_mate_vectors,
    get_prune_audit,
)
from repro.prune.certificate import classify_cycle, verify_claim
from repro.prune.dataflow import (
    DataflowAnalysis,
    DataflowAudit,
    ProgramCFG,
    StaticClaim,
    StaticPruneMap,
    analyze_dataflow,
    collapse_static,
    dead_facts,
    decode_program,
    get_dataflow_analysis,
    get_dataflow_audit,
    get_static_map,
    verify_static_claim,
)
from repro.prune.defuse import (
    CollapsePlan,
    EquivalenceMap,
    IntervalClaim,
    WireClasses,
    partition_events,
)

__all__ = [
    "EVENT_ESCAPE",
    "EVENT_HOLD",
    "EVENT_KILL",
    "CollapsePlan",
    "DataflowAnalysis",
    "DataflowAudit",
    "DefUseAnalysis",
    "EquivalenceMap",
    "IntervalClaim",
    "ProgramCFG",
    "PruneAccounting",
    "PruneAudit",
    "StaticClaim",
    "StaticPruneMap",
    "WireClasses",
    "account",
    "analyze_dataflow",
    "analyze_target",
    "build_layered_space",
    "classify_cycle",
    "collapse_static",
    "dead_facts",
    "decode_program",
    "get_analysis",
    "get_dataflow_analysis",
    "get_dataflow_audit",
    "get_equivalence_map",
    "get_mate_vectors",
    "get_prune_audit",
    "get_static_map",
    "partition_events",
    "verify_static_claim",
    "wire_events",
]
