"""Audit rules for the static dataflow pruning layer (``dataflow.*``).

The same playbook as ``prune.*``, one abstraction level up: the happy path
costs zero simulations (`dataflow.claim-invalid` re-derives *every*
:class:`repro.prune.StaticClaim` with the independent per-path CFG
checker), and `dataflow.dead-refuted` spends a sampled injection budget to
refute the layer outright — each sampled statically-dead (DFF, cycle)
point is actually injected and must come back benign.

All rules require the ``dataflow`` facet — a
:class:`repro.prune.DataflowAudit` attached via ``LintTarget.for_dataflow``
(CLI: ``repro.lint <core> --audit-dataflow``).
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig, LintTarget, registered_rule, rule
from repro.util.bits import set_bits



def _sample(population: list, count: int, rng: random.Random) -> list:
    if len(population) <= count:
        return list(population)
    return rng.sample(population, count)


@rule(
    id="dataflow.claim-invalid",
    layer="dataflow",
    severity=Severity.ERROR,
    summary="static liveness certificate fails independent re-derivation",
    requires=("dataflow",),
    tags=("dataflow", "audit"),
)
def check_static_claims(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    """Re-derive every static claim with the per-path CFG checker.

    Zero simulations: the checker walks all paths from the claimed point
    demanding a claimed-writer kill before any read, terminal, or
    kill-free loop — sharing no machinery with the worklist solver that
    produced the claim. Every claim is checked (the program CFGs are tiny
    next to a trace).
    """
    from repro.prune import verify_static_claim

    rule_def = registered_rule("dataflow.claim-invalid")
    audit = target.dataflow
    cfg = audit.cfg
    for claim in audit.map.claims:
        for problem in verify_static_claim(cfg, claim):
            yield rule_def.diagnostic(
                location=f"{target.name}:r{claim.register}@{claim.point:#x}",
                message=problem,
                hint="the liveness fixpoint and the per-path checker "
                "disagree — distrust the static layer until the decoder "
                "and CFG edges are reconciled",
            )


@rule(
    id="dataflow.dead-refuted",
    layer="dataflow",
    severity=Severity.ERROR,
    summary="a statically-dead (DFF, cycle) point is not benign",
    requires=("dataflow",),
    tags=("dataflow", "audit", "ground-truth"),
)
def check_static_dead_points(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    """Ground-truth injections at sampled statically-dead points.

    Samples (register, cycle) cells from the anchored dead map, expands
    each to a random bit of that register's flip-flops, injects for real,
    and demands a benign outcome — a single non-benign result refutes the
    whole static argument for that claim.
    """
    from repro.fi.classify import Outcome

    rule_def = registered_rule("dataflow.dead-refuted")
    audit = target.dataflow
    static_map = audit.map
    rng = random.Random(config.dataflow_seed)
    cells = [
        (register, cycle)
        for register in static_map.registers()
        for cycle in set_bits(static_map.dead_cycles(register))
    ]
    for register, cycle in _sample(cells, config.dataflow_samples, rng):
        bit = rng.randrange(static_map.register_width)
        dff = f"rf_r{register}_b{bit}"
        outcome = audit.campaign().inject(dff, cycle)
        if outcome is not Outcome.BENIGN:
            claim = static_map.claim_at(dff, cycle)
            described = claim.describe() if claim else f"r{register}"
            yield rule_def.diagnostic(
                location=f"{target.name}:{dff}@{cycle}",
                message=(
                    f"static claim {described} proves every path kills "
                    f"r{register} before a read, but injecting "
                    f"({dff}, {cycle}) yields {outcome.value}"
                ),
                hint="counterexample to the all-paths-kill argument — a "
                "read, edge, or anchor the decoder missed lets this bit "
                "escape",
            )
