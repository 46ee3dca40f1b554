"""Audit rules for the def-use pruning layer (``prune.*``).

The static-MATE playbook, applied to `repro.prune`: the happy path costs
zero injection simulations (`prune.cert-invalid` re-derives sampled
certificates with the independent scalar checker), and the ground-truth
rules (`prune.dead-refuted`, `prune.equiv-refuted`) spend a *sampled*
injection budget to try to refute the analysis outright — every refutation
comes back as a concrete counterexample naming the flip-flop, cycle, and
observed outcome.

All rules require the ``prune`` facet — a :class:`repro.prune.PruneAudit`
attached via ``LintTarget.for_prune`` (CLI: ``repro.lint <core>
--audit-prune``).
"""

from __future__ import annotations

import random
from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig, LintTarget, registered_rule, rule



def _sample(population: list, count: int, rng: random.Random) -> list:
    if len(population) <= count:
        return list(population)
    return rng.sample(population, count)


@rule(
    id="prune.cert-invalid",
    layer="prune",
    severity=Severity.ERROR,
    summary="def-use interval certificate fails independent re-derivation",
    requires=("prune",),
    tags=("prune", "audit"),
)
def check_certificates(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    """Re-check sampled certificates with the scalar full-netlist checker.

    Zero injection simulations: every sampled claim's structure is
    validated and a handful of its cycles (always including both ends) are
    re-derived from first principles.
    """
    from repro.prune import verify_claim

    rule_def = registered_rule("prune.cert-invalid")
    audit = target.prune
    analysis = audit.analysis
    rng = random.Random(config.prune_seed)
    claims = _sample(list(audit.map.claims()), config.prune_cert_samples, rng)
    for claim in claims:
        cycles = {claim.start, claim.end}
        while (
            len(cycles) < min(claim.num_points, config.prune_cert_cycles)
        ):
            cycles.add(rng.randint(claim.start, claim.end))
        problems = verify_claim(
            analysis.netlist,
            analysis.trace,
            analysis.reads,
            claim,
            cycles=sorted(cycles),
        )
        for problem in problems:
            yield rule_def.diagnostic(
                location=f"{target.name}:{claim.dff}",
                message=problem,
                hint="the vectorized analysis and the scalar checker "
                "disagree — rerun with a fresh equivalence map before "
                "trusting either",
            )


@rule(
    id="prune.dead-refuted",
    layer="prune",
    severity=Severity.ERROR,
    summary="a statically-benign (dead) interval point is not benign",
    requires=("prune",),
    tags=("prune", "audit", "ground-truth"),
)
def check_dead_intervals(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    """Ground-truth injections at sampled points of dead intervals."""
    from repro.fi.classify import Outcome
    from repro.prune.defuse import KIND_DEAD

    rule_def = registered_rule("prune.dead-refuted")
    audit = target.prune
    rng = random.Random(config.prune_seed + 1)
    dead = [claim for claim in audit.map.claims() if claim.kind == KIND_DEAD]
    for claim in _sample(dead, config.prune_samples, rng):
        cycle = rng.randint(claim.start, claim.end)
        outcome = audit.campaign().inject(claim.dff, cycle)
        if outcome is not Outcome.BENIGN:
            yield rule_def.diagnostic(
                location=f"{target.name}:{claim.dff}@{cycle}",
                message=(
                    f"{claim.describe()} claims every point benign, but "
                    f"injecting ({claim.dff}, {cycle}) yields "
                    f"{outcome.value}"
                ),
                hint="counterexample to the kill-reconvergence argument — "
                "the analysis missed an escape path for this bit",
            )


@rule(
    id="prune.equiv-refuted",
    layer="prune",
    severity=Severity.ERROR,
    summary="an interval member's outcome differs from its representative",
    requires=("prune",),
    tags=("prune", "audit", "ground-truth"),
)
def check_equivalence_intervals(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    """Ground-truth pairs: representative vs. random member per interval."""
    from repro.prune.defuse import KIND_DEAD

    rule_def = registered_rule("prune.equiv-refuted")
    audit = target.prune
    rng = random.Random(config.prune_seed + 2)
    multi = [
        claim
        for claim in audit.map.claims()
        if claim.kind != KIND_DEAD and claim.num_points >= 2
    ]
    for claim in _sample(multi, config.prune_samples, rng):
        rep = claim.representative
        member = rng.randint(claim.start, claim.end - 1)
        rep_outcome = audit.campaign().inject(claim.dff, rep)
        member_outcome = audit.campaign().inject(claim.dff, member)
        if rep_outcome is not member_outcome:
            yield rule_def.diagnostic(
                location=f"{target.name}:{claim.dff}@{member}",
                message=(
                    f"{claim.describe()} claims ({claim.dff}, {member}) "
                    f"equivalent to its representative cycle {rep}, but "
                    f"ground truth yields {member_outcome.value} vs "
                    f"{rep_outcome.value}"
                ),
                hint="counterexample to the hold-chain argument — the "
                "flipped bit must have escaped between these cycles",
            )
