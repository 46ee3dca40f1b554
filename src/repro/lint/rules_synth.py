"""Formal-engine-backed cross-layer rules.

Both rules here lean on the :mod:`repro.formal` SAT engine:

- ``synth.not-equivalent`` re-synthesizes the RTL with every bit-graph
  optimization disabled and proves the optimized netlist combinationally
  equivalent to that reference — a miscompiled optimizer rewrite is
  reported with a concrete distinguishing input/state assignment.
- ``mate.missed-coverage`` takes the fault wires the MATE search gave up
  on (``no_mate``) and decides *exactly* whether any single-cycle masking
  condition over the cone border exists; a maskable wire means the search
  missed coverage the hardware could in principle have.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig, LintTarget, registered_rule, rule


@rule(
    id="synth.not-equivalent",
    layer="synth",
    severity=Severity.ERROR,
    summary="optimized netlist is not equivalent to the unoptimized RTL",
    requires=("circuit", "netlist"),
)
def check_synth_equivalence(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    circuit = target.circuit
    netlist = target.netlist
    assert circuit is not None and netlist is not None
    from repro.synth import verify_synthesis

    rule_def = registered_rule("synth.not-equivalent")
    try:
        result = verify_synthesis(circuit, netlist)
    except ValueError as error:
        yield rule_def.diagnostic(
            f"{netlist.name}:interface",
            f"equivalence check impossible: {error}",
            hint="the netlist port/state interface diverged from the RTL",
        )
        return
    if result.equivalent:
        return
    yield rule_def.diagnostic(
        f"{netlist.name}:{','.join(result.failing_endpoints[:3]) or '?'}",
        f"optimizer miscompile: {result.describe()}",
        hint="the optimized and unoptimized netlists compute different "
        "functions; the distinguishing assignment reproduces it",
    )


@rule(
    id="mate.missed-coverage",
    layer="mate",
    severity=Severity.INFO,
    summary="search found no MATE but a masking condition provably exists",
    requires=("netlist", "unmatched"),
)
def check_missed_coverage(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    from repro.core.coverage import exact_maskability

    rule_def = registered_rule("mate.missed-coverage")
    for wire in target.unmatched:
        verdict = exact_maskability(
            netlist, wire, max_conflicts=config.coverage_max_conflicts
        )
        if not verdict.is_maskable:
            continue
        yield rule_def.diagnostic(
            f"{target.name}:coverage@{wire}",
            f"fault wire {wire} is maskable but uncovered: "
            f"{verdict.describe(config.counterexample_wires)}",
            hint="the greedy candidate generation missed a valid trigger "
            "term; the witness is one",
        )

