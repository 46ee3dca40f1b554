"""Structural netlist validation.

Checks the invariants the rest of the pipeline (simulation, cone analysis,
MATE search) relies on: single drivers, no dangling wires, no combinational
cycles, known cells, complete pin maps.

Since the introduction of :mod:`repro.lint`, the individual checks live as
``validate``-tagged rules in :mod:`repro.lint.rules_netlist`, where they
report *all* problems as structured diagnostics instead of bailing at the
first batch. :func:`validate_netlist` remains the back-compat entry point:
it runs that rule subset and raises :class:`NetlistError` when anything is
found.
"""

from __future__ import annotations

from repro.netlist.netlist import Gate, Netlist


class NetlistError(Exception):
    """Raised when a netlist violates a structural invariant."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = problems
        super().__init__("; ".join(problems))


def validate_netlist(netlist: Netlist, allow_dangling_outputs: bool = True) -> None:
    """Raise :class:`NetlistError` if the netlist is structurally broken.

    ``allow_dangling_outputs`` tolerates gate outputs that nothing reads
    (harmless, and common right after dead-logic elimination keeps observable
    gates only); strict mode escalates the ``net.dead-gate`` lint rule into
    the fatal set.

    For non-fatal reporting — severities, locations, fix hints, the full
    rule catalog — run :func:`repro.lint.run_lint` (or ``python -m
    repro.lint``) instead.
    """
    # Imported lazily: repro.lint imports the netlist data model, so a
    # module-level import here would be circular via repro.netlist.__init__.
    from repro.lint.registry import LintConfig, LintTarget, default_registry

    tags = {"validate"} if allow_dangling_outputs else {"validate", "strict-validate"}
    target = LintTarget.for_netlist(netlist)
    config = LintConfig()
    problems: list[str] = []
    for rule in default_registry(["rules_netlist"]).select(tags=tags):
        problems.extend(d.message for d in rule.check(target, config))
    if problems:
        raise NetlistError(problems)


def check_is_gate(obj: object) -> Gate:
    """Narrowing helper: assert a driver-map entry is a Gate."""
    if not isinstance(obj, Gate):
        raise TypeError(f"expected a Gate driver, got {obj!r}")
    return obj
