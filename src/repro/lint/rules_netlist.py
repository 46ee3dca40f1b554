"""Netlist-layer lint rules.

These absorb the fatal checks of :mod:`repro.netlist.validate` as non-fatal
diagnostics (the legacy ``validate_netlist`` now runs the ``validate``-tagged
subset and raises on error findings) and add structural-quality rules the
pipeline previously had no home for: combinational loops with the cycle path
printed, dead gates, constant or never-read flip-flops, logic unreachable
from any input, and cells with no masking capability at all.

All analyses here are *tolerant*: they must produce diagnostics for broken
netlists (double-driven wires, cycles) that would make the strict graph
queries of :class:`~repro.netlist.netlist.Netlist` raise.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.cells.masking import gate_masking_terms
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig, LintTarget, registered_rule, rule
from repro.netlist.netlist import CONST_WIRES, Gate, Netlist

# ----------------------------------------------------------------------
# tolerant graph analyses (never raise on broken netlists)
# ----------------------------------------------------------------------


def _driver_labels(netlist: Netlist) -> dict[str, list[str]]:
    """Map wire -> descriptions of everything driving it (may be several)."""
    drivers: dict[str, list[str]] = {wire: ["const"] for wire in CONST_WIRES}
    for wire in netlist.inputs:
        drivers.setdefault(wire, []).append("primary input")
    for gate in netlist.gates.values():
        drivers.setdefault(gate.output, []).append(f"gate {gate.name}")
    for dff in netlist.dffs.values():
        drivers.setdefault(dff.q, []).append(f"DFF {dff.name}")
    return drivers


def _tolerant_topo(netlist: Netlist) -> tuple[list[Gate], list[str]]:
    """Kahn's algorithm that reports stuck gates instead of raising.

    Returns ``(placed gates in topological order, names of unplaced
    gates)``; unplaced gates sit on or behind a combinational cycle.
    """
    produced_by: dict[str, Gate] = {}
    for gate in netlist.gates.values():
        # On double-driven wires the last gate wins here; the multi-driver
        # rule reports the conflict itself.
        produced_by[gate.output] = gate
    readers: dict[str, list[Gate]] = {}
    indegree: dict[str, int] = {}
    for gate in netlist.gates.values():
        count = 0
        for wire in gate.inputs.values():
            if wire in produced_by:
                count += 1
                readers.setdefault(wire, []).append(gate)
        indegree[gate.name] = count
    ready = [g for g in netlist.gates.values() if indegree[g.name] == 0]
    order: list[Gate] = []
    while ready:
        gate = ready.pop()
        order.append(gate)
        for reader in readers.get(gate.output, ()):
            indegree[reader.name] -= 1
            if indegree[reader.name] == 0:
                ready.append(reader)
    stuck = sorted(name for name, deg in indegree.items() if deg > 0)
    return order, stuck


def _find_cycle(netlist: Netlist, stuck: list[str]) -> list[Gate]:
    """One concrete combinational cycle among the stuck gates.

    Walks gate -> (a predecessor that is itself stuck) until a gate repeats;
    the walk must close a cycle because every stuck gate has at least one
    stuck predecessor.
    """
    stuck_set = set(stuck)
    produced_by = {
        gate.output: gate
        for gate in netlist.gates.values()
        if gate.name in stuck_set
    }
    current = netlist.gates[stuck[0]]
    seen: dict[str, int] = {}
    path: list[Gate] = []
    while current.name not in seen:
        seen[current.name] = len(path)
        path.append(current)
        for wire in current.inputs.values():
            predecessor = produced_by.get(wire)
            if predecessor is not None:
                current = predecessor
                break
        else:  # pragma: no cover - stuck gates always have a stuck parent
            return path
    cycle = path[seen[current.name]:]
    cycle.reverse()  # walk went backwards through drivers
    return cycle


def _reachable_wires(netlist: Netlist) -> set[str]:
    """Forward closure from all cycle sources (inputs, DFF Qs, constants)."""
    reachable = set(netlist.sources())
    changed = True
    gates = list(netlist.gates.values())
    while changed:
        changed = False
        remaining = []
        for gate in gates:
            if all(wire in reachable for wire in gate.inputs.values()):
                reachable.add(gate.output)
                changed = True
            else:
                remaining.append(gate)
        gates = remaining
    return reachable


def _loc(netlist: Netlist, where: str) -> str:
    return f"{netlist.name}:{where}"


# ----------------------------------------------------------------------
# structural rules (the legacy validate_netlist set, tag "validate")
# ----------------------------------------------------------------------


@rule(
    id="net.unknown-cell",
    layer="netlist",
    severity=Severity.ERROR,
    summary="gate instantiates a cell the library does not define",
    requires=("netlist",),
    tags=("validate",),
)
def check_unknown_cell(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.unknown-cell")
    for gate in netlist.gates.values():
        if gate.cell not in netlist.library:
            yield rule_def.diagnostic(
                _loc(netlist, f"gate {gate.name}"),
                f"gate {gate.name}: unknown cell {gate.cell}",
                hint=f"add {gate.cell} to library {netlist.library.name} or remap",
            )


@rule(
    id="net.pin-mismatch",
    layer="netlist",
    severity=Severity.ERROR,
    summary="gate pin map misses required pins or names unknown pins",
    requires=("netlist",),
    tags=("validate",),
)
def check_pin_mismatch(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.pin-mismatch")
    for gate in netlist.gates.values():
        if gate.cell not in netlist.library:
            continue  # reported by net.unknown-cell
        cell = netlist.library[gate.cell]
        missing = sorted(set(cell.inputs) - set(gate.inputs))
        extra = sorted(set(gate.inputs) - set(cell.inputs))
        if missing:
            yield rule_def.diagnostic(
                _loc(netlist, f"gate {gate.name}"),
                f"gate {gate.name} ({gate.cell}): unconnected pins {missing}",
                hint=f"cell {gate.cell} requires pins {list(cell.inputs)}",
            )
        if extra:
            yield rule_def.diagnostic(
                _loc(netlist, f"gate {gate.name}"),
                f"gate {gate.name} ({gate.cell}): unknown pins {extra} "
                f"not in cell definition",
                hint=f"cell {gate.cell} defines pins {list(cell.inputs)}",
            )


@rule(
    id="net.multi-driven",
    layer="netlist",
    severity=Severity.ERROR,
    summary="wire driven by more than one gate/DFF/input",
    requires=("netlist",),
    tags=("validate",),
)
def check_multi_driven(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.multi-driven")
    for wire, labels in sorted(_driver_labels(netlist).items()):
        if len(labels) > 1:
            yield rule_def.diagnostic(
                _loc(netlist, f"wire {wire}"),
                f"wire {wire} driven more than once by {', '.join(labels)}",
                hint="every wire must have exactly one driver",
            )


@rule(
    id="net.undriven",
    layer="netlist",
    severity=Severity.ERROR,
    summary="a read wire (gate pin, DFF D, primary output) has no driver",
    requires=("netlist",),
    tags=("validate",),
)
def check_undriven(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.undriven")
    driven = set(_driver_labels(netlist))
    for gate in netlist.gates.values():
        for pin, wire in sorted(gate.inputs.items()):
            if wire not in driven:
                yield rule_def.diagnostic(
                    _loc(netlist, f"gate {gate.name}.{pin}"),
                    f"gate {gate.name}.{pin}: undriven wire {wire}",
                )
    for dff in netlist.dffs.values():
        if dff.d not in driven:
            yield rule_def.diagnostic(
                _loc(netlist, f"DFF {dff.name}.D"),
                f"DFF {dff.name}.D: undriven wire {dff.d}",
            )
    for wire in netlist.outputs:
        if wire not in driven:
            yield rule_def.diagnostic(
                _loc(netlist, f"output {wire}"),
                f"primary output {wire} undriven",
            )


@rule(
    id="net.input-driven",
    layer="netlist",
    severity=Severity.ERROR,
    summary="primary input also driven by internal logic",
    requires=("netlist",),
    tags=("validate",),
)
def check_input_driven(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.input-driven")
    for wire, labels in sorted(_driver_labels(netlist).items()):
        internal = [label for label in labels if label != "primary input"]
        if wire in netlist.inputs and internal:
            yield rule_def.diagnostic(
                _loc(netlist, f"input {wire}"),
                f"primary input {wire} also driven by {', '.join(internal)}",
            )


@rule(
    id="net.const-driven",
    layer="netlist",
    severity=Severity.ERROR,
    summary="gate or DFF drives a reserved constant wire",
    requires=("netlist",),
    tags=("validate",),
)
def check_const_driven(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.const-driven")
    for gate in netlist.gates.values():
        if gate.output in CONST_WIRES:
            yield rule_def.diagnostic(
                _loc(netlist, f"gate {gate.name}"),
                f"gate {gate.name} drives constant {gate.output}",
            )
    for dff in netlist.dffs.values():
        if dff.q in CONST_WIRES:
            yield rule_def.diagnostic(
                _loc(netlist, f"DFF {dff.name}"),
                f"DFF {dff.name} drives constant {dff.q}",
            )


@rule(
    id="net.comb-loop",
    layer="netlist",
    severity=Severity.ERROR,
    summary="combinational cycle through gates (cycle path reported)",
    requires=("netlist",),
    tags=("validate",),
)
def check_comb_loop(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.comb-loop")
    _, stuck = _tolerant_topo(netlist)
    remaining = list(stuck)
    while remaining:
        cycle = _find_cycle(netlist, remaining)
        path = " -> ".join(f"{g.name}({g.output})" for g in cycle)
        path += f" -> {cycle[0].name}"
        yield rule_def.diagnostic(
            _loc(netlist, f"gate {cycle[0].name}"),
            f"combinational cycle in netlist {netlist.name}: {path} "
            f"({len(remaining)} gates stuck behind cycles)",
            hint="break the loop with a flip-flop or remove the feedback arc",
        )
        in_cycle = {g.name for g in cycle}
        remaining = [name for name in remaining if name not in in_cycle]


# ----------------------------------------------------------------------
# quality rules (new; not part of the legacy validate set)
# ----------------------------------------------------------------------


@rule(
    id="net.dead-gate",
    layer="netlist",
    severity=Severity.WARNING,
    summary="gate output is never read and is not a cycle endpoint",
    requires=("netlist",),
    tags=("quality", "strict-validate"),
)
def check_dead_gate(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.dead-gate")
    read: set[str] = set()
    for gate in netlist.gates.values():
        read.update(gate.inputs.values())
    sinks = set(netlist.outputs) | netlist.dff_d_wires()
    for gate in netlist.gates.values():
        if gate.output not in read and gate.output not in sinks:
            yield rule_def.diagnostic(
                _loc(netlist, f"gate {gate.name}"),
                f"dead gate {gate.name}: dangling output {gate.output} is "
                f"never read and reaches no endpoint",
                hint="remove the gate or connect its output",
            )


@rule(
    id="net.dff-const-d",
    layer="netlist",
    severity=Severity.WARNING,
    summary="flip-flop next-state is a constant (or its own output)",
    requires=("netlist",),
    tags=("quality",),
)
def check_dff_const_d(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.dff-const-d")
    for dff in netlist.dffs.values():
        if dff.d in CONST_WIRES:
            yield rule_def.diagnostic(
                _loc(netlist, f"DFF {dff.name}"),
                f"DFF {dff.name}: D tied to constant {dff.d}; the register "
                f"freezes after the first cycle",
                hint="replace the flip-flop with the constant wire",
            )
        elif dff.d == dff.q:
            yield rule_def.diagnostic(
                _loc(netlist, f"DFF {dff.name}"),
                f"DFF {dff.name}: D wired to its own Q; the register can "
                f"never leave its reset value {dff.init}",
                hint="replace the flip-flop with a constant",
            )


@rule(
    id="net.dff-unread",
    layer="netlist",
    severity=Severity.WARNING,
    summary="flip-flop output is never read anywhere",
    requires=("netlist",),
    tags=("quality",),
)
def check_dff_unread(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.dff-unread")
    read: set[str] = set()
    for gate in netlist.gates.values():
        read.update(gate.inputs.values())
    read.update(netlist.dff_d_wires())
    read.update(netlist.outputs)
    for dff in netlist.dffs.values():
        if dff.q not in read:
            yield rule_def.diagnostic(
                _loc(netlist, f"DFF {dff.name}"),
                f"DFF {dff.name}: output {dff.q} is never read",
                hint="state that feeds nothing is dead area and fault-space noise",
            )


@rule(
    id="net.unreachable",
    layer="netlist",
    severity=Severity.WARNING,
    summary="logic not reachable from any input, flip-flop, or constant",
    requires=("netlist",),
    tags=("quality",),
)
def check_unreachable(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.unreachable")
    reachable = _reachable_wires(netlist)
    driven = set(_driver_labels(netlist))
    for gate in netlist.gates.values():
        if gate.output in reachable:
            continue
        if any(wire not in driven for wire in gate.inputs.values()):
            continue  # reported by net.undriven, not a reachability issue
        yield rule_def.diagnostic(
            _loc(netlist, f"gate {gate.name}"),
            f"gate {gate.name}: not reachable from any primary input, "
            f"flip-flop, or constant (fed only by cyclic logic)",
            hint="its value is undefined in a synchronous single-driver model",
        )


@rule(
    id="net.no-masking-cell",
    layer="netlist",
    severity=Severity.INFO,
    summary="cell type has no gate-masking term for any single faulty pin",
    requires=("netlist",),
    tags=("masking",),
)
def check_no_masking_cell(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    netlist = target.netlist
    assert netlist is not None
    rule_def = registered_rule("net.no-masking-cell")
    instances: dict[str, int] = {}
    for gate in netlist.gates.values():
        instances[gate.cell] = instances.get(gate.cell, 0) + 1
    for cell_name in sorted(instances):
        if cell_name not in netlist.library:
            continue  # reported by net.unknown-cell
        cell = netlist.library[cell_name]
        if cell.sequential or not cell.inputs:
            continue
        if any(
            gate_masking_terms(cell, frozenset({pin})) for pin in cell.inputs
        ):
            continue
        yield rule_def.diagnostic(
            _loc(netlist, f"cell {cell_name}"),
            f"cell {cell_name} ({instances[cell_name]} instances) has no "
            f"gate-masking term for any single faulty pin; faults always "
            f"pass through it",
            hint="MATE search cannot block propagation at these gates",
        )

