"""RTL- and synthesis-layer lint rules.

The RTL rules re-derive structural facts about a word-level
:class:`~repro.rtl.circuit.RtlCircuit` — expression widths, signal liveness,
register update paths — instead of trusting the widths cached on the
expression objects, so they catch trees corrupted after construction as well
as designs that were never finalized. The synth rule cross-checks the RTL
port map against the synthesized netlist: every observable word-level bit
(primary outputs and architectural registers) must survive lowering.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig, LintTarget, registered_rule, rule
from repro.rtl.circuit import Reg, RtlCircuit
from repro.rtl.expr import (
    Add,
    BinOp,
    Cat,
    Const,
    Eq,
    Expr,
    InputExpr,
    Mux,
    Not,
    Reduce,
    Slice,
    Sub,
)
from repro.synth.lower import bit_name

# ----------------------------------------------------------------------
# expression walking
# ----------------------------------------------------------------------


def _children(expr: Expr) -> tuple[Expr, ...]:
    """Sub-expressions of one node (leaves return an empty tuple)."""
    if isinstance(expr, (Const, InputExpr, Reg)):
        return ()
    if isinstance(expr, Not):
        return (expr.operand,)
    if isinstance(expr, BinOp):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, Mux):
        return (expr.sel, expr.if0, expr.if1)
    if isinstance(expr, Cat):
        return expr.parts
    if isinstance(expr, Slice):
        return (expr.operand,)
    if isinstance(expr, (Add, Sub)):
        extra = expr.carry_in if isinstance(expr, Add) else expr.borrow_in
        return (expr.lhs, expr.rhs) if extra is None else (expr.lhs, expr.rhs, extra)
    if isinstance(expr, Eq):
        return (expr.lhs, expr.rhs)
    if isinstance(expr, Reduce):
        return (expr.operand,)
    raise TypeError(f"unknown RTL expression node {type(expr).__name__}")


def _iter_nodes(roots: list[Expr]) -> Iterator[Expr]:
    """Every distinct node reachable from the roots (iterative, id-deduped)."""
    seen: set[int] = set()
    stack = list(roots)
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        yield node
        stack.extend(_children(node))


def _root_exprs(circuit: RtlCircuit) -> dict[str, Expr]:
    """All expression roots: outputs plus assigned register next-values."""
    roots: dict[str, Expr] = {}
    for name, expr in circuit.outputs.items():
        roots[f"output {name}"] = expr
    for name, reg in circuit.regs.items():
        if reg.has_next:
            roots[f"reg {name}.next"] = reg.next
    return roots


def _leaf_signals(root: Expr) -> set[str]:
    """Names of inputs and registers read anywhere under ``root``."""
    leaves: set[str] = set()
    for node in _iter_nodes([root]):
        if isinstance(node, (InputExpr, Reg)):
            leaves.add(node.name)
    return leaves


def _check_node_width(expr: Expr) -> str | None:
    """Recompute the node's width from its children; describe any mismatch."""
    if isinstance(expr, (Const, InputExpr, Reg)):
        return None if expr.width > 0 else f"declared width {expr.width} <= 0"
    if isinstance(expr, Not):
        expected = expr.operand.width
    elif isinstance(expr, BinOp):
        if expr.lhs.width != expr.rhs.width:
            return (
                f"{expr.kind}: operand widths differ "
                f"({expr.lhs.width} vs {expr.rhs.width})"
            )
        expected = expr.lhs.width
    elif isinstance(expr, Mux):
        if expr.sel.width != 1:
            return f"mux select has width {expr.sel.width}, expected 1"
        if expr.if0.width != expr.if1.width:
            return f"mux arms differ ({expr.if0.width} vs {expr.if1.width})"
        expected = expr.if0.width
    elif isinstance(expr, Cat):
        expected = sum(p.width for p in expr.parts)
    elif isinstance(expr, Slice):
        if not 0 <= expr.start < expr.stop <= expr.operand.width:
            return (
                f"slice [{expr.start}:{expr.stop}] out of range for "
                f"operand width {expr.operand.width}"
            )
        expected = expr.stop - expr.start
    elif isinstance(expr, (Add, Sub)):
        if expr.lhs.width != expr.rhs.width:
            return (
                f"arith operand widths differ "
                f"({expr.lhs.width} vs {expr.rhs.width})"
            )
        extra = expr.carry_in if isinstance(expr, Add) else expr.borrow_in
        if extra is not None and extra.width != 1:
            return f"carry/borrow input has width {extra.width}, expected 1"
        expected = expr.lhs.width + 1
    elif isinstance(expr, Eq):
        if expr.lhs.width != expr.rhs.width:
            return f"eq operand widths differ ({expr.lhs.width} vs {expr.rhs.width})"
        expected = 1
    elif isinstance(expr, Reduce):
        expected = 1
    else:  # pragma: no cover - _children already rejects unknown nodes
        return None
    if expr.width != expected:
        return (
            f"{type(expr).__name__} annotated width {expr.width}, "
            f"recomputed {expected}"
        )
    return None


def _loc(circuit: RtlCircuit, where: str) -> str:
    return f"{circuit.name}:{where}"


# ----------------------------------------------------------------------
# rules
# ----------------------------------------------------------------------


@rule(
    id="rtl.width-mismatch",
    layer="rtl",
    severity=Severity.ERROR,
    summary="expression width annotation disagrees with its operands",
    requires=("circuit",),
)
def check_width_mismatch(
    target: LintTarget, config: LintConfig
) -> Iterator[Diagnostic]:
    circuit = target.circuit
    assert circuit is not None
    rule_def = registered_rule("rtl.width-mismatch")
    for root_name, root in _root_exprs(circuit).items():
        reported = 0
        for node in _iter_nodes([root]):
            problem = _check_node_width(node)
            if problem is None:
                continue
            yield rule_def.diagnostic(
                _loc(circuit, root_name),
                f"{root_name}: {problem}",
                hint="widths are fixed at construction; this tree was corrupted",
            )
            reported += 1
            if reported >= 5:  # one root rarely needs more evidence
                break
    # Declared output widths must match the driving expression.
    for name, expr in circuit.outputs.items():
        if expr.width <= 0:
            yield rule_def.diagnostic(
                _loc(circuit, f"output {name}"),
                f"output {name}: non-positive width {expr.width}",
            )
    for name, reg in circuit.regs.items():
        if reg.has_next and reg.next.width != reg.width:
            yield rule_def.diagnostic(
                _loc(circuit, f"reg {name}"),
                f"register {name}: next-value width {reg.next.width} != "
                f"declared width {reg.width}",
            )


@rule(
    id="rtl.no-next",
    layer="rtl",
    severity=Severity.ERROR,
    summary="register declared but never assigned a next value",
    requires=("circuit",),
)
def check_no_next(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    circuit = target.circuit
    assert circuit is not None
    rule_def = registered_rule("rtl.no-next")
    for name, reg in circuit.regs.items():
        if not reg.has_next:
            yield rule_def.diagnostic(
                _loc(circuit, f"reg {name}"),
                f"register {name}: no next-value assignment; the register "
                f"has no update path from reset",
                hint="assign reg.next (use a mux with the hold value if needed)",
            )


@rule(
    id="rtl.unused-signal",
    layer="rtl",
    severity=Severity.WARNING,
    summary="input or register that no output can ever observe",
    requires=("circuit",),
)
def check_unused_signal(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    circuit = target.circuit
    assert circuit is not None
    rule_def = registered_rule("rtl.unused-signal")
    # Liveness fixpoint: a signal is live when an output reads it, or when a
    # live register's next-value reads it. A register feeding only itself
    # (or a clique of dead registers) is dead state.
    next_leaves = {
        name: _leaf_signals(reg.next)
        for name, reg in circuit.regs.items()
        if reg.has_next
    }
    live: set[str] = set()
    for expr in circuit.outputs.values():
        live |= _leaf_signals(expr)
    changed = True
    while changed:
        changed = False
        for name, leaves in next_leaves.items():
            if name in live and not leaves <= live:
                live |= leaves
                changed = True
    for name in circuit.inputs:
        if name not in live:
            yield rule_def.diagnostic(
                _loc(circuit, f"input {name}"),
                f"input {name} is never observable at any output",
            )
    for name in circuit.regs:
        if name not in live:
            yield rule_def.diagnostic(
                _loc(circuit, f"reg {name}"),
                f"register {name} is never observable at any output "
                f"(dead state)",
                hint="dead registers inflate the fault space without effect",
            )


@rule(
    id="synth.dropped-wire",
    layer="synth",
    severity=Severity.ERROR,
    summary="synthesis silently dropped an observable word-level bit",
    requires=("circuit", "netlist"),
)
def check_dropped_wire(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    circuit = target.circuit
    netlist = target.netlist
    assert circuit is not None and netlist is not None
    rule_def = registered_rule("synth.dropped-wire")
    outputs = set(netlist.outputs)
    for name, expr in circuit.outputs.items():
        missing = [
            bit_name(name, i, expr.width)
            for i in range(expr.width)
            if bit_name(name, i, expr.width) not in outputs
        ]
        if missing:
            yield rule_def.diagnostic(
                f"{netlist.name}:output {name}",
                f"output {name}: {len(missing)}/{expr.width} bits missing "
                f"from netlist ports (e.g. {missing[:4]})",
                hint="the netlist no longer exposes this observable signal",
            )
    q_wires = {dff.q for dff in netlist.dffs.values()}
    for name, reg in circuit.regs.items():
        missing = [
            bit_name(name, i, reg.width)
            for i in range(reg.width)
            if bit_name(name, i, reg.width) not in q_wires
        ]
        if missing:
            yield rule_def.diagnostic(
                f"{netlist.name}:reg {name}",
                f"register {name}: {len(missing)}/{reg.width} state bits have "
                f"no flip-flop in the netlist (e.g. {missing[:4]})",
                hint="faults in dropped state bits can never be injected",
            )

