"""Static MATE soundness checker (the cross-layer headline rule).

A MATE claims: *whenever its literal conjunction holds, an SEU on the
covered fault wire is masked within the current clock cycle*. The dynamic
path (:mod:`repro.core.verify`) checks this by simulating flipped states;
this module proves or refutes it **without any trace or simulation**, by
reasoning over the fault cone alone:

- **Stage 0 — implication closure.** Propagate the (non-cone) literals
  through the :class:`~repro.core.implication.ImplicationEngine` with the
  cone tainted. Every derived fact holds in the golden *and* the faulty
  circuit: non-cone wires carry equal values in both, and tainted wires are
  only learned forward (output forced irrespective of all unknown pins).
  An unsatisfiable term masks vacuously.
- **Stage 1 — difference propagation.** Walk the cone gates in topological
  order tracking which wires can still carry a golden/faulty difference.
  A gate output is *clean* when the closure forces it, or when the cell
  function cofactored by all closure-known pins is independent of every
  difference-carrying pin. This strictly subsumes the gate-masking
  conditions the search proves, so every search-produced MATE is confirmed
  here without enumeration.
- **Stage 2 — exhaustive border enumeration.** If difference-carrying
  endpoints remain, back-slice their cone support, assign every free
  border/fault wire a bit-parallel truth-table column (one big integer with
  ``2**k`` rows), evaluate golden and faulty columns through the slice
  with :func:`~repro.cells.expressions.lane_function`, and OR
  the endpoint XORs. A nonzero row is a **concrete counterexample**
  assignment; zero rows prove soundness exhaustively. The stage is capped
  by ``mate_budget_bits`` free wires and reports *skipped* beyond it.
- **Stage 2' — SAT decision (``engine="sat"``).** The same slice is
  instead compiled to CNF with the dual-rail
  :class:`~repro.formal.encode.DualConeEncoder` and handed to the
  :mod:`repro.formal` CDCL solver: one satisfiability query asks whether
  *any* free-border assignment satisfying the cone-internal literals
  drives a golden/faulty difference into an endpoint. UNSAT is an
  unbounded soundness proof (no budget, so ``skipped`` is unreachable);
  SAT yields a model that is decoded into a concrete counterexample and
  re-validated by evaluating the slice with the cell truth tables.

The verdict is relative to the border cut — free border wires range over
all values, the same criterion the search itself proves — so *sound* here
implies *masked* on every reachable state (the property the dynamic ground
truth samples).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.cells.expressions import lane_function
from repro.core.cone import FaultCone, compute_fault_cone
from repro.core.implication import ImplicationEngine
from repro.core.mate import Mate
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import LintConfig, LintTarget, registered_rule, rule
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from repro.obs import counter, histogram

#: Verdict statuses.
SOUND = "sound"
REFUTED = "refuted"
SKIPPED = "skipped"
VACUOUS = "vacuous"


@dataclass(frozen=True)
class StaticMateVerdict:
    """Outcome of statically checking one MATE against one fault wire."""

    fault_wire: str
    literals: tuple[tuple[str, int], ...]
    #: ``sound`` / ``refuted`` / ``skipped`` / ``vacuous``.
    status: str
    #: Which stage decided: ``endpoint``, ``closure``, ``propagation``,
    #: or ``enumeration``.
    method: str
    #: Free variables the enumeration stage would have to (or did) cover.
    free_wires: int = 0
    #: Rows exhaustively enumerated (``2**free_wires`` when enumerating).
    assignments: int = 0
    #: Golden values of the free wires exhibiting a propagated difference.
    counterexample: tuple[tuple[str, int], ...] | None = None
    #: Endpoints where golden and faulty values diverge (refutations).
    diff_endpoints: tuple[str, ...] = ()

    @property
    def is_sound(self) -> bool:
        """True when the MATE is proven (vacuous counts as proven)."""
        return self.status in (SOUND, VACUOUS)

    def describe(self, max_wires: int = 12) -> str:
        """One-line human summary (used by the lint diagnostics)."""
        if self.status == REFUTED:
            shown = list(self.counterexample or ())[:max_wires]
            assignment = ", ".join(f"{w}={v}" for w, v in shown)
            if self.counterexample and len(self.counterexample) > max_wires:
                assignment += ", …"
            where = ",".join(self.diff_endpoints[:3]) or "?"
            return (
                f"refuted ({self.method}): difference reaches {where} "
                f"under {{{assignment or 'any state'}}}"
            )
        if self.status == SKIPPED:
            return (
                f"skipped: {self.free_wires} free border wires exceed the "
                f"enumeration budget"
            )
        if self.status == VACUOUS:
            return "vacuously sound: the masking term is unsatisfiable"
        return f"sound ({self.method}, {self.assignments} assignments checked)"


#: A back-slice of the fault cone: the gates feeding the live endpoints
#: plus the base-wire partition both decision procedures share.
@dataclass(frozen=True)
class _Slice:
    fault_wire: str
    gates: tuple[Gate, ...]
    #: Unconstrained base wires (the free border support).
    free: tuple[str, ...]
    #: Closure-forced base wires and their values.
    fixed: tuple[tuple[str, int], ...]
    #: Base wires flipped by the SEU.
    fault_vars: tuple[str, ...]


class StaticMateChecker:
    """Proves MATE soundness per fault wire, purely statically.

    ``engine`` selects the stage-2 decision procedure: ``"enum"``
    (bit-parallel exhaustive enumeration, capped by ``budget_bits``) or
    ``"sat"`` (CDCL proof via :mod:`repro.formal`, unbounded).
    """

    def __init__(
        self,
        netlist: Netlist,
        implications: ImplicationEngine | None = None,
        budget_bits: int = 16,
        engine: str = "enum",
    ) -> None:
        if engine not in ("enum", "sat"):
            raise ValueError(f"unknown MATE engine {engine!r}")
        self.netlist = netlist
        self.implications = implications or ImplicationEngine(netlist)
        self.budget_bits = budget_bits
        self.engine = engine
        self._cones: dict[str, FaultCone] = {}

    # ------------------------------------------------------------------
    def check(self, fault_wire: str, mate: Mate) -> StaticMateVerdict:
        """Statically verify that ``mate`` masks an SEU on ``fault_wire``."""
        counter("lint.mate.checked").inc()
        verdict = self._check(fault_wire, mate)
        counter(f"lint.mate.{verdict.status}").inc()
        if verdict.free_wires:
            histogram("lint.mate.free_wires").observe(verdict.free_wires)
        return verdict

    def check_all(
        self, pairs: Iterable[tuple[str, Mate]]
    ) -> list[StaticMateVerdict]:
        """Check a ``(fault wire, mate)`` stream; one verdict per pair."""
        return [self.check(wire, mate) for wire, mate in pairs]

    # ------------------------------------------------------------------
    def _cone(self, fault_wire: str) -> FaultCone:
        cone = self._cones.get(fault_wire)
        if cone is None:
            cone = compute_fault_cone(self.netlist, fault_wire)
            self._cones[fault_wire] = cone
        return cone

    def _check(self, fault_wire: str, mate: Mate) -> StaticMateVerdict:
        cone = self._cone(fault_wire)
        if cone.fault_wire_is_endpoint:
            # The flipped wire itself crosses the cycle boundary; no term
            # over other wires can ever mask it.
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=REFUTED,
                method="endpoint",
                counterexample=mate.literals,
                diff_endpoints=tuple(sorted(cone.fault_wires & cone.endpoint_wires)),
            )

        # Literals on cone wires constrain only the *golden* circuit (their
        # faulty values may differ); they must not seed the closure and are
        # applied as row filters during enumeration instead.
        seed = {w: v for w, v in mate.literals if w not in cone.cone_wires}
        golden_only = tuple(
            (w, v) for w, v in mate.literals if w in cone.cone_wires
        )
        closure = self.implications.propagate(
            seed, tainted=frozenset(cone.cone_wires)
        )
        if closure is None:
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=VACUOUS,
                method="closure",
            )

        live = self._propagate_difference(cone, closure)
        live_endpoints = sorted(live & cone.endpoint_wires)
        if not live_endpoints:
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=SOUND,
                method="propagation",
            )
        cut = self._slice(cone, closure, golden_only, live_endpoints)
        if self.engine == "sat":
            return self._sat_decide(cut, golden_only, live_endpoints, mate)
        return self._enumerate(cut, golden_only, live_endpoints, mate)

    # ------------------------------------------------------------------
    def _propagate_difference(
        self, cone: FaultCone, closure: dict[str, int]
    ) -> set[str]:
        """Stage 1: wires that may still differ between golden and faulty.

        The closure holds in both circuits (see module docstring), so a
        known non-faulted pin value may be substituted before asking
        whether the cell output can see any difference-carrying pin.
        """
        live: set[str] = set(cone.fault_wires)
        for gate in cone.cone_gates:
            live_pins = [
                pin for pin, wire in gate.inputs.items() if wire in live
            ]
            if not live_pins:
                continue  # every mistrusted input was already proven clean
            if gate.output in closure:
                continue  # forward-forced in both circuits
            function = self.netlist.library[gate.cell].function
            assert function is not None
            restricted = function
            for pin, wire in gate.inputs.items():
                if wire in live:
                    continue
                value = self._known_value(wire, closure)
                if value is not None:
                    restricted = restricted.cofactor(pin, value)
            if restricted.is_independent_of(live_pins):
                continue
            live.add(gate.output)
        return live

    @staticmethod
    def _known_value(wire: str, closure: dict[str, int]) -> int | None:
        if wire == CONST0:
            return 0
        if wire == CONST1:
            return 1
        return closure.get(wire)

    # ------------------------------------------------------------------
    def _slice(
        self,
        cone: FaultCone,
        closure: dict[str, int],
        golden_only: tuple[tuple[str, int], ...],
        live_endpoints: list[str],
    ) -> _Slice:
        """Back-slice the cone to what stage 2 must actually decide.

        Keeps the gates feeding a live endpoint or a golden-only
        constrained wire, stopping at closure-forced wires, and splits the
        base wires (read but not driven inside the slice) into free /
        fixed / fault-site sets.
        """
        needed: set[str] = set(live_endpoints)
        needed.update(w for w, _ in golden_only)
        slice_gates: list[Gate] = []
        for gate in reversed(cone.cone_gates):
            if gate.output not in needed or gate.output in closure:
                continue
            slice_gates.append(gate)
            needed.update(gate.inputs.values())
        slice_gates.reverse()
        sliced_outputs = {gate.output for gate in slice_gates}

        free: list[str] = []
        fixed: list[tuple[str, int]] = []
        fault_vars: list[str] = []
        for wire in sorted(needed):
            if wire in sliced_outputs or wire in (CONST0, CONST1):
                continue
            value = self._known_value(wire, closure)
            if wire in cone.fault_wires:
                fault_vars.append(wire)
                if value is None:
                    free.append(wire)
                else:
                    fixed.append((wire, value))
            elif value is not None:
                fixed.append((wire, value))
            else:
                free.append(wire)
        return _Slice(
            fault_wire=cone.fault_wire,
            gates=tuple(slice_gates),
            free=tuple(free),
            fixed=tuple(fixed),
            fault_vars=tuple(fault_vars),
        )

    # ------------------------------------------------------------------
    def _enumerate(
        self,
        cut: _Slice,
        golden_only: tuple[tuple[str, int], ...],
        live_endpoints: list[str],
        mate: Mate,
    ) -> StaticMateVerdict:
        """Stage 2: exhaustively enumerate the free support of the slice."""
        netlist = self.netlist
        fault_wire = cut.fault_wire
        slice_gates = cut.gates
        free = list(cut.free)
        fixed = dict(cut.fixed)
        fault_vars = cut.fault_vars

        if len(free) > self.budget_bits:
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=SKIPPED,
                method="enumeration",
                free_wires=len(free),
            )

        rows = 1 << len(free)
        mask = (1 << rows) - 1
        golden: dict[str, int] = {CONST0: 0, CONST1: mask}
        for wire, value in fixed.items():
            golden[wire] = mask if value else 0
        for i, wire in enumerate(free):
            # Bit r of the column is (r >> i) & 1: the truth-table pattern.
            period, half = 1 << (i + 1), 1 << i
            chunk = ((1 << half) - 1) << half
            column = 0
            for j in range(rows // period):
                column |= chunk << (j * period)
            golden[wire] = column

        faulty = dict(golden)
        for wire in fault_vars:
            faulty[wire] = golden[wire] ^ mask  # the SEU flips the fault site

        for gate in slice_gates:
            cell = netlist.library[gate.cell]
            function, pins = lane_function(cell), cell.inputs
            golden[gate.output] = function(
                mask, *[golden[gate.inputs[pin]] for pin in pins]
            )
            faulty[gate.output] = function(
                mask, *[faulty[gate.inputs[pin]] for pin in pins]
            )

        # Rows where the golden-only literals (cone-wire literals) hold.
        valid = mask
        for wire, value in golden_only:
            valid &= golden[wire] if value else ~golden[wire] & mask

        diff = 0
        diff_where: list[str] = []
        for endpoint in live_endpoints:
            endpoint_diff = (golden[endpoint] ^ faulty[endpoint]) & valid
            if endpoint_diff:
                diff_where.append(endpoint)
            diff |= endpoint_diff

        if not diff:
            if not valid:
                # No golden state satisfies the full term at all.
                return StaticMateVerdict(
                    fault_wire=fault_wire,
                    literals=mate.literals,
                    status=VACUOUS,
                    method="enumeration",
                    free_wires=len(free),
                    assignments=rows,
                )
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=SOUND,
                method="enumeration",
                free_wires=len(free),
                assignments=rows,
            )

        row = (diff & -diff).bit_length() - 1  # lowest differing row
        witness = tuple(
            (wire, (row >> i) & 1) for i, wire in enumerate(free)
        ) + tuple(sorted(fixed.items()))
        return StaticMateVerdict(
            fault_wire=fault_wire,
            literals=mate.literals,
            status=REFUTED,
            method="enumeration",
            free_wires=len(free),
            assignments=rows,
            counterexample=tuple(sorted(witness)),
            diff_endpoints=tuple(diff_where),
        )

    # ------------------------------------------------------------------
    def _sat_decide(
        self,
        cut: _Slice,
        golden_only: tuple[tuple[str, int], ...],
        live_endpoints: list[str],
        mate: Mate,
    ) -> StaticMateVerdict:
        """Stage 2': decide the slice with the CDCL solver (no budget).

        Two incremental queries on one CNF: first *can the golden-only
        literals hold at all* (UNSAT ⇒ vacuous), then — after adding the
        endpoint-difference disjunction — *can a difference escape*
        (UNSAT ⇒ sound, SAT ⇒ refuted with a model-derived, re-validated
        counterexample).
        """
        from repro.formal import CnfBuilder, DualConeEncoder

        fault_wire = cut.fault_wire
        builder = CnfBuilder()
        encoder = DualConeEncoder(self.netlist, builder)
        for wire in cut.fault_vars:
            encoder.inject_fault(wire)
        for wire, value in cut.fixed:
            encoder.fix(wire, value)
        encoder.encode_gates(cut.gates)
        for wire, value in golden_only:
            encoder.fix(wire, value)

        if golden_only and builder.solver.solve() is False:
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=VACUOUS,
                method="sat",
                free_wires=len(cut.free),
            )

        escape = [
            lit
            for lit in (encoder.diff_lit(w) for w in live_endpoints)
            if lit is not None
        ]
        if escape:
            builder.add(*escape)
        outcome = builder.solver.solve() if escape else False
        if outcome is False:
            return StaticMateVerdict(
                fault_wire=fault_wire,
                literals=mate.literals,
                status=SOUND,
                method="sat",
                free_wires=len(cut.free),
            )

        solver = builder.solver
        witness: list[tuple[str, int]] = list(cut.fixed)
        for wire in cut.free:
            lit = encoder.golden_lit(wire)
            value = solver.model_value(abs(lit))
            witness.append((wire, value ^ 1 if lit < 0 else value))
        counterexample = tuple(sorted(witness))
        diff_where = self.verify_counterexample(
            cut, golden_only, live_endpoints, counterexample
        )
        if not diff_where:
            raise RuntimeError(
                f"SAT model for {fault_wire} does not reproduce a "
                f"difference at any live endpoint"
            )
        return StaticMateVerdict(
            fault_wire=fault_wire,
            literals=mate.literals,
            status=REFUTED,
            method="sat",
            free_wires=len(cut.free),
            counterexample=counterexample,
            diff_endpoints=diff_where,
        )

    # ------------------------------------------------------------------
    def verify_counterexample(
        self,
        cut: _Slice,
        golden_only: tuple[tuple[str, int], ...],
        live_endpoints: list[str],
        assignment: tuple[tuple[str, int], ...],
    ) -> tuple[str, ...]:
        """Replay *assignment* through the slice with the cell truth tables.

        Returns the live endpoints where golden and faulty diverge while
        every golden-only literal holds — empty when the assignment is
        *not* a valid counterexample. Used both to re-validate SAT models
        and by tests to cross-check enumeration witnesses.
        """
        golden: dict[str, int] = {CONST0: 0, CONST1: 1}
        golden.update(assignment)
        faulty = dict(golden)
        for wire in cut.fault_vars:
            faulty[wire] = golden[wire] ^ 1
        library = self.netlist.library
        for gate in cut.gates:
            function = library[gate.cell].function
            assert function is not None
            golden[gate.output] = function.evaluate(
                {pin: golden[wire] for pin, wire in gate.inputs.items()}
            )
            faulty[gate.output] = function.evaluate(
                {pin: faulty[wire] for pin, wire in gate.inputs.items()}
            )
        if any(golden[wire] != value for wire, value in golden_only):
            return ()
        return tuple(
            w for w in live_endpoints if golden[w] != faulty[w]
        )


# ----------------------------------------------------------------------
# search-audit convenience
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class MateAudit:
    """Aggregate result of statically auditing a MATE collection."""

    checked: int
    sound: int
    refuted: int
    skipped: int
    vacuous: int
    refutations: tuple[StaticMateVerdict, ...] = ()

    @property
    def all_sound(self) -> bool:
        """True when no MATE was refuted (skipped ones are undecided)."""
        return self.refuted == 0

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "sound": self.sound,
            "refuted": self.refuted,
            "skipped": self.skipped,
            "vacuous": self.vacuous,
        }


def audit_mates(
    netlist: Netlist,
    pairs: Iterable[tuple[str, Mate]],
    implications: ImplicationEngine | None = None,
    budget_bits: int = 16,
    engine: str = "enum",
) -> MateAudit:
    """Audit ``(fault wire, mate)`` pairs; used by the post-search hook."""
    checker = StaticMateChecker(
        netlist,
        implications=implications,
        budget_bits=budget_bits,
        engine=engine,
    )
    verdicts = checker.check_all(pairs)
    by_status = {status: 0 for status in (SOUND, REFUTED, SKIPPED, VACUOUS)}
    for verdict in verdicts:
        by_status[verdict.status] += 1
    return MateAudit(
        checked=len(verdicts),
        sound=by_status[SOUND],
        refuted=by_status[REFUTED],
        skipped=by_status[SKIPPED],
        vacuous=by_status[VACUOUS],
        refutations=tuple(v for v in verdicts if v.status == REFUTED),
    )


# ----------------------------------------------------------------------
# lint rules over the ``mates`` facet
# ----------------------------------------------------------------------


def _verdicts_for(
    target: LintTarget, config: LintConfig
) -> list[StaticMateVerdict]:
    """Run the checker once per target; the mate.* rules share the result.

    The cache key must identify the *whole* checker configuration — keying
    on the budget alone would alias ``engine="enum"`` and ``engine="sat"``
    runs of the same target and serve stale verdicts.
    """
    key = (config.mate_engine, config.mate_budget_bits)
    cache = getattr(target, "_mate_verdicts", None)
    if cache is not None and cache[0] == key:
        return cache[1]
    assert target.netlist is not None
    checker = StaticMateChecker(
        target.netlist,
        budget_bits=config.mate_budget_bits,
        engine=config.mate_engine,
    )
    verdicts = checker.check_all(target.mates)
    target._mate_verdicts = (key, verdicts)  # type: ignore[attr-defined]
    return verdicts


def _mate_location(target: LintTarget, verdict: StaticMateVerdict) -> str:
    term = " & ".join(
        wire if value else f"!{wire}" for wire, value in verdict.literals
    )
    return f"{target.name}:mate[{term or 'true'}]@{verdict.fault_wire}"


@rule(
    id="mate.unsound",
    layer="mate",
    severity=Severity.ERROR,
    summary="MATE fails the static soundness proof (counterexample found)",
    requires=("netlist", "mates"),
)
def check_mate_unsound(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    rule_def = registered_rule("mate.unsound")
    for verdict in _verdicts_for(target, config):
        if verdict.status != REFUTED:
            continue
        yield rule_def.diagnostic(
            _mate_location(target, verdict),
            f"MATE does not mask fault wire {verdict.fault_wire}: "
            f"{verdict.describe(config.counterexample_wires)}",
            hint="the term admits a state where the flip reaches an endpoint",
        )


@rule(
    id="mate.budget-exceeded",
    layer="mate",
    severity=Severity.INFO,
    summary="MATE proof skipped: free border support exceeds the budget",
    requires=("netlist", "mates"),
)
def check_mate_budget(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    rule_def = registered_rule("mate.budget-exceeded")
    for verdict in _verdicts_for(target, config):
        if verdict.status != SKIPPED:
            continue
        yield rule_def.diagnostic(
            _mate_location(target, verdict),
            f"static proof skipped for fault wire {verdict.fault_wire}: "
            f"{verdict.free_wires} free border wires > budget "
            f"{config.mate_budget_bits}",
            hint="raise --mate-budget to enumerate larger cones",
        )


@rule(
    id="mate.vacuous",
    layer="mate",
    severity=Severity.INFO,
    summary="MATE term is unsatisfiable (masks only vacuously)",
    requires=("netlist", "mates"),
)
def check_mate_vacuous(target: LintTarget, config: LintConfig) -> Iterator[Diagnostic]:
    rule_def = registered_rule("mate.vacuous")
    for verdict in _verdicts_for(target, config):
        if verdict.status != VACUOUS:
            continue
        yield rule_def.diagnostic(
            _mate_location(target, verdict),
            f"MATE for fault wire {verdict.fault_wire} is vacuous: "
            f"its literal conjunction can never hold",
            hint="a trigger that never fires wastes hardware checker slots",
        )

