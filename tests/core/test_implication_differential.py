"""The id-indexed implication engine against a dict-based reference.

The reference below is the engine's earlier string-keyed implementation:
a gate worklist over ``dict[str, int]`` known values, with every gate
visit re-deriving its implied facts from the cell's truth table. Both
compute the least fixpoint of the same local implications, so on every
literal set they must agree exactly, untainted and under a fault cone's
taint, and a closure resumed from a prefix must equal the same closure
computed from scratch.

Literal sets are drawn, seeded, from the killer terms ``enumerate_paths``
collects on both cores' bench search wires (the MATE search's own
inputs), plus sets made contradictory on purpose.
"""

import random
from functools import lru_cache

import pytest

from repro.cells.functions import BoolFunc
from repro.core.cone import compute_fault_cone
from repro.core.implication import ClosureChain, ImplicationEngine
from repro.core.paths import enumerate_paths
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from tests.core.test_search_digest import SEARCH_DFFS

SETS_PER_WIRE = 12


@lru_cache(maxsize=None)
def _consistent_rows(function: BoolFunc, constraints, output):
    rows = []
    for row in range(1 << len(function.pins)):
        if any(((row >> idx) & 1) != val for idx, val in constraints):
            continue
        if output is not None and function.evaluate_row(row) != output:
            continue
        rows.append(row)
    return tuple(rows)


@lru_cache(maxsize=None)
def _infer_facts(function: BoolFunc, constraints, output):
    if output is None:
        rows = _consistent_rows(function, constraints, None)
        if not rows:
            return None
        outputs = {function.evaluate_row(row) for row in rows}
        if len(outputs) == 1:
            return ((-1, outputs.pop()),)
        return ()
    rows = _consistent_rows(function, constraints, output)
    if not rows:
        return None
    constrained = {idx for idx, _ in constraints}
    facts = []
    for index in range(len(function.pins)):
        if index in constrained:
            continue
        values = {(row >> index) & 1 for row in rows}
        if len(values) == 1:
            facts.append((index, values.pop()))
    return tuple(facts)


class _Contradiction(Exception):
    pass


def reference_propagate(
    netlist: Netlist, literals: dict[str, int], tainted=frozenset()
) -> dict[str, int] | None:
    """Dict-based implication closure; ``None`` on contradiction."""
    readers = netlist.reader_map()
    drivers = netlist.driver_map()
    known: dict[str, int] = {CONST0: 0, CONST1: 1}
    queue: list[Gate] = []
    queued: set[str] = set()

    def learn(wire: str, value: int) -> None:
        existing = known.get(wire)
        if existing is not None:
            if existing != value:
                raise _Contradiction
            return
        known[wire] = value
        for gate, _pin in readers.get(wire, ()):
            if gate.name not in queued:
                queued.add(gate.name)
                queue.append(gate)
        driver = drivers.get(wire)
        if isinstance(driver, Gate) and driver.name not in queued:
            queued.add(driver.name)
            queue.append(driver)

    def infer(gate: Gate) -> list[tuple[str, int]]:
        function = netlist.library[gate.cell].function
        constraints = []
        wire_of_slot = {}
        for index, pin in enumerate(function.pins):
            wire = gate.inputs[pin]
            value = known.get(wire)
            if value is not None:
                constraints.append((index, value))
            else:
                wire_of_slot[index] = wire
        raw = _infer_facts(function, tuple(constraints), known.get(gate.output))
        if raw is None:
            raise _Contradiction
        facts = []
        for slot, value in raw:
            if slot == -1:
                facts.append((gate.output, value))
            elif wire_of_slot[slot] not in tainted:
                facts.append((wire_of_slot[slot], value))
        return facts

    try:
        for wire, value in literals.items():
            learn(wire, value)
        while queue:
            gate = queue.pop()
            queued.discard(gate.name)
            for wire, value in infer(gate):
                learn(wire, value)
    except _Contradiction:
        return None
    del known[CONST0]
    del known[CONST1]
    return known


def _draw_literal_sets(netlist, terms, cone_wires, rng) -> list[dict[str, int]]:
    """Unions of 1-4 killer terms, some with a literal on a cone wire (so
    that the taint rule matters), and contradictory variants."""
    drawn = []
    for _ in range(SETS_PER_WIRE):
        literals: dict[str, int] = {}
        for term in rng.sample(terms, min(len(terms), rng.randint(1, 4))):
            for wire, value in term:
                literals.setdefault(wire, value)
        if rng.random() < 0.5:
            literals.setdefault(rng.choice(cone_wires), rng.randint(0, 1))
        drawn.append(literals)
        closure = reference_propagate(netlist, literals)
        if closure:
            # Negate a wire the set implies: unsatisfiable by construction.
            wire = rng.choice(sorted(closure))
            drawn.append({**literals, wire: 1 - closure[wire]})
    return drawn


@pytest.fixture(scope="module", params=["avr", "msp430"])
def cases(request, avr_sim, msp430_sim):
    """(netlist, engine, [(cone wires, literal sets)]) for one core."""
    core = request.param
    netlist = {"avr": avr_sim, "msp430": msp430_sim}[core].netlist
    rng = random.Random(f"differential/{core}")
    wires = []
    for name in SEARCH_DFFS[core]:
        wire = netlist.dffs[name].q
        cone = compute_fault_cone(netlist, wire)
        terms = enumerate_paths(netlist, wire, cone=cone).terms
        assert terms, f"no killer terms on {wire}"
        cone_wires = sorted(cone.cone_wires)
        literal_sets = _draw_literal_sets(netlist, terms, cone_wires, rng)
        wires.append((frozenset(cone_wires), literal_sets))
    return netlist, ImplicationEngine(netlist), wires


def test_matches_reference(cases):
    netlist, engine, wires = cases
    contradictions = tainted_differs = 0
    for cone_wires, literal_sets in wires:
        for literals in literal_sets:
            plain = reference_propagate(netlist, literals)
            for tainted in (frozenset(), cone_wires):
                expected = reference_propagate(netlist, literals, tainted)
                tainted_differs += expected != plain
                closure = engine.propagate(literals, tainted)
                if expected is None:
                    contradictions += 1
                    assert closure is None, literals
                else:
                    assert closure is not None, literals
                    assert dict(closure.items()) == expected
                    assert len(closure) == len(expected)
                    assert all(closure.get(w) == v for w, v in expected.items())
    assert contradictions > 0
    assert tainted_differs > 0  # the draw exercises the taint rule


def test_resumed_closure_equals_scratch(cases):
    _netlist, engine, wires = cases
    rng = random.Random(3)
    for cone_wires, literal_sets in wires:
        for taint in (None, engine.taint_mask(cone_wires)):
            chain = ClosureChain(engine, taint)
            for literals in literal_sets:
                ids = engine.literals_of(literals.items())
                scratch = engine.close(ids, taint)
                split = rng.randint(0, len(ids))
                prefix = engine.close(ids[:split], taint)
                if prefix is None:
                    assert scratch is None
                else:
                    assert engine.close(ids[split:], taint, prefix) == scratch
                # The chain resumes from its previous sequence's prefix.
                assert chain.close(ids) == scratch
                assert chain.close(ids[:split]) == prefix
                assert chain.close(ids) == scratch
