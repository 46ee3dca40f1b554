"""Implication reasoning over netlist wires.

Two services used by the MATE search:

- :func:`forcing_ancestors` — *sufficient* conditions: which single wire
  literals force a given wire to a given value (controlling-value chains
  through AND/OR/INV/decoder gates). These let a killer term like
  ``write_enable_r5 = 0`` be re-expressed as the single upstream literal
  ``in_exec = 0`` that forces *many* such enables at once.
- :class:`ImplicationEngine` — a forward/backward constant-propagation
  fixpoint: given a set of candidate literals, derive every wire value
  they imply (and detect contradictions). The exact masking check uses
  the closure so that one literal kills every gate it forces shut, and so
  that cone wires whose values are *forced* by the candidate (hence
  independent of the fault) count as clean. Closures run over dense wire
  ids with one table lookup per gate visit, and resume from the closure
  of a literal prefix (:class:`ClosureChain`).
"""

from __future__ import annotations

from array import array
from collections.abc import Iterable
from functools import lru_cache

from repro.cells.functions import BoolFunc
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist


@lru_cache(maxsize=None)
def _forcing_pins(function: BoolFunc, value: int) -> tuple[tuple[str, int], ...]:
    """Pins whose single assignment forces the function to ``value``."""
    result = []
    for pin in function.pins:
        for pin_value in (0, 1):
            cofactor = function.cofactor(pin, pin_value)
            rows = 1 << len(function.pins)
            constant = (1 << rows) - 1 if value else 0
            if cofactor.table == constant:
                result.append((pin, pin_value))
    return tuple(result)


def forcing_ancestors(
    netlist: Netlist, wire: str, value: int, depth: int = 4
) -> list[tuple[str, int]]:
    """Single literals that are each *sufficient* for ``wire == value``.

    The result always contains ``(wire, value)`` itself; further entries
    are found by walking controlling values backwards through drivers up
    to ``depth`` gates.
    """
    drivers = netlist.driver_map()
    found: list[tuple[str, int]] = []
    seen: set[tuple[str, int]] = set()
    # Breadth-first, so shallow ancestors come first but deep dominating
    # literals (state/flush bits) are still reached within the budget.
    queue: list[tuple[str, int, int]] = [(wire, value, depth)]
    while queue:
        current_wire, current_value, budget = queue.pop(0)
        if (current_wire, current_value) in seen:
            continue
        seen.add((current_wire, current_value))
        found.append((current_wire, current_value))
        if budget == 0:
            continue
        driver = drivers.get(current_wire)
        if not isinstance(driver, Gate):
            continue
        cell = netlist.library[driver.cell]
        assert cell.function is not None
        for pin, pin_value in _forcing_pins(cell.function, current_value):
            pin_wire = driver.inputs[pin]
            if pin_wire in (CONST0, CONST1):
                continue
            queue.append((pin_wire, pin_value, budget - 1))
    return found


#: Value byte of a wire a closure has not learned (learned ones hold 0/1).
UNKNOWN = 2

#: A literal over dense wire ids: ``(wire id, value)``.
IdLiteral = tuple[int, int]

#: Facts one gate implies: ``(slot, value)`` pairs, where slot ``-1`` is
#: the output and the others are pin indices.
Facts = tuple[tuple[int, int], ...]

#: Per cell function: table key -> implied facts, or ``None`` for a
#: contradiction. A key packs the value bytes of the pins (in pin order)
#: and then of the output in base 3, so a function of ``n`` pins has at
#: most ``3 ** (n + 1)`` rows. Filled lazily; shared by every engine.
_FACT_TABLES: dict[BoolFunc, dict[int, Facts | None]] = {}


def _derive_facts(function: BoolFunc, key: int) -> Facts | None:
    """The facts one gate implies locally in the state packed in ``key``.

    With the output unknown only the *forward* fact is derived: the output,
    if every row consistent with the known pins agrees on it. With the
    output known, the unknown pins that every consistent row agrees on.
    The taint rule for those backward pin facts is the caller's.
    """
    output = key % 3
    pins: list[int] = []
    for _ in function.pins:
        key //= 3
        pins.append(key % 3)
    pins.reverse()
    rows = [
        row
        for row in range(1 << len(pins))
        if all(
            value == UNKNOWN or (row >> index) & 1 == value
            for index, value in enumerate(pins)
        )
        and (output == UNKNOWN or function.evaluate_row(row) == output)
    ]
    if not rows:
        return None
    if output == UNKNOWN:
        outputs = {function.evaluate_row(row) for row in rows}
        return ((-1, outputs.pop()),) if len(outputs) == 1 else ()
    facts = []
    for index, value in enumerate(pins):
        if value == UNKNOWN:
            seen = {(row >> index) & 1 for row in rows}
            if len(seen) == 1:
                facts.append((index, seen.pop()))
    return tuple(facts)


class ImplicationEngine:
    """Constant-propagation closure over one netlist, on dense wire ids.

    A closure is a ``bytearray`` with one byte per wire id (0, 1 or
    :data:`UNKNOWN`); ids 0 and 1 are the constant wires, preset. It is
    the least fixpoint of the gates' local implications, so it does not
    depend on the order facts are learned in: the closure of a longer
    literal sequence may resume from the closure of a prefix
    (:meth:`close` with ``base``, :class:`ClosureChain`).

    *Tainted* wires (a fault cone) are only ever learned **forward**
    (output forced irrespective of every unknown input): a forced value
    holds in the faulty circuit too, while a backward inference about a
    tainted wire would hold only in the golden one.
    """

    def __init__(self, netlist: Netlist) -> None:
        self.netlist = netlist
        names = [CONST0, CONST1, *sorted(netlist.wires() - {CONST0, CONST1})]
        self._names = names
        self._ids = {wire: index for index, wire in enumerate(names)}
        blank = bytearray([UNKNOWN]) * len(names)
        blank[0], blank[1] = 0, 1
        self._blank = bytes(blank)
        self._no_taint = bytes(len(names))
        #: Per gate id: (its function's fact table, input wire ids in pin
        #: order, output id, function).
        self._gates: list[tuple[dict, tuple[int, ...], int, BoolFunc]] = []
        #: Per wire id: the gates reading or driving it.
        self._neighbours: list[list[int]] = [[] for _ in names]
        for gate in netlist.gates.values():
            function = netlist.library[gate.cell].function
            assert function is not None
            inputs = tuple(self._ids[gate.inputs[pin]] for pin in function.pins)
            output = self._ids[gate.output]
            for wire in {*inputs, output} - {0, 1}:
                self._neighbours[wire].append(len(self._gates))
            self._gates.append(
                (_FACT_TABLES.setdefault(function, {}), inputs, output, function)
            )
        #: Untainted closures of killer terms, as ``2 * id + value`` codes
        #: (a few hundred bytes each).
        self._term_codes: dict[tuple[tuple[str, int], ...], array | None] = {}
        self._term_pairs: dict[
            tuple[tuple[str, int], ...], frozenset[tuple[str, int]] | None
        ] = {}

    # -- ids -----------------------------------------------------------
    def wire_id(self, wire: str) -> int:
        """Dense id of a netlist wire (``KeyError`` for any other name)."""
        return self._ids[wire]

    def literals_of(self, literals: Iterable[tuple[str, int]]) -> list[IdLiteral]:
        """``(wire, value)`` literals as ``(wire id, value)`` pairs."""
        ids = self._ids
        return [(ids[wire], value) for wire, value in literals]

    def taint_mask(self, wires: Iterable[str]) -> bytes:
        """Byte per wire id, 1 for each wire of ``wires`` (a fault cone)."""
        mask = bytearray(len(self._names))
        for wire in wires:
            mask[self._ids[wire]] = 1
        return bytes(mask)

    # -- closures ------------------------------------------------------
    def close(
        self,
        literals: Iterable[IdLiteral],
        taint: bytes | None = None,
        base: bytes | bytearray | None = None,
    ) -> bytearray | None:
        """Closure of ``literals``; ``None`` on contradiction.

        ``base`` is the closure of a literal prefix under the same
        ``taint``; only the new literals are then propagated.
        """
        values = bytearray(self._blank if base is None else base)
        learned = self._fixpoint(values, literals, taint or self._no_taint)
        return None if learned is None else values

    def propagate(
        self, literals: dict[str, int], tainted: frozenset[str] = frozenset()
    ) -> dict[str, int] | None:
        """Implication closure of ``literals`` by wire name (constants
        left out); ``None`` on contradiction."""
        values = bytearray(self._blank)
        learned = self._fixpoint(
            values,
            self.literals_of(literals.items()),
            self.taint_mask(tainted) if tainted else self._no_taint,
        )
        if learned is None:
            return None
        return {self._names[wire]: values[wire] for wire in learned}

    def term_closure(self, term: tuple[tuple[str, int], ...]) -> array | None:
        """Cached untainted closure of a literal tuple as codes
        ``2 * wire id + value``; ``None`` marks an unsatisfiable term."""
        if term in self._term_codes:
            return self._term_codes[term]
        values = bytearray(self._blank)
        learned = self._fixpoint(values, self.literals_of(term), self._no_taint)
        codes = None
        if learned is not None:
            codes = array("i", [2 * wire + values[wire] for wire in learned])
        self._term_codes[term] = codes
        return codes

    def closure_of_term(
        self, term: tuple[tuple[str, int], ...]
    ) -> frozenset[tuple[str, int]] | None:
        """Cached untainted closure of a literal tuple, as literal pairs.

        A term *covers* every other term its closure implies. ``None``
        marks an unsatisfiable term.
        """
        if term not in self._term_pairs:
            codes = self.term_closure(term)
            names = self._names
            self._term_pairs[term] = None if codes is None else frozenset(
                (names[code >> 1], code & 1) for code in codes
            )
        return self._term_pairs[term]

    def _fixpoint(
        self, values: bytearray, literals: Iterable[IdLiteral], taint: bytes
    ) -> list[int] | None:
        """Learn ``literals`` into ``values`` and run the gate worklist to
        its fixpoint in place; the wire ids learned, or ``None`` on a
        contradiction. Each wire is learned at most once, so it ends."""
        gates = self._gates
        neighbours = self._neighbours
        # One spare flag: ``gate`` starts as that slot, not a gate id.
        gate = len(gates)
        queued = bytearray(gate + 1)
        worklist: list[int] = []
        learned: list[int] = []
        pending = list(literals)
        while True:
            for wire, value in pending:
                known = values[wire]
                if known != UNKNOWN:
                    if known != value:
                        return None
                    continue
                values[wire] = value
                learned.append(wire)
                for reader in neighbours[wire]:
                    if not queued[reader]:
                        queued[reader] = 1
                        worklist.append(reader)
            # A gate's own facts hold in every row it still found
            # consistent, so learning them cannot teach it more: it stays
            # flagged as queued until they are learned.
            queued[gate] = 0
            if not worklist:
                return learned
            gate = worklist.pop()
            table, inputs, output, function = gates[gate]
            key = 0
            for wire in inputs:
                key = key * 3 + values[wire]
            key = key * 3 + values[output]
            try:
                facts = table[key]
            except KeyError:
                facts = table[key] = _derive_facts(function, key)
            if not facts:
                if facts is None:
                    return None
                pending = ()
                continue
            pending = [
                (output, value) if slot < 0 else (inputs[slot], value)
                for slot, value in facts
                if slot < 0 or not taint[inputs[slot]]
            ]


class ClosureChain:
    """Closures of every prefix of the last literal sequence closed.

    Closing a sequence resumes from the closure of the longest prefix it
    shares with the previous one, so a candidate that grows one term at a
    time, or a run of combinations sharing their leading terms, propagates
    only its new literals. Only the one chain is kept.
    """

    def __init__(self, engine: ImplicationEngine, taint: bytes | None = None) -> None:
        self._engine = engine
        self._taint = taint
        self._literals: list[IdLiteral] = []
        #: ``_states[i]`` closes ``_literals[: i + 1]`` (``None``: contradiction).
        self._states: list[bytearray | None] = []

    def close(self, literals: list[IdLiteral]) -> bytes | bytearray | None:
        """Closure of ``literals`` (read-only); ``None`` on contradiction."""
        shared = 0
        limit = min(len(literals), len(self._literals))
        while shared < limit and literals[shared] == self._literals[shared]:
            shared += 1
        del self._literals[shared:], self._states[shared:]
        state = self._states[-1] if shared else self._engine._blank
        for literal in literals[shared:]:
            if state is not None:
                state = self._engine.close((literal,), self._taint, state)
            self._literals.append(literal)
            self._states.append(state)
        return state
