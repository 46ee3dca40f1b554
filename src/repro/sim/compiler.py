"""Netlist → straight-line Python compilation.

Simulating a few thousand gates for ~10⁴ cycles in interpreted Python is
only tractable if the per-gate dispatch disappears. We therefore compile the
levelized combinational logic into one generated Python function of local
integer operations (the same trick netlist simulators play with code
generation), which evaluates a full cycle in a single call.

Three entry points share the generated gate code:

- :attr:`CompiledNetlist.word_step` ``(state, in_words) -> (next_state,
  out_words)`` is word-level: it unpacks the input words and packs the
  output words. It is compiled eagerly and is the only function
  :class:`repro.sim.Simulator` calls, so a process that just simulates
  compiles exactly one function.
- :attr:`CompiledNetlist.step` ``(state, inputs) -> (next_state, outputs,
  row)`` is bit-level, for netlist-level callers that feed recorded input
  bits (``core.verify``, ``core.multicycle``, ``hafi.online``); its row of
  every traced wire is the independent scalar reference for recorded
  traces. It is compiled lazily, on first access.
- :attr:`CompiledNetlist.lane_step` ``(state, in_words, mask) ->
  (next_state, out_words, diverged)`` is bit-parallel: each state value is
  a vector of lanes (one fault-injected run per bit), for
  :meth:`repro.sim.Simulator.run_lanes`. It is compiled lazily, on first
  access.

The gate code comes from the cell expression table of
:mod:`repro.cells.expressions`. Its :func:`~repro.cells.expressions.lane_function`
renders one cell as ``f(mask, *pins)`` over bit-parallel vectors;
:meth:`CompiledNetlist.derive_vectors` derives a recorded trace's gate
outputs with it.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from functools import cached_property

from repro.cells.expressions import (
    LANE_TEMPLATES,
    MASK,
    TEMPLATES,
    cell_expression,
    lane_function,
)
from repro.netlist.netlist import CONST0, CONST1, Gate, Netlist
from repro.netlist.validate import validate_netlist
from repro.obs import counter, span
from repro.synth.lower import bit_name

#: ``bytes.translate`` table turning 0/1 bytes into ASCII ``0``/``1``.
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


def _bits_vector(bits: bytes) -> int:
    """The int whose bit ``c`` is ``bits[c]`` (each byte 0 or 1)."""
    return int(bits.translate(_ASCII_BITS)[::-1], 2) if bits else 0


class CompiledNetlist:
    """A netlist compiled to executable single-cycle step functions."""

    def __init__(self, netlist: Netlist) -> None:
        with span("sim/compile", netlist=netlist.name):
            validate_netlist(netlist)
            self.netlist = netlist
            self.input_wires: list[str] = list(netlist.inputs)
            self.dffs = list(netlist.dffs.values())
            self.dff_names: list[str] = [dff.name for dff in self.dffs]
            self.output_wires: list[str] = list(netlist.outputs)

            # Word-level port map (one 1-bit word per wire when absent).
            self.input_widths: dict[str, int] = dict(
                netlist.attributes.get("input_widths")  # type: ignore[arg-type]
                or {wire: 1 for wire in netlist.inputs}
            )
            self.output_widths: dict[str, int] = dict(
                netlist.attributes.get("output_widths")  # type: ignore[arg-type]
                or {wire: 1 for wire in netlist.outputs}
            )
            input_positions = {wire: i for i, wire in enumerate(self.input_wires)}
            #: (input-wire position, word, bit) for every input word bit.
            self.input_order: list[tuple[int, str, int]] = []
            for word, width in self.input_widths.items():
                for bit in range(width):
                    wire = bit_name(word, bit, width)
                    position = input_positions.get(wire)
                    if position is None:
                        raise ValueError(f"input wire {wire} missing from netlist")
                    self.input_order.append((position, word, bit))
            #: (word, bit) of each output wire, in output-wire order.
            self.output_order: list[tuple[str, int]] = [
                (word, bit)
                for word, width in self.output_widths.items()
                for bit in range(width)
            ]

            # Trace column order: constants, inputs, FF Q wires, gate outputs.
            self._topo = netlist.topological_gates()
            self.trace_wires: list[str] = [CONST0, CONST1]
            self.trace_wires.extend(self.input_wires)
            self.trace_wires.extend(dff.q for dff in self.dffs)
            seen = set(self.trace_wires)
            for gate in self._topo:
                if gate.output not in seen:
                    self.trace_wires.append(gate.output)
                    seen.add(gate.output)

            self._var_of: dict[str, str] = {CONST0: "0", CONST1: "1"}
            self.word_step = self._compile_word_step()
        counter("sim.compile.netlists").inc()
        counter("sim.compile.gates").inc(len(self._topo))

    # ------------------------------------------------------------------
    def _var(self, wire: str) -> str:
        var = self._var_of.get(wire)
        if var is None:
            var = f"v{len(self._var_of)}"
            self._var_of[wire] = var
        return var

    def _ref(self, wire: str, one: str) -> str:
        """The expression reading ``wire``, with the constant one as ``one``."""
        return one if wire == CONST1 else self._var(wire)

    def _gate_expression(self, gate: Gate, templates: dict, one: str) -> str:
        env = {pin: self._ref(wire, one) for pin, wire in gate.inputs.items()}
        return cell_expression(self.netlist.library[gate.cell], env, templates, one)

    def _body(self, templates: dict = TEMPLATES, one: str = "1") -> list[str]:
        """State unpacking plus one line per gate, in topological order."""
        lines = []
        if self.dffs:
            targets = ", ".join(self._var(dff.q) for dff in self.dffs)
            lines.append(f"    {targets}, = state")
        for gate in self._topo:
            expression = self._gate_expression(gate, templates, one)
            lines.append(f"    {self._var(gate.output)} = {expression}")
        return lines

    def _row(self) -> str:
        return "(" + ", ".join(self._var(w) for w in self.trace_wires) + ",)"

    def _next_state(self, one: str = "1") -> str:
        return "[" + ", ".join(self._ref(dff.d, one) for dff in self.dffs) + "]"

    def _exec(self, lines: list[str]):
        source = "\n".join(lines)
        namespace: dict[str, object] = {}
        exec(compile(source, f"<compiled {self.netlist.name}>", "exec"), namespace)
        return namespace["step"]

    def _unpack_inputs(self, bit: Callable[[str], str]) -> list[str]:
        """Lines setting every input wire from ``in_words``; ``bit(word)``
        renders one input bit from the word shifted down to that bit."""
        lines = ["    get = in_words.get"]
        assigned = set()
        words: dict[str, list[tuple[int, int]]] = {}
        for position, word, index in self.input_order:
            words.setdefault(word, []).append((position, index))
        for number, (word, bits) in enumerate(words.items()):
            lines.append(f"    w{number} = get({word!r}, 0)")
            for position, index in bits:
                wire = self.input_wires[position]
                shifted = f"w{number} >> {index}" if index else f"w{number}"
                lines.append(f"    {self._var(wire)} = {bit(shifted)}")
                assigned.add(wire)
        for wire in self.input_wires:
            if wire not in assigned:  # not part of any input word
                lines.append(f"    {self._var(wire)} = 0")
        return lines

    def _packed_outputs(self, bit: Callable[[str], str], one: str = "1") -> str:
        """Dict display of the output words; ``bit(value)`` renders one
        output bit from the wire's value."""
        packed: dict[str, list[str]] = {}
        for (word, index), wire in zip(self.output_order, self.output_wires):
            value = bit(self._ref(wire, one))
            packed.setdefault(word, []).append(
                f"({value} << {index})" if index else value
            )
        words = ", ".join(
            f"{word!r}: {' | '.join(terms)}" for word, terms in packed.items()
        )
        return f"{{{words}}}"

    def _compile_word_step(self):
        lines = ["def step(state, in_words):"]
        lines.extend(self._unpack_inputs(lambda word: f"({word}) & 1"))
        lines.extend(self._body())
        out_words = self._packed_outputs(lambda value: value)
        lines.append(f"    return {self._next_state()}, {out_words}")
        return self._exec(lines)

    @cached_property
    def step(self):
        """Bit-level ``step(state, inputs) -> (next_state, outputs, row)``."""
        lines = ["def step(state, inputs):"]
        for index, wire in enumerate(self.input_wires):
            lines.append(f"    {self._var(wire)} = inputs[{index}]")
        lines.extend(self._body())
        outputs = ", ".join(self._var(wire) for wire in self.output_wires)
        outputs_tuple = f"({outputs},)" if outputs else "()"
        lines.append(f"    return {self._next_state()}, {outputs_tuple}, {self._row()}")
        return self._exec(lines)

    @cached_property
    def lane_step(self):
        """Bit-parallel ``lane_step(state, in_words, mask) -> (next_state,
        out_words, diverged)``.

        Every state value is a lane vector: bit *k* of ``state[i]`` is
        flip-flop *i* in lane *k*, and ``mask`` has one bit set per lane.
        Input words are broadcast to all lanes; ``out_words`` are packed
        from lane 0 and ``diverged`` is the mask of lanes whose output
        bits differ from lane 0's. Compiled on first access from the same
        gate code as :attr:`word_step`.
        """
        lines = [f"def step(state, in_words, {MASK}):"]
        lines.extend(self._unpack_inputs(lambda word: f"{MASK} if {word} & 1 else 0"))
        lines.extend(self._body(LANE_TEMPLATES, MASK))
        outputs = {self._var(wire) for wire in self.output_wires} - {"0", "1"}
        diverged = " | ".join(f"({var} ^ -({var} & 1))" for var in sorted(outputs))
        lines.append(f"    diverged = ({diverged or '0'}) & {MASK}")
        out_words = self._packed_outputs(lambda value: f"({value} & 1)", MASK)
        lines.append(f"    return {self._next_state(MASK)}, {out_words}, diverged")
        return self._exec(lines)

    def derive_vectors(
        self, states: Sequence[bytes], in_words: Sequence[Mapping[str, int]]
    ) -> list[int]:
        """Cycle vectors of every traced wire, in :attr:`trace_wires` order.

        ``states[c]`` is the flip-flop state cycle ``c`` evaluated (one byte
        per flip-flop, as in a checkpoint) and ``in_words[c]`` its input
        words. The flip-flop and input columns are transposed into cycle
        vectors, then every gate is evaluated once over all cycles in
        topological order with :func:`lane_function`, the gate table of
        :attr:`lane_step`.
        """
        mask = (1 << len(states)) - 1
        values: dict[str, int] = {CONST0: 0, CONST1: mask}
        flat, width = b"".join(states), len(self.dffs)
        for index, dff in enumerate(self.dffs):
            values[dff.q] = _bits_vector(flat[index::width])
        for wire in self.input_wires:
            values[wire] = 0  # not part of any input word
        columns: dict[str, list[int]] = {}
        for position, word, bit in self.input_order:
            column = columns.get(word)
            if column is None:
                column = columns[word] = [words.get(word, 0) for words in in_words]
            bits = bytes([(value >> bit) & 1 for value in column])
            values[self.input_wires[position]] = _bits_vector(bits)
        library = self.netlist.library
        for gate in self._topo:
            cell = library[gate.cell]
            pins = [values[gate.inputs[pin]] for pin in cell.inputs]
            values[gate.output] = lane_function(cell)(mask, *pins)
        return [values[wire] for wire in self.trace_wires]

    # ------------------------------------------------------------------
    def initial_state(self) -> list[int]:
        """Reset values of all flip-flops, in step() order."""
        return [dff.init for dff in self.dffs]

    @property
    def num_state_bits(self) -> int:
        """Number of flip-flops."""
        return len(self.dffs)


def compile_netlist(netlist: Netlist) -> CompiledNetlist:
    """Compile a netlist once; reuse the result for many runs."""
    return CompiledNetlist(netlist)
