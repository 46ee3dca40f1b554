"""The cycle-accurate simulator driving a compiled netlist.

The per-cycle contract (matching the paper's synchronous-circuit model):

1. the testbench computes this cycle's primary-input words from the current
   register state (external memories are addressed by registers);
2. optional SEU injection flips flip-flop Q bits *before* evaluation — the
   flipped value is what the combinational logic sees this cycle;
3. the compiled word-level step evaluates the combinational logic once; the
   wire values are recorded as a trace row only when tracing;
4. the testbench observes the output words (memory writes commit, halt is
   detected);
5. the D values become the next state.

A fault-free run can record :class:`Checkpoint` s — the cycle, the
flip-flop state and a testbench snapshot — into a :class:`CheckpointStore`;
a later run restores one with ``start=`` and simulates from there with the
same absolute cycle numbers, skipping the fault-free prefix.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass

import numpy as np

from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.sim.compiler import CompiledNetlist
from repro.sim.testbench import Testbench
from repro.synth.lower import bit_name
from repro.trace.trace import Trace

#: Register name → (reader, present DFF names). ``reader(state)`` assembles
#: the word; bits optimized away read as 0 and are not in the name tuple.
RegisterPlans = Mapping[str, tuple[Callable[[list[int]], int], tuple[str, ...]]]


class StateView:
    """Read-only register/FF view handed to testbenches."""

    def __init__(
        self, state: list[int], dff_index: dict[str, int], registers: RegisterPlans
    ) -> None:
        self._state = state
        self._dff_index = dff_index
        self._registers = registers

    def read_ff(self, name: str) -> int:
        """Current value of one flip-flop by DFF name."""
        return self._state[self._dff_index[name]]

    def read_reg(self, name: str) -> int:
        """Assemble a word-level register value from its DFF bits."""
        plan = self._registers.get(name)
        if plan is None:
            raise KeyError(f"unknown register {name!r}")
        return plan[0](self._state)


class RecordingStateView(StateView):
    """StateView that records which DFFs the testbench reads this cycle.

    ``read_reg`` records every *present* bit DFF of the word (bits optimized
    away read as constant 0 and cannot carry a fault, so they are not
    recorded). The recorded name sets feed the def-use analysis: a cycle in
    which the testbench reads a flip-flop is a *use* of that bit even when
    no netlist endpoint observes it.
    """

    def __init__(
        self,
        state: list[int],
        dff_index: dict[str, int],
        registers: RegisterPlans,
        sink: set[str],
    ) -> None:
        super().__init__(state, dff_index, registers)
        self._sink = sink

    def read_ff(self, name: str) -> int:
        value = self._state[self._dff_index[name]]
        self._sink.add(name)
        return value

    def read_reg(self, name: str) -> int:
        plan = self._registers.get(name)
        if plan is None:
            raise KeyError(f"unknown register {name!r}")
        self._sink.update(plan[1])
        return plan[0](self._state)


@dataclass(frozen=True)
class Checkpoint:
    """Fault-free simulation state at the start of one cycle."""

    cycle: int
    #: Flip-flop values in step order, one byte each.
    state: bytes
    #: The testbench's :meth:`~repro.sim.testbench.Testbench.snapshot`.
    testbench: object


class CheckpointStore:
    """Checkpoints of one fault-free run, at most :attr:`capacity` of them.

    Checkpoints are taken every :attr:`interval` cycles from cycle 0. When
    the store is full it drops every other checkpoint and doubles the
    interval, so memory stays bounded whatever the run length and the
    checkpoints stay evenly spaced.
    """

    capacity = 256

    def __init__(self) -> None:
        self.interval = 1
        self.checkpoints: list[Checkpoint] = []

    def __len__(self) -> int:
        return len(self.checkpoints)

    def add(self, cycle: int, state: list[int], snapshot: object) -> int:
        """Record the state at the start of ``cycle``; return the next cycle
        a checkpoint is due, or -1 when the testbench is not checkpointable
        (its ``snapshot()`` returned None)."""
        if snapshot is None:
            self.checkpoints.clear()
            return -1
        if len(self.checkpoints) == self.capacity:
            del self.checkpoints[1::2]
            self.interval *= 2
        self.checkpoints.append(Checkpoint(cycle, bytes(state), snapshot))
        return cycle + self.interval

    def at(self, cycle: int) -> Checkpoint | None:
        """The latest checkpoint at or before ``cycle`` (None if empty)."""
        if not self.checkpoints:
            return None
        return self.checkpoints[min(cycle // self.interval, len(self.checkpoints) - 1)]


class SimulationResult:
    """Outcome of a simulation run."""

    def __init__(
        self,
        trace: Trace | None,
        cycles: int,
        halted: bool,
        final_state: list[int],
        outputs_last: dict[str, int],
        reads: list[frozenset[str]] | None = None,
    ) -> None:
        self.trace = trace
        self.cycles = cycles
        self.halted = halted
        self.final_state = final_state
        self.outputs_last = outputs_last
        #: Per-cycle sets of DFF names the testbench read (``record_reads``).
        self.reads = reads

    def __repr__(self) -> str:
        status = "halted" if self.halted else "ran"
        return f"SimulationResult({status} after {self.cycles} cycles)"


class Simulator:
    """Runs testbench-driven (optionally fault-injected) simulations."""

    def __init__(
        self, netlist: Netlist, compiled: CompiledNetlist | None = None
    ) -> None:
        self.netlist = netlist
        self.compiled = compiled or CompiledNetlist(netlist)
        self.dff_index = {name: i for i, name in enumerate(self.compiled.dff_names)}
        self.input_widths = self.compiled.input_widths
        self.output_widths = self.compiled.output_widths
        self.reg_widths: dict[str, int] = dict(
            netlist.attributes.get("reg_widths") or {}  # type: ignore[arg-type]
        )
        self.registers: RegisterPlans = self._register_plans()

    def _register_plans(self) -> RegisterPlans:
        """One generated reader per register: ``s[i] | s[j] << 1 | …``."""
        plans: dict[str, tuple[Callable[[list[int]], int], tuple[str, ...]]] = {}
        for name, width in self.reg_widths.items():
            present = []
            for bit in range(width):
                dff_name = bit_name(name, bit, width)
                index = self.dff_index.get(dff_name)
                if index is not None:  # bits optimized away read as 0
                    present.append((bit, index, dff_name))
            terms = [f"s[{i}] << {bit}" if bit else f"s[{i}]" for bit, i, _ in present]
            reader = eval(f"lambda s: {' | '.join(terms) or '0'}")
            plans[name] = (reader, tuple(dff_name for *_, dff_name in present))
        return plans

    def view(self, state: list[int]) -> StateView:
        """A :class:`StateView` of ``state`` for driving a testbench."""
        return StateView(state, self.dff_index, self.registers)

    # ------------------------------------------------------------------
    def pack_inputs(self, words: Mapping[str, int]) -> list[int]:
        """Expand word-level input values to the netlist's input-bit list."""
        inputs = [0] * len(self.compiled.input_wires)
        for position, word, bit in self.compiled.input_order:
            inputs[position] = (words.get(word, 0) >> bit) & 1
        return inputs

    def unpack_outputs(self, outputs: tuple[int, ...]) -> dict[str, int]:
        """Assemble word-level output values from the output-bit tuple."""
        words: dict[str, int] = {}
        for (word, bit), value in zip(self.compiled.output_order, outputs):
            words[word] = words.get(word, 0) | (value << bit)
        return words

    # ------------------------------------------------------------------
    def run(
        self,
        testbench: Testbench | None = None,
        max_cycles: int = 10000,
        record_trace: bool = True,
        flips: Mapping[int, list[str]] | None = None,
        record_reads: bool = False,
        *,
        start: Checkpoint | None = None,
        checkpoints: CheckpointStore | None = None,
    ) -> SimulationResult:
        """Simulate up to ``max_cycles`` (or until the testbench halts).

        ``flips`` maps cycle → list of DFF names whose Q value is inverted
        at the start of that cycle (SEU injection). With ``record_reads``
        the result carries per-cycle sets of DFF names the testbench read.

        ``start`` restores a checkpoint (flip-flop state and testbench) and
        simulates from its cycle on; cycle numbers, ``max_cycles`` and the
        result's ``cycles`` stay absolute. ``checkpoints`` records
        checkpoints of this run, which must be fault-free and start from
        cycle 0, into a store.
        """
        testbench = testbench or Testbench()
        if start is None:
            first, state = 0, self.compiled.initial_state()
        else:
            if record_trace or record_reads:
                raise ValueError(
                    "a run restored from a checkpoint records no trace or reads"
                )
            if flips and min(flips) < start.cycle:
                raise ValueError(
                    f"flip at cycle {min(flips)} precedes the checkpoint at "
                    f"cycle {start.cycle}"
                )
            first, state = start.cycle, list(start.state)
            testbench.restore(start.testbench)
        step = self.compiled.word_step
        rows: list[tuple[int, ...]] | None = [] if record_trace else None
        reads: list[frozenset[str]] | None = [] if record_reads else None
        due = 0 if checkpoints is not None else -1
        halted = False
        out_words: dict[str, int] = {}
        cycle = first
        if reads is None:
            view = self.view(state)
        else:
            sink: set[str] = set()
            view = RecordingStateView(state, self.dff_index, self.registers, sink)
        # Instrumentation stays *outside* the per-cycle loop: one span and a
        # few counter increments per run (see benchmarks/test_bench_obs_overhead).
        with span("sim/run", netlist=self.netlist.name, injected=bool(flips)):
            for cycle in range(first, max_cycles):
                if cycle == due:
                    due = checkpoints.add(cycle, state, testbench.snapshot())
                if flips and cycle in flips:
                    for dff_name in flips[cycle]:
                        index = self.dff_index[dff_name]
                        state[index] ^= 1
                view._state = state
                if reads is None:
                    in_words = testbench.drive(cycle, view)
                else:
                    sink = view._sink = set()
                    in_words = testbench.drive(cycle, view)
                    reads.append(frozenset(sink))
                state, out_words = step(state, in_words, rows)
                if testbench.observe(cycle, out_words):
                    halted = True
                    cycle += 1
                    break
            else:
                cycle = max(first, max_cycles)
        counter("sim.runs").inc()
        counter("sim.cycles.simulated").inc(cycle - first)
        if first:
            counter("sim.cycles.restored").inc(first)
        if flips:
            counter("sim.runs.injected").inc()

        trace = None
        if rows is not None:
            matrix = np.array(rows, dtype=np.uint8) if rows else np.zeros(
                (0, len(self.compiled.trace_wires)), dtype=np.uint8
            )
            trace = Trace(self.compiled.trace_wires, matrix)
        return SimulationResult(trace, cycle, halted, state, out_words, reads=reads)
