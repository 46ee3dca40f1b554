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

:meth:`Simulator.run_lanes` simulates many injections in one pass over
lane vectors (bit *k* of a state value is lane *k*): lane 0 runs
fault-free and drives the one shared testbench, and each other lane gets
one SEU. A lane is *peeled* — handed back as a :class:`Checkpoint` at the
start of the cycle — as soon as the testbench would see it differ from
lane 0, in a register it reads or in an output word.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from repro.netlist.netlist import Netlist
from repro.obs import counter, span
from repro.sim.compiler import CompiledNetlist
from repro.sim.testbench import Testbench
from repro.synth.lower import bit_name

if TYPE_CHECKING:
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


#: Register name → ``reader(lanes) -> (lane 0's word, lanes that differ)``.
LaneRegisters = Mapping[str, Callable[[list[int]], tuple[int, int]]]


class LaneStateView:
    """Register/FF view of lane vectors handed to testbenches: reads
    return lane 0's value and add the lanes that read something else to
    :attr:`diverged`."""

    def __init__(
        self, state: list[int], dff_index: dict[str, int], registers: LaneRegisters
    ) -> None:
        self._state = state
        self._dff_index = dff_index
        self._registers = registers
        #: Lanes whose reads differed from lane 0's (unmasked: bits above
        #: the lane mask may be set).
        self.diverged = 0

    def read_ff(self, name: str) -> int:
        word = self._state[self._dff_index[name]]
        bit = word & 1
        self.diverged |= word ^ -bit
        return bit

    def read_reg(self, name: str) -> int:
        reader = self._registers.get(name)
        if reader is None:
            raise KeyError(f"unknown register {name!r}")
        value, diverged = reader(self._state)
        self.diverged |= diverged
        return value


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


class LaneResult:
    """Outcome of a :meth:`Simulator.run_lanes` bundle."""

    def __init__(
        self,
        cycles: int,
        halted: bool,
        state: list[int],
        outputs_last: dict[str, int],
        peeled: dict[int, Checkpoint],
    ) -> None:
        self.cycles = cycles
        self.halted = halted
        #: Final lane vectors, one per flip-flop.
        self.state = state
        #: Lane 0's output words of the last simulated cycle.
        self.outputs_last = outputs_last
        #: Lane → its state (flip applied) and the testbench snapshot at
        #: the start of the cycle it diverged in.
        self.peeled = peeled

    def lane(self, lane: int) -> SimulationResult:
        """The result of a lane that was never peeled (lane 0: golden)."""
        state = [(word >> lane) & 1 for word in self.state]
        return SimulationResult(
            None, self.cycles, self.halted, state, self.outputs_last
        )


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

    @cached_property
    def lane_registers(self) -> LaneRegisters:
        """Lane twins of :attr:`registers`: ``reader(lanes) -> (lane 0's
        value, lanes that differ from it)``, the lane mask unapplied."""
        readers = {}
        for name, width in self.reg_widths.items():
            values, diverged = [], []
            for bit in range(width):
                index = self.dff_index.get(bit_name(name, bit, width))
                if index is not None:
                    lane0 = f"(s[{index}] & 1)"
                    values.append(f"{lane0} << {bit}" if bit else lane0)
                    diverged.append(f"(s[{index}] ^ -{lane0})")
            value = " | ".join(values) or "0"
            readers[name] = eval(
                f"lambda s: ({value}, {' | '.join(diverged) or '0'})"
            )
        return readers

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
        if checkpoints is not None and (flips or start is not None):
            raise ValueError(
                "checkpoints record a fault-free run from cycle 0: "
                "no flips and no start"
            )
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
            # Imported here: only tracing runs need numpy, injection never.
            import numpy as np

            from repro.trace.trace import Trace

            matrix = np.array(rows, dtype=np.uint8) if rows else np.zeros(
                (0, len(self.compiled.trace_wires)), dtype=np.uint8
            )
            trace = Trace(self.compiled.trace_wires, matrix)
        return SimulationResult(trace, cycle, halted, state, out_words, reads=reads)

    def run_lanes(
        self,
        testbench: Testbench,
        start: Checkpoint,
        injections: Sequence[tuple[str, int]],
        max_cycles: int,
    ) -> LaneResult:
        """Simulate ``injections`` (DFF name, cycle) as lanes 1… of one pass.

        The run restores ``start`` and steps every lane with
        :attr:`CompiledNetlist.lane_step`; lane 0 stays fault-free and
        lane *k* has injection *k - 1* flipped in at the start of its cycle
        (none may precede ``start``). The testbench is driven and observes
        through lane 0 only. A lane whose register reads or output words
        differ from lane 0's in some cycle is peeled: it stops being
        checked and its state at the start of that cycle, flip included,
        is returned with a testbench snapshot taken before that cycle's
        ``drive``. Every other lane showed the testbench exactly what
        lane 0 did, so it ends with lane 0's testbench and halt cycle.

        The run ends when lane 0 halts, at ``max_cycles``, or once every
        injected lane has been peeled.
        """
        lanes = len(injections) + 1
        mask = (1 << lanes) - 1
        flips: dict[int, list[tuple[int, int]]] = {}
        for lane, (dff_name, cycle) in enumerate(injections, 1):
            if cycle < start.cycle:
                raise ValueError(
                    f"flip at cycle {cycle} precedes the checkpoint at "
                    f"cycle {start.cycle}"
                )
            flips.setdefault(cycle, []).append((self.dff_index[dff_name], 1 << lane))
        last_flip = max(flips, default=start.cycle)
        first = start.cycle
        state = [mask if bit else 0 for bit in start.state]
        testbench.restore(start.testbench)
        step = self.compiled.lane_step
        view = LaneStateView(state, self.dff_index, self.lane_registers)
        live = 0
        peeled: dict[int, Checkpoint] = {}
        halted = False
        out_words: dict[str, int] = {}
        cycle = first
        # As in run(): instrumentation once per bundle, never per cycle.
        with span("sim/run-lanes", netlist=self.netlist.name, lanes=lanes):
            for cycle in range(first, max_cycles):
                hits = flips.get(cycle)
                if hits:
                    for index, bit in hits:
                        state[index] ^= bit
                        live |= bit
                elif not live and cycle > last_flip:
                    break
                snapshot = testbench.snapshot() if live else None
                view._state = state
                view.diverged = 0
                in_words = testbench.drive(cycle, view)
                next_state, out_words, diverged = step(state, in_words, mask)
                diverged = (diverged | view.diverged) & live
                if diverged:
                    live ^= diverged
                    while diverged:
                        low = diverged & -diverged
                        diverged ^= low
                        lane = low.bit_length() - 1
                        peeled[lane] = Checkpoint(
                            cycle, bytes((word >> lane) & 1 for word in state),
                            snapshot,
                        )
                state = next_state
                if testbench.observe(cycle, out_words):
                    halted = True
                    cycle += 1
                    break
            else:
                cycle = max(first, max_cycles)
        counter("sim.lanes.runs").inc()
        counter("sim.lanes.cycles").inc(cycle - first)
        counter("sim.lanes.peeled").inc(len(peeled))
        counter("sim.lanes.survived").inc(len(injections) - len(peeled))
        return LaneResult(cycle, halted, state, out_words, peeled)
