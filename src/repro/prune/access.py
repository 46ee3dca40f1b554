"""Per-cycle def-use access events, bit-parallel over the golden trace.

For one fault wire ``w`` (a flip-flop Q output) and every cycle ``c`` of the
golden run, we ask: if the machine state at the start of ``c`` were exactly
the golden state with bit ``w`` flipped, where does the difference go during
``c``? The answer is one of three *events*:

- ``'e'`` (**escape**) — the difference reaches another flip-flop's D pin, a
  primary output, or the testbench read ``w`` that cycle. The fault becomes
  observable or multi-bit; static reasoning stops here.
- ``'h'`` (**hold**) — no escape, and ``w``'s own D value differs from
  golden. Since golden D at ``c`` is golden Q at ``c+1``, the faulty next
  state is again *golden with bit ``w`` flipped*: injecting at ``c`` is
  bit-for-bit equivalent to injecting at ``c+1``.
- ``'k'`` (**kill**) — no escape, and ``w``'s own D matches golden: the
  flip is overwritten and the run reconverges with the golden run.

Every cycle's evaluation depends only on the golden trace (all cone border
wires carry golden values), so all cycles are evaluated at once. Each wire
is one *cycle vector*: a Python int whose bit ``c`` is the wire's value in
cycle ``c``. The faulty Q vector is the golden one with every bit flipped;
each gate the difference reaches is evaluated once with bitwise ops, by the
same per-cell lane functions the bit-parallel simulator step is generated
from (:func:`repro.cells.expressions.lane_function`). Gates are visited
from the fault wire through the reader map in topological order, and only while the
difference survives: a gate whose output equals golden in every cycle
stops the walk, which is exact because its readers then see golden inputs.
"""

from __future__ import annotations

from collections.abc import Sequence
from heapq import heappop, heappush

from repro.cells.expressions import lane_function
from repro.netlist.netlist import Netlist
from repro.trace.trace import Trace

#: Event codes (one character per cycle).
EVENT_ESCAPE = "e"
EVENT_HOLD = "h"
EVENT_KILL = "k"


#: '0'/'1' digits to byte values 0/1.
_DIGIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")
#: Per-cycle ``2 * escape + hold`` byte to its event code.
_EVENT_CODES = bytes.maketrans(
    b"\x00\x01\x02\x03", (EVENT_KILL + EVENT_HOLD + EVENT_ESCAPE * 2).encode()
)


def _byte_per_cycle(vector: int, num_cycles: int) -> int:
    """A cycle vector spread to one byte per cycle (cycle 0 the last byte)."""
    digits = format(vector, f"0{num_cycles}b").encode()
    return int.from_bytes(digits.translate(_DIGIT_VALUES), "big")


class EventClassifier:
    """Per-cycle event strings of a netlist's flip-flops over one golden trace.

    ``trace`` is the golden campaign trace (halting run, every wire
    recorded); ``reads`` the per-cycle DFF-name sets the testbench read
    during that same run (see ``Simulator.run(record_reads=True)``) — when
    omitted, testbench reads are not treated as uses, which is only sound
    for testbenches that never read state. :meth:`events` costs one walk
    per flip-flop over the trace's cycle vectors.
    """

    def __init__(
        self,
        netlist: Netlist,
        trace: Trace,
        reads: Sequence[frozenset[str]] | None = None,
    ) -> None:
        num_cycles = trace.num_cycles
        if reads is not None and len(reads) != num_cycles:
            raise ValueError(
                f"reads length {len(reads)} != trace cycles {num_cycles}"
            )
        self.netlist = netlist
        self.num_cycles = num_cycles
        self.mask = (1 << num_cycles) - 1
        self._golden = [trace.vector(wire) for wire in trace.wire_names]
        self._column = column = trace.column_index

        #: Per topological position: (lane function, input columns, output).
        self._gates: list[tuple] = []
        #: Column -> topological positions of the gates reading it.
        self._readers: dict[int, list[int]] = {}
        for position, gate in enumerate(netlist.topological_gates()):
            cell = netlist.library[gate.cell]
            inputs = tuple(column(gate.inputs[pin]) for pin in cell.inputs)
            self._gates.append((lane_function(cell), inputs, column(gate.output)))
            for wire in set(inputs):
                self._readers.setdefault(wire, []).append(position)

        #: Column -> the endpoint roles it plays: the name of each flip-flop
        #: whose D it is, and ``None`` once per primary output.
        self._roles: dict[int, list[str | None]] = {}
        for dff in netlist.dffs.values():
            self._roles.setdefault(column(dff.d), []).append(dff.name)
        for wire in netlist.outputs:
            self._roles.setdefault(column(wire), []).append(None)

        #: Flip-flop name -> cycle vector of the cycles the testbench read it.
        self._reads: dict[str, int] = {}
        for cycle, cycle_reads in enumerate(reads or ()):
            for name in cycle_reads:
                self._reads[name] = self._reads.get(name, 0) | (1 << cycle)

    def events(self, dff_name: str) -> str:
        """Per-cycle event string (``'e'``/``'h'``/``'k'``) for one flip-flop."""
        dff = self.netlist.dffs[dff_name]
        mask, golden, gates, readers = (
            self.mask, self._golden, self._gates, self._readers
        )
        values = golden.copy()
        fault = self._column(dff.q)
        values[fault] ^= mask
        changed = [fault]
        queue = list(readers.get(fault, ()))  # ascending, so already a heap
        queued = set(queue)
        while queue:
            function, inputs, output = gates[heappop(queue)]
            value = function(mask, *[values[wire] for wire in inputs])
            if value != values[output]:
                values[output] = value
                changed.append(output)
                for position in readers.get(output, ()):
                    if position not in queued:
                        queued.add(position)
                        heappush(queue, position)

        # Escapes are per *role*, not per wire: a wire may drive several DFF
        # D pins and outputs at once, and ``w``'s own D role is the hold
        # signal, never an escape.
        escape = self._reads.get(dff_name, 0)
        hold = 0
        for wire in changed:
            difference = values[wire] ^ golden[wire]
            for role in self._roles.get(wire, ()):
                if role == dff_name:
                    hold |= difference
                else:
                    escape |= difference
        # An escape wins over a hold in the same cycle: each cycle's byte
        # is 2 * escape + hold, mapped to its code in one translate.
        num_cycles = self.num_cycles
        if not num_cycles:
            return ""
        spread = 2 * _byte_per_cycle(escape, num_cycles) + _byte_per_cycle(
            hold, num_cycles
        )
        codes = spread.to_bytes(num_cycles, "big").translate(_EVENT_CODES)
        return codes[::-1].decode("ascii")


def wire_events(
    netlist: Netlist,
    trace: Trace,
    dff_name: str,
    reads: Sequence[frozenset[str]] | None = None,
) -> str:
    """Per-cycle event string (``'e'``/``'h'``/``'k'``) for one flip-flop.

    A one-flip-flop :class:`EventClassifier`; analyzing many flip-flops
    of one trace, build the classifier once instead.
    """
    return EventClassifier(netlist, trace, reads).events(dff_name)
