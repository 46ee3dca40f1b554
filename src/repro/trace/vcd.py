"""Minimal VCD (value change dump) writer and reader.

The paper records VCD files from netlist simulation and feeds them to the
MATE selection. We reproduce that interchange: :func:`write_vcd` emits one
timestamp per clock cycle with change-only dumps, :func:`parse_vcd` samples
a VCD back into a :class:`~repro.trace.trace.Trace`.

Only the subset our own writer produces (plus whitespace variations) is
supported: scalar wires, one scope level, ``0``/``1`` values.
"""

from __future__ import annotations

import numpy as np

from repro.trace.trace import Trace

_ID_CHARS = "".join(chr(c) for c in range(33, 127))


def _id_code(index: int) -> str:
    """VCD shorthand identifier for a wire index (base-94 printable)."""
    if index < 0:
        raise ValueError("negative wire index")
    code = ""
    while True:
        code = _ID_CHARS[index % 94] + code
        index //= 94
        if index == 0:
            return code


def write_vcd(trace: Trace, module: str = "top", timescale: str = "1ns") -> str:
    """Render a trace as VCD text (change-only dumps per cycle)."""
    lines = [
        "$date reproduction run $end",
        "$version repro.trace.vcd $end",
        f"$timescale {timescale} $end",
        f"$scope module {module} $end",
    ]
    codes = [_id_code(i) for i in range(trace.num_wires)]
    for wire, code in zip(trace.wire_names, codes):
        lines.append(f"$var wire 1 {code} {wire} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")

    matrix = trace.columns(trace.wire_names)
    previous: np.ndarray | None = None
    for cycle in range(trace.num_cycles):
        row = matrix[cycle]
        lines.append(f"#{cycle}")
        if previous is None:
            lines.append("$dumpvars")
            changed = np.arange(trace.num_wires)
        else:
            changed = np.nonzero(row != previous)[0]
        for index in changed:
            lines.append(f"{row[index]}{codes[index]}")
        if previous is None:
            lines.append("$end")
        previous = row
    lines.append(f"#{trace.num_cycles}")
    lines.append("")
    return "\n".join(lines)


def parse_vcd(text: str) -> Trace:
    """Parse VCD text into a trace (one sample per timestamp)."""
    wires: list[str] = []
    code_to_index: dict[str, int] = {}
    lines = iter(text.splitlines())

    # Header: collect $var declarations until $enddefinitions.
    for line in lines:
        tokens = line.split()
        if not tokens:
            continue
        if tokens[0] == "$var":
            # $var wire 1 <code> <name> $end
            if len(tokens) < 6 or tokens[1] != "wire" or tokens[2] != "1":
                raise ValueError(f"unsupported $var declaration: {line!r}")
            code, name = tokens[3], tokens[4]
            code_to_index[code] = len(wires)
            wires.append(name)
        elif tokens[0] == "$enddefinitions":
            break

    current = np.zeros(len(wires), dtype=np.uint8)
    initialized = np.zeros(len(wires), dtype=bool)
    rows: list[np.ndarray] = []
    have_time = False
    pending_changes = False

    def flush() -> None:
        if have_time:
            rows.append(current.copy())

    for line in lines:
        line = line.strip()
        if not line or line.startswith("$"):
            continue
        if line.startswith("#"):
            flush()
            have_time = True
            pending_changes = False
            continue
        value_char, code = line[0], line[1:]
        if value_char not in "01":
            raise ValueError(f"unsupported value change: {line!r}")
        index = code_to_index.get(code)
        if index is None:
            raise ValueError(f"value change for undeclared wire code {code!r}")
        current[index] = int(value_char)
        initialized[index] = True
        pending_changes = True

    # A trace that ends with dangling changes (no closing timestamp, as some
    # tools emit) still gets its final sample.
    if pending_changes:
        flush()

    if not initialized.all() and rows:
        missing = [wires[i] for i in np.nonzero(~initialized)[0][:5]]
        raise ValueError(f"wires never dumped: {missing}")
    matrix = np.vstack(rows) if rows else np.zeros((0, len(wires)), dtype=np.uint8)
    return Trace.from_matrix(wires, matrix)
