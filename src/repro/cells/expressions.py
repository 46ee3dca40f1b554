"""Python expression templates for the library's cells.

One table gives every cell's output as a Python expression over its pins.
:mod:`repro.sim.compiler` generates its step functions from it, and
:func:`lane_function` renders one cell as a callable over bit-parallel
vectors: a recorded trace's cycle vectors (one bit per cycle), the
def-use analysis's fault cones (:mod:`repro.prune.access`) and the static
MATE checker's truth-table columns (:mod:`repro.lint.static_mate`) are all
evaluated by the same gate semantics.
"""

from __future__ import annotations

import re
from collections.abc import Callable
from functools import cache

from repro.cells.library import Cell

#: Per-cell Python expression templates (pin name → local variable). ``{one}``
#: is the constant one: ``1`` in the scalar steps, the lane mask over
#: bit-parallel vectors.
TEMPLATES = {
    "INV": "{one} ^ {A}",
    "BUF": "{A}",
    "AND2": "{A} & {B}",
    "AND3": "{A} & {B} & {C}",
    "AND4": "{A} & {B} & {C} & {D}",
    "NAND2": "{one} ^ ({A} & {B})",
    "NAND3": "{one} ^ ({A} & {B} & {C})",
    "NAND4": "{one} ^ ({A} & {B} & {C} & {D})",
    "OR2": "{A} | {B}",
    "OR3": "{A} | {B} | {C}",
    "OR4": "{A} | {B} | {C} | {D}",
    "NOR2": "{one} ^ ({A} | {B})",
    "NOR3": "{one} ^ ({A} | {B} | {C})",
    "NOR4": "{one} ^ ({A} | {B} | {C} | {D})",
    "XOR2": "{A} ^ {B}",
    "XNOR2": "{one} ^ {A} ^ {B}",
    "MUX2": "({B} if {S} else {A})",
    "AOI21": "{one} ^ (({A1} & {A2}) | {B})",
    "AOI22": "{one} ^ (({A1} & {A2}) | ({B1} & {B2}))",
    "OAI21": "{one} ^ (({A1} | {A2}) & {B})",
    "OAI22": "{one} ^ (({A1} | {A2}) & ({B1} | {B2}))",
    "XOR3": "{A} ^ {B} ^ {C}",
    "MAJ3": "({A} & {B}) | ({A} & {C}) | ({B} & {C})",
}

#: The bit-parallel templates. ``B if S else A`` tests a whole vector,
#: so ``MUX2`` selects bitwise; the scalar steps keep the conditional,
#: which is faster on single bits.
LANE_TEMPLATES = {**TEMPLATES, "MUX2": "{A} ^ ({S} & ({A} ^ {B}))"}

#: The name of the lane-mask argument (all lanes set).
MASK = "m"


def cell_expression(
    cell: Cell, env: dict[str, str], templates: dict, one: str
) -> str:
    """``cell``'s output as an expression over ``env`` (pin -> expression),
    with the constant one rendered as ``one``."""
    template = templates.get(cell.name)
    if template is not None:
        return template.format(one=one, **env)
    # Fallback for cells without a hand-written template: tabulated SOP,
    # whose pins and constant one are renamed token by token.
    assert cell.function is not None
    env = {**env, "1": one}
    return re.sub(
        r"\w+", lambda m: env.get(m.group(), m.group()),
        cell.function.python_expression(),
    )


@cache
def lane_function(cell: Cell) -> Callable[..., int]:
    """``cell`` as ``f(mask, *pins) -> int`` over lane vectors.

    Pins are passed in ``cell.inputs`` order; every bit of ``mask`` is one
    lane, evaluated independently. Rendered from the same gate table as
    :attr:`repro.sim.compiler.CompiledNetlist.lane_step`, so both share
    one gate semantics.
    """
    env = {pin: f"p{index}" for index, pin in enumerate(cell.inputs)}
    expression = cell_expression(cell, env, LANE_TEMPLATES, MASK)
    return eval(f"lambda {', '.join((MASK, *env.values()))}: {expression}")
