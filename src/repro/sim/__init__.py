"""Cycle-accurate netlist simulation (compiled to straight-line Python)."""

from repro.sim.compiler import CompiledNetlist, compile_netlist
from repro.sim.memory import RAM, ROM
from repro.sim.simulator import (
    Checkpoint,
    CheckpointStore,
    SimulationResult,
    Simulator,
    StateView,
)
from repro.sim.spec import SimulatorSpec
from repro.sim.testbench import ConstantTestbench, TableTestbench, Testbench

__all__ = [
    "RAM",
    "ROM",
    "Checkpoint",
    "CheckpointStore",
    "CompiledNetlist",
    "ConstantTestbench",
    "SimulationResult",
    "Simulator",
    "SimulatorSpec",
    "StateView",
    "TableTestbench",
    "Testbench",
    "compile_netlist",
]
