"""Ready-made campaign targets for the two cores and two test programs."""

from __future__ import annotations

from functools import partial

from repro.cpu.avr import AvrSystem
from repro.cpu.msp430 import Msp430System
from repro.fi.campaign import CampaignTarget
from repro.programs import avr_conv, avr_fib, msp430_conv, msp430_fib
from repro.sim.simulator import SimulationResult, Simulator


def _avr_observables(testbench: AvrSystem, result: SimulationResult) -> object:
    return (tuple(testbench.ram.words), tuple((p, v) for _, p, v in testbench.port_log))


def _msp430_observables(
    testbench: Msp430System, result: SimulationResult
) -> object:
    return tuple(testbench.ram.words)


def avr_target(program: str, simulator: Simulator) -> CampaignTarget:
    """AVR campaign target running the halting ``fib`` or ``conv``."""
    words = {"fib": avr_fib, "conv": avr_conv}[program](halt=True)
    return CampaignTarget(
        name=f"avr-{program}",
        simulator=simulator,
        make_testbench=lambda: AvrSystem(words, halt_on_sleep=True),
        observables=_avr_observables,
    )


def msp430_target(program: str, simulator: Simulator) -> CampaignTarget:
    """MSP430 campaign target running the halting ``fib`` or ``conv``."""
    words = {"fib": msp430_fib, "conv": msp430_conv}[program](halt=True)
    return CampaignTarget(
        name=f"msp430-{program}",
        simulator=simulator,
        make_testbench=lambda: Msp430System(words, halt_on_cpuoff=True),
        observables=_msp430_observables,
    )


#: Targets nameable on the ``python -m repro.fi`` command line and in
#: journal headers / worker specs: ``<core>-<program>``.
NAMED_TARGETS = ("avr-fib", "avr-conv", "msp430-fib", "msp430-conv")


def named_target(name: str) -> CampaignTarget:
    """Build one of the standard core+program targets by name.

    Synthesizes (memoized per process through :mod:`repro.eval.context`)
    in whatever process calls it — this is the factory campaign-runner
    workers invoke after ``spawn``, so each worker owns its own compiled
    simulator without pickling one across the process boundary.
    """
    if name not in NAMED_TARGETS:
        raise ValueError(
            f"unknown target {name!r} (expected one of {', '.join(NAMED_TARGETS)})"
        )
    from repro.eval.context import get_simulator, netlist_hash

    core, _, program = name.partition("-")
    factory = avr_target if core == "avr" else msp430_target
    target = factory(program, get_simulator(core))
    # One hash per process: the pruning plans key their caches by the same
    # memo the runner's journal header reads.
    target.content_hash = partial(netlist_hash, core)
    return target
