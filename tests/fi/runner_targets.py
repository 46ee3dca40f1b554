"""Spawn-importable campaign-target factories for the runner tests.

The resilient runner ships :class:`~repro.fi.runner.TargetSpec` references
(``module:callable``) to spawned worker processes, so the factories used in
tests must live in a real importable module — not in a test body. They
build tiny purpose-built circuits (cheap to synthesize per worker) with
hooks to misbehave on demand:

- :func:`accum_target` — the well-behaved accumulator (with a benign decoy
  register and an optional per-cycle delay to stretch campaign wall time);
- :func:`sleepy_target` — hangs (sleeps) whenever the ``trip`` flip-flop
  reads 1, which only an injection can cause: exercises the wall-clock
  timeout and quarantine path;
- :func:`killer_target` — SIGKILLs its own process under the same trigger:
  exercises BrokenProcessPool supervision. With a ``sentinel`` path the
  kill happens only once (the file is created first), modelling a
  transient crash that succeeds on retry;
- :func:`poison_target` — a checkpointable accumulator whose testbench
  raises under the same trigger: exercises the inline runner's fallback
  from a failed lane batch to per-point retry and quarantine;
- :func:`plain_accum_target` — the accumulator alone, without the decoy
  and trip registers, synthesized from RTL and driven by a testbench
  without snapshots.
"""

from __future__ import annotations

import os
import signal
import time

from repro.fi.campaign import CampaignTarget
from repro.rtl import RtlCircuit, mux
from repro.sim import Simulator, SimulatorSpec, Testbench
from repro.synth import synthesize

#: Width-1 register that is constant 0 in every fault-free run; reads 1
#: only in the cycle an SEU is injected into it.
TRIP_FF = "trip"


def build_netlist(name: str = "accum"):
    """Accumulator: sums its input for 8 cycles, then raises ``done``."""
    c = RtlCircuit(name)
    data = c.input("data", 4)
    acc = c.reg("acc", 8)
    count = c.reg("count", 4)
    decoy = c.reg("decoy", 8)  # written every cycle, never observed
    trip = c.reg(TRIP_FF, 1)  # constant 0 unless injected
    done = count.eq(8)
    acc.next = mux(done, (acc + data.zext(8)).trunc(8), acc)
    count.next = mux(done, (count + 1).trunc(4), count)
    decoy.next = data.zext(8)
    trip.next = trip & ~trip
    c.output("acc_out", acc)
    c.output("done", done)
    return synthesize(c)


class AccumBench(Testbench):
    """Drives the accumulator; optional per-cycle wall-time stretch."""

    def __init__(self, delay: float = 0.0):
        self.result = None
        self.delay = delay

    def drive(self, cycle, state):
        if self.delay:
            time.sleep(self.delay)
        return {"data": (cycle * 3 + 1) % 16}

    def observe(self, cycle, outputs):
        if outputs["done"]:
            self.result = outputs["acc_out"]
            return True
        return False


class _MisbehavingBench(AccumBench):
    """Trips a side effect the first cycle the ``trip`` FF reads 1."""

    def drive(self, cycle, state):
        if state.read_ff(TRIP_FF):
            self.misbehave()
        return super().drive(cycle, state)

    def misbehave(self) -> None:  # pragma: no cover - overridden
        raise NotImplementedError


def _make_target(name: str, bench_factory, netlist_json: str | None = None):
    if netlist_json is None:
        simulator = Simulator(build_netlist())
    else:
        simulator = SimulatorSpec(
            netlist_json=netlist_json, library="nangate15"
        ).build()
    return CampaignTarget(
        name=name,
        simulator=simulator,
        make_testbench=bench_factory,
        observables=lambda tb, res: tb.result,
    )


def accum_target(
    netlist_json: str | None = None, delay: float = 0.0
) -> CampaignTarget:
    """The plain accumulator target (optionally slowed per cycle)."""
    return _make_target("accum", lambda: AccumBench(delay), netlist_json)


def slow_accum_target() -> CampaignTarget:
    """Accumulator stretched ~20 ms per cycle.

    Slow enough that a CLI test can reliably interrupt a campaign while it
    is mid-flight (same workload name and netlist as :func:`accum_target`,
    so journals from either resume interchangeably).
    """
    return accum_target(delay=0.02)


def sleepy_target(sleep_seconds: float = 60.0) -> CampaignTarget:
    """Hangs for ``sleep_seconds`` whenever the trip FF is injected."""

    class SleepyBench(_MisbehavingBench):
        def misbehave(self) -> None:
            time.sleep(sleep_seconds)

    return _make_target("sleepy", SleepyBench)


def killer_target(sentinel: str | None = None) -> CampaignTarget:
    """SIGKILLs its own process whenever the trip FF is injected.

    With ``sentinel`` set, the kill only happens while the file does not
    exist (it is created immediately before dying), so exactly one worker
    is lost and the retry succeeds — a transient crash. Without it, the
    point is deterministic poison and must end up quarantined.
    """

    class KillerBench(_MisbehavingBench):
        def misbehave(self) -> None:
            if sentinel is not None:
                if os.path.exists(sentinel):
                    return
                with open(sentinel, "w") as fh:
                    fh.write(str(os.getpid()))
            os.kill(os.getpid(), signal.SIGKILL)

    return _make_target("killer", KillerBench)


class PoisonError(RuntimeError):
    """Raised by :func:`poison_target`'s testbench when ``trip`` reads 1."""


class PoisonBench(_MisbehavingBench):
    """Checkpointable accumulator bench that raises when ``trip`` reads 1."""

    def misbehave(self) -> None:
        raise PoisonError("trip flip-flop read 1")

    def snapshot(self):
        return (self.result,)

    def restore(self, snapshot) -> None:
        (self.result,) = snapshot


def poison_target() -> CampaignTarget:
    """Checkpointable accumulator; injecting ``trip`` raises in the bench."""
    return _make_target("poison", PoisonBench)


def netlist_json_roundtrip_target(netlist_json: str) -> CampaignTarget:
    """Target whose simulator is rebuilt from shipped netlist JSON."""
    return _make_target("shipped", AccumBench, netlist_json)


def plain_accum_target() -> CampaignTarget:
    """Accumulator without decoy or trip registers, synthesized from RTL."""
    c = RtlCircuit("plain-accum")
    data = c.input("data", 4)
    acc = c.reg("acc", 8)
    count = c.reg("count", 4)
    done = count.eq(8)
    acc.next = mux(done, (acc + data.zext(8)).trunc(8), acc)
    count.next = mux(done, (count + 1).trunc(4), count)
    c.output("acc_out", acc)
    c.output("done", done)
    return CampaignTarget(
        name="plain-accum",
        simulator=Simulator(synthesize(c)),
        make_testbench=AccumBench,
        observables=lambda tb, res: tb.result,
    )
