"""One traced ``python -m repro.fi run`` command, split across layers.

Run as ``python -m bench.traced --out LAYERS.json --events TRACE.json --
<fi run arguments>``. Before calling ``repro.fi.__main__.main`` in this
process, it wraps public callables of each layer — the compiled ``step``
of the memoized simulator, ``Simulator`` glue and ``run``, the testbench
``drive``/``observe``, ``Campaign.inject``, ``CampaignJournal.append_record``,
``CampaignRunner.run`` and the pruning-plan functions — with in-memory
self-time counters. A layer's self time is its own wall time minus that
of the wrapped layers it called, so the self times of the injection path
sum to the ``CampaignRunner.run`` wall time plus the golden run done
during set-up. Per-cycle layers keep only counters; coarse spans
(set-up, plan, each injection, each journal append) are written once at
exit as Chrome trace-event JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


class Tracer:
    """Self-time counters and coarse spans over wrapped callables."""

    def __init__(self) -> None:
        self.clock = time.perf_counter
        self.origin = self.clock()
        #: layer -> [self seconds, inclusive seconds, calls]
        self.layers: dict[str, list[float]] = {}
        #: (span name, start, seconds), for layers wrapped with spans.
        self.spans: list[tuple[str, float, float]] = []
        # Inclusive time of wrapped callees, one slot per open call; the
        # bottom slot collects top-level calls.
        self._stack = [0.0]
        #: [steps in the current Simulator.run, its fault cycle]
        self._run = [0, 0]
        self.prefix_s = 0.0
        self.prefix_steps = 0
        self.injected_steps = 0

    def _acc(self, layer: str) -> list[float]:
        return self.layers.setdefault(layer, [0.0, 0.0, 0])

    def wrap(self, owner, attr: str, layer: str, span_name=None) -> None:
        """Replace ``owner.attr`` with a self-timing wrapper.

        ``span_name(args, kwargs)`` names a span recorded for every call;
        without it the layer keeps counters only.
        """
        fn = getattr(owner, attr)
        acc, stack, clock, spans = self._acc(layer), self._stack, self.clock, self.spans

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                acc[0] += elapsed - stack.pop()
                acc[1] += elapsed
                acc[2] += 1
                stack[-1] += elapsed
                if span_name is not None:
                    spans.append((span_name(args, kwargs), start, elapsed))

        setattr(owner, attr, wrapper)

    def wrap_leaf(self, owner, attr: str, layer: str) -> None:
        """Cheaper :meth:`wrap` for per-cycle methods ``(self, a[, b])``
        that call no wrapped layer: no exception handling, no spans."""
        fn = getattr(owner, attr)
        acc, stack, clock = self._acc(layer), self._stack, self.clock

        def wrapper(obj, a, *b):
            start = clock()
            result = fn(obj, a, *b)
            elapsed = clock() - start
            acc[0] += elapsed
            acc[1] += elapsed
            acc[2] += 1
            stack[-1] += elapsed
            return result

        setattr(owner, attr, wrapper)

    def wrap_step(self, compiled) -> None:
        """Wrap one compiled netlist's ``step``, splitting off the prefix.

        Steps of an injected run before its fault cycle re-simulate the
        golden prefix; they are counted separately.
        """
        fn = compiled.step
        acc, stack, clock = self._acc("sim.step"), self._stack, self.clock
        run = self._run

        def step(state, inputs):
            start = clock()
            result = fn(state, inputs)
            elapsed = clock() - start
            acc[0] += elapsed
            acc[1] += elapsed
            acc[2] += 1
            stack[-1] += elapsed
            if run[0] < run[1]:
                self.prefix_s += elapsed
                self.prefix_steps += 1
            run[0] += 1
            return result

        compiled.step = step

    def wrap_run(self, simulator_class) -> None:
        """Wrap ``Simulator.run``, noting each run's fault cycle."""
        self.wrap(simulator_class, "run", "sim.run")
        timed = simulator_class.run
        run = self._run

        def run_with_fault_cycle(sim, *args, **kwargs):
            flips = kwargs["flips"] if "flips" in kwargs else (
                args[3] if len(args) > 3 else None
            )
            run[0], run[1] = 0, (min(flips) if flips else 0)
            try:
                return timed(sim, *args, **kwargs)
            finally:
                if flips:
                    self.injected_steps += run[0]

        simulator_class.run = run_with_fault_cycle

    def chrome_trace(self, setup_end: float | None) -> dict:
        """The recorded spans as Chrome trace-event JSON."""
        pid = os.getpid()

        def event(name: str, start: float, seconds: float) -> dict:
            return {
                "name": name, "ph": "X", "pid": pid, "tid": 0,
                "ts": round((start - self.origin) * 1e6, 3),
                "dur": round(seconds * 1e6, 3),
            }

        events = [event(*span) for span in self.spans]
        if setup_end is not None:
            events.insert(0, event("setup", self.origin, setup_end - self.origin))
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def install(tracer: Tracer, core: str) -> None:
    """Wrap every layer boundary a campaign on ``core`` crosses."""
    import repro.prune
    from repro.cpu.avr import AvrSystem
    from repro.cpu.msp430 import Msp430System
    from repro.eval import context
    from repro.fi.campaign import Campaign
    from repro.fi.journal import CampaignJournal
    from repro.fi.runner import CampaignRunner
    from repro.prune import EquivalenceMap
    from repro.sim.simulator import Simulator

    tracer.wrap(context, "synthesize_avr", "synth")
    tracer.wrap(context, "synthesize_msp430", "synth")
    tracer.wrap(Simulator, "__init__", "sim.compile")
    tracer.wrap_run(Simulator)
    tracer.wrap_leaf(Simulator, "pack_inputs", "sim.glue")
    tracer.wrap_leaf(Simulator, "unpack_outputs", "sim.glue")
    for system in (AvrSystem, Msp430System):
        tracer.wrap_leaf(system, "drive", "cpu.testbench")
        tracer.wrap_leaf(system, "observe", "cpu.testbench")
    tracer.wrap(Campaign, "inject", "fi.inject", lambda a, k: "inject")
    tracer.wrap(
        CampaignJournal, "append_record", "fi.journal",
        lambda a, k: "annotate" if k.get("pruned_by") else "journal",
    )
    tracer.wrap(CampaignRunner, "run", "fi.runner", lambda a, k: "execute")
    for name in ("get_equivalence_map", "get_static_map", "account"):
        tracer.wrap(repro.prune, name, "prune.plan", lambda a, k: "plan")
    tracer.wrap(EquivalenceMap, "collapse", "prune.plan", lambda a, k: "plan")
    # The CLI builds its target through this memoized simulator.
    tracer.wrap_step(context.get_simulator(core).compiled)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.traced")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--events", type=Path, required=True)
    parser.add_argument("fi_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    fi_args = args.fi_args[1:] if args.fi_args[:1] == ["--"] else args.fi_args
    target = fi_args[fi_args.index("--target") + 1]

    tracer = Tracer()
    install(tracer, target.partition("-")[0])
    from repro.fi.__main__ import main as fi_main

    code = fi_main(fi_args)
    wall = tracer.clock() - tracer.origin
    usage = resource.getrusage(resource.RUSAGE_SELF)
    starts = [start for name, start, _ in tracer.spans if name == "execute"]
    runner_start = starts[0] if starts else None
    first = [
        start for name, start, _ in tracer.spans
        if name == "journal" and runner_start is not None and start >= runner_start
    ]
    args.events.write_text(json.dumps(tracer.chrome_trace(runner_start)))
    args.out.write_text(json.dumps({
        "exit_code": code,
        "wall_s": wall,
        "parent_cpu_s": usage.ru_utime + usage.ru_stime,
        "layers": tracer.layers,
        "prefix_s": tracer.prefix_s,
        "prefix_steps": tracer.prefix_steps,
        "injected_steps": tracer.injected_steps,
        "first_record_s": min(first) - runner_start if first else None,
    }))
    return code


if __name__ == "__main__":
    sys.exit(main())
