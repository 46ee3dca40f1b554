"""The benchmark's definition: ``BENCHMARK.json`` plus what it cannot hold.

``BENCHMARK.json`` at the repository root names the workloads and every
metric with its unit, direction and regression bound. Two things live
here instead, because that file's schema is fixed:

- :data:`LAYER_MAP` — which end-to-end metric each per-layer metric
  should move, and on which workloads (written down before measuring, so
  a later optimisation can be held to its prediction);
- ``bench/expected.json`` — the default and held-out seeds and the
  outcome histograms / analysis counts recorded at both.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

#: Repository root (the directory holding ``BENCHMARK.json`` and ``src``).
ROOT = Path(__file__).resolve().parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")

CAMPAIGNS = ("avr-inline", "avr-workers2", "msp430-layered")
ALL = (*CAMPAIGNS, "analysis")
CORES = ("avr", "msp430")

#: Per-layer metric -> [(end-to-end metric it should move, workloads)].
LAYER_MAP: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "sim.step.self_s": [("points_per_s", ("avr-inline", "msp430-layered"))],
    "sim.step.calls": [("points_per_s", ("avr-inline", "msp430-layered"))],
    "sim.us_per_cycle": [("points_per_s", ("avr-inline", "msp430-layered"))],
    "sim.prefix.step_s": [("points_per_s", CAMPAIGNS)],
    "sim.prefix.cycle_share": [("points_per_s", CAMPAIGNS)],
    "sim.glue.self_s": [("points_per_s", ("avr-inline",))],
    "sim.run.other_s": [("points_per_s", ("avr-inline",))],
    "cpu.testbench.self_s": [("points_per_s", ("avr-inline",))],
    "fi.inject.count": [("time_to_answer_s", ("msp430-layered",))],
    "fi.inject.ms_p50": [("points_per_s", CAMPAIGNS)],
    "fi.inject.ms_p95": [("points_per_s", CAMPAIGNS)],
    "fi.classify.self_s": [("points_per_s", ("avr-inline",))],
    "fi.journal.self_s": [("time_to_answer_s", ("avr-inline",))],
    "fi.journal.records": [("time_to_answer_s", ("avr-inline",))],
    "fi.runner.overhead_s": [("time_to_answer_s", ("avr-inline",))],
    "fi.runner.execute_s": [("time_to_answer_s", CAMPAIGNS)],
    "fi.pool.worker_busy_fraction": [("time_to_answer_s", ("avr-workers2",))],
    "fi.pool.dispatch_ms": [("time_to_answer_s", ("avr-workers2",))],
    "fi.pool.first_record_s": [("time_to_answer_s", ("avr-workers2",))],
    "fi.pool.parent_cpu_s": [("time_to_answer_s", ("avr-workers2",))],
    "prune.plan_s": [("setup_s", ("msp430-layered",))],
    "prune.injected_fraction": [("time_to_answer_s", ("msp430-layered",))],
    "prune.static_fraction": [("time_to_answer_s", ("msp430-layered",))],
    "bench.trace_overhead": [("time_to_answer_s", ALL)],
}
for _core in CORES:
    for _base in (
        "sim.trace.record_s", "sim.trace.cycles_per_s",
        "prune.defuse.analyze_s", "prune.defuse.build_s",
        "prune.dataflow.solve_s", "prune.dataflow.anchor_s",
        "core.search.self_s", "core.search.s_per_wire", "core.search.mates",
        "core.replay.self_s",
    ):
        LAYER_MAP[f"{_base}.{_core}"] = [("time_to_answer_s", ("analysis",))]
    for _base in ("synth.self_s", "sim.compile_s"):
        LAYER_MAP[f"{_base}.{_core}"] = [
            ("time_to_answer_s", ("analysis",)),
            ("setup_s", ALL),
        ]


def load_spec(path: Path = SPEC_PATH) -> dict:
    """Parse ``BENCHMARK.json`` (validation is :func:`validate_spec`)."""
    return json.loads(path.read_text(encoding="utf-8"))


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    """Seeds and the outcome/analysis values recorded at them."""
    return json.loads(path.read_text(encoding="utf-8"))


def units(spec: dict) -> dict[str, str]:
    """Metric name -> unit, over end-to-end and per-layer metrics."""
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def validate_spec(spec: dict) -> list[str]:
    """Every way ``spec`` breaks the benchmark's schema; empty when valid."""
    problems: list[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        return [f"top-level keys {sorted(spec)} != {sorted(keys)}"]

    command = spec["command"]
    if not (isinstance(command, list) and 1 <= len(command) <= 32) or not all(
        isinstance(a, str) and len(a) <= 200 for a in command
    ):
        problems.append("command must be 1-32 strings of at most 200 characters")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        problems.append("paths must list 1-16 directories")
    else:
        for path in paths:
            if not PATH.match(path) or path.startswith("/") or ".." in path.split("/"):
                problems.append(f"bad path {path!r}")
    run_seconds = spec["run_seconds"]
    if not (isinstance(run_seconds, int) and 1 <= run_seconds <= 60):
        problems.append("run_seconds must be a whole number from 1 to 60")

    seen: set[str] = set()

    def check_name(name: object) -> None:
        if not isinstance(name, str) or not NAME.match(name):
            problems.append(f"bad name {name!r}")
        elif name in seen:
            problems.append(f"name {name!r} used twice")
        else:
            seen.add(name)

    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append(f"{len(workloads)} workloads, expected 2-8")
    for workload in workloads:
        if set(workload) != {"name", "why"}:
            problems.append(f"workload keys {sorted(workload)}")
            continue
        check_name(workload["name"])
        why = workload["why"]
        if not isinstance(why, str) or not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {workload['name']}: why must be one line")

    def check_metrics(kind: str, metrics: list, keys: set[str], limit: int) -> None:
        if not 1 <= len(metrics) <= limit:
            problems.append(f"{len(metrics)} {kind} metrics, expected 1-{limit}")
        for metric in metrics:
            if set(metric) != keys:
                problems.append(f"{kind} metric keys {sorted(metric)}")
                continue
            check_name(metric["name"])
            if not isinstance(metric["unit"], str) or not UNIT.match(metric["unit"]):
                problems.append(f"{metric['name']}: bad unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{metric['name']}: better must be lower|higher")
            if "bound" in keys:
                bound = metric["bound"]
                if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
                    problems.append(f"{metric['name']}: bound must be in (0, 0.25]")

    end_to_end = spec["end_to_end"]
    check_metrics("end_to_end", end_to_end, {"name", "unit", "better", "bound"}, 16)
    check_metrics("per_layer", spec["per_layer"], {"name", "unit", "better"}, 128)
    if problems:
        return problems

    setup = [m for m in end_to_end if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("setup_s (unit s, better lower) is required")
    elif setup[0]["bound"] < max(m["bound"] for m in end_to_end):
        problems.append("setup_s must have the largest bound")

    workload_names = {w["name"] for w in workloads}
    if workload_names != set(ALL):
        problems.append(f"workloads {sorted(workload_names)} != {sorted(ALL)}")
    e2e_names = {m["name"] for m in end_to_end}
    layer_names = {m["name"] for m in spec["per_layer"]}
    for name in sorted(layer_names - set(LAYER_MAP)):
        problems.append(f"per-layer metric {name} has no LAYER_MAP entry")
    for name in sorted(set(LAYER_MAP) - layer_names):
        problems.append(f"LAYER_MAP names {name}, absent from per_layer")
    for name, moves in LAYER_MAP.items():
        for e2e, on in moves:
            if e2e not in e2e_names:
                problems.append(f"{name} moves unknown end-to-end metric {e2e}")
            for workload in on:
                if workload not in workload_names:
                    problems.append(f"{name} names unknown workload {workload}")
    return problems
