"""Workloads, the closed-loop round runner, and metric extraction.

Load comes from one client that starts one subprocess at a time and
waits for it (a closed loop), so at most the CLI process and its two pool
workers run at once. Every end-to-end number is measured from outside,
with tracing off: wall time around the subprocess, and user+sys CPU time
and peak RSS of its process tree from ``os.wait4``.

A round runs the workload's command twice — once stopped right after
set-up, once to the end — plus, in a traced run, the same command once
more under :mod:`bench.traced`. Rounds repeat until the run's time budget
is spent, at least :data:`MIN_ROUNDS` times. Each end-to-end metric is
the best round (the minimum of a time): on a shared host, contention
from other tenants only ever slows a round down, so the best round is
the steadiest estimate of what the code itself costs.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench import stats
from bench.gate import Checks, JournalView, read_journal
from bench.spec import ROOT

MIN_ROUNDS = 3
MAX_ROUNDS = 50
#: A subprocess still running after this long is killed (a failed run).
PROCESS_TIMEOUT = 150.0
PR_SET_CHILD_SUBREAPER = 36


@dataclass(frozen=True)
class CampaignWorkload:
    """A sampled ``python -m repro.fi run`` campaign."""

    name: str
    target: str
    points: int
    workers: int
    flags: tuple[str, ...] = ()
    #: Another workload whose outcomes this one must equal record for record.
    outcomes_of: str | None = None

    @property
    def core(self) -> str:
        return self.target.partition("-")[0]

    def fi_args(self, seed: int, journal: Path, limit: int | None = None) -> list[str]:
        args = [
            "run", "--target", self.target, "--sampled", str(self.points),
            "--seed", str(seed), "--workers", str(self.workers),
            "--journal", str(journal), "--no-store", *self.flags,
        ]
        if limit is not None:
            args += ["--limit", str(limit)]
        return args


@dataclass(frozen=True)
class AnalysisWorkload:
    """Cold pruning analysis on both cores (:mod:`bench.analysis`)."""

    name: str = "analysis"


WORKLOADS = {
    w.name: w
    for w in (
        CampaignWorkload("avr-inline", "avr-fib", points=120, workers=0),
        CampaignWorkload(
            "avr-workers2", "avr-fib", points=120, workers=2,
            outcomes_of="avr-inline",
        ),
        CampaignWorkload(
            "msp430-layered", "msp430-fib", points=120, workers=0,
            flags=("--defuse", "--static"),
        ),
        AnalysisWorkload(),
    )
}


# ----------------------------------------------------------------------
# one measured subprocess
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Exit:
    """How one subprocess ended, measured from outside."""

    code: int
    wall_s: float
    cpu_s: float
    peak_rss_mb: float


def _kill_group(pgid: int) -> bool:
    """SIGKILL a process group; False when it had no members left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return False
    return True


@functools.cache
def _adopt_orphans() -> bool:
    """Become the reaper of orphaned descendants (Linux ``prctl``).

    Processes a command leaves behind (pool workers, the multiprocessing
    resource tracker) are then re-parented here, so they can be waited
    for and their CPU time counted.
    """
    try:
        prctl = ctypes.CDLL(None, use_errno=True).prctl
    except (OSError, AttributeError):
        return False
    prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
    prctl.restype = ctypes.c_int
    return prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0) == 0


def run_process(argv: list[str], workdir: Path, log: Path) -> Exit:
    """Run ``argv`` in its own process group and wait for it.

    The group is killed if it outlives :data:`PROCESS_TIMEOUT`. Members
    left after the main process exits are killed and waited for; their
    CPU time and peak RSS count towards the command's.
    """
    adopted = _adopt_orphans()
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(workdir)
    env.pop("REPRO_PROGRESS", None)
    with open(log, "ab") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=workdir, env=env, stdin=subprocess.DEVNULL,
            stdout=out, stderr=subprocess.STDOUT, start_new_session=True,
        )
        timer = threading.Timer(PROCESS_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:  # interrupted: take the command down with us
            _kill_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu, rss = usage.ru_utime + usage.ru_stime, usage.ru_maxrss
    killed = _kill_group(proc.pid)
    deadline = time.monotonic() + 10.0
    while adopted:
        try:
            pid, _, orphan = os.wait4(-1, os.WNOHANG)
        except ChildProcessError:
            break
        if pid:
            cpu += orphan.ru_utime + orphan.ru_stime
            rss = max(rss, orphan.ru_maxrss)
        elif time.monotonic() < deadline:
            time.sleep(0.01)
        else:
            break
    while not adopted and killed and time.monotonic() < deadline:
        time.sleep(0.05)
        killed = _kill_group(proc.pid)
    if proc.returncode != 0:
        tail = log.read_text(errors="replace").splitlines()[-20:]
        print(f"{' '.join(argv[2:])} exited {proc.returncode}:", *tail,
              sep="\n  ", file=sys.stderr)
    return Exit(
        code=proc.returncode, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss / 1024
    )


# ----------------------------------------------------------------------
# rounds
# ----------------------------------------------------------------------
@dataclass
class Traced:
    """One traced run: its layer counters plus what was measured outside."""

    exit: Exit
    layers: dict
    journal: JournalView | None = None


@dataclass
class Round:
    """The set-up-only command, the full command, and the traced one."""

    setup: Exit
    full: Exit
    #: The full command's journal (campaigns) or result document (analysis).
    journal: JournalView | None = None
    analysis: dict | None = None
    traced: Traced | None = None

    @property
    def ok(self) -> bool:
        return self.setup.code == 0 and self.full.code == 0


@dataclass
class WorkloadResult:
    """Everything one run of one workload produced."""

    name: str
    seed: int
    rounds: list[Round] = field(default_factory=list)
    checks: Checks = field(default_factory=Checks)
    #: Operations attempted and failed (points, runs), beyond the checks.
    attempted: int = 0
    failed: int = 0

    @property
    def correct(self) -> bool:
        return not self.checks.failures and not self.failed


def _python(module: str, *args: str) -> list[str]:
    return [sys.executable, "-m", module, *args]


def _campaign_round(
    workload: CampaignWorkload, seed: int, workdir: Path, index: int,
    result: WorkloadResult,
) -> Round:
    log = workdir / "fi.log"
    setup = run_process(
        _python("repro.fi", *workload.fi_args(
            seed, workdir / f"setup-{index}.jsonl", limit=0)),
        workdir, log,
    )
    journal_path = workdir / f"round-{index}.jsonl"
    full = run_process(
        _python("repro.fi", *workload.fi_args(seed, journal_path)), workdir, log
    )
    journal = read_journal(journal_path) if journal_path.exists() else None
    result.attempted += 1 + workload.points
    result.failed += setup.code != 0
    failed_points = workload.points - (
        len(journal.records) - journal.errors if journal else 0
    )
    result.failed += max(failed_points, int(full.code != 0))
    return Round(setup, full, journal=journal)


def _analysis_round(
    seed: int, workdir: Path, index: int, result: WorkloadResult
) -> Round:
    log = workdir / "analysis.log"
    setup_out = workdir / f"setup-{index}.json"
    full_out = workdir / f"round-{index}.json"
    setup = run_process(
        _python("bench.analysis", "--seed", str(seed), "--out", str(setup_out),
                "--until", "compile"),
        workdir, log,
    )
    full = run_process(
        _python("bench.analysis", "--seed", str(seed), "--out", str(full_out)),
        workdir, log,
    )
    result.attempted += 2
    result.failed += (setup.code != 0) + (full.code != 0)
    analysis = json.loads(full_out.read_text()) if full.code == 0 else None
    return Round(setup, full, analysis=analysis)


def _traced_run(
    workload, seed: int, workdir: Path, index: int, events: Path,
    result: WorkloadResult,
) -> Traced:
    layers_path = workdir / f"traced-{index}.json"
    if isinstance(workload, CampaignWorkload):
        journal_path = workdir / f"traced-{index}.jsonl"
        argv = _python(
            "bench.traced", "--out", str(layers_path), "--events", str(events),
            "--", *workload.fi_args(seed, journal_path),
        )
    else:
        argv = _python(
            "bench.analysis", "--seed", str(seed), "--out", str(layers_path),
            "--trace",
        )
    exit_ = run_process(argv, workdir, workdir / "traced.log")
    result.attempted += 1
    result.failed += exit_.code != 0
    layers = json.loads(layers_path.read_text()) if exit_.code == 0 else {}
    journal = None
    if isinstance(workload, CampaignWorkload) and exit_.code == 0:
        journal = read_journal(journal_path)
    return Traced(exit_, layers, journal)


def run_workload(
    workload, seed: int, seconds: float, traced: bool, workdir: Path,
    events: Path,
) -> WorkloadResult:
    """Measure one workload in rounds until ``seconds`` are spent.

    With ``traced`` every round also runs the command traced (not counted
    against ``seconds``); the traced run with the least wall time keeps
    its Chrome trace at ``events``.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    result = WorkloadResult(workload.name, seed)
    elapsed = 0.0
    while len(result.rounds) < MAX_ROUNDS:
        index = len(result.rounds)
        started = time.perf_counter()
        if isinstance(workload, CampaignWorkload):
            round_ = _campaign_round(workload, seed, workdir, index, result)
        else:
            round_ = _analysis_round(seed, workdir, index, result)
        elapsed += time.perf_counter() - started
        if traced:
            trace_file = workdir / f"trace-{index}.json"
            round_.traced = _traced_run(
                workload, seed, workdir, index, trace_file, result
            )
        result.rounds.append(round_)
        if len(result.rounds) >= MIN_ROUNDS and (
            elapsed * (1 + 1 / len(result.rounds)) > seconds
        ):
            break
    best = best_traced(result)
    if best is not None and isinstance(workload, CampaignWorkload):
        index = result.rounds.index(best)
        os.replace(workdir / f"trace-{index}.json", events)
    return result


def best_traced(result: WorkloadResult) -> Round | None:
    """The round whose traced run succeeded fastest."""
    traced = [r for r in result.rounds if r.traced and r.traced.exit.code == 0]
    return min(traced, key=lambda r: r.traced.exit.wall_s, default=None)


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def gate(workload, result: WorkloadResult, expected: dict) -> None:
    """Check a workload's outputs; failures land in ``result.checks``."""
    checks, seed = result.checks, str(result.seed)
    if isinstance(workload, AnalysisWorkload):
        documents = [r.analysis for r in result.rounds if r.analysis is not None]
        documents += [
            r.traced.layers for r in result.rounds if r.traced and r.traced.layers
        ]
        if not documents:
            return
        counts = documents[0]["counts"]
        for document in documents[1:]:
            checks.check(document["counts"] == counts,
                         "analysis counts differ between runs of the same seed")
        # Counts not derived from the seeded search wires are checked at
        # every seed; the rest only at the seeds they were recorded at.
        recorded = expected["analysis"]
        reference = recorded.get(seed) or recorded.get(str(expected["seed"]), {})
        seeded = ("search_wires", "mates", "masked_pairs")
        for core, values in reference.items():
            for key, value in values.items():
                if key in seeded and seed not in recorded:
                    continue
                got = counts[core].get(key)
                checks.check(got == value,
                             f"analysis {core} {key}: {got}, recorded {value}")
        return

    journals = [r.journal for r in result.rounds if r.journal is not None]
    journals += [
        r.traced.journal for r in result.rounds if r.traced and r.traced.journal
    ]
    if not journals:
        return
    first = journals[0]
    for journal in journals[1:]:
        checks.check(journal.records == first.records,
                     "outcomes differ between runs of the same seed")
    out = first.path.with_suffix(".gate.json")
    exit_ = run_process(
        _python("bench.gate", str(first.path), "--seed", seed, "--out", str(out)),
        first.path.parent, first.path.parent / "gate.log",
    )
    if exit_.code == 0:
        done = json.loads(out.read_text())
        checks.passed += done["passed"]
        checks.failures += done["failures"]
    else:
        checks.check(False, f"reference simulation of {first.path.name} failed")
    recorded = expected["campaigns"].get(seed, {}).get(
        workload.outcomes_of or workload.name
    )
    if recorded is not None:
        checks.check(first.histogram() == recorded["histogram"],
                     f"outcome histogram {first.histogram()}, "
                     f"recorded {recorded['histogram']}")
        checks.check(first.digest() == recorded["digest"],
                     f"outcome digest {first.digest()}, recorded {recorded['digest']}")


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _points(workload, round_: Round) -> int:
    """Points the full command answered: injected ones for a campaign,
    def-use-classified (flip-flop, cycle) points for the analysis."""
    if isinstance(workload, CampaignWorkload):
        return round_.journal.injected if round_.journal else 0
    return sum(c["defuse_points"] for c in round_.analysis["counts"].values())


def end_to_end(workload, result: WorkloadResult) -> dict[str, dict]:
    """Every end-to-end metric: its best-round value and all round values.

    ``points_per_s`` is the points answered over the best
    ``time_to_answer_s`` minus the best ``setup_s``.
    """
    ok = [r for r in result.rounds if r.ok]
    rounds = {
        "time_to_answer_s": [r.full.wall_s for r in ok],
        "setup_s": [r.setup.wall_s for r in ok],
        "points_per_s": [
            _points(workload, r) / (r.full.wall_s - r.setup.wall_s) for r in ok
        ],
        "cpu_s": [r.full.cpu_s for r in ok],
        "peak_rss_mb": [r.full.peak_rss_mb for r in ok],
    }
    metrics = {
        name: {"value": min(values, default=None), "rounds": values}
        for name, values in rounds.items()
    }
    answer = min(rounds["time_to_answer_s"], default=0) - min(
        rounds["setup_s"], default=0
    )
    metrics["points_per_s"]["value"] = (
        _points(workload, ok[0]) / answer if ok and answer > 0 else None
    )
    return metrics


def per_layer(workload, result: WorkloadResult, names: list[str]) -> dict[str, float]:
    """Every per-layer metric from the fastest traced run (0 where the
    workload does not exercise a layer)."""
    metrics = dict.fromkeys(names, 0.0)
    best = best_traced(result)
    untraced = [r.full.wall_s for r in result.rounds if r.ok]
    if best is None or not untraced:
        return metrics
    traced = best.traced
    metrics["bench.trace_overhead"] = traced.exit.wall_s / min(untraced) - 1
    if isinstance(workload, AnalysisWorkload):
        for core, times in traced.layers["stages"].items():
            counts = traced.layers["counts"][core]
            metrics.update({
                f"synth.self_s.{core}": times["synth_s"],
                f"sim.compile_s.{core}": times["compile_s"],
                f"sim.trace.record_s.{core}": times["trace_s"],
                f"sim.trace.cycles_per_s.{core}":
                    counts["trace_cycles"] / times["trace_s"],
                f"prune.defuse.analyze_s.{core}": times["analyze_s"],
                f"prune.defuse.build_s.{core}": times["build_s"],
                f"prune.dataflow.solve_s.{core}": times["solve_s"],
                f"prune.dataflow.anchor_s.{core}": times["anchor_s"],
                f"core.search.self_s.{core}": times["search_s"],
                f"core.search.s_per_wire.{core}":
                    times["search_s"] / counts["search_wires"],
                f"core.search.mates.{core}": counts["mates"],
                f"core.replay.self_s.{core}": times["replay_s"],
            })
        return metrics

    layers = traced.layers["layers"]

    def self_s(layer: str) -> float:
        return layers.get(layer, [0.0, 0.0, 0])[0]

    def inclusive_s(layer: str) -> float:
        return layers.get(layer, [0.0, 0.0, 0])[1]

    def calls(layer: str) -> int:
        return layers.get(layer, [0.0, 0.0, 0])[2]

    journal = traced.journal
    injected = journal.injected
    execute = inclusive_s("fi.runner")
    slots = execute * max(1, workload.workers)
    busy = sum(journal.seconds)
    samples = inject_samples(result)
    steps = calls("sim.step")
    metrics.update({
        "sim.step.self_s": self_s("sim.step"),
        "sim.step.calls": steps,
        "sim.us_per_cycle": inclusive_s("sim.run") / steps * 1e6 if steps else 0.0,
        "sim.prefix.step_s": traced.layers["prefix_s"],
        "sim.prefix.cycle_share": (
            traced.layers["prefix_steps"] / traced.layers["injected_steps"]
            if traced.layers["injected_steps"] else 0.0
        ),
        "sim.glue.self_s": self_s("sim.glue"),
        "sim.run.other_s": self_s("sim.run"),
        "cpu.testbench.self_s": self_s("cpu.testbench"),
        "fi.inject.count": injected,
        "fi.inject.ms_p50": stats.percentile(samples, 50) * 1e3 if samples else 0.0,
        "fi.inject.ms_p95": stats.percentile(samples, 95) * 1e3 if samples else 0.0,
        "fi.classify.self_s": self_s("fi.inject"),
        "fi.journal.self_s": self_s("fi.journal"),
        "fi.journal.records": calls("fi.journal"),
        "fi.runner.overhead_s": self_s("fi.runner"),
        "fi.runner.execute_s": execute,
        "fi.pool.worker_busy_fraction": busy / slots if slots else 0.0,
        "fi.pool.dispatch_ms": (slots - busy) / injected * 1e3 if injected else 0.0,
        "fi.pool.first_record_s": traced.layers["first_record_s"] or 0.0,
        "fi.pool.parent_cpu_s": traced.layers["parent_cpu_s"],
        "prune.plan_s": self_s("prune.plan"),
        "prune.injected_fraction": injected / len(journal.records),
        "prune.static_fraction":
            journal.pruned_by.count("static") / len(journal.records),
        f"synth.self_s.{workload.core}": self_s("synth"),
        f"sim.compile_s.{workload.core}": self_s("sim.compile"),
    })
    return metrics


def inject_samples(result: WorkloadResult) -> list[float]:
    """Journaled wall seconds of every injection of the untraced rounds."""
    return [s for r in result.rounds if r.journal for s in r.journal.seconds]
