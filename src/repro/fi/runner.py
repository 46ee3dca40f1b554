"""Resilient campaign execution: parallel, checkpointed, crash-tolerant.

:class:`CampaignRunner` layers fault tolerance *around* the existing
:class:`~repro.fi.campaign.Campaign` model — the campaign engine must
survive faults in itself while injecting faults into the target:

- **Durable journal + resume** — every injection outcome is appended to a
  crash-safe JSONL journal (:mod:`repro.fi.journal`) keyed by netlist
  hash, workload, point-list hash, and seed. An interrupted campaign
  resumes exactly where it stopped; a resumed run is record-for-record
  identical to an uninterrupted one (records are ordered by point index,
  never by completion order).
- **Supervised worker pool** — ``ProcessPoolExecutor`` (spawn context);
  each worker builds its own compiled simulator from a serializable
  :class:`TargetSpec` and runs its own golden execution once. The parent
  enforces a per-injection *wall-clock* timeout (derived from the golden
  run's wall time — distinct from the in-simulation cycle budget), retries
  transient failures with backoff, replaces broken pools, and quarantines
  poison points: a point whose attempts are exhausted gets a terminal
  :attr:`Outcome.ERROR` record instead of aborting the campaign.
- **Graceful shutdown** — SIGINT/SIGTERM stop submission, flush the
  journal, tear the pool down, and report a resume hint; partial results
  are always loadable into a valid :class:`CampaignResult`.
"""

from __future__ import annotations

import importlib
import os
import random
import signal
import sys
import threading
import time
from collections import deque
from collections.abc import Mapping
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path

from repro.fi.campaign import Campaign, CampaignResult, CampaignTarget, InjectionRecord
from repro.fi.classify import Outcome
from repro.fi.journal import (
    CampaignJournal,
    JournalState,
    check_resumable,
    load_journal,
    points_hash,
)
from repro.netlist.json_io import netlist_content_hash
from repro.obs import counter, events, gauge, histogram, remote, resource, span
from repro.obs.dashboard import CampaignDashboard
from repro.obs.remote import MergedTelemetry


@dataclass(frozen=True)
class TargetSpec:
    """A picklable, JSON-serializable recipe for a :class:`CampaignTarget`.

    ``factory`` is a ``"package.module:callable"`` reference resolved in
    whatever process builds the target (the parent *and* every spawned
    worker); ``kwargs`` must be JSON-serializable so the spec can live in
    a journal header. Factories that need to ship a netlist across the
    process boundary put its JSON form in ``kwargs`` and rebuild through
    :class:`repro.sim.spec.SimulatorSpec`.
    """

    factory: str
    kwargs: dict = field(default_factory=dict)

    def build(self) -> CampaignTarget:
        """Import the factory and build the target in this process."""
        module_name, _, attr = self.factory.partition(":")
        if not module_name or not attr:
            raise ValueError(
                f"target spec factory {self.factory!r} is not of the form "
                "'package.module:callable'"
            )
        module = importlib.import_module(module_name)
        factory = getattr(module, attr)
        target = factory(**self.kwargs)
        if not isinstance(target, CampaignTarget):
            raise TypeError(
                f"{self.factory} returned {type(target).__name__}, "
                "expected CampaignTarget"
            )
        return target

    def to_dict(self) -> dict:
        return {"factory": self.factory, "kwargs": dict(self.kwargs)}

    @classmethod
    def from_dict(cls, doc: dict) -> TargetSpec:
        return cls(factory=doc["factory"], kwargs=dict(doc.get("kwargs", {})))


@dataclass
class RunnerConfig:
    """Tuning knobs of the resilient runner."""

    #: Worker processes; 0 executes inline in this process (no pool).
    workers: int = 1
    #: Wall-clock per-injection timeout = golden wall time x this factor
    #: (floored at ``min_timeout_seconds``). Distinct from the *cycle*
    #: budget `CampaignTarget.timeout_factor`, which bounds the simulated
    #: run; this bounds the host-side execution of one injection.
    timeout_factor: float = 50.0
    #: Explicit wall-clock timeout override (seconds); None = derive.
    timeout_seconds: float | None = None
    min_timeout_seconds: float = 5.0
    #: Extra deadline slack until the pool has produced its first result
    #: (covers spawn + per-worker compile + golden run).
    startup_grace: float = 60.0
    #: Failed attempts allowed per point beyond the first; a point failing
    #: ``max_retries + 1`` times total is quarantined with Outcome.ERROR.
    max_retries: int = 1
    #: Base sleep before re-submitting a failed point (doubles per attempt).
    retry_backoff: float = 0.05
    #: Backoff ceiling (seconds): the exponential delay never exceeds this.
    retry_backoff_cap: float = 30.0
    #: Multiplicative jitter fraction: each backoff sleep is stretched by a
    #: uniform factor in ``[1, 1 + retry_jitter]`` so simultaneous retries
    #: (many shards, many workers) never thundering-herd in lockstep.
    #: 0 restores the old deterministic delays.
    retry_jitter: float = 0.25
    #: Journal fsync batching (records per fsync).
    fsync_interval: int = 16
    #: Cycle budget for the golden run (Campaign max_cycles).
    max_cycles: int = 50_000
    #: Stop (gracefully, resumable) after this many new records; None = all.
    limit: int | None = None
    #: Install SIGINT/SIGTERM handlers for graceful shutdown (main thread
    #: only; originals are restored on exit).
    install_signal_handlers: bool = True
    #: Directory for cross-process telemetry (:mod:`repro.obs.remote`).
    #: When set, every worker streams spans/metrics to a per-worker JSONL
    #: file there, the parent streams to ``parent.jsonl``, and at the end
    #: of the run the collector merges everything into the global registry
    #: under ``worker=<n>`` labels (see :attr:`RunReport.telemetry`).
    #: None disables cross-process telemetry entirely.
    telemetry_dir: str | Path | None = None
    #: Results-warehouse database (:mod:`repro.store`). When set, a run
    #: that *completes* its campaign auto-ingests the journal (plus the
    #: telemetry directory, when enabled) so cross-campaign diffing and
    #: heatmaps need no extra step. Warehouse trouble never fails the
    #: campaign — it is counted under ``store.ingest.errors`` instead.
    #: None (the default) disables auto-ingest.
    store_path: str | Path | None = None


@dataclass(frozen=True)
class AnnotationPlan:
    """Static back-annotation plan for one concrete point list.

    Produced by :meth:`repro.prune.EquivalenceMap.collapse` (via
    ``CollapsePlan.annotation_plan()``): ``dead`` indices are provably
    benign and journaled without simulation; each ``follows`` entry maps a
    follower index to the representative index whose injected outcome it
    inherits the moment that record lands. ``source`` names the pruning
    layer for the journal's ``pruned_by`` detail; ``sources`` overrides it
    per index for plans composed from several layers (e.g. static-dead
    points inside a def-use collapse carry ``pruned_by="static"``).
    """

    dead: tuple[int, ...] = ()
    follows: Mapping[int, int] = field(default_factory=dict)
    source: str = "defuse"
    sources: Mapping[int, str] = field(default_factory=dict)

    def followers_of(self) -> dict[int, list[int]]:
        """Representative index → sorted follower indices."""
        table: dict[int, list[int]] = {}
        for follower, rep in self.follows.items():
            table.setdefault(rep, []).append(follower)
        for followers in table.values():
            followers.sort()
        return table

    def validate(self, num_points: int) -> None:
        """Reject structurally impossible plans early."""
        dead = set(self.dead)
        for index in dead:
            if not 0 <= index < num_points:
                raise IndexError(f"dead index {index} outside point list")
        for follower, rep in self.follows.items():
            if not 0 <= follower < num_points or not 0 <= rep < num_points:
                raise IndexError(
                    f"follower {follower} -> rep {rep} outside point list"
                )
            if follower == rep:
                raise ValueError(f"point {follower} cannot follow itself")
            if follower in dead:
                raise ValueError(f"point {follower} is both dead and a follower")
            if rep in dead or rep in self.follows:
                raise ValueError(
                    f"representative {rep} must be an executable point"
                )


@dataclass
class RunReport:
    """What one :meth:`CampaignRunner.run` invocation did."""

    result: CampaignResult
    complete: bool
    journal_path: Path
    total_points: int
    executed: int = 0
    #: Points decided statically (dead intervals + equivalence followers),
    #: journaled without simulation.
    annotated: int = 0
    skipped: int = 0
    retries: int = 0
    quarantined: int = 0
    worker_restarts: int = 0
    #: Signal name if the run was interrupted, else None.
    interrupted: str | None = None
    #: Merged cross-process telemetry (set when telemetry_dir is enabled).
    telemetry: MergedTelemetry | None = None
    #: Warehouse campaign id (set when a completed run auto-ingested).
    store_id: int | None = None

    @property
    def resume_hint(self) -> str:
        """Shell hint for continuing an unfinished campaign."""
        return f"python -m repro.fi resume --journal {self.journal_path}"


def backoff_delay(
    attempt: int,
    base: float,
    cap: float = 30.0,
    jitter: float = 0.25,
    rng: random.Random | None = None,
) -> float:
    """Bounded exponential backoff with multiplicative jitter.

    ``attempt`` counts from 1. The deterministic part doubles per attempt
    and is clamped to ``cap``; the returned delay is that value stretched
    by a uniform factor in ``[1, 1 + jitter]``, so the result is always in
    ``[min(cap, base * 2**(attempt-1)),
    min(cap, base * 2**(attempt-1)) * (1 + jitter)]``. Jittering *up* from
    the deterministic floor keeps the old lower bound (retries never fire
    early) while decorrelating simultaneous retries across shards and
    workers.
    """
    if attempt < 1:
        raise ValueError(f"attempt counts from 1, got {attempt}")
    delay = min(cap, base * (2 ** (attempt - 1)))
    if jitter <= 0 or delay <= 0:
        return delay
    return delay * (1.0 + (rng or random).uniform(0.0, jitter))


def sample_points(
    netlist, golden_cycles: int, num_samples: int, seed: int = 0
) -> list[tuple[str, int]]:
    """Uniformly sampled ``(dff, cycle)`` injection points.

    The single source of the sampling order: :meth:`CampaignRunner.sample_points`
    and the distributed coordinator both delegate here, so a distributed
    campaign over the same target/seed injects the exact point list a
    single-host ``fi run`` would — the precondition for their journals
    being record-for-record comparable.
    """
    rng = random.Random(seed)
    names = list(netlist.dffs)
    return [
        (rng.choice(names), rng.randrange(golden_cycles))
        for _ in range(num_samples)
    ]


def load_result(journal_path: str | Path) -> CampaignResult:
    """Load a (possibly partial) journal into a valid CampaignResult."""
    state = load_journal(journal_path)
    return _assemble_result(state.header, state.records)


def _assemble_result(
    header: dict, records: dict[int, InjectionRecord]
) -> CampaignResult:
    result = CampaignResult(header["workload"], header["golden_cycles"])
    result.records = [records[i] for i in sorted(records)]
    return result


# ----------------------------------------------------------------------
# Worker side (module-level so the spawn pickler can reference it)
# ----------------------------------------------------------------------
_WORKER_CAMPAIGN: Campaign | None = None


def _worker_init(
    spec_doc: dict, max_cycles: int, telemetry_dir: str | None = None
) -> None:
    """Pool initializer: build the target and run golden once per worker."""
    global _WORKER_CAMPAIGN
    if telemetry_dir is not None:
        remote.enable_worker_telemetry(telemetry_dir)
    spec = TargetSpec.from_dict(spec_doc)
    _WORKER_CAMPAIGN = Campaign(spec.build(), max_cycles=max_cycles)
    remote.flush_worker_metrics()


def _worker_inject(
    index: int, dff_name: str, cycle: int
) -> tuple[int, str, float, int]:
    assert _WORKER_CAMPAIGN is not None, "worker initializer did not run"
    remote.worker_event("inject-start", i=index, dff=dff_name, cycle=cycle)
    start = time.monotonic()
    outcome = _WORKER_CAMPAIGN.inject(dff_name, cycle)
    seconds = time.monotonic() - start
    # Rate-limited /proc self-sample: the resource.* gauges ride the
    # cumulative snapshot home and surface per-worker in /metrics.
    resource.sample_self()
    remote.flush_worker_metrics()
    return index, outcome.value, seconds, os.getpid()


def _worker_probe() -> bool:
    """No-op marker task: completes once a worker finished initializing."""
    return _WORKER_CAMPAIGN is not None


# ----------------------------------------------------------------------
class CampaignRunner:
    """Fault-tolerant executor of one campaign over one target spec."""

    #: Points per :meth:`Campaign.inject_many` batch of the inline runner:
    #: one lane pass. Larger batches, sorted by cycle, measured no faster.
    INLINE_BATCH = Campaign.LANES - 1

    def __init__(self, spec: TargetSpec, config: RunnerConfig | None = None) -> None:
        self.spec = spec
        self.config = config or RunnerConfig()
        with span("runner/parent-setup"):
            self.target = spec.build()
            start = time.monotonic()
            self.campaign = Campaign(self.target, max_cycles=self.config.max_cycles)
            self.golden_wall_seconds = time.monotonic() - start
        self.netlist_hash = netlist_content_hash(self.target.simulator.netlist)
        self._dashboard: CampaignDashboard | None = None
        self._plan: AnnotationPlan | None = None
        self._plan_followers: dict[int, list[int]] = {}
        self._run_points: list[tuple[str, int]] = []
        self._run_started = time.monotonic()

    # ------------------------------------------------------------------
    @property
    def golden_cycles(self) -> int:
        return self.campaign.golden_cycles

    def sample_points(
        self, num_samples: int, seed: int = 0
    ) -> list[tuple[str, int]]:
        """The exact point list ``Campaign.run_sampled`` would inject."""
        return sample_points(
            self.target.simulator.netlist, self.golden_cycles,
            num_samples, seed,
        )

    def wall_timeout(self) -> float:
        """Per-injection wall-clock budget (seconds)."""
        if self.config.timeout_seconds is not None:
            return self.config.timeout_seconds
        return max(
            self.config.min_timeout_seconds,
            self.golden_wall_seconds * self.config.timeout_factor,
        )

    def _header(
        self,
        points: list[tuple[str, int]],
        seed: int | None,
        meta: dict | None = None,
    ) -> dict:
        header = {
            "target": self.spec.to_dict(),
            "workload": self.target.name,
            "netlist_hash": self.netlist_hash,
            "points_hash": points_hash(points),
            "seed": seed,
            "num_points": len(points),
            "golden_cycles": self.golden_cycles,
            "max_cycles": self.config.max_cycles,
            "points": [[dff, cycle] for dff, cycle in points],
        }
        if meta:
            header["meta"] = dict(meta)
        return header

    def _validate_points(self, points: list[tuple[str, int]]) -> None:
        dffs = self.target.simulator.netlist.dffs
        for dff_name, cycle in points:
            if dff_name not in dffs:
                raise KeyError(f"unknown flip-flop {dff_name!r}")
            if not 0 <= cycle < self.golden_cycles:
                raise ValueError(
                    f"cycle {cycle} outside the golden run [0, {self.golden_cycles})"
                )

    # ------------------------------------------------------------------
    def run(
        self,
        points: list[tuple[str, int]],
        journal_path: str | Path,
        resume: bool = False,
        seed: int | None = None,
        dashboard: CampaignDashboard | None = None,
        meta: dict | None = None,
        plan: AnnotationPlan | None = None,
    ) -> RunReport:
        """Execute (or continue) the campaign, journaling every record.

        ``plan`` is an optional static :class:`AnnotationPlan`: its dead
        points are journaled as BENIGN up front (zero simulations), its
        followers are back-annotated with their representative's outcome as
        soon as that record lands, and only the remaining points are
        actually injected. Resuming a collapsed campaign requires passing
        an identical plan (rebuilt deterministically from the same
        equivalence map and point list).

        With ``resume=True`` an existing journal is validated against this
        campaign's header (netlist hash, workload, point-list hash, seed,
        golden length) and already-recorded points are skipped; a mismatch
        raises :class:`~repro.fi.journal.JournalMismatch`. Without it, an
        existing non-empty journal is an error.

        ``dashboard`` receives live progress totals after every recorded
        injection (see :class:`~repro.obs.dashboard.CampaignDashboard`).

        ``meta`` is free-form JSON-serializable context written into a
        *fresh* journal's header under ``"meta"`` (a resumed journal keeps
        its original metadata). It never participates in resume matching;
        the results warehouse reads keys like ``pruned`` /
        ``space_points`` / ``pruned_points`` from it.
        """
        journal_path = Path(journal_path)
        points = list(points)
        self._validate_points(points)
        if plan is not None:
            plan.validate(len(points))
        header = self._header(points, seed, meta)

        done: dict[int, InjectionRecord] = {}
        already_complete = False
        if journal_path.exists() and journal_path.stat().st_size > 0:
            if not resume:
                raise FileExistsError(
                    f"journal {journal_path} already exists — resume it with "
                    f"'python -m repro.fi resume --journal {journal_path}' "
                    "or delete it to start over"
                )
            state = load_journal(journal_path)
            check_resumable(state, header)
            done = dict(state.records)
            already_complete = state.complete
            counter("campaign.resume.skipped").inc(len(done))

        report = RunReport(
            result=CampaignResult(self.target.name, self.golden_cycles),
            complete=False,
            journal_path=journal_path,
            total_points=len(points),
            skipped=len(done),
        )
        self._plan = plan
        self._plan_followers = plan.followers_of() if plan is not None else {}
        self._run_points = points
        skip_static: set[int] = (
            set(plan.dead) | set(plan.follows) if plan is not None else set()
        )
        # The limit budgets *injections*; statically annotated points are free.
        pending = [
            i for i in range(len(points)) if i not in done and i not in skip_static
        ]
        if self.config.limit is not None:
            pending = pending[: self.config.limit]

        stop = threading.Event()
        stop_signal: list[str] = []
        old_handlers = self._install_handlers(stop, stop_signal)
        telemetry_dir, parent_writer = self._open_telemetry()
        self._dashboard = dashboard
        self._run_started = time.monotonic()
        try:
            with CampaignJournal(
                journal_path, header, self.config.fsync_interval
            ) as journal, span(
                "runner/execute", target=self.target.name, points=len(pending)
            ) as run_span:
                if plan is not None:
                    self._annotate_static(plan, points, done, journal, report)
                if pending:
                    if self.config.workers <= 0:
                        self._run_inline(points, pending, done, journal, report, stop)
                    else:
                        self._run_pool(points, pending, done, journal, report, stop)
                executed_all = len(done) == len(points)
                if executed_all and not stop.is_set():
                    if not already_complete:
                        journal.mark_complete(len(done))
                    report.complete = True
            if run_span.elapsed > 0 and report.executed:
                gauge("campaign.injections_per_second").set(
                    report.executed / run_span.elapsed
                )
        finally:
            self._dashboard = None
            self._plan = None
            self._plan_followers = {}
            self._run_points = []
            if parent_writer is not None:
                events.remove_sink(parent_writer)
                parent_writer.flush_metrics()
                parent_writer.close()
            self._restore_handlers(old_handlers)

        if telemetry_dir is not None:
            report.telemetry = remote.collect(telemetry_dir)
        report.interrupted = stop_signal[0] if stop_signal else None
        report.result = _assemble_result(header, done)
        if report.complete and self.config.store_path is not None:
            report.store_id = self._auto_ingest(journal_path, telemetry_dir)
        return report

    def _auto_ingest(
        self, journal_path: Path, telemetry_dir: Path | None
    ) -> int | None:
        """Ingest the completed journal into the results warehouse.

        Best-effort by design: the campaign's results are already durable
        in the journal, so a warehouse problem is counted
        (``store.ingest.errors``) and reported as a warning, never raised.
        """
        from repro.store import ResultsStore

        try:
            with span("store/auto-ingest"), ResultsStore(
                self.config.store_path
            ) as store:
                return store.ingest_journal(
                    journal_path, telemetry_dir=telemetry_dir
                )
        except Exception as exc:  # noqa: BLE001 - warehouse must not kill runs
            counter("store.ingest.errors").inc()
            print(
                f"warning: could not ingest {journal_path} into "
                f"{self.config.store_path}: {exc}",
                file=sys.stderr,
            )
            return None

    def _open_telemetry(self):
        """Start the parent's telemetry stream if a directory is configured."""
        if self.config.telemetry_dir is None:
            return None, None
        telemetry_dir = Path(self.config.telemetry_dir)
        telemetry_dir.mkdir(parents=True, exist_ok=True)
        writer = remote.TelemetryWriter(
            telemetry_dir / remote.PARENT_FILE, role="parent"
        )
        events.install_sink(writer)
        return telemetry_dir, writer

    # ------------------------------------------------------------------
    def _install_handlers(self, stop: threading.Event, names: list[str]):
        if (
            not self.config.install_signal_handlers
            or threading.current_thread() is not threading.main_thread()
        ):
            return None

        def handler(signum, frame):
            names.append(signal.Signals(signum).name)
            stop.set()

        return {
            sig: signal.signal(sig, handler)
            for sig in (signal.SIGINT, signal.SIGTERM)
        }

    @staticmethod
    def _restore_handlers(old_handlers) -> None:
        if old_handlers:
            for sig, old in old_handlers.items():
                signal.signal(sig, old)

    # ------------------------------------------------------------------
    def _annotate_static(
        self,
        plan: AnnotationPlan,
        points: list[tuple[str, int]],
        done: dict[int, InjectionRecord],
        journal: CampaignJournal,
        report: RunReport,
    ) -> None:
        """Journal the plan's simulation-free outcomes.

        Dead points are BENIGN by construction; followers whose
        representative already has a record (a resumed collapsed campaign)
        inherit it immediately. Followers of still-pending representatives
        are back-annotated later through the :meth:`_record` funnel.
        """
        for index in plan.dead:
            if index not in done:
                self._record(
                    journal, done, report, index, points[index],
                    Outcome.BENIGN, attempts=0,
                    annotation={"pruned_by": plan.sources.get(index, plan.source)},
                )
        for follower, rep in sorted(plan.follows.items()):
            if follower not in done and rep in done:
                self._record(
                    journal, done, report, follower, points[follower],
                    done[rep].outcome, attempts=0,
                    annotation={
                        "pruned_by": plan.sources.get(follower, plan.source),
                        "equivalence_rep": points[rep],
                    },
                )

    def _record(
        self,
        journal: CampaignJournal,
        done: dict[int, InjectionRecord],
        report: RunReport,
        index: int,
        point: tuple[str, int],
        outcome: Outcome,
        attempts: int,
        error: str | None = None,
        seconds: float | None = None,
        worker: int | None = None,
        annotation: dict | None = None,
    ) -> None:
        record = InjectionRecord(point[0], point[1], outcome)
        journal.append_record(
            index, record, attempts=attempts, error=error,
            seconds=seconds, worker=worker,
            pruned_by=annotation.get("pruned_by") if annotation else None,
            equivalence_rep=annotation.get("equivalence_rep") if annotation else None,
        )
        done[index] = record
        if annotation is not None:
            report.annotated += 1
            counter("campaign.points.annotated").inc()
        else:
            report.executed += 1
            counter("campaign.injections").inc()
        counter(f"campaign.outcome.{outcome.value}").inc()
        if seconds is not None:
            histogram("campaign.injection_seconds").observe(seconds)
        elapsed = time.monotonic() - self._run_started
        if elapsed > 0 and report.executed:
            gauge("campaign.injections_per_second").set(report.executed / elapsed)
        if self._dashboard is not None:
            self._dashboard.update(
                executed=report.executed + report.annotated,
                skipped=report.skipped,
                retries=report.retries,
                quarantined=report.quarantined,
            )
        # A freshly-landed representative decides its followers right away.
        followers = self._plan_followers.get(index)
        if annotation is None and followers:
            plan = self._plan
            for follower in followers:
                if follower not in done:
                    source = (
                        plan.sources.get(follower, plan.source)
                        if plan is not None
                        else "defuse"
                    )
                    self._record(
                        journal, done, report, follower,
                        self._run_points[follower], outcome, attempts=0,
                        annotation={"pruned_by": source, "equivalence_rep": point},
                    )

    def _retry_delay(self, attempt: int) -> float:
        """The jittered backoff sleep before re-running a failed attempt."""
        return backoff_delay(
            attempt,
            self.config.retry_backoff,
            cap=self.config.retry_backoff_cap,
            jitter=self.config.retry_jitter,
        )

    def _quarantine(
        self,
        journal: CampaignJournal,
        done: dict[int, InjectionRecord],
        report: RunReport,
        index: int,
        point: tuple[str, int],
        attempts: int,
        error: str,
    ) -> None:
        report.quarantined += 1
        counter("campaign.points.quarantined").inc()
        self._record(
            journal, done, report, index, point, Outcome.ERROR, attempts, error
        )

    # ------------------------------------------------------------------
    def _run_inline(self, points, pending, done, journal, report, stop) -> None:
        """Serial in-process execution (workers=0): retries, no wall timeout.

        Pending points run in batches through :meth:`Campaign.inject_many`
        and are journaled in ``pending`` order; a batch that raises is
        re-run point by point with retries and quarantine.
        """
        size = self.INLINE_BATCH if self.campaign.checkpoints else 1
        for at in range(0, len(pending), size):
            if stop.is_set():
                return
            batch = pending[at:at + size]
            if len(batch) > 1:
                seconds: list[float] = []
                try:
                    outcomes = self.campaign.inject_many(
                        [points[index] for index in batch], seconds
                    )
                except Exception:  # noqa: BLE001 - re-run point by point below
                    counter("campaign.batch.fallbacks").inc()
                else:
                    for index, outcome, took in zip(batch, outcomes, seconds):
                        self._record(
                            journal, done, report, index, points[index],
                            outcome, attempts=1, seconds=took, worker=os.getpid(),
                        )
                    continue
            for index in batch:
                if stop.is_set():
                    return
                self._run_point(points, index, done, journal, report)

    def _run_point(self, points, index, done, journal, report) -> None:
        """One point in process, retried until it records or is quarantined."""
        dff_name, cycle = points[index]
        attempts = 0
        while True:
            attempts += 1
            start = time.monotonic()
            try:
                outcome = self.campaign.inject(dff_name, cycle)
            except Exception as exc:  # noqa: BLE001 - quarantine boundary
                if attempts > self.config.max_retries:
                    self._quarantine(
                        journal, done, report, index, points[index],
                        attempts, f"{type(exc).__name__}: {exc}",
                    )
                    return
                report.retries += 1
                counter("campaign.retries").inc()
                time.sleep(self._retry_delay(attempts))
            else:
                self._record(
                    journal, done, report, index, points[index],
                    outcome, attempts,
                    seconds=time.monotonic() - start, worker=os.getpid(),
                )
                return

    # ------------------------------------------------------------------
    def _make_pool(self) -> ProcessPoolExecutor:
        import multiprocessing

        telemetry_dir = (
            str(self.config.telemetry_dir)
            if self.config.telemetry_dir is not None
            else None
        )
        return ProcessPoolExecutor(
            max_workers=self.config.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_worker_init,
            initargs=(self.spec.to_dict(), self.config.max_cycles, telemetry_dir),
        )

    @staticmethod
    def _kill_pool(pool: ProcessPoolExecutor) -> None:
        """Hard-stop a pool whose workers may be wedged."""
        processes = list(getattr(pool, "_processes", {}).values())
        for process in processes:
            process.kill()
        pool.shutdown(wait=False, cancel_futures=True)

    def _run_pool(self, points, pending, done, journal, report, stop) -> None:
        """Supervised ProcessPoolExecutor execution with timeouts/retries."""
        config = self.config
        timeout = self.wall_timeout()
        queue = deque(pending)
        attempts: dict[int, int] = dict.fromkeys(pending, 0)
        last_error = "unknown"
        pool = self._make_pool()
        # The probe completes once a worker finished initializing (spawn +
        # compile + golden run). Until then, submitted points carry the
        # startup grace on their deadline; once it lands, deadlines re-arm
        # to a plain `now + timeout` so a hung first task cannot hide
        # behind the grace — including after every pool restart.
        probe = pool.submit(_worker_probe)
        pool_warm = False
        cold_restarts = 0  # pool deaths before any worker ever succeeded
        outstanding: dict = {}  # future -> (index, deadline)
        try:
            while (queue or outstanding) and not stop.is_set():
                # A point that failed before (crash or timeout) re-runs
                # *solo*: if the pool breaks again the culprit is
                # unambiguous, so innocent neighbours are never penalized
                # twice and only true poison points reach quarantine.
                solo_active = any(
                    attempts[i] > 0 for i, _ in outstanding.values()
                )
                while (
                    queue and len(outstanding) < config.workers and not solo_active
                ):
                    if attempts[queue[0]] > 0 and outstanding:
                        break  # drain the window, then run the suspect alone
                    index = queue.popleft()
                    dff_name, cycle = points[index]
                    future = pool.submit(_worker_inject, index, dff_name, cycle)
                    deadline = time.monotonic() + timeout
                    if not pool_warm:
                        deadline += config.startup_grace
                    outstanding[future] = (index, deadline)
                    if attempts[index] > 0:
                        break  # suspect submitted; keep it alone in the pool

                now = time.monotonic()
                wait_budget = max(
                    0.01, min(dl for _, dl in outstanding.values()) - now
                )
                waitset = set(outstanding)
                if not pool_warm:
                    waitset.add(probe)
                finished, _ = wait(
                    waitset, timeout=wait_budget, return_when=FIRST_COMPLETED
                )

                if not pool_warm and probe.done() and probe.exception() is None:
                    pool_warm = True
                    rearm = time.monotonic() + timeout
                    for key, (i, deadline) in outstanding.items():
                        outstanding[key] = (i, min(deadline, rearm))

                pool_broken = False
                for future in finished:
                    if future not in outstanding:
                        continue  # the probe
                    index, _ = outstanding.pop(future)
                    exc = future.exception()
                    if exc is None:
                        result_index, outcome_value, seconds, pid = future.result()
                        self._record(
                            journal, done, report, result_index,
                            points[result_index], Outcome(outcome_value),
                            attempts[result_index] + 1,
                            seconds=seconds, worker=pid,
                        )
                    elif isinstance(exc, BrokenProcessPool):
                        pool_broken = True
                        last_error = f"worker crashed: {exc}"
                        self._register_failure(
                            journal, done, report, points, queue, attempts,
                            index, last_error,
                        )
                    else:
                        last_error = f"{type(exc).__name__}: {exc}"
                        self._register_failure(
                            journal, done, report, points, queue, attempts,
                            index, last_error,
                        )

                timed_out = [
                    (future, index)
                    for future, (index, deadline) in outstanding.items()
                    if time.monotonic() >= deadline and not future.done()
                ]
                if timed_out:
                    for _, index in timed_out:
                        self._register_failure(
                            journal, done, report, points, queue, attempts,
                            index, f"wall-clock timeout after {timeout:.1f}s",
                        )
                    hung = {index for _, index in timed_out}
                    # The pool has wedged workers — survivors are innocent
                    # victims of the restart and are requeued free of charge.
                    for future, (index, _) in outstanding.items():
                        if index not in hung and not future.done():
                            queue.append(index)
                    outstanding.clear()
                    pool, probe, pool_warm = self._restart_pool(pool, report)
                elif pool_broken:
                    if not pool_warm:
                        cold_restarts += 1
                        if cold_restarts > max(2, self.config.max_retries + 1):
                            raise RuntimeError(
                                "worker pool died repeatedly before completing "
                                "a single injection — the target spec likely "
                                "fails to build in workers; last error: "
                                + last_error
                            )
                    # Every other outstanding future is doomed with the same
                    # BrokenProcessPool; drain them as free requeues.
                    for future, (index, _) in outstanding.items():
                        if index not in done:
                            queue.append(index)
                    outstanding.clear()
                    pool, probe, pool_warm = self._restart_pool(pool, report)
            if stop.is_set():
                for future in outstanding:
                    future.cancel()
        finally:
            self._kill_pool(pool)

    def _restart_pool(self, pool: ProcessPoolExecutor, report: RunReport):
        self._kill_pool(pool)
        report.worker_restarts += self.config.workers
        counter("campaign.worker_restarts").inc(self.config.workers)
        fresh = self._make_pool()
        return fresh, fresh.submit(_worker_probe), False

    def _register_failure(
        self, journal, done, report, points, queue, attempts,
        index: int, error: str,
    ) -> None:
        """Count one failed attempt; retry or quarantine the point."""
        if index in done:  # already quarantined in this round
            return
        attempts[index] += 1
        if attempts[index] > self.config.max_retries:
            self._quarantine(
                journal, done, report, index, points[index], attempts[index],
                error,
            )
        else:
            report.retries += 1
            counter("campaign.retries").inc()
            time.sleep(self._retry_delay(attempts[index]))
            queue.append(index)
