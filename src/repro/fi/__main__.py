"""Command-line campaign runner (resilient execution engine).

Usage::

    python -m repro.fi run --target msp430-fib --sampled 200 \\
        --journal camp.jsonl --workers 4          # parallel campaign
    python -m repro.fi run --target avr-fib --sampled 500 --pruned \\
        --journal pruned.jsonl                    # sample the MATE-pruned space
    python -m repro.fi run --target avr-fib --sampled 500 --defuse \\
        --journal defuse.jsonl   # inject def-use representatives only,
                                 # back-annotate the rest (repro.prune)
    python -m repro.fi run --target avr-fib --sampled 500 --defuse --static \\
        --journal layered.jsonl  # + binary-level static dataflow layer:
                                 # statically-dead points get pruned_by=static
    python -m repro.fi resume --journal camp.jsonl  # continue after a crash
    python -m repro.fi status --journal camp.jsonl  # progress + outcome tally
    python -m repro.fi report camp.jsonl            # self-contained HTML report

    python -m repro.fi run --target avr-fib --sampled 500 \\
        --journal camp.jsonl --serve 8080   # + live HTTP console at :8080

    python -m repro.fi serve --state-dir campaigns --port 7712 \\
        --console-port 8080 --auth-token-file token.txt   # coordinator
    python -m repro.fi worker --connect HOST:7712 \\
        --auth-token-file token.txt                       # injector
    python -m repro.fi submit --connect HOST:7712 \\
        --target avr-fib --sampled 2000 --wait --fail-on-alert
    python -m repro.fi status --journal campaigns/<name>   # sharded progress

The distributed trio runs one coordinator (owns all durable state: the
campaign manifest, per-shard crash-safe journals, relayed telemetry, and
the merged journal) plus any number of stateless workers, possibly on
other hosts. Workers that die mid-shard only cost the in-flight
injection; a kill -9'd coordinator resumes exactly from its shard
journals on restart; with zero workers the coordinator degrades to local
execution.

``--serve [PORT]`` (run/resume) and ``--console-port`` (serve) mount the
live observability console (:mod:`repro.obs.http`): Prometheus
``/metrics``, ``/status.json`` with the lease table and health alerts, an
SSE-driven HTML dashboard at ``/``, and per-campaign drill-down pages.
``--auth-token`` / ``--auth-token-file`` / ``$REPRO_FI_TOKEN`` set the
shared-secret token that gates worker and submit handshakes plus the
console's mutating routes; ``submit --wait --fail-on-alert`` turns a
firing coordinator health rule into a nonzero exit for CI gates.

Pooled runs stream per-worker telemetry to ``<journal>.telemetry/`` by
default (``--telemetry-dir`` overrides); ``--metrics-out`` writes the
merged registry snapshot as JSON and ``--trace-out`` writes a Perfetto/
``about://tracing``-loadable trace of the whole campaign. On a TTY, a live
multi-line dashboard shows per-worker progress (force with ``--verbose``).

``--target`` accepts a named core+program combination (``avr-fib``,
``avr-conv``, ``msp430-fib``, ``msp430-conv``) or a
``package.module:callable`` reference to a zero-/keyword-argument factory
returning a :class:`~repro.fi.campaign.CampaignTarget`.

Every injection outcome is journaled durably; an interrupted run (Ctrl-C,
SIGTERM, SIGKILL, power loss) resumes exactly where it stopped.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from pathlib import Path

from repro import obs
from repro.fi.classify import Outcome
from repro.fi.journal import JournalError, load_journal
from repro.fi.runner import CampaignRunner, RunnerConfig, RunReport, TargetSpec
from repro.fi.targets import NAMED_TARGETS

#: Exit code when a run stops early but remains resumable.
EXIT_INTERRUPTED = 130
#: Exit code of ``submit --wait --fail-on-alert`` when a health rule fires.
EXIT_ALERT = 3
#: Environment variable carrying the shared-secret service auth token.
TOKEN_ENV = "REPRO_FI_TOKEN"


def _resolve_token(args: argparse.Namespace) -> str | None:
    """The service auth token: ``--auth-token`` > file > environment."""
    token = getattr(args, "auth_token", None)
    if token:
        return str(token)
    token_file = getattr(args, "auth_token_file", None)
    if token_file:
        return Path(token_file).read_text(encoding="utf-8").strip()
    return os.environ.get(TOKEN_ENV) or None


def _spec_for(target: str) -> TargetSpec:
    if target in NAMED_TARGETS:
        return TargetSpec(
            factory="repro.fi.targets:named_target", kwargs={"name": target}
        )
    if ":" in target:
        return TargetSpec(factory=target)
    raise SystemExit(
        f"error: unknown target {target!r} — expected one of "
        f"{', '.join(NAMED_TARGETS)} or a 'package.module:callable' reference"
    )


def _config_from_args(args: argparse.Namespace) -> RunnerConfig:
    config = RunnerConfig(
        workers=args.workers,
        max_retries=args.max_retries,
        limit=args.limit,
    )
    if args.timeout_factor is not None:
        config.timeout_factor = args.timeout_factor
    if args.timeout_seconds is not None:
        config.timeout_seconds = args.timeout_seconds
    config.telemetry_dir = _telemetry_dir_for(args)
    if not args.no_store:
        if args.store is not None:
            config.store_path = args.store
        else:
            from repro.store import default_db_path

            config.store_path = default_db_path()
    return config


def _telemetry_dir_for(args: argparse.Namespace) -> Path | None:
    """Where this run's telemetry goes; None disables it.

    Defaults to ``<journal>.telemetry`` for pooled runs (and whenever a
    trace is requested, since the trace is built from telemetry);
    ``--telemetry-dir ''`` turns telemetry off explicitly.
    """
    explicit = getattr(args, "telemetry_dir", None)
    if explicit is not None:
        return Path(explicit) if str(explicit) else None
    if args.workers > 0 or getattr(args, "trace_out", None):
        return Path(f"{args.journal}.telemetry")
    return None


def _pruned_points(
    runner: CampaignRunner, target: str, num_samples: int, seed: int
) -> tuple[list[tuple[str, int]], dict, dict]:
    """Sample the MATE-pruned (remaining) fault space of a named target.

    Returns the point list, journal-header metadata attributing the pruning
    (full space size, points pruned away) for the warehouse's
    pruning-effectiveness reporting, and the per-wire MATE vectors (reused
    for cross-layer attribution when ``--defuse`` is also set).
    """
    import random

    from repro.core.faultspace import FaultSpace
    from repro.prune import get_mate_vectors

    netlist = runner.target.simulator.netlist
    dff_of_wire = {dff.q: name for name, dff in netlist.dffs.items()}
    mate_vectors = get_mate_vectors(target)

    space = FaultSpace(list(mate_vectors), runner.golden_cycles)
    for wire, benign in mate_vectors.items():
        space.mark_benign_cycles(wire, benign)
    remaining = [
        (dff_of_wire[wire], cycle)
        for wire, cycle in space.remaining_points()
        if wire in dff_of_wire
    ]
    obs.counter("campaign.points.pruned").inc(space.num_benign)
    if len(remaining) > num_samples:
        remaining = random.Random(seed).sample(remaining, num_samples)
    meta = {
        "pruned": True,
        "space_points": space.size,
        "pruned_points": space.num_benign,
    }
    return remaining, meta, mate_vectors


def _static_map_for(runner: CampaignRunner, target: str):
    """The static dataflow map for a named target, length-checked."""
    from repro.prune import get_static_map

    static_map = get_static_map(target)
    if static_map.golden_cycles != runner.golden_cycles:
        raise ValueError(
            f"stale static map for {target}: covers "
            f"{static_map.golden_cycles} cycle(s), golden run has "
            f"{runner.golden_cycles}"
        )
    return static_map


def _static_plan(
    runner: CampaignRunner,
    target: str,
    points: list[tuple[str, int]],
):
    """Annotate ``points`` using only the static dataflow layer."""
    from repro.prune import collapse_static

    static_map = _static_map_for(runner, target)
    collapse = collapse_static(points, static_map)
    meta = {
        "static": True,
        "static_annotated": collapse.num_annotated,
    }
    print(f"static collapse: {collapse.summary()}")
    return collapse.annotation_plan(source="static"), meta


def _defuse_plan(
    runner: CampaignRunner,
    target: str,
    points: list[tuple[str, int]],
    mate_vectors: dict | None = None,
    with_static: bool = False,
):
    """Collapse ``points`` onto def-use representatives for a named target.

    Returns the runner :class:`~repro.fi.runner.AnnotationPlan` plus the
    journal-header metadata (collapse counts and per-layer fault-space
    attribution) the warehouse reads back out. With ``with_static`` the
    static dataflow layer is consulted first, so its trace-independent dead
    points carry ``pruned_by="static"`` provenance.
    """
    from repro.prune import account, get_equivalence_map

    equivalence_map = get_equivalence_map(target)
    if equivalence_map.golden_cycles != runner.golden_cycles:
        raise ValueError(
            f"stale equivalence map for {target}: covers "
            f"{equivalence_map.golden_cycles} cycle(s), golden run has "
            f"{runner.golden_cycles}"
        )
    static_map = _static_map_for(runner, target) if with_static else None
    collapse = equivalence_map.collapse(points, static_map=static_map)
    accounting = account(
        target,
        runner.target.simulator.netlist,
        equivalence_map,
        mate_vectors,
        static_map=static_map,
    )
    meta = {
        "defuse": True,
        "defuse_injected": collapse.num_injected,
        "defuse_annotated": collapse.num_annotated,
        "layers": accounting.layers(),
    }
    if with_static:
        meta["static"] = True
        meta["static_annotated"] = len(
            [i for i, s in collapse.sources.items() if s == "static"]
        )
    print(f"def-use collapse: {collapse.summary()}")
    return collapse.annotation_plan(), meta


def _print_report(report: RunReport) -> int:
    result = report.result
    print(result.summary())
    annotated = (
        f"{report.annotated} back-annotated, " if report.annotated else ""
    )
    print(
        f"executed {report.executed} new, {annotated}"
        f"skipped {report.skipped} journaled, "
        f"{report.retries} retries, {report.quarantined} quarantined, "
        f"{report.worker_restarts} worker restarts"
    )
    if report.complete:
        print(f"campaign complete — journal: {report.journal_path}")
        if report.store_id is not None:
            print(
                f"warehoused as campaign #{report.store_id} "
                f"(python -m repro.store show {report.store_id})"
            )
        return 0
    reason = (
        f"interrupted by {report.interrupted}"
        if report.interrupted
        else "stopped at --limit"
    )
    print(f"campaign incomplete ({reason}) — resume with:")
    print(f"  {report.resume_hint}")
    return EXIT_INTERRUPTED if report.interrupted else 0


class _ConsoleDashboard(obs.CampaignDashboard):
    """Campaign dashboard that mirrors updates to live console subscribers.

    With ``--serve`` the run's :func:`_run_console` provider and its
    thread handle are attached after construction; each runner update then
    pushes a throttled ``status`` SSE event so open dashboards track the
    run without waiting for their 2 s poll.
    """

    console = None
    provider = None
    _last_publish = 0.0

    def update(self, **kwargs) -> None:
        super().update(**kwargs)
        handle, provider = self.console, self.provider
        if handle is None or provider is None:
            return
        server = handle.server
        if server is None or not server.has_subscribers:
            return
        now = time.monotonic()
        if now - self._last_publish < 0.5:
            return
        self._last_publish = now
        handle.publish("status", provider.status_doc())


def _run_console(dashboard: obs.CampaignDashboard, name: str):
    """Console provider over one single-host run (``fi run --serve``).

    Mirrors the coordinator's ``/status.json`` shape — one campaign, no
    shard table — so the same dashboard page serves both deployments.
    Built on the ``--serve`` path only: its base class lives in
    :mod:`repro.obs.http`, which loads asyncio.
    """

    class RunConsole(obs.ConsoleProvider):
        def title(self) -> str:
            return f"repro fi run — {name}"

        def metrics_text(self) -> str:
            telemetry_dir = dashboard.telemetry_dir
            return obs.merged_metrics_text(
                [telemetry_dir] if telemetry_dir is not None else []
            )

        def status_doc(self) -> dict:
            done = dashboard.executed + dashboard.skipped
            outcomes = {
                outcome.value: obs.counter(
                    f"campaign.outcome.{outcome.value}"
                ).value
                for outcome in Outcome
            }
            if not dashboard.enabled:
                # No TTY panel driving the telemetry tails — poll them here
                # so the worker table still fills in (dict reads/writes are
                # safe under the GIL; worst case a refresh sees a stale row).
                dashboard._poll_workers()
            workers = [
                {
                    "pid": row.pid,
                    "peer": "local pool",
                    "records": row.done,
                    "shards_taken": 0,
                    "authenticated": False,
                    "rss_bytes": None,
                    "cpu_percent": None,
                }
                for _, row in sorted(dashboard._workers.items())
            ]
            return {
                "kind": "status",
                "workers": len(workers),
                "rate": dashboard.rolling_rate,
                "alerts": [],
                "alerts_fired_total": 0,
                "worker_table": workers,
                "campaigns": [
                    {
                        "name": name,
                        "status": (
                            "complete" if done >= dashboard.total else "running"
                        ),
                        "done": done,
                        "total": dashboard.total,
                        "quarantined": dashboard.quarantined,
                        "retries": dashboard.retries,
                        "eta_seconds": dashboard.eta_seconds,
                        "outcomes": {k: v for k, v in outcomes.items() if v},
                        "store_id": None,
                        "shards": [],
                    }
                ],
            }

    return RunConsole()


def _execute(
    runner: CampaignRunner,
    points: list[tuple[str, int]],
    args: argparse.Namespace,
    resume: bool,
    seed: int | None,
    meta: dict | None = None,
    plan=None,
) -> int:
    """Run the campaign with the live dashboard and telemetry outputs."""
    dashboard = _ConsoleDashboard(
        total=len(points),
        label=f"campaign {runner.target.name}",
        telemetry_dir=runner.config.telemetry_dir,
    )
    handle = None
    serve_port = getattr(args, "serve", None)
    if serve_port is not None:
        provider = _run_console(dashboard, runner.target.name)
        handle = obs.start_in_thread(provider, port=serve_port)
        dashboard.console = handle
        dashboard.provider = provider
        print(f"live console: {handle.url}", file=sys.stderr)
    try:
        with dashboard:
            report = runner.run(
                points, args.journal, resume=resume, seed=seed,
                dashboard=dashboard, meta=meta, plan=plan,
            )
    finally:
        if handle is not None:
            handle.stop()
    if dashboard.enabled:
        print(file=sys.stderr)
    if args.trace_out:
        if report.telemetry is not None:
            obs.write_trace(args.trace_out, report.telemetry)
            print(f"trace written to {args.trace_out}")
        else:
            print(
                "warning: --trace-out needs telemetry (enable --telemetry-dir)",
                file=sys.stderr,
            )
    if args.metrics_out:
        obs.write_json(args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return _print_report(report)


def _cmd_run(args: argparse.Namespace) -> int:
    spec = _spec_for(args.target)
    runner = CampaignRunner(spec, _config_from_args(args))
    mate_vectors = None
    if args.pruned:
        if args.target not in NAMED_TARGETS:
            raise SystemExit("error: --pruned requires a named core target")
        points, meta, mate_vectors = _pruned_points(
            runner, args.target, args.sampled, args.seed
        )
    else:
        points = runner.sample_points(args.sampled, seed=args.seed)
        num_ffs = len(runner.target.simulator.netlist.dffs)
        meta = {"pruned": False,
                "space_points": num_ffs * runner.golden_cycles}
    plan = None
    if args.defuse:
        if args.target not in NAMED_TARGETS:
            raise SystemExit("error: --defuse requires a named core target")
        plan, defuse_meta = _defuse_plan(runner, args.target, points,
                                         mate_vectors,
                                         with_static=args.static)
        meta.update(defuse_meta)
    elif args.static:
        if args.target not in NAMED_TARGETS:
            raise SystemExit("error: --static requires a named core target")
        plan, static_meta = _static_plan(runner, args.target, points)
        meta.update(static_meta)
    return _execute(runner, points, args, resume=args.resume, seed=args.seed,
                    meta=meta, plan=plan)


def _cmd_resume(args: argparse.Namespace) -> int:
    state = load_journal(args.journal)
    if state.complete:
        print(f"journal {args.journal} is already complete:")
        return _cmd_status(args)
    spec = TargetSpec.from_dict(state.header["target"])
    config = _config_from_args(args)
    config.max_cycles = state.header["max_cycles"]
    runner = CampaignRunner(spec, config)
    plan = None
    meta = state.header.get("meta") or {}
    if meta.get("defuse") or meta.get("static"):
        # A collapsed campaign resumes under the same deterministic plan,
        # rebuilt from the cached maps and the journaled points.
        workload = state.header["workload"]
        if workload not in NAMED_TARGETS:
            raise SystemExit(
                f"error: cannot rebuild the pruning plan for non-named "
                f"target {workload!r}"
            )
        from repro.prune import (
            collapse_static,
            get_equivalence_map,
            get_static_map,
        )

        static_map = get_static_map(workload) if meta.get("static") else None
        if meta.get("defuse"):
            plan = (
                get_equivalence_map(workload)
                .collapse(state.points, static_map=static_map)
                .annotation_plan()
            )
        else:
            plan = collapse_static(state.points, static_map).annotation_plan(
                source="static"
            )
    return _execute(
        runner, state.points, args, resume=True,
        seed=state.header.get("seed"), plan=plan,
    )


def _last_known_rate(telemetry_dir: Path, window: int = 20) -> float | None:
    """Completion rate (injections/s) over the last recorded span window.

    Derived from the workers' ``campaign/inject`` span stream, so it
    survives a SIGKILLed parent (workers flush after every injection) and
    reflects the *end* of the run, not a lifetime average.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.remote import collect

    if not telemetry_dir.is_dir():
        return None
    merged = collect(telemetry_dir, registry=MetricsRegistry())
    ends = sorted(
        e.end for e in merged.timeline if e.name == "campaign/inject"
    )
    if len(ends) < 2:
        return None
    tail = ends[-window:]
    elapsed = tail[-1] - tail[0]
    if elapsed <= 0:
        return None
    return (len(tail) - 1) / elapsed


def _parse_connect(value: str) -> tuple[str, int]:
    """``host:port`` (or bare ``:port``/``port``) → ``(host, port)``."""
    host, _, port = str(value).rpartition(":")
    host = host or "127.0.0.1"
    try:
        return host, int(port)
    except ValueError:
        raise SystemExit(
            f"error: --connect expects host:port, got {value!r}"
        ) from None


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.fi.service import Coordinator, ServiceConfig

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        state_dir=args.state_dir,
        shard_points=args.shard_points,
        lease_seconds=args.lease_seconds,
        max_shard_retries=args.max_shard_retries,
        fallback_seconds=(
            None if args.no_fallback else args.fallback_seconds
        ),
        port_file=args.port_file,
        console_port=args.console_port,
        console_host=args.console_host,
        auth_token=_resolve_token(args),
        health_stall_seconds=args.stall_seconds,
    )
    if not args.no_store:
        if args.store is not None:
            config.store_path = args.store
        else:
            from repro.store import default_db_path

            config.store_path = default_db_path()
    coordinator = Coordinator(config)
    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, lambda *_: coordinator.request_shutdown())
    return coordinator.run()


def _cmd_worker(args: argparse.Namespace) -> int:
    from repro.fi.service import run_worker

    host, port = _parse_connect(args.connect)
    return run_worker(
        host, port, reconnect_attempts=args.reconnect_attempts,
        token=_resolve_token(args),
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from repro.fi.service.protocol import Connection, handshake

    host, port = _parse_connect(args.connect)
    token = _resolve_token(args)
    with Connection.connect(host, port) as connection:
        extra = {"token": token} if token is not None else {}
        handshake(connection, "client", **extra)
        reply = connection.call(
            {
                "kind": "submit",
                "target": args.target,
                "sampled": args.sampled,
                "seed": args.seed,
                "name": args.name,
                "shard_points": args.shard_points,
                "max_cycles": args.max_cycles,
            }
        )
        if reply.get("kind") != "queued":
            print(f"error: {reply.get('reason', reply)}", file=sys.stderr)
            return 2
        name = reply["campaign"]
        print(
            f"queued campaign {name!r}: {reply['num_points']} point(s) in "
            f"{reply['shards']} shard(s) "
            f"(queue position {reply['queue_position']})"
        )
        if not args.wait:
            return 0
        while True:
            time.sleep(args.poll)
            status = connection.call({"kind": "status", "campaign": name})
            rows = status.get("campaigns") or []
            if not rows:
                print(f"error: campaign {name!r} disappeared", file=sys.stderr)
                return 2
            campaign = rows[0]
            print(
                f"  {campaign['done']}/{campaign['total']} point(s), "
                f"{status['workers']} worker(s) connected",
                file=sys.stderr,
            )
            alerts = status.get("alerts") or []
            for alert in alerts:
                print(
                    f"  ALERT {alert.get('rule')}: {alert.get('reason')}",
                    file=sys.stderr,
                )
            if alerts and args.fail_on_alert:
                print(
                    f"campaign {name!r}: coordinator health alert firing "
                    "(--fail-on-alert)",
                    file=sys.stderr,
                )
                return EXIT_ALERT
            if campaign["status"] == "complete":
                print(f"campaign {name!r} complete")
                return 0
            if campaign["status"] == "failed":
                print(f"campaign {name!r} failed", file=sys.stderr)
                return EXIT_INTERRUPTED


def _console_url_near(directory: Path) -> str | None:
    """The live-console URL advertised beside a campaign dir, if any.

    The coordinator drops ``console.json`` into its state dir (the
    campaign directory's parent) while the console is mounted.
    """
    import json

    from repro.fi.service.shards import CONSOLE_NAME

    for candidate in (directory / CONSOLE_NAME,
                      directory.parent / CONSOLE_NAME):
        if candidate.is_file():
            try:
                return json.loads(
                    candidate.read_text(encoding="utf-8")
                ).get("url")
            except (OSError, ValueError):
                return None
    return None


def _sharded_status(directory: Path) -> int:
    """``fi status`` over a sharded coordinator campaign directory."""
    from repro.fi.service import load_campaign_dir

    status = load_campaign_dir(directory)
    manifest = status.manifest
    print(f"campaign:  {directory} (sharded, status {manifest.status!r})")
    print(
        f"workload:  {manifest.workload} (netlist {manifest.netlist_hash})"
    )
    print(
        f"keyed by:  seed={manifest.seed} "
        f"golden_cycles={manifest.golden_cycles}"
    )
    print(
        f"progress:  {status.done}/{status.total} injections recorded "
        f"across {len(status.shards)} shard(s)"
    )
    url = _console_url_near(directory)
    if url:
        print(f"console:   live console at {url}")
    print()
    print(obs.aligned_table(
        "shards",
        ["shard", "points", "done", "state"],
        [
            [
                f"{s.shard_id:04d}",
                f"{s.start}..{s.stop - 1}",
                f"{s.records}/{s.total}",
                "complete" if s.complete else
                ("partial" if s.records else "pending"),
            ]
            for s in status.shards
        ],
    ))
    outcomes = status.outcomes
    recorded = sum(outcomes.values()) or 1
    print()
    print(obs.aligned_table(
        "outcomes (merged totals)",
        ["outcome", "count", "share"],
        [
            [outcome.value, str(outcomes.get(outcome.value, 0)),
             f"{100 * outcomes.get(outcome.value, 0) / recorded:.1f}%"]
            for outcome in Outcome
        ],
    ))
    print()
    if status.merged_path is not None:
        print(f"state:     complete — merged journal: {status.merged_path}")
    elif status.complete:
        print(
            "state:     all shards complete — merge pending "
            "(restart the coordinator or ingest the directory to merge)"
        )
    else:
        print(
            "state:     partial — restart the coordinator with the same "
            "--state-dir to resume:"
        )
        print(
            f"  python -m repro.fi serve --state-dir {directory.parent}"
        )
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    if Path(args.journal).is_dir():
        from repro.fi.service import is_campaign_dir

        if is_campaign_dir(args.journal):
            return _sharded_status(Path(args.journal))
        raise SystemExit(
            f"error: {args.journal} is a directory but not a sharded "
            "campaign (no campaign.json manifest)"
        )
    state = load_journal(args.journal)
    header = state.header
    total = header["num_points"]
    print(f"journal:   {args.journal}")
    print(f"workload:  {header['workload']} (netlist {header['netlist_hash']})")
    print(
        f"keyed by:  points_hash={header['points_hash']} seed={header['seed']} "
        f"golden_cycles={header['golden_cycles']}"
    )
    print(f"progress:  {len(state.records)}/{total} injections recorded")
    annotated = sum(
        1 for detail in state.details.values() if "pruned_by" in detail
    )
    if annotated:
        print(f"           {annotated} of those back-annotated statically")
    outcomes = [r.outcome for r in state.records.values()]
    recorded = len(outcomes) or 1
    print()
    print(obs.aligned_table(
        "outcomes",
        ["outcome", "count", "share"],
        [
            [outcome.value, str(outcomes.count(outcome)),
             f"{100 * outcomes.count(outcome) / recorded:.1f}%"]
            for outcome in Outcome
        ],
    ))
    print()
    telemetry_dir = (
        Path(args.telemetry_dir)
        if getattr(args, "telemetry_dir", None)
        else Path(f"{args.journal}.telemetry")
    )
    rate = _last_known_rate(telemetry_dir)
    if rate is not None:
        remaining = max(0, total - len(state.records))
        line = f"last rate: {rate:.1f} injections/s (from telemetry)"
        if remaining and rate > 0:
            line += f" — eta ~{remaining / rate:.0f}s for {remaining} remaining"
        print(line)
    if state.complete:
        print("state:     complete")
    else:
        print("state:     partial — resume with:")
        print(f"  python -m repro.fi resume --journal {args.journal}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.fi.report import write_report
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.remote import collect

    state = load_journal(args.journal)
    telemetry = None
    telemetry_dir = (
        Path(args.telemetry_dir)
        if args.telemetry_dir
        else Path(f"{args.journal}.telemetry")
    )
    if telemetry_dir.is_dir():
        # Merge into a scratch registry: reporting must not pollute the
        # process's live metrics.
        telemetry = collect(telemetry_dir, registry=MetricsRegistry())
    out = args.out or Path(f"{args.journal}.html")
    write_report(out, state, telemetry)
    print(f"report written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-fi",
        description="Resilient (parallel, checkpointed) SEU injection campaigns.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_exec_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int, default=1,
            help="worker processes (0 = inline, no pool; default 1)",
        )
        p.add_argument(
            "--timeout-factor", type=float, default=None,
            help="wall-clock injection timeout as a multiple of the golden "
            "run's wall time (default 50)",
        )
        p.add_argument(
            "--timeout-seconds", type=float, default=None,
            help="explicit wall-clock injection timeout (overrides the factor)",
        )
        p.add_argument(
            "--max-retries", type=int, default=1,
            help="failed attempts per point before quarantine (default 1)",
        )
        p.add_argument(
            "--limit", type=int, default=None,
            help="stop (resumable) after N new injections",
        )
        p.add_argument(
            "--telemetry-dir", type=str, default=None, metavar="DIR",
            help="cross-process telemetry directory (default: "
            "<journal>.telemetry for pooled runs; '' disables)",
        )
        p.add_argument(
            "--metrics-out", type=Path, default=None, metavar="FILE",
            help="write the merged metrics registry as JSON after the run",
        )
        p.add_argument(
            "--trace-out", type=Path, default=None, metavar="FILE",
            help="write a Perfetto-loadable trace-event JSON after the run",
        )
        p.add_argument(
            "--store", type=Path, default=None, metavar="FILE",
            help="results-warehouse database a completed campaign is "
            "auto-ingested into (default: .repro_cache/warehouse.sqlite3)",
        )
        p.add_argument(
            "--no-store", action="store_true",
            help="skip the results-warehouse auto-ingest",
        )
        p.add_argument(
            "--serve", type=int, nargs="?", const=0, default=None,
            metavar="PORT",
            help="serve the live HTTP console for this run on PORT "
            "(bare --serve picks an ephemeral port; URL printed at start)",
        )
        p.add_argument("--verbose", "-v", action="store_true")

    def add_auth_options(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--auth-token", default=None, metavar="TOKEN",
            help="shared-secret service auth token (or set $REPRO_FI_TOKEN; "
            "prefer --auth-token-file to keep it out of argv)",
        )
        p.add_argument(
            "--auth-token-file", type=Path, default=None, metavar="FILE",
            help="read the auth token from FILE (whitespace-stripped)",
        )

    run_p = sub.add_parser("run", help="start a campaign (journaling as it goes)")
    run_p.add_argument("--target", required=True)
    run_p.add_argument("--journal", required=True, type=Path)
    run_p.add_argument(
        "--sampled", type=int, default=100, metavar="N",
        help="number of uniformly sampled injection points (default 100)",
    )
    run_p.add_argument(
        "--pruned", action="store_true",
        help="sample the MATE-pruned (remaining) fault space instead of the "
        "full one (named core targets only)",
    )
    run_p.add_argument(
        "--defuse", action="store_true",
        help="collapse the point list onto def-use equivalence "
        "representatives: inject only representatives, back-annotate dead "
        "and follower points into the journal (named core targets only; "
        "composes with --pruned)",
    )
    run_p.add_argument(
        "--static", action="store_true",
        help="annotate points proven benign by the binary-level static "
        "dataflow layer (pruned_by=\"static\"); alone or composing with "
        "--defuse, where static claims take precedence (named core targets "
        "only)",
    )
    run_p.add_argument("--seed", type=int, default=0)
    run_p.add_argument(
        "--resume", action="store_true",
        help="continue an existing journal instead of failing on it",
    )
    add_exec_options(run_p)
    run_p.set_defaults(func=_cmd_run)

    resume_p = sub.add_parser(
        "resume", help="continue an interrupted campaign from its journal"
    )
    resume_p.add_argument("--journal", required=True, type=Path)
    add_exec_options(resume_p)
    resume_p.set_defaults(func=_cmd_resume)

    status_p = sub.add_parser("status", help="inspect a campaign journal")
    status_p.add_argument("--journal", required=True, type=Path)
    status_p.add_argument(
        "--telemetry-dir", type=str, default=None, metavar="DIR",
        help="telemetry directory for the rate/ETA estimate (default: "
        "<journal>.telemetry when it exists)",
    )
    status_p.set_defaults(func=_cmd_status)

    report_p = sub.add_parser(
        "report", help="render a journal as a self-contained HTML report"
    )
    report_p.add_argument("journal", type=Path)
    report_p.add_argument(
        "--out", type=Path, default=None,
        help="output HTML path (default: <journal>.html)",
    )
    report_p.add_argument(
        "--telemetry-dir", type=str, default=None, metavar="DIR",
        help="telemetry directory for the timeline (default: "
        "<journal>.telemetry when it exists)",
    )
    report_p.set_defaults(func=_cmd_report)

    serve_p = sub.add_parser(
        "serve",
        help="run the distributed campaign coordinator (owns all durable "
        "state; restart with the same --state-dir to resume)",
    )
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; see --port-file)",
    )
    serve_p.add_argument(
        "--port-file", type=Path, default=None, metavar="FILE",
        help="write the bound port here once listening",
    )
    serve_p.add_argument(
        "--state-dir", type=Path, default=Path("campaigns"),
        help="campaign directories (manifest + shard journals) root "
        "(default: ./campaigns)",
    )
    serve_p.add_argument(
        "--shard-points", type=int, default=250,
        help="points per shard — the lease granularity (default 250)",
    )
    serve_p.add_argument(
        "--lease-seconds", type=float, default=30.0,
        help="silence after which a leased shard is reassigned (default 30)",
    )
    serve_p.add_argument(
        "--max-shard-retries", type=int, default=3,
        help="shard reassignments before its missing points are "
        "quarantined (default 3)",
    )
    serve_p.add_argument(
        "--fallback-seconds", type=float, default=10.0,
        help="degrade to local execution after this long with no workers "
        "(default 10)",
    )
    serve_p.add_argument(
        "--no-fallback", action="store_true",
        help="never execute locally — wait for workers indefinitely",
    )
    serve_p.add_argument(
        "--store", type=Path, default=None, metavar="FILE",
        help="results warehouse completed campaigns are ingested into "
        "(default: .repro_cache/warehouse.sqlite3)",
    )
    serve_p.add_argument(
        "--no-store", action="store_true",
        help="skip the results-warehouse auto-ingest",
    )
    serve_p.add_argument(
        "--console-port", type=int, default=None, metavar="PORT",
        help="mount the live HTTP console on this port (0 = ephemeral; "
        "URL is logged and written to <state-dir>/console.json)",
    )
    serve_p.add_argument(
        "--console-host", default=None, metavar="HOST",
        help="console bind address (default: the coordinator --host)",
    )
    serve_p.add_argument(
        "--stall-seconds", type=float, default=30.0,
        help="health rule: alert when no record arrives for this long "
        "while work is pending (default 30)",
    )
    add_auth_options(serve_p)
    serve_p.set_defaults(func=_cmd_serve)

    worker_p = sub.add_parser(
        "worker",
        help="run a stateless injector worker against a coordinator",
    )
    worker_p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address",
    )
    worker_p.add_argument(
        "--reconnect-attempts", type=int, default=10,
        help="consecutive connection failures before giving up (default 10)",
    )
    add_auth_options(worker_p)
    worker_p.set_defaults(func=_cmd_worker)

    submit_p = sub.add_parser(
        "submit", help="queue a campaign on a running coordinator"
    )
    submit_p.add_argument(
        "--connect", required=True, metavar="HOST:PORT",
        help="coordinator address",
    )
    submit_p.add_argument("--target", required=True)
    submit_p.add_argument(
        "--sampled", type=int, default=100, metavar="N",
        help="number of uniformly sampled injection points (default 100)",
    )
    submit_p.add_argument("--seed", type=int, default=0)
    submit_p.add_argument(
        "--name", default=None,
        help="campaign (directory) name; default derived from the target",
    )
    submit_p.add_argument(
        "--shard-points", type=int, default=None,
        help="points per shard (default: the coordinator's setting)",
    )
    submit_p.add_argument(
        "--max-cycles", type=int, default=None,
        help="per-injection cycle budget (default: the coordinator's)",
    )
    submit_p.add_argument(
        "--wait", action="store_true",
        help="poll the coordinator until the campaign completes",
    )
    submit_p.add_argument(
        "--poll", type=float, default=2.0,
        help="--wait poll interval in seconds (default 2)",
    )
    submit_p.add_argument(
        "--fail-on-alert", action="store_true",
        help="with --wait: exit nonzero the moment a coordinator health "
        "rule fires (stall, rate drop, quarantine spike, ...)",
    )
    add_auth_options(submit_p)
    submit_p.set_defaults(func=_cmd_submit)

    args = parser.parse_args(argv)
    if getattr(args, "verbose", False):
        obs.configure(progress=True)
    try:
        return args.func(args)
    except JournalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (FileExistsError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
