"""The campaign coordinator: an asyncio TCP server owning all durable state.

One coordinator serves any number of injector workers and submit clients
over the :mod:`repro.fi.service.protocol` wire format. Its design
principle is the DAVOS host/injector split taken to its logical end:
workers are completely stateless, so every failure mode reduces to "redo
the missing work", and all durability questions reduce to the shard
journals — which already survive kill -9 by construction.

Lease state machine (per shard)::

    pending ──request──▶ leased ──all records──▶ done
       ▲                   │
       │   lease expiry /  │
       └── worker death ───┘   (retries += 1, next_eligible = now +
                                jittered exponential backoff; retries
                                beyond the bound quarantine the shard's
                                missing points as Outcome.ERROR records)

Failure matrix:

- **worker disconnect / SIGKILL** — the connection drops (or the lease
  deadline passes for a wedged worker); the shard returns to ``pending``
  with backoff and is reassigned. Records the dead worker already
  streamed are journaled and never re-run.
- **stale worker** — a worker whose lease was expired keeps streaming;
  its frames are answered ``abort`` and its records ignored (duplicates
  are dropped by index).
- **repeated shard failure** — after ``max_shard_retries`` reassignments
  the shard's *missing* points (the poison survives, innocent completed
  neighbours don't) are quarantined via the existing poison-point path:
  terminal ``Outcome.ERROR`` records with the failure reason.
- **coordinator crash (kill -9)** — restart with the same state dir; the
  manifest and shard journals are reloaded, done indices are skipped,
  and the campaign continues. The merged journal is record-for-record
  identical to an uninterrupted run.
- **zero workers** — after ``fallback_seconds`` without any connected
  worker, shards are executed locally through the same
  :class:`~repro.fi.service.worker.ShardExecutor` code path (graceful
  degradation to single-host operation).

Campaigns queue FIFO; shards dispatch from the oldest campaign that has
eligible work, so one stuck shard never idles the whole fleet.
"""

from __future__ import annotations

import asyncio
import hmac
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.fi.classify import Outcome
from repro.fi.journal import CampaignJournal, InjectionRecord
from repro.fi.runner import TargetSpec, backoff_delay, sample_points
from repro.fi.service import protocol, shards as shards_mod
from repro.fi.service.protocol import ProtocolError
from repro.fi.service.shards import (
    CampaignManifest,
    CONSOLE_NAME,
    MANIFEST_NAME,
    TELEMETRY_DIR,
    merge_campaign_dir,
    shard_journal_path,
)
from repro.fi.service.worker import ShardExecutor
from repro.fi.targets import NAMED_TARGETS
from repro.obs import counter, gauge, health, remote, resource, span
from repro.obs.http import ConsoleProvider, ConsoleServer, merged_metrics_text

#: Lease owner id of the coordinator's own local-fallback executor.
LOCAL_OWNER = -1

PENDING = "pending"
LEASED = "leased"
DONE = "done"


@dataclass
class ServiceConfig:
    """Tuning knobs of the coordinator."""

    host: str = "127.0.0.1"
    port: int = 0  #: 0 = ephemeral; read the bound port from ``.port``.
    #: Campaign directories (manifest + shard journals) live under here.
    state_dir: str | Path = Path("campaigns")
    #: Points per shard (the lease granularity).
    shard_points: int = 250
    #: A leased shard with no frames for this long is declared lost.
    lease_seconds: float = 30.0
    #: Workers send a heartbeat when idle within a shard this long.
    heartbeat_seconds: float = 5.0
    #: Reply delay for workers when no shard is eligible.
    idle_delay: float = 1.0
    #: Reassignments of one shard before its missing points quarantine.
    max_shard_retries: int = 3
    #: Base / cap / jitter of the shard-reassignment backoff.
    retry_backoff: float = 0.25
    retry_backoff_cap: float = 5.0
    retry_jitter: float = 0.25
    #: Per-point retry bound forwarded to workers (poison-point path).
    max_retries: int = 1
    point_retry_backoff: float = 0.05
    #: Degrade to local execution after this long with zero workers
    #: connected; ``None`` disables the fallback entirely.
    fallback_seconds: float | None = 10.0
    #: Journal fsync batching (records per fsync), as in RunnerConfig.
    fsync_interval: int = 16
    #: Reaper cadence (lease expiry, fallback, completion checks).
    tick: float = 0.25
    #: Cycle budget for golden runs of submitted campaigns.
    default_max_cycles: int = 50_000
    #: Results warehouse for completed campaigns; None disables ingest.
    store_path: str | Path | None = None
    #: When set, the bound port is written here once the server is up —
    #: how test harnesses and the smoke driver discover an ephemeral port.
    port_file: str | Path | None = None
    #: Mount the live HTTP console on this port (0 = ephemeral); ``None``
    #: leaves the console off entirely.
    console_port: int | None = None
    #: Bind address of the console (defaults to the service host).
    console_host: str | None = None
    #: Shared-secret worker/submit auth token; ``None`` runs open. The
    #: same token gates the console's mutating routes.
    auth_token: str | None = None
    #: Stall threshold of the health rule engine (no record landed for
    #: this long while work is pending).
    health_stall_seconds: float = 30.0


class _Shard:
    """Runtime lease state of one shard (durable state is its journal)."""

    def __init__(self, shard_id: int, start: int, stop: int) -> None:
        self.shard_id = shard_id
        self.start = start
        self.stop = stop
        self.status = PENDING
        self.done: set[int] = set()  # local indices journaled
        self.quarantined = 0
        self.retries = 0
        self.next_eligible = 0.0
        self.owner: int | None = None
        self.deadline = float("inf")
        self.journal: CampaignJournal | None = None

    @property
    def total(self) -> int:
        return self.stop - self.start

    @property
    def missing(self) -> list[int]:
        return [i for i in range(self.total) if i not in self.done]


class _CampaignState:
    """One queued/running campaign: manifest + shard lease table."""

    def __init__(self, manifest: CampaignManifest, directory: Path) -> None:
        self.manifest = manifest
        self.directory = directory
        self.shards = [
            _Shard(i, start, stop)
            for i, (start, stop) in enumerate(manifest.shards)
        ]
        self.activated: float | None = None
        self.finalizing = False
        self.executed = 0  # records received by this coordinator process
        self.outcomes: dict[str, int] = {}  # durable per-campaign tallies
        self.store_id: int | None = None  # warehouse id after auto-ingest

    @property
    def name(self) -> str:
        return self.manifest.name

    def load_progress(self) -> None:
        """Recover each shard's done set from its journal on disk."""
        for shard in self.shards:
            state = shards_mod.load_shard_state(
                self.directory, shard.shard_id
            )
            if state is not None:
                shard.done = set(state.records)
                for record in state.records.values():
                    self.outcomes[record.outcome.value] = (
                        self.outcomes.get(record.outcome.value, 0) + 1
                    )
                for index, detail in state.details.items():
                    if detail.get("error") and state.records[
                        index
                    ].outcome is Outcome.ERROR:
                        shard.quarantined += 1
            if len(shard.done) >= shard.total:
                shard.status = DONE

    @property
    def complete(self) -> bool:
        return all(s.status == DONE for s in self.shards)

    @property
    def done_points(self) -> int:
        return sum(len(s.done) for s in self.shards)


@dataclass
class _Conn:
    """One live client connection (worker or submit client)."""

    conn_id: int
    role: str
    pid: int
    hello: dict
    writer: asyncio.StreamWriter
    peer: str = ""
    shards_taken: int = 0
    records: int = 0
    authenticated: bool = False
    telemetry_files: dict[str, Path] = field(default_factory=dict)


class Coordinator:
    """The distributed campaign service (see module docstring)."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.state_dir = Path(self.config.state_dir)
        self.port: int | None = None
        self.started = threading.Event()
        self._campaigns: dict[str, _CampaignState] = {}
        self._queue: list[str] = []  # FIFO campaign order
        self._workers: dict[int, _Conn] = {}
        self._next_conn_id = 0
        self._executor = ShardExecutor()  # local fallback + submit prepare
        self._prepare_lock: asyncio.Lock | None = None
        self._local_task: asyncio.Task | None = None
        self._shutdown: asyncio.Event | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._server: asyncio.base_events.Server | None = None
        self._relay_writers: dict[tuple[str, int], remote.TelemetryWriter] = {}
        self._open_writers: set[asyncio.StreamWriter] = set()
        self._log = lambda msg: print(msg, file=sys.stderr, flush=True)
        self.console: ConsoleServer | None = None
        self.monitor = health.HealthMonitor(
            rules=health.default_rules(
                stall_seconds=self.config.health_stall_seconds
            ),
            log=lambda msg: self._log(f"coordinator: {msg}"),
        )
        #: Latest relayed per-worker host footprint (pid → value), peeked
        #: from the telemetry stream for /status.json and the RSS rule.
        self._worker_rss: dict[int, float] = {}
        self._worker_cpu: dict[int, float] = {}
        self._started_at = time.monotonic()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def run(self) -> int:
        """Blocking entry point (used by the CLI and thread harnesses)."""
        return asyncio.run(self.run_async())

    def request_shutdown(self) -> None:
        """Ask the serve loop to stop (signal handlers, other threads).

        Idempotent: a no-op once the loop has already stopped.
        """
        loop, shutdown = self._loop, self._shutdown
        if loop is not None and shutdown is not None:
            try:
                loop.call_soon_threadsafe(shutdown.set)
            except RuntimeError:
                pass  # loop already closed — nothing left to stop

    async def run_async(self) -> int:
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        self._prepare_lock = asyncio.Lock()
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self._rescan_state_dir()
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        if self.config.port_file is not None:
            Path(self.config.port_file).write_text(f"{self.port}\n")
        if self.config.console_port is not None:
            self.console = ConsoleServer(
                _CoordinatorConsole(self),
                host=self.config.console_host or self.config.host,
                port=self.config.console_port,
                auth_token=self.config.auth_token,
            )
            await self.console.start()
            (self.state_dir / CONSOLE_NAME).write_text(
                json.dumps({"url": self.console.url, "port": self.console.port})
                + "\n"
            )
            self._log(f"coordinator: live console at {self.console.url}")
        self.started.set()
        self._log(
            f"coordinator: serving on {self.config.host}:{self.port} "
            f"(state dir {self.state_dir}, "
            f"{len(self._queue)} campaign(s) recovered"
            + (", auth required" if self.config.auth_token else "")
            + ")"
        )
        reaper = asyncio.create_task(self._reaper())
        try:
            await self._shutdown.wait()
        finally:
            reaper.cancel()
            if self._local_task is not None:
                self._local_task.cancel()
            self._server.close()
            if self.console is not None:
                await self.console.stop()
                (self.state_dir / CONSOLE_NAME).unlink(missing_ok=True)
            # Nudge idle connections out of their blocking read so the
            # handlers finish on their own instead of being cancelled.
            for writer in list(self._open_writers):
                writer.close()
            await self._server.wait_closed()
            self._close_journals()
            self._log("coordinator: stopped")
        return 0

    def _rescan_state_dir(self) -> None:
        """Re-enqueue every unfinished campaign found on disk."""
        candidates = sorted(
            p for p in self.state_dir.iterdir()
            if p.is_dir() and (p / MANIFEST_NAME).exists()
        ) if self.state_dir.exists() else []
        for directory in candidates:
            try:
                manifest = CampaignManifest.load(directory)
            except Exception as exc:  # noqa: BLE001 - skip broken dirs
                self._log(f"coordinator: skipping {directory}: {exc}")
                continue
            if manifest.status in ("complete", "failed"):
                continue
            manifest.status = "running"
            manifest.save(directory)
            state = _CampaignState(manifest, directory)
            state.load_progress()
            state.activated = time.monotonic()
            self._campaigns[manifest.name] = state
            self._queue.append(manifest.name)
            counter("service.campaigns.recovered").inc()
            self._log(
                f"coordinator: recovered campaign {manifest.name!r} "
                f"({state.done_points}/{manifest.num_points} points done)"
            )
            if state.complete and not state.finalizing:
                # Crashed after the last record but before the merge.
                state.finalizing = True
                asyncio.create_task(self._finalize_campaign(state))

    def _close_journals(self) -> None:
        for state in self._campaigns.values():
            for shard in state.shards:
                if shard.journal is not None:
                    shard.journal.close()
                    shard.journal = None
        for writer in self._relay_writers.values():
            writer.close()
        self._relay_writers.clear()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        peer = writer.get_extra_info("peername")
        conn: _Conn | None = None
        self._open_writers.add(writer)
        try:
            hello = await protocol.read_message(reader)
            if hello is None:
                return
            if (
                hello.get("kind") != "hello"
                or hello.get("version") != protocol.PROTOCOL_VERSION
            ):
                await protocol.send_message(
                    writer,
                    {
                        "kind": "error",
                        "reason": (
                            "unsupported hello "
                            f"(kind={hello.get('kind')!r}, "
                            f"version={hello.get('version')!r}); "
                            f"this coordinator speaks version "
                            f"{protocol.PROTOCOL_VERSION}"
                        ),
                    },
                )
                return
            if self.config.auth_token is not None:
                presented = str(hello.get("token") or "")
                if not hmac.compare_digest(
                    presented.encode(), str(self.config.auth_token).encode()
                ):
                    counter("service.auth.rejected").inc()
                    self._log(
                        f"coordinator: rejected {peer} "
                        f"(bad or missing auth token)"
                    )
                    await protocol.send_message(
                        writer,
                        {
                            "kind": "error",
                            "reason": (
                                "authentication failed: bad or missing "
                                "token (set --auth-token/REPRO_FI_TOKEN)"
                            ),
                        },
                    )
                    return
            role = str(hello.get("role", "client"))
            self._next_conn_id += 1
            conn = _Conn(
                conn_id=self._next_conn_id,
                role=role,
                pid=int(hello.get("pid", 0)),
                hello=hello,
                writer=writer,
                peer=str(peer),
                authenticated=self.config.auth_token is not None,
            )
            if role == "worker":
                self._workers[conn.conn_id] = conn
                counter("service.workers.connected").inc()
                gauge("service.workers").set(len(self._workers))
            await protocol.send_message(
                writer,
                {
                    "kind": "welcome",
                    "version": protocol.PROTOCOL_VERSION,
                    "lease_seconds": self.config.lease_seconds,
                    "heartbeat_seconds": self.config.heartbeat_seconds,
                },
            )
            while not self._shutdown.is_set():
                message = await protocol.read_message(reader)
                if message is None:
                    break
                reply = await self._dispatch(conn, message)
                await protocol.send_message(writer, reply)
        except (ProtocolError, ConnectionError, OSError) as exc:
            if conn is not None and conn.role == "worker":
                self._log(
                    f"coordinator: worker {conn.pid} connection error: {exc}"
                )
        finally:
            self._open_writers.discard(writer)
            if conn is not None and conn.role == "worker":
                self._workers.pop(conn.conn_id, None)
                gauge("service.workers").set(len(self._workers))
                self._release_worker_leases(
                    conn.conn_id, reason="worker disconnected"
                )
            writer.close()

    async def _dispatch(self, conn: _Conn, message: dict) -> dict:
        kind = message.get("kind")
        if kind == "request":
            return self._handle_request(conn)
        if kind == "record":
            return self._handle_record(conn.conn_id, message, conn)
        if kind == "heartbeat":
            return self._handle_heartbeat(conn.conn_id, message)
        if kind == "shard_done":
            return self._handle_shard_done(conn.conn_id, message, conn)
        if kind == "submit":
            return await self._handle_submit(message)
        if kind == "status":
            return self._status_doc(message.get("campaign"))
        return {"kind": "error", "reason": f"unknown message kind {kind!r}"}

    # ------------------------------------------------------------------
    # Worker messages
    # ------------------------------------------------------------------
    def _eligible_shard(
        self, now: float
    ) -> tuple[_CampaignState, _Shard] | None:
        """The next dispatchable shard, in campaign FIFO order."""
        for name in self._queue:
            state = self._campaigns[name]
            if state.finalizing:
                continue
            for shard in state.shards:
                if shard.status == PENDING and shard.next_eligible <= now:
                    return state, shard
        return None

    def _handle_request(self, conn: _Conn) -> dict:
        if self._shutdown.is_set():
            return {"kind": "shutdown"}
        pick = self._eligible_shard(time.monotonic())
        if pick is None:
            return {"kind": "idle", "delay": self.config.idle_delay}
        state, shard = pick
        return self._lease(state, shard, conn.conn_id, conn)

    def _lease(
        self,
        state: _CampaignState,
        shard: _Shard,
        owner: int,
        conn: _Conn | None,
    ) -> dict:
        manifest = state.manifest
        shard.status = LEASED
        shard.owner = owner
        shard.deadline = time.monotonic() + self.config.lease_seconds
        if conn is not None:
            conn.shards_taken += 1
        if state.activated is None:
            state.activated = time.monotonic()
        counter("service.shards.leased").inc()
        start, stop = shard.start, shard.stop
        return {
            "kind": "shard",
            "campaign": manifest.name,
            "shard": shard.shard_id,
            "target": dict(manifest.target),
            "max_cycles": manifest.max_cycles,
            "points": [
                [dff, cycle] for dff, cycle in manifest.points[start:stop]
            ],
            "indices": shard.missing,
            "lease_seconds": self.config.lease_seconds,
            "heartbeat_seconds": self.config.heartbeat_seconds,
            "max_retries": self.config.max_retries,
            "retry_backoff": self.config.point_retry_backoff,
            "retry_jitter": self.config.retry_jitter,
        }

    def _owned_shard(
        self, owner: int, message: dict
    ) -> tuple[_CampaignState, _Shard] | None:
        state = self._campaigns.get(str(message.get("campaign")))
        if state is None:
            return None
        shard_id = message.get("shard")
        if not isinstance(shard_id, int) or not (
            0 <= shard_id < len(state.shards)
        ):
            return None
        shard = state.shards[shard_id]
        if shard.status != LEASED or shard.owner != owner:
            return None
        return state, shard

    def _handle_record(
        self, owner: int, message: dict, conn: _Conn | None
    ) -> dict:
        owned = self._owned_shard(owner, message)
        if owned is None:
            counter("service.records.aborted").inc()
            return {"kind": "abort"}
        state, shard = owned
        self._relay_telemetry(state, conn, message.get("telemetry"))
        try:
            index = int(message["i"])
            record = InjectionRecord(
                str(message["dff"]), int(message["cycle"]),
                Outcome(str(message["outcome"])),
            )
        except (KeyError, ValueError, TypeError) as exc:
            return {"kind": "error", "reason": f"bad record: {exc}"}
        if not 0 <= index < shard.total:
            return {
                "kind": "error",
                "reason": f"record index {index} outside shard {shard.shard_id}",
            }
        shard.deadline = time.monotonic() + self.config.lease_seconds
        if index in shard.done:
            # A stale duplicate (e.g. re-sent after reconnect): drop it.
            counter("service.records.duplicate").inc()
            return {"kind": "ok"}
        self._append_record(
            state, shard, index, record,
            attempts=int(message.get("attempts", 1)),
            error=message.get("error"),
            seconds=message.get("seconds"),
            worker=message.get("worker"),
        )
        if conn is not None:
            conn.records += 1
        return {"kind": "ok"}

    def _append_record(
        self,
        state: _CampaignState,
        shard: _Shard,
        index: int,
        record: InjectionRecord,
        attempts: int = 1,
        error: str | None = None,
        seconds: float | None = None,
        worker: int | None = None,
    ) -> None:
        if shard.journal is None:
            shard.journal = CampaignJournal(
                shard_journal_path(state.directory, shard.shard_id),
                state.manifest.shard_header(shard.shard_id),
                self.config.fsync_interval,
            )
        shard.journal.append_record(
            index, record, attempts=attempts, error=error,
            seconds=seconds, worker=worker,
        )
        shard.done.add(index)
        state.executed += 1
        state.outcomes[record.outcome.value] = (
            state.outcomes.get(record.outcome.value, 0) + 1
        )
        counter("service.records").inc()
        counter(f"campaign.outcome.{record.outcome.value}").inc()
        if error is not None and record.outcome is Outcome.ERROR:
            shard.quarantined += 1
            counter("service.points.quarantined").inc()
        if self.console is not None and self.console.has_subscribers:
            self.console.publish(
                "record",
                {
                    "campaign": state.name,
                    "outcome": record.outcome.value,
                    "worker": worker,
                    "done": state.done_points,
                    "total": state.manifest.num_points,
                },
            )
        if len(shard.done) >= shard.total:
            self._finish_shard(state, shard)

    def _finish_shard(self, state: _CampaignState, shard: _Shard) -> None:
        shard.status = DONE
        shard.owner = None
        shard.deadline = float("inf")
        if shard.journal is not None:
            shard.journal.close()
            shard.journal = None
        counter("service.shards.done").inc()
        if state.complete and not state.finalizing:
            state.finalizing = True
            asyncio.create_task(self._finalize_campaign(state))

    def _handle_heartbeat(self, owner: int, message: dict) -> dict:
        owned = self._owned_shard(owner, message)
        if owned is None:
            return {"kind": "abort"}
        _, shard = owned
        shard.deadline = time.monotonic() + self.config.lease_seconds
        return {"kind": "ok"}

    def _handle_shard_done(
        self, owner: int, message: dict, conn: _Conn | None
    ) -> dict:
        owned = self._owned_shard(owner, message)
        if owned is None:
            return {"kind": "abort"}
        state, shard = owned
        self._relay_telemetry(state, conn, message.get("telemetry"))
        if len(shard.done) >= shard.total:
            self._finish_shard(state, shard)
        else:
            # The worker believes it finished but records are missing —
            # release the lease so the gap is re-run elsewhere.
            self._release_shard(
                state, shard, reason="shard_done with missing records"
            )
        return {"kind": "ok"}

    # ------------------------------------------------------------------
    # Lease expiry / failure handling
    # ------------------------------------------------------------------
    def _release_worker_leases(self, owner: int, reason: str) -> None:
        for state in self._campaigns.values():
            for shard in state.shards:
                if shard.status == LEASED and shard.owner == owner:
                    self._release_shard(state, shard, reason)

    def _release_shard(
        self, state: _CampaignState, shard: _Shard, reason: str
    ) -> None:
        """One failed shard attempt: requeue with backoff, or quarantine."""
        shard.status = PENDING
        shard.owner = None
        shard.deadline = float("inf")
        shard.retries += 1
        counter("service.shards.released").inc()
        if shard.retries > self.config.max_shard_retries:
            self._quarantine_shard(state, shard, reason)
            return
        delay = backoff_delay(
            shard.retries,
            self.config.retry_backoff,
            cap=self.config.retry_backoff_cap,
            jitter=self.config.retry_jitter,
        )
        shard.next_eligible = time.monotonic() + delay
        self._log(
            f"coordinator: shard {shard.shard_id} of {state.name!r} "
            f"released ({reason}); retry {shard.retries}/"
            f"{self.config.max_shard_retries} in {delay:.2f}s"
        )

    def _quarantine_shard(
        self, state: _CampaignState, shard: _Shard, reason: str
    ) -> None:
        """Exhausted shard retries: quarantine the *missing* points only.

        Completed points keep their real outcomes — the poison-point path
        grants terminal :attr:`Outcome.ERROR` records to exactly the
        points that never produced one.
        """
        missing = shard.missing
        if not missing:
            self._finish_shard(state, shard)
            return
        self._log(
            f"coordinator: quarantining {len(missing)} point(s) of shard "
            f"{shard.shard_id} in {state.name!r} after "
            f"{shard.retries - 1} reassignment(s) ({reason})"
        )
        points = state.manifest.points
        error = (
            f"quarantined after {shard.retries - 1} shard "
            f"reassignment(s): {reason}"
        )
        shard.status = LEASED  # guard against concurrent dispatch
        shard.owner = LOCAL_OWNER
        for index in missing:
            dff, cycle = points[shard.start + index]
            self._append_record(
                state, shard, index,
                InjectionRecord(dff, cycle, Outcome.ERROR),
                attempts=shard.retries, error=error,
            )

    # ------------------------------------------------------------------
    # Telemetry relay
    # ------------------------------------------------------------------
    def _relay_telemetry(
        self, state: _CampaignState, conn: _Conn | None, batch
    ) -> None:
        """Append a worker's drained telemetry batch to its relayed file."""
        if not batch or not isinstance(batch, list) or conn is None:
            return
        key = (state.name, conn.pid)
        writer = self._relay_writers.get(key)
        if writer is None:
            hello = conn.hello.get("telemetry")
            if not isinstance(hello, dict):
                hello = remote.hello_record("worker", pid=conn.pid)
            writer = remote.TelemetryWriter(
                remote.worker_file(
                    state.directory / TELEMETRY_DIR, pid=conn.pid
                ),
                hello=hello,
            )
            self._relay_writers[key] = writer
        for record in batch:
            if isinstance(record, dict):
                writer.write(record)
                if record.get("kind") == "metrics":
                    # Peek the worker's host footprint on the way through:
                    # the health RSS rule and /status.json want it live,
                    # not on the next telemetry collect.
                    gauges = record.get("gauges")
                    if isinstance(gauges, dict):
                        rss = gauges.get("resource.rss_bytes")
                        if rss is not None:
                            self._worker_rss[conn.pid] = float(rss)
                        cpu = gauges.get("resource.cpu_percent")
                        if cpu is not None:
                            self._worker_cpu[conn.pid] = float(cpu)

    # ------------------------------------------------------------------
    # Client messages
    # ------------------------------------------------------------------
    async def _handle_submit(self, message: dict) -> dict:
        target = str(message.get("target", ""))
        sampled = int(message.get("sampled", 100))
        seed = message.get("seed", 0)
        name = str(message.get("name") or "").strip()
        shard_points = int(
            message.get("shard_points") or self.config.shard_points
        )
        max_cycles = int(
            message.get("max_cycles") or self.config.default_max_cycles
        )
        if not name:
            name = f"{target.replace(':', '_').replace('/', '_')}-s{seed}"
        if name in self._campaigns:
            return {
                "kind": "error",
                "reason": f"campaign {name!r} already exists",
            }
        if target not in NAMED_TARGETS and ":" not in target:
            return {
                "kind": "error",
                "reason": (
                    f"unknown target {target!r} — expected one of "
                    f"{', '.join(NAMED_TARGETS)} or a "
                    "'package.module:callable' reference"
                ),
            }
        if sampled < 1 or shard_points < 1:
            return {"kind": "error", "reason": "sampled and shard_points must be >= 1"}
        spec = (
            TargetSpec(
                factory="repro.fi.targets:named_target",
                kwargs={"name": target},
            )
            if target in NAMED_TARGETS
            else TargetSpec(factory=target)
        )
        try:
            async with self._prepare_lock:
                manifest = await asyncio.to_thread(
                    self._prepare_manifest,
                    name, spec, sampled, seed, shard_points, max_cycles,
                )
        except Exception as exc:  # noqa: BLE001 - report, don't die
            counter("service.submit.errors").inc()
            return {
                "kind": "error",
                "reason": f"could not prepare campaign: "
                          f"{type(exc).__name__}: {exc}",
            }
        state = _CampaignState(manifest, self.state_dir / name)
        state.load_progress()  # tolerate pre-existing shard journals
        state.activated = time.monotonic()
        self._campaigns[name] = state
        self._queue.append(name)
        counter("service.campaigns.submitted").inc()
        self._log(
            f"coordinator: queued campaign {name!r} "
            f"({manifest.num_points} points, {len(state.shards)} shard(s))"
        )
        return {
            "kind": "queued",
            "campaign": name,
            "num_points": manifest.num_points,
            "shards": len(state.shards),
            "queue_position": self._queue.index(name),
        }

    def _prepare_manifest(
        self,
        name: str,
        spec: TargetSpec,
        sampled: int,
        seed: int | None,
        shard_points: int,
        max_cycles: int,
    ) -> CampaignManifest:
        """Build the target once (coordinator side) and write the manifest.

        Runs in a thread: synthesis + compile + golden run take seconds.
        The built campaign stays cached in the local :class:`ShardExecutor`
        so a graceful-degradation fallback pays nothing extra.
        """
        with span("service/prepare", campaign=name):
            campaign = self._executor.campaign_for(spec.to_dict(), max_cycles)
            netlist = campaign.target.simulator.netlist
            points = sample_points(
                netlist, campaign.golden_cycles, sampled, seed or 0
            )
            manifest = CampaignManifest(
                name=name,
                target=spec.to_dict(),
                workload=campaign.target.name,
                netlist_hash=campaign.target.netlist_hash(),
                seed=seed,
                golden_cycles=campaign.golden_cycles,
                max_cycles=max_cycles,
                points=points,
                shard_points=shard_points,
                meta={
                    "pruned": False,
                    "space_points": len(netlist.dffs) * campaign.golden_cycles,
                    "distributed": True,
                    "shards": len(
                        shards_mod.plan_shards(len(points), shard_points)
                    ),
                },
                status="running",
                created=time.time(),
            )
            manifest.save(self.state_dir / name)
            return manifest

    def _status_doc(self, only: str | None = None) -> dict:
        rate = self.monitor.series_rate("done")
        campaigns = []
        for position, name in enumerate(self._queue):
            if only and name != only:
                continue
            state = self._campaigns[name]
            done = state.done_points
            remaining = state.manifest.num_points - done
            campaigns.append(
                {
                    "name": name,
                    "status": state.manifest.status,
                    "queue_position": position,
                    "total": state.manifest.num_points,
                    "done": done,
                    "quarantined": sum(s.quarantined for s in state.shards),
                    "outcomes": dict(state.outcomes),
                    "store_id": state.store_id,
                    "eta_seconds": (
                        remaining / rate if rate and remaining else None
                    ),
                    "shards": [
                        {
                            "id": s.shard_id,
                            "status": s.status,
                            "done": len(s.done),
                            "total": s.total,
                            "retries": s.retries,
                            "owner": s.owner,
                        }
                        for s in state.shards
                    ],
                }
            )
        return {
            "kind": "status",
            "workers": len(self._workers),
            "uptime_seconds": time.monotonic() - self._started_at,
            "rate": rate,
            "alerts": self.monitor.doc(),
            "alerts_fired_total": self.monitor.fired_total,
            "worker_table": [
                {
                    "pid": conn.pid,
                    "peer": conn.peer,
                    "records": conn.records,
                    "shards_taken": conn.shards_taken,
                    "authenticated": conn.authenticated,
                    "rss_bytes": self._worker_rss.get(conn.pid),
                    "cpu_percent": self._worker_cpu.get(conn.pid),
                }
                for conn in self._workers.values()
            ],
            "campaigns": campaigns,
        }

    # ------------------------------------------------------------------
    # Background maintenance
    # ------------------------------------------------------------------
    async def _reaper(self) -> None:
        """Expire lost leases, trigger fallback, keep the queue moving."""
        while True:
            await asyncio.sleep(self.config.tick)
            now = time.monotonic()
            for state in list(self._campaigns.values()):
                for shard in state.shards:
                    if (
                        shard.status == LEASED
                        and shard.owner != LOCAL_OWNER
                        and now >= shard.deadline
                    ):
                        counter("service.leases.expired").inc()
                        self._release_shard(
                            state, shard,
                            reason=(
                                "lease expired after "
                                f"{self.config.lease_seconds:.0f}s silence"
                            ),
                        )
            self._maybe_start_fallback(now)
            self._health_tick(now)

    def _health_tick(self, now: float) -> None:
        """Feed the health monitor one coordinator-state sample."""
        resource.sample_self()
        pending = sum(
            state.manifest.num_points - state.done_points
            for state in self._campaigns.values()
            if not state.finalizing
        )
        sample: dict[str, float] = {
            "done": float(counter("service.records").value),
            "pending": float(pending),
            "quarantined": float(
                counter("service.points.quarantined").value
            ),
            "lease_releases": float(
                counter("service.shards.released").value
            ),
        }
        for pid, rss in self._worker_rss.items():
            sample[f"rss.{pid}"] = rss
        edge = self.monitor.observe(sample, now=now)
        if (edge.fired or edge.cleared) and self.console is not None:
            self.console.publish("alerts", {"firing": self.monitor.doc()})

    def _maybe_start_fallback(self, now: float) -> None:
        if self.config.fallback_seconds is None or self._workers:
            return
        if self._local_task is not None and not self._local_task.done():
            return
        pick = self._eligible_shard(now)
        if pick is None:
            return
        state, _ = pick
        if (
            state.activated is None
            or now - state.activated < self.config.fallback_seconds
        ):
            return
        counter("service.fallback.activations").inc()
        self._log(
            f"coordinator: no workers for "
            f"{self.config.fallback_seconds:.0f}s — degrading to local "
            f"execution for campaign {state.name!r}"
        )
        self._local_task = asyncio.create_task(self._run_local())

    async def _run_local(self) -> None:
        """Graceful degradation: execute eligible shards in-process.

        Shards go through the exact same lease/record path as remote
        workers (owner :data:`LOCAL_OWNER`), one shard at a time in a
        thread, so a worker that connects mid-fallback simply takes the
        next shard and the two modes interleave safely.
        """
        while not self._shutdown.is_set():
            if self._workers:
                return  # real workers are back; let them have the rest
            pick = self._eligible_shard(time.monotonic())
            if pick is None:
                return
            state, shard = pick
            lease = self._lease(state, shard, LOCAL_OWNER, None)
            try:
                await asyncio.to_thread(self._execute_shard_locally, lease)
            except Exception as exc:  # noqa: BLE001 - requeue on any failure
                if shard.status == LEASED and shard.owner == LOCAL_OWNER:
                    self._release_shard(
                        state, shard, reason=f"local execution failed: {exc}"
                    )
                continue
            if len(shard.done) >= shard.total:
                if shard.status != DONE:
                    self._finish_shard(state, shard)
            elif shard.status == LEASED and shard.owner == LOCAL_OWNER:
                self._release_shard(
                    state, shard, reason="local execution incomplete"
                )

    def _execute_shard_locally(self, lease: dict) -> None:
        """Run one leased shard in this process (thread context).

        Records funnel back into :meth:`_handle_record` on the event loop,
        so journaling, duplicate handling, and completion checks are the
        same code that serves remote workers.
        """
        assert self._loop is not None
        campaign = self._executor.campaign_for(
            lease["target"], int(lease["max_cycles"])
        )
        points = [(dff, int(cycle)) for dff, cycle in lease["points"]]
        for index in lease["indices"]:
            dff_name, cycle = points[index]
            outcome, attempts, seconds, error = (
                self._executor.inject_with_retry(
                    campaign, dff_name, cycle,
                    max_retries=self.config.max_retries,
                    retry_backoff=self.config.point_retry_backoff,
                    retry_jitter=self.config.retry_jitter,
                )
            )
            record = {
                "kind": "record",
                "campaign": lease["campaign"],
                "shard": lease["shard"],
                "i": index,
                "dff": dff_name,
                "cycle": cycle,
                "outcome": outcome.value,
                "attempts": attempts,
                "seconds": round(seconds, 6),
                "worker": None,
            }
            if error is not None:
                record["error"] = error
            future = asyncio.run_coroutine_threadsafe(
                self._accept_local_record(record), self._loop
            )
            reply = future.result()
            if reply.get("kind") == "abort":
                return

    async def _accept_local_record(self, record: dict) -> dict:
        return self._handle_record(LOCAL_OWNER, record, None)

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    async def _finalize_campaign(self, state: _CampaignState) -> None:
        """Merge the shard journals and (best-effort) warehouse the result."""
        try:
            merged = await asyncio.to_thread(
                merge_campaign_dir, state.directory
            )
        except Exception as exc:  # noqa: BLE001 - report, keep serving
            counter("service.merge.errors").inc()
            self._log(
                f"coordinator: merge of {state.name!r} failed: {exc}"
            )
            state.manifest.status = "failed"
            state.manifest.save(state.directory)
            return
        state.manifest.status = "complete"
        state.manifest.save(state.directory)
        counter("service.campaigns.completed").inc()
        quarantined = sum(s.quarantined for s in state.shards)
        self._log(
            f"coordinator: campaign {state.name!r} complete — "
            f"{state.manifest.num_points} records merged into {merged}"
            + (f" ({quarantined} quarantined)" if quarantined else "")
        )
        if self.config.store_path is not None:
            await asyncio.to_thread(self._ingest, state, merged)

    def _ingest(self, state: _CampaignState, merged: Path) -> None:
        """Warehouse the merged journal (never fails the campaign)."""
        from repro.store import ResultsStore

        telemetry_dir = state.directory / TELEMETRY_DIR
        try:
            with span("store/auto-ingest"), ResultsStore(
                self.config.store_path
            ) as store:
                store_id = store.ingest_journal(
                    merged,
                    telemetry_dir=(
                        telemetry_dir if telemetry_dir.is_dir() else None
                    ),
                )
            state.store_id = store_id
            self._log(
                f"coordinator: warehoused {state.name!r} as campaign "
                f"#{store_id}"
            )
        except Exception as exc:  # noqa: BLE001 - warehouse must not kill runs
            counter("store.ingest.errors").inc()
            self._log(
                f"coordinator: could not ingest {merged} into "
                f"{self.config.store_path}: {exc}"
            )


class _CoordinatorConsole(ConsoleProvider):
    """Console state provider backed by a live :class:`Coordinator`.

    Runs on the coordinator's own event loop, so every read sees a
    consistent lease table without locking. ``/metrics`` re-reads the
    relayed telemetry files of every known campaign on each scrape —
    fine at fleet-console scrape rates, not meant for per-request loops.
    """

    def __init__(self, coordinator: Coordinator) -> None:
        self._coordinator = coordinator

    def title(self) -> str:
        config = self._coordinator.config
        return (
            f"repro coordinator — {config.host}:"
            f"{self._coordinator.port or config.port}"
        )

    def metrics_text(self) -> str:
        directories = [
            state.directory / TELEMETRY_DIR
            for state in self._coordinator._campaigns.values()
        ]
        return merged_metrics_text(directories)

    def status_doc(self) -> dict:
        return self._coordinator._status_doc(None)

    def heatmap_html(self, name: str) -> str | None:
        state = self._coordinator._campaigns.get(name)
        store_path = self._coordinator.config.store_path
        if state is None or state.store_id is None or store_path is None:
            return None
        from repro.store import ResultsStore, render_heatmap

        with ResultsStore(store_path) as store:
            return render_heatmap(store, state.store_id)

    def silence(self, seconds: float) -> bool:
        self._coordinator.monitor.silence(seconds)
        return True
