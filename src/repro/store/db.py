"""The campaign results warehouse: a normalized SQLite store.

One :class:`ResultsStore` wraps one SQLite database (default:
``.repro_cache/warehouse.sqlite3``) holding every campaign journal and
merged worker telemetry ever ingested, so questions that span runs — "did
this refactor flip any injection outcome?", "which flip-flops dominate
SDC?" — become queries instead of archaeology.

Schema (``SCHEMA_VERSION`` = 5, pinned in the ``meta`` table)::

    campaigns      one row per ingested journal, keyed like a resume:
                   (netlist_hash, workload, points_hash, seed, defuse,
                   static, distributed) — re-ingesting the same campaign
                   replaces the old rows; the ``defuse``/``static`` flags
                   keep collapsed (``fi run --defuse``/``--static``) and
                   full campaigns over the same point list side by side,
                   ``distributed`` does the same for merged coordinator
                   campaigns (so a distributed run never clobbers its
                   single-host reference and the two stay diffable), and
                   the ``layers`` JSON column carries the per-layer
                   pruned-point counts (mate / defuse / static with
                   pairwise overlaps)
    outcomes       one row per fault-space point: (campaign_id, point_index)
                   with the key (dff, bit, cycle) and classification; rows
                   whose outcome was back-annotated from an equivalence
                   representative (not injected) carry ``pruned_by`` and,
                   for interval followers, ``equivalence_rep``
    worker_stats   per-process utilization (from journal records, enriched
                   with span counts when a telemetry directory is present)

Version 5 dropped version 4's perf-snapshot tables. A file of any other
version is refused on open: move it aside and re-ingest the journals.

``bit`` is 0 for today's single-bit flip-flop SEUs; journal records from a
future multi-bit schema carry it as an extra field, which the
forward-compatible loader preserves and the ingester picks up.

Writes are wrapped in ``store/*`` spans and counted under ``store.*``
metrics (:mod:`repro.obs`), like every other subsystem.
"""

from __future__ import annotations

import json
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path

from repro.obs import counter, span

SCHEMA_VERSION = 5

#: Fields that identify "the same campaign" across ingests (the journal's
#: resume key, minus the derived counts, plus the collapse/execution flags
#: so a collapsed or distributed run never clobbers its full-campaign,
#: single-host control).
CAMPAIGN_KEY = (
    "netlist_hash", "workload", "points_hash", "seed", "defuse", "static",
    "distributed",
)

#: Created and read before anything else, so that a file pinned to
#: another schema version is refused before any other DDL touches it.
_META_SCHEMA = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
)
"""

_SCHEMA = """
CREATE TABLE IF NOT EXISTS campaigns (
    id            INTEGER PRIMARY KEY,
    workload      TEXT NOT NULL,
    netlist_hash  TEXT NOT NULL,
    points_hash   TEXT NOT NULL,
    seed          INTEGER,
    num_points    INTEGER NOT NULL,
    golden_cycles INTEGER NOT NULL,
    max_cycles    INTEGER,
    complete      INTEGER NOT NULL DEFAULT 0,
    pruned        INTEGER NOT NULL DEFAULT 0,
    space_points  INTEGER,
    pruned_points INTEGER,
    defuse           INTEGER NOT NULL DEFAULT 0,
    defuse_injected  INTEGER,
    defuse_annotated INTEGER,
    static           INTEGER NOT NULL DEFAULT 0,
    static_annotated INTEGER,
    distributed      INTEGER NOT NULL DEFAULT 0,
    layers           TEXT,
    journal_path  TEXT,
    label         TEXT,
    ingested_at   REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS outcomes (
    campaign_id INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    point_index INTEGER NOT NULL,
    dff         TEXT NOT NULL,
    bit         INTEGER NOT NULL DEFAULT 0,
    cycle       INTEGER NOT NULL,
    outcome     TEXT NOT NULL,
    attempts    INTEGER,
    seconds     REAL,
    worker      INTEGER,
    pruned_by       TEXT,
    equivalence_rep TEXT,
    PRIMARY KEY (campaign_id, point_index)
);
CREATE INDEX IF NOT EXISTS outcomes_by_key
    ON outcomes(campaign_id, dff, bit, cycle);
CREATE TABLE IF NOT EXISTS worker_stats (
    campaign_id  INTEGER NOT NULL REFERENCES campaigns(id) ON DELETE CASCADE,
    pid          INTEGER NOT NULL,
    injections   INTEGER NOT NULL DEFAULT 0,
    busy_seconds REAL NOT NULL DEFAULT 0.0,
    spans        INTEGER,
    PRIMARY KEY (campaign_id, pid)
);
"""


class StoreError(Exception):
    """The warehouse is unusable or was asked something inconsistent."""


def default_db_path() -> Path:
    """The shared warehouse, next to the other cached artifacts."""
    cache = Path(__file__).resolve().parents[3] / ".repro_cache"
    cache.mkdir(exist_ok=True)
    return cache / "warehouse.sqlite3"


@dataclass(frozen=True)
class CampaignRow:
    """One campaign as stored (see the ``campaigns`` table)."""

    id: int
    workload: str
    netlist_hash: str
    points_hash: str
    seed: int | None
    num_points: int
    golden_cycles: int
    max_cycles: int | None
    complete: bool
    pruned: bool
    space_points: int | None
    pruned_points: int | None
    #: Def-use collapse (``fi run --defuse``): only interval representatives
    #: were injected, everything else was back-annotated.
    defuse: bool
    defuse_injected: int | None
    defuse_annotated: int | None
    #: Static dataflow collapse (``fi run --static``): trace-independent
    #: register-dead points were back-annotated as benign.
    static: bool
    static_annotated: int | None
    #: Merged from a sharded coordinator campaign (``fi serve``/``submit``)
    #: rather than a single-host run.
    distributed: bool
    #: Per-layer fault-space pruning attribution, e.g.
    #: ``{"mate": 812, "defuse": 1430, "both": 96, "static": 320,
    #: "defuse&static": 320}``.
    layers: dict[str, int] | None
    journal_path: str | None
    label: str | None
    ingested_at: float


@dataclass(frozen=True)
class OutcomeRow:
    """One injection outcome with its fault-space key."""

    point_index: int
    dff: str
    bit: int
    cycle: int
    outcome: str
    attempts: int | None = None
    seconds: float | None = None
    worker: int | None = None
    #: Which pruning layer produced this outcome without injecting
    #: (``None`` for a real injection).
    pruned_by: str | None = None
    #: ``(dff, cycle)`` of the injected representative this outcome was
    #: copied from, for equivalence-interval followers.
    equivalence_rep: tuple[str, int] | None = None

    @property
    def key(self) -> tuple[str, int, int]:
        """The cross-campaign identity of this fault-space point."""
        return (self.dff, self.bit, self.cycle)

    @property
    def annotated(self) -> bool:
        """True when the outcome was back-annotated, not injected."""
        return self.pruned_by is not None


class ResultsStore:
    """Open (creating if needed) the warehouse at ``path``."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_db_path()
        if self.path.parent and not self.path.parent.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path)
        self._conn.execute("PRAGMA foreign_keys = ON")
        self._conn.execute(_META_SCHEMA)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        if row is not None and int(row[0]) != SCHEMA_VERSION:
            self._conn.close()
            raise StoreError(
                f"warehouse {self.path} has schema version {row[0]}, "
                f"this build speaks {SCHEMA_VERSION} — move the file aside "
                "and re-ingest the journals"
            )
        self._conn.executescript(_SCHEMA)
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            self._conn.commit()

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> ResultsStore:
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Campaign ingest
    # ------------------------------------------------------------------
    def ingest_journal(
        self,
        journal_path: str | Path,
        telemetry_dir: str | Path | None = None,
        label: str | None = None,
    ) -> int:
        """Ingest one campaign journal; returns the campaign id.

        Re-ingesting a journal with the same resume key (netlist hash,
        workload, point-list hash, seed) replaces the previous rows, so the
        warehouse always reflects the journal's latest state — ingest after
        every resume and nothing is double-counted. ``telemetry_dir``
        defaults to ``<journal>.telemetry`` when that directory exists.
        """
        from repro.fi.journal import load_journal

        journal_path = Path(journal_path)
        with span("store/ingest-journal", journal=str(journal_path)):
            state = load_journal(journal_path)
            header = state.header
            meta = header.get("meta") or {}
            defuse = int(bool(meta.get("defuse")))
            static = int(bool(meta.get("static")))
            distributed = int(bool(meta.get("distributed")))
            layers = meta.get("layers")
            key = {
                "netlist_hash": header.get("netlist_hash"),
                "workload": header.get("workload"),
                "points_hash": header.get("points_hash"),
                "seed": header.get("seed"),
                "defuse": defuse,
                "static": static,
                "distributed": distributed,
            }
            self._conn.execute(
                "DELETE FROM campaigns WHERE netlist_hash IS ? AND "
                "workload IS ? AND points_hash IS ? AND seed IS ? AND "
                "defuse IS ? AND static IS ? AND distributed IS ?",
                tuple(key.values()),
            )
            cursor = self._conn.execute(
                "INSERT INTO campaigns (workload, netlist_hash, points_hash,"
                " seed, num_points, golden_cycles, max_cycles, complete,"
                " pruned, space_points, pruned_points, defuse,"
                " defuse_injected, defuse_annotated, static,"
                " static_annotated, distributed, layers, journal_path,"
                " label, ingested_at)"
                " VALUES (?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?,?)",
                (
                    key["workload"],
                    key["netlist_hash"],
                    key["points_hash"],
                    key["seed"],
                    header.get("num_points", len(state.records)),
                    header.get("golden_cycles", 0),
                    header.get("max_cycles"),
                    int(state.complete),
                    int(bool(meta.get("pruned"))),
                    meta.get("space_points"),
                    meta.get("pruned_points"),
                    defuse,
                    meta.get("defuse_injected"),
                    meta.get("defuse_annotated"),
                    static,
                    meta.get("static_annotated"),
                    distributed,
                    json.dumps(layers, sort_keys=True) if layers else None,
                    str(journal_path),
                    label,
                    time.time(),
                ),
            )
            campaign_id = cursor.lastrowid
            assert campaign_id is not None
            rows = []
            for index in sorted(state.records):
                record = state.records[index]
                detail = state.details.get(index, {})
                rep = detail.get("equivalence_rep")
                rows.append(
                    (
                        campaign_id,
                        index,
                        record.dff_name,
                        int(detail.get("bit", 0)),
                        record.cycle,
                        record.outcome.value,
                        detail.get("attempts"),
                        detail.get("seconds"),
                        detail.get("worker"),
                        detail.get("pruned_by"),
                        json.dumps(list(rep)) if rep is not None else None,
                    )
                )
            self._conn.executemany(
                "INSERT INTO outcomes (campaign_id, point_index, dff, bit,"
                " cycle, outcome, attempts, seconds, worker, pruned_by,"
                " equivalence_rep) VALUES (?,?,?,?,?,?,?,?,?,?,?)",
                rows,
            )
            self._ingest_worker_stats(campaign_id, state, journal_path,
                                      telemetry_dir)
            self._conn.commit()
            counter("store.campaigns.ingested").inc()
            counter("store.outcomes.ingested").inc(len(rows))
            return campaign_id

    def _ingest_worker_stats(
        self, campaign_id, state, journal_path, telemetry_dir
    ) -> None:
        stats: dict[int, list[float]] = {}  # pid -> [injections, busy]
        for index in state.records:
            detail = state.details.get(index, {})
            pid = detail.get("worker")
            if pid is None:
                continue
            entry = stats.setdefault(int(pid), [0, 0.0])
            entry[0] += 1
            entry[1] += float(detail.get("seconds") or 0.0)
        span_counts = self._telemetry_span_counts(journal_path, telemetry_dir)
        for pid in span_counts:
            stats.setdefault(pid, [0, 0.0])
        self._conn.executemany(
            "INSERT INTO worker_stats (campaign_id, pid, injections,"
            " busy_seconds, spans) VALUES (?,?,?,?,?)",
            [
                (campaign_id, pid, int(inj), busy, span_counts.get(pid))
                for pid, (inj, busy) in sorted(stats.items())
            ],
        )

    @staticmethod
    def _telemetry_span_counts(
        journal_path: Path, telemetry_dir: str | Path | None
    ) -> dict[int, int]:
        """``pid -> campaign/inject span count`` from the telemetry dir."""
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.remote import collect

        if telemetry_dir is None:
            candidate = Path(f"{journal_path}.telemetry")
            telemetry_dir = candidate if candidate.is_dir() else None
        if telemetry_dir is None or not Path(telemetry_dir).is_dir():
            return {}
        # Scratch registry: ingest must not pollute the live metrics.
        merged = collect(telemetry_dir, registry=MetricsRegistry())
        counts: dict[int, int] = {}
        for event in merged.timeline:
            if event.name == "campaign/inject":
                counts[event.pid] = counts.get(event.pid, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    _CAMPAIGN_COLUMNS = (
        "id, workload, netlist_hash, points_hash, seed, num_points,"
        " golden_cycles, max_cycles, complete, pruned, space_points,"
        " pruned_points, defuse, defuse_injected, defuse_annotated,"
        " static, static_annotated, distributed, layers,"
        " journal_path, label, ingested_at"
    )

    def campaigns(self) -> list[CampaignRow]:
        """Every stored campaign, oldest first."""
        rows = self._conn.execute(
            f"SELECT {self._CAMPAIGN_COLUMNS} FROM campaigns ORDER BY id"
        ).fetchall()
        return [self._campaign_row(r) for r in rows]

    @staticmethod
    def _campaign_row(r: tuple) -> CampaignRow:
        return CampaignRow(
            id=r[0], workload=r[1], netlist_hash=r[2], points_hash=r[3],
            seed=r[4], num_points=r[5], golden_cycles=r[6], max_cycles=r[7],
            complete=bool(r[8]), pruned=bool(r[9]), space_points=r[10],
            pruned_points=r[11], defuse=bool(r[12]), defuse_injected=r[13],
            defuse_annotated=r[14], static=bool(r[15]),
            static_annotated=r[16], distributed=bool(r[17]),
            layers=json.loads(r[18]) if r[18] else None,
            journal_path=r[19], label=r[20], ingested_at=r[21],
        )

    def campaign(self, campaign_id: int) -> CampaignRow:
        """One campaign by id; raises :class:`StoreError` if absent."""
        row = self._conn.execute(
            f"SELECT {self._CAMPAIGN_COLUMNS} FROM campaigns WHERE id = ?",
            (campaign_id,),
        ).fetchone()
        if row is None:
            raise StoreError(f"no campaign #{campaign_id} in {self.path}")
        return self._campaign_row(row)

    def outcomes(self, campaign_id: int) -> list[OutcomeRow]:
        """Every injection outcome of one campaign, in point order."""
        self.campaign(campaign_id)  # existence check
        rows = self._conn.execute(
            "SELECT point_index, dff, bit, cycle, outcome, attempts,"
            " seconds, worker, pruned_by, equivalence_rep FROM outcomes"
            " WHERE campaign_id = ? ORDER BY point_index",
            (campaign_id,),
        ).fetchall()
        out = []
        for r in rows:
            rep = json.loads(r[9]) if r[9] else None
            out.append(
                OutcomeRow(
                    *r[:9],
                    equivalence_rep=(rep[0], int(rep[1])) if rep else None,
                )
            )
        return out

    def outcome_tally(self, campaign_id: int) -> dict[str, int]:
        """``outcome -> count`` for one campaign."""
        rows = self._conn.execute(
            "SELECT outcome, COUNT(*) FROM outcomes WHERE campaign_id = ?"
            " GROUP BY outcome",
            (campaign_id,),
        ).fetchall()
        return dict(rows)

    def annotation_tally(self, campaign_id: int) -> dict[str, int]:
        """``pruned_by layer -> back-annotated point count`` for one campaign.

        Empty for campaigns where every outcome was actually injected.
        """
        rows = self._conn.execute(
            "SELECT pruned_by, COUNT(*) FROM outcomes WHERE campaign_id = ?"
            " AND pruned_by IS NOT NULL GROUP BY pruned_by",
            (campaign_id,),
        ).fetchall()
        return dict(rows)

    def worker_stats(self, campaign_id: int) -> list[tuple[int, int, float, int | None]]:
        """``(pid, injections, busy_seconds, spans)`` rows of one campaign."""
        return self._conn.execute(
            "SELECT pid, injections, busy_seconds, spans FROM worker_stats"
            " WHERE campaign_id = ? ORDER BY pid",
            (campaign_id,),
        ).fetchall()

    # ------------------------------------------------------------------
    def query(self, sql: str) -> tuple[list[str], list[tuple]]:
        """Run one read-only SQL statement; ``(column_names, rows)``.

        The query runs on a separate ``query_only`` connection, so no SQL —
        hostile or fat-fingered — can mutate the warehouse through here.
        """
        conn = sqlite3.connect(self.path)
        try:
            conn.execute("PRAGMA query_only = ON")
            cursor = conn.execute(sql)
            names = [d[0] for d in cursor.description or []]
            return names, cursor.fetchall()
        finally:
            conn.close()
