"""Crash-safe campaign journals: durable JSONL records with exact resume.

A journal is one JSON-lines file. The first line is the *header* — it keys
the campaign (netlist hash, workload name, point-list hash, seed, golden
run length) and embeds the full point list plus the target spec so a
``resume`` needs nothing but the journal path. Every later line is either
one injection *record* or the terminal *complete* marker.

Durability contract:

- every record is appended as one ``os.write`` to an ``O_APPEND`` file
  descriptor (a whole line including the newline, so concurrent readers
  and crash recovery never see interleaved fragments);
- ``fsync`` is batched (every ``fsync_interval`` records, plus on close
  and on the complete marker) — a crash loses at most one batch, never
  corrupts earlier lines;
- the loader tolerates a torn final line (the crash case) by dropping it
  with a counter bump, and reopening a journal for appending truncates it
  to its last newline first; a malformed line *before* the end means real
  corruption and raises :class:`JournalError`.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.fi.campaign import InjectionRecord
from repro.fi.classify import Outcome
from repro.obs import counter

FORMAT_VERSION = 1

#: Header fields that must match exactly for a resume to be accepted.
MATCH_KEYS = (
    "netlist_hash",
    "workload",
    "points_hash",
    "seed",
    "num_points",
    "golden_cycles",
    "max_cycles",
)


class JournalError(Exception):
    """The journal file is unusable (corrupt, wrong version, missing)."""


class JournalMismatch(JournalError):
    """The journal belongs to a different campaign than the one resuming.

    :attr:`mismatches` lists the offending resume-key fields as
    ``(field, found, expected)`` triples — *found* is what the journal on
    disk says, *expected* is what the resuming campaign derived.
    """

    def __init__(
        self,
        message: str,
        mismatches: list[tuple[str, object, object]] | None = None,
    ) -> None:
        super().__init__(message)
        self.mismatches = list(mismatches or [])


@dataclass
class JournalState:
    """Everything a loader recovers from a journal file."""

    header: dict
    #: Completed injections keyed by point index.
    records: dict[int, InjectionRecord] = field(default_factory=dict)
    #: Extra per-record metadata keyed by index: attempts, error strings,
    #: plus any fields from newer schema versions (preserved, not dropped).
    details: dict[int, dict] = field(default_factory=dict)
    complete: bool = False

    @property
    def points(self) -> list[tuple[str, int]]:
        """The campaign's full point list, as recorded in the header."""
        return [(dff, cycle) for dff, cycle in self.header["points"]]


def points_hash(points: list[tuple[str, int]]) -> str:
    """Order-sensitive content hash of a point list."""
    import hashlib

    blob = json.dumps([[dff, cycle] for dff, cycle in points])
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_journal(path: str | Path) -> JournalState:
    """Parse a journal, tolerating a torn trailing line.

    Partial journals (no complete marker) load fine — that is the whole
    point. Raises :class:`JournalError` on a missing file, an unparsable
    header, or corruption anywhere except the final line.
    """
    path = Path(path)
    if not path.exists():
        raise JournalError(f"no journal at {path}")
    raw = path.read_bytes()
    lines = raw.split(b"\n")
    if lines and lines[-1] == b"":
        lines.pop()
    if not lines:
        raise JournalError(f"journal {path} is empty")
    try:
        header = json.loads(lines[0])
    except ValueError as exc:
        raise JournalError(f"journal {path} has an unparsable header: {exc}") from exc
    if header.get("kind") != "header" or header.get("version") != FORMAT_VERSION:
        raise JournalError(
            f"journal {path} has an unsupported header "
            f"(kind={header.get('kind')!r}, version={header.get('version')!r})"
        )
    state = JournalState(header=header)
    last = len(lines) - 1
    for lineno, line in enumerate(lines[1:], start=1):
        try:
            doc = json.loads(line)
            kind = doc["kind"]
            if kind == "record":
                record = InjectionRecord(
                    doc["dff"], doc["cycle"], Outcome(doc["outcome"])
                )
            elif kind != "complete":
                raise ValueError(f"unknown line kind {kind!r}")
        except (ValueError, KeyError, TypeError) as exc:
            if lineno == last:
                # Torn write from a crash mid-append: drop and recover.
                counter("campaign.journal.torn_tail").inc()
                break
            raise JournalError(
                f"journal {path} is corrupt at line {lineno + 1}: {exc}"
            ) from exc
        if kind == "complete":
            state.complete = True
        else:
            index = doc["i"]
            state.records[index] = record
            # Everything beyond the core record shape is detail — including
            # fields this version has never heard of, so journals written by
            # a *newer* schema (e.g. multi-bit "bit") load without loss.
            state.details[index] = {
                k: v
                for k, v in doc.items()
                if k not in ("kind", "i", "dff", "cycle", "outcome")
            }
    return state


def check_resumable(state: JournalState, expected_header: dict) -> None:
    """Refuse to resume a journal that keys a different campaign.

    The raised :class:`JournalMismatch` prints every offending resume-key
    field with the journal's value and the expected value side by side, so
    a mismatched shard or stale journal is diagnosable without re-deriving
    any key by hand.
    """
    mismatches = [
        (key, state.header.get(key), expected_header[key])
        for key in MATCH_KEYS
        if state.header.get(key) != expected_header[key]
    ]
    if mismatches:
        width = max(len(key) for key, _, _ in mismatches)
        lines = [
            f"  {key.ljust(width)}  found={found!r}  expected={expected!r}"
            for key, found, expected in mismatches
        ]
        raise JournalMismatch(
            "journal does not match this campaign — refusing to resume "
            "(delete the journal to start over):\n" + "\n".join(lines),
            mismatches,
        )


def _drop_torn_tail(fd: int) -> int:
    """Truncate the file behind ``fd`` to its last newline; returns the
    resulting size.

    A crash mid-append leaves a torn final line that :func:`load_journal`
    drops. Appending after it would glue the next record onto the torn
    bytes, so a reopened journal first cuts them off.
    """
    size = end = os.fstat(fd).st_size
    while end > 0:
        start = max(0, end - 4096)
        newline = os.pread(fd, end - start, start).rfind(b"\n")
        if newline >= 0:
            end = start + newline + 1
            break
        end = start
    if end != size:
        os.ftruncate(fd, end)
    return end


class CampaignJournal:
    """Append-side of a journal: crash-safe writes with batched fsync."""

    def __init__(
        self, path: str | Path, header: dict, fsync_interval: int = 16
    ) -> None:
        self.path = Path(path)
        self.header = header
        self.fsync_interval = max(1, fsync_interval)
        self._unsynced = 0
        self._fd = os.open(
            self.path, os.O_RDWR | os.O_APPEND | os.O_CREAT, 0o644
        )
        if _drop_torn_tail(self._fd) == 0:
            self._write_line({"kind": "header", "version": FORMAT_VERSION, **header})
            self._sync()

    # ------------------------------------------------------------------
    def _write_line(self, doc: dict) -> None:
        os.write(self._fd, (json.dumps(doc) + "\n").encode())

    def _sync(self) -> None:
        os.fsync(self._fd)
        self._unsynced = 0

    def append_record(
        self,
        index: int,
        record: InjectionRecord,
        attempts: int = 1,
        error: str | None = None,
        seconds: float | None = None,
        worker: int | None = None,
        pruned_by: str | None = None,
        equivalence_rep: tuple[str, int] | None = None,
    ) -> None:
        """Durably append one injection outcome.

        ``seconds`` is the measured wall time of the injection and
        ``worker`` the OS pid of the process that executed it; both are
        optional telemetry used by ``python -m repro.fi report``.
        ``pruned_by`` names the static layer that decided this outcome
        without simulation (e.g. ``"defuse"``); ``equivalence_rep`` is the
        (dff, cycle) representative whose injected outcome a back-annotated
        point inherits. Both travel through the forward-compat ``details``
        path on load.
        """
        doc = {
            "kind": "record",
            "i": index,
            "dff": record.dff_name,
            "cycle": record.cycle,
            "outcome": record.outcome.value,
            "attempts": attempts,
        }
        if error is not None:
            doc["error"] = error
        if seconds is not None:
            doc["seconds"] = round(seconds, 6)
        if worker is not None:
            doc["worker"] = worker
        if pruned_by is not None:
            doc["pruned_by"] = pruned_by
        if equivalence_rep is not None:
            rep_dff, rep_cycle = equivalence_rep
            doc["equivalence_rep"] = [rep_dff, int(rep_cycle)]
        self._write_line(doc)
        self._unsynced += 1
        if self._unsynced >= self.fsync_interval:
            self._sync()

    def mark_complete(self, num_records: int) -> None:
        """Write the terminal marker (campaign fully executed)."""
        self._write_line({"kind": "complete", "records": num_records})
        self._sync()

    def close(self) -> None:
        """Flush everything to disk and release the descriptor."""
        if self._fd is not None:
            self._sync()
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> CampaignJournal:
        return self

    def __exit__(self, *exc) -> None:
        self.close()
