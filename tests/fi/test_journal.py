"""Crash-safety unit tests for the campaign journal format."""

import json
import os

import pytest

from repro import obs
from repro.fi.campaign import InjectionRecord
from repro.fi.classify import Outcome
from repro.fi.journal import (
    FORMAT_VERSION,
    CampaignJournal,
    JournalError,
    JournalMismatch,
    check_resumable,
    load_journal,
    points_hash,
)

POINTS = [["acc_b0", 2], ["decoy_b1", 3], ["count_b0", 1]]


def _header(**overrides):
    header = {
        "netlist_hash": "abc123",
        "workload": "accum",
        "points_hash": points_hash([tuple(p) for p in POINTS]),
        "seed": 7,
        "num_points": len(POINTS),
        "golden_cycles": 9,
        "max_cycles": 100,
        "points": POINTS,
    }
    header.update(overrides)
    return header


def _write(path, records=2, complete=False):
    with CampaignJournal(path, _header()) as journal:
        for i in range(records):
            journal.append_record(
                i, InjectionRecord(POINTS[i][0], POINTS[i][1], Outcome.BENIGN)
            )
        if complete:
            journal.mark_complete(records)


class TestRoundTrip:
    def test_records_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path, records=3)
        state = load_journal(path)
        assert sorted(state.records) == [0, 1, 2]
        assert state.records[1] == InjectionRecord("decoy_b1", 3, Outcome.BENIGN)
        assert not state.complete
        assert state.points == [tuple(p) for p in POINTS]

    def test_complete_marker(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path, records=3, complete=True)
        assert load_journal(path).complete

    def test_error_details_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path, _header()) as journal:
            journal.append_record(
                0,
                InjectionRecord("acc_b0", 2, Outcome.ERROR),
                attempts=3,
                error="worker died",
            )
        state = load_journal(path)
        assert state.records[0].outcome is Outcome.ERROR
        assert state.details[0] == {"attempts": 3, "error": "worker died"}

    def test_reopen_appends_without_second_header(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path, records=1)
        with CampaignJournal(path, _header()) as journal:
            journal.append_record(
                1, InjectionRecord("decoy_b1", 3, Outcome.SDC)
            )
        lines = path.read_text().splitlines()
        assert sum(1 for li in lines if '"header"' in li) == 1
        assert len(load_journal(path).records) == 2


class TestCrashTolerance:
    def test_torn_tail_dropped(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path, records=2)
        with open(path, "ab") as fh:
            fh.write(b'{"kind": "record", "i": 2, "dff": "count')  # torn write
        state = load_journal(path)
        assert sorted(state.records) == [0, 1]
        assert obs.get_registry().counter("campaign.journal.torn_tail").value == 1

    @pytest.mark.parametrize("torn_bytes", [40, 10_000])
    def test_reopen_truncates_torn_tail(self, tmp_path, torn_bytes):
        path = tmp_path / "c.jsonl"
        _write(path, records=2)
        intact = path.read_bytes()
        with open(path, "ab") as fh:
            # A torn write, short or longer than the tail scan's chunk.
            fh.write(b'{"kind": "record", "i": 2, "dff": "'.ljust(torn_bytes, b"x"))
        with CampaignJournal(path, _header()) as journal:
            assert path.read_bytes() == intact
            journal.append_record(2, InjectionRecord("acc_b0", 4, Outcome.SDC))
        state = load_journal(path)
        assert sorted(state.records) == [0, 1, 2]
        assert state.records[2].outcome is Outcome.SDC

    def test_reopen_torn_header_writes_a_fresh_one(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_bytes(b'{"kind": "head')  # killed while writing the header
        with CampaignJournal(path, _header()) as journal:
            journal.append_record(0, InjectionRecord("acc_b0", 4, Outcome.SDC))
        assert sorted(load_journal(path).records) == [0]

    def test_midfile_corruption_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path, records=2)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + b"\n"  # not the last line
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalError, match="corrupt at line 2"):
            load_journal(path)

    def test_missing_journal_raises(self, tmp_path):
        with pytest.raises(JournalError, match="no journal"):
            load_journal(tmp_path / "absent.jsonl")

    def test_empty_journal_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        with pytest.raises(JournalError, match="empty"):
            load_journal(path)

    def test_garbage_header_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("not json\n")
        with pytest.raises(JournalError, match="unparsable header"):
            load_journal(path)

    def test_wrong_version_raises(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps({"kind": "header", "version": 99}) + "\n")
        with pytest.raises(JournalError, match="unsupported header"):
            load_journal(path)

    def test_record_is_one_write(self, tmp_path):
        """Each line lands in a single O_APPEND write — never interleaved."""
        path = tmp_path / "c.jsonl"
        writes = []
        real_write = os.write

        def spy(fd, data):
            writes.append(data)
            return real_write(fd, data)

        import repro.fi.journal as journal_mod

        orig = journal_mod.os.write
        journal_mod.os.write = spy
        try:
            _write(path, records=2)
        finally:
            journal_mod.os.write = orig
        assert all(w.endswith(b"\n") and w.count(b"\n") == 1 for w in writes)


class TestForwardCompat:
    def test_schema_version_is_pinned(self):
        # Bumping FORMAT_VERSION is a breaking act: older builds refuse the
        # journal outright (test_wrong_version_raises). This pin makes the
        # bump a deliberate, reviewed change rather than a drive-by edit.
        assert FORMAT_VERSION == 1

    def test_unknown_record_fields_load_and_are_preserved(self, tmp_path):
        """A record written by a *newer* minor schema (extra fields, e.g. a
        multi-bit ``bit``) loads fine and keeps the fields in details."""
        path = tmp_path / "c.jsonl"
        _write(path, records=1)
        newer = {
            "kind": "record", "i": 1, "dff": "decoy_b1", "cycle": 3,
            "outcome": "sdc", "attempts": 1,
            "bit": 2, "flux_polarity": "reversed",
        }
        with open(path, "a") as fh:
            fh.write(json.dumps(newer) + "\n")
        state = load_journal(path)
        assert state.records[1] == InjectionRecord("decoy_b1", 3, Outcome.SDC)
        assert state.details[1]["bit"] == 2
        assert state.details[1]["flux_polarity"] == "reversed"

    def test_core_fields_stay_out_of_details(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path, records=1)
        details = load_journal(path).details[0]
        assert not {"kind", "i", "dff", "cycle", "outcome"} & set(details)


class TestAnnotationDetails:
    def test_pruned_by_and_equivalence_rep_round_trip(self, tmp_path):
        """Back-annotation provenance travels through the details path."""
        path = tmp_path / "c.jsonl"
        with CampaignJournal(path, _header()) as journal:
            journal.append_record(0, InjectionRecord("acc_b0", 2, Outcome.SDC))
            journal.append_record(
                1,
                InjectionRecord("decoy_b1", 3, Outcome.SDC),
                pruned_by="defuse",
                equivalence_rep=("acc_b0", 2),
            )
            journal.append_record(
                2,
                InjectionRecord("count_b0", 1, Outcome.BENIGN),
                pruned_by="defuse",
            )
        state = load_journal(path)
        # Plain injections carry no provenance fields.
        assert "pruned_by" not in state.details.get(0, {})
        assert state.details[1]["pruned_by"] == "defuse"
        assert state.details[1]["equivalence_rep"] == ["acc_b0", 2]
        assert state.details[2]["pruned_by"] == "defuse"
        assert "equivalence_rep" not in state.details[2]
        # Outcomes themselves are unaffected by the provenance fields.
        assert state.records[1] == InjectionRecord("decoy_b1", 3, Outcome.SDC)


class TestResumeKeying:
    def test_matching_header_resumable(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path)
        check_resumable(load_journal(path), _header())

    @pytest.mark.parametrize(
        "key,value",
        [
            ("netlist_hash", "fff"),
            ("workload", "other"),
            ("points_hash", "fff"),
            ("seed", 8),
            ("num_points", 4),
            ("golden_cycles", 10),
            ("max_cycles", 99),
        ],
    )
    def test_any_key_mismatch_refuses(self, tmp_path, key, value):
        path = tmp_path / "c.jsonl"
        _write(path)
        with pytest.raises(JournalMismatch, match=key):
            check_resumable(load_journal(path), _header(**{key: value}))

    def test_points_hash_is_order_sensitive(self):
        a = [("x", 1), ("y", 2)]
        assert points_hash(a) != points_hash(list(reversed(a)))

    def test_mismatch_reports_found_and_expected_side_by_side(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write(path)
        with pytest.raises(JournalMismatch) as excinfo:
            check_resumable(
                load_journal(path), _header(seed=99, workload="other")
            )
        exc = excinfo.value
        # Machine-readable: every offending key as (field, found, expected).
        assert ("seed", 7, 99) in exc.mismatches
        assert ("workload", "accum", "other") in exc.mismatches
        assert len(exc.mismatches) == 2
        # Human-readable: one side-by-side line per offending key.
        message = str(exc)
        assert "seed" in message
        assert "found=7" in message and "expected=99" in message
        assert "found='accum'" in message and "expected='other'" in message
        # Matching keys are not reported as noise.
        assert "netlist_hash" not in message
