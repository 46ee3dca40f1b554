"""Warehouse schema, ingest semantics, and read-only query surface."""

import json
import sqlite3

import pytest

from repro import obs
from repro.store import ResultsStore, StoreError
from repro.store.db import SCHEMA_VERSION

from tests.store.conftest import RECORDS, make_journal


class TestJournalIngest:
    def test_round_trip(self, store, tmp_path):
        journal = make_journal(tmp_path / "c.jsonl")
        cid = store.ingest_journal(journal, label="unit")
        c = store.campaign(cid)
        assert c.workload == "accum"
        assert c.netlist_hash == "abc123"
        assert c.seed == 7
        assert c.num_points == len(RECORDS)
        assert c.golden_cycles == 8
        assert c.complete
        assert not c.pruned
        assert c.label == "unit"
        assert c.journal_path == str(journal)
        outcomes = store.outcomes(cid)
        assert [(o.dff, o.bit, o.cycle, o.outcome) for o in outcomes] == [
            (dff, 0, cycle, outcome) for dff, cycle, outcome in RECORDS
        ]
        assert store.outcome_tally(cid) == {
            "benign": 1, "sdc": 2, "timeout": 1, "error": 1
        }
        assert obs.counter("store.campaigns.ingested").value == 1
        assert obs.counter("store.outcomes.ingested").value == len(RECORDS)

    def test_reingest_same_key_replaces(self, store, tmp_path):
        journal = make_journal(tmp_path / "c.jsonl")
        store.ingest_journal(journal)
        second = store.ingest_journal(journal)
        assert [c.id for c in store.campaigns()] == [second]
        # The old rows are gone (FK cascade): nothing double-counted.
        assert len(store.outcomes(second)) == len(RECORDS)
        assert sum(store.outcome_tally(second).values()) == len(RECORDS)

    def test_different_seed_is_a_new_campaign(self, store, tmp_path):
        store.ingest_journal(make_journal(tmp_path / "a.jsonl", seed=1))
        store.ingest_journal(make_journal(tmp_path / "b.jsonl", seed=2))
        assert len(store.campaigns()) == 2

    def test_distributed_merge_coexists_with_single_host_reference(
        self, store, tmp_path
    ):
        """A merged distributed journal and its single-host reference share
        every resume key — ``distributed`` keeps them as two rows so
        ``store diff`` can compare them."""
        single = make_journal(tmp_path / "single.jsonl")
        merged = make_journal(
            tmp_path / "merged.jsonl",
            meta={"distributed": True, "shards": 3, "space_points": 40},
        )
        ref = store.ingest_journal(single)
        dist = store.ingest_journal(merged)
        rows = store.campaigns()
        assert [c.id for c in rows] == [ref, dist]
        assert [c.distributed for c in rows] == [False, True]
        # Re-ingesting the merged journal replaces only the distributed
        # row; the single-host reference survives.
        dist2 = store.ingest_journal(merged)
        assert sorted(c.id for c in store.campaigns()) == sorted([ref, dist2])
        assert store.campaign(ref).distributed is False

    def test_pruning_meta_is_stored(self, store, tmp_path):
        journal = make_journal(
            tmp_path / "c.jsonl",
            meta={"pruned": True, "space_points": 640, "pruned_points": 480},
        )
        c = store.campaign(store.ingest_journal(journal))
        assert c.pruned
        assert c.space_points == 640
        assert c.pruned_points == 480

    def test_forward_compat_bit_field_is_picked_up(self, store, tmp_path):
        # A journal from a (future) multi-bit schema: extra "bit" field on
        # one record; the loader preserves it, the ingester keys on it.
        journal = make_journal(tmp_path / "c.jsonl", complete=False)
        record = {
            "kind": "record", "i": len(RECORDS), "dff": "q1", "cycle": 2,
            "outcome": "benign", "bit": 3,
        }
        with open(journal, "a") as fh:
            fh.write(json.dumps(record) + "\n")
        outcomes = store.outcomes(store.ingest_journal(journal))
        assert outcomes[-1].key == ("q1", 3, 2)
        assert {o.bit for o in outcomes[:-1]} == {0}

    def test_worker_stats_from_journal_details(self, store, tmp_path):
        journal = make_journal(tmp_path / "c.jsonl", workers=[11, 22])
        stats = store.worker_stats(store.ingest_journal(journal))
        by_pid = {pid: (inj, busy) for pid, inj, busy, _spans in stats}
        assert set(by_pid) == {11, 22}
        assert by_pid[11][0] + by_pid[22][0] == len(RECORDS)

    def test_missing_campaign_raises(self, store):
        with pytest.raises(StoreError, match="no campaign #42"):
            store.campaign(42)


class TestStoreLifecycle:
    def test_schema_version_pin(self, store):
        names, rows = store.query(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        )
        assert rows == [(str(SCHEMA_VERSION),)]

    def test_schema_version_mismatch_refuses_to_open(self, tmp_path):
        # "4" is the last version that still held the perf-snapshot tables.
        for version in ("999", "4"):
            db = tmp_path / f"v{version}.sqlite3"
            with ResultsStore(db):
                pass
            conn = sqlite3.connect(db)
            conn.execute(
                "UPDATE meta SET value = ? WHERE key = 'schema_version'",
                (version,),
            )
            conn.commit()
            conn.close()
            with pytest.raises(
                StoreError, match=f"schema version {version},.*move the file"
            ):
                ResultsStore(db)

    def test_query_is_read_only(self, store, tmp_path):
        store.ingest_journal(make_journal(tmp_path / "c.jsonl"))
        names, rows = store.query("SELECT COUNT(*) FROM outcomes")
        assert rows == [(len(RECORDS),)]
        with pytest.raises(sqlite3.OperationalError, match="readonly"):
            store.query("DELETE FROM outcomes")
        # Nothing was deleted through the query surface.
        assert store.query("SELECT COUNT(*) FROM outcomes")[1] == [(5,)]
