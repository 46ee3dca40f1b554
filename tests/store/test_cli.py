"""``python -m repro.store``: ingest auto-detection, gates, exit codes."""

import json

import pytest

from repro.store import ResultsStore
from repro.store.__main__ import main

from tests.store.conftest import RECORDS, make_journal


def _db(tmp_path):
    return str(tmp_path / "warehouse.sqlite3")


def _run(tmp_path, *args):
    return main(["--db", _db(tmp_path), *args])


class TestIngestCli:
    def test_ingest_autodetects_journal(self, tmp_path, capsys):
        journal = make_journal(tmp_path / "c.jsonl")
        assert _run(tmp_path, "ingest", str(journal)) == 0
        out = capsys.readouterr().out
        assert "ingested campaign #1" in out
        assert f"({len(RECORDS)} outcome(s))" in out

    @pytest.mark.parametrize(
        "name, doc, indent",
        [
            ("BENCH_7.json",
             {"schema": "repro-bench", "schema_version": 1,
              "workloads": {"search": {"seconds": 0.1, "units": 3}}},
             2),
            ("results.json",
             {"seed": 1, "runs": 1, "seconds": 20,
              "workloads": {"avr-inline": {"correct": True}}},
             1),
            ("results.json", {"seed": 1, "runs": 1, "workloads": {}}, None),
        ],
        ids=["bench-snapshot", "bench-run-out", "one-line"],
    )
    def test_ingest_rejects_perf_snapshots(
        self, tmp_path, capsys, name, doc, indent
    ):
        snapshot = tmp_path / name
        snapshot.write_text(json.dumps(doc, indent=indent))
        assert _run(tmp_path, "ingest", str(snapshot)) == 2
        assert (
            "neither a campaign journal nor a sharded campaign directory"
            in capsys.readouterr().err
        )
        with ResultsStore(_db(tmp_path)) as store:
            assert store.campaigns() == []

    def test_unrecognized_file_is_an_error(self, tmp_path, capsys):
        stray = tmp_path / "stray.txt"
        stray.write_text("hello\n")
        assert _run(tmp_path, "ingest", str(stray)) == 2
        assert "neither a campaign journal nor a sharded campaign" in (
            capsys.readouterr().err
        )

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        assert _run(tmp_path, "ingest", str(tmp_path / "absent.jsonl")) == 2
        assert "no such file" in capsys.readouterr().err


class TestReadCli:
    def test_list_and_show(self, tmp_path, capsys):
        journal = make_journal(tmp_path / "c.jsonl", workers=[11, 22])
        assert _run(tmp_path, "ingest", str(journal), "--label", "ref") == 0
        assert _run(tmp_path, "list") == 0
        listing = capsys.readouterr().out
        assert "accum" in listing
        assert "ref" in listing
        assert _run(tmp_path, "show", "1") == 0
        shown = capsys.readouterr().out
        assert "campaign #1: accum" in shown
        assert "sdc" in shown
        assert "workers" in shown

    def test_query_rows_and_readonly_enforcement(self, tmp_path, capsys):
        assert _run(tmp_path, "ingest",
                    str(make_journal(tmp_path / "c.jsonl"))) == 0
        capsys.readouterr()
        assert _run(
            tmp_path, "query",
            "SELECT dff, COUNT(*) FROM outcomes GROUP BY dff",
        ) == 0
        assert "4 row(s)" in capsys.readouterr().out
        assert _run(tmp_path, "query", "DELETE FROM outcomes") == 2
        assert "readonly" in capsys.readouterr().err


class TestDiffCli:
    def test_self_diff_exits_zero(self, tmp_path, capsys):
        assert _run(tmp_path, "ingest",
                    str(make_journal(tmp_path / "c.jsonl"))) == 0
        assert _run(tmp_path, "diff", "1", "1") == 0
        assert "zero outcome flips" in capsys.readouterr().out

    def test_flip_exits_one_and_lists_the_key(self, tmp_path, capsys):
        make_journal(tmp_path / "a.jsonl", seed=1)
        mutated = [
            (dff, cycle, "benign" if (dff, cycle) == ("q2", 5) else outcome)
            for dff, cycle, outcome in RECORDS
        ]
        make_journal(tmp_path / "b.jsonl", mutated, seed=2)
        assert _run(tmp_path, "ingest", str(tmp_path / "a.jsonl"),
                    str(tmp_path / "b.jsonl")) == 0
        assert _run(tmp_path, "diff", "1", "2") == 1
        out = capsys.readouterr().out
        assert "1 outcome flip(s)" in out
        assert "q2" in out and "timeout" in out and "benign" in out

    def test_cross_target_diff_needs_force(self, tmp_path, capsys):
        make_journal(tmp_path / "a.jsonl", seed=1)
        make_journal(tmp_path / "b.jsonl", seed=2, netlist_hash="fff")
        assert _run(tmp_path, "ingest", str(tmp_path / "a.jsonl"),
                    str(tmp_path / "b.jsonl")) == 0
        assert _run(tmp_path, "diff", "1", "2") == 2
        assert "different designs" in capsys.readouterr().err
        assert _run(tmp_path, "diff", "1", "2", "--force") == 0


class TestHeatmapCli:
    def test_writes_html(self, tmp_path, capsys):
        assert _run(tmp_path, "ingest",
                    str(make_journal(tmp_path / "c.jsonl"))) == 0
        out = tmp_path / "heat.html"
        assert _run(tmp_path, "heatmap", "1", "--out", str(out)) == 0
        assert out.read_text().startswith("<!DOCTYPE html>")
        assert "heatmap written" in capsys.readouterr().out


class TestDbFlag:
    def test_db_flag_selects_the_warehouse(self, tmp_path):
        journal = make_journal(tmp_path / "c.jsonl")
        assert _run(tmp_path, "ingest", str(journal)) == 0
        with ResultsStore(_db(tmp_path)) as store:
            assert len(store.campaigns()) == 1
