"""Shared fixtures for the results-warehouse tests."""

import pytest

from repro.fi.campaign import InjectionRecord
from repro.fi.classify import Outcome
from repro.fi.journal import CampaignJournal, points_hash
from repro.store import ResultsStore

#: A small, deterministic campaign: (dff, cycle, outcome) triples with a
#: duplicate fault-space key (q1@2 twice — sampling is with replacement).
RECORDS = [
    ("q0", 1, "benign"),
    ("q1", 2, "sdc"),
    ("q1", 2, "sdc"),
    ("q2", 5, "timeout"),
    ("q3", 0, "error"),
]


def make_journal(
    path,
    records=RECORDS,
    *,
    workload="accum",
    netlist_hash="abc123",
    seed=7,
    golden_cycles=8,
    complete=True,
    meta=None,
    workers=None,
    provenance=None,
):
    """Write a well-formed campaign journal from (dff, cycle, outcome)s.

    ``provenance`` maps a record index to back-annotation kwargs
    (``pruned_by`` and optionally ``equivalence_rep``) for collapsed
    campaigns.
    """
    points = [(dff, cycle) for dff, cycle, _ in records]
    header = {
        "netlist_hash": netlist_hash,
        "workload": workload,
        "points_hash": points_hash(points),
        "seed": seed,
        "num_points": len(points),
        "golden_cycles": golden_cycles,
        "max_cycles": 100,
        "points": [list(p) for p in points],
    }
    if meta is not None:
        header["meta"] = meta
    with CampaignJournal(path, header) as journal:
        for i, (dff, cycle, outcome) in enumerate(records):
            journal.append_record(
                i,
                InjectionRecord(dff, cycle, Outcome(outcome)),
                seconds=0.01 * (i + 1),
                worker=workers[i % len(workers)] if workers else None,
                **(provenance or {}).get(i, {}),
            )
        if complete:
            journal.mark_complete(len(records))
    return path


@pytest.fixture
def store(tmp_path):
    """A fresh warehouse in the test's tmp dir."""
    with ResultsStore(tmp_path / "warehouse.sqlite3") as s:
        yield s
