"""repro.store — the queryable cross-campaign results warehouse.

Campaign journals (:mod:`repro.fi.journal`) and merged worker telemetry
(:mod:`repro.obs.remote`) flow into one SQLite database so results
outlive their run::

    from repro.store import ResultsStore, diff_campaigns

    store = ResultsStore()                     # .repro_cache/warehouse.sqlite3
    cid = store.ingest_journal("camp.jsonl")   # + <journal>.telemetry if present
    diff = diff_campaigns(store, cid, other)   # zero flips or the exact list

Or from the shell::

    python -m repro.store ingest camp.jsonl shards/   # journal, campaign dir
    python -m repro.store list
    python -m repro.store diff 1 2            # exit 1 on any outcome flip
    python -m repro.store heatmap 1 --out heat.html --compare 2
    python -m repro.store query "SELECT dff, COUNT(*) FROM outcomes \
        WHERE outcome='sdc' GROUP BY dff ORDER BY 2 DESC"

:class:`~repro.fi.runner.CampaignRunner` (when configured with a
``store_path``) ingests automatically on completion, so the warehouse
accumulates without ceremony. Performance history is not kept here: the
top-level ``bench`` package measures it (``python -m bench run`` /
``compare``, ``make bench-gate``).
"""

from repro.store.db import (
    CampaignRow,
    OutcomeRow,
    ResultsStore,
    StoreError,
    default_db_path,
)
from repro.store.diff import CampaignDiff, OutcomeFlip, diff_campaigns
from repro.store.heatmap import render_heatmap, write_heatmap

__all__ = [
    "CampaignDiff",
    "CampaignRow",
    "OutcomeFlip",
    "OutcomeRow",
    "ResultsStore",
    "StoreError",
    "default_db_path",
    "diff_campaigns",
    "render_heatmap",
    "write_heatmap",
]
