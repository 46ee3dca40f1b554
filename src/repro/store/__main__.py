"""Command-line front end of the campaign results warehouse.

Usage::

    python -m repro.store ingest camp.jsonl shards/        # journal or campaign dir
    python -m repro.store list                             # stored campaigns
    python -m repro.store show 1                           # one campaign
    python -m repro.store diff 1 2                         # exit 1 on any flip
    python -m repro.store heatmap 1 --out heat.html [--compare 2]
    python -m repro.store query "SELECT ..."               # read-only SQL

``--db`` selects the warehouse file (default:
``.repro_cache/warehouse.sqlite3``, shared with the auto-ingest path of
``repro.fi``).

``diff`` is the regression gate for execution-engine changes: two
campaigns on the same target must agree on every matched fault-space point
``(dff, bit, cycle)``; any classification flip exits 1 and is listed.
Performance is gated elsewhere, by the top-level ``bench`` package
(``python -m bench run`` / ``compare``, ``make bench-gate``).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.fi.journal import JournalError
from repro.obs.export import aligned_table
from repro.store.db import ResultsStore, StoreError
from repro.store.diff import diff_campaigns
from repro.store.heatmap import write_heatmap

#: Exit code for a clean run that found a difference/regression (the gate
#: verdict), as opposed to 2 for operational errors.
EXIT_DIRTY = 1


def _detect_kind(path: Path) -> str:
    """``journal`` or ``campaign-dir``, sniffed from the path."""
    if not path.exists():
        raise StoreError(f"no such file: {path}")
    if path.is_dir():
        from repro.fi.service import is_campaign_dir

        if is_campaign_dir(path):
            return "campaign-dir"
        raise StoreError(
            f"{path} is a directory but not a sharded campaign "
            "(no campaign.json manifest)"
        )
    with path.open("r", encoding="utf-8", errors="replace") as fh:
        head = fh.readline()
    try:
        doc = json.loads(head)
    except ValueError:
        doc = None
    if isinstance(doc, dict) and doc.get("kind") == "header":
        return "journal"
    raise StoreError(
        f"{path} is neither a campaign journal nor a sharded campaign "
        "directory; ingest accepts only those"
    )


def _cmd_ingest(store: ResultsStore, args: argparse.Namespace) -> int:
    for raw in args.paths:
        path = Path(raw)
        kind = _detect_kind(path)
        if kind == "campaign-dir":
            # A sharded coordinator campaign: merge the shard journals
            # (no-op when merged.jsonl already exists), then ingest the
            # merged journal with its relayed telemetry.
            from repro.fi.service import merge_campaign_dir

            merged = merge_campaign_dir(path)
            telemetry = args.telemetry_dir or (
                path / "telemetry" if (path / "telemetry").is_dir() else None
            )
            cid = store.ingest_journal(
                merged, telemetry_dir=telemetry, label=args.label
            )
            tally = store.outcome_tally(cid)
            print(
                f"ingested distributed campaign #{cid} from {path} "
                f"({sum(tally.values())} outcome(s))"
            )
        else:
            cid = store.ingest_journal(
                path, telemetry_dir=args.telemetry_dir, label=args.label
            )
            tally = store.outcome_tally(cid)
            print(
                f"ingested campaign #{cid} from {path} "
                f"({sum(tally.values())} outcome(s))"
            )
    return 0


def _cmd_list(store: ResultsStore, args: argparse.Namespace) -> int:
    campaigns = store.campaigns()
    if campaigns:
        rows = []
        for c in campaigns:
            tally = store.outcome_tally(c.id)
            space = "pruned" if c.pruned else "full"
            if c.defuse:
                space += "+defuse"
            if c.static:
                space += "+static"
            if c.distributed:
                space += "+dist"
            rows.append([
                str(c.id),
                c.workload,
                c.netlist_hash[:12],
                str(sum(tally.values())),
                "yes" if c.complete else "no",
                space,
                c.label or "-",
            ])
        print(aligned_table(
            "campaigns",
            ["id", "workload", "netlist", "outcomes", "complete", "space",
             "label"],
            rows,
        ))
    else:
        print("no campaigns ingested")
    return 0


def _cmd_show(store: ResultsStore, args: argparse.Namespace) -> int:
    c = store.campaign(args.campaign)
    print(f"campaign #{c.id}: {c.workload} (netlist {c.netlist_hash})")
    print(
        f"keyed by:  points_hash={c.points_hash} seed={c.seed} "
        f"golden_cycles={c.golden_cycles}"
    )
    print(
        f"state:     {'complete' if c.complete else 'partial'}, "
        f"{c.num_points} point(s) planned, "
        f"{'pruned-space' if c.pruned else 'full-space'} sample"
        f"{', def-use collapsed' if c.defuse else ''}"
        f"{', static collapsed' if c.static else ''}"
        f"{', distributed (merged from shards)' if c.distributed else ''}"
    )
    if c.space_points:
        pruned = c.pruned_points or 0
        print(
            f"space:     {c.space_points} FF×cycle point(s), "
            f"{pruned} MATE-pruned ({100 * pruned / c.space_points:.1f}%)"
        )
    if c.layers:
        print(
            "layers:    "
            + ", ".join(
                f"{count} pruned by {layer}"
                for layer, count in sorted(c.layers.items())
            )
        )
    if c.defuse:
        print(
            f"collapse:  {c.defuse_injected} representative(s) injected, "
            f"{c.defuse_annotated} point(s) back-annotated"
        )
    if c.static and c.static_annotated is not None:
        print(
            f"static:    {c.static_annotated} point(s) annotated dead by the "
            f"dataflow layer"
        )
    if c.journal_path:
        print(f"journal:   {c.journal_path}")
    tally = store.outcome_tally(c.id)
    total = sum(tally.values()) or 1
    print()
    print(aligned_table(
        "outcomes",
        ["outcome", "count", "share"],
        [[name, str(count), f"{100 * count / total:.1f}%"]
         for name, count in sorted(tally.items(), key=lambda kv: -kv[1])],
    ))
    annotations = store.annotation_tally(c.id)
    if annotations:
        annotated = sum(annotations.values())
        print()
        print(aligned_table(
            "provenance",
            ["source", "count"],
            [["injected", str(total - annotated)]]
            + [[f"annotated ({layer})", str(count)]
               for layer, count in sorted(annotations.items())],
        ))
    workers = store.worker_stats(c.id)
    if workers:
        print()
        print(aligned_table(
            "workers",
            ["pid", "injections", "busy", "spans"],
            [[str(pid), str(inj), f"{busy:.2f}s",
              str(spans) if spans is not None else "-"]
             for pid, inj, busy, spans in workers],
        ))
    return 0


def _cmd_query(store: ResultsStore, args: argparse.Namespace) -> int:
    try:
        names, rows = store.query(args.sql)
    except Exception as exc:  # sqlite3 errors: report, don't traceback
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not names:
        print("(no results)")
        return 0
    print(aligned_table(
        "query", names, [[str(v) for v in row] for row in rows]
    ))
    print(f"({len(rows)} row(s))")
    return 0


def _cmd_diff(store: ResultsStore, args: argparse.Namespace) -> int:
    diff = diff_campaigns(store, args.a, args.b, allow_mismatch=args.force)
    print(diff.summary())
    if diff.clean:
        return 0
    rows = [
        [flip.dff, str(flip.bit), str(flip.cycle), flip.before, flip.after]
        for flip in diff.flips
    ]
    print()
    print(aligned_table(
        "flips", ["dff", "bit", "cycle", f"#{args.a}", f"#{args.b}"], rows
    ))
    return EXIT_DIRTY


def _cmd_heatmap(store: ResultsStore, args: argparse.Namespace) -> int:
    out = args.out or Path(f"heatmap-{args.campaign}.html")
    write_heatmap(
        out, store, args.campaign, compare_id=args.compare,
        max_cols=args.max_cols,
    )
    print(f"heatmap written to {out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-store",
        description="Queryable warehouse of campaign results.",
    )
    parser.add_argument(
        "--db", type=Path, default=None, metavar="FILE",
        help="warehouse database (default: .repro_cache/warehouse.sqlite3)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "ingest", help="ingest campaign journals / sharded campaign dirs"
    )
    p.add_argument("paths", nargs="+", metavar="FILE")
    p.add_argument(
        "--telemetry-dir", type=Path, default=None,
        help="telemetry directory for journal ingests "
        "(default: <journal>.telemetry when it exists)",
    )
    p.add_argument("--label", default=None, help="free-form campaign label")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("list", help="list stored campaigns")
    p.set_defaults(func=_cmd_list)

    p = sub.add_parser("show", help="one campaign's stored details")
    p.add_argument("campaign", type=int)
    p.set_defaults(func=_cmd_show)

    p = sub.add_parser("query", help="read-only SQL against the warehouse")
    p.add_argument("sql")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser(
        "diff", help="compare two campaigns point-for-point (exit 1 on flips)"
    )
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument(
        "--force", action="store_true",
        help="diff campaigns even when they target different designs",
    )
    p.set_defaults(func=_cmd_diff)

    p = sub.add_parser("heatmap", help="render a fault-space heatmap HTML")
    p.add_argument("campaign", type=int)
    p.add_argument(
        "--compare", type=int, default=None, metavar="ID",
        help="second campaign for the pruning-attribution table",
    )
    p.add_argument(
        "--out", type=Path, default=None,
        help="output HTML path (default: heatmap-<id>.html)",
    )
    p.add_argument("--max-cols", type=int, default=64,
                   help="maximum cycle buckets (default 64)")
    p.set_defaults(func=_cmd_heatmap)

    args = parser.parse_args(argv)
    try:
        with ResultsStore(args.db) as store:
            return args.func(store, args)
    except (StoreError, JournalError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
