"""Command-line experiment runner.

Usage::

    python -m repro.eval table1          # MATE search statistics
    python -m repro.eval table2          # AVR MATE performance
    python -m repro.eval table3          # MSP430 MATE performance
    python -m repro.eval figure1         # example circuit + pruning grid
    python -m repro.eval hafi            # Sec. 6.1 hardware-cost figures
    python -m repro.eval coverage        # SAT exact-coverage ceiling
    python -m repro.eval campaign        # sampled ground-truth SEU campaigns
    python -m repro.eval prune           # cross-layer pruning accounting
    python -m repro.eval all             # everything above except campaign/prune
    python -m repro.eval clear-cache     # drop cached traces/searches

``campaign`` routes through the resilient runner (:mod:`repro.fi.runner`):
injections are journaled under the artifact cache, so an interrupted run
resumes and a warm re-run replays instead of re-injecting; completed
campaigns are warehoused (:mod:`repro.store`) for cross-run diffing. It
stays out of ``all`` because it executes real injection campaigns
(minutes, not seconds, on a cold cache).

Performance is measured by the top-level ``bench`` package, not here:
``python -m bench run`` / ``python -m bench compare`` and ``make
bench-gate`` (see ``bench/README.md``).

Observability (see README "Observability" and :mod:`repro.obs`)::

    python -m repro.eval table1 --metrics-out metrics.json   # JSON snapshot
    python -m repro.eval all --events-out events.jsonl       # span stream
    python -m repro.eval table2 --verbose    # progress lines + summary table
    python -m repro.eval all --prometheus-out metrics.prom   # Prometheus text

Static analysis (see README "Static analysis" and :mod:`repro.lint`)::

    python -m repro.eval table1 --lint-report audit.json   # archive the
    # lint + static-MATE-soundness audit of every search the run used
"""

from __future__ import annotations

import argparse
import sys

from repro import obs


def _run_experiment(name: str) -> str:
    if name == "table1":
        from repro.eval.table1 import build_table1

        return build_table1().format()
    if name == "table2":
        from repro.eval.mate_performance import build_mate_performance

        return build_mate_performance("avr").format()
    if name == "table3":
        from repro.eval.mate_performance import build_mate_performance

        return build_mate_performance("msp430").format()
    if name == "figure1":
        from repro.eval.figures import build_figure1

        return build_figure1().format()
    if name == "hafi":
        from repro.eval.hafi_cost import build_hafi_cost

        return build_hafi_cost().format()
    if name == "combined":
        from repro.eval.combined import build_combined

        return build_combined().format()
    if name == "coverage":
        from repro.eval.coverage_table import build_coverage_table

        return build_coverage_table().format()
    if name == "campaign":
        from repro.eval.campaign_table import build_campaign_table
        from repro.store import default_db_path

        return build_campaign_table(store_path=default_db_path()).format()
    if name == "prune":
        from repro.eval.prune_table import build_prune_table

        return build_prune_table().format()
    raise ValueError(f"unknown experiment {name!r}")


def _write_lint_report(path: str) -> None:
    """Audit every search the run used and archive the reports as JSON."""
    import json
    from pathlib import Path

    from repro.eval.context import completed_searches, get_netlist
    from repro.lint import LintTarget, run_lint

    reports = []
    for (core, suffix), search in sorted(completed_searches().items()):
        target = LintTarget.for_search(
            get_netlist(core), search, name=f"{core}-{suffix}"
        )
        reports.append(run_lint(target).to_dict())
    doc = {"version": 1, "reports": reports}
    Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    print(f"lint report: {len(reports)} search audit(s) written to {path}")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="repro-eval",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=["table1", "table2", "table3", "figure1", "hafi", "combined",
                 "coverage", "campaign", "prune", "all", "clear-cache"],
    )
    parser.add_argument(
        "--metrics-out",
        metavar="PATH",
        help="write a JSON snapshot of all metrics/spans to PATH on exit",
    )
    parser.add_argument(
        "--events-out",
        metavar="PATH",
        help="stream structured span events to PATH as JSON lines",
    )
    parser.add_argument(
        "--prometheus-out",
        metavar="PATH",
        help="write the metrics in Prometheus text format to PATH on exit",
    )
    parser.add_argument(
        "--lint-report",
        metavar="PATH",
        help="write a JSON lint report (netlist rules + static MATE "
        "soundness audit) for every MATE search this run used",
    )
    parser.add_argument(
        "--verbose",
        "-v",
        action="store_true",
        help="show TTY progress for long loops and print the metrics summary",
    )
    args = parser.parse_args(argv)

    # Fail fast on unwritable output paths — not after a long experiment run.
    for path in (args.metrics_out, args.events_out, args.prometheus_out,
                 args.lint_report):
        if path:
            from pathlib import Path

            parent = Path(path).parent
            if not parent.is_dir():
                parser.error(f"output directory does not exist: {parent}")

    if args.experiment == "clear-cache":
        from repro.eval.context import clear_disk_cache

        removed = clear_disk_cache()
        print(f"removed {removed} cached artifact(s)")
        return 0

    obs.configure(
        jsonl_path=args.events_out,
        progress=True if args.verbose else None,
    )

    wanted = (
        ["figure1", "table1", "table2", "table3", "hafi", "combined",
         "coverage"]
        if args.experiment == "all"
        else [args.experiment]
    )
    try:
        for name in wanted:
            with obs.span(f"eval/{name}"):
                text = _run_experiment(name)
            print(text)
            print()
        if args.lint_report:
            _write_lint_report(args.lint_report)
    finally:
        if args.metrics_out:
            obs.write_json(args.metrics_out)
        if args.prometheus_out:
            from pathlib import Path

            Path(args.prometheus_out).write_text(
                obs.prometheus_text(), encoding="utf-8"
            )
        obs.clear_sinks()
    if args.verbose:
        print(obs.summary())
    return 0


if __name__ == "__main__":
    sys.exit(main())
