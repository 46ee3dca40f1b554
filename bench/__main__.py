"""Command line: ``python -m bench run|compare``.

``run`` measures the workloads named in ``BENCHMARK.json`` (all of them,
or those given with ``--workload``), checks their outputs, prints every
metric by name with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Each end-to-end metric is a run's best round (see :mod:`bench.workloads`);
with ``--runs N`` each workload runs N times on consecutive seeds and the
line reports the median over the runs. ``--trace 0`` reports the
end-to-end metrics only, ``--trace 1`` the per-layer metrics only (it
still runs the untraced rounds, to measure the tracing overhead); by
default both. ``--out FILE`` writes the full result set that ``compare``
reads. The exit code is 1 when any correctness check fails and 2 when the
benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import tempfile
from pathlib import Path

from bench import stats
from bench.compare import compare, format_rows
from bench.spec import ROOT, load_expected, load_spec, units, validate_spec
from bench.workloads import (
    WORKLOADS,
    end_to_end,
    gate,
    inject_samples,
    per_layer,
    run_workload,
)


def _median_or_none(values: list) -> float | None:
    values = [v for v in values if v is not None and math.isfinite(v)]
    return stats.median(values) if values else None


def _report(result, e2e: dict, layers: dict | None, unit: dict) -> None:
    status = "correct" if result.correct else "FAILED"
    print(f"== {result.name}: seed {result.seed}, {len(result.rounds)} rounds, "
          f"{status} ==")
    for metric, entry in e2e.items():
        if entry["value"] is None:
            print(f"  {metric:<34} (no successful round)")
            continue
        print(
            f"  {metric:<34} {entry['value']:>12.6g} {unit[metric]:<8} best of "
            f"{len(entry['rounds'])} rounds, round median "
            f"{stats.median(entry['rounds']):.6g}"
        )
    if layers is not None:
        print("  per layer (fastest traced run):")
        for metric, value in layers.items():
            note = ""
            if metric.startswith("fi.inject.ms_p") and value:
                samples = len(inject_samples(result))
                p = float(metric.rpartition("p")[2])
                note = f"  n={samples}, {stats.beyond(samples, p)} beyond"
            print(f"  {metric:<34} {value:>12.6g} {unit[metric]}{note}")
    print(f"  checks: {result.checks.passed} passed, "
          f"{len(result.checks.failures)} failed; "
          f"{result.failed} of {result.attempted} operations failed")
    for failure in result.checks.failures:
        print(f"  FAILED CHECK: {failure}")


def _measure(args, names: list[str], seed: int, seconds: float, traced: bool,
             expected: dict) -> dict[str, list]:
    """Run and gate every workload ``args.runs`` times; results by name."""
    runs: dict[str, list] = {}
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as tmp:
        for name in names:
            runs[name] = []
            for run_seed in range(seed, seed + args.runs):
                workdir = Path(tmp) / f"{name}-{run_seed}"
                events = (args.trace_dir or workdir) / f"{name}-{run_seed}.trace.json"
                result = run_workload(
                    WORKLOADS[name], run_seed, seconds, traced, workdir, events
                )
                gate(WORKLOADS[name], result, expected)
                runs[name].append(result)
    for name, results in runs.items():
        other = getattr(WORKLOADS[name], "outcomes_of", None)
        for mine, theirs in zip(results, runs.get(other, [])):
            a, b = mine.rounds[0].journal, theirs.rounds[0].journal
            mine.checks.check(
                a is not None and b is not None and a.records == b.records,
                f"outcomes differ from {other}'s record for record",
            )
    return runs


def _summarize(name: str, results: list, want_e2e: bool, want_layers: bool,
               spec: dict) -> tuple[dict, dict]:
    """Print one workload's runs; returns its result-set entry and the
    metrics for the final line (medians over the runs)."""
    unit = units(spec)
    workload = WORKLOADS[name]
    e2e_runs, layer_runs = [], []
    for result in results:
        e2e = end_to_end(workload, result)
        layers = (
            per_layer(workload, result, [m["name"] for m in spec["per_layer"]])
            if want_layers else {}
        )
        _report(result, e2e if want_e2e else {}, layers if want_layers else None,
                unit)
        e2e_runs.append(e2e)
        layer_runs.append(layers)
    e2e_summary = {}
    for metric in e2e_runs[0]:
        values = [e[metric]["value"] for e in e2e_runs
                  if e[metric]["value"] is not None]
        if values:
            e2e_summary[metric] = {"unit": unit[metric], **stats.summarize(values)}
    layer_summary = {
        metric: {
            "unit": unit[metric],
            "median": _median_or_none([layers[metric] for layers in layer_runs]),
            "values": [layers[metric] for layers in layer_runs],
        }
        for metric in layer_runs[0]
    }
    entry = {
        "correct": all(r.correct for r in results),
        "end_to_end": e2e_summary,
        "per_layer": layer_summary,
        "runs": [
            {
                "seed": result.seed,
                "rounds": len(result.rounds),
                "checks": {"passed": result.checks.passed,
                           "failures": result.checks.failures},
                "end_to_end": e2e,
                "per_layer": layers,
            }
            for result, e2e, layers in zip(results, e2e_runs, layer_runs)
        ],
    }
    metrics = {}
    if want_e2e:
        for metric in e2e_runs[0]:
            metrics[metric] = {
                "value": _median_or_none([e[metric]["value"] for e in e2e_runs]),
                "unit": unit[metric],
            }
    for metric, summary in layer_summary.items():
        metrics[metric] = {"value": summary["median"], "unit": unit[metric]}
    return entry, metrics


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_spec()
    problems = validate_spec(spec)
    if problems:
        print("BENCHMARK.json is invalid:\n  " + "\n  ".join(problems),
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    expected = load_expected()
    seed = expected["seed"] if args.seed is None else args.seed
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = args.workload or [w["name"] for w in spec["workloads"]]
    want_e2e, want_layers = args.trace in (None, 0), args.trace in (None, 1)
    if args.trace_dir is not None:
        args.trace_dir.mkdir(parents=True, exist_ok=True)

    runs = _measure(args, names, seed, seconds, want_layers, expected)
    document = {"seed": seed, "runs": args.runs, "seconds": seconds, "workloads": {}}
    line_metrics = {}
    for name, results in runs.items():
        document["workloads"][name], line_metrics[name] = _summarize(
            name, results, want_e2e, want_layers, spec
        )
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")

    results = [r for rs in runs.values() for r in rs]
    correct = all(r.correct for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted + r.checks.attempted for r in results),
        "failed": sum(r.failed + len(r.checks.failures) for r in results),
        "metrics": line_metrics[names[0]] if len(names) == 1 else line_metrics,
    }))
    return 0 if correct else 1


def cmd_compare(args: argparse.Namespace) -> int:
    spec = load_spec()
    a = json.loads(args.a.read_text(encoding="utf-8"))
    b = json.loads(args.b.read_text(encoding="utf-8"))
    rows = compare(a, b, spec)
    print(format_rows(rows))
    verdicts = [row.verdict for row in rows]
    print(f"\n{verdicts.count('worse')} worse, {verdicts.count('unresolved')} "
          f"unresolved, {verdicts.count('same')} same, "
          f"{verdicts.count('better')} better")
    return 1 if "worse" in verdicts or "unresolved" in verdicts else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="measure workloads and check their outputs")
    run_p.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    run_p.add_argument("--seed", type=int, default=None,
                       help="input seed (default: bench/expected.json's seed)")
    run_p.add_argument("--runs", type=int, default=1,
                       help="runs per workload, with seeds SEED, SEED+1, ...; "
                       "compare needs at least 3")
    run_p.add_argument("--seconds", type=float, default=None,
                       help="time budget per workload (default: run_seconds)")
    run_p.add_argument("--trace", type=int, choices=(0, 1), default=None,
                       help="0: end-to-end metrics only; 1: per-layer only")
    run_p.add_argument("--out", type=Path, default=None,
                       help="write the full result set (for compare) here")
    run_p.add_argument("--trace-dir", type=Path, default=None,
                       help="keep each traced run's Chrome trace-event JSON here")
    run_p.set_defaults(func=cmd_run)
    compare_p = sub.add_parser("compare", help="judge result set B against A")
    compare_p.add_argument("a", type=Path)
    compare_p.add_argument("b", type=Path)
    compare_p.set_defaults(func=cmd_compare)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
