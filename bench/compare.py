"""``python -m bench compare A.json B.json``: judge B against A.

Each result set holds, per workload and end-to-end metric, one value per
run (``python -m bench run --runs N --out FILE``). B is ``worse`` when its
median is worse than A's by more than the metric's bound, ``better`` when
it is better by more than the bound, and ``same`` otherwise. When either
side has fewer than :data:`MIN_RUNS` runs, or its run-to-run spread
(interquartile range over median) exceeds the bound, the pair is
``unresolved`` — unless every run of B beats every run of A.
"""

from __future__ import annotations

from dataclasses import dataclass

from bench import stats

MIN_RUNS = 3


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    median_a: float
    median_b: float
    #: (B - A) / A, signed as measured.
    change: float
    bound: float
    verdict: str


def verdict(a: list[float], b: list[float], better: str, bound: float) -> str:
    """Verdict on B's rounds against A's for one metric."""
    median_a, median_b = stats.median(a), stats.median(b)
    if median_a == 0:
        worse_by = 0.0 if median_b == median_a else float("inf")
    elif better == "lower":
        worse_by = (median_b - median_a) / abs(median_a)
    else:
        worse_by = (median_a - median_b) / abs(median_a)
    b_always_better = (
        max(b) < min(a) if better == "lower" else min(b) > max(a)
    )
    noisy = (
        min(len(a), len(b)) < MIN_RUNS
        or max(stats.spread(a), stats.spread(b)) > bound
    )
    if noisy and not b_always_better:
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if worse_by < -bound:
        return "better"
    return "same"


def compare(a: dict, b: dict, spec: dict) -> list[Row]:
    """Rows for every workload both result sets hold."""
    rows = []
    for workload, result_a in a["workloads"].items():
        result_b = b["workloads"].get(workload)
        if result_b is None:
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = result_a["end_to_end"].get(name, {}).get("values")
            values_b = result_b["end_to_end"].get(name, {}).get("values")
            if not values_a or not values_b:
                rows.append(Row(workload, name, metric["unit"], float("nan"),
                                float("nan"), float("nan"), metric["bound"],
                                "unresolved"))
                continue
            median_a, median_b = stats.median(values_a), stats.median(values_b)
            change = (median_b - median_a) / median_a if median_a else 0.0
            rows.append(Row(
                workload, name, metric["unit"], median_a, median_b, change,
                metric["bound"],
                verdict(values_a, values_b, metric["better"], metric["bound"]),
            ))
    return rows


def format_rows(rows: list[Row]) -> str:
    """The comparison as an aligned text table."""
    header = ("workload", "metric", "median A", "median B", "change", "bound",
              "verdict")
    lines = [header] + [
        (
            row.workload, row.metric,
            f"{row.median_a:.4g} {row.unit}", f"{row.median_b:.4g} {row.unit}",
            f"{row.change:+.1%}", f"{row.bound:.0%}", row.verdict,
        )
        for row in rows
    ]
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    return "\n".join(
        "  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in lines
    )
