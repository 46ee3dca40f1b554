"""Whole ``python -m bench run`` invocations on a shrunken workload."""

import json
import shutil
import subprocess
import sys

from bench.__main__ import main
from bench.spec import ROOT
from bench.workloads import WORKLOADS, CampaignWorkload


def _tree_state():
    """``git status`` plus every artifact-cache file with its mtime."""
    status = subprocess.run(
        ["git", "status", "--porcelain"], cwd=ROOT,
        capture_output=True, text=True,
    ).stdout
    cache = sorted(
        (path.name, path.stat().st_mtime_ns)
        for path in (ROOT / ".repro_cache").glob("*")
    )
    return status, cache


def test_run_leaves_the_tree_unchanged(monkeypatch, capsys):
    tiny = CampaignWorkload("avr-inline", "avr-fib", points=8, workers=0)
    monkeypatch.setitem(WORKLOADS, "avr-inline", tiny)
    before = _tree_state()
    code = main(["run", "--workload", "avr-inline", "--seed", "7",
                 "--seconds", "0", "--trace", "0"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert _tree_state() == before
    assert not list(ROOT.glob(".bench-*"))
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {
        "time_to_answer_s", "setup_s", "points_per_s", "cpu_s", "peak_rss_mb",
    }
    for metric in result["metrics"].values():
        assert metric["value"] > 0


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "run", "--workload", "avr-inline",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
