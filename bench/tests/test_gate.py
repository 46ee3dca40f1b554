"""The correctness gate catches a doctored journal."""

import json
import os
import subprocess
import sys

import pytest

from bench.gate import Checks, check_against_reference, read_journal
from bench.spec import ROOT


@pytest.fixture(scope="module")
def journal(tmp_path_factory):
    path = tmp_path_factory.mktemp("gate") / "avr.jsonl"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run(
        [sys.executable, "-m", "repro.fi", "run", "--target", "avr-fib",
         "--sampled", "8", "--seed", "3", "--workers", "0",
         "--journal", str(path), "--no-store"],
        check=True, env=env, cwd=path.parent, stdout=subprocess.DEVNULL,
    )
    return path


def test_genuine_journal_passes(journal):
    checks = Checks()
    check_against_reference(read_journal(journal), seed=0, checks=checks, size=8)
    assert checks.failures == []
    assert checks.passed == 9  # golden length + 8 points


def test_one_flipped_outcome_is_caught(journal, tmp_path):
    lines = journal.read_text().splitlines()
    doctored, flipped = [], None
    for line in lines:
        doc = json.loads(line)
        if doc.get("kind") == "record" and flipped is None:
            doc["outcome"] = "sdc" if doc["outcome"] == "benign" else "benign"
            flipped = doc["i"]
        doctored.append(json.dumps(doc))
    path = tmp_path / "doctored.jsonl"
    path.write_text("\n".join(doctored) + "\n")

    checks = Checks()
    check_against_reference(read_journal(path), seed=0, checks=checks, size=8)
    assert len(checks.failures) == 1
    assert checks.failures[0].startswith(f"point {flipped} ")
