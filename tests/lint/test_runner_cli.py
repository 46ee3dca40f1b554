"""Runner, baseline, and CLI tests, including the seeded-defects
acceptance scenario: a netlist with a combinational loop, a double-driven
wire, and a dead gate must produce all three findings and exit nonzero."""

import json

import pytest

from repro import obs
from repro.cells import nangate15_library
from repro.lint import (
    LintTarget,
    load_baseline,
    run_lint,
    write_baseline,
)
from repro.lint.__main__ import main
from repro.netlist import Netlist
from repro.netlist.json_io import netlist_to_json


def _seeded_netlist() -> Netlist:
    """One netlist seeded with the three acceptance defects."""
    n = Netlist("seeded", nangate15_library())
    n.add_input("a")
    n.add_input("b")
    # Defect 1: combinational loop g1 <-> g2.
    n.add_gate("g1", "INV", {"A": "w2"}, "w1")
    n.add_gate("g2", "INV", {"A": "w1"}, "w2")
    # Defect 2: wire dd driven twice.
    n.add_gate("g3", "INV", {"A": "a"}, "dd")
    n.add_gate("g4", "INV", {"A": "b"}, "dd")
    # Defect 3: dead gate g5 (output never read, not a port).
    n.add_gate("g5", "INV", {"A": "a"}, "dangling")
    n.add_output("dd")
    n.add_output("w1")
    return n


@pytest.fixture()
def seeded_path(tmp_path):
    path = tmp_path / "seeded.json"
    path.write_text(netlist_to_json(_seeded_netlist()), encoding="utf-8")
    return str(path)


class TestRunner:
    def test_unknown_rule_id_raises(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        with pytest.raises(KeyError, match="unknown lint rule"):
            run_lint(target, enable=["net.typo"])
        with pytest.raises(KeyError, match="unknown lint rule"):
            run_lint(target, disable=["net.typo"])

    def test_glob_pattern_expands_to_the_whole_layer(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target, enable=["net.*"])
        by_rule = report.by_rule()
        assert by_rule
        assert all(rule_id.startswith("net.") for rule_id in by_rule)

    def test_disable_glob_drops_the_whole_layer(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target, disable=["net.*"])
        assert not any(r.startswith("net.") for r in report.by_rule())

    def test_glob_matching_nothing_raises_clearly(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        with pytest.raises(KeyError, match="matches nothing"):
            run_lint(target, enable=["bogus.*"])
        with pytest.raises(KeyError, match="matches nothing"):
            run_lint(target, disable=["net.typo-*"])

    def test_disable_drops_rule(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target, disable=["net.dead-gate"])
        assert "net.dead-gate" not in report.by_rule()
        assert "net.comb-loop" in report.by_rule()

    def test_tag_selection_runs_only_validate_rules(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target, tags=["validate"])
        by_rule = report.by_rule()
        assert "net.comb-loop" in by_rule
        assert "net.dead-gate" not in by_rule  # quality tag, not validate

    def test_validation_rules_all_live_in_rules_netlist(self):
        # validate_netlist loads only rules_netlist; a validate-tagged rule
        # anywhere else would run or not depending on what was imported.
        from repro.lint import default_registry, rules_netlist

        chosen = default_registry().select(tags={"validate", "strict-validate"})
        assert chosen
        assert {r.check.__module__ for r in chosen} == {rules_netlist.__name__}

    def test_inapplicable_rules_recorded_as_skipped(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target)
        assert "rtl.no-next" in report.skipped_rules
        assert "mate.unsound" in report.skipped_rules
        assert "net.comb-loop" not in report.skipped_rules

    def test_findings_counted_per_rule(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target)
        for rule_id, count in report.by_rule().items():
            assert obs.counter(f"lint.findings.{rule_id}").value == count

    def test_baseline_set_suppresses(self):
        target = LintTarget.for_netlist(_seeded_netlist())
        first = run_lint(target)
        victim = first.sorted()[0]
        again = run_lint(target, baseline=frozenset([victim.fingerprint()]))
        assert again.suppressed == 1
        assert len(again) == len(first) - 1
        assert victim.fingerprint() not in again.fingerprints()


class TestBaselineFiles:
    def test_round_trip_suppresses_everything(self, tmp_path):
        target = LintTarget.for_netlist(_seeded_netlist())
        report = run_lint(target)
        assert report.has_errors
        path = tmp_path / "baseline.json"
        count = write_baseline(path, report)
        assert count == len(report)
        assert load_baseline(path) == frozenset(report.fingerprints())
        clean = run_lint(target, baseline=path)
        assert len(clean) == 0
        assert clean.suppressed == count
        assert not clean.has_errors

    def test_load_rejects_malformed_documents(self, tmp_path):
        bad_version = tmp_path / "v.json"
        bad_version.write_text('{"version": 99, "suppress": []}')
        with pytest.raises(ValueError, match="version"):
            load_baseline(bad_version)
        not_a_doc = tmp_path / "n.json"
        not_a_doc.write_text('["just", "a", "list"]')
        with pytest.raises(ValueError, match="not a suppression document"):
            load_baseline(not_a_doc)
        bad_list = tmp_path / "l.json"
        bad_list.write_text('{"version": 1, "suppress": [1, 2]}')
        with pytest.raises(ValueError, match="string list"):
            load_baseline(bad_list)


class TestCli:
    def test_seeded_defects_reported_as_json_and_exit_nonzero(
        self, seeded_path, capsys
    ):
        exit_code = main(["--format", "json", seeded_path])
        assert exit_code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["target"] == "seeded"
        severity_of = {
            d["rule"]: d["severity"] for d in doc["diagnostics"]
        }
        assert severity_of["net.comb-loop"] == "error"
        assert severity_of["net.multi-driven"] == "error"
        assert severity_of["net.dead-gate"] == "warning"
        loop = next(d for d in doc["diagnostics"]
                    if d["rule"] == "net.comb-loop")
        assert " -> " in loop["message"]  # the concrete cycle path
        multi = next(d for d in doc["diagnostics"]
                     if d["rule"] == "net.multi-driven")
        assert multi["location"] == "seeded:wire dd"

    def test_text_format_exit_nonzero(self, seeded_path, capsys):
        assert main([seeded_path]) == 1
        out = capsys.readouterr().out
        assert "net.comb-loop" in out
        assert "summary:" in out

    def test_rule_selection(self, seeded_path, capsys):
        exit_code = main(
            ["--format", "json", "--rules", "net.dead-gate", seeded_path])
        assert exit_code == 0  # warnings alone do not fail the run
        doc = json.loads(capsys.readouterr().out)
        assert {d["rule"] for d in doc["diagnostics"]} == {"net.dead-gate"}

    def test_write_then_apply_baseline(self, seeded_path, tmp_path, capsys):
        baseline = str(tmp_path / "baseline.json")
        assert main([seeded_path, "--write-baseline", baseline]) == 0
        capsys.readouterr()
        exit_code = main(
            ["--format", "json", "--baseline", baseline, seeded_path])
        assert exit_code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"] == []
        assert doc["summary"]["suppressed"] > 0

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("net.comb-loop", "rtl.width-mismatch",
                        "synth.dropped-wire", "mate.unsound"):
            assert rule_id in out

    def test_unknown_target_exits_2(self, capsys):
        assert main(["no-such-design"]) == 2
        assert "repro-lint" in capsys.readouterr().err

    def test_glob_rule_selection(self, seeded_path, capsys):
        exit_code = main(["--format", "json", "--rules", "net.*", seeded_path])
        assert exit_code == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["diagnostics"]
        assert all(d["rule"].startswith("net.") for d in doc["diagnostics"])

    def test_unknown_glob_exits_2_with_a_clear_error(self, seeded_path, capsys):
        assert main(["--rules", "bogus.*", seeded_path]) == 2
        err = capsys.readouterr().err
        assert "matches nothing" in err

    def test_figure1_named_target_is_clean(self, capsys):
        assert main(["figure1"]) == 0

    def test_figure1_mate_audit_is_clean(self, capsys):
        assert main(["figure1", "--audit-mates", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert not any(d["rule"] == "mate.unsound" for d in doc["diagnostics"])
