"""BENCHMARK.json validation and the layer -> end-to-end map."""

import copy

import pytest

from bench import spec as spec_module
from bench.spec import LAYER_MAP, load_expected, load_spec, validate_spec
from bench.workloads import WORKLOADS


@pytest.fixture
def spec():
    return load_spec()


def test_committed_spec_is_valid(spec):
    assert validate_spec(spec) == []


def test_spec_workloads_are_the_harness_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_every_layer_metric_moves_an_end_to_end_metric_on_a_workload(spec):
    e2e = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    for metric in spec["per_layer"]:
        moves = LAYER_MAP[metric["name"]]
        assert moves
        for target, on in moves:
            assert target in e2e
            assert on and set(on) <= workloads


def test_expected_lists_default_and_holdout_seeds():
    expected = load_expected()
    assert expected["seed"] == 1 and expected["holdout_seed"] == 2
    for seed in ("1", "2"):
        assert set(expected["campaigns"][seed]) == {"avr-inline", "msp430-layered"}
        assert set(expected["analysis"][seed]) == {"avr", "msp430"}


@pytest.mark.parametrize("name", ["bad name", "-lead", "a" * 65, "x/y", ""])
def test_bad_names_rejected(spec, name):
    broken = copy.deepcopy(spec)
    broken["per_layer"][0]["name"] = name
    assert any("bad name" in p for p in validate_spec(broken))


def test_duplicate_name_rejected(spec):
    broken = copy.deepcopy(spec)
    broken["per_layer"].append(dict(broken["per_layer"][0]))
    assert any("used twice" in p for p in validate_spec(broken))


def test_workload_count_limits(spec):
    broken = copy.deepcopy(spec)
    broken["workloads"] = broken["workloads"][:1]
    assert any("workloads, expected 2-8" in p for p in validate_spec(broken))
    broken["workloads"] = [
        {"name": f"w{i}", "why": "x"} for i in range(9)
    ]
    assert any("workloads, expected 2-8" in p for p in validate_spec(broken))


def test_metric_count_limits(spec):
    broken = copy.deepcopy(spec)
    broken["end_to_end"] += [
        {"name": f"m{i}", "unit": "s", "better": "lower", "bound": 0.1}
        for i in range(12)
    ]
    assert any("end_to_end metrics, expected 1-16" in p for p in validate_spec(broken))
    broken = copy.deepcopy(spec)
    broken["per_layer"] += [
        {"name": f"layer{i}", "unit": "s", "better": "lower"} for i in range(81)
    ]
    assert any("per_layer metrics, expected 1-128" in p for p in validate_spec(broken))


def test_extra_keys_rejected(spec):
    broken = copy.deepcopy(spec)
    broken["seed"] = 1
    assert validate_spec(broken)
    broken = copy.deepcopy(spec)
    broken["end_to_end"][0]["note"] = "x"
    assert validate_spec(broken)


def test_bound_and_setup_rules(spec):
    broken = copy.deepcopy(spec)
    broken["end_to_end"][0]["bound"] = 0.3
    assert any("bound must be" in p for p in validate_spec(broken))
    broken = copy.deepcopy(spec)
    for metric in broken["end_to_end"]:
        if metric["name"] == "setup_s":
            metric["bound"] = 0.01
    assert any("largest bound" in p for p in validate_spec(broken))


def test_layer_map_must_name_existing_metrics_and_workloads(spec, monkeypatch):
    layer_map = dict(LAYER_MAP)
    layer_map["sim.step.self_s"] = [("no_such_metric", ("avr-inline",))]
    monkeypatch.setattr(spec_module, "LAYER_MAP", layer_map)
    assert any("unknown end-to-end metric" in p for p in validate_spec(spec))
    layer_map["sim.step.self_s"] = [("points_per_s", ("no-such-workload",))]
    assert any("unknown workload" in p for p in validate_spec(spec))
    del layer_map["sim.step.self_s"]
    assert any("no LAYER_MAP entry" in p for p in validate_spec(spec))
