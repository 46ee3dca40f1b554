"""``compare`` verdicts."""

from bench.compare import compare, format_rows, verdict

STEADY = [10.0, 10.1, 10.2]


def test_same_within_bound():
    assert verdict(STEADY, [10.3, 10.4, 10.5], "lower", 0.1) == "same"


def test_worse_beyond_bound_in_either_direction():
    assert verdict(STEADY, [11.5, 11.6, 11.7], "lower", 0.1) == "worse"
    assert verdict(STEADY, [8.5, 8.6, 8.7], "higher", 0.1) == "worse"


def test_better_beyond_bound():
    assert verdict(STEADY, [8.5, 8.6, 8.7], "lower", 0.1) == "better"


def test_unresolved_when_spread_exceeds_bound():
    noisy = [8.0, 10.0, 12.0]
    assert verdict(STEADY, noisy, "lower", 0.1) == "unresolved"
    assert verdict(noisy, STEADY, "lower", 0.1) == "unresolved"


def test_noisy_but_every_round_better_is_resolved():
    assert verdict([10.0, 12.0, 14.0], [7.0, 8.0, 9.5], "lower", 0.1) == "better"


def _result_set(values):
    return {"workloads": {"w": {"end_to_end": {
        "t": {"unit": "s", "values": values},
    }}}}


def test_compare_rows_and_missing_values():
    spec = {"end_to_end": [
        {"name": "t", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "u", "unit": "s", "better": "lower", "bound": 0.1},
    ]}
    rows = compare(_result_set(STEADY), _result_set([12.0, 12.1, 12.2]), spec)
    assert [(r.metric, r.verdict) for r in rows] == [
        ("t", "worse"), ("u", "unresolved"),
    ]
    assert rows[0].change > 0.15
    table = format_rows(rows)
    assert "worse" in table and "unresolved" in table
