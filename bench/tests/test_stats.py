"""Median, quartile and percentile helpers."""

import statistics

import pytest

from bench import stats


def test_median_and_quartiles_follow_statistics_module():
    values = [3.0, 1.0, 4.0, 1.5, 9.0, 2.6]
    assert stats.median(values) == statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartiles(values) == (q1, q3)


def test_single_value_is_its_own_quartiles():
    assert stats.quartiles([2.5]) == (2.5, 2.5)
    assert stats.spread([2.5]) == 0.0


def test_three_rounds_spread_is_their_range_over_median():
    assert stats.spread([9.0, 10.0, 11.0]) == pytest.approx(0.2)


def test_spread_of_zero_median_is_zero():
    assert stats.spread([0.0, 0.0, 0.0]) == 0.0


def test_nearest_rank_percentile():
    values = list(range(1, 201))
    assert stats.percentile(values, 50) == 100
    assert stats.percentile(values, 95) == 190
    assert stats.percentile(values, 100) == 200
    assert stats.percentile([7.0], 95) == 7.0
    assert stats.beyond(200, 95) == 10
    assert stats.beyond(199, 95) == 9
    assert stats.beyond(180, 95) == 9


@pytest.mark.parametrize("fn", [stats.median, stats.quartiles])
def test_empty_sample_rejected(fn):
    with pytest.raises(ValueError):
        fn([])


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1.0], 0)


def test_summarize():
    summary = stats.summarize([1.0, 2.0, 3.0])
    assert summary["median"] == 2.0
    assert summary["values"] == [1.0, 2.0, 3.0]
    assert (summary["q1"], summary["q3"]) == stats.quartiles([1.0, 2.0, 3.0])
