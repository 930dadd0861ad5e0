"""LatencySeries percentile edge behaviour: empty, single-sample,
interpolation, duplicates, and monotonicity."""

import pytest

from repro.runtime.stats import LatencySeries


def series(values):
    s = LatencySeries()
    for value in values:
        s.record(value)
    return s


def test_empty_series_answers_zero():
    empty = LatencySeries()
    assert empty.percentile(50) == 0.0
    assert empty.percentile(99) == 0.0
    assert empty.summary() == {
        "count": 0, "mean": 0.0, "p50": 0.0, "p99": 0.0, "max": 0.0,
    }


def test_single_sample_answers_itself_everywhere():
    s = series([0.25])
    for p in (0, 1, 50, 99, 100):
        assert s.percentile(p) == 0.25


def test_extremes_are_min_and_max():
    s = series([5.0, 1.0, 3.0, 2.0, 4.0])
    assert s.percentile(0) == 1.0
    assert s.percentile(100) == 5.0


def test_even_count_p50_is_midpoint():
    assert series([1.0, 2.0]).percentile(50) == pytest.approx(1.5)
    assert series([1.0, 2.0, 3.0, 4.0]).percentile(50) == pytest.approx(
        2.5
    )


def test_odd_count_p50_is_middle_sample():
    assert series([3.0, 1.0, 2.0]).percentile(50) == 2.0


def test_p99_interpolates_between_order_statistics():
    s = series([float(i) for i in range(1, 101)])  # 1..100
    # rank = 99 * 0.99 = 98.01 -> between the 99th and 100th samples
    assert s.percentile(99) == pytest.approx(99.01)
    assert s.percentile(90) == pytest.approx(90.1)


def test_duplicate_heavy_series():
    s = series([1.0] * 98 + [10.0, 10.0])
    assert s.percentile(50) == 1.0
    assert s.percentile(97) == 1.0
    assert s.percentile(99) == pytest.approx(10.0)
    assert series([2.0] * 5).percentile(99) == 2.0


def test_out_of_range_p_clamps():
    s = series([1.0, 2.0, 3.0])
    assert s.percentile(-10) == 1.0
    assert s.percentile(250) == 3.0


def test_percentile_is_monotone_in_p():
    s = series([0.4, 0.1, 0.9, 0.2, 0.7, 0.6, 0.3])
    values = [s.percentile(p) for p in range(0, 101, 5)]
    assert values == sorted(values)
    assert min(s.samples) <= values[0] <= values[-1] <= max(s.samples)


def test_merge_preserves_percentiles():
    a = series([1.0, 2.0])
    b = series([3.0, 4.0])
    a.merge(b)
    assert a.percentile(50) == pytest.approx(2.5)
    assert a.summary()["count"] == 4
