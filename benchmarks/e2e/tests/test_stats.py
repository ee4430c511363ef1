"""The rules numbers are reported under."""

import pytest

import stats


@pytest.mark.parametrize(
    "count, expected",
    [
        (9, None),      # nothing has ten samples beyond it
        (20, 50.0),     # ten beyond the median
        (40, 75.0),
        (100, 90.0),
        (200, 95.0),
        (999, 95.0),    # p99 would have only nine beyond it
        (1000, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_percentile_with_ten_samples_beyond(count, expected):
    assert stats.highest_supported_percentile(count) == expected


def test_percentile_interpolates():
    assert stats.percentile([1.0, 2.0, 3.0, 4.0, 5.0], 50) == 3.0
    assert stats.percentile([0.0, 10.0], 25) == 2.5
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_windows_cut_the_phase_into_four_equal_parts():
    stamped = [(t / 10.0, float(t)) for t in range(40)]  # 0.0 .. 3.9 s
    chunks = stats.split_windows(stamped, 0.0, 4.0)
    assert [len(c) for c in chunks] == [10, 10, 10, 10]
    low, high = stats.window_range(stamped, 0.0, 4.0, 50)
    assert (low, high) == (4.5, 34.5)
    assert stats.window_rates(stamped, 0.0, 4.0) == (10.0, 10.0)


def test_quartile_spread_matches_the_contract_definition():
    import statistics

    values = [10.0, 10.2, 9.9, 10.1, 10.4, 9.8, 10.0, 10.3, 9.7, 10.1]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.quartile_spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values)
    )
