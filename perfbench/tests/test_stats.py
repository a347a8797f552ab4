"""The median and percentile rule: a tail percentile is reported only when
at least ten samples lie beyond it, and always with the sample count."""

import statistics

import pytest

from stats import describe, nearest_rank, summarize, tail_percentile


@pytest.mark.parametrize("n, expected", [
    (1, None), (10, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    assert tail_percentile(n) == expected


def test_tail_percentile_leaves_at_least_ten_beyond_its_value():
    for n in (100, 150, 200, 1000, 10000):
        values = list(range(n))
        p = tail_percentile(n)
        assert sum(v > nearest_rank(values, p) for v in values) >= 10


def test_nearest_rank():
    values = [5, 1, 4, 2, 3]
    assert nearest_rank(values, 50) == 3
    assert nearest_rank(values, 100) == 5
    assert nearest_rank(values, 1) == 1


def test_summarize_matches_the_statistics_module():
    values = [0.9, 1.3, 1.1, 1.0, 5.0, 1.2]
    s = summarize(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert s["n"] == 6 and s["median"] == statistics.median(values)
    assert (s["q1"], s["q3"]) == (q1, q3)
    assert "tail_p" not in s


def test_summarize_reports_the_tail_when_the_sample_allows():
    s = summarize(range(1, 201))
    assert s["tail_p"] == 95.0 and s["tail"] == 190


def test_describe_states_the_count_and_why_no_tail():
    line = describe([1.0, 2.0, 3.0], 1e3, " ms")
    assert "n=3" in line and "median=2000 ms" in line
    assert "p90 needs n >= 100" in line
