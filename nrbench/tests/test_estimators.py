"""Estimator and percentile arithmetic."""

import pytest

from nrbench import estimators, metrics


def test_percentile_is_nearest_rank():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert estimators.percentile(samples, 0.5) == 3.0
    assert estimators.percentile(samples, 0.95) == 5.0
    assert estimators.percentile(samples, 0.2) == 1.0
    assert estimators.percentile(list(range(1, 101)), 0.95) == 95
    with pytest.raises(ValueError):
        estimators.percentile([], 0.5)
    with pytest.raises(ValueError):
        estimators.percentile(samples, 0.0)


def test_p95_of_300_samples_has_15_beyond_it():
    samples = list(range(300))
    p95 = estimators.percentile(samples, 0.95)
    assert sum(1 for sample in samples if sample > p95) == 15


def test_drift_ratio_compares_last_quarter_with_first():
    assert estimators.drift_ratio([1.0] * 4 + [9.0] * 8 + [2.0] * 4) == 2.0
    assert estimators.drift_ratio([3.0]) == 1.0


def test_best_round_follows_the_metric_direction():
    assert estimators.best([3.0, 2.0, 4.0], "lower") == 2.0
    assert estimators.best([3.0, 2.0, 4.0], "higher") == 4.0
    assert estimators.round_spread([2.0, 2.2, 3.0], "lower") == pytest.approx(0.1)
    assert estimators.round_spread([100.0, 90.0, 80.0], "higher") == pytest.approx(0.1)


def test_quartile_spread_is_iqr_over_median():
    values = [float(v) for v in range(1, 12)]  # quartiles 3, 6, 9
    assert estimators.quartile_spread(values) == pytest.approx(1.0)
    assert estimators.quartile_spread([5.0]) == 0.0


def make_round(p50, setup, rss, messages=14.0, exact=True):
    return {
        "ops": 4,
        "setup_s": setup,
        "window_s": 4 * p50 / 1e3,
        "cpu_s": 4 * p50 / 1e3,
        "peak_rss_mb": rss,
        "samples_ms": [p50 - 1, p50, p50, p50 + 1],
        "messages_per_op": messages,
        "bytes_per_op": 100.0,
        "evidence_bytes_per_op": 50.0,
        "exact_counts": exact,
    }


def test_times_publish_the_best_round_and_the_rest_the_median():
    rounds = [make_round(8.0, 1.0, 100.0), make_round(6.0, 3.0, 300.0), make_round(7.0, 2.0, 200.0)]
    values = metrics.end_to_end(rounds)
    assert values["op_p50_ms"] == 6.0
    assert values["op_p95_ms"] == 7.0
    assert values["ops_per_s"] == pytest.approx(1000 / 6.0)
    assert values["cpu_ms_per_op"] == pytest.approx(6.0)
    assert values["setup_s"] == 2.0
    assert values["peak_rss_mb"] == 200.0
    assert values["messages_per_op"] == 14.0


def test_counts_must_repeat_exactly_on_simulated_workloads():
    same = [make_round(6.0, 1.0, 1.0), make_round(7.0, 1.0, 1.0)]
    assert metrics.count_mismatches(same) == []
    differing = [make_round(6.0, 1.0, 1.0), make_round(6.0, 1.0, 1.0, messages=15.0)]
    assert len(metrics.count_mismatches(differing)) == 1
    wall_clock = [make_round(6.0, 1.0, 1.0, exact=False), make_round(6.0, 1.0, 1.0, 15.0, False)]
    assert metrics.count_mismatches(wall_clock) == []
