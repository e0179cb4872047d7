import statistics

import pytest

from perfbench.stats import median, quartiles, ratio, spread, summarize


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 2.0, 3.0]) == 2.5


def test_median_of_nothing_raises():
    with pytest.raises(ValueError):
        median([])


def test_quartiles_match_statistics_quantiles():
    values = [9.1, 8.7, 10.2, 9.9, 9.4, 8.8, 9.0, 10.5, 9.6, 9.2]
    assert quartiles(values) == statistics.quantiles(values, n=4)


def test_single_value_is_its_own_quartiles():
    assert quartiles([5.0]) == [5.0, 5.0, 5.0]
    assert spread([5.0]) == 0.0


def test_spread_is_iqr_over_median():
    values = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert spread(values) == pytest.approx((q3 - q1) / q2)


def test_ratio_with_zero_base_is_zero():
    # dk16's original circuit takes no backtracks at all.
    assert ratio(0, 0) == 0.0
    assert ratio(5.0, 0) == 0.0
    assert ratio(3, 4) == 0.75


def test_summarize_fields():
    summary = summarize([2.0, 4.0, 6.0])
    assert summary["n"] == 3
    assert summary["median"] == 4.0
    assert summary["q1"] <= summary["median"] <= summary["q3"]


def test_speed_factor_averages_the_samples_inside_a_step():
    from perfbench.workloads import REFERENCE_LOOP_S as R, Speed

    speed = Speed()
    speed.samples = [(0.5, R / 2, True), (1.5, R * 2, True), (2.5, R, True), (9.0, R / 2, True)]
    # Samples at 1.5 and 2.5 fall inside: mean of 1/2 and 1.
    assert speed.factor(1.0, 3.0) == pytest.approx(0.75)
    # A step shorter than the interval uses the nearest sample.
    assert speed.factor(8.7, 8.8) == pytest.approx(2.0)


def test_speed_factor_alone_skips_samples_taken_beside_workers():
    from perfbench.workloads import REFERENCE_LOOP_S as R, Speed

    speed = Speed()
    speed.samples = [(1.0, R / 2, True), (2.0, R * 2, False), (3.0, R, True), (9.0, R * 2, True)]
    assert speed.factor(0.5, 3.5) == pytest.approx((2.0 + 0.5 + 1.0) / 3)
    assert speed.factor(0.5, 3.5, alone=True) == pytest.approx((2.0 + 1.0) / 2)
    # No sample alone inside: the nearest one taken alone.
    assert speed.factor(2.3, 2.5, alone=True) == pytest.approx(1.0)
    # Other processes' samples count with this one's.
    assert speed.factor(2.3, 2.5, alone=True, extra=[(2.4, R * 2, True)]) == pytest.approx(0.5)


def test_running_children_sees_a_child_until_it_ends():
    import subprocess
    import sys

    from perfbench.workloads import running_children

    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(5)"])
    try:
        assert child.pid in running_children()
    finally:
        child.kill()
        child.wait()
    assert child.pid not in running_children()
