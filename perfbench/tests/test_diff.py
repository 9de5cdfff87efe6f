"""Verdicts of the result-set diff against a bound and a direction."""

import diff


def test_steady_regression_beyond_the_bound():
    base = [100.0, 101.0, 99.0, 100.5]
    new = [130.0, 131.0, 129.0, 130.5]
    result, worse = diff.verdict(base, new, 0.1, "lower")
    assert result == "REGRESSION"
    assert worse > 0.1


def test_noisy_regression_where_every_new_run_is_worse_still_fails():
    base = [60.0, 100.0, 140.0, 80.0, 120.0]
    new = [200.0, 260.0, 320.0, 230.0, 290.0]
    assert diff.spread(base) > 0.1 and diff.spread(new) > 0.1
    assert diff.verdict(base, new, 0.1, "lower")[0] == "REGRESSION"
    # The same sets read as throughput (higher is better) are a gain.
    assert diff.verdict(base, new, 0.1, "higher")[0] == "better"


def test_noisy_overlapping_sets_are_unresolved():
    base = [60.0, 100.0, 140.0, 80.0, 120.0]
    new = [70.0, 130.0, 190.0, 110.0, 150.0]
    assert diff.verdict(base, new, 0.1, "lower")[0] == "unresolved"


def test_noisy_sets_all_worse_within_the_bound_are_unresolved():
    base = [90.0, 100.0, 110.0, 95.0, 105.0]
    new = [111.0, 112.0, 113.0, 111.5, 112.5]
    assert diff.spread(base) > 0.14
    assert diff.verdict(base, new, 0.14, "lower")[0] == "unresolved"


def test_steady_small_change_is_ok_unless_every_run_is_better():
    base = [100.0, 101.0, 99.0]
    assert diff.verdict(base, [102.0, 103.0, 101.0], 0.1, "lower")[0] == "ok"
    assert diff.verdict(base, [99.5, 102.0, 98.0], 0.1, "lower")[0] == "ok"
    assert diff.verdict(base, [90.0, 91.0, 89.0], 0.1, "lower")[0] == "better"
