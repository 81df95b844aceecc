"""Order statistics and the comparison verdicts."""

import pytest

from common import percentile, rank, samples_beyond, spread, tail_ok
from compare import claim_holds, verdict

LOWER = {"name": "latency_p50_s", "better": "lower", "bound": 0.1}


def test_percentile_is_a_measured_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(samples, 50.0) == 3.0
    assert percentile(samples, 90.0) == 5.0
    assert percentile(samples, 100.0) == 5.0


def test_p90_needs_a_hundred_samples_for_ten_beyond_it():
    assert rank(100, 90.0) == 90
    assert samples_beyond(100, 90.0) == 10
    assert tail_ok(100, 90.0)
    assert samples_beyond(99, 90.0) == 9
    assert not tail_ok(99, 90.0)
    # p99 needs ten times as many.
    assert not tail_ok(999, 99.0)
    assert tail_ok(1000, 99.0)


@pytest.mark.parametrize("n, q", [(0, 50.0), (10, 0.0), (10, 101.0)])
def test_rank_rejects_bad_arguments(n, q):
    with pytest.raises(ValueError):
        rank(n, q)


def test_spread_is_interquartile_distance_over_median():
    assert spread([1.0, 1.0, 1.0]) == 0.0
    assert spread([0.9, 1.0, 1.1, 1.0, 1.0]) == pytest.approx(0.1)


def test_verdicts():
    parent = [1.00, 1.01, 0.99, 1.00, 1.02]
    assert verdict(parent, [1.01, 1.00, 1.00, 0.99, 1.01], LOWER)[0] == \
        "same"
    assert verdict(parent, [1.30, 1.31, 1.29, 1.30, 1.32], LOWER)[0] == \
        "worse"
    assert verdict(parent, [0.70, 0.71, 0.69, 0.70, 0.72], LOWER)[0] == \
        "better"
    noisy = [0.6, 1.4, 0.8, 1.2, 1.0]
    assert verdict(parent, noisy, LOWER)[0] == "unresolved"
    # A wide spread still resolves when every change run beats every
    # parent run.
    assert verdict(parent, [0.5, 0.9, 0.6, 0.8, 0.7], LOWER)[0] == "better"


def test_claim_rule():
    parent = [1.0 + 0.01 * k for k in range(10)]
    assert claim_holds(parent, [p - 0.1 for p in parent], LOWER)[0]
    # Nine of ten wins, but a margin inside the parent's spread.
    small = [p - 0.001 for p in parent[:9]] + [parent[9] + 1.0]
    assert not claim_holds(parent, small, LOWER)[0]
    # Too few pairs.
    assert not claim_holds(parent[:5], [0.5] * 5, LOWER)[0]
