"""The correctness checks turn wrong outputs into failed requests."""

import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from loadgen import Request
from one_round import Round, closed_samples, service_samples
from tracing import Tracer
from workloads import WORKLOADS


def error_rate(state):
    return state.failed / state.attempted


@pytest.fixture(scope="module")
def catalog_outcome():
    """One ``catalog-spot`` request on the SC low-pass."""
    workload = WORKLOADS["catalog-spot"]
    inp = workload.make_input(np.random.default_rng(7), 3)
    return workload, inp, workload.request(inp, Tracer())


def run_checked(workload, inp, outcome):
    state = Round(SimpleNamespace(seed=0, round=0))
    rec = Request(index=0, due=0.0, sent=0.0, done=0.01, output=outcome,
                  probe_s=1e-3)
    closed_samples(state, workload, [rec], [inp], checked={0})
    return state


def test_correct_psd_passes(catalog_outcome):
    state = run_checked(*catalog_outcome)
    assert state.checks == 1
    assert error_rate(state) == 0.0


@pytest.mark.parametrize("rel", [1e-6, -1e-7])
def test_perturbed_psd_fails(catalog_outcome, rel):
    workload, inp, outcome = catalog_outcome
    model, result = outcome.value
    wrong = dataclasses.replace(result, psd=result.psd * (1.0 + rel))
    state = run_checked(workload, inp,
                        dataclasses.replace(outcome, value=(model, wrong)))
    assert state.checks_failed == 1
    assert error_rate(state) > 0.0


def test_nan_point_fails(catalog_outcome):
    workload, inp, outcome = catalog_outcome
    state = run_checked(workload, inp,
                        dataclasses.replace(outcome, nan_points=1))
    assert error_rate(state) > 0.0


def test_store_hit_must_match_the_computed_result():
    def job(index, hit, digest):
        return Request(index=index, due=0.0, sent=0.0, done=0.0, output={
            "key": "k", "hit": hit, "points": 8, "nan_points": 0,
            "digest": digest})

    state = Round(SimpleNamespace(seed=0, round=0))
    service_samples(state, WORKLOADS["service-open-loop"],
                    [job(0, False, b"a"), job(1, True, b"a")], models={})
    assert state.checks == 1 and error_rate(state) == 0.0
    state = Round(SimpleNamespace(seed=0, round=0))
    service_samples(state, WORKLOADS["service-open-loop"],
                    [job(0, False, b"a"), job(1, True, b"b")], models={})
    assert state.checks_failed == 1 and error_rate(state) > 0.0
