"""The load generators against fake queues and clocks, and the probe
calibration of closed-loop latencies."""

import queue
import threading
import time

import pytest

from loadgen import closed_loop, open_loop

STALL_S = 0.3


class FakeJob:
    def __init__(self):
        self._done = threading.Event()
        self.value = None

    def done(self):
        return self._done.is_set()

    def wait(self, timeout):
        if not self._done.wait(timeout):
            raise TimeoutError("fake job timed out")
        return self.value


class StallingQueue:
    """One FIFO worker; job 0 takes ``STALL_S``, the others no time."""

    def __init__(self):
        self.jobs = queue.Queue()
        self.worker = threading.Thread(target=self._run, daemon=True)
        self.worker.start()

    def _run(self):
        while True:
            item = self.jobs.get()
            if item is None:
                return
            index, job = item
            if index == 0:
                time.sleep(STALL_S)
            job.value = index
            job._done.set()

    def submit(self, index):
        job = FakeJob()
        self.jobs.put((index, job))
        return job

    def close(self):
        self.jobs.put(None)
        self.worker.join(timeout=5.0)
        assert not self.worker.is_alive()


def test_open_loop_latency_counts_the_wait_behind_a_stall():
    offsets = [0.0, 0.05, 0.10, 0.15, 0.5]
    fake = StallingQueue()
    try:
        requests, _start = open_loop(offsets, fake.submit, timeout=5.0)
    finally:
        fake.close()
    assert [r.output for r in requests] == list(range(len(offsets)))
    assert all(r.error is None for r in requests)
    # Requests due during the stall finish only after it, so their
    # latency from the due time covers the rest of the stall even though
    # their own work takes no time.
    for rec, offset in zip(requests[1:4], offsets[1:4]):
        assert rec.done - rec.due >= STALL_S - offset - 0.02
        assert rec.sent - rec.due < 0.05
    # The request due after the stall is not delayed.
    assert requests[4].done - requests[4].due < 0.1


def test_open_loop_counts_a_late_generator_from_the_due_time():
    """A submit that blocks delays the next send; latency still starts
    when that request was due."""
    class Done:
        def done(self):
            return True

        def wait(self, timeout):
            return "ok"

    def submit(index):
        if index == 0:
            time.sleep(STALL_S)
        return Done()

    requests, _start = open_loop([0.0, 0.05], submit, timeout=1.0)
    late = requests[1]
    assert late.sent - late.due >= STALL_S - 0.05 - 0.02
    assert late.done - late.due >= late.sent - late.due


def test_open_loop_counts_failures():
    def submit(index):
        raise RuntimeError("refused")

    requests, _start = open_loop([0.0, 0.0], submit, timeout=1.0)
    assert [r.error for r in requests] == ["RuntimeError: refused"] * 2
    assert all(r.done is not None for r in requests)


def test_closed_loop_runs_until_both_limits_and_times_only_the_call():
    ticks = iter(range(1000))

    def clock():
        return float(next(ticks))

    made = []
    requests, start, end = closed_loop(
        made.append, lambda i, inp: i, seconds=0.0, min_requests=3,
        clock=clock)
    assert [r.output for r in requests] == [0, 1, 2]
    assert made == [0, 1, 2]
    assert all(r.done - r.sent == 1.0 for r in requests)
    assert end == requests[-1].done


def test_closed_loop_brackets_each_request_with_probes():
    """Each request's probe time is the mean of the probes just before
    and just after it, and the probes are not timed with the request."""
    ticks = iter(range(1000))
    probes = iter([1.0, 3.0, 5.0, 9.0])

    def clock():
        return float(next(ticks))

    requests, _start, _end = closed_loop(
        lambda i: i, lambda i, inp: i, seconds=0.0, min_requests=3,
        clock=clock, probe=lambda: next(probes))
    assert [r.probe_s for r in requests] == [2.0, 4.0, 7.0]
    assert all(r.done - r.sent == 1.0 for r in requests)


def test_calibration_rescales_to_the_reference_probe_time():
    from calibration import REFERENCE_S, calibrated

    # A request measured while the probe ran twice as slow as on the
    # quiet reference machine reads half as long, calibrated.
    assert calibrated(0.2, 2.0 * REFERENCE_S) == pytest.approx(0.1)
    assert calibrated(0.2, REFERENCE_S) == pytest.approx(0.2)
