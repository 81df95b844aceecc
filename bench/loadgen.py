"""Load generators: one closed-loop client, and a seeded open loop.

Standard library only, so the tests can drive both with fakes.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass
from typing import Any


@dataclass
class Request:
    """Timestamps and result of one request.

    ``due`` is when the request should have been sent: the arrival time
    in an open loop, the previous reply in a closed loop.
    """

    index: int
    due: float
    sent: float
    submitted: float | None = None
    done: float | None = None
    #: Open loop: the handle was still pending when ``submit`` returned.
    queued: bool = False
    output: Any = None
    error: str | None = None
    #: Closed loop with a probe: the mean of the probes run just before
    #: and just after the request.
    probe_s: float | None = None


def describe(exc):
    return f"{type(exc).__name__}: {exc}"


def closed_loop(make_input, request, *, seconds, min_requests,
                clock=time.perf_counter, probe=None):
    """One client calling ``request`` back to back.

    Runs until ``seconds`` have passed *and* ``min_requests`` completed.
    ``make_input(i)`` builds request ``i``'s input before the call, so
    input generation is never timed.  ``probe()``, when given, runs
    before the first request and after every request, outside their
    timed calls; it returns a duration, and each request's ``probe_s`` is
    the mean of the two around it.  Returns ``(requests, start, end)``.
    """
    requests = []
    start = clock()
    previous = start
    before = probe() if probe is not None else None
    index = 0
    while index < min_requests or previous - start < seconds:
        inp = make_input(index)
        rec = Request(index=index, due=previous, sent=clock())
        try:
            rec.output = request(index, inp)
        except Exception as exc:  # a failed request is counted, not fatal
            rec.error = describe(exc)
        rec.done = previous = clock()
        if probe is not None:
            after = probe()
            rec.probe_s = (before + after) / 2.0
            before = after
        requests.append(rec)
        index += 1
    return requests, start, previous


def open_loop(offsets, submit, *, timeout, collect=None,
              clock=time.perf_counter, sleep=time.sleep):
    """Submit request ``i`` at ``start + offsets[i]``, whatever the backlog.

    ``submit(i)`` returns a handle with ``done()`` and ``wait(timeout)``.
    A handle already done when ``submit`` returns completes then; the
    others are waited on, in submission order, by one collector thread.
    ``collect(i, result)`` maps each result to what is kept.  Returns
    ``(requests, start)``; latency is ``done - due``.
    """
    collect = collect or (lambda index, result: result)
    pending = queue.Queue()

    def finish(rec, handle):
        try:
            rec.output = collect(rec.index, handle.wait(timeout))
        except Exception as exc:  # job failures are counted, not fatal
            rec.error = describe(exc)
        rec.done = clock()

    def collector():
        while True:
            item = pending.get()
            if item is None:
                return
            finish(*item)

    thread = threading.Thread(target=collector, name="bench-collector",
                              daemon=True)
    thread.start()
    requests = []
    start = clock()
    try:
        for index, offset in enumerate(offsets):
            due = start + float(offset)
            delay = due - clock()
            if delay > 0.0:
                sleep(delay)
            rec = Request(index=index, due=due, sent=clock())
            requests.append(rec)
            try:
                handle = submit(index)
            except Exception as exc:  # a refused submission is a failure
                rec.error = describe(exc)
                rec.submitted = rec.done = clock()
                continue
            rec.submitted = clock()
            if handle.done():
                finish(rec, handle)
                rec.done = rec.submitted
            else:
                rec.queued = True
                pending.put((rec, handle))
    finally:
        pending.put(None)
        thread.join()
    return requests, start
