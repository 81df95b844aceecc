"""One round of one workload, in a fresh interpreter.

``run.py`` starts this script once per round.  It times set-up from its
first line, runs the warm-up and the measured phase, checks the outputs
and prints one JSON object (the round's samples) as its last stdout line.
With ``--trace 1`` it then clears the context registry and replays the
measured requests with tracing on, adding the per-layer metrics.  With
``--setup-only`` it stops after timing set-up.
"""

import time

from calibration import probe_median

#: Probe time just before set-up, which starts at ``T0``.
PROBE_BEFORE_SETUP_S = probe_median()
T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import threading  # noqa: E402

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Seed streams (the round's inputs are a pure function of the seed).
MEASURED, WARMUP, CHECK, ARRIVALS, DRAWS, CATALOG = range(6)
#: Seconds a job may take before the open loop counts it as failed.
JOB_TIMEOUT_S = 60.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--round", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured-phase length")
    parser.add_argument("--min-requests", type=int, required=True)
    parser.add_argument("--warmup", type=float, required=True,
                        help="warm-up seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after timing set-up")
    return parser.parse_args(argv)


class Round:
    """Shared state of one round: seeds, counters, failure messages."""

    def __init__(self, args):
        import numpy as np

        self.args = args
        self._np = np
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.checks = 0
        self.checks_failed = 0

    def rng(self, *stream, per_round=True):
        head = [self.args.seed, self.args.round] if per_round else [
            self.args.seed]
        return self._np.random.default_rng(head + list(stream))

    def fail(self, message):
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def check(self, errors, label):
        self.checks += 1
        if errors:
            self.checks_failed += 1
            self.fail(f"{label}: " + "; ".join(errors))

    def check_indices(self, candidates):
        from workloads import CHECKS_PER_ROUND

        candidates = list(candidates)
        count = min(CHECKS_PER_ROUND, len(candidates))
        picked = self.rng(CHECK).choice(len(candidates), size=count,
                                        replace=False)
        return {candidates[int(k)] for k in picked}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def p50(values):
    from common import percentile

    return percentile(values, 50.0) if values else None


def mean_layers(rows, keys):
    return {key: sum(row[key] for row in rows) / len(rows) for key in keys}


def setup_times():
    """Set-up time so far, and the mean probe time around it."""
    setup_s = time.perf_counter() - T0
    return {"setup_s": setup_s,
            "setup_probe_s": (PROBE_BEFORE_SETUP_S + probe_median()) / 2.0}


# -- closed loop ---------------------------------------------------------------

def closed_round(state, workload):
    from calibration import probe
    from loadgen import closed_loop
    from tracing import Tracer

    args = state.args
    off = Tracer()
    warm_rng = state.rng(WARMUP)
    workload.request(workload.make_input(warm_rng, 0), off)
    setup = setup_times()
    if args.setup_only:
        return setup

    deadline = time.perf_counter() + args.warmup
    index = 1
    while time.perf_counter() < deadline:
        workload.request(workload.make_input(warm_rng, index), off)
        index += 1

    from repro.mft.context import registry_stats

    measured_rng = state.rng(MEASURED)
    checked = state.check_indices(range(args.min_requests))
    inputs = []

    def make_input(i):
        inputs.append(workload.make_input(measured_rng, i))
        return inputs[-1]

    def request(i, inp):
        outcome = workload.request(inp, off)
        if i not in checked:
            outcome.value = None  # keep only what the checks need
        return outcome

    before = registry_stats.snapshot()
    requests, start, end = closed_loop(
        make_input, request, seconds=args.seconds,
        min_requests=args.min_requests, probe=probe)
    after = registry_stats.snapshot()
    out = closed_samples(state, workload, requests, inputs, checked)
    out.update(setup, wall_s=end - start,
               registry_hit_ratio=hit_ratio(before, after))
    if args.trace:
        out.update(traced_closed(state, workload, inputs,
                                 p50(out["calibrated"])))
    return out


def hit_ratio(before, after):
    hits = after["hits"].get("context", 0) - before["hits"].get("context", 0)
    misses = (after["misses"].get("context", 0)
              - before["misses"].get("context", 0))
    return hits / (hits + misses) if hits + misses else 0.0


def closed_samples(state, workload, requests, inputs, checked):
    from calibration import calibrated

    points = 0
    for rec in requests:
        state.attempted += 1
        if rec.error is not None:
            state.fail(f"request {rec.index}: {rec.error}")
            continue
        points += rec.output.points
        if rec.output.nan_points:
            state.fail(f"request {rec.index}: {rec.output.nan_points} "
                       "NaN points")
        elif rec.index in checked:
            state.check(workload.check(inputs[rec.index], rec.output,
                                       state.rng(CHECK, rec.index)),
                        f"request {rec.index}")
    return {"latencies": [r.done - r.sent for r in requests],
            "calibrated": [calibrated(r.done - r.sent, r.probe_s)
                           for r in requests],
            "lags": [r.sent - r.due for r in requests],
            "points": points, "requests": len(requests)}


def traced_closed(state, workload, inputs, untraced_p50):
    """Replay ``inputs`` traced; ``untraced_p50`` is the calibrated p50 of
    the untraced phase, which ``trace.overhead`` compares against."""
    from calibration import calibrated, probe
    from common import PER_LAYER_METRICS, percentile
    from repro.mft.context import clear_sweep_contexts
    from tracing import layer_sums, new_tracer, union_length

    clear_sweep_contexts()
    rows, latencies, lags, covered, walls = [], [], [], 0.0, 0.0
    ratios = []
    # As in the untraced closed loop, a probe runs before the first
    # request and after each one, and counts in the generator's lag.
    previous = time.perf_counter()
    before = probe()
    for index, inp in enumerate(inputs):
        tracer = new_tracer()
        start = time.perf_counter()
        lags.append(start - previous)
        state.attempted += 1
        try:
            with tracer.span("request") as root:
                outcome = workload.request(inp, tracer)
        except Exception as exc:  # counted like an untraced failure
            state.fail(f"traced request {index}: {type(exc).__name__}: "
                       f"{exc}")
            previous = time.perf_counter()
            before = probe()
            continue
        previous = time.perf_counter()
        after = probe()
        if outcome.nan_points:
            state.fail(f"traced request {index}: NaN points")
        rec = tracer.recorder
        spans = [s for s in rec.spans if s.span_id != root.span_id]
        covered += union_length([(s.start, s.end) for s in spans],
                                root.record.start, root.record.end)
        walls += root.duration
        latencies.append(calibrated(root.duration, (before + after) / 2.0))
        before = after
        row = layer_sums(rec, outcome.n_states)
        if workload.name == "corners-attributed":
            for key, name in (("mft.corners.warm_up_s", "mft.warmup"),
                              ("mft.corners.sweep_s", "mft.sweep")):
                row[key] = sum(s.duration for s in spans if s.name == name)
            # Measured after the request, outside its window and lag.
            ratios.append(workload.attribution_cost_ratio(outcome))
            previous = time.perf_counter()
            before = probe()
        rows.append(row)
    if not rows:
        return {"per_layer": {}, "extras": {}}
    per_layer = mean_layers(rows, [k for k in PER_LAYER_METRICS
                                   if k in rows[0]])
    per_layer.update({
        "loadgen.lag_p99_s": percentile(lags, 99.0),
        "trace.coverage": covered / walls,
        "trace.overhead": percentile(latencies, 50.0) / untraced_p50 - 1.0,
    })
    extras = {}
    if workload.name in ("lowpass-dense", "corners-attributed"):
        extras["metrics.band_s"] = mean_layers(rows, ["metrics.band_s"])[
            "metrics.band_s"]
    if ratios:
        extras.update(mean_layers(rows, ["mft.corners.warm_up_s",
                                         "mft.corners.sweep_s"]))
        extras["metrics.attribution_cost_ratio"] = sum(ratios) / len(ratios)
    return {"per_layer": per_layer, "extras": extras,
            "traced_requests": len(rows)}


# -- open loop (service) -------------------------------------------------------

def service_round(state, workload, work):
    from repro.mft.context import registry_stats
    from repro.service import JobQueue

    args = state.args
    catalog = workload.catalog(state.rng(CATALOG, per_round=False))
    warmup = service_warmup(state, workload)
    offsets = workload.arrivals(state.rng(ARRIVALS), args.seconds)
    draws = [int(d) for d in workload.draws(state.rng(DRAWS), len(offsets))]
    warmed = {entry for _offsets, phase in warmup for entry in phase}
    first_draws = {}
    for index, entry in enumerate(draws):
        if entry not in warmed:
            first_draws.setdefault(entry, index)
    # An entry's first draw misses the store unless the warm-up drew it
    # too: check those misses against the reference solver.
    checked = state.check_indices(sorted(first_draws.values()))

    with JobQueue(store=work / "results.db") as queue:
        # Set-up ends with the first request, the warm-up's first job.
        warm = drive_service(queue, workload, catalog, [0.0],
                             warmup[0][1][:1])[0]
        setup = setup_times()
        if not args.setup_only:
            for phase in warmup:
                warm += drive_service(queue, workload, catalog, *phase)[0]
            before = registry_stats.snapshot()
            requests, start, models, _states = drive_service(
                queue, workload, catalog, offsets, draws, keep=checked)
            after = registry_stats.snapshot()
    queue.store.close()
    if args.setup_only:
        return setup
    out = service_samples(state, workload, requests, models,
                          computed=computed_digests(warm))
    out.update(setup,
               wall_s=max(r.done for r in requests) - start,
               registry_hit_ratio=hit_ratio(before, after))
    if args.trace:
        out.update(traced_service(state, workload, catalog, warmup,
                                  (offsets, draws), work,
                                  p50(out["latencies"])))
    return out


def service_warmup(state, workload):
    """The warm-up's open-loop phases, as ``(offsets, draws)`` pairs: the
    catalog's most popular jobs at once, then seeded traffic."""
    rng = state.rng(WARMUP)
    offsets = workload.arrivals(rng, state.args.warmup)
    return [([0.0] * workload.prefill, list(range(workload.prefill))),
            (offsets, [int(d) for d in workload.draws(rng, len(offsets))])]


def drive_service(queue, workload, catalog, offsets, draws, keep=(),
                  tracers=None):
    """One open-loop phase of ``catalog[draws[i]]`` jobs at ``offsets``.

    The job specs are built before the phase, as the closed loop builds
    its inputs, so the generator thread only submits.  Keeps the models
    of the ``keep`` requests (for their checks).  With a ``tracers``
    dict, every submission records into its own tracer and computed
    results are kept for the codec measurements.  Returns ``(requests,
    start, models, n_states)``.
    """
    from loadgen import open_loop
    from tracing import Tracer, new_tracer
    from workloads import SEGMENTS, job_digest, n_states_of

    off = Tracer()
    specs, models, n_states = [], {}, {}
    for index, entry in enumerate(draws):
        tracer = off
        if tracers is not None:
            tracer = tracers[index] = new_tracer()
        model, spec = workload.spec(catalog[entry], tracer)
        specs.append(spec)
        n_states[index] = n_states_of(model)
        if index in keep:
            models[index] = model

    def submit(index):
        if tracers is None:
            return queue.submit(specs[index])
        tracer = tracers[index]
        # Registered now, not when the spec was built: the context
        # registry keeps only the most recent few dozen systems.
        tracer.register(specs[index].model_or_system.system, SEGMENTS)
        with tracer.span("service.submit"):
            return queue.submit(specs[index], recorder=tracer.recorder)

    def collect(index, job):
        result = job.result
        kept = index in keep or (tracers is not None
                                 and not job.served_from_store)
        return {"key": job.key, "hit": bool(job.served_from_store),
                "points": int(result.psd.size),
                "nan_points": result.n_failed,
                "runtime_s": float(job.runtime_seconds),
                "digest": job_digest(result),
                "result": result if kept else None}

    requests, start = open_loop(offsets, submit, timeout=JOB_TIMEOUT_S,
                                collect=collect)
    return requests, start, models, n_states


def computed_digests(requests, computed=None):
    """``key -> digest`` of the jobs the queue computed, first one kept."""
    computed = dict(computed or {})
    for rec in requests:
        if rec.error is None and not rec.output["hit"]:
            computed.setdefault(rec.output["key"], rec.output["digest"])
    return computed


def service_samples(state, workload, requests, models, computed=None):
    """Count and check one open-loop phase; ``computed`` holds the digests
    of jobs computed before it (a store hit may be served from those)."""
    computed = computed_digests(requests, computed)
    points = hits = 0
    for rec in requests:
        state.attempted += 1
        if rec.error is not None:
            state.fail(f"job {rec.index}: {rec.error}")
            continue
        out = rec.output
        points += out["points"]
        if out["nan_points"]:
            state.fail(f"job {rec.index}: {out['nan_points']} NaN points")
        elif out["hit"]:
            hits += 1
            state.check([] if computed.get(out["key"]) == out["digest"]
                        else ["store hit differs from the computed result"],
                        f"job {rec.index}")
        elif rec.index in models:
            state.check(workload.check_computed(
                models[rec.index], out["result"],
                state.rng(CHECK, rec.index)), f"job {rec.index}")
    return {"latencies": [r.done - r.due for r in requests],
            "lags": [r.sent - r.due for r in requests],
            "points": points, "requests": len(requests),
            "store_hits": hits}


def traced_service(state, workload, catalog, warmup, measured, work,
                   untraced_p50):
    """Replay the warm-up untraced, then the measured arrivals traced,
    against a fresh, timed store.  ``warmup`` is a list of ``(offsets,
    draws)`` phases; ``measured`` is one."""
    from common import PER_LAYER_METRICS, percentile
    from repro.mft.context import clear_sweep_contexts
    from repro.service import JobQueue
    from tracing import TimedStore, layer_sums, union_length
    from workloads import codec_costs

    clear_sweep_contexts()
    tracers = {}
    store = TimedStore(work / "traced.db")
    with JobQueue(store=store) as queue:
        for phase in warmup:
            drive_service(queue, workload, catalog, *phase)
        store.events.clear()
        requests, _start, _models, n_states = drive_service(
            queue, workload, catalog, *measured, tracers=tracers)
    store.close()

    # The dispatcher gets jobs in FIFO order: its k-th ``get`` is the
    # k-th queued request's, and a ``put`` belongs to the job before it.
    main = threading.get_ident()
    queued = [r.index for r in requests if r.queued]
    dequeue = {}
    for event in store.events:
        if event[0] == main:
            continue
        if event[1] == "get":
            current = queued[len(dequeue)]
            dequeue[current] = [event, None]
        else:
            dequeue[current][1] = event
    submit_gets = [e for e in store.events if e[0] == main
                   and e[1] == "get"]

    rows, codec = [], []
    covered = walls = 0.0
    backlog = 0
    for rec in requests:
        state.attempted += 1
        if rec.error is not None:
            state.fail(f"traced job {rec.index}: {rec.error}")
            continue
        out = rec.output
        spans = tracers[rec.index].recorder.spans
        row = layer_sums(tracers[rec.index].recorder, n_states[rec.index])
        gets = [e for e in submit_gets
                if rec.sent <= e[2] and e[3] <= rec.submitted]
        # Intervals measured outside the recorder: the generator's lag
        # before sending and, for a queued job, its wait for the
        # dispatcher and the collector's delay in seeing it finish.
        intervals = [(rec.due, rec.sent)] + [e[2:4] for e in gets]
        intervals += [(s.start, s.end) for s in spans if s.end is not None]
        put_s = 0.0
        if rec.index in dequeue:
            got, put = dequeue[rec.index]
            gets.append(got)
            finished = got[3]
            intervals += [(rec.submitted, got[2]), got[2:4]]
            if put is not None:
                intervals.append(put[2:4])
                put_s = put[3] - put[2]
                finished = put[3]
            intervals.append((finished, rec.done))
            backlog = max(backlog, 1 + sum(
                1 for j, (g, _p) in dequeue.items()
                if j < rec.index and g[2] > rec.submitted))
        covered += union_length(intervals, rec.due, rec.done)
        walls += rec.done - rec.due
        row.update({
            "service.submit_s": sum(s.duration for s in spans
                                    if s.name == "service.submit"),
            "service.run_s": out["runtime_s"],
            "service.queue_wait_s": rec.done - rec.due - out["runtime_s"],
            "service.store_get_s": sum(e[3] - e[2] for e in gets),
            "service.store_put_s": put_s,
        })
        rows.append(row)
        if out["result"] is not None:
            codec.append(codec_costs(out["result"]))
    latencies = [r.done - r.due for r in requests]
    per_layer = mean_layers(rows, [k for k in PER_LAYER_METRICS
                                   if k in rows[0]])
    per_layer.update({
        "loadgen.lag_p99_s": percentile([r.sent - r.due for r in requests],
                                        99.0),
        "trace.coverage": covered / walls,
        "trace.overhead": percentile(latencies, 50.0) / untraced_p50 - 1.0,
    })
    extras = mean_layers(rows, ["service.submit_s", "service.run_s",
                                "service.queue_wait_s",
                                "service.store_get_s",
                                "service.store_put_s"])
    extras["service.store_hit_ratio"] = sum(
        1 for r in requests if r.error is None and r.output["hit"]
    ) / len(requests)
    extras["service.backlog_max"] = backlog
    if codec:
        for k, name in enumerate(("results.encode_s", "results.decode_s",
                                  "results.payload_bytes")):
            extras[name] = sum(c[k] for c in codec) / len(codec)
    return {"per_layer": per_layer, "extras": extras,
            "traced_requests": len(rows)}


def main(argv=None):
    args = parse_args(argv)
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != src / "repro":
        raise SystemExit(f"imported repro from {repro.__file__}, not from "
                         f"{src / 'repro'}")
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    state = Round(args)
    if args.workload == "service-open-loop":
        (ROOT / ".bench_work").mkdir(exist_ok=True)
        work = pathlib.Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
        try:
            out = service_round(state, workload, work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    else:
        out = closed_round(state, workload)
    out.update(workload=args.workload, round=args.round,
               attempted=state.attempted, failed=state.failed,
               errors=state.errors, checks=state.checks,
               checks_failed=state.checks_failed,
               peak_rss_mb=peak_rss_mb(),
               round_wall_s=time.perf_counter() - T0)
    print(json.dumps(out))


if __name__ == "__main__":
    main()
