"""Compare benchmark result files of a parent and a changed commit.

    python3 bench/compare.py --parent P1.json ... --change C1.json ...
                             [--claim METRIC@WORKLOAD ...]

Each file is a ``run.py -o`` result file, or a file with a ``runs`` list
of them (as ``results/baseline-*.json``).  The i-th parent run and the
i-th change run form a pair; run them alternately, parent first in odd
pairs and change first in even ones, with the same ``--seconds``.

For every workload and end-to-end metric of BENCHMARK.json, prints both
sides' quartiles and a verdict:

* ``unresolved``: either side's inter-quartile spread exceeds the
  metric's bound, unless every change run reads better than every parent
  run (then ``better``);
* ``worse`` / ``better``: the change's median is worse / better than the
  parent's by more than the bound;
* ``same`` otherwise.

``--claim`` applies the gain rule: the change wins at least nine in ten
pairs (ties count for neither) and the medians differ, in the better
direction, by more than the parent's inter-quartile distance.  Exits 1
when any metric is worse, the change failed more requests than the
parent, or a claim is not met.
"""

from __future__ import annotations

import argparse
import json
import sys

from common import load_benchmark, quartiles, spread

MIN_CLAIM_PAIRS = 10
CLAIM_WIN_SHARE = 0.9


def load_runs(paths):
    """Untraced result documents, in the order given."""
    runs = []
    for path in paths:
        with open(path) as handle:
            doc = json.load(handle)
        for run in doc.get("runs", [doc]):
            if run.get("provenance", {}).get("trace"):
                raise SystemExit(f"{path}: a traced run has no end-to-end "
                                 "metrics")
            runs.append(run)
    return runs


def values(runs, workload, metric):
    """The metric's value in each run (``None`` where a run lacks it)."""
    out = []
    for run in runs:
        summary = run["workloads"].get(workload, {}).get("untraced", {})
        entry = summary.get("metrics", {}).get(metric)
        out.append(None if entry is None else entry["value"])
    return out


def failures(runs, workload):
    return sum(run["workloads"].get(workload, {}).get("untraced", {})
               .get("failed", 0) for run in runs)


def gain(parent, change, better):
    """Relative change of the median, positive when the change is better."""
    delta = (change - parent) / abs(parent)
    return delta if better == "higher" else -delta


def is_better(a, b, better):
    """Whether value ``a`` reads better than value ``b``."""
    return a > b if better == "higher" else a < b


def verdict(parent, change, metric):
    """``(verdict, parent quartiles, change quartiles)`` of one metric."""
    qp, qc = quartiles(parent), quartiles(change)
    bound = metric["bound"]
    if max(spread(parent), spread(change)) > bound:
        if all(is_better(c, p, metric["better"])
               for c in change for p in parent):
            return "better", qp, qc
        return "unresolved", qp, qc
    g = gain(qp[1], qc[1], metric["better"])
    if g < -bound:
        return "worse", qp, qc
    if g > bound:
        return "better", qp, qc
    return "same", qp, qc


def claim_holds(parent, change, metric):
    """The nine-in-ten rule for a claimed gain; returns ``(ok, reason)``."""
    pairs = list(zip(parent, change))
    if len(pairs) < MIN_CLAIM_PAIRS:
        return False, f"{len(pairs)} pairs, need {MIN_CLAIM_PAIRS}"
    wins = sum(1 for p, c in pairs if is_better(c, p, metric["better"]))
    qp, qc = quartiles(parent), quartiles(change)
    margin = (qc[1] - qp[1]) * (1 if metric["better"] == "higher" else -1)
    iqr = qp[2] - qp[0]
    reason = (f"change wins {wins}/{len(pairs)} pairs; median moved "
              f"{margin:+.4g} in the better direction against a parent "
              f"inter-quartile distance of {iqr:.4g}")
    return wins >= CLAIM_WIN_SHARE * len(pairs) and margin > iqr, reason


def parse_args(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--parent", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    parser.add_argument("--claim", action="append", default=[],
                        metavar="METRIC@WORKLOAD")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = load_benchmark()
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    parent, change = load_runs(args.parent), load_runs(args.change)
    if len(parent) != len(change):
        raise SystemExit(f"{len(parent)} parent runs but {len(change)} "
                         "change runs: give one of each per pair")
    if len(parent) < MIN_CLAIM_PAIRS:
        print(f"note: {len(parent)} pairs; a gain needs "
              f"{MIN_CLAIM_PAIRS} or more")
    bad = False
    print(f"{'workload':<20} {'metric':<26} {'parent q1/median/q3':<32} "
          f"{'change q1/median/q3':<32} verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        for name, metric in metrics.items():
            p = values(parent, workload, name)
            c = values(change, workload, name)
            if None in p or None in c:
                print(f"{workload:<20} {name:<26} missing from some runs")
                bad = True
                continue
            result, qp, qc = verdict(p, c, metric)
            bad |= result == "worse"
            print(f"{workload:<20} {name:<26} "
                  f"{'/'.join(f'{q:.4g}' for q in qp):<32} "
                  f"{'/'.join(f'{q:.4g}' for q in qc):<32} {result}")
        failed = failures(parent, workload), failures(change, workload)
        if failed[1] > failed[0]:
            print(f"{workload:<20} failed requests: parent {failed[0]}, "
                  f"change {failed[1]}")
            bad = True
    for claim in args.claim:
        name, _, workload = claim.partition("@")
        if name not in metrics:
            raise SystemExit(f"--claim {claim}: no end-to-end metric {name}")
        p, c = values(parent, workload, name), values(change, workload, name)
        if None in p or None in c:
            ok, reason = False, f"{workload} lacks {name} in some runs"
        elif failures(change, workload) > failures(parent, workload):
            ok, reason = False, "the change failed more requests"
        else:
            ok, reason = claim_holds(p, c, metrics[name])
        print(f"claim {claim}: {'met' if ok else 'NOT met'} ({reason})")
        bad |= not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
