#!/usr/bin/env python3
"""Compare two sets of end-to-end benchmark runs.

    python3 bench/e2e/compare.py BASE_DIR NEW_DIR [--layers]

Each directory holds the <workload>.jsonl records that `run.py --out DIR`
appends, at least five runs per workload. For every (workload, metric)
pair of BENCHMARK.json's end_to_end list this prints both sides' median
and quartiles and a verdict against the metric's bound and direction:

  worse       the new median is worse than the base median by more than
              the bound;
  better      the new median is better by more than the bound, or every
              new run beats every base run by more than the base spread;
  unresolved  the base runs spread (interquartile range over median) by
              more than the bound and the two sets do not separate;
  unchanged   otherwise.

--layers also lists the per-layer metrics' medians (they have no bound).
Within each directory, any virtual-time metric or metrics_fingerprint
that differs between runs of the same workload and seed is flagged: the
simulator is deterministic, so that is a bug, not noise.

Exits 1 when a verdict is worse or a determinism flag is raised.
"""

import argparse
import glob
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
MIN_RUNS = 5


def load_runs(directory):
    """{workload: [record, ...]} from every .jsonl file in `directory`."""
    runs = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.jsonl"))):
        with open(path) as f:
            for line in f:
                if line.strip():
                    rec = json.loads(line)
                    runs.setdefault(rec["workload"], []).append(rec)
    return runs


def quartiles(values):
    return statistics.quantiles(values, n=4)


def determinism_flags(label, runs):
    flags = []
    for workload, recs in sorted(runs.items()):
        by_seed = {}
        for rec in recs:
            by_seed.setdefault(rec["seed"], []).append(rec)
        for seed, same in sorted(by_seed.items()):
            first = same[0]
            for rec in same[1:]:
                if rec["metrics_fingerprint"] != first["metrics_fingerprint"]:
                    flags.append("%s %s seed %d: metrics_fingerprint %s vs %s"
                                 % (label, workload, seed,
                                    first["metrics_fingerprint"],
                                    rec["metrics_fingerprint"]))
                for name, m in first["metrics"].items():
                    if m["clock"] != "virtual" or name not in rec["metrics"]:
                        continue
                    other = rec["metrics"][name]["value"]
                    if other != m["value"]:
                        flags.append("%s %s seed %d: virtual metric %s %r vs %r"
                                     % (label, workload, seed, name,
                                        m["value"], other))
    return flags


def verdict(base, new, bound, lower_is_better):
    b_q1, b_med, b_q3 = quartiles(base)
    _, n_med, _ = quartiles(new)
    scale = abs(b_med) if b_med != 0 else 1.0
    spread = (b_q3 - b_q1) / scale
    sign = 1.0 if lower_is_better else -1.0
    change = sign * (n_med - b_med) / scale  # > 0 means worse
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if spread > bound and not (all_better or all_worse):
        return "unresolved", change
    if change > bound:
        return "worse", change
    if -change > bound or (all_better and -change > spread):
        return "better", change
    return "unchanged", change


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("base")
    ap.add_argument("new")
    ap.add_argument("--layers", action="store_true",
                    help="also list per-layer metric medians")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    base_runs, new_runs = load_runs(args.base), load_runs(args.new)
    status = 0
    for label, runs in (("base", base_runs), ("new", new_runs)):
        for workload in (w["name"] for w in bench["workloads"]):
            n = len(runs.get(workload, []))
            if n < MIN_RUNS:
                print("%s: %s has %d runs, need %d" %
                      (label, workload, n, MIN_RUNS), file=sys.stderr)
                return 2

    header = "%-22s %-26s %-10s %12s %12s %12s %12s %8s  %s" % (
        "workload", "metric", "unit", "base q1", "base median", "new median",
        "new q3", "change", "verdict")
    print(header)
    for w in bench["workloads"]:
        workload = w["name"]
        for m in bench["end_to_end"]:
            base = [r["metrics"][m["name"]]["value"] for r in base_runs[workload]]
            new = [r["metrics"][m["name"]]["value"] for r in new_runs[workload]]
            v, change = verdict(base, new, m["bound"], m["better"] == "lower")
            if v == "worse":
                status = 1
            b_q1, b_med, _ = quartiles(base)
            _, n_med, n_q3 = quartiles(new)
            print("%-22s %-26s %-10s %12.6g %12.6g %12.6g %12.6g %+7.2f%%  %s"
                  % (workload, m["name"], m["unit"], b_q1, b_med, n_med, n_q3,
                     100 * change, v))
        if args.layers:
            for m in bench["per_layer"]:
                base = [r["metrics"][m["name"]]["value"]
                        for r in base_runs[workload] if m["name"] in r["metrics"]]
                new = [r["metrics"][m["name"]]["value"]
                       for r in new_runs[workload] if m["name"] in r["metrics"]]
                if base and new:
                    print("%-22s %-26s %-10s %12s %12.6g %12.6g" %
                          (workload, m["name"], m["unit"], "",
                           statistics.median(base), statistics.median(new)))

    flags = determinism_flags("base", base_runs) + determinism_flags("new", new_runs)
    for flag in flags:
        print("NONDETERMINISTIC: " + flag)
    return 1 if flags else status


if __name__ == "__main__":
    sys.exit(main())
