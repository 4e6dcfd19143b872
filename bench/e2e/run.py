#!/usr/bin/env python3
"""Build and run the DmRPC end-to-end benchmark.

    python3 bench/e2e/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace [0|1]] [--out DIR] [--anchor]

Builds bench/e2e (a standalone CMake project that compiles ../../src)
into $CARGO_TARGET_DIR/e2e, or .bench_build/e2e when that is unset, then
runs each selected workload in its own dmrpc_e2e process, one after
another. It prints every metric by name with its unit, then, as the last
stdout line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Untraced runs report the end-to-end metrics of BENCHMARK.json, traced
runs (--trace 1) its per-layer metrics. With one workload the metric
names are the plain names; with "all" they are "<workload>/<name>".
--out DIR appends each run's full record to DIR/<workload>.jsonl for
compare.py. --anchor instead checks the seed-42 reference runs against
the numbers scale_sweep and ycsb_sweep recorded for the same points.

Exits 1 when a correctness gate fails, the build fails, or a run dies.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.normpath(os.path.join(HERE, "..", ".."))
RUN_TIMEOUT_S = 170

# Rows recorded when this benchmark was defined: scale_sweep's 1500 krps
# point (BENCH_scale.json) and ycsb_sweep --modes=ref --workloads=a
# --policy=wait-die --clients=8 --keys=65536 --rates=100 --zipf=0.99
# --warmup-ms=5 --measure-ms=1000. Seed 42, reference window.
ANCHORS = {
    "socialnet_clos": {"goodput_krps": 1473.48, "p50_us": 192.51,
                       "p99_us": 2031.62, "p999_us": 2949.12,
                       "completed": 88409},
    "kv_ycsb_a_byref": {"goodput_krps": 99.64, "p99_us": 176.13,
                        "metrics_fingerprint": "0209a807588b1af8"},
}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds dmrpc_e2e; returns the binary path."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2e")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "dmrpc_e2e"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "dmrpc_e2e")


def run_workload(binary, workload, seed, seconds, flags=()):
    """Runs one workload process; returns its record (None if it died)."""
    cmd = [binary, "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%s" % seconds] + list(flags)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("%s: timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return None
    lines = proc.stdout.strip().splitlines()
    if not lines:
        log("%s: exited %d without a result" % (workload, proc.returncode))
        return None
    record = json.loads(lines[-1])
    if proc.returncode != 0 and record.get("correct", False):
        log("%s: exited %d" % (workload, proc.returncode))
        return None
    record["host"] = {"nproc": os.cpu_count(), "build_type": "Release"}
    return record


def check_anchors(binary):
    ok = True
    for workload, expected in ANCHORS.items():
        rec = run_workload(binary, workload, 42, 10, ["--anchor"])
        if rec is None:
            return False
        got = dict(rec["anchor"])
        got["metrics_fingerprint"] = rec["metrics_fingerprint"]
        for key, want in expected.items():
            match = got[key] == want
            ok = ok and match
            print("%-20s %-20s expected %-18s got %-18s %s" %
                  (workload, key, want, got[key], "ok" if match else "MISMATCH"))
    return ok


def main():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all", choices=names + ["all"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                    choices=[0, 1])
    ap.add_argument("--out", help="append run records to DIR/<workload>.jsonl")
    ap.add_argument("--anchor", action="store_true",
                    help="check the seed-42 anchor rows and exit")
    args = ap.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as e:
        log("build failed: %s" % e)
        return 1
    if args.anchor:
        return 0 if check_anchors(binary) else 1

    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    workloads = names if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        rec = run_workload(binary, workload, args.seed, args.seconds,
                           ["--trace"] if args.trace else [])
        if rec is None:
            return 1
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            with open(os.path.join(args.out, workload + ".jsonl"), "a") as f:
                f.write(json.dumps(rec, sort_keys=True) + "\n")
        for why in rec["failures"]:
            log("%s: CHECK FAILED: %s" % (workload, why))
        result["correct"] = result["correct"] and rec["correct"]
        result["attempted"] += rec["attempted"]
        result["failed"] += rec["failed"]
        print("%s seed=%d events=%d metrics_fingerprint=%s" %
              (workload, args.seed, rec["events"], rec["metrics_fingerprint"]))
        for m in wanted:
            value = rec["metrics"][m["name"]]["value"]
            key = m["name"] if len(workloads) == 1 else workload + "/" + m["name"]
            result["metrics"][key] = {"value": value, "unit": m["unit"]}
            print("  %-32s %16.6f %s" % (m["name"], value, m["unit"]))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
