#!/usr/bin/env python3
"""Runs a command and fails if its peak resident memory exceeds a ceiling.

    python3 bench/scale/rss_guard.py --max-mb 600 -- ./build/bench/scale/scale_sweep --smoke

The peak comes from getrusage(RUSAGE_CHILDREN).ru_maxrss once the command
has exited, so it covers the command's whole run. The command's own exit
status wins when it fails; otherwise the guard exits 1 above the ceiling.
"""

import argparse
import resource
import subprocess
import sys


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-mb", type=float, required=True,
                    help="peak RSS ceiling in MiB")
    ap.add_argument("cmd", nargs=argparse.REMAINDER,
                    help="command to run, after --")
    args = ap.parse_args()
    cmd = args.cmd[1:] if args.cmd[:1] == ["--"] else args.cmd
    if not cmd:
        ap.error("no command given")
    rc = subprocess.call(cmd)
    # ru_maxrss is in KiB on Linux.
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"rss_guard: peak RSS {peak_mb:.1f} MiB, ceiling {args.max_mb:.0f} MiB")
    if rc != 0:
        return rc
    if peak_mb > args.max_mb:
        print("rss_guard: peak RSS above the ceiling", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
